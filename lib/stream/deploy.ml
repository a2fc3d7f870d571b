module Core = Snorlax_core
module Collector = Fleet.Collector
module Signature = Fleet.Signature

type config = {
  endpoints : int;
  duration_ticks : int;
  shards : int;
  churn : bool;
  fault : Chaos.Fault.cls option;
  seed : int;
  shed : Shard.shed;
  queue_capacity : int;
  drain_per_tick : int;
}

let default_config =
  {
    endpoints = 32;
    duration_ticks = 48;
    shards = 4;
    churn = false;
    fault = None;
    seed = 42;
    shed = Shard.Drop_oldest;
    queue_capacity = 256;
    drain_per_tick = 64;
  }

type progress = {
  p_tick : int;
  p_load : float;
  p_alive : int;
  p_offered : int;  (** cumulative packets the source emitted *)
  p_shed : int;
  p_drained : int;
  p_depth : int;  (** total queue depth across shards right now *)
  p_buckets : int;
  p_elapsed_ns : float;
}

(* The ingest/decode stage percentiles come from the ambient registry
   mid-run, so the column only fills in when a scope is enabled. *)
let stage name =
  match Obs.Scope.current () with
  | None -> "-"
  | Some c -> (
    match Obs.Metrics.find_histogram c.Obs.Scope.metrics name with
    | Some (h : Obs.Metrics.hstats) when h.Obs.Metrics.count > 0 ->
      Printf.sprintf "%.0f/%.0fus"
        (h.Obs.Metrics.p50 /. 1e3)
        (h.Obs.Metrics.p99 /. 1e3)
    | _ -> "-")

let watch_line (p : progress) =
  let secs = p.p_elapsed_ns /. 1e9 in
  let rate = if secs > 0.0 then float_of_int p.p_drained /. secs else 0.0 in
  Printf.sprintf
    "[stream] tick %d: load %.2f, %d eps, %d offered / %d shed / %d drained \
     (%.0f/s), depth %d, %d buckets, ingest p50/p99 %s, decode p50/p99 %s"
    p.p_tick p.p_load p.p_alive p.p_offered p.p_shed p.p_drained rate p.p_depth
    p.p_buckets
    (stage "fleet/ingest_ns")
    (stage "pt/decode_ns")

type bucket_row = {
  shard : int;
  bug_id : string;
  signature : string;
  endpoints_hit : int;
  failing_kept : int;
  failing_dropped : int;
  success_kept : int;
  success_dropped : int;
  wire_bytes : int;
  qualifiers : string list;
  top_pattern : string option;
  top_describe : string option;
  f1 : float;
  root_cause_match : bool;
  ordering_accuracy : float;
  batch_agrees : bool;
      (** incremental top pattern == from-scratch batch top pattern *)
  rederives : int;
  fast_updates : int;
}

type summary = {
  cfg : config;
  ticks : int;
  offered : int;  (** packets the source emitted *)
  tracker_malformed : int;
  shed : int;
  drained : int;
  ingested_ok : int;
  ingest_errors : int;
  tracker_held : int;
  tracker_dropped : int;
  leftover_queue : int;  (** should be 0 after the final drain *)
  bucket_count : int;
  rows : bucket_row list;
  incidents : int;
  joins : int;
  leaves : int;
  crashes : int;
  final_endpoints : int;
  inject_faults : int;
  peak_queue_depth : int;
  watermark_highs : int;
  rederives : int;
  fast_updates : int;
  wire_bytes : int;
  decode_errors : int;
  unrouted : int;
  dedup_ratio : float;
  reports_per_sec : float;  (** sustained: drained / streaming wall seconds *)
  shed_ratio : float;  (** shed / shard-offered *)
  latency_p50_ns : float;
  latency_p99_ns : float;
  shard_latency : (float * float) array;  (** per-shard (p50, p99) queue-wait *)
  agree : bool;  (** every bucket's [batch_agrees] *)
  accounted : bool;  (** offered = shed + drained + leftover, per shard *)
  stream_ns : float;  (** the tick loop and final drain (source setup excluded) *)
  diagnosis_ns : float;
  total_ns : float;
}

let now = Obs.Span.wall_clock_ns

(* One bucket's row, plus the wall time of its batch cross-check. *)
let diagnose_bucket shard_idx shard (b : Collector.bucket) =
  let collector = Shard.collector shard in
  let built = Collector.built collector b in
  let gt = built.Corpus.Bug.ground_truth in
  let snap =
    match Shard.engine shard b with
    | Some eng -> Incremental.results eng
    | None -> None
  in
  let top_pattern, top_describe, f1, rc_match, a_o =
    match snap with
    | Some { Incremental.top = Some top; _ } ->
      let p = top.Core.Statistics.pattern in
      ( Some (Core.Patterns.id p),
        Some (Core.Patterns.describe built.Corpus.Bug.m p),
        top.Core.Statistics.f1,
        Core.Accuracy.root_cause_match ~diagnosed:p ~ground_truth:gt,
        Core.Accuracy.ordering_accuracy ~diagnosed:p ~ground_truth:gt )
    | _ -> (None, None, 0.0, false, 0.0)
  in
  (* The lazy cross-check: a from-scratch batch diagnosis over the same
     kept reports must land on the same top pattern.  Cheap here — the
     traces are warm in the shared decode cache. *)
  let t0 = now () in
  let batch = Collector.diagnose collector b in
  let dt = now () -. t0 in
  let batch_top =
    Option.map
      (fun (s : Core.Statistics.scored) -> Core.Patterns.id s.Core.Statistics.pattern)
      batch.Core.Diagnosis.top
  in
  let batch_agrees =
    match (top_pattern, batch_top) with
    | None, None -> true
    | Some a, Some b -> String.equal a b
    | _ -> false
  in
  if not batch_agrees then
    Obs.Log.error "stream/incremental_diverged"
      ~fields:
        [
          ("shard", Obs.Log.Int shard_idx);
          ("bug", Obs.Log.Str b.Collector.signature.Signature.bug_id);
          ( "incremental",
            Obs.Log.Str (Option.value ~default:"-" top_pattern) );
          ("batch", Obs.Log.Str (Option.value ~default:"-" batch_top));
          ("recorder", Obs.Log.Str (Obs.Log.Recorder.dump (Shard.recorder shard)));
        ];
  ( {
      shard = shard_idx;
      bug_id = b.Collector.signature.Signature.bug_id;
      signature = Signature.to_string b.Collector.signature;
      endpoints_hit = List.length b.Collector.endpoints;
      failing_kept = Collector.failing_kept b;
      failing_dropped = Collector.failing_dropped b;
      success_kept = Collector.success_kept b;
      success_dropped = Collector.success_dropped b;
      wire_bytes = b.Collector.wire_bytes;
      qualifiers =
        List.map Collector.qualifier_to_string (Collector.qualifiers b);
      top_pattern;
      top_describe;
      f1;
      root_cause_match = rc_match;
      ordering_accuracy = a_o;
      batch_agrees;
      rederives = (match snap with Some s -> s.Incremental.rederives | None -> 0);
      fast_updates =
        (match snap with Some s -> s.Incremental.fast_updates | None -> 0);
    },
    dt )

(* Where a run's packets come from: one batch per tick, plus the
   population figures the summary reports. *)
type source = {
  next : unit -> Traffic.batch;
  alive : unit -> int;
  faults : unit -> int;
}

(* The one deployment loop.  [make_source] runs inside the root span and
   the total-time window, so a generator's reproduction step counts. *)
let drive ?tick cfg make_source =
  Obs.Scope.with_span "stream"
    ~args:
      [
        ("endpoints", Obs.Span.Int cfg.endpoints);
        ("shards", Obs.Span.Int cfg.shards);
        ("ticks", Obs.Span.Int cfg.duration_ticks);
      ]
  @@ fun () ->
  let t0 = now () in
  let src = make_source () in
  let modules = Hashtbl.create 8 in
  let shards =
    Array.init cfg.shards (fun id ->
        Shard.create ~id ~capacity:cfg.queue_capacity ~shed:cfg.shed ~modules
          ())
  in
  (* Latency accounting lives in private registries so the summary's
     percentiles exist with telemetry off.  One registry per shard for
     the per-shard tails; the fleet-wide percentiles come from a merge
     at the end. *)
  let latency_regs = Array.init cfg.shards (fun _ -> Obs.Metrics.create ()) in
  let latency_hists =
    Array.map (fun r -> Obs.Metrics.histogram r "latency_ns") latency_regs
  in
  let service_all ~budget =
    Array.iteri
      (fun i s -> ignore (Shard.service s ~budget latency_hists.(i)))
      shards
  in
  let router = Router.create shards modules in
  let offered = ref 0 in
  let incidents = ref 0 in
  let joins = ref 0 and leaves = ref 0 and crashes = ref 0 in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 shards in
  let bucket_total () =
    sum (fun s -> List.length (Collector.buckets (Shard.collector s)))
  in
  (* The streaming phase proper: generate, route, service — per tick. *)
  let t_stream0 = now () in
  for _ = 1 to cfg.duration_ticks do
    let batch = src.next () in
    offered := !offered + batch.Traffic.offered;
    incidents := !incidents + batch.Traffic.incidents;
    joins := !joins + batch.Traffic.joins;
    leaves := !leaves + batch.Traffic.leaves;
    crashes := !crashes + batch.Traffic.crashes;
    List.iter (Router.route router) batch.Traffic.packets;
    service_all ~budget:cfg.drain_per_tick;
    match tick with
    | Some f ->
      f
        {
          p_tick = batch.Traffic.tick;
          p_load = batch.Traffic.load;
          p_alive = src.alive ();
          p_offered = !offered;
          p_shed = sum Shard.shed_count;
          p_drained = sum Shard.drained;
          p_depth = sum Shard.depth;
          p_buckets = bucket_total ();
          p_elapsed_ns = now () -. t_stream0;
        }
    | None -> ()
  done;
  (* Fleet gone quiet: drain the backlog (bounded — every pass shrinks
     the queues, but guard against a zero-budget misconfiguration). *)
  let guard = ref (cfg.queue_capacity * cfg.shards + 1) in
  while sum Shard.depth > 0 && !guard > 0 do
    service_all ~budget:(max 1 cfg.drain_per_tick);
    decr guard
  done;
  let t_streamed = now () in
  let diagnosed =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun idx s ->
              List.map (diagnose_bucket idx s)
                (Collector.buckets (Shard.collector s)))
            shards))
  in
  let rows = List.map fst diagnosed in
  let t_done = now () in
  let shard_offered = sum Shard.offered in
  let shed = sum Shard.shed_count in
  let drained = sum Shard.drained in
  let accounted =
    Array.for_all
      (fun s ->
        Shard.offered s
        = Shard.shed_count s + Shard.drained s + Shard.depth s)
      shards
  in
  let totals f = sum (fun s -> f (Collector.totals (Shard.collector s))) in
  let bucket_count = List.length rows in
  let dedup_ratio =
    if bucket_count = 0 then 0.0
    else
      float_of_int (totals (fun t -> t.Collector.failing_received))
      /. float_of_int bucket_count
  in
  Obs.Scope.set_gauge "fleet/dedup_ratio" dedup_ratio;
  let stream_ns = t_streamed -. t_stream0 in
  let secs = stream_ns /. 1e9 in
  let shed_ratio =
    if shard_offered = 0 then 0.0
    else float_of_int shed /. float_of_int shard_offered
  in
  Obs.Scope.set_gauge "stream/shed_ratio" shed_ratio;
  let fleet_reg = Obs.Metrics.create () in
  Array.iter (fun r -> Obs.Metrics.merge ~into:fleet_reg r) latency_regs;
  let fleet_hist = Obs.Metrics.histogram fleet_reg "latency_ns" in
  let shard_latency =
    Array.map
      (fun h ->
        ( Obs.Metrics.percentile h ~p:50.0,
          Obs.Metrics.percentile h ~p:99.0 ))
      latency_hists
  in
  {
    cfg;
    ticks = cfg.duration_ticks;
    offered = !offered;
    tracker_malformed = Router.malformed router;
    shed;
    drained;
    ingested_ok = sum Shard.ingest_ok;
    ingest_errors = sum Shard.ingest_err;
    tracker_held = Router.pending_held router;
    tracker_dropped = Router.pending_dropped router;
    leftover_queue = sum Shard.depth;
    bucket_count;
    rows;
    incidents = !incidents;
    joins = !joins;
    leaves = !leaves;
    crashes = !crashes;
    final_endpoints = src.alive ();
    inject_faults = src.faults ();
    peak_queue_depth =
      Array.fold_left (fun a s -> max a (Shard.peak_depth s)) 0 shards;
    watermark_highs = sum Shard.high_crossings;
    rederives =
      List.fold_left (fun a (r : bucket_row) -> a + r.rederives) 0 rows;
    fast_updates =
      List.fold_left (fun a (r : bucket_row) -> a + r.fast_updates) 0 rows;
    wire_bytes = totals (fun t -> t.Collector.wire_bytes);
    decode_errors = totals (fun t -> t.Collector.decode_errors);
    unrouted = totals (fun t -> t.Collector.unrouted);
    dedup_ratio;
    reports_per_sec =
      (if secs > 0.0 then float_of_int drained /. secs else 0.0);
    shed_ratio;
    latency_p50_ns = Obs.Metrics.percentile fleet_hist ~p:50.0;
    latency_p99_ns = Obs.Metrics.percentile fleet_hist ~p:99.0;
    shard_latency;
    agree = List.for_all (fun r -> r.batch_agrees) rows;
    accounted;
    stream_ns;
    diagnosis_ns = List.fold_left (fun a (_, dt) -> a +. dt) 0.0 diagnosed;
    total_ns = t_done -. t0;
  }

let run ?tick ?baselines cfg bugs =
  if cfg.shards < 1 then invalid_arg "Stream.Deploy.run: shards < 1";
  if cfg.duration_ticks < 1 then
    invalid_arg "Stream.Deploy.run: duration_ticks < 1";
  drive ?tick cfg @@ fun () ->
  let traffic =
    Traffic.create ~seed:cfg.seed ~endpoints:cfg.endpoints ~churn:cfg.churn
      ?fault:cfg.fault ?baselines bugs
  in
  {
    next = (fun () -> Traffic.tick traffic);
    alive = (fun () -> Traffic.alive traffic);
    faults = (fun () -> Traffic.faults traffic);
  }

let run_once ?tick ~endpoints bugs =
  if endpoints < 1 then invalid_arg "Stream.Deploy.run_once: endpoints < 1";
  let plan =
    Array.of_list
      (List.concat_map (fun bug -> List.init endpoints (fun e -> (bug, e))) bugs)
  in
  (* One shard, emptied every tick: a shipment is routed and fully
     folded into its bucket before the next endpoint runs. *)
  let cfg =
    {
      default_config with
      endpoints;
      duration_ticks = Array.length plan;
      shards = 1;
      drain_per_tick = default_config.queue_capacity;
    }
  in
  drive ?tick cfg @@ fun () ->
  let next_tick = ref 0 in
  let next () =
    let tick = !next_tick in
    incr next_tick;
    let bug, endpoint = plan.(tick) in
    let s = Fleet.Endpoint.run ~bug ~endpoint in
    {
      Traffic.tick;
      packets = s.Fleet.Endpoint.packets;
      offered = List.length s.Fleet.Endpoint.packets;
      incidents = (if s.Fleet.Endpoint.reproduced then 1 else 0);
      load = 1.0;
      burst = false;
      joins = 0;
      leaves = 0;
      crashes = 0;
    }
  in
  { next; alive = (fun () -> endpoints); faults = (fun () -> 0) }
