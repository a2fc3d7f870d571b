(* stream-warm: continuous streaming over the evaluation set, driven
   through Stream.Traffic -> Stream.Router.route -> Stream.Shard
   offer/service by the benchmark's own loop.  Endpoints re-envelope one
   reproduction per bug, so decode mostly hits the cache and most
   incremental updates take the fast path: this workload loads the wire,
   router, shard queues and incremental engine.  The simulator runs only
   in set-up.

   Two phases per cycle, each on a fresh server (new shards, router and
   collectors; empty decode cache; the scenario-binary table is kept, as
   a running server keeps its builds):
   - fixed rate: after one untimed tick that brings every bucket's first
     diagnosis, an open loop offering every report at its scheduled time,
     [rate] reports per second; latency runs from that time to the end of
     the shard service whose incremental refresh folded the report in, so
     a stall is charged to every report it delays;
   - capacity: a closed loop draining the same traffic tick by tick as
     fast as it can. *)

module Core = Snorlax_core
module Collector = Fleet.Collector
module Router = Stream.Router
module Shard = Stream.Shard
module Incremental = Stream.Incremental
open Bench_common

let endpoints = 48
let shards_n = 4
let queue_capacity = 4096
let pass_reports = 20_000

(* The open loop's schedule, well under the measured capacity (40k-75k
   reports/s on a 2-vCPU VM), and the latency limit a report must meet to
   count as answered. *)
let rate = 8_000.0
let latency_limit_ms = 1000.0

(* Capacity passes per fixed-rate pass.  A fixed-rate pass lasts
   [pass_reports / rate] = 2.5 s of wall time and a capacity pass 0.3-0.5 s;
   several capacity passes a cycle give the throughput median enough
   samples, spread over the run. *)
let capacity_per_cycle = 6

type input = {
  ticks : bytes array array;  (** the traffic, tick by tick *)
  flat : bytes array;  (** the same packets in arrival order *)
  modules : (string, Corpus.Bug.built) Hashtbl.t;
  bytes_total : int;
}

let generate ctx baselines =
  let traffic =
    Stream.Traffic.create ~seed:ctx.seed ~endpoints ~churn:true ~baselines
      Corpus.Registry.eval_set
  in
  let ticks = ref [] and n = ref 0 in
  while !n < pass_reports do
    let b = Stream.Traffic.tick traffic in
    ticks := Array.of_list b.Stream.Traffic.packets :: !ticks;
    n := !n + b.Stream.Traffic.offered
  done;
  let ticks = Array.of_list (List.rev !ticks) in
  let flat = Array.concat (Array.to_list ticks) in
  {
    ticks;
    flat;
    modules = Hashtbl.create 16;
    bytes_total = Array.fold_left (fun a p -> a + Bytes.length p) 0 flat;
  }

(* --- one server ----------------------------------------------------------- *)

type server = {
  shards : Shard.t array;
  router : Router.t;
  mirror : (float * float) Queue.t array;
      (** per shard, the (due, offered-at) stamps of its queued reports, in
          queue order: drained from the head exactly as the shard drains *)
  hist : Obs.Metrics.histogram;  (** required by [Shard.service]; never read *)
  mutable cur : bytes;  (** the packet being routed *)
  mutable cur_due : float;
  mutable cur_offered : bool;
  mutable held : (bytes * float) list;  (** routed packets the router held *)
  mutable latency_ms : float Dynbuf.t;
  mutable queue_wait_ms : float Dynbuf.t;
  route_us : float Dynbuf.t;
  mutable errors : int;
  mutable held_peak : int;
}

(* Where a routed packet enters its shard: stamps the mirror with the
   report's due time, then offers it. *)
let offer s idx ~arrival pkt =
  let due =
    if pkt == s.cur then begin
      s.cur_offered <- true;
      s.cur_due
    end
    else
      (* A held success released by a later route. *)
      match List.partition (fun (p, _) -> p == pkt) s.held with
      | (_, d) :: _, rest ->
        s.held <- rest;
        d
      | [], _ -> s.cur_due
  in
  let sh = s.shards.(idx) in
  let before = Shard.shed_count sh in
  Queue.push (due, now ()) s.mirror.(idx);
  Shard.offer sh ~arrival pkt;
  if Shard.shed_count sh > before then
    (* Drop-oldest evicted the queue head. *)
    ignore (Queue.pop s.mirror.(idx))

let create_server input =
  let modules = input.modules in
  let shards =
    Array.init shards_n (fun id ->
        Shard.create ~id ~capacity:queue_capacity ~shed:Shard.Drop_oldest ~modules ())
  in
  let cell = ref None in
  let router =
    Router.create ~offer:(fun idx ~arrival pkt -> offer (Option.get !cell) idx ~arrival pkt) shards modules
  in
  let s =
    {
      shards;
      router;
      mirror = Array.init shards_n (fun _ -> Queue.create ());
      hist = Obs.Metrics.histogram (Obs.Metrics.create ()) "latency_ns";
      cur = Bytes.empty;
      cur_due = 0.0;
      cur_offered = false;
      held = [];
      latency_ms = Dynbuf.create ();
      queue_wait_ms = Dynbuf.create ();
      route_us = Dynbuf.create ();
      errors = 0;
      held_peak = 0;
    }
  in
  cell := Some s;
  s

let route s ~due pkt =
  s.cur <- pkt;
  s.cur_due <- due;
  s.cur_offered <- false;
  if !Spans.enabled then begin
    let t = now () in
    Router.route s.router pkt;
    Dynbuf.push s.route_us ((now () -. t) *. 1e6)
  end
  else Router.route s.router pkt;
  if not s.cur_offered then s.held <- (pkt, due) :: s.held;
  let h = Router.pending_held s.router in
  if h > s.held_peak then s.held_peak <- h

(* Drain every shard completely; each drained report's latency closes
   when its shard's service (ingest + incremental refresh) returns. *)
let service_all s =
  Array.iteri
    (fun i sh ->
      let depth = Shard.depth sh in
      if depth > 0 then begin
        let t_start = now () in
        let r = Spans.with_span "stream.shard" (fun () -> Shard.service sh ~budget:depth s.hist) in
        let t_end = now () in
        s.errors <- s.errors + r.Shard.s_err;
        for _ = 1 to r.Shard.s_drained do
          let due, offered_at = Queue.pop s.mirror.(i) in
          Dynbuf.push s.latency_ms ((t_end -. due) *. 1e3);
          Dynbuf.push s.queue_wait_ms ((t_start -. offered_at) *. 1e3)
        done
      end)
    s.shards

(* --- the two phases ------------------------------------------------------- *)

type pass = {
  server : server;
  wall_s : float;
  lag_ms : float Dynbuf.t;  (** open loop: how late each report was offered *)
}

let fixed_rate_pass input =
  pass @@ fun () ->
  let s = create_server input in
  (* The first tick goes in untimed: it brings every bucket's first
     diagnosis (the cold re-derivations), so the open loop measures a warm
     server. *)
  let first = input.ticks.(0) in
  let t = now () in
  Array.iter (fun pkt -> route s ~due:t pkt) first;
  service_all s;
  s.latency_ms <- Dynbuf.create ();
  s.queue_wait_ms <- Dynbuf.create ();
  let lag = Dynbuf.create () in
  let n = Array.length input.flat in
  let start = Array.length first in
  let t0 = now () +. 0.001 in
  let due i = t0 +. (float_of_int (i - start) /. rate) in
  let i = ref start in
  while !i < n do
    let t = now () in
    if due !i <= t then begin
      while !i < n && due !i <= t do
        let d = due !i in
        Dynbuf.push lag ((now () -. d) *. 1e3);
        route s ~due:d input.flat.(!i);
        incr i
      done;
      service_all s
    end
    else if Array.exists (fun sh -> Shard.depth sh > 0) s.shards then service_all s
  done;
  service_all s;
  { server = s; wall_s = now () -. t0; lag_ms = lag }

let capacity_pass input =
  pass @@ fun () ->
  let s = create_server input in
  let t0 = now () in
  Array.iter
    (fun tick ->
      (* Traced: the wire layer on its own, decoding the tick's packets
         once more (layer isolation, so [iso]). *)
      if !Spans.enabled then
        Spans.with_span ~iso:true "fleet.wire" (fun () ->
            Array.iter (fun pkt -> ignore (Fleet.Wire.decode pkt)) tick);
      let t = now () in
      (* The router's self time includes [Shard.offer], which it calls. *)
      Spans.with_span "stream.router" (fun () -> Array.iter (fun pkt -> route s ~due:t pkt) tick);
      service_all s)
    input.ticks;
  { server = s; wall_s = now () -. t0; lag_ms = Dynbuf.create () }

(* --- checks --------------------------------------------------------------- *)

(* Shed, router-dropped and never-routed reports plus ingest errors: the
   reports that never reached a diagnosis. *)
let lost (p : pass) =
  let s = p.server in
  let shed = Array.fold_left (fun a sh -> a + Shard.shed_count sh) 0 s.shards in
  shed + Router.pending_dropped s.router + Router.pending_held s.router + s.errors

let check errors label (p : pass) =
  let s = p.server in
  let err fmt = Printf.ksprintf (fun m -> errors := (label ^ ": " ^ m) :: !errors) fmt in
  Array.iteri
    (fun idx sh ->
      if Shard.offered sh <> Shard.shed_count sh + Shard.drained sh + Shard.depth sh then
        err "shard %d: offered %d <> shed %d + drained %d + depth %d" idx
          (Shard.offered sh) (Shard.shed_count sh) (Shard.drained sh) (Shard.depth sh);
      let col = Shard.collector sh in
      List.iter
        (fun (b : Collector.bucket) ->
          let inc =
            match Shard.engine sh b with
            | Some eng -> (
              match Incremental.results eng with Some snap -> snap.Incremental.top | None -> None)
            | None -> None
          in
          let batch = (Collector.diagnose col b).Core.Diagnosis.top in
          let name = Fleet.Signature.to_string b.signature in
          if Reassembled.top_id inc <> Reassembled.top_id batch then
            err "bucket %s: incremental top differs from Collector.diagnose" name;
          let gt = (Collector.built col b).Corpus.Bug.ground_truth in
          match inc with
          | Some top
            when Core.Accuracy.root_cause_match ~diagnosed:top.Core.Statistics.pattern
                   ~ground_truth:gt -> ()
          | _ -> err "bucket %s (%s): top pattern misses ground truth" name b.signature.bug_id)
        (Collector.buckets col))
    s.shards;
  let l = lost p in
  if l > 0 then err "%d reports shed, dropped, held or not ingested" l

(* The collector layer on its own: every packet of the pass ingested into
   a fresh [Fleet.Collector] from an empty decode cache (inside the
   stream, ingest runs hidden within [Shard.service]).  Layer isolation
   only, so its span is [iso]. *)
let collector_rows input rows =
  let us = Dynbuf.create () in
  let busy =
    pass @@ fun () ->
    let col = Collector.create ~modules:input.modules () in
    let from = Spans.length () in
    Spans.with_span ~iso:true "fleet.collector" (fun () ->
        Array.iter
          (fun pkt ->
            let t = now () in
            ignore (Collector.ingest col pkt);
            Dynbuf.push us ((now () -. t) *. 1e6))
          input.flat);
    busy_ms (Spans.aggregate ~from ()) "fleet.collector"
  in
  Hashtbl.replace rows "collector.ingest_us_p50" (S.percentile (Dynbuf.to_array us) 50.0);
  Hashtbl.replace rows "collector.busy_ms" busy;
  rows

(* --- the run -------------------------------------------------------------- *)

let sum_shards s f = Array.fold_left (fun a sh -> a + f sh) 0 s.shards

let engines_total s f =
  Array.fold_left
    (fun a sh ->
      List.fold_left
        (fun a b -> match Shard.engine sh b with Some e -> a + f e | None -> a)
        a
        (Collector.buckets (Shard.collector sh)))
    0 s.shards

let over_limit (p : pass) =
  let l = p.server.latency_ms in
  let n = ref 0 in
  Array.iter (fun v -> if v > latency_limit_ms then incr n) (Dynbuf.to_array l);
  !n

let p99 b = if Dynbuf.length b = 0 then 0.0 else S.percentile (Dynbuf.to_array b) 99.0

(* Layer rows of one traced cycle: a capacity pass with its span table
   (wire, router, shard, incremental, decode cache) and a fixed-rate pass
   run with recording off (queue wait and lag come from clock stamps);
   [collector_rows] adds the collector's. *)
let layer_rows input (cap : pass) tbl (fixed : pass) hits =
  let s = cap.server in
  let wire_s = Spans.self_s tbl "fleet.wire" in
  let drained = Array.map Shard.drained s.shards in
  let mean = float_of_int (Array.fold_left ( + ) 0 drained) /. float_of_int shards_n in
  let fast = engines_total s Incremental.fast_updates in
  let re = engines_total s Incremental.rederives in
  let rows = Hashtbl.create 32 in
  List.iter
    (fun (k, v) -> Hashtbl.replace rows k v)
    [
      ("wire.bytes", float_of_int input.bytes_total);
      ("wire.decode_mb_per_s", if wire_s > 0.0 then float_of_int input.bytes_total /. 1e6 /. wire_s else 0.0);
      ("collector.decode_errors", float_of_int (sum_shards s Shard.ingest_err));
      ("router.route_us_p50", S.percentile (Dynbuf.to_array s.route_us) 50.0);
      ("router.busy_ms", busy_ms tbl "stream.router");
      ("router.held", float_of_int s.held_peak);
      ("shard.service_busy_ms", busy_ms tbl "stream.shard");
      ("shard.queue_wait_p99_ms", p99 fixed.server.queue_wait_ms);
      ("shard.depth_peak", float_of_int (Array.fold_left (fun a sh -> max a (Shard.peak_depth sh)) 0 s.shards));
      ("shard.shed", float_of_int (sum_shards s Shard.shed_count));
      ("shard.skew", if mean > 0.0 then float_of_int (Array.fold_left max 0 drained) /. mean else 0.0);
      ("incremental.fast_updates", float_of_int fast);
      ("incremental.rederives", float_of_int re);
      ("incremental.fast_share", if fast + re > 0 then float_of_int fast /. float_of_int (fast + re) else 0.0);
      ("decode_cache.hit_share", hits);
      ("gen.lag_p99_ms", p99 fixed.lag_ms);
    ];
  rows

let run ctx =
  (* Decode inline: a pool worker domain would stay alive for the whole
     run and turn every minor collection into a two-domain barrier, which
     on a shared host adds more noise than the parallel decode saves. *)
  Snorlax_util.Pool.set_default_jobs 1;
  let gens = Dynbuf.create () and gens_raw = Dynbuf.create () in
  let input = ref None in
  for _ = 1 to 3 do
    input := None;
    let scale = host_scale () in
    let t0 = now () in
    let baselines = Stream.Traffic.prepare ~jobs:ctx.lanes Corpus.Registry.eval_set in
    input := Some (generate ctx baselines);
    let dt = now () -. t0 in
    Dynbuf.push gens (dt *. scale);
    Dynbuf.push gens_raw dt
  done;
  let input = Option.get !input in
  (* Warm-up: fills the decoder walk tables, the diagnosis def-table and
     the server's scenario builds before anything is timed. *)
  let warmup_raw_s, warmup_s =
    let w = capacity_pass input in
    (w.wall_s, w.wall_s *. !pass_scale)
  in
  let setup_s = S.percentile (Dynbuf.to_array gens) 50.0 +. warmup_s in
  let setup_raw_s = S.percentile (Dynbuf.to_array gens_raw) 50.0 +. warmup_raw_s in
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let n = Array.length input.flat in
  let account ?(fixed = false) label p =
    check errors label p;
    attempted := !attempted + n;
    failed := !failed + lost p + if fixed then over_limit p else 0
  in
  let info =
    [
      ("endpoints", string_of_int endpoints);
      ("bugs", string_of_int (List.length Corpus.Registry.eval_set));
      ("reports per pass", string_of_int n);
      ("ticks per pass", string_of_int (Array.length input.ticks));
      ("shards", string_of_int shards_n);
      ("pool width", Printf.sprintf "%d lanes reproducing in set-up, 1 lane in timed passes" ctx.lanes);
      ("fixed rate", Printf.sprintf "%.0f reports/s, latency limit %.0f ms" rate latency_limit_ms);
    ]
  in
  let setup_note =
    Printf.sprintf
      "median of 3 baseline reproductions + traffic generation [%s] + %.3f s warm-up pass; raw %.4f s"
      (String.concat "; " (List.map (Printf.sprintf "%.3f") (Array.to_list (Dynbuf.to_array gens))))
      warmup_s setup_raw_s
  in
  if not ctx.traced then begin
    (* Scaled to the reference host speed, and raw. *)
    let lat = Dynbuf.create () and rates = Dynbuf.create () in
    let lat_raw = Dynbuf.create () and rates_raw = Dynbuf.create () in
    let lag = Dynbuf.create () in
    let bench = (lat, rates, lat_raw, rates_raw, lag) in
    let cycles =
      repeat_for ~seconds:ctx.seconds ~min:2 (fun i ->
          let f = fixed_rate_pass input in
          let scale = !pass_scale in
          note_live_heap ~bench f;
          account ~fixed:true (Printf.sprintf "fixed-rate pass %d" i) f;
          Dynbuf.iter
            (fun ms ->
              Dynbuf.push lat (ms *. scale);
              Dynbuf.push lat_raw ms)
            f.server.latency_ms;
          Dynbuf.iter (Dynbuf.push lag) f.lag_ms;
          for k = 1 to capacity_per_cycle do
            let c = capacity_pass input in
            Dynbuf.push rates (float_of_int n /. (c.wall_s *. !pass_scale));
            Dynbuf.push rates_raw (float_of_int n /. c.wall_s);
            note_live_heap ~bench c;
            account (Printf.sprintf "capacity pass %d.%d" i k) c
          done)
    in
    let lat = Dynbuf.to_array lat in
    {
      e2e =
        [
          single "setup_s" "s" setup_s ~note:setup_note;
          of_samples "rootcause_p50_ms" "ms" lat ~note:"report due -> shard refresh that folded it in, open loop";
          tail_of "rootcause_tail_ms" "ms" lat;
          of_samples "reports_per_s" "1/s" (Dynbuf.to_array rates) ~note:"closed-loop drain rate";
          of_samples "live_heap_mb" "MB" (Dynbuf.to_array live_heap_mb)
            ~note:"live heap after a pass, its server state included";
          of_samples ~gated:false "raw rootcause_p50_ms" "ms" (Dynbuf.to_array lat_raw);
          of_samples ~gated:false "raw reports_per_s" "1/s" (Dynbuf.to_array rates_raw);
        ];
      layers = Hashtbl.create 1;
      span_table = [];
      attempted = !attempted;
      failed = !failed;
      errors = List.rev !errors;
      info =
        info
        @ [
            ( Printf.sprintf "cycles (one fixed-rate + %d capacity passes)" capacity_per_cycle,
              string_of_int cycles );
            ("generator lateness p99", Printf.sprintf "%.4f ms" (p99 lag));
          ];
    }
  end
  else begin
    let tables = ref [] and overhead = Dynbuf.create () in
    let mark = Spans.length () in
    let cycles =
      repeat_for ~seconds:ctx.seconds ~min:1 (fun i ->
          let u, (c, tbl, hits, iso) =
            pair i
              (fun () -> capacity_pass input)
              (fun () ->
                let from = Spans.length () in
                let c = capacity_pass input in
                (c, Spans.aggregate ~from (), pass_hit_share (), Spans.iso_s ~from ()))
          in
          account (Printf.sprintf "untraced capacity pass %d" i) u;
          account (Printf.sprintf "traced capacity pass %d" i) c;
          let f = Spans.paused (fun () -> fixed_rate_pass input) in
          account ~fixed:true (Printf.sprintf "fixed-rate pass %d" i) f;
          Dynbuf.push overhead ((c.wall_s -. iso -. u.wall_s) /. u.wall_s);
          tables := collector_rows input (layer_rows input c tbl f hits) :: !tables)
    in
    let layers = median_tables !tables in
    Hashtbl.replace layers "trace.overhead_share" (S.percentile (Dynbuf.to_array overhead) 50.0);
    {
      e2e = [];
      layers;
      span_table = span_table ~from:mark ();
      attempted = !attempted;
      failed = !failed;
      errors = List.rev !errors;
      info = info @ [ ("traced cycles", string_of_int cycles) ];
    }
  end
