(* Shared plumbing for the workloads: the clock, the run context, the
   in-memory span recorder of the traced run, and the metric records the
   report prints. *)

module S = Perfbench_stats.Sample_stats
module Dynbuf = Snorlax_util.Dynbuf

(* Seconds on the monotonic clock, nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  nproc : int;
  lanes : int;  (** pool width: never more than [nproc] *)
}

(* --- metrics -------------------------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  q1 : float;
  q3 : float;
  n : int;
  note : string;
  gated : bool;
      (** listed in BENCHMARK.json and in the JSON result; an ungated
          metric is printed in the report only *)
}

(* Median and quartiles of [samples]; the value is the median. *)
let of_samples ?(note = "") ?(gated = true) name unit_ samples =
  let s = S.summarize samples in
  { name; unit_; value = s.S.median; q1 = s.S.q1; q3 = s.S.q3; n = s.S.n; note; gated }

(* The tail percentile of [samples] (see {!Perfbench_stats.Sample_stats.tail_p}),
   with the percentile and the sample count beside it.  Printed, not
   gated: on a shared VM whose host throttles it in pauses of tens of
   milliseconds, every tail percentile of a sub-millisecond operation is
   set by how often the pauses came (stream-warm's p95 read 0.24 ms on one
   run and 21 ms on another). *)
let tail_of name unit_ samples =
  let s = S.summarize samples in
  {
    name;
    unit_;
    value = s.S.tail;
    q1 = s.S.q1;
    q3 = s.S.q3;
    n = s.S.n;
    note =
      Printf.sprintf "p%g of %d samples, %d beyond it" s.S.tail_at s.S.n
        (s.S.n * (100 - int_of_float s.S.tail_at) / 100);
    gated = false;
  }

let single ?(note = "") name unit_ v =
  { name; unit_; value = v; q1 = v; q3 = v; n = 1; note; gated = true }

(* --- host speed ----------------------------------------------------------- *)

(* A shared host's speed drifts over minutes, and most of all in memory
   and allocation: on a 2-vCPU VM, stream-warm's capacity passes ran
   0.31-0.51 s within one run, and fix sweeps 3.1-9.2 s across runs,
   while a cache-resident integer loop moved by 10%.  Left alone, that
   drift would set the spread of every timing between runs.  So each
   gated time is scaled to a reference host speed: on both sides of each
   timed pass, and before each set-up, the benchmark times
   [reference_loop] and multiplies the pass's time by
   [reference_nominal_s] over the loop's mean time.  The loop calls no
   program code; it allocates and promotes lists the way the program's
   data structures do, so it slows with the program when memory is
   contended (its time tracked the capacity passes above; a
   cache-resident or a pure memory-access loop did not).  A program change
   moves the scaled time as much as the raw one; a host slowdown stretches
   the loop and the pass alike and cancels out.  A change to the process's
   [Gc] settings would move the loop too.  The raw times are printed
   beside the scaled ones. *)

(* About the loop's time on the 2-vCPU VM the bounds were set on, so the
   scaled figures read close to the raw ones there. *)
let reference_nominal_s = 0.03

let reference_loop () =
  let t0 = now () in
  let keep = Array.make 2 [] in
  for r = 1 to 24 do
    keep.(r land 1) <- List.init 20_000 (fun i -> (i, float_of_int (i * r)))
  done;
  ignore (Sys.opaque_identity keep);
  now () -. t0

(* [reference_loop] from a collected heap, leaving the heap collected:
   its time must not depend on the garbage the previous pass left, nor
   leave its own to the next. *)
let reference_time () =
  Gc.full_major ();
  let t = reference_loop () in
  Gc.full_major ();
  t

(* The factor taking a time measured right after this call to the
   reference host speed. *)
let host_scale () = reference_nominal_s /. reference_time ()

(* The host-speed factor of the latest pass, from [reference_loop] run
   right before and right after it; set by [pass]. *)
let pass_scale = ref 1.0

(* --- live heap ------------------------------------------------------------ *)

(* Per pass, the live heap after it, in MB: work moved into kept state or
   process-wide caches shows here.  Live words are exact (a heap walk),
   unlike the top heap size, which depends on when collections happened
   to run. *)
let live_heap_mb = Dynbuf.create ()

(* Records the live heap while [keep] (the pass's server state and
   results) is still reachable.  The benchmark's own run-wide sample
   buffers — [bench], and [live_heap_mb] itself — grow with the number of
   passes that fit in the run, so the words reachable from them are left
   out. *)
let note_live_heap ~bench keep =
  (* Collect first: the walk counts every unswept block as live. *)
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  let own = Obj.reachable_words (Obj.repr (bench, live_heap_mb)) in
  ignore (Sys.opaque_identity keep);
  Dynbuf.push live_heap_mb (float_of_int ((live - own) * (Sys.word_size / 8)) /. 1e6)

(* --- spans ---------------------------------------------------------------- *)

(* Spans of the traced run, recorded with [Obs.Span] on the monotonic
   clock around the benchmark's own calls into each layer's public
   functions, and kept in memory until the end.  One recorder per process,
   driven from the main domain only.  A span carrying the [iso] argument
   marks work the untraced run does not do — a layer's entry point called
   again on the same inputs to isolate it — so the tracing overhead can
   leave it out. *)
module Spans = struct
  let col = Obs.Span.create ~clock:(fun () -> Int64.to_float (Monotonic_clock.now ())) ()
  let enabled = ref false

  (* Spans started so far: span ids run 0, 1, ... in start order, so this
     is the id of the next one. *)
  let started = ref 0

  let iso_args = [ ("iso", Obs.Span.Int 1) ]
  let is_iso sp = Obs.Span.find_arg sp "iso" <> None

  let with_span ?(iso = false) name f =
    if not !enabled then f ()
    else begin
      incr started;
      Obs.Span.with_span col ~args:(if iso then iso_args else []) name (fun _ -> f ())
    end

  (* [f] with recording off: the traced run's untraced reference passes. *)
  let paused f =
    let was = !enabled in
    enabled := false;
    Fun.protect ~finally:(fun () -> enabled := was) f

  (* A mark for [aggregate ~from] / [iso_s ~from]: spans recorded after
     this call. *)
  let length () = !started

  let duration_s sp = Obs.Span.duration_ns sp *. 1e-9

  (* Spans [from..started-1], and per span whether it is [iso], indexed by
     id - from. *)
  let since from =
    let ss = List.filter (fun (sp : Obs.Span.span) -> sp.id >= from) (Obs.Span.spans col) in
    let iso = Array.make (max 1 (!started - from)) false in
    List.iter (fun (sp : Obs.Span.span) -> iso.(sp.id - from) <- is_iso sp) ss;
    (ss, iso)

  let parent_since from (sp : Obs.Span.span) =
    match sp.parent with Some p when p >= from -> Some (p - from) | _ -> None

  (* Per name: (total inclusive seconds, total self seconds, count) over
     the spans since [from].  Self time is a span's duration minus the
     part its direct children cover (children never overlap: one
     domain). *)
  let aggregate ?(from = 0) () =
    let ss, _ = since from in
    let child = Array.make (max 1 (!started - from)) 0.0 in
    List.iter
      (fun sp ->
        match parent_since from sp with
        | Some p -> child.(p) <- child.(p) +. duration_s sp
        | None -> ())
      ss;
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (sp : Obs.Span.span) ->
        let incl, self, c =
          Option.value (Hashtbl.find_opt tbl sp.name) ~default:(0.0, 0.0, 0)
        in
        let d = duration_s sp in
        Hashtbl.replace tbl sp.name (incl +. d, self +. (d -. child.(sp.id - from)), c + 1))
      ss;
    tbl

  let self_s tbl name =
    match Hashtbl.find_opt tbl name with Some (_, self, _) -> self | None -> 0.0

  (* Total duration of top-most [iso] spans since [from]. *)
  let iso_s ?(from = 0) () =
    let ss, iso = since from in
    List.fold_left
      (fun total sp ->
        let parent_iso = match parent_since from sp with Some p -> iso.(p) | None -> false in
        if is_iso sp && not parent_iso then total +. duration_s sp else total)
      0.0 ss

  (* Chrome trace-event JSON. *)
  let write path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    output_string oc (Obs.Json.to_string (Obs.Chrome_trace.export col))
end

(* --- per-layer rows ------------------------------------------------------- *)

(* Every per-layer metric, in print order, with its unit.  Each workload's
   traced run fills the rows its layers exercise; a layer the workload
   never calls reads 0. *)
let layer_metrics =
  [
    ("sim.runs", "count");
    ("sim.steps", "count");
    ("sim.busy_ms", "ms");
    ("sim.msteps_per_s", "Msteps/s");
    ("tracer.bytes", "bytes");
    ("tracer.busy_ms", "ms");
    ("wire.bytes", "bytes");
    ("wire.decode_mb_per_s", "MB/s");
    ("collector.ingest_us_p50", "us");
    ("collector.busy_ms", "ms");
    ("collector.decode_errors", "count");
    ("router.route_us_p50", "us");
    ("router.busy_ms", "ms");
    ("router.held", "count");
    ("shard.service_busy_ms", "ms");
    ("shard.queue_wait_p99_ms", "ms");
    ("shard.depth_peak", "count");
    ("shard.shed", "count");
    ("shard.skew", "ratio");
    ("incremental.fast_updates", "count");
    ("incremental.rederives", "count");
    ("incremental.fast_share", "share");
    ("decode.traces", "count");
    ("decode.busy_ms", "ms");
    ("decode.traces_per_s", "1/s");
    ("decode_cache.hit_share", "share");
    ("pointsto.busy_ms", "ms");
    ("pointsto.solver_iterations", "count");
    ("type_ranking.busy_ms", "ms");
    ("patterns.busy_ms", "ms");
    ("patterns.candidates", "count");
    ("statistics.busy_ms", "ms");
    ("hb.events", "count");
    ("hb.busy_ms", "ms");
    ("patch.attempts", "count");
    ("patch.fixed_share", "share");
    ("validate.runs", "count");
    ("validate.busy_ms", "ms");
    ("validate.runs_per_s", "1/s");
    ("gen.lag_p99_ms", "ms");
    ("trace.overhead_share", "share");
  ]

type outcome = {
  e2e : metric list;  (** untraced run; empty in a traced run *)
  layers : (string, float) Hashtbl.t;  (** traced run; empty otherwise *)
  span_table : (string * float * float * int) list;
      (** traced run: (span, inclusive ms, self ms, calls), busiest first *)
  attempted : int;
  failed : int;
  errors : string list;  (** correctness-check failures *)
  info : (string * string) list;  (** extra lines for the report *)
}

(* The span table of everything recorded since [from]. *)
let span_table ?from () =
  let tbl = Spans.aggregate ?from () in
  Hashtbl.fold (fun name (incl, self, c) acc -> (name, incl *. 1e3, self *. 1e3, c) :: acc) tbl []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

(* One timed pass: the process-wide decode memo and its counters cleared,
   and the host speed taken on both sides of [f], which runs under the
   traced run's root span.  [reference_time] finishes the major GC cycle
   first, so each pass starts from the same cache and heap state instead
   of paying for its predecessor's garbage. *)
let pass f =
  Pt.Decode_cache.clear Pt.Decode_cache.shared;
  let before = reference_time () in
  let r = Spans.with_span "bench.pass" f in
  pass_scale := reference_nominal_s /. ((before +. reference_time ()) /. 2.0);
  r

(* Decode-cache hit share of the current pass: every pass starts by
   clearing the cache, which also resets its counters. *)
let pass_hit_share () =
  let st = Pt.Decode_cache.stats Pt.Decode_cache.shared in
  let probes = st.Pt.Decode_cache.hits + st.Pt.Decode_cache.misses in
  if probes = 0 then 0.0 else float_of_int st.Pt.Decode_cache.hits /. float_of_int probes

(* Per-key median across the traced passes' layer tables. *)
let median_tables tables =
  let out = Hashtbl.create 64 in
  List.iter
    (fun (name, _) ->
      let vs =
        List.filter_map (fun t -> Hashtbl.find_opt t name) tables |> Array.of_list
      in
      if Array.length vs > 0 then Hashtbl.replace out name (S.percentile vs 50.0))
    layer_metrics;
  out

(* Busy (self) milliseconds of every span named [span] in [tbl]. *)
let busy_ms tbl span = Spans.self_s tbl span *. 1e3

(* --- timed loops ---------------------------------------------------------- *)

(* The traced run's cycle [i]: the untraced reference [u] and the traced
   pass [t], alternating which runs first so the overhead estimate does
   not favour either. *)
let pair i u t =
  if i mod 2 = 0 then
    let a = Spans.paused u in
    (a, t ())
  else
    let b = t () in
    (Spans.paused u, b)

(* Run [f] until [seconds] of wall time have gone by, at least [min]
   times; returns the number of passes. *)
let repeat_for ~seconds ~min f =
  let t0 = now () in
  let n = ref 0 in
  while !n < min || now () -. t0 < seconds do
    f !n;
    incr n
  done;
  !n
