(** The end-to-end server-side pipeline (Figure 2, steps 2–7): trace
    processing, hybrid scope-restricted points-to analysis, type-based
    ranking, bug-pattern computation, and statistical diagnosis.

    The per-stage candidate counts feed Figure 7 (stage contributions);
    the timings feed Table 4 (hybrid vs whole-program analysis time). *)

type stage_counts = {
  total_instrs : int;  (** static instructions in the module *)
  after_trace_processing : int;  (** executed instructions (step 2) *)
  after_points_to : int;  (** candidates aliasing the anchor (step 4) *)
  after_type_ranking : int;  (** rank-1 candidates prioritized (step 5) *)
  after_patterns : int;  (** distinct instructions in patterns (step 6) *)
  after_statistics : int;  (** instructions in the top pattern (step 7) *)
}

type timings = {
  hybrid_analysis_s : float;  (** points-to over the executed scope *)
  pipeline_s : float;  (** full steps 2–7 *)
}
(** Compatibility shim: both fields are now derived from the telemetry
    spans (wall-clock), not [Sys.time] CPU sampling. *)

val stage_names : string list
(** The seven pipeline stage span names, in execution order:
    [diagnosis/layout], [diagnosis/trace_processing],
    [diagnosis/points_to], [diagnosis/anchor], [diagnosis/type_ranking],
    [diagnosis/patterns], [diagnosis/statistics].  Each carries a
    [candidates] arg with that stage's funnel count. *)

type result = {
  scored : Statistics.scored list;
  top : Statistics.scored option;
  unique_top : bool;
  stage_counts : stage_counts;
  timings : timings;
  anchor_iid : int;  (** the resolved memory-access anchor *)
  executed_count : int;
  desynced : bool;
  spans : Obs.Span.span list;
      (** this run's telemetry: the [diagnosis] root span followed by the
          seven {!stage_names} stage spans, in start order.  Recorded into
          the ambient {!Obs.Scope} when one is enabled, a private
          collector otherwise. *)
}

val diagnose :
  ?cache:Pt.Decode_cache.t ->
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  failing:Report.failing_report list ->
  successful:Report.success_report list ->
  result
(** Diagnose from one or more failing reports (Snorlax needs exactly one;
    more only sharpen statistics) plus successful-execution reports.
    Raises [Invalid_argument] when [failing] is empty.

    [?cache] is the trace-processing stage's decode memo (see
    {!Trace_processing.process}), default {!Pt.Decode_cache.shared}. *)

val process_failing :
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  ?cache:Pt.Decode_cache.t ->
  Report.failing_report ->
  Trace_processing.t
(** Decode a failing report's traces, replaying each blocked/failing
    thread to its reported pc ({!failing_tails}). *)

val process_successful :
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  ?cache:Pt.Decode_cache.t ->
  Report.success_report ->
  Trace_processing.t
(** Decode a successful report, replaying the triggering thread to the
    watched pc ({!successful_tails}). *)

val failing_tails : Lir.Irmod.t -> Report.failing_report -> (int * int * int) list
(** The [fail_tails] {!process_failing} hands {!Trace_processing.process}:
    [(tid, pc, failure_time_ns)] for the failing thread of a crash, one
    per blocked thread of a deadlock. *)

val successful_tails : Report.success_report -> (int * int * int) list
(** The [fail_tails] {!process_successful} uses: the triggering thread,
    up to the watched pc. *)

val resolve_anchor :
  Lir.Irmod.t -> Trace_processing.t -> Report.failing_report -> int
(** The memory access the diagnosis anchors on: the failing instruction
    itself when it is a load/store/lock call, otherwise the nearest
    preceding memory access in the failing thread (assert-style failures
    fail on a register value fed by that access). *)
