(** The deployment loop: packets reach a {!Router}, which shards them;
    {!Shard}s drain and incrementally diagnose — tick after tick, with
    an explicit final drain when the fleet goes quiet.  Two sources feed
    the one loop: {!run} streams a {!Traffic} generator, {!run_once}
    ships one simulated {!Fleet.Endpoint} run per tick (the one-shot
    batch behind [snorlax fleet]). *)

type config = {
  endpoints : int;  (** initial fleet size *)
  duration_ticks : int;
  shards : int;
  churn : bool;  (** per-tick join/leave/crash events *)
  fault : Chaos.Fault.cls option;  (** one chaos class over the whole stream *)
  seed : int;
  shed : Shard.shed;
  queue_capacity : int;  (** per-shard ingest queue bound *)
  drain_per_tick : int;  (** per-shard service budget per tick *)
}

val default_config : config
(** 32 endpoints, 48 ticks (two diurnal days), 4 shards, no churn, no
    fault, seed 42, drop-oldest, capacity 256, budget 64. *)

type progress = {
  p_tick : int;
  p_load : float;
  p_alive : int;
  p_offered : int;
  p_shed : int;
  p_drained : int;
  p_depth : int;
  p_buckets : int;
  p_elapsed_ns : float;
}
(** What [?tick] sees after every tick's route+service round — the hook
    behind [snorlax stream --watch] and [snorlax fleet --watch]. *)

val watch_line : progress -> string
(** The [--watch] snapshot line (no trailing newline): offered, shed and
    drained counts, throughput, queue depth, buckets, and the
    ingest/decode stage p50/p99 read from the ambient {!Obs.Scope}
    registry when one is enabled ("-" otherwise). *)

type bucket_row = {
  shard : int;
  bug_id : string;
  signature : string;  (** {!Fleet.Signature.to_string} form *)
  endpoints_hit : int;
  failing_kept : int;
  failing_dropped : int;
  success_kept : int;
  success_dropped : int;
  wire_bytes : int;  (** encoded size of every packet routed here *)
  qualifiers : string list;
      (** rendered {!Fleet.Collector.qualifier}s — provenance features
          that discriminate this bucket's failing reports from its
          successes *)
  top_pattern : string option;  (** {!Snorlax_core.Patterns.id} of the top scorer *)
  top_describe : string option;  (** its human description *)
  f1 : float;  (** 0 when no pattern scored *)
  root_cause_match : bool;
  ordering_accuracy : float;  (** A_O of the top pattern; 0 when none *)
  batch_agrees : bool;
      (** the incremental engine's top pattern equals a from-scratch
          batch diagnosis over the same kept reports — checked per
          bucket at the end of every run *)
  rederives : int;
  fast_updates : int;
}
(** A row holds no wall time, so two runs of one seeded scenario give
    equal rows; the batch cross-check's time is summed into
    {!summary.diagnosis_ns}. *)

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
  wire_bytes : int;  (** bytes the shard collectors received *)
  decode_errors : int;  (** malformed packets (bad bytes, unknown bug id) *)
  unrouted : int;
      (** successes a collector still holds for a bucket that never
          appeared (the tracker's own pool is [tracker_held]) *)
  dedup_ratio : float;
      (** failing reports received per bucket; 1.0 means no dedup
          happened, N means N endpoints collapsed into one bucket *)
  reports_per_sec : float;
      (** sustained server throughput: drained / streaming wall seconds *)
  shed_ratio : float;  (** shed / shard-offered *)
  latency_p50_ns : float;
      (** report→diagnosis latency, fleet-wide: router arrival to
          completion of the refresh that folded the report in — queue
          wait included *)
  latency_p99_ns : float;
  shard_latency : (float * float) array;
      (** per-shard (p50, p99) of the same latency, one entry per shard
          — the tail of a hot shard is visible even when the fleet-wide
          percentile looks healthy *)
  agree : bool;  (** every bucket's [batch_agrees] *)
  accounted : bool;
      (** offered = shed + drained + depth held per shard — the
          backpressure accounting invariant *)
  stream_ns : float;  (** the tick loop and final drain *)
  diagnosis_ns : float;  (** summed per-bucket batch cross-check wall time *)
  total_ns : float;
}

val run :
  ?tick:(progress -> unit) ->
  ?baselines:Traffic.baseline list ->
  config ->
  Corpus.Bug.t list ->
  summary
(** Stream a {!Traffic} generator for [cfg.duration_ticks] ticks.
    Raises [Invalid_argument] on a non-positive shard count or duration
    (and whatever {!Traffic.create} raises).  [baselines] (from
    {!Traffic.prepare}) skips the per-bug reproduction step — share one
    reproduction across runs of the same scenario. *)

val run_once :
  ?tick:(progress -> unit) -> endpoints:int -> Corpus.Bug.t list -> summary
(** The one-shot deployment: for each bug, [endpoints] endpoints each
    run {!Fleet.Endpoint.run} once, and each shipment is one tick.  One
    shard of default capacity, drained empty every tick; no churn, no
    fault.  Nothing is shed while a shipment fits the queue (an
    endpoint's default shipment is 11 packets).  Raises
    [Invalid_argument] when [endpoints < 1]. *)
