(** One diagnosis worker (the MogileFS worker to {!Router}'s tracker): a
    bounded ingest queue with explicit shedding, a {!Fleet.Collector}
    owning the buckets hashed to this shard, and one {!Incremental}
    engine per bucket kept in sync after every drain.

    Backpressure is explicit: the queue never grows past [capacity];
    overload sheds per the configured policy and crossing the 80%/50%
    watermarks emits [stream/backpressure_high]/[_cleared] log events
    and [stream/watermark_*] counters. *)

type shed =
  | Drop_oldest
      (** evict the queue head to admit the new packet — freshest
          reports win under overload *)
  | Drop_newest  (** reject the arriving packet — the backlog wins *)

val shed_name : shed -> string
(** ["drop-oldest"] / ["drop-newest"]. *)

val shed_of_name : string -> shed option

type t

val create :
  id:int ->
  ?policy:Fleet.Collector.policy ->
  capacity:int ->
  shed:shed ->
  modules:(string, Corpus.Bug.built) Hashtbl.t ->
  unit ->
  t
(** [modules] shares the server-side scenario builds across all shards
    (and the router).  Raises [Invalid_argument] when [capacity < 1]. *)

val offer : t -> arrival:float -> bytes -> unit
(** Enqueue one packet stamped with its router-arrival time, shedding
    per policy when the queue is full.  Never blocks, never drops
    silently — every shed increments [stream/shed]. *)

type serviced = { s_drained : int; s_ok : int; s_err : int }

val service : t -> budget:int -> Obs.Metrics.histogram -> serviced
(** Drain up to [budget] packets into the collector, then refresh every
    bucket's incremental engine and close the drained packets'
    report→diagnosis latency stamps into the histogram (queue wait
    included).  Runs under the shard's flight recorder. *)

val engine : t -> Fleet.Collector.bucket -> Incremental.t option
(** The incremental engine owning this bucket, if it has been synced. *)

val collector : t -> Fleet.Collector.t

val recorder : t -> Obs.Log.Recorder.t
(** The shard's flight recorder: the last 64 log events that fired while
    it was servicing — dumped when an invariant breaks. *)

(** {2 Accounting} — [offered = shed + drained + depth] always holds. *)

val depth : t -> int

val peak_depth : t -> int

val offered : t -> int

val shed_count : t -> int

val drained : t -> int

val ingest_ok : t -> int

val ingest_err : t -> int

val high_crossings : t -> int
(** Times the queue rose through the high watermark. *)
