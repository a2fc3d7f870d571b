(** The ambient telemetry context.

    Instrumentation points all over the stack (the PT decoder, the
    simulator's scheduler hook, the corpus runner) record through this
    module rather than threading a registry through every signature.
    When no scope is enabled — the default — every recording call is a
    single [None] match, which is what keeps telemetry-off runs at the
    seed's speed.

    The context slot is domain-local ([Domain.DLS]): a freshly spawned
    domain always starts with no scope, so ambient recording calls on
    sweep lane domains are no-ops unless the lane installs a private
    context with {!using}.  Cross-domain telemetry therefore flows one
    way only — lanes record into contexts they own, and {!sweep} folds
    those registries back into the calling domain's after the batch. *)

type ctx = {
  metrics : Metrics.t;
  trace : Span.t;
  mutable samples_rev : (float * (string * float) list) list;
      (** counter/gauge time series for the Chrome exporter: [(ts_ns,
          changed scalars)] recorded at span boundaries, newest first *)
  mutable n_samples : int;
  last_values : (string, float) Hashtbl.t;  (** exporter internals *)
}

val make : unit -> ctx
(** A fresh context, not installed anywhere.  Workers pass one to
    {!using}; the owner reads [ctx.metrics] after the worker quiesces. *)

val enable : unit -> ctx
(** Install (and return) a fresh context on the calling domain,
    replacing any previous one. *)

val using : ctx -> (unit -> 'a) -> 'a
(** Run [f] with [c] installed as the calling domain's context,
    restoring the previous one afterwards (even on raise).  This is how
    a worker domain gets private ambient telemetry: recordings land in
    [c.metrics], which the spawning domain merges after joining. *)

val disable : unit -> unit

val current : unit -> ctx option

val enabled : unit -> bool

val with_span :
  ?args:(string * Span.arg_value) list -> string -> (unit -> 'a) -> 'a
(** Run under a span of the current trace; just runs [f] when disabled. *)

val count : string -> int -> unit
(** Add to a counter by name; no-op when disabled. *)

val set_gauge : string -> float -> unit

val observe : string -> float -> unit
(** Record into a histogram by name; no-op when disabled. *)

val timed : string -> (unit -> 'a) -> 'a
(** Run [f] and record its wall-clock duration (ns) into the named
    histogram — even when [f] raises.  Just runs [f] when disabled.
    Like {!with_span}, completing a timed section samples changed
    counters/gauges into the Chrome-trace time series. *)

val sweep : jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [sweep ~jobs f items] is [Array.mapi f items] fanned across
    [min jobs cores (length items)] lanes of {!Snorlax_util.Pool.map},
    results in input order.  The one way Snorlax goes parallel: work
    inside an item (decode included) runs inline on its lane, and when a
    scope is enabled the item records into a private context whose
    metrics are folded into the ambient registry ({!Metrics.merge}), in
    input order, after the batch (spans recorded inside items are
    dropped).  With one lane it is exactly [Array.mapi f items] on the
    calling domain — no domains, the ambient scope visible to [f].  An
    item's exception cancels the unclaimed items and is re-raised. *)

val export_chrome : unit -> Json.t option
(** The current context as a Chrome trace-event document, including the
    counter/gauge time series sampled at span boundaries. *)

val export_metrics : unit -> Json.t option
(** The current context's metrics registry as JSON. *)

val export_openmetrics : unit -> string option
(** The current context's registry as OpenMetrics exposition text. *)

val summary : unit -> string
(** Span tree plus metrics tables, for [--obs-summary]; empty when
    disabled. *)
