(** Parallel map over OCaml 5 domains, for embarrassingly parallel
    batches — one corpus bug per sweep lane being the use case
    ([Obs.Scope.sweep]).

    [map ~jobs f arr] runs on [max 1 jobs] domains: [jobs - 1] spawned
    for the batch plus the calling domain, which participates instead of
    blocking; the spawned domains are joined before [map] returns.
    [jobs <= 1] spawns nothing and runs inline.  Items are handed out
    from a shared atomic cursor, so uneven item costs balance
    automatically; results land in input order whatever the schedule.

    Batches fail fast: the first item that raises cancels every item not
    yet claimed (items already running on other domains still finish),
    and the exception is re-raised.

    Batch functions must not touch domain-unsafe global state; per-item
    sweeps go through [Obs.Scope.sweep], which gives each item a private
    telemetry scope and folds it back after the batch. *)

val map : jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.mapi]: output order matches input order regardless of
    [jobs] or scheduling. *)

val default_jobs : unit -> int
(** The default lane width: initially
    [Domain.recommended_domain_count ()], overridable with
    {!set_default_jobs}. *)

val set_default_jobs : int -> unit
(** Clamped below at 1. *)
