(** Per-domain caches of structures derived from a laid-out module — the
    decoder's walk table, the simulator's run image, the diagnosis def
    table.

    An entry is keyed on the module's physical identity and its layout
    {!Irmod.generation}, so a rewrite (which forces a relayout) rebuilds
    it.  Entries are ephemerons on the module: a cache never keeps a dead
    module, or what was derived from it, alive.  Each domain has its own
    entries, so a derived structure is built and read by one domain only
    and needs no lock. *)

type 'a t

val create : slots:int -> 'a t
(** A cache remembering up to [slots] modules per domain, replaced
    round-robin. *)

val find_or_build : 'a t -> Irmod.t -> (Irmod.t -> 'a) -> 'a
(** Lays the module out, then returns the cached structure for its
    current generation, building (and caching) it on a miss. *)
