(** One simulated user endpoint: runs a corpus scenario under the PT
    driver with its own seed range until the bug manifests (or not),
    gathers the watchpoint-triggered successful traces, and serializes
    everything through {!Wire} — the bytes this module returns are
    exactly what would cross the network. *)

type shipment = {
  endpoint : int;
  packets : bytes list;
      (** encoded {!Wire.envelope}s, failing reports first — the order
          the driver would ship them in *)
  runs : int;  (** executions this endpoint performed *)
  reproduced : bool;  (** false when the bug never manifested here *)
}

val seed_stride : int
(** Seed-space distance between endpoints; larger than the runner's
    default retry budget so endpoint schedules never overlap. *)

val run : bug:Corpus.Bug.t -> endpoint:int -> shipment
(** Simulate one endpoint under the default tracer configuration.  One
    failing report and 10 successes (the paper's cap) are collected
    before encoding.  A shipment with [reproduced = false] carries no
    packets: an endpoint that never failed has nothing to report (its
    successes were never requested by a watchpoint). *)
