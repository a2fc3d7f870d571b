(** Discrete-event interpreter for LIR modules.

    Every thread runs on its own virtual core with a local clock; the
    engine always steps the runnable thread with the smallest clock, which
    yields a genuinely parallel interleaving under a single global
    time base — the simulator analogue of the invariant TSC the paper's
    measurements depend on (§3.2).  Per-instruction costs carry seeded
    jitter so repeated runs interleave differently while staying
    reproducible from the seed.

    Runs execute the module's {!Image}, lowered once per module and
    layout generation, so a run pays only for its own state: registers
    in flat slot arrays and a binary heap of runnable threads keyed on
    (clock, tid). *)

type outcome =
  | Completed
  | Failed of { failure : Failure.t; time_ns : float }
  | Stuck
      (** threads blocked with no failure recorded (e.g. a join cycle) *)
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  final_time_ns : float;  (** max thread clock = virtual wall-clock time *)
  steps : int;  (** instructions executed across all threads *)
  output : int list;  (** print_i64 values, in emission order *)
  threads_spawned : int;
}

type config = {
  seed : int;
  max_steps : int;
  hooks : Hooks.t;
  cost_scale : float;
      (** multiplies all instruction base costs; 1.0 = defaults *)
}

val default_config : config

val run : ?config:config -> Lir.Irmod.t -> entry:string -> run_result
(** Executes [entry] (a nullary or unary function; a unary entry receives
    0) to completion.  The module is laid out (and its image built, on
    first use) before the run starts.  Host-level exceptions ([Failure]) indicate corpus-program bugs
    such as unlocking an unheld mutex, not simulated failures. *)
