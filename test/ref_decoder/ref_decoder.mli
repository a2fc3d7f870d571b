(** The frozen v1 PT decoder: the differential oracle for
    {!Pt.Decoder.decode} and the decode benchmark's sequential
    baseline. *)

val decode :
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  ?tail_stop:int * int ->
  bytes ->
  Pt.Decoder.result
(** Same contract as {!Pt.Decoder.decode}, minus the telemetry: the two
    must return bit-identical results on any input. *)

val report_inputs :
  Lir.Irmod.t ->
  failing:Snorlax_core.Report.failing_report list ->
  successful:Snorlax_core.Report.success_report list ->
  (bytes * (int * int) option) list
(** The [(snapshot, tail_stop)] inputs diagnosis decodes for these
    reports, with the tail stops {!Snorlax_core.Diagnosis} uses. *)
