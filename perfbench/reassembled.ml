(* [Snorlax_core.Diagnosis.diagnose] reassembled from the public entry
   point of each layer it runs, in the same order and on the same inputs,
   with one span per layer — so the traced run can charge decode,
   points-to, type ranking, patterns and statistics their own time.  The
   top pattern must equal the one-call diagnosis's. *)

module Core = Snorlax_core
module Tp = Core.Trace_processing
open Bench_common

let bump tbl name v =
  Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)

let diagnose counters m ~config ~(failing : Core.Report.failing_report list)
    ~(successful : Core.Report.success_report list) =
  let first = List.hd failing in
  Spans.with_span "core.diagnosis" @@ fun () ->
  Lir.Irmod.layout m;
  let failing_tps, success_tps =
    Spans.with_span "pt.decode" (fun () ->
        let f = List.map (Core.Diagnosis.process_failing m ~config) failing in
        let s = List.map (Core.Diagnosis.process_successful m ~config) successful in
        (f, s))
  in
  let traces =
    List.fold_left (fun a (r : Core.Report.failing_report) -> a + List.length r.traces) 0 failing
    + List.fold_left
        (fun a (r : Core.Report.success_report) -> a + List.length r.s_traces)
        0 successful
  in
  bump counters "decode.traces" (float_of_int traces);
  let executed =
    List.fold_left
      (fun acc (tp : Tp.t) -> Tp.Iset.union acc tp.Tp.executed)
      Tp.Iset.empty (failing_tps @ success_tps)
  in
  let first_tp = List.hd failing_tps in
  let points_to =
    Spans.with_span "analysis.pointsto" (fun () ->
        Analysis.Pointsto.analyze m ~scope:(fun iid -> Tp.Iset.mem iid executed))
  in
  bump counters "pointsto.solver_iterations"
    (float_of_int (Analysis.Pointsto.solver_iterations points_to));
  let anchor_iid, candidates =
    Spans.with_span "core.type_ranking" (fun () ->
        let anchor_iid = Core.Diagnosis.resolve_anchor m first_tp first in
        let prefer_free =
          match first.info with
          | Core.Report.Crash_info { crash_kind = Core.Report.Use_after_free; _ } -> true
          | Core.Report.Crash_info _ | Core.Report.Deadlock_info _ -> false
        in
        ( anchor_iid,
          Core.Type_ranking.candidates m ~points_to ~executed ~anchor_iid ~prefer_free () ))
  in
  let patterns =
    Spans.with_span "core.patterns" (fun () ->
        let info =
          match first.info with
          | Core.Report.Crash_info { crash_kind; _ } ->
            Core.Report.Crash_info { failing_iid = anchor_iid; crash_kind }
          | Core.Report.Deadlock_info _ as d -> d
        in
        Core.Patterns.generate m ~points_to ~tp:first_tp ~info
          ~failing_tid:first.failing_tid ~candidates)
  in
  bump counters "patterns.candidates" (float_of_int (List.length patterns));
  let scored =
    Spans.with_span "core.statistics" (fun () ->
        Core.Statistics.score m ~points_to ~patterns ~failing:failing_tps
          ~successful:success_tps)
  in
  Core.Statistics.top scored

let top_id (top : Core.Statistics.scored option) =
  Option.map (fun (s : Core.Statistics.scored) -> Core.Patterns.id s.pattern) top
