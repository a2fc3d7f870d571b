module Core = Snorlax_core
module Tp = Core.Trace_processing
module Report = Core.Report

(* Per-pattern presence counts.  These are the only state the statistics
   stage (§4.5) actually needs: F1 is a pure function of how many
   failing/successful runs a pattern appeared in. *)
type entry = {
  pattern : Core.Patterns.t;
  mutable in_failing : int;
  mutable in_successful : int;
}

(* Everything derived from the executed-instruction union: the hybrid
   points-to solution, the anchor, and the candidate pattern set.  Valid
   until a new report executes code outside the union. *)
type derived = {
  points_to : Analysis.Pointsto.t;
  anchor_iid : int;
  entries : entry list;  (* in pattern-generation order, like the batch *)
}

type t = {
  m : Lir.Irmod.t;
  config : Pt.Config.t;
  mutable first : Report.failing_report option;
  mutable first_tp : Tp.t option;
  mutable failing_tps_rev : Tp.t list;  (* cached, newest first *)
  mutable success_tps_rev : Tp.t list;
  mutable n_failing : int;
  mutable n_successful : int;
  mutable executed : Tp.Iset.t;
  mutable derived : derived option;  (* None = stale, re-derive on demand *)
  mutable rederives : int;
  mutable fast_updates : int;
}

type snapshot = {
  scored : Core.Statistics.scored list;
  top : Core.Statistics.scored option;
  unique_top : bool;
  anchor_iid : int;
  snap_failing : int;
  snap_successful : int;
  rederives : int;
  fast_updates : int;
}

let create m ~config =
  {
    m;
    config;
    first = None;
    first_tp = None;
    failing_tps_rev = [];
    success_tps_rev = [];
    n_failing = 0;
    n_successful = 0;
    executed = Tp.Iset.empty;
    derived = None;
    rederives = 0;
    fast_updates = 0;
  }

let n_failing (t : t) = t.n_failing
let n_successful (t : t) = t.n_successful
let rederives (t : t) = t.rederives
let fast_updates (t : t) = t.fast_updates

let count_into m ~points_to entries ~is_failing tp =
  List.iter
    (fun e ->
      if Core.Patterns.present_in m ~points_to e.pattern tp then
        if is_failing then e.in_failing <- e.in_failing + 1
        else e.in_successful <- e.in_successful + 1)
    entries

(* Full re-derivation — batch stages 3–6 over the cached trace
   processings.  No trace is re-decoded (the tps are cached); only the
   points-to/anchor/pattern derivation and the presence recount run. *)
let derive t first first_tp =
  Obs.Scope.timed "stream/rederive_ns" @@ fun () ->
  let executed = t.executed in
  let points_to =
    Analysis.Pointsto.analyze t.m ~scope:(fun iid -> Tp.Iset.mem iid executed)
  in
  let anchor_iid = Core.Diagnosis.resolve_anchor t.m first_tp first in
  let prefer_free =
    match first.Report.info with
    | Report.Crash_info { crash_kind = Report.Use_after_free; _ } -> true
    | Report.Crash_info _ | Report.Deadlock_info _ -> false
  in
  let candidates =
    Core.Type_ranking.candidates t.m ~points_to ~executed ~anchor_iid
      ~prefer_free ()
  in
  let info =
    match first.Report.info with
    | Report.Crash_info { crash_kind; _ } ->
      Report.Crash_info { failing_iid = anchor_iid; crash_kind }
    | Report.Deadlock_info _ as d -> d
  in
  let patterns =
    Core.Patterns.generate t.m ~points_to ~tp:first_tp ~info
      ~failing_tid:first.Report.failing_tid ~candidates
  in
  let entries =
    List.map (fun p -> { pattern = p; in_failing = 0; in_successful = 0 }) patterns
  in
  List.iter
    (count_into t.m ~points_to entries ~is_failing:true)
    (List.rev t.failing_tps_rev);
  List.iter
    (count_into t.m ~points_to entries ~is_failing:false)
    (List.rev t.success_tps_rev);
  t.rederives <- t.rederives + 1;
  Obs.Scope.count "stream/rederives" 1;
  let d = { points_to; anchor_iid; entries } in
  t.derived <- Some d;
  d

let add_tp t ~is_failing tp =
  if is_failing then begin
    t.failing_tps_rev <- tp :: t.failing_tps_rev;
    t.n_failing <- t.n_failing + 1
  end
  else begin
    t.success_tps_rev <- tp :: t.success_tps_rev;
    t.n_successful <- t.n_successful + 1
  end;
  if Tp.Iset.subset tp.Tp.executed t.executed then
    (* The common fleet case: another endpoint reporting an already-seen
       schedule.  Nothing derived changes — bump the counters. *)
    match t.derived with
    | Some d ->
      count_into t.m ~points_to:d.points_to d.entries ~is_failing tp;
      t.fast_updates <- t.fast_updates + 1;
      Obs.Scope.count "stream/fast_updates" 1
    | None -> ()
  else begin
    (* New code executed: the points-to scope (and with it candidates and
       patterns) may change, so everything derived is stale.  The
       re-derivation is deferred to the next [results] call so a burst of
       novel reports pays for one re-derive, not one each. *)
    t.executed <- Tp.Iset.union t.executed tp.Tp.executed;
    t.derived <- None
  end

let add_failing t ?cache (r : Report.failing_report) =
  let tp = Core.Diagnosis.process_failing t.m ~config:t.config ?cache r in
  (match t.first with
  | None ->
    t.first <- Some r;
    t.first_tp <- Some tp
  | Some _ -> ());
  add_tp t ~is_failing:true tp

let add_successful t ?cache (s : Report.success_report) =
  let tp = Core.Diagnosis.process_successful t.m ~config:t.config ?cache s in
  add_tp t ~is_failing:false tp

let results t =
  match (t.first, t.first_tp) with
  | Some first, Some first_tp ->
    let d =
      match t.derived with Some d -> d | None -> derive t first first_tp
    in
    let scored =
      Core.Statistics.rank ~proximity_tp:first_tp
        (List.map
           (fun e ->
             Core.Statistics.of_counts e.pattern
               ~present_in_failing:e.in_failing
               ~present_in_successful:e.in_successful ~n_failing:t.n_failing)
           d.entries)
    in
    Some
      {
        scored;
        top = Core.Statistics.top scored;
        unique_top = Core.Statistics.is_unique_top scored;
        anchor_iid = d.anchor_iid;
        snap_failing = t.n_failing;
        snap_successful = t.n_successful;
        rederives = t.rederives;
        fast_updates = t.fast_updates;
      }
  | _ -> None
