(** Oracle-backed validation of synthesized patches, and the corpus-wide
    [snorlax fix] sweep.

    A patch earns [Fixed] only on three kinds of evidence together: the
    original failing seed replayed under the traced harness completes;
    a seed sweep with the HB oracle attached shows no failure, hang or
    racy pair the pristine module did not already show; and the
    diagnosed pattern's own claims are dead (its pairs no longer racy,
    deadlock crossings gate-guarded).  Baseline behaviour can only
    demote a patch to [Not_fixed]; behaviour the baseline never showed
    makes it [Regressed]. *)

type verdict = Fixed | Not_fixed of string | Regressed of string

val verdict_name : verdict -> string
val verdict_reason : verdict -> string

type judgement = {
  verdict : verdict;
  replay_ok : bool;  (** the failing seed completed under the patch *)
  runs : int;  (** simulated executions this judgement performed *)
  notes : string list;
}

type attempt = {
  template : Patch.template;
  outcome : (judgement, string) result;  (** [Error] = synthesis refused *)
}

type bug_report = {
  bug_id : string;
  bug_kind : string;
  pattern : string option;
  verdict : verdict;
  template : Patch.template option;
  patch : string option;
  attempts : attempt list;
  replay_ok : bool;
  sweep_seeds : int;
  runs : int;
  secs : float;
  notes : string list;
}

type baseline
(** Pristine-module behaviour over the sweep seeds: failure signatures,
    racy pairs, hangs.  Computed once per bug and shared across the
    template ladder. *)

val baseline_of :
  collected:Corpus.Runner.collected -> entry:string -> seeds:int list ->
  baseline

val sweep_seed_list :
  collected:Corpus.Runner.collected -> seeds:int -> int list
(** The failing seed plus [seeds] spread-out fresh seeds. *)

val judge_patch :
  bug:Corpus.Bug.t ->
  collected:Corpus.Runner.collected ->
  pattern:Snorlax_core.Patterns.t ->
  ?baseline:baseline ->
  sweep_seeds:int list ->
  Lir.Irmod.t ->
  judgement
(** Judge one patched module (any module whose untouched iids match the
    collected build — including deliberately wrong patches, which the
    negative tests feed through here). *)

val default_sweep_seeds : int

val fix_bug :
  ?cache:Pt.Decode_cache.t ->
  ?seeds:int ->
  Corpus.Bug.t ->
  (bug_report, string) result
(** Reproduce, diagnose, then walk the {!Patch.candidates} ladder until a
    template earns [Fixed]; the report carries every attempt.  [Error _]
    when the bug will not reproduce.  Emits [fix/fixed], [fix/not_fixed]
    and [fix/regressed] counters into the ambient {!Obs.Scope}. *)

val fix_all :
  ?sweep_jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  ?seeds:int ->
  Corpus.Bug.t list ->
  (string * (bug_report, string) result) list
(** [fix_bug] over a bug list, tagged by bug id, in input order.
    [sweep_jobs] (default 1) fans one bug per {!Obs.Scope.sweep} lane.
    The parallel sweep returns exactly the sequential sweep's list. *)

type summary = {
  bugs : int;
  fixed : int;
  not_fixed : int;
  regressed : int;
  errors : int;
  fix_rate : float;  (** fixed / all bugs, reproduction failures included *)
  by_kind : (string * int * int) list;  (** kind, fixed, total *)
  total_runs : int;
  total_secs : float;
  seeds_per_sec : float;
}

val summarize : (string * (bug_report, string) result) list -> summary

val to_json : (string * (bug_report, string) result) list -> Obs.Json.t
(** The [BENCH_fix.json] document: summary block (fix rate overall and
    per bug kind, validation seeds/sec) plus per-bug verdicts and
    attempt ladders. *)
