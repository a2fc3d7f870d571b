(* fix-corpus: [Fix.Validate.fix_all] over all 54 corpus bugs with 10
   sweep seeds (the check.sh setting) on one pool lane.  One lane, not
   nproc: the host-speed reference loop (see Bench_common) runs on one
   core and cannot track a second vCPU whose speed drifts apart from the
   first, and the process-wide state two lanes leave behind depends on
   which lane decoded which bug, which made the heap figure bimodal.
   The simulator, PT tracer, HB observer and
   patch validation do most of the work here and almost none in
   stream-warm.  [fix_all] takes no seed — it fixes its own collection
   seeds and sweep seeds ([Fix.Validate.sweep_seed_list]) — so this
   workload's input is the same for every workload seed.

   The traced run reassembles [fix_bug] from its layers' public entry
   points in the same order — collect, diagnose, baseline, then the
   template ladder of [Patch.synthesize] + [judge_patch] — and re-runs
   each sweep seed on the pristine module plain, under the HB observer,
   traced and untraced, to split the simulator from the HB oracle and the
   PT tracer.  Its verdicts must equal [fix_all]'s. *)

module Core = Snorlax_core
module Validate = Fix.Validate
module Patch = Fix.Patch
open Bench_common

let sweep_seeds = 10

let verdicts results =
  List.map
    (fun (id, r) ->
      ( id,
        match r with
        | Ok (b : Validate.bug_report) -> Validate.verdict_name b.verdict
        | Error e -> "error: " ^ e ))
    results

type pass = {
  results : (string * (Validate.bug_report, string) result) list;
  wall_s : float;
  bug_ms : float list;  (** per bug, report -> validated verdict *)
  verdicts : (string * string) list;
  unfixed : string list;
}

let fix_pass bugs =
  pass @@ fun () ->
  let t0 = now () in
  let results = Validate.fix_all ~sweep_jobs:1 ~seeds:sweep_seeds bugs in
  let wall_s = now () -. t0 in
  let vs = verdicts results in
  {
    results;
    wall_s;
    bug_ms =
      List.filter_map
        (fun (_, r) -> match r with Ok (b : Validate.bug_report) -> Some (b.secs *. 1e3) | Error _ -> None)
        results;
    verdicts = vs;
    unfixed =
      List.filter_map (fun (id, v) -> if v = Validate.verdict_name Validate.Fixed then None else Some (id ^ ": " ^ v)) vs;
  }

(* --- the traced reassembly ------------------------------------------------ *)

let bump = Reassembled.bump

let run_quiet f = try Some (f ()) with Failure _ -> None

(* The layer-isolation re-runs of one bug's sweep seeds on its pristine
   module: not part of [fix_bug], so marked [iso]. *)
let isolate counters (c : Corpus.Runner.collected) ~entry seeds =
  let built = c.Corpus.Runner.built in
  let m = built.Corpus.Bug.m in
  List.iter
    (fun seed ->
      let cfg = { Sim.Interp.default_config with seed } in
      (match Spans.with_span ~iso:true "sim" (fun () -> run_quiet (fun () -> Sim.Interp.run ~config:cfg m ~entry)) with
      | Some r ->
        bump counters "sim.runs" 1.0;
        bump counters "sim.steps" (float_of_int r.Sim.Interp.steps)
      | None -> ());
      let hb = Analysis.Hb.create () in
      ignore
        (Spans.with_span ~iso:true "analysis.hb+sim" (fun () ->
             run_quiet (fun () ->
                 Sim.Interp.run ~config:{ cfg with hooks = Oracle.Observe.hooks hb } m ~entry)));
      bump counters "hb.events" (float_of_int (Analysis.Hb.event_count hb));
      (match
         Spans.with_span ~iso:true "pt.tracer+sim" (fun () ->
             run_quiet (fun () -> Corpus.Runner.run_traced ~built ~entry ~seed ()))
       with
      | Some r -> bump counters "tracer.bytes" (float_of_int (Pt.Tracer.bytes_written (Pt.Driver.tracer r.driver)))
      | None -> ());
      ignore
        (Spans.with_span ~iso:true "sim.untraced" (fun () ->
             run_quiet (fun () -> Corpus.Runner.run_untraced ~built ~entry ~seed ()))))
    seeds

let fix_bug_traced counters (bug : Corpus.Bug.t) =
  Spans.with_span "fix.bug" @@ fun () ->
  match Spans.with_span "corpus.collect" (fun () -> Corpus.Runner.collect bug ()) with
  | Error e -> "error: " ^ e
  | Ok c -> (
    let m = c.built.Corpus.Bug.m in
    let top =
      Reassembled.diagnose counters m ~config:Pt.Config.default ~failing:c.failing
        ~successful:c.successful
    in
    match top with
    | None -> Validate.verdict_name (Validate.Not_fixed "no pattern")
    | Some top ->
      let pattern = top.Core.Statistics.pattern in
      let entry = bug.entry in
      let seeds = Validate.sweep_seed_list ~collected:c ~seeds:sweep_seeds in
      let baseline =
        Spans.with_span "fix.baseline" (fun () -> Validate.baseline_of ~collected:c ~entry ~seeds)
      in
      let rec ladder = function
        | [] -> None
        | template :: rest -> (
          let fresh = bug.build () in
          bump counters "patch.attempts" 1.0;
          match
            Spans.with_span "fix.patch" (fun () -> Patch.synthesize ~m:fresh.Corpus.Bug.m ~pattern template)
          with
          | Error _ -> ladder rest
          | Ok _ ->
            let j =
              Spans.with_span "fix.validate" (fun () ->
                  Validate.judge_patch ~bug ~collected:c ~pattern ~baseline ~sweep_seeds:seeds
                    fresh.Corpus.Bug.m)
            in
            bump counters "validate.runs" (float_of_int j.runs);
            if j.verdict = Validate.Fixed then Some j.verdict else ladder rest)
      in
      let verdict = ladder (Patch.candidates pattern) in
      isolate counters c ~entry seeds;
      match verdict with
      | Some v -> Validate.verdict_name v
      | None -> Validate.verdict_name (Validate.Not_fixed "no template fixed it"))

(* --- the run -------------------------------------------------------------- *)

let check errors label (p : pass) =
  List.iter (fun u -> errors := Printf.sprintf "%s: %s not fixed" label u :: !errors) p.unfixed

let warmup_bugs () =
  (* One bug of each kind: enough to touch every template and the sweep
     machinery before anything is timed. *)
  List.filter_map
    (fun kind -> match Corpus.Registry.by_kind kind with b :: _ -> Some b | [] -> None)
    [ Corpus.Bug.Atomicity_violation; Corpus.Bug.Order_violation; Corpus.Bug.Deadlock ]

let run ctx =
  let bugs = Corpus.Registry.all in
  let n_bugs = List.length bugs in
  let setups = Dynbuf.create () and setups_raw = Dynbuf.create () in
  for _ = 1 to 3 do
    let p = fix_pass (warmup_bugs ()) in
    Dynbuf.push setups (p.wall_s *. !pass_scale);
    Dynbuf.push setups_raw p.wall_s
  done;
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let account label p =
    check errors label p;
    attempted := !attempted + n_bugs;
    failed := !failed + List.length p.unfixed
  in
  let info =
    [
      ("bugs", string_of_int n_bugs);
      ("sweep seeds", string_of_int sweep_seeds);
      ("pool width", "1 lane");
    ]
  in
  if not ctx.traced then begin
    (* Scaled to the reference host speed, and raw. *)
    let lat = Dynbuf.create () and rates = Dynbuf.create () in
    let lat_raw = Dynbuf.create () and walls = Dynbuf.create () in
    let bench = (lat, rates, lat_raw, walls) in
    let passes =
      repeat_for ~seconds:ctx.seconds ~min:4 (fun i ->
          let p = fix_pass bugs in
          let scale = !pass_scale in
          note_live_heap ~bench p;
          account (Printf.sprintf "pass %d" i) p;
          List.iter
            (fun ms ->
              Dynbuf.push lat (ms *. scale);
              Dynbuf.push lat_raw ms)
            p.bug_ms;
          Dynbuf.push walls p.wall_s;
          Dynbuf.push rates (float_of_int n_bugs /. (p.wall_s *. scale)))
    in
    let lat = Dynbuf.to_array lat in
    {
      e2e =
        [
          of_samples "setup_s" "s" (Dynbuf.to_array setups)
            ~note:
              (Printf.sprintf "warm-up fix sweep over one bug per kind; raw %.4f s"
                 (S.percentile (Dynbuf.to_array setups_raw) 50.0));
          of_samples "rootcause_p50_ms" "ms" lat ~note:"per bug: reproduce, diagnose, validated patch";
          tail_of "rootcause_tail_ms" "ms" lat;
          of_samples "reports_per_s" "1/s" (Dynbuf.to_array rates) ~note:"bugs fixed per wall second";
          of_samples "live_heap_mb" "MB" (Dynbuf.to_array live_heap_mb)
            ~note:"live heap after a pass, its results included";
          of_samples ~gated:false "raw rootcause_p50_ms" "ms" (Dynbuf.to_array lat_raw);
          of_samples ~gated:false "raw fix_wall_s" "s" (Dynbuf.to_array walls)
            ~note:"the 54-bug fix sweep: reports_per_s carries it";
        ];
      layers = Hashtbl.create 1;
      span_table = [];
      attempted = !attempted;
      failed = !failed;
      errors = List.rev !errors;
      info = info @ [ ("passes", string_of_int passes) ];
    }
  end
  else begin
    let tables = ref [] and overhead = Dynbuf.create () in
    let mark = Spans.length () in
    let cycles =
      repeat_for ~seconds:ctx.seconds ~min:1 (fun i ->
          let counters = Hashtbl.create 32 in
          let u, (vs, from, wall, hits, iso) =
            pair i
              (fun () -> fix_pass bugs)
              (fun () ->
                let from = Spans.length () in
                let t0 = ref 0.0 in
                let vs =
                  pass (fun () ->
                      t0 := now ();
                      List.map (fun (b : Corpus.Bug.t) -> (b.id, fix_bug_traced counters b)) bugs)
                in
                let wall = now () -. !t0 in
                (vs, from, wall, pass_hit_share (), Spans.iso_s ~from ()))
          in
          account (Printf.sprintf "untraced one-lane pass %d" i) u;
          if vs <> u.verdicts then
            errors := Printf.sprintf "traced pass %d: reassembled verdicts differ from fix_all" i :: !errors;
          Dynbuf.push overhead ((wall -. iso -. u.wall_s) /. u.wall_s);
          let tbl = Spans.aggregate ~from () in
          let get k = Option.value (Hashtbl.find_opt counters k) ~default:0.0 in
          let sim_ms = busy_ms tbl "sim" in
          (* judge_patch's runs are counted; baseline_of's are not exposed,
             so the rate is over judging time alone. *)
          let judge_ms = busy_ms tbl "fix.validate" in
          let validate_ms = judge_ms +. busy_ms tbl "fix.baseline" in
          let decode_ms = busy_ms tbl "pt.decode" in
          let fixed = List.length (List.filter (fun (_, v) -> v = Validate.verdict_name Validate.Fixed) vs) in
          List.iter
            (fun (k, v) -> Hashtbl.replace counters k v)
            [
              ("sim.busy_ms", sim_ms);
              ("sim.msteps_per_s", if sim_ms > 0.0 then get "sim.steps" /. 1e6 /. (sim_ms /. 1e3) else 0.0);
              ("tracer.busy_ms", busy_ms tbl "pt.tracer+sim" -. busy_ms tbl "sim.untraced");
              ("hb.busy_ms", busy_ms tbl "analysis.hb+sim" -. sim_ms);
              ("decode.busy_ms", decode_ms);
              ("decode.traces_per_s", if decode_ms > 0.0 then get "decode.traces" /. (decode_ms /. 1e3) else 0.0);
              ("decode_cache.hit_share", hits);
              ("pointsto.busy_ms", busy_ms tbl "analysis.pointsto");
              ("type_ranking.busy_ms", busy_ms tbl "core.type_ranking");
              ("patterns.busy_ms", busy_ms tbl "core.patterns");
              ("statistics.busy_ms", busy_ms tbl "core.statistics");
              ("patch.fixed_share", if get "patch.attempts" > 0.0 then float_of_int fixed /. get "patch.attempts" else 0.0);
              ("validate.busy_ms", validate_ms);
              ("validate.runs_per_s", if judge_ms > 0.0 then get "validate.runs" /. (judge_ms /. 1e3) else 0.0);
            ];
          tables := counters :: !tables)
    in
    let layers = median_tables !tables in
    Hashtbl.replace layers "trace.overhead_share" (S.percentile (Dynbuf.to_array overhead) 50.0);
    {
      e2e = [];
      layers;
      span_table = span_table ~from:mark ();
      attempted = !attempted;
      failed = !failed;
      errors = List.rev !errors;
      info = info @ [ ("traced cycles", string_of_int cycles) ];
    }
  end
