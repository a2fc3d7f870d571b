(* Differential tests: the image-based simulator against the frozen
   tree-walking reference in [Ref_interp].  Every input runs under both
   with the same seed and the same kind of observers attached; the run
   results and every hook stream — control, instruction, gate, scheduler
   and observation events, in order, virtual times compared bit for bit,
   instructions compared by physical identity — must be identical. *)

module Hooks = Sim.Hooks
module Interp = Sim.Interp

(* --- recording -----------------------------------------------------------

   Each event is flattened into integers — a tag, its fields, and every
   float as its two 32-bit halves, so times compare bit for bit — which
   keeps recording cheap enough for runs of hundreds of thousands of
   events. *)

module Dynbuf = Snorlax_util.Dynbuf

type log = {
  ints : int Dynbuf.t;
  starts : int Dynbuf.t; (* offset of each event in [ints] *)
  instrs : Lir.Instr.t Dynbuf.t; (* as passed to on_instr/gate, in order *)
}

let new_log () = { ints = Dynbuf.create (); starts = Dynbuf.create (); instrs = Dynbuf.create () }

let event log tag =
  Dynbuf.push log.starts (Dynbuf.length log.ints);
  Dynbuf.push log.ints tag

let int log v = Dynbuf.push log.ints v

let float log f =
  let b = Int64.bits_of_float f in
  int log (Int64.to_int (Int64.shift_right_logical b 32));
  int log (Int64.to_int (Int64.logand b 0xffff_ffffL))

let opt log = function Some v -> int log 1; int log v | None -> int log 0

let record_control log ~time = function
  | Hooks.Thread_start { tid; entry_pc } -> event log 1; int log tid; int log entry_pc; float log time
  | Hooks.Cond_branch { tid; pc; taken } ->
    event log 2; int log tid; int log pc; int log (Bool.to_int taken); float log time
  | Hooks.Ret_branch { tid; target_pc } -> event log 3; int log tid; opt log target_pc; float log time
  | Hooks.Thread_exit { tid } -> event log 4; int log tid; float log time

let record_sched log = function
  | Hooks.Switch { prev_tid; next_tid; time } ->
    event log 20; opt log prev_tid; int log next_tid; float log time
  | Hooks.Contended { tid; addr; time } -> event log 21; int log tid; int log addr; float log time
  | Hooks.Unblocked { tid; parked_ns; time } ->
    event log 22; int log tid; float log parked_ns; float log time

let record_obs log = function
  | Hooks.Obs_access { tid; iid; addr; size; kind; time } ->
    event log 30; int log tid; int log iid; int log addr; int log size;
    int log (match kind with Hooks.Read -> 0 | Hooks.Write -> 1 | Hooks.Free -> 2);
    float log time
  | Hooks.Obs_lock_attempt { tid; iid; addr; time } ->
    event log 31; int log tid; int log iid; int log addr; float log time
  | Hooks.Obs_lock_acquired { tid; iid; addr; time } ->
    event log 32; int log tid; int log iid; int log addr; float log time
  | Hooks.Obs_lock_released { tid; iid; addr; time } ->
    event log 33; int log tid; int log iid; int log addr; float log time
  | Hooks.Obs_cond_park { tid; iid; cond; mutex; time } ->
    event log 34; int log tid; int log iid; int log cond; int log mutex; float log time
  | Hooks.Obs_cond_wake { waker_tid; woken_tid; cond; time } ->
    event log 35; int log waker_tid; int log woken_tid; int log cond; float log time
  | Hooks.Obs_spawn { parent_tid; child_tid; iid; time } ->
    event log 36; int log parent_tid; int log child_tid; int log iid; float log time
  | Hooks.Obs_join { tid; target_tid; iid; time } ->
    event log 37; int log tid; int log target_tid; int log iid; float log time

(* Record every stream, delegating to [inner] for the costs and stalls
   that shape the timeline.  Streams the inner hooks leave empty are
   still recorded (at zero cost, so the timeline is unchanged). *)
let recording log (inner : Hooks.t) =
  let cost_of = function Some f -> f | None -> fun ~tid:_ ~time:_ _ -> 0.0 in
  let on_instr = cost_of inner.Hooks.on_instr in
  let gate = cost_of inner.Hooks.gate in
  let instr tag ~tid ~time (i : Lir.Instr.t) =
    event log tag; int log tid; int log i.Lir.Instr.iid; float log time;
    Dynbuf.push log.instrs i
  in
  {
    Hooks.on_control =
      Some
        (fun ~time e ->
          record_control log ~time e;
          match inner.Hooks.on_control with Some f -> f ~time e | None -> 0.0);
    on_instr =
      Some
        (fun ~tid ~time i ->
          instr 10 ~tid ~time i;
          on_instr ~tid ~time i);
    gate =
      Some
        (fun ~tid ~time i ->
          let stall = gate ~tid ~time i in
          instr 11 ~tid ~time i;
          float log stall;
          stall);
    on_sched =
      Some
        (fun e ->
          record_sched log e;
          match inner.Hooks.on_sched with Some f -> f e | None -> ());
    on_obs =
      Some
        (fun e ->
          record_obs log e;
          match inner.Hooks.on_obs with Some f -> f e | None -> ());
  }

(* A gate that parks each (thread, instruction) pair once, for a stall
   derived from the iid: enough to reorder threads without starving any. *)
let once_gate () =
  let seen = Hashtbl.create 64 in
  {
    Hooks.none with
    gate =
      Some
        (fun ~tid ~time:_ (i : Lir.Instr.t) ->
          let iid = i.Lir.Instr.iid in
          if iid mod 5 <> 0 || Hashtbl.mem seen (tid, iid) then 0.0
          else begin
            Hashtbl.add seen (tid, iid) ();
            float_of_int (50 + (iid mod 13 * 40))
          end);
  }

(* --- comparing ----------------------------------------------------------- *)

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let show_outcome_new = function
  | Interp.Completed -> "completed"
  | Interp.Failed { failure; time_ns } ->
    Printf.sprintf "failed %s %s" (Sim.Failure.to_string failure) (bits time_ns)
  | Interp.Stuck -> "stuck"
  | Interp.Fuel_exhausted -> "fuel"

let show_outcome_ref = function
  | Ref_interp.Completed -> "completed"
  | Ref_interp.Failed { failure; time_ns } ->
    Printf.sprintf "failed %s %s" (Sim.Failure.to_string failure) (bits time_ns)
  | Ref_interp.Stuck -> "stuck"
  | Ref_interp.Fuel_exhausted -> "fuel"

let show_result_new (r : Interp.run_result) =
  Printf.sprintf "%s t=%s steps=%d threads=%d out=[%s]" (show_outcome_new r.outcome)
    (bits r.final_time_ns) r.steps r.threads_spawned
    (String.concat ";" (List.map string_of_int r.output))

let show_result_ref (r : Ref_interp.run_result) =
  Printf.sprintf "%s t=%s steps=%d threads=%d out=[%s]" (show_outcome_ref r.outcome)
    (bits r.final_time_ns) r.steps r.threads_spawned
    (String.concat ";" (List.map string_of_int r.output))

(* Host exceptions count as results too: both must raise the same one. *)
let guarded f = match f () with s -> s | exception e -> "raised " ^ Printexc.to_string e

(* Index of the first event at which two logs differ, if any. *)
let first_difference a b =
  let n = min (Dynbuf.length a.ints) (Dynbuf.length b.ints) in
  let rec go k =
    if k = n then
      if Dynbuf.length a.ints = Dynbuf.length b.ints then None else Some k
    else if Dynbuf.get a.ints k <> Dynbuf.get b.ints k then Some k
    else go (k + 1)
  in
  match go 0 with
  | None -> None
  | Some pos ->
    let ev = ref 0 in
    Dynbuf.iteri (fun e start -> if start <= pos then ev := e) a.starts;
    Some !ev

let show_event log e =
  if e >= Dynbuf.length log.starts then "<end>"
  else
    let start = Dynbuf.get log.starts e in
    let stop =
      if e + 1 < Dynbuf.length log.starts then Dynbuf.get log.starts (e + 1)
      else Dynbuf.length log.ints
    in
    String.concat " "
      (List.init (stop - start) (fun k -> string_of_int (Dynbuf.get log.ints (start + k))))

(* Run [m] under both interpreters with hooks made fresh per run by
   [hooks] (each run needs its own tracer, gate state, ...), and compare
   everything.  [hooks] also returns a rendering of any observer state
   worth comparing after the run (e.g. the tracer's ring snapshots).
   Returns the number of events compared. *)
let compare_runs ~label ?(max_steps = Interp.default_config.max_steps)
    ?(hooks = fun () -> (Hooks.none, fun () -> "")) ?(bare = true) m ~entry ~seed =
  let log_new = new_log () and log_ref = new_log () in
  let inner_new, extra_new = hooks () in
  let inner_ref, extra_ref = hooks () in
  let res_new =
    guarded (fun () ->
        show_result_new
          (Interp.run
             ~config:
               { Interp.default_config with seed; max_steps;
                 hooks = recording log_new inner_new }
             m ~entry))
  in
  let res_ref =
    guarded (fun () ->
        show_result_ref
          (Ref_interp.run
             ~config:
               { Ref_interp.default_config with seed; max_steps;
                 hooks = recording log_ref inner_ref }
             m ~entry))
  in
  let where = Printf.sprintf "%s seed %d" label seed in
  Alcotest.(check string) (where ^ ": run result") res_ref res_new;
  (match first_difference log_ref log_new with
  | None -> ()
  | Some e ->
    Alcotest.failf "%s: hook streams differ at event %d:\n  reference: %s\n  image:     %s"
      where e (show_event log_ref e) (show_event log_new e));
  if
    Dynbuf.length log_ref.instrs <> Dynbuf.length log_new.instrs
    || not (List.for_all2 ( == ) (Array.to_list (Dynbuf.to_array log_ref.instrs))
              (Array.to_list (Dynbuf.to_array log_new.instrs)))
  then Alcotest.failf "%s: hooks saw different instruction objects" where;
  Alcotest.(check string) (where ^ ": observer state") (extra_ref ()) (extra_new ());
  (* Runs with no hooks at all take the paths that skip building
     events; they must agree too. *)
  if bare && not (String.starts_with ~prefix:"raised" res_ref) then begin
    let bare_ref =
      guarded (fun () ->
          show_result_ref
            (Ref_interp.run ~config:{ Ref_interp.default_config with seed; max_steps } m
               ~entry))
    in
    let bare_new =
      guarded (fun () ->
          show_result_new
            (Interp.run ~config:{ Interp.default_config with seed; max_steps } m ~entry))
    in
    Alcotest.(check string) (where ^ ": bare run result") bare_ref bare_new
  end;
  Dynbuf.length log_new.starts

let hex b = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

let show_traces traces =
  String.concat ";" (List.map (fun (tid, b) -> Printf.sprintf "%d:%s" tid (hex b)) traces)

(* The PT driver with watchpoints, as the corpus runner attaches it. *)
let traced ~watch_pcs () =
  let driver = Pt.Driver.create () in
  Pt.Driver.set_watchpoints driver ~pcs:watch_pcs;
  let extra () =
    let snap =
      match Pt.Driver.watch_snapshot driver with
      | None -> "no watch hit"
      | Some s ->
        Printf.sprintf "watch %s %s" (bits s.Pt.Driver.at_time_ns)
          (show_traces s.Pt.Driver.traces)
    in
    Printf.sprintf "%s / %d bytes / %s" snap
      (Pt.Tracer.bytes_written (Pt.Driver.tracer driver))
      (show_traces (Pt.Tracer.snapshot (Pt.Driver.tracer driver)))
  in
  (Pt.Driver.hooks driver, extra)

let hb_observed () =
  let hb = Analysis.Hb.create () in
  (Oracle.Observe.hooks hb, fun () -> string_of_int (Analysis.Hb.event_count hb))

let gated () = (once_gate (), fun () -> "")

(* --- inputs -------------------------------------------------------------- *)

let seeds = List.init 20 (fun k -> 1 + (k * 37))

let watch_pcs_of (built : Corpus.Bug.built) =
  let m = built.Corpus.Bug.m in
  Lir.Irmod.layout m;
  List.filter_map
    (fun iid ->
      match Lir.Irmod.instr_by_iid m iid with
      | i -> Some i.Lir.Instr.pc
      | exception Not_found -> None)
    built.Corpus.Bug.ground_truth

let test_corpus () =
  let events = ref 0 in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      let built = bug.build () in
      let m = built.Corpus.Bug.m in
      let entry = bug.entry in
      let watch_pcs = watch_pcs_of built in
      List.iter
        (fun seed ->
          let run label hooks =
            events := !events + compare_runs ~label:(bug.id ^ " " ^ label) ~hooks m ~entry ~seed
          in
          run "untraced" (fun () -> (Hooks.none, fun () -> ""));
          run "traced" (traced ~watch_pcs);
          run "hb" hb_observed;
          run "gated" gated)
        seeds)
    Corpus.Registry.all;
  Alcotest.(check bool) "compared some events" true (!events > 0)

(* The throughput workloads run for millions of steps; a fuel budget cuts
   each comparison to its first [workload_steps] (fuel exhaustion is an
   outcome both must report identically), which still spans thread
   start-up and steady-state lock contention. *)
let workload_steps = 40_000

let test_workloads () =
  List.iter
    (fun (spec : Experiments.Workloads.spec) ->
      List.iter
        (fun threads ->
          let m, _ = Experiments.Workloads.build spec ~threads in
          let label = Printf.sprintf "%s x%d" spec.Experiments.Workloads.name threads in
          List.iter
            (fun seed ->
              let compare ~label hooks =
                ignore
                  (compare_runs ~label ~max_steps:workload_steps ~hooks ~bare:false m
                     ~entry:"main" ~seed)
              in
              compare ~label (traced ~watch_pcs:[]);
              compare ~label:(label ^ " gated") gated)
            [ 3 ])
        [ 2; 8; 32 ])
    Experiments.Workloads.specs

(* Patched modules: every template that synthesizes, for every bug, run
   under the validation harnesses (HB observer and PT tracer).  A patch
   that makes a run hang spins until the fuel runs out; the budget caps
   how much of such a spin is compared. *)
let patched_steps = 50_000

let test_patched () =
  let patched = ref 0 in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      match Experiments.Eval_runs.get_result bug with
      | Error msg -> Alcotest.failf "%s did not reproduce: %s" bug.id msg
      | Ok entry -> (
        match entry.Experiments.Eval_runs.diagnosis.Snorlax_core.Diagnosis.top with
        | None -> Alcotest.failf "%s diagnosed no pattern" bug.id
        | Some top ->
          let pattern = top.Snorlax_core.Statistics.pattern in
          List.iter
            (fun template ->
              let m = (bug.build ()).Corpus.Bug.m in
              match Fix.Patch.synthesize ~m ~pattern template with
              | Error _ -> ()
              | Ok _ ->
                incr patched;
                let label =
                  Printf.sprintf "%s patched %s" bug.id (Fix.Patch.template_name template)
                in
                List.iter
                  (fun seed ->
                    let compare ~label hooks =
                      ignore
                        (compare_runs ~label ~max_steps:patched_steps ~hooks ~bare:false m
                           ~entry:bug.entry ~seed)
                    in
                    compare ~label hb_observed;
                    compare ~label:(label ^ " traced") (traced ~watch_pcs:[]))
                  [ 1; 100_211 ])
            (Fix.Patch.candidates pattern)))
    Corpus.Registry.all;
  Alcotest.(check bool) "patched some modules" true (!patched > 0)

(* A rewrite after a run must reach the next run: the image is rebuilt
   through the layout generation bump. *)
let test_rewrite_rebuilds () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  let m = (bug.build ()).Corpus.Bug.m in
  ignore (compare_runs ~label:"before rewrite" m ~entry:bug.entry ~seed:7);
  let g = Lir.Rewrite.fresh_global m ~base:"__probe" Lir.Ty.I64 in
  let main = Lir.Irmod.find_func m bug.entry in
  let first = List.hd (Lir.Func.entry main).Lir.Block.instrs in
  ignore
    (Lir.Rewrite.insert_before m ~iid:first.Lir.Instr.iid
       [
         Lir.Instr.Store { value = Lir.Value.i64 41; ptr = Lir.Value.Global g };
         Lir.Instr.Call
           { dst = None; callee = Lir.Intrinsics.print_i64; args = [ Lir.Value.i64 41 ] };
       ]);
  ignore (compare_runs ~label:"after rewrite" m ~entry:bug.entry ~seed:7);
  let r = Interp.run ~config:{ Interp.default_config with seed = 7 } m ~entry:bug.entry in
  Alcotest.(check bool) "the spliced print ran" true (List.mem 41 r.Interp.output)

(* Malformed or failing programs: undefined reads (with both operands
   undefined, so operand order shows), traps the lowering captures, host
   exceptions and fuel exhaustion must all surface exactly as before. *)
module B = Lir.Builder
module T = Lir.Ty
module V = Lir.Value

let edge_modules () =
  (* [main] is a single block: the given instructions, then a return. *)
  let raw name kinds =
    let m = Lir.Irmod.create name in
    B.define m "main" ~params:[] ~ret:T.Void (fun b -> B.ret_void b);
    let ret = List.hd (Lir.Func.entry (Lir.Irmod.find_func m "main")).Lir.Block.instrs in
    ignore (Lir.Rewrite.insert_before m ~iid:ret.Lir.Instr.iid (kinds m));
    (name, m)
  in
  let reg m name ty = Lir.Irmod.fresh_reg m ~name ~ty in
  let undef2 m mk = mk (V.Reg (reg m "u1" T.I64)) (V.Reg (reg m "u2" T.I64)) in
  let spin =
    let m = Lir.Irmod.create "spin" in
    B.define m "main" ~params:[] ~ret:T.Void (fun b ->
        B.while_ b ~cond:(fun () -> V.bool_true) ~body:(fun () -> ());
        B.ret_void b);
    ("endless loop", m)
  in
  [
    raw "undefined icmp operands" (fun m ->
        [ undef2 m (fun lhs rhs ->
              Lir.Instr.Icmp { dst = reg m "c" T.I1; cmp = Lir.Instr.Eq; lhs; rhs }) ]);
    raw "undefined binop operands" (fun m ->
        [ undef2 m (fun lhs rhs ->
              Lir.Instr.Binop { dst = reg m "s" T.I64; op = Lir.Instr.Add; lhs; rhs }) ]);
    raw "undefined store operands" (fun m ->
        [ undef2 m (fun value ptr -> Lir.Instr.Store { value; ptr }) ]);
    raw "undefined index operands" (fun m ->
        let base = reg m "base" (T.Ptr (T.Array (T.I64, 4))) in
        [ Lir.Instr.Index
            { dst = reg m "p" (T.Ptr T.I64); base = V.Reg base; idx = V.Reg (reg m "ix" T.I64) } ]);
    raw "unknown callee" (fun _ ->
        [ Lir.Instr.Call { dst = None; callee = "nowhere"; args = [] } ]);
    raw "gep on a non-struct" (fun m ->
        let p = reg m "p" (T.Ptr T.I64) in
        [ Lir.Instr.Alloca { dst = p; ty = T.I64 };
          Lir.Instr.Gep { dst = reg m "f" (T.Ptr T.I64); base = V.Reg p; field = 0 } ]);
    raw "division by zero" (fun m ->
        let z = reg m "z" T.I64 in
        [ Lir.Instr.Binop { dst = z; op = Lir.Instr.Sub; lhs = V.i64 3; rhs = V.i64 3 };
          Lir.Instr.Binop { dst = reg m "q" T.I64; op = Lir.Instr.Sdiv; lhs = V.i64 1;
                            rhs = V.Reg z } ]);
    raw "null load" (fun m ->
        [ Lir.Instr.Load { dst = reg m "v" T.I64; ptr = V.Null (T.Ptr T.I64) } ]);
    spin;
  ]

let test_edge_cases () =
  List.iter
    (fun (label, m) ->
      List.iter
        (fun seed ->
          ignore (compare_runs ~label ~max_steps:5_000 m ~entry:"main" ~seed);
          ignore (compare_runs ~label:(label ^ " gated") ~max_steps:5_000 ~hooks:gated m
                    ~entry:"main" ~seed))
        [ 1; 2 ])
    (edge_modules ());
  (* A missing entry point raises, as it always did. *)
  let _, m = List.hd (edge_modules ()) in
  Alcotest.(check string) "missing entry"
    (guarded (fun () -> show_result_ref (Ref_interp.run m ~entry:"absent")))
    (guarded (fun () -> show_result_new (Interp.run m ~entry:"absent")))

(* Global addresses follow the module's global-table order; the shared
   per-image layout must assign exactly what per-run loading assigned. *)
let test_global_layout () =
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      let m = (bug.build ()).Corpus.Bug.m in
      let reference = Ref_interp.Memory.create () in
      Ref_interp.Memory.load_globals reference m;
      let layout = Sim.Memory.layout_globals m in
      Lir.Irmod.iter_globals m (fun name _ ->
          Alcotest.(check int)
            (Printf.sprintf "%s: @%s" bug.id name)
            (Ref_interp.Memory.global_addr reference name)
            (Sim.Memory.global_addr layout name)))
    Corpus.Registry.all

let tests =
  [
    ( "sim.differential",
      [
        Alcotest.test_case "corpus: untraced, traced, hb, gated" `Slow test_corpus;
        Alcotest.test_case "workloads at 2/8/32 threads" `Slow test_workloads;
        Alcotest.test_case "patched modules" `Slow test_patched;
        Alcotest.test_case "rewrite rebuilds the image" `Quick test_rewrite_rebuilds;
        Alcotest.test_case "edge cases" `Quick test_edge_cases;
        Alcotest.test_case "global layout" `Quick test_global_layout;
      ] );
  ]
