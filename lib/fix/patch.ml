module Core = Snorlax_core

(* Pattern-directed patch templates, in the spirit of the SHB-based
   context-extractor fixer (PAPERS.md): each bug class maps to a small
   IR transformation applied to a *fresh* build of the bug program
   (builds are deterministic, so the diagnosis' iids resolve in the new
   module), leaving every original instruction and iid intact.

   - Atomicity: a new mutex held across the local..anchor window, with
     the remote access bracketed by the same mutex, so the remote can no
     longer land between the two local accesses (it may still run
     entirely before or after — those are the legal serializations).
   - Order: a flag + condvar; the anchor side signals after the anchor
     executes, the remote side waits for the flag first, turning the
     diagnosed "remote must not precede anchor" into an enforced edge.
   - Deadlock: a gate mutex acquired before each side's held lock and
     released after its attempted lock; the gate is strictly outermost,
     so the crossed acquisition windows serialize and the cycle cannot
     close. *)

type template =
  | Lock_region
  | Lock_function
  | Signal_wait
  | Signal_at_exit
  | Gate_serialize

let template_name = function
  | Lock_region -> "lock-region"
  | Lock_function -> "lock-function"
  | Signal_wait -> "signal-wait"
  | Signal_at_exit -> "signal-at-exit"
  | Gate_serialize -> "gate-serialize"

(* Candidate ladder per bug class, most surgical first; validation tries
   them in order and keeps the first one the oracle accepts. *)
let candidates (p : Core.Patterns.t) =
  match p with
  | Core.Patterns.Atomicity _ -> [ Lock_region; Lock_function ]
  | Core.Patterns.Order _ -> [ Signal_wait; Signal_at_exit ]
  | Core.Patterns.Deadlock_cycle _ -> [ Gate_serialize ]

type t = {
  template : template;
  mutex_global : string;
  touched_funcs : string list;
  description : string;
}

let ( let* ) = Result.bind

let lock_kind g =
  Lir.Instr.Call
    { dst = None; callee = Lir.Intrinsics.mutex_lock;
      args = [ Lir.Value.Global g ] }

let unlock_kind g =
  Lir.Instr.Call
    { dst = None; callee = Lir.Intrinsics.mutex_unlock;
      args = [ Lir.Value.Global g ] }

let locate_checked m iid =
  match Lir.Rewrite.locate m ~iid with
  | loc -> Ok loc
  | exception Not_found -> Error (Printf.sprintf "iid %d not in module" iid)

(* --- region bracketing ----------------------------------------------------

   The window [first..last] (same function) gets the mutex: lock right
   before [first], unlock right after [last], and a trampoline unlock on
   every edge that leaves the window early.  The window must be a
   single-entry, re-entry-free path region, otherwise a run could lock
   twice (relock) or unlock twice (unlock-free) — both fail-stop — so
   unsafe shapes are rejected here and the caller falls back to a coarser
   template; the oracle sweep referees whatever we emit. *)

(* Blocks on [from_] → [to_] paths: forward growth that stops expanding
   at [to_] intersected with backward growth that stops at [from_].
   Stopping at the endpoints keeps surrounding loop headers (reached only
   through the back edge after [to_], or feeding [from_] from above) out
   of the region — the window is one traversal of the path, not the whole
   loop. *)
let region_labels cfg ~from_ ~to_ =
  let grow next stop seed =
    let seen = Hashtbl.create 16 in
    Hashtbl.replace seen seed ();
    let rec go = function
      | [] -> ()
      | l :: rest ->
        let expand = if String.equal l stop then [] else next l in
        let fresh =
          List.filter (fun s -> not (Hashtbl.mem seen s)) expand
        in
        List.iter (fun s -> Hashtbl.replace seen s ()) fresh;
        go (fresh @ rest)
    in
    go [ seed ];
    seen
  in
  let fwd = grow (Lir.Cfg.successors cfg) to_ from_ in
  let bwd = grow (Lir.Cfg.predecessors cfg) from_ to_ in
  if not (Hashtbl.mem fwd to_) then None
  else
    Some
      (Hashtbl.fold
         (fun l () acc -> if Hashtbl.mem bwd l then l :: acc else acc)
         fwd [])

(* Just the label set a bracket would occupy, for overlap pre-checks. *)
let bracket_footprint m ~first_iid ~last_iid =
  let* f1, b1, _ = locate_checked m first_iid in
  let* f2, b2, _ = locate_checked m last_iid in
  if not (String.equal f1.Lir.Func.fname f2.Lir.Func.fname) then
    Error "window spans two functions"
  else if String.equal b1.Lir.Block.label b2.Lir.Block.label then
    Ok (f1.Lir.Func.fname, [ b1.Lir.Block.label ])
  else
    let cfg = Lir.Cfg.of_func f1 in
    match region_labels cfg ~from_:b1.Lir.Block.label ~to_:b2.Lir.Block.label with
    | None -> Error "last not reachable from first"
    | Some region -> Ok (f1.Lir.Func.fname, region)

let bracket_region m ~mutex ~first_iid ~last_iid =
  let* f1, b1, i1 = locate_checked m first_iid in
  let* f2, b2, i2 = locate_checked m last_iid in
  let last_instr = List.nth b2.Lir.Block.instrs i2 in
  if not (String.equal f1.Lir.Func.fname f2.Lir.Func.fname) then
    Error "window spans two functions"
  else if Lir.Instr.is_terminator last_instr then
    Error "window ends on a terminator"
  else if String.equal b1.Lir.Block.label b2.Lir.Block.label then
    if i1 > i2 then Error "window reversed within its block"
    else begin
      ignore (Lir.Rewrite.insert_before m ~iid:first_iid [ lock_kind mutex ]);
      ignore (Lir.Rewrite.insert_after m ~iid:last_iid [ unlock_kind mutex ]);
      Ok [ b1.Lir.Block.label ]
    end
  else begin
    let cfg = Lir.Cfg.of_func f1 in
    let l1 = b1.Lir.Block.label and l2 = b2.Lir.Block.label in
    match region_labels cfg ~from_:l1 ~to_:l2 with
    | None -> Error "anchor not reachable from the window start"
    | Some region ->
      let in_region l = List.mem l region in
      let side_entry =
        List.exists
          (fun v ->
            (not (String.equal v l1))
            && List.exists
                 (fun p -> not (in_region p))
                 (Lir.Cfg.predecessors cfg v))
          region
      in
      let reenters_start =
        List.exists in_region (Lir.Cfg.predecessors cfg l1)
      in
      let cycles_through_end =
        List.exists in_region (Lir.Cfg.successors cfg l2)
      in
      if side_entry then Error "window has a side entry (lock could be skipped)"
      else if reenters_start then
        Error "window re-enters its start (would relock)"
      else if cycles_through_end then
        Error "window cycles through its end (would unlock twice)"
      else begin
        ignore (Lir.Rewrite.insert_before m ~iid:first_iid [ lock_kind mutex ]);
        ignore (Lir.Rewrite.insert_after m ~iid:last_iid [ unlock_kind mutex ]);
        (* Early exits: trampoline unlocks on region-leaving edges, and a
           plain unlock before any in-region return. *)
        List.iter
          (fun u ->
            if not (String.equal u l2) then begin
              let ub = Lir.Func.find_block f1 u in
              let term = Lir.Block.terminator ub in
              match term.Lir.Instr.kind with
              | Lir.Instr.Ret _ ->
                ignore
                  (Lir.Rewrite.insert_before m ~iid:term.Lir.Instr.iid
                     [ unlock_kind mutex ])
              | _ ->
                List.iter
                  (fun v ->
                    if not (in_region v) then begin
                      let tramp =
                        Lir.Rewrite.fresh_label f1 ~base:("__fix_exit_" ^ u)
                      in
                      ignore
                        (Lir.Rewrite.append_block m f1 ~label:tramp
                           [ unlock_kind mutex; Lir.Instr.Br v ]);
                      Lir.Rewrite.retarget m ub ~from_:v ~to_:tramp
                    end)
                  (List.sort_uniq compare (Lir.Block.successors ub))
            end)
          region;
        Ok region
      end
  end

(* Whole-function bracket: lock on entry, unlock before every return.
   Coarse — it serializes complete executions of the function — but safe
   for straight-line shapes the surgical region rejects; validation
   decides whether the coarseness regressed anything (e.g. a blocking
   wait inside the bracket). *)
let bracket_function m ~mutex fname =
  match Lir.Irmod.find_func m fname with
  | exception Not_found -> Error ("no function " ^ fname)
  | f ->
    let entry = Lir.Func.entry f in
    (match entry.Lir.Block.instrs with
    | [] -> Error (fname ^ " has an empty entry block")
    | first :: _ ->
      ignore
        (Lir.Rewrite.insert_before m ~iid:first.Lir.Instr.iid
           [ lock_kind mutex ]);
      List.iter
        (fun b ->
          let term = Lir.Block.terminator b in
          match term.Lir.Instr.kind with
          | Lir.Instr.Ret _ ->
            ignore
              (Lir.Rewrite.insert_before m ~iid:term.Lir.Instr.iid
                 [ unlock_kind mutex ])
          | _ -> ())
        f.Lir.Func.blocks;
      Ok ())

let bracket_single m ~mutex iid =
  let* _, _, _ = locate_checked m iid in
  let _, b, at = Lir.Rewrite.locate m ~iid in
  if Lir.Instr.is_terminator (List.nth b.Lir.Block.instrs at) then
    Error "cannot bracket a terminator"
  else begin
    ignore (Lir.Rewrite.insert_before m ~iid [ lock_kind mutex ]);
    ignore (Lir.Rewrite.insert_after m ~iid [ unlock_kind mutex ]);
    Ok ()
  end

(* --- order enforcement ----------------------------------------------------

   Signal side: flag := 1 + broadcast, under the fix mutex.
   Wait side: split the remote's block right before the remote access and
   park on the condvar until the flag is up.  The flag is never cleared,
   so loops pass straight through once the anchor has run. *)

let signal_kinds ~mutex ~flag ~cond =
  [
    lock_kind mutex;
    Lir.Instr.Store
      { value = Lir.Value.i64 1; ptr = Lir.Value.Global flag };
    Lir.Instr.Call
      { dst = None; callee = Lir.Intrinsics.cond_broadcast;
        args = [ Lir.Value.Global cond ] };
    unlock_kind mutex;
  ]

let insert_wait_before m ~mutex ~flag ~cond iid =
  let* f, _, _ = locate_checked m iid in
  let cont_label = Lir.Rewrite.fresh_label f ~base:"__fix_cont" in
  let prefix, _cont = Lir.Rewrite.split_before m ~iid ~label:cont_label in
  let check_label = Lir.Rewrite.fresh_label f ~base:"__fix_check" in
  let wait_label = Lir.Rewrite.fresh_label f ~base:"__fix_wait" in
  let done_label = Lir.Rewrite.fresh_label f ~base:"__fix_done" in
  let r = Lir.Irmod.fresh_reg m ~name:"__fix_flag" ~ty:Lir.Ty.I64 in
  let c = Lir.Irmod.fresh_reg m ~name:"__fix_set" ~ty:Lir.Ty.I1 in
  ignore
    (Lir.Rewrite.append_block m f ~label:check_label
       [
         Lir.Instr.Load { dst = r; ptr = Lir.Value.Global flag };
         Lir.Instr.Icmp
           { dst = c; cmp = Lir.Instr.Ne; lhs = Lir.Value.Reg r;
             rhs = Lir.Value.i64 0 };
         Lir.Instr.Cond_br
           { cond = Lir.Value.Reg c; then_ = done_label; else_ = wait_label };
       ]);
  ignore
    (Lir.Rewrite.append_block m f ~label:wait_label
       [
         Lir.Instr.Call
           { dst = None; callee = Lir.Intrinsics.cond_wait;
             args = [ Lir.Value.Global cond; Lir.Value.Global mutex ] };
         Lir.Instr.Br check_label;
       ]);
  ignore
    (Lir.Rewrite.append_block m f ~label:done_label
       [ unlock_kind mutex; Lir.Instr.Br cont_label ]);
  let lock_label = Lir.Rewrite.fresh_label f ~base:"__fix_lock" in
  ignore
    (Lir.Rewrite.append_block m f ~label:lock_label
       [ lock_kind mutex; Lir.Instr.Br check_label ]);
  Lir.Rewrite.retarget m prefix ~from_:cont_label ~to_:lock_label;
  Ok f.Lir.Func.fname

(* --- synthesis ------------------------------------------------------------ *)

let check_wellformed m =
  match Lir.Verify.check m with
  | [] -> Ok ()
  | errors ->
    Error
      ("patched module fails verification: "
      ^ String.concat "; "
          (List.map
             (fun { Lir.Verify.where; what } -> where ^ ": " ^ what)
             errors))

let fname_of m iid =
  let* f, _, _ = locate_checked m iid in
  Ok f.Lir.Func.fname

let synthesize ~m ~(pattern : Core.Patterns.t) template =
  let result =
    match (pattern, template) with
    | Core.Patterns.Atomicity { local_iid; remote_iid; anchor_iid; _ },
      Lock_region ->
      let mutex = Lir.Rewrite.fresh_global m ~base:"__fix_mutex" Lir.Ty.I64 in
      let* region = bracket_region m ~mutex ~first_iid:local_iid ~last_iid:anchor_iid in
      let* f_local = fname_of m local_iid in
      let* f_remote, b_remote, _ = locate_checked m remote_iid in
      let remote_covered =
        String.equal f_remote.Lir.Func.fname f_local
        && List.mem b_remote.Lir.Block.label region
      in
      let* () =
        if remote_covered then Ok ()
        else bracket_single m ~mutex remote_iid
      in
      Ok
        ( mutex,
          [ f_local; f_remote.Lir.Func.fname ],
          Printf.sprintf
            "mutex @%s across local..anchor window (%d..%d)%s" mutex local_iid
            anchor_iid
            (if remote_covered then "" else
               Printf.sprintf ", bracketing remote %d" remote_iid) )
    | Core.Patterns.Atomicity { local_iid; remote_iid; anchor_iid; _ },
      Lock_function ->
      let* f_local = fname_of m local_iid in
      let* f_anchor = fname_of m anchor_iid in
      if not (String.equal f_local f_anchor) then
        Error "local and anchor in different functions"
      else begin
        let mutex = Lir.Rewrite.fresh_global m ~base:"__fix_mutex" Lir.Ty.I64 in
        let* () = bracket_function m ~mutex f_local in
        let* f_remote = fname_of m remote_iid in
        let* () =
          if String.equal f_remote f_local then Ok ()
          else bracket_single m ~mutex remote_iid
        in
        Ok
          ( mutex,
            [ f_local; f_remote ],
            Printf.sprintf "mutex @%s over all of %s, bracketing remote %d"
              mutex f_local remote_iid )
      end
    | Core.Patterns.Order { remote_iid; anchor_iid; _ }, Signal_wait ->
      let mutex = Lir.Rewrite.fresh_global m ~base:"__fix_mutex" Lir.Ty.I64 in
      let flag = Lir.Rewrite.fresh_global m ~base:"__fix_done" Lir.Ty.I64 in
      let cond = Lir.Rewrite.fresh_global m ~base:"__fix_cond" Lir.Ty.I64 in
      let* _, anchor_block, at = locate_checked m anchor_iid in
      let anchor_instr = List.nth anchor_block.Lir.Block.instrs at in
      let* () =
        if Lir.Instr.is_terminator anchor_instr then
          Error "anchor is a terminator"
        else Ok ()
      in
      ignore
        (Lir.Rewrite.insert_after m ~iid:anchor_iid
           (signal_kinds ~mutex ~flag ~cond));
      let* f_anchor = fname_of m anchor_iid in
      let* f_remote = insert_wait_before m ~mutex ~flag ~cond remote_iid in
      Ok
        ( mutex,
          [ f_anchor; f_remote ],
          Printf.sprintf
            "signal @%s after anchor %d, wait before remote %d" flag
            anchor_iid remote_iid )
    | Core.Patterns.Order { remote_iid; anchor_iid; _ }, Signal_at_exit ->
      let mutex = Lir.Rewrite.fresh_global m ~base:"__fix_mutex" Lir.Ty.I64 in
      let flag = Lir.Rewrite.fresh_global m ~base:"__fix_done" Lir.Ty.I64 in
      let cond = Lir.Rewrite.fresh_global m ~base:"__fix_cond" Lir.Ty.I64 in
      let* f_anchor = fname_of m anchor_iid in
      let f = Lir.Irmod.find_func m f_anchor in
      let rets =
        List.filter_map
          (fun b ->
            let t = Lir.Block.terminator b in
            match t.Lir.Instr.kind with
            | Lir.Instr.Ret _ -> Some t.Lir.Instr.iid
            | _ -> None)
          f.Lir.Func.blocks
      in
      let* () = if rets = [] then Error "anchor function never returns" else Ok () in
      List.iter
        (fun iid ->
          ignore
            (Lir.Rewrite.insert_before m ~iid
               (signal_kinds ~mutex ~flag ~cond)))
        rets;
      let* f_remote = insert_wait_before m ~mutex ~flag ~cond remote_iid in
      Ok
        ( mutex,
          [ f_anchor; f_remote ],
          Printf.sprintf
            "signal @%s at exits of %s, wait before remote %d" flag f_anchor
            remote_iid )
    | Core.Patterns.Deadlock_cycle { sides }, Gate_serialize ->
      let* () = if sides = [] then Error "empty deadlock cycle" else Ok () in
      (* Pre-check the windows are pairwise disjoint: overlapping windows
         in one function would nest the gate inside itself (relock). *)
      let* footprints =
        List.fold_left
          (fun acc (hold, attempt) ->
            let* acc = acc in
            let* fp = bracket_footprint m ~first_iid:hold ~last_iid:attempt in
            Ok (fp :: acc))
          (Ok []) sides
      in
      let overlap =
        let rec pairs = function
          | [] -> false
          | (fn, ls) :: rest ->
            List.exists
              (fun (fn', ls') ->
                String.equal fn fn' && List.exists (fun l -> List.mem l ls') ls)
              rest
            || pairs rest
        in
        pairs footprints
      in
      let* () =
        if overlap then Error "deadlock sides overlap in one function"
        else Ok ()
      in
      let gate = Lir.Rewrite.fresh_global m ~base:"__fix_gate" Lir.Ty.I64 in
      let* fns =
        List.fold_left
          (fun acc (hold, attempt) ->
            let* acc = acc in
            let* _ = bracket_region m ~mutex:gate ~first_iid:hold ~last_iid:attempt in
            let* fn = fname_of m hold in
            Ok (fn :: acc))
          (Ok []) sides
      in
      Ok
        ( gate,
          fns,
          Printf.sprintf
            "gate mutex @%s serializing %d crossed acquisition window(s)" gate
            (List.length sides) )
    | _, (Lock_region | Lock_function | Signal_wait | Signal_at_exit
         | Gate_serialize) ->
      Error
        (Printf.sprintf "template %s does not apply to pattern %s"
           (template_name template)
           (Core.Patterns.id pattern))
  in
  let* mutex_global, touched, description = result in
  let* () = check_wellformed m in
  Lir.Irmod.layout m;
  Ok
    {
      template;
      mutex_global;
      touched_funcs = List.sort_uniq compare touched;
      description;
    }
