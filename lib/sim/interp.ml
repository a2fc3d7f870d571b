module Prng = Snorlax_util.Prng

type outcome =
  | Completed
  | Failed of { failure : Failure.t; time_ns : float }
  | Stuck
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  final_time_ns : float;
  steps : int;
  output : int list;
  threads_spawned : int;
}

type config = { seed : int; max_steps : int; hooks : Hooks.t; cost_scale : float }

let default_config =
  { seed = 1; max_steps = 20_000_000; hooks = Hooks.none; cost_scale = 1.0 }

(* Base instruction costs in nanoseconds, loosely calibrated to a modern
   out-of-order core so that corpus delays in the 100 us range dominate. *)
module Cost = struct
  let arith = 0.8
  let load = 2.0
  let store = 2.0
  let alloca = 1.5
  let branch = 1.2
  let call = 4.0
  let ret = 3.0
  let intrinsic = 6.0
  let malloc = 40.0
  let mutex = 14.0
  let thread_spawn = 2500.0
  let wake = 180.0
  let join = 20.0
end

type status =
  | Runnable
  | Blocked_mutex of { addr : int; call_iid : int; since : float }
  | Blocked_cond of { addr : int; since : float }
  | Blocked_join of { target : int; call_iid : int; since : float }
  | Finished

(* Registers live in a flat array of the function's slots (see {!Image});
   [defined] marks the slots written so far, so reading an unwritten
   register still faults. *)
type frame = {
  fn : Image.fn;
  mutable idx : int;
  regs : int array;
  defined : Bytes.t;
  stack_mark : int;
  ret_dst : int; (* caller slot receiving our result, or [Image.no_slot] *)
}

let no_pc = min_int

type thread = {
  tid : int;
  mutable stack : frame list;
  mutable status : status;
  mutable clock : float;
  mutable pending_ret_pc : int;
      (* return-target of a blocking intrinsic call, traced on wake; [no_pc]
         when none is pending *)
  mutable queued : bool; (* in the run queue *)
}

type state = {
  m : Lir.Irmod.t;
  img : Image.t;
  cfg : config;
  mem : Memory.t;
  mutexes : Mutexes.t;
  condvars : Condvars.t;
  mutable threads : thread array; (* by tid, [0, next_tid) *)
  mutable next_tid : int;
  prng : Prng.t;
  mutable failure : (Failure.t * float) option;
  mutable steps : int;
  mutable output_rev : int list;
  joiners : (int, int list ref) Hashtbl.t; (* target tid -> waiting tids *)
  mutable queue : thread array; (* binary min-heap on (clock, tid) *)
  mutable queue_len : int;
  mutable woken : thread list; (* made runnable during the current step *)
  traced : bool; (* an [on_control] hook is attached *)
}

exception Sim_failure

let[@inline] jitter st base =
  base *. st.cfg.cost_scale *. (0.85 +. Prng.float st.prng ~bound:0.3)

let[@inline] advance st th cost = th.clock <- th.clock +. jitter st cost

(* Explicit delays (work/io waits) model I/O, network and preemption
   noise; their +/-5% jitter is what makes thread interleavings vary from
   seed to seed, so a bug manifests in some runs and not in others. *)
let[@inline] delay_jitter st ns = ns *. (0.95 +. Prng.float st.prng ~bound:0.10)

(* --- run queue ----------------------------------------------------------

   The runnable threads, ordered by (clock, tid): the head is the thread
   the engine steps next.  Only the stepped thread changes its key while
   queued, and it is the head, so after each step it is sifted down from
   the root (or removed); threads woken or spawned during the step are
   inserted after it. *)

let before a b = a.clock < b.clock || (a.clock = b.clock && a.tid < b.tid)

let runnable th = match th.status with Runnable -> true | _ -> false

let rec sift_up q k th =
  if k > 0 && before th q.((k - 1) / 2) then begin
    q.(k) <- q.((k - 1) / 2);
    sift_up q ((k - 1) / 2) th
  end
  else q.(k) <- th

let rec sift_down q len k th =
  let l = (2 * k) + 1 in
  if l >= len then q.(k) <- th
  else
    let c = if l + 1 < len && before q.(l + 1) q.(l) then l + 1 else l in
    if before q.(c) th then begin
      q.(k) <- q.(c);
      sift_down q len c th
    end
    else q.(k) <- th

let enqueue st th =
  if st.queue_len = Array.length st.queue then
    st.queue <- Array.append st.queue (Array.make st.queue_len th);
  th.queued <- true;
  st.queue_len <- st.queue_len + 1;
  sift_up st.queue (st.queue_len - 1) th

(* Restore the heap after [head] (at the root) was stepped. *)
let requeue_head st head =
  if runnable head then sift_down st.queue st.queue_len 0 head
  else begin
    head.queued <- false;
    st.queue_len <- st.queue_len - 1;
    if st.queue_len > 0 then
      sift_down st.queue st.queue_len 0 st.queue.(st.queue_len)
  end;
  List.iter
    (fun th -> if runnable th && not th.queued then enqueue st th)
    st.woken;
  st.woken <- []

let make_runnable st th =
  th.status <- Runnable;
  st.woken <- th :: st.woken

(* --- frames and threads ------------------------------------------------- *)

let push_frame st th (fn : Image.fn) ~regs ~defined ~ret_dst =
  (match fn.Image.entry_error with Some e -> raise e | None -> ());
  let frame =
    {
      fn;
      idx = 0;
      regs;
      defined;
      stack_mark = Memory.frame_mark st.mem ~tid:th.tid;
      ret_dst;
    }
  in
  th.stack <- frame :: th.stack

let new_regs (fn : Image.fn) =
  (Array.make fn.Image.nslots 0, Bytes.make fn.Image.nslots '\000')

let spawn_thread st (fn : Image.fn) ~arg ~start_clock =
  let tid = st.next_tid in
  st.next_tid <- tid + 1;
  let th =
    {
      tid;
      stack = [];
      status = Runnable;
      clock = start_clock;
      pending_ret_pc = no_pc;
      queued = false;
    }
  in
  if tid = Array.length st.threads then
    st.threads <- Array.append st.threads (Array.make (max 4 tid) th);
  st.threads.(tid) <- th;
  let regs, defined = new_regs fn in
  let params = fn.Image.param_slots in
  (* One parameter receives the argument; with more, all start at 0. *)
  Array.iter
    (fun s ->
      regs.(s) <- (if Array.length params = 1 then arg else 0);
      Bytes.set defined s '\001')
    params;
  push_frame st th fn ~regs ~defined ~ret_dst:Image.no_slot;
  th

let fire_control st th event =
  match st.cfg.hooks.Hooks.on_control with
  | None -> ()
  | Some f -> th.clock <- th.clock +. f ~time:th.clock event

let fire_instr st th (i : Lir.Instr.t) =
  match st.cfg.hooks.Hooks.on_instr with
  | None -> ()
  | Some f -> th.clock <- th.clock +. f ~tid:th.tid ~time:th.clock i

let fire_sched st event =
  match st.cfg.hooks.Hooks.on_sched with None -> () | Some f -> f event

let fire_obs st event =
  match st.cfg.hooks.Hooks.on_obs with None -> () | Some f -> f event

(* A blocked thread just became runnable: report how long it was parked.
   [since] is when it blocked; its clock was already advanced to the wake
   time by the caller. *)
let fire_unblocked st (th : thread) ~since =
  fire_sched st
    (Hooks.Unblocked
       { tid = th.tid; parked_ns = th.clock -. since; time = th.clock })

let blocked_since (th : thread) =
  match th.status with
  | Blocked_mutex { since; _ } | Blocked_cond { since; _ }
  | Blocked_join { since; _ } ->
    Some since
  | Runnable | Finished -> None

let set_failure st th failure =
  st.failure <- Some (failure, th.clock);
  raise Sim_failure

let crash st th (i : Lir.Instr.t) err addr =
  let reason =
    match (err : Memory.access_error) with
    | Memory.Null -> Failure.Null_deref
    | Memory.Freed -> Failure.Use_after_free
    | Memory.Unmapped -> Failure.Unmapped
  in
  set_failure st th
    (Failure.Crash
       { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; reason; addr })

let resume_pending st w =
  if w.pending_ret_pc <> no_pc then begin
    let pc = w.pending_ret_pc in
    w.pending_ret_pc <- no_pc;
    fire_control st w (Hooks.Ret_branch { tid = w.tid; target_pc = Some pc })
  end

(* A release handed the mutex at [addr] to [next]: wake it at the
   releaser's time plus the wake cost, emit its acquire observation
   (attributed to the lock call that parked it), and trace the pending
   return of that call. *)
let grant_mutex st th ~addr next =
  let w = st.threads.(next) in
  let since = blocked_since w in
  let call_iid =
    match w.status with
    | Blocked_mutex { call_iid; _ } -> Some call_iid
    | Runnable | Blocked_cond _ | Blocked_join _ | Finished -> None
  in
  make_runnable st w;
  w.clock <- Float.max w.clock th.clock +. jitter st Cost.wake;
  (match since with Some s -> fire_unblocked st w ~since:s | None -> ());
  (match call_iid with
  | Some iid ->
    fire_obs st
      (Hooks.Obs_lock_acquired { tid = w.tid; iid; addr; time = w.clock })
  | None -> ());
  resume_pending st w

(* (tid, blocked call iid, lock addr) for each cycle member; [closer] is
   the thread whose lock attempt closed the cycle and goes last. *)
let deadlock_waiters st ~closer cycle =
  let closer_tid, closer_iid, closer_addr = closer in
  let waiter_of tid =
    if tid = closer_tid then closer
    else
      match st.threads.(tid).status with
      | Blocked_mutex { addr; call_iid; _ } -> (tid, call_iid, addr)
      | Runnable | Blocked_cond _ | Blocked_join _ | Finished ->
        (tid, closer_iid, closer_addr)
  in
  let others = List.filter (fun t -> t <> closer_tid) cycle in
  List.map waiter_of others @ [ closer ]

(* Raised by [eval] where no thread/instruction context is at hand;
   [step] catches it and converts it to a structured [Failure.Undef_read]
   attributed to the instruction that performed the read. *)
exception Undef_register of string

let eval frame (v : Image.operand) =
  match v with
  | Image.Slot (s, rname) ->
    if Bytes.unsafe_get frame.defined s <> '\000' then Array.unsafe_get frame.regs s
    else raise (Undef_register rname)
  | Image.Const c -> c
  | Image.Fault e -> raise e

let set_reg frame s v =
  Array.unsafe_set frame.regs s v;
  Bytes.unsafe_set frame.defined s '\001'

let goto frame target =
  if target < 0 then raise Not_found;
  frame.idx <- target

(* Return from the current frame: pop, deliver the value, resume caller.
   With an empty remaining stack the thread exits. *)
let do_return st th value =
  match th.stack with
  | [] -> assert false
  | frame :: rest -> (
    Memory.pop_frame st.mem ~tid:th.tid ~mark:frame.stack_mark;
    th.stack <- rest;
    match rest with
    | [] ->
      fire_control st th (Hooks.Ret_branch { tid = th.tid; target_pc = None });
      th.status <- Finished;
      fire_control st th (Hooks.Thread_exit { tid = th.tid });
      (* Wake joiners at our completion time. *)
      (match Hashtbl.find_opt st.joiners th.tid with
      | None -> ()
      | Some waiting ->
        List.iter
          (fun wtid ->
            let w = st.threads.(wtid) in
            let since = blocked_since w in
            let join_iid =
              match w.status with
              | Blocked_join { call_iid; _ } -> Some call_iid
              | Runnable | Blocked_mutex _ | Blocked_cond _ | Finished -> None
            in
            make_runnable st w;
            w.clock <- Float.max w.clock th.clock +. Cost.join;
            (match since with
            | Some s -> fire_unblocked st w ~since:s
            | None -> ());
            (match join_iid with
            | Some iid ->
              fire_obs st
                (Hooks.Obs_join
                   { tid = w.tid; target_tid = th.tid; iid; time = w.clock })
            | None -> ());
            resume_pending st w)
          !waiting;
        Hashtbl.remove st.joiners th.tid)
    | caller :: _ ->
      if st.traced then begin
        let target = caller.fn.Image.instrs.(caller.idx) in
        fire_control st th
          (Hooks.Ret_branch { tid = th.tid; target_pc = Some target.Lir.Instr.pc })
      end;
      if frame.ret_dst <> Image.no_slot then set_reg caller frame.ret_dst value)

(* Zero divisors never reach here: [step] turns them into a structured
   [Failure.Arith_fault] before dispatching, with the faulting thread and
   instruction in hand. *)
let exec_binop op a b =
  match (op : Lir.Instr.binop) with
  | Lir.Instr.Add -> a + b
  | Lir.Instr.Sub -> a - b
  | Lir.Instr.Mul -> a * b
  | Lir.Instr.Sdiv -> a / b
  | Lir.Instr.Srem -> a mod b
  | Lir.Instr.And -> a land b
  | Lir.Instr.Or -> a lor b
  | Lir.Instr.Xor -> a lxor b
  | Lir.Instr.Shl -> a lsl b
  | Lir.Instr.Lshr -> a lsr b

let exec_icmp cmp a b =
  let r =
    match (cmp : Lir.Instr.icmp) with
    | Lir.Instr.Eq -> a = b
    | Lir.Instr.Ne -> a <> b
    | Lir.Instr.Slt -> a < b
    | Lir.Instr.Sle -> a <= b
    | Lir.Instr.Sgt -> a > b
    | Lir.Instr.Sge -> a >= b
  in
  if r then 1 else 0

let arg frame args n =
  if n >= Array.length args then failwith "nth";
  eval frame (Array.unsafe_get args n)

let exec_intrinsic st th frame (i : Lir.Instr.t) dst (tag : Image.intrinsic) args =
  let arg n = arg frame args n in
  let return v = if dst <> Image.no_slot then set_reg frame dst v in
  match tag with
  | Image.Malloc ->
    advance st th Cost.malloc;
    return (Memory.alloc_heap st.mem ~size:(arg 0))
  | Image.Free -> (
    advance st th Cost.malloc;
    let addr = arg 0 in
    (* Observed before the free so the block extent is still known: a free
       invalidates every byte of the allocation, i.e. writes the range. *)
    (match st.cfg.hooks.Hooks.on_obs with
    | None -> ()
    | Some f ->
      let size =
        match Memory.heap_block_size st.mem addr with
        | Some s -> max 1 s
        | None -> 1
      in
      f
        (Hooks.Obs_access
           { tid = th.tid; iid = i.Lir.Instr.iid; addr; size;
             kind = Hooks.Free; time = th.clock }));
    match Memory.free_heap st.mem addr with
    | Ok () -> ()
    | Error err -> crash st th i err addr)
  | Image.Mutex_init | Image.Cond_init -> advance st th Cost.intrinsic
  | Image.Mutex_lock -> (
    advance st th Cost.mutex;
    let addr = arg 0 in
    fire_obs st
      (Hooks.Obs_lock_attempt
         { tid = th.tid; iid = i.Lir.Instr.iid; addr; time = th.clock });
    match Mutexes.lock st.mutexes ~addr ~tid:th.tid with
    | Mutexes.Acquired ->
      fire_obs st
        (Hooks.Obs_lock_acquired
           { tid = th.tid; iid = i.Lir.Instr.iid; addr; time = th.clock })
    | Mutexes.Relocked ->
      set_failure st th
        (Failure.Lock_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; addr;
             misuse = Failure.Relock })
    | Mutexes.Blocked ->
      th.status <-
        Blocked_mutex { addr; call_iid = i.Lir.Instr.iid; since = th.clock };
      fire_sched st (Hooks.Contended { tid = th.tid; addr; time = th.clock })
    | Mutexes.Deadlocked cycle ->
      let closer = (th.tid, i.Lir.Instr.iid, addr) in
      set_failure st th
        (Failure.Deadlock { waiters = deadlock_waiters st ~closer cycle }))
  | Image.Mutex_unlock -> (
    advance st th Cost.mutex;
    let addr = arg 0 in
    match Mutexes.unlock st.mutexes ~addr ~tid:th.tid with
    | Error err ->
      let misuse =
        match err with
        | Mutexes.Not_owner _ -> Failure.Unlock_unowned
        | Mutexes.Not_locked -> Failure.Unlock_free
      in
      set_failure st th
        (Failure.Lock_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; addr;
             misuse })
    | Ok next -> (
      fire_obs st
        (Hooks.Obs_lock_released
           { tid = th.tid; iid = i.Lir.Instr.iid; addr; time = th.clock });
      match next with
      | None -> ()
      | Some next -> grant_mutex st th ~addr next))
  | Image.Cond_wait ->
    advance st th Cost.mutex;
    let cond_addr = arg 0 and mutex_addr = arg 1 in
    (* Atomically release the mutex and park on the condition. *)
    (match Mutexes.unlock st.mutexes ~addr:mutex_addr ~tid:th.tid with
    | Error _ ->
      set_failure st th
        (Failure.Lock_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             addr = mutex_addr; misuse = Failure.Wait_unlocked })
    | Ok next -> (
      fire_obs st
        (Hooks.Obs_lock_released
           { tid = th.tid; iid = i.Lir.Instr.iid; addr = mutex_addr;
             time = th.clock });
      match next with
      | None -> ()
      | Some next -> grant_mutex st th ~addr:mutex_addr next));
    Condvars.wait st.condvars ~addr:cond_addr ~tid:th.tid ~mutex_addr
      ~call_iid:i.Lir.Instr.iid;
    fire_obs st
      (Hooks.Obs_cond_park
         { tid = th.tid; iid = i.Lir.Instr.iid; cond = cond_addr;
           mutex = mutex_addr; time = th.clock });
    th.status <- Blocked_cond { addr = cond_addr; since = th.clock }
  | Image.Cond_signal | Image.Cond_broadcast ->
    advance st th Cost.mutex;
    let cond_addr = arg 0 in
    let woken =
      if tag = Image.Cond_signal then
        match Condvars.signal st.condvars ~addr:cond_addr with
        | Some w -> [ w ]
        | None -> []
      else Condvars.broadcast st.condvars ~addr:cond_addr
    in
    List.iter
      (fun (wtid, mutex_addr, wait_iid) ->
        let w = st.threads.(wtid) in
        let since = blocked_since w in
        w.clock <- Float.max w.clock th.clock +. jitter st Cost.wake;
        (match since with Some s -> fire_unblocked st w ~since:s | None -> ());
        fire_obs st
          (Hooks.Obs_cond_wake
             { waker_tid = th.tid; woken_tid = wtid; cond = cond_addr;
               time = w.clock });
        (* The woken thread re-acquires its mutex before cond_wait
           returns; it may block again right here.  Everything below is
           the waiter's own work, attributed to its cond_wait call. *)
        fire_obs st
          (Hooks.Obs_lock_attempt
             { tid = wtid; iid = wait_iid; addr = mutex_addr; time = w.clock });
        match Mutexes.lock st.mutexes ~addr:mutex_addr ~tid:wtid with
        | Mutexes.Acquired ->
          make_runnable st w;
          fire_obs st
            (Hooks.Obs_lock_acquired
               { tid = wtid; iid = wait_iid; addr = mutex_addr;
                 time = w.clock });
          resume_pending st w
        | Mutexes.Relocked ->
          (* Unreachable: the waiter released this mutex when it parked. *)
          set_failure st th
            (Failure.Lock_misuse
               { tid = wtid; iid = wait_iid;
                 pc = (Lir.Irmod.instr_by_iid st.m wait_iid).Lir.Instr.pc;
                 addr = mutex_addr; misuse = Failure.Relock })
        | Mutexes.Blocked ->
          w.status <-
            Blocked_mutex
              { addr = mutex_addr; call_iid = wait_iid; since = w.clock };
          fire_sched st
            (Hooks.Contended { tid = wtid; addr = mutex_addr; time = w.clock })
        | Mutexes.Deadlocked cycle ->
          (* A waiter woken while holding other locks can close a real
             wait-for cycle here (it parked with those locks held). *)
          let closer = (wtid, wait_iid, mutex_addr) in
          set_failure st w
            (Failure.Deadlock { waiters = deadlock_waiters st ~closer cycle }))
      woken
  | Image.Thread_create -> (
    advance st th Cost.thread_spawn;
    let fn_pc = arg 0 and a = arg 1 in
    match Hashtbl.find_opt st.img.Image.by_entry_pc fn_pc with
    | None ->
      set_failure st th
        (Failure.Thread_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             misuse = Failure.Create_not_function })
    | Some k ->
      let child =
        spawn_thread st st.img.Image.fns.(k) ~arg:a ~start_clock:th.clock
      in
      st.woken <- child :: st.woken;
      fire_control st child
        (Hooks.Thread_start { tid = child.tid; entry_pc = fn_pc });
      fire_obs st
        (Hooks.Obs_spawn
           { parent_tid = th.tid; child_tid = child.tid; iid = i.Lir.Instr.iid;
             time = th.clock });
      return child.tid)
  | Image.Thread_join ->
    advance st th Cost.join;
    let target = arg 0 in
    if target < 0 || target >= st.next_tid then
      set_failure st th
        (Failure.Thread_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             misuse = Failure.Join_unknown })
    else if st.threads.(target).status = Finished then
      fire_obs st
        (Hooks.Obs_join
           { tid = th.tid; target_tid = target; iid = i.Lir.Instr.iid;
             time = th.clock })
    else begin
      th.status <-
        Blocked_join { target; call_iid = i.Lir.Instr.iid; since = th.clock };
      let waiting =
        match Hashtbl.find_opt st.joiners target with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.add st.joiners target l;
          l
      in
      waiting := th.tid :: !waiting
    end
  | Image.Work | Image.Io_delay ->
    th.clock <- th.clock +. delay_jitter st (float_of_int (arg 0))
  | Image.Assert_true ->
    advance st th Cost.intrinsic;
    if arg 0 = 0 then
      set_failure st th
        (Failure.Assert_fail { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc })
  | Image.Print_i64 ->
    advance st th Cost.intrinsic;
    st.output_rev <- arg 0 :: st.output_rev
  | Image.Rand ->
    advance st th Cost.intrinsic;
    return (Prng.int st.prng ~bound:(max 1 (arg 0)))

exception Gated

(* A positive gate verdict parks the thread without executing; the
   scheduler will run whoever is now earliest and retry this thread
   later. *)
let check_gate st th (i : Lir.Instr.t) =
  match st.cfg.hooks.Hooks.gate with
  | None -> ()
  | Some g ->
    let stall = g ~tid:th.tid ~time:th.clock i in
    if stall > 0.0 then begin
      th.clock <- th.clock +. stall;
      st.steps <- st.steps + 1;
      raise Gated
    end

let call st th frame (callee : Image.fn) ~dst args =
  let params = callee.Image.param_slots in
  let n = Array.length args in
  if n <> Array.length params then begin
    Array.iter (fun a -> ignore (eval frame a : int)) args;
    invalid_arg "List.iter2"
  end;
  let regs, defined = new_regs callee in
  for k = 0 to n - 1 do
    let v = eval frame (Array.unsafe_get args k) in
    let s = Array.unsafe_get params k in
    Array.unsafe_set regs s v;
    Bytes.unsafe_set defined s '\001'
  done;
  push_frame st th callee ~regs ~defined ~ret_dst:dst

let exec st th frame (i : Lir.Instr.t) (op : Image.op) =
  match op with
  | Image.Alloca { dst; size } ->
    advance st th Cost.alloca;
    set_reg frame dst (Memory.alloc_stack st.mem ~tid:th.tid ~size)
  | Image.Load { dst; ptr; size } -> (
    advance st th Cost.load;
    let addr = eval frame ptr in
    (* Observed before the memory check so crashing accesses appear in the
       stream too — the oracle wants the access that faulted. *)
    (match st.cfg.hooks.Hooks.on_obs with
    | None -> ()
    | Some f ->
      f
        (Hooks.Obs_access
           { tid = th.tid; iid = i.Lir.Instr.iid; addr; size; kind = Hooks.Read;
             time = th.clock }));
    match Memory.load st.mem ~addr with
    | v -> set_reg frame dst v
    | exception Memory.Fault err -> crash st th i err addr)
  | Image.Store { value; ptr; size } -> (
    advance st th Cost.store;
    let addr = eval frame ptr in
    let v = eval frame value in
    (match st.cfg.hooks.Hooks.on_obs with
    | None -> ()
    | Some f ->
      f
        (Hooks.Obs_access
           { tid = th.tid; iid = i.Lir.Instr.iid; addr; size; kind = Hooks.Write;
             time = th.clock }));
    try Memory.store st.mem ~addr ~value:v
    with Memory.Fault err -> crash st th i err addr)
  | Image.Binop { dst; op; lhs; rhs } -> (
    advance st th Cost.arith;
    let a = eval frame lhs in
    let b = eval frame rhs in
    match op with
    | (Lir.Instr.Sdiv | Lir.Instr.Srem) when b = 0 ->
      let fault =
        if op = Lir.Instr.Sdiv then Failure.Div_by_zero else Failure.Rem_by_zero
      in
      set_failure st th
        (Failure.Arith_fault
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; fault })
    | _ -> set_reg frame dst (exec_binop op a b))
  | Image.Icmp { dst; cmp; lhs; rhs } ->
    advance st th Cost.arith;
    (* Right operand first: with both undefined, the read that faults
       names the right-hand register. *)
    let b = eval frame rhs in
    let a = eval frame lhs in
    set_reg frame dst (exec_icmp cmp a b)
  | Image.Gep { dst; base; offset } ->
    advance st th Cost.arith;
    set_reg frame dst (eval frame base + offset)
  | Image.Index { dst; base; idx; esize } ->
    advance st th Cost.arith;
    (* Index before base, for the same reason. *)
    let ix = eval frame idx in
    let b = eval frame base in
    set_reg frame dst (b + (esize * ix))
  | Image.Cast { dst; src } ->
    advance st th Cost.arith;
    set_reg frame dst (eval frame src)
  | Image.Intrinsic { dst; tag; args } -> (
    advance st th Cost.call;
    exec_intrinsic st th frame i dst tag args;
    (* The library function's return is an indirect branch the hardware
       tracer records; blocking calls are recorded when they wake. *)
    match th.status with
    | Runnable ->
      if st.traced then
        fire_control st th
          (Hooks.Ret_branch { tid = th.tid; target_pc = Some (i.Lir.Instr.pc + 4) })
    | Blocked_mutex _ | Blocked_cond _ | Blocked_join _ ->
      th.pending_ret_pc <- i.Lir.Instr.pc + 4
    | Finished -> ())
  | Image.Call { dst; callee; args } ->
    advance st th Cost.call;
    call st th frame st.img.Image.fns.(callee) ~dst args
  | Image.Br target ->
    advance st th Cost.branch;
    goto frame target
  | Image.Cond_br { cond; then_; else_ } ->
    advance st th Cost.branch;
    let taken = eval frame cond <> 0 in
    if st.traced then
      fire_control st th
        (Hooks.Cond_branch { tid = th.tid; pc = i.Lir.Instr.pc; taken });
    goto frame (if taken then then_ else else_)
  | Image.Ret v ->
    advance st th Cost.ret;
    let value = match v with Some v -> eval frame v | None -> 0 in
    do_return st th value
  | Image.Trap exn ->
    let cost =
      match i.Lir.Instr.kind with
      | Lir.Instr.Alloca _ -> Cost.alloca
      | Lir.Instr.Call _ -> Cost.call
      | _ -> Cost.arith
    in
    advance st th cost;
    raise exn
  | Image.Unreachable -> failwith "Interp: reached unreachable"

let step st th =
  let frame =
    match th.stack with
    | f :: _ -> f
    | [] -> assert false
  in
  let idx = frame.idx in
  let i = frame.fn.Image.instrs.(idx) in
  check_gate st th i;
  fire_instr st th i;
  st.steps <- st.steps + 1;
  (* Advance past the instruction first so that calls and blocking
     operations resume at the right place. *)
  frame.idx <- idx + 1;
  try exec st th frame i (Array.unsafe_get frame.fn.Image.code idx)
  with Undef_register rname ->
    set_failure st th
      (Failure.Undef_read
         { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; rname })

let any_blocked st =
  let blocked th =
    match th.status with
    | Blocked_mutex _ | Blocked_cond _ | Blocked_join _ -> true
    | Runnable | Finished -> false
  in
  let rec go k = k < st.next_tid && (blocked st.threads.(k) || go (k + 1)) in
  go 0

let final_time st =
  let t = ref 0.0 in
  for k = 0 to st.next_tid - 1 do
    t := Float.max !t st.threads.(k).clock
  done;
  !t

let run ?(config = default_config) m ~entry =
  let img = Image.of_module m in
  let main_fn =
    match Hashtbl.find_opt img.Image.by_name entry with
    | Some k -> img.Image.fns.(k)
    | None -> raise Not_found
  in
  let st =
    {
      m;
      img;
      cfg = config;
      mem = Memory.create img.Image.globals;
      mutexes = Mutexes.create ();
      condvars = Condvars.create ();
      threads = [||];
      next_tid = 0;
      prng = Prng.create ~seed:config.seed;
      failure = None;
      steps = 0;
      output_rev = [];
      joiners = Hashtbl.create 8;
      queue = [||];
      queue_len = 0;
      woken = [];
      traced = Option.is_some config.hooks.Hooks.on_control;
    }
  in
  let main = spawn_thread st main_fn ~arg:0 ~start_clock:0.0 in
  st.queue <- Array.make 4 main;
  enqueue st main;
  fire_control st main
    (Hooks.Thread_start { tid = main.tid; entry_pc = main_fn.Image.entry_pc });
  let outcome = ref None in
  (* -1 = no thread has run yet; a plain int keeps the per-step check an
     unboxed compare on the no-switch fast path. *)
  let last_tid = ref (-1) in
  (try
     while Option.is_none !outcome do
       if st.steps >= config.max_steps then outcome := Some Fuel_exhausted
       else if st.queue_len = 0 then
         outcome := Some (if any_blocked st then Stuck else Completed)
       else begin
         let th = st.queue.(0) in
         if !last_tid <> th.tid then begin
           if Option.is_some config.hooks.Hooks.on_sched then
             fire_sched st
               (Hooks.Switch
                  {
                    prev_tid = (if !last_tid < 0 then None else Some !last_tid);
                    next_tid = th.tid;
                    time = th.clock;
                  });
           last_tid := th.tid
         end;
         (try step st th with Gated -> ());
         requeue_head st th
       end
     done
   with Sim_failure -> (
     match st.failure with
     | Some (failure, time_ns) -> outcome := Some (Failed { failure; time_ns })
     | None -> assert false));
  let outcome = match !outcome with Some o -> o | None -> assert false in
  {
    outcome;
    final_time_ns = final_time st;
    steps = st.steps;
    output = List.rev st.output_rev;
    threads_spawned = st.next_tid;
  }
