(* The simulator's interpreter as it was before modules were lowered
   into run images: a tree-walking interpreter over [Lir] with per-run
   lookup tables, a hashtable register file and a linear scan for the next
   runnable thread.  Kept verbatim (with the address-space model it used)
   as the reference the differential tests compare [Sim.Interp] against;
   nothing in the library links it. *)

module Failure = Sim.Failure
module Hooks = Sim.Hooks
module Mutexes = Sim.Mutexes
module Condvars = Sim.Condvars

module Memory = struct
  (* Address-space layout (synthetic, collision-free by construction):
       0x0000_0000 .. 0x0000_0fff   null page (always faults)
       0x0000_1000 .. 0x00ff_ffff   code (instruction pcs; faults on data access)
       0x0100_0000 .. 0x0fff_ffff   globals
       0x1000_0000 .. 0x3fff_ffff   heap
       0x4000_0000 ..               stacks, 0x10_0000 bytes per thread *)

  let null_limit = 0x1000
  let globals_base = 0x0100_0000
  let heap_base = 0x1000_0000
  let heap_limit = 0x4000_0000
  let stacks_base = 0x4000_0000
  let stack_size = 0x10_0000

  type access_error = Null | Freed | Unmapped

  type t = {
    cells : (int, int) Hashtbl.t;
    globals : (string, int) Hashtbl.t;
    mutable globals_top : int;
    mutable heap_top : int;
    live_heap : (int, int) Hashtbl.t; (* base -> size *)
    mutable freed : (int * int) list; (* (base, size), most recent first *)
    stack_tops : (int, int) Hashtbl.t; (* tid -> next free stack addr *)
  }

  let create () =
    {
      cells = Hashtbl.create 1024;
      globals = Hashtbl.create 32;
      globals_top = globals_base;
      heap_top = heap_base;
      live_heap = Hashtbl.create 64;
      freed = [];
      stack_tops = Hashtbl.create 16;
    }

  let align8 n = (n + 7) land lnot 7

  let load_globals t m =
    Lir.Irmod.iter_globals m (fun name ty ->
        let size = align8 (max 8 (Lir.Irmod.size_of m ty)) in
        Hashtbl.replace t.globals name t.globals_top;
        t.globals_top <- t.globals_top + size)

  let global_addr t name = Hashtbl.find t.globals name

  let alloc_heap t ~size =
    let base = t.heap_top in
    t.heap_top <- t.heap_top + align8 (max 8 size);
    Hashtbl.replace t.live_heap base size;
    (* Re-allocation of a previously freed base is impossible (bump allocator),
       so stale freed records never shadow live memory. *)
    base

  let heap_block_size t base = Hashtbl.find_opt t.live_heap base

  let free_heap t base =
    match Hashtbl.find_opt t.live_heap base with
    | None -> Error Unmapped
    | Some size ->
      Hashtbl.remove t.live_heap base;
      t.freed <- (base, size) :: t.freed;
      Ok ()

  let stack_base tid = stacks_base + (tid * stack_size)

  let frame_mark t ~tid =
    match Hashtbl.find_opt t.stack_tops tid with
    | Some top -> top
    | None ->
      let base = stack_base tid in
      Hashtbl.replace t.stack_tops tid base;
      base

  let alloc_stack t ~tid ~size =
    let top = frame_mark t ~tid in
    let addr = top in
    Hashtbl.replace t.stack_tops tid (top + align8 (max 8 size));
    addr

  let pop_frame t ~tid ~mark = Hashtbl.replace t.stack_tops tid mark

  let in_freed t addr =
    List.exists (fun (base, size) -> addr >= base && addr < base + size) t.freed

  let validate t addr =
    if addr < null_limit then Error Null
    else if addr < globals_base then Error Unmapped (* code region *)
    else if addr < heap_base then
      if addr < t.globals_top then Ok () else Error Unmapped
    else if addr < heap_limit then
      if in_freed t addr then Error Freed
      else if addr < t.heap_top then Ok ()
      else Error Unmapped
    else Ok () (* stack zone: frame discipline keeps accesses in-bounds *)

  let read t ~addr =
    match validate t addr with
    | Error _ as e -> e
    | Ok () -> Ok (Option.value ~default:0 (Hashtbl.find_opt t.cells addr))

  let write t ~addr ~value =
    match validate t addr with
    | Error _ as e -> e
    | Ok () ->
      Hashtbl.replace t.cells addr value;
      Ok ()
end

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

type frame = {
  func : Lir.Func.t;
  mutable instrs : Lir.Instr.t array;
  mutable idx : int;
  regs : (int, int) Hashtbl.t;
  stack_mark : int;
  ret_dst : Lir.Value.reg option; (* caller register receiving our result *)
}

type thread = {
  tid : int;
  mutable stack : frame list;
  mutable status : status;
  mutable clock : float;
  mutable pending_ret_pc : int option;
      (* return-target of a blocking intrinsic call, traced on wake *)
}

type state = {
  m : Lir.Irmod.t;
  cfg : config;
  mem : Memory.t;
  mutexes : Mutexes.t;
  condvars : Condvars.t;
  threads : (int, thread) Hashtbl.t;
  mutable next_tid : int;
  prng : Prng.t;
  mutable failure : (Failure.t * float) option;
  mutable steps : int;
  mutable output_rev : int list;
  fn_by_entry_pc : (int, Lir.Func.t) Hashtbl.t;
  block_arrays : (string * string, Lir.Instr.t array) Hashtbl.t;
  joiners : (int, int list ref) Hashtbl.t; (* target tid -> waiting tids *)
}

exception Sim_failure

let jitter st base =
  base *. st.cfg.cost_scale *. (0.85 +. Prng.float st.prng ~bound:0.3)

(* Explicit delays (work/io waits) model I/O, network and preemption
   noise; their +/-5% jitter is what makes thread interleavings vary from
   seed to seed, so a bug manifests in some runs and not in others. *)
let delay_jitter st ns = ns *. (0.95 +. Prng.float st.prng ~bound:0.10)

let block_array st (f : Lir.Func.t) label =
  let key = (f.Lir.Func.fname, label) in
  match Hashtbl.find_opt st.block_arrays key with
  | Some a -> a
  | None ->
    let b = Lir.Func.find_block f label in
    let a = Array.of_list b.Lir.Block.instrs in
    Hashtbl.add st.block_arrays key a;
    a

let entry_pc st (f : Lir.Func.t) =
  Lir.Irmod.block_start_pc st.m ~fname:f.Lir.Func.fname
    ~label:(Lir.Func.entry f).Lir.Block.label

let push_frame st th (f : Lir.Func.t) ~args ~ret_dst =
  let regs = Hashtbl.create 16 in
  List.iter2
    (fun (p : Lir.Value.reg) v -> Hashtbl.replace regs p.Lir.Value.rid v)
    f.Lir.Func.params args;
  let frame =
    {
      func = f;
      instrs = block_array st f (Lir.Func.entry f).Lir.Block.label;
      idx = 0;
      regs;
      stack_mark = Memory.frame_mark st.mem ~tid:th.tid;
      ret_dst;
    }
  in
  th.stack <- frame :: th.stack

let spawn_thread st (f : Lir.Func.t) ~arg ~start_clock =
  let tid = st.next_tid in
  st.next_tid <- tid + 1;
  let th =
    { tid; stack = []; status = Runnable; clock = start_clock; pending_ret_pc = None }
  in
  Hashtbl.replace st.threads tid th;
  let args =
    match f.Lir.Func.params with
    | [] -> []
    | [ _ ] -> [ arg ]
    | params -> List.map (fun _ -> 0) params
  in
  push_frame st th f ~args ~ret_dst:None;
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

(* Byte extent of a load/store through [ptr]: the pointee size.  Memory
   cells live at distinct offsets computed from these same sizes, so two
   accesses conflict exactly when their byte ranges overlap. *)
let access_size st ptr =
  match Lir.Value.ty_of ~globals:(Lir.Irmod.global_ty st.m) ptr with
  | Lir.Ty.Ptr t -> ( try Lir.Irmod.size_of st.m t with _ -> 8)
  | _ -> 8
  | exception _ -> 8

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

(* A release handed the mutex at [addr] to [next]: wake it at the
   releaser's time plus the wake cost, emit its acquire observation
   (attributed to the lock call that parked it), and trace the pending
   return of that call. *)
let grant_mutex st th ~addr next =
  let w = Hashtbl.find st.threads next in
  let since = blocked_since w in
  let call_iid =
    match w.status with
    | Blocked_mutex { call_iid; _ } -> Some call_iid
    | Runnable | Blocked_cond _ | Blocked_join _ | Finished -> None
  in
  w.status <- Runnable;
  w.clock <- Float.max w.clock th.clock +. jitter st Cost.wake;
  (match since with Some s -> fire_unblocked st w ~since:s | None -> ());
  (match call_iid with
  | Some iid ->
    fire_obs st
      (Hooks.Obs_lock_acquired { tid = w.tid; iid; addr; time = w.clock })
  | None -> ());
  match w.pending_ret_pc with
  | Some pc ->
    w.pending_ret_pc <- None;
    fire_control st w (Hooks.Ret_branch { tid = w.tid; target_pc = Some pc })
  | None -> ()

(* (tid, blocked call iid, lock addr) for each cycle member; [closer] is
   the thread whose lock attempt closed the cycle and goes last. *)
let deadlock_waiters st ~closer cycle =
  let closer_tid, closer_iid, closer_addr = closer in
  let waiter_of tid =
    if tid = closer_tid then closer
    else
      let other = Hashtbl.find st.threads tid in
      match other.status with
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

let eval st frame v =
  match (v : Lir.Value.t) with
  | Lir.Value.Reg r -> (
    match Hashtbl.find_opt frame.regs r.Lir.Value.rid with
    | Some v -> v
    | None -> raise (Undef_register r.Lir.Value.rname))
  | Lir.Value.Imm (v, _) -> Int64.to_int v
  | Lir.Value.Global g -> Memory.global_addr st.mem g
  | Lir.Value.Null _ -> 0
  | Lir.Value.Fn_ref f -> entry_pc st (Lir.Irmod.find_func st.m f)

let set_reg frame (r : Lir.Value.reg) v = Hashtbl.replace frame.regs r.Lir.Value.rid v

let field_offset st sname field =
  let fields = Lir.Irmod.struct_fields st.m sname in
  let rec go i = function
    | [] -> invalid_arg "Interp.field_offset"
    | f :: rest -> if i = field then 0 else Lir.Irmod.size_of st.m f + go (i + 1) rest
  in
  go 0 fields

let goto frame st label =
  let a = block_array st frame.func label in
  frame.instrs <- a;
  frame.idx <- 0

(* Return from the current frame: pop, deliver the value, resume caller.
   With an empty remaining stack the thread exits. *)
let do_return st th value =
  match th.stack with
  | [] -> assert false
  | frame :: rest ->
    Memory.pop_frame st.mem ~tid:th.tid ~mark:frame.stack_mark;
    th.stack <- rest;
    (match rest with
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
            let w = Hashtbl.find st.threads wtid in
            let since = blocked_since w in
            let join_iid =
              match w.status with
              | Blocked_join { call_iid; _ } -> Some call_iid
              | Runnable | Blocked_mutex _ | Blocked_cond _ | Finished -> None
            in
            w.status <- Runnable;
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
            match w.pending_ret_pc with
            | Some pc ->
              w.pending_ret_pc <- None;
              fire_control st w
                (Hooks.Ret_branch { tid = w.tid; target_pc = Some pc })
            | None -> ())
          !waiting;
        Hashtbl.remove st.joiners th.tid)
    | caller :: _ ->
      let target = caller.instrs.(caller.idx) in
      fire_control st th
        (Hooks.Ret_branch { tid = th.tid; target_pc = Some target.Lir.Instr.pc });
      (match frame.ret_dst, value with
      | Some dst, Some v -> set_reg caller dst v
      | Some dst, None -> set_reg caller dst 0
      | None, _ -> ()))

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

let exec_intrinsic st th frame (i : Lir.Instr.t) dst callee args =
  let arg n = eval st frame (List.nth args n) in
  let return v =
    match dst with Some d -> set_reg frame d v | None -> ()
  in
  let advance cost = th.clock <- th.clock +. jitter st cost in
  if String.equal callee Lir.Intrinsics.malloc then begin
    advance Cost.malloc;
    return (Memory.alloc_heap st.mem ~size:(arg 0))
  end
  else if String.equal callee Lir.Intrinsics.free then begin
    advance Cost.malloc;
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
    | Error err -> crash st th i err addr
  end
  else if String.equal callee Lir.Intrinsics.mutex_init then advance Cost.intrinsic
  else if String.equal callee Lir.Intrinsics.mutex_lock then begin
    advance Cost.mutex;
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
        (Failure.Deadlock { waiters = deadlock_waiters st ~closer cycle })
  end
  else if String.equal callee Lir.Intrinsics.mutex_unlock then begin
    advance Cost.mutex;
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
    | Ok next ->
      fire_obs st
        (Hooks.Obs_lock_released
           { tid = th.tid; iid = i.Lir.Instr.iid; addr; time = th.clock });
      (match next with
      | None -> ()
      | Some next -> grant_mutex st th ~addr next)
  end
  else if String.equal callee Lir.Intrinsics.cond_init then advance Cost.intrinsic
  else if String.equal callee Lir.Intrinsics.cond_wait then begin
    advance Cost.mutex;
    let cond_addr = arg 0 and mutex_addr = arg 1 in
    (* Atomically release the mutex and park on the condition. *)
    (match Mutexes.unlock st.mutexes ~addr:mutex_addr ~tid:th.tid with
    | Error _ ->
      set_failure st th
        (Failure.Lock_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             addr = mutex_addr; misuse = Failure.Wait_unlocked })
    | Ok next ->
      fire_obs st
        (Hooks.Obs_lock_released
           { tid = th.tid; iid = i.Lir.Instr.iid; addr = mutex_addr;
             time = th.clock });
      (match next with
      | None -> ()
      | Some next -> grant_mutex st th ~addr:mutex_addr next));
    Condvars.wait st.condvars ~addr:cond_addr ~tid:th.tid ~mutex_addr
      ~call_iid:i.Lir.Instr.iid;
    fire_obs st
      (Hooks.Obs_cond_park
         { tid = th.tid; iid = i.Lir.Instr.iid; cond = cond_addr;
           mutex = mutex_addr; time = th.clock });
    th.status <- Blocked_cond { addr = cond_addr; since = th.clock }
  end
  else if String.equal callee Lir.Intrinsics.cond_signal
          || String.equal callee Lir.Intrinsics.cond_broadcast then begin
    advance Cost.mutex;
    let cond_addr = arg 0 in
    let woken =
      if String.equal callee Lir.Intrinsics.cond_signal then
        match Condvars.signal st.condvars ~addr:cond_addr with
        | Some w -> [ w ]
        | None -> []
      else Condvars.broadcast st.condvars ~addr:cond_addr
    in
    List.iter
      (fun (wtid, mutex_addr, wait_iid) ->
        let w = Hashtbl.find st.threads wtid in
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
          w.status <- Runnable;
          fire_obs st
            (Hooks.Obs_lock_acquired
               { tid = wtid; iid = wait_iid; addr = mutex_addr;
                 time = w.clock });
          (match w.pending_ret_pc with
          | Some pc ->
            w.pending_ret_pc <- None;
            fire_control st w
              (Hooks.Ret_branch { tid = w.tid; target_pc = Some pc })
          | None -> ())
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
  end
  else if String.equal callee Lir.Intrinsics.thread_create then begin
    advance Cost.thread_spawn;
    let fn_pc = arg 0 and a = arg 1 in
    match Hashtbl.find_opt st.fn_by_entry_pc fn_pc with
    | None ->
      set_failure st th
        (Failure.Thread_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             misuse = Failure.Create_not_function })
    | Some f ->
      let child = spawn_thread st f ~arg:a ~start_clock:th.clock in
      fire_control st child
        (Hooks.Thread_start { tid = child.tid; entry_pc = fn_pc });
      fire_obs st
        (Hooks.Obs_spawn
           { parent_tid = th.tid; child_tid = child.tid; iid = i.Lir.Instr.iid;
             time = th.clock });
      return child.tid
  end
  else if String.equal callee Lir.Intrinsics.thread_join then begin
    advance Cost.join;
    let target = arg 0 in
    match Hashtbl.find_opt st.threads target with
    | None ->
      set_failure st th
        (Failure.Thread_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             misuse = Failure.Join_unknown })
    | Some tgt ->
      if tgt.status = Finished then
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
  end
  else if String.equal callee Lir.Intrinsics.work then
    th.clock <- th.clock +. delay_jitter st (float_of_int (arg 0))
  else if String.equal callee Lir.Intrinsics.io_delay then
    th.clock <- th.clock +. delay_jitter st (float_of_int (arg 0))
  else if String.equal callee Lir.Intrinsics.assert_true then begin
    advance Cost.intrinsic;
    if arg 0 = 0 then
      set_failure st th
        (Failure.Assert_fail { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc })
  end
  else if String.equal callee Lir.Intrinsics.print_i64 then begin
    advance Cost.intrinsic;
    st.output_rev <- arg 0 :: st.output_rev
  end
  else if String.equal callee Lir.Intrinsics.rand then begin
    advance Cost.intrinsic;
    return (Prng.int st.prng ~bound:(max 1 (arg 0)))
  end
  else failwith ("Interp: unknown intrinsic " ^ callee)

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

let step st th =
  let frame =
    match th.stack with
    | f :: _ -> f
    | [] -> assert false
  in
  let i = frame.instrs.(frame.idx) in
  check_gate st th i;
  fire_instr st th i;
  st.steps <- st.steps + 1;
  (* Advance past the instruction first so that calls and blocking
     operations resume at the right place. *)
  frame.idx <- frame.idx + 1;
  let advance cost = th.clock <- th.clock +. jitter st cost in
  try
    match i.Lir.Instr.kind with
  | Lir.Instr.Alloca { dst; ty } ->
    advance Cost.alloca;
    let size = Lir.Irmod.size_of st.m ty in
    set_reg frame dst (Memory.alloc_stack st.mem ~tid:th.tid ~size)
  | Lir.Instr.Load { dst; ptr } -> (
    advance Cost.load;
    let addr = eval st frame ptr in
    (* Observed before the memory check so crashing accesses appear in the
       stream too — the oracle wants the access that faulted. *)
    (match st.cfg.hooks.Hooks.on_obs with
    | None -> ()
    | Some f ->
      f
        (Hooks.Obs_access
           { tid = th.tid; iid = i.Lir.Instr.iid; addr;
             size = access_size st ptr; kind = Hooks.Read; time = th.clock }));
    match Memory.read st.mem ~addr with
    | Ok v -> set_reg frame dst v
    | Error err -> crash st th i err addr)
  | Lir.Instr.Store { value; ptr } -> (
    advance Cost.store;
    let addr = eval st frame ptr in
    let v = eval st frame value in
    (match st.cfg.hooks.Hooks.on_obs with
    | None -> ()
    | Some f ->
      f
        (Hooks.Obs_access
           { tid = th.tid; iid = i.Lir.Instr.iid; addr;
             size = access_size st ptr; kind = Hooks.Write; time = th.clock }));
    match Memory.write st.mem ~addr ~value:v with
    | Ok () -> ()
    | Error err -> crash st th i err addr)
  | Lir.Instr.Binop { dst; op; lhs; rhs } -> (
    advance Cost.arith;
    let a = eval st frame lhs in
    let b = eval st frame rhs in
    match op with
    | (Lir.Instr.Sdiv | Lir.Instr.Srem) when b = 0 ->
      let fault =
        if op = Lir.Instr.Sdiv then Failure.Div_by_zero
        else Failure.Rem_by_zero
      in
      set_failure st th
        (Failure.Arith_fault
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; fault })
    | _ -> set_reg frame dst (exec_binop op a b))
  | Lir.Instr.Icmp { dst; cmp; lhs; rhs } ->
    advance Cost.arith;
    set_reg frame dst (exec_icmp cmp (eval st frame lhs) (eval st frame rhs))
  | Lir.Instr.Gep { dst; base; field } ->
    advance Cost.arith;
    let sname =
      match Lir.Value.ty_of ~globals:(Lir.Irmod.global_ty st.m) base with
      | Lir.Ty.Ptr (Lir.Ty.Struct s) -> s
      | _ -> failwith "Interp: gep base not a struct pointer"
    in
    set_reg frame dst (eval st frame base + field_offset st sname field)
  | Lir.Instr.Index { dst; base; idx } ->
    advance Cost.arith;
    let elem_ty =
      match Lir.Value.ty_of ~globals:(Lir.Irmod.global_ty st.m) base with
      | Lir.Ty.Ptr (Lir.Ty.Array (t, _)) -> t
      | Lir.Ty.Ptr t -> t
      | _ -> failwith "Interp: index base not a pointer"
    in
    let esize = Lir.Irmod.size_of st.m elem_ty in
    set_reg frame dst (eval st frame base + (esize * eval st frame idx))
  | Lir.Instr.Cast { dst; src } ->
    advance Cost.arith;
    set_reg frame dst (eval st frame src)
  | Lir.Instr.Call { dst; callee; args } ->
    advance Cost.call;
    if Lir.Intrinsics.is_intrinsic callee then begin
      exec_intrinsic st th frame i dst callee args;
      (* The library function's return is an indirect branch the hardware
         tracer records; blocking calls are recorded when they wake. *)
      match th.status with
      | Runnable ->
        fire_control st th
          (Hooks.Ret_branch { tid = th.tid; target_pc = Some (i.Lir.Instr.pc + 4) })
      | Blocked_mutex _ | Blocked_cond _ | Blocked_join _ ->
        th.pending_ret_pc <- Some (i.Lir.Instr.pc + 4)
      | Finished -> ()
    end
    else begin
      let f = Lir.Irmod.find_func st.m callee in
      let argv = List.map (eval st frame) args in
      push_frame st th f ~args:argv ~ret_dst:dst
    end
  | Lir.Instr.Br label ->
    advance Cost.branch;
    goto frame st label
  | Lir.Instr.Cond_br { cond; then_; else_ } ->
    advance Cost.branch;
    let taken = eval st frame cond <> 0 in
    fire_control st th
      (Hooks.Cond_branch { tid = th.tid; pc = i.Lir.Instr.pc; taken });
    goto frame st (if taken then then_ else else_)
  | Lir.Instr.Ret v ->
    advance Cost.ret;
    let value = Option.map (eval st frame) v in
    do_return st th value
  | Lir.Instr.Unreachable -> failwith "Interp: reached unreachable"
  with Undef_register rname ->
    set_failure st th
      (Failure.Undef_read
         { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; rname })

let pick_runnable st =
  let best = ref None in
  Hashtbl.iter
    (fun _ th ->
      if th.status = Runnable then
        match !best with
        | None -> best := Some th
        | Some b ->
          if
            th.clock < b.clock
            || (th.clock = b.clock && th.tid < b.tid)
          then best := Some th)
    st.threads;
  !best

let any_blocked st =
  Hashtbl.fold
    (fun _ th acc ->
      acc
      ||
      match th.status with
      | Blocked_mutex _ | Blocked_cond _ | Blocked_join _ -> true
      | Runnable | Finished -> false)
    st.threads false

let final_time st =
  Hashtbl.fold (fun _ th acc -> Float.max acc th.clock) st.threads 0.0

let run ?(config = default_config) m ~entry =
  Lir.Irmod.layout m;
  let mem = Memory.create () in
  Memory.load_globals mem m;
  let st =
    {
      m;
      cfg = config;
      mem;
      mutexes = Mutexes.create ();
      condvars = Condvars.create ();
      threads = Hashtbl.create 16;
      next_tid = 0;
      prng = Prng.create ~seed:config.seed;
      failure = None;
      steps = 0;
      output_rev = [];
      fn_by_entry_pc = Hashtbl.create 16;
      block_arrays = Hashtbl.create 64;
      joiners = Hashtbl.create 8;
    }
  in
  List.iter
    (fun f ->
      if f.Lir.Func.blocks <> [] then
        Hashtbl.replace st.fn_by_entry_pc (entry_pc st f) f)
    (Lir.Irmod.funcs m);
  let main_fn = Lir.Irmod.find_func m entry in
  let main = spawn_thread st main_fn ~arg:0 ~start_clock:0.0 in
  fire_control st main
    (Hooks.Thread_start { tid = main.tid; entry_pc = entry_pc st main_fn });
  let outcome = ref None in
  (* -1 = no thread has run yet; a plain int keeps the per-step check an
     unboxed compare on the no-switch fast path. *)
  let last_tid = ref (-1) in
  (try
     while !outcome = None do
       if st.steps >= config.max_steps then outcome := Some Fuel_exhausted
       else
         match pick_runnable st with
         | Some th ->
           if !last_tid <> th.tid then begin
             fire_sched st
               (Hooks.Switch
                  {
                    prev_tid = (if !last_tid < 0 then None else Some !last_tid);
                    next_tid = th.tid;
                    time = th.clock;
                  });
             last_tid := th.tid
           end;
           ( try step st th with Gated -> ())
         | None ->
           if any_blocked st then outcome := Some Stuck
           else outcome := Some Completed
     done
   with Sim_failure ->
     match st.failure with
     | Some (failure, time_ns) -> outcome := Some (Failed { failure; time_ns })
     | None -> assert false);
  let outcome =
    match !outcome with Some o -> o | None -> assert false
  in
  {
    outcome;
    final_time_ns = final_time st;
    steps = st.steps;
    output = List.rev st.output_rev;
    threads_spawned = st.next_tid;
  }
