(* Lowering of a laid-out module into the dense form the interpreter
   runs.  Everything the tree-walking interpreter used to look up per
   step or per run is resolved once here; whatever the lookup would have
   raised is captured and re-raised at the point of use, so a malformed
   module fails exactly where it failed before. *)

module Dynbuf = Snorlax_util.Dynbuf

type intrinsic =
  | Malloc
  | Free
  | Mutex_init
  | Mutex_lock
  | Mutex_unlock
  | Cond_init
  | Cond_wait
  | Cond_signal
  | Cond_broadcast
  | Thread_create
  | Thread_join
  | Work
  | Io_delay
  | Assert_true
  | Print_i64
  | Rand

type operand =
  | Slot of int * string
  | Const of int
  | Fault of exn

type op =
  | Alloca of { dst : int; size : int }
  | Load of { dst : int; ptr : operand; size : int }
  | Store of { value : operand; ptr : operand; size : int }
  | Binop of { dst : int; op : Lir.Instr.binop; lhs : operand; rhs : operand }
  | Icmp of { dst : int; cmp : Lir.Instr.icmp; lhs : operand; rhs : operand }
  | Gep of { dst : int; base : operand; offset : int }
  | Index of { dst : int; base : operand; idx : operand; esize : int }
  | Cast of { dst : int; src : operand }
  | Intrinsic of { dst : int; tag : intrinsic; args : operand array }
  | Call of { dst : int; callee : int; args : operand array }
  | Br of int
  | Cond_br of { cond : operand; then_ : int; else_ : int }
  | Ret of operand option
  | Trap of exn
  | Unreachable

type fn = {
  func : Lir.Func.t;
  code : op array;
  instrs : Lir.Instr.t array;
  nslots : int;
  param_slots : int array;
  entry_pc : int;
  entry_error : exn option;
}

type t = {
  fns : fn array;
  by_name : (string, int) Hashtbl.t;
  by_entry_pc : (int, int) Hashtbl.t;
  globals : Memory.globals;
}

let no_slot = -1

let intrinsic_tags =
  let open Lir.Intrinsics in
  let h = Hashtbl.create 32 in
  List.iter
    (fun (name, tag) -> Hashtbl.replace h name tag)
    [
      (malloc, Malloc); (free, Free); (mutex_init, Mutex_init);
      (mutex_lock, Mutex_lock); (mutex_unlock, Mutex_unlock);
      (cond_init, Cond_init); (cond_wait, Cond_wait);
      (cond_signal, Cond_signal); (cond_broadcast, Cond_broadcast);
      (thread_create, Thread_create); (thread_join, Thread_join);
      (work, Work); (io_delay, Io_delay); (assert_true, Assert_true);
      (print_i64, Print_i64); (rand, Rand);
    ];
  h

let capture f = match f () with v -> Ok v | exception e -> Error e

let entry_pc_of m (f : Lir.Func.t) =
  Lir.Irmod.block_start_pc m ~fname:f.Lir.Func.fname
    ~label:(Lir.Func.entry f).Lir.Block.label

(* Register ids come from one module-wide counter, so a flat table
   indexed by rid maps registers to slots.  [owner] tags each entry with
   the lowering that assigned it (a per-domain counter), which resets the
   table per function without clearing it.  The table is kept per domain
   and reused, so lowering allocates no rid-sized arrays; it holds only
   ints, so it pins nothing of a module. *)
type rid_map = {
  mutable slot : int array;
  mutable owner : int array;
  mutable stamp : int;
}

let rid_maps : rid_map Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { slot = [||]; owner = [||]; stamp = 0 })

let lower_func m ~globals ~fn_index ~entry ~size_of ~self (f : Lir.Func.t) =
  let size ty = match size_of ty with Ok n -> n | Error e -> raise e in
  let rids = Domain.DLS.get rid_maps in
  rids.stamp <- rids.stamp + 1;
  let stamp = rids.stamp in
  (* One shared [Slot] operand per slot, in slot order. *)
  let slot_operands = Dynbuf.create () in
  let slot (r : Lir.Value.reg) =
    let rid = r.Lir.Value.rid in
    if rid >= Array.length rids.slot then begin
      let len = max (rid + 1) (2 * Array.length rids.slot) in
      let grow a fill = Array.append a (Array.make (len - Array.length a) fill) in
      rids.slot <- grow rids.slot 0;
      rids.owner <- grow rids.owner (-1)
    end;
    if rids.owner.(rid) <> stamp then begin
      let s = Dynbuf.length slot_operands in
      rids.owner.(rid) <- stamp;
      rids.slot.(rid) <- s;
      Dynbuf.push slot_operands (Slot (s, r.Lir.Value.rname))
    end;
    rids.slot.(rid)
  in
  let param_slots = Array.of_list (List.map slot f.Lir.Func.params) in
  let operand (v : Lir.Value.t) =
    match v with
    | Lir.Value.Reg r -> Dynbuf.get slot_operands (slot r)
    | Lir.Value.Imm (v, _) -> Const (Int64.to_int v)
    | Lir.Value.Null _ -> Const 0
    | Lir.Value.Global g -> (
      match Memory.global_addr globals g with
      | a -> Const a
      | exception e -> Fault e)
    | Lir.Value.Fn_ref name -> (
      match fn_index name with
      | None -> Fault Not_found
      | Some k -> ( match entry k with Ok pc -> Const pc | Error e -> Fault e))
  in
  let dst_slot = function Some r -> slot r | None -> no_slot in
  let ty_of v = Lir.Value.ty_of ~globals:(Lir.Irmod.global_ty m) v in
  (* Block start indices in the flat array; a label resolves to the first
     block carrying it, as [Func.find_block] does. *)
  let starts = Hashtbl.create 16 in
  let n = ref 0 in
  List.iter
    (fun (b : Lir.Block.t) ->
      if not (Hashtbl.mem starts b.Lir.Block.label) then
        Hashtbl.add starts b.Lir.Block.label !n;
      n := !n + List.length b.Lir.Block.instrs)
    f.Lir.Func.blocks;
  let target label =
    match Hashtbl.find_opt starts label with Some i -> i | None -> -1
  in
  let access_size ptr =
    match ty_of ptr with
    | Lir.Ty.Ptr t -> ( match size_of t with Ok n -> n | Error _ -> 8)
    | _ -> 8
    | exception _ -> 8
  in
  let lower (i : Lir.Instr.t) =
    match i.Lir.Instr.kind with
    | Lir.Instr.Alloca { dst; ty } -> (
      match size_of ty with
      | Ok size -> Alloca { dst = slot dst; size }
      | Error exn -> Trap exn)
    | Lir.Instr.Load { dst; ptr } ->
      Load { dst = slot dst; ptr = operand ptr; size = access_size ptr }
    | Lir.Instr.Store { value; ptr } ->
      Store { value = operand value; ptr = operand ptr; size = access_size ptr }
    | Lir.Instr.Binop { dst; op; lhs; rhs } ->
      Binop { dst = slot dst; op; lhs = operand lhs; rhs = operand rhs }
    | Lir.Instr.Icmp { dst; cmp; lhs; rhs } ->
      Icmp { dst = slot dst; cmp; lhs = operand lhs; rhs = operand rhs }
    | Lir.Instr.Gep { dst; base; field } -> (
      let offset () =
        let sname =
          match ty_of base with
          | Lir.Ty.Ptr (Lir.Ty.Struct s) -> s
          | _ -> failwith "Interp: gep base not a struct pointer"
        in
        let rec go k = function
          | [] -> invalid_arg "Interp.field_offset"
          | t :: rest ->
            if k = field then 0 else size t + go (k + 1) rest
        in
        go 0 (Lir.Irmod.struct_fields m sname)
      in
      match capture offset with
      | Ok offset -> Gep { dst = slot dst; base = operand base; offset }
      | Error exn -> Trap exn)
    | Lir.Instr.Index { dst; base; idx } -> (
      let esize () =
        let elem =
          match ty_of base with
          | Lir.Ty.Ptr (Lir.Ty.Array (t, _)) -> t
          | Lir.Ty.Ptr t -> t
          | _ -> failwith "Interp: index base not a pointer"
        in
        size elem
      in
      match capture esize with
      | Ok esize ->
        Index { dst = slot dst; base = operand base; idx = operand idx; esize }
      | Error exn -> Trap exn)
    | Lir.Instr.Cast { dst; src } -> Cast { dst = slot dst; src = operand src }
    | Lir.Instr.Call { dst; callee; args } -> (
      let args = Array.of_list (List.map operand args) in
      let dst = dst_slot dst in
      match Hashtbl.find_opt intrinsic_tags callee with
      | Some tag -> Intrinsic { dst; tag; args }
      | None -> (
        if Lir.Intrinsics.is_intrinsic callee then
          Trap (Failure ("Interp: unknown intrinsic " ^ callee))
        else
          match fn_index callee with
          | Some callee -> Call { dst; callee; args }
          | None -> Trap Not_found))
    | Lir.Instr.Br label -> Br (target label)
    | Lir.Instr.Cond_br { cond; then_; else_ } ->
      Cond_br { cond = operand cond; then_ = target then_; else_ = target else_ }
    | Lir.Instr.Ret v -> Ret (Option.map operand v)
    | Lir.Instr.Unreachable -> Unreachable
  in
  let instrs =
    Array.of_list (List.concat_map (fun b -> b.Lir.Block.instrs) f.Lir.Func.blocks)
  in
  let code = Array.map lower instrs in
  let entry_pc, entry_error =
    match entry self with Ok pc -> (pc, None) | Error e -> (-1, Some e)
  in
  { func = f; code; instrs; nslots = Dynbuf.length slot_operands; param_slots;
    entry_pc; entry_error }

let build m =
  let funcs = Array.of_list (Lir.Irmod.funcs m) in
  (* [Irmod.find_func] answers with the most recently added function of a
     name; replacing in definition order keeps the same winner. *)
  let by_name = Hashtbl.create (Array.length funcs) in
  Array.iteri (fun k (f : Lir.Func.t) -> Hashtbl.replace by_name f.Lir.Func.fname k) funcs;
  let globals = Memory.layout_globals m in
  let entries = Array.map (fun f -> capture (fun () -> entry_pc_of m f)) funcs in
  let sizes = Hashtbl.create 64 in
  let size_of (ty : Lir.Ty.t) =
    match ty with
    | Lir.Ty.I1 | Lir.Ty.I8 -> Ok 1
    | Lir.Ty.I32 -> Ok 4
    | Lir.Ty.I64 | Lir.Ty.Ptr _ -> Ok 8
    | Lir.Ty.Void | Lir.Ty.Fn | Lir.Ty.Struct _ | Lir.Ty.Array _ -> (
      match Hashtbl.find_opt sizes ty with
      | Some r -> r
      | None ->
        let r = capture (fun () -> Lir.Irmod.size_of m ty) in
        Hashtbl.add sizes ty r;
        r)
  in
  let fns =
    Array.mapi
      (fun self ->
        lower_func m ~globals ~fn_index:(Hashtbl.find_opt by_name)
          ~entry:(fun k -> entries.(k)) ~size_of ~self)
      funcs
  in
  let by_entry_pc = Hashtbl.create (Array.length funcs) in
  Array.iteri
    (fun k fn -> if fn.func.Lir.Func.blocks <> [] then Hashtbl.replace by_entry_pc fn.entry_pc k)
    fns;
  { fns; by_name; by_entry_pc; globals }

(* A few entries per domain: a run alternates between a bug's pristine
   build and its patched candidates. *)
let cache : t Lir.Module_cache.t = Lir.Module_cache.create ~slots:4

let of_module m = Lir.Module_cache.find_or_build cache m build
