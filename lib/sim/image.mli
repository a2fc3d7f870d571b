(** The run image: a laid-out module lowered once into the dense form
    {!Interp} executes.

    Each function becomes a flat instruction array (blocks concatenated in
    order) with branch and direct-call targets resolved to indices;
    registers become slots of a per-frame [int array]; GEP offsets, index
    element sizes, access sizes, global addresses and function entry pcs
    are precomputed; intrinsic calls carry a tag.  A lookup that would
    have failed at run time is kept as a value that raises the same
    exception at the same point ({!Fault}, {!Trap}), so malformed modules
    fail exactly as before.

    An image is built eagerly and never written afterwards; it is cached
    per domain by {!Lir.Module_cache}, so a rewrite (through the layout
    generation bump) yields a fresh one and a dead module takes its image
    with it. *)

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
  | Slot of int * string  (** register slot, and the name an undefined read reports *)
  | Const of int  (** immediate, null, global address or function entry pc *)
  | Fault of exn  (** an unresolvable global or function: raises when read *)

type op =
  | Alloca of { dst : int; size : int }
  | Load of { dst : int; ptr : operand; size : int }
  | Store of { value : operand; ptr : operand; size : int }
      (** [size] is the access extent reported to observers *)
  | Binop of { dst : int; op : Lir.Instr.binop; lhs : operand; rhs : operand }
  | Icmp of { dst : int; cmp : Lir.Instr.icmp; lhs : operand; rhs : operand }
  | Gep of { dst : int; base : operand; offset : int }
  | Index of { dst : int; base : operand; idx : operand; esize : int }
  | Cast of { dst : int; src : operand }
  | Intrinsic of { dst : int; tag : intrinsic; args : operand array }
  | Call of { dst : int; callee : int; args : operand array }
      (** [callee] indexes {!t.fns}; [dst] may be {!no_slot} *)
  | Br of int  (** target index, or -1 for an unknown label *)
  | Cond_br of { cond : operand; then_ : int; else_ : int }
  | Ret of operand option
  | Trap of exn
      (** charge the instruction's cost, then raise: a lookup the
          instruction needs failed *)
  | Unreachable

type fn = {
  func : Lir.Func.t;
  code : op array;
  instrs : Lir.Instr.t array;
      (** the module's own instructions, parallel to [code]: hooks see
          them by physical identity *)
  nslots : int;
  param_slots : int array;
  entry_pc : int;
  entry_error : exn option;  (** raised on entry when the function has no body *)
}

type t = {
  fns : fn array;  (** in definition order *)
  by_name : (string, int) Hashtbl.t;
      (** the most recently added function of each name, as
          {!Lir.Irmod.find_func} answers *)
  by_entry_pc : (int, int) Hashtbl.t;  (** functions with a body, by entry pc *)
  globals : Memory.globals;
}

val no_slot : int
(** The [dst] of a call whose result is discarded. *)

val of_module : Lir.Irmod.t -> t
(** Lay the module out and return its image, building it on a miss. *)
