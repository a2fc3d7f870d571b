(** In-place rewrites of built modules, for patch synthesis.

    The fix pipeline diagnoses one build of a bug program and then patches
    a {e fresh} build of the same program (builds are deterministic, so
    iids line up).  These helpers splice new instructions around existing
    ones while leaving every original instruction — and hence every iid a
    diagnosis or failure signature refers to — intact.  Each mutator calls
    {!Irmod.invalidate_layout}; pcs and lookup tables rebuild on the next
    use. *)

val locate : Irmod.t -> iid:int -> Func.t * Block.t * int
(** Enclosing function, block and in-block index of an instruction.
    Reads the current bodies and never forces a relayout.  Raises
    [Not_found] for an iid the module does not contain. *)

val insert_before : Irmod.t -> iid:int -> Instr.kind list -> Instr.t list
(** Splice new instructions (minted with fresh iids, in order)
    immediately before the given instruction; returns them. *)

val insert_after : Irmod.t -> iid:int -> Instr.kind list -> Instr.t list
(** Splice immediately after the given instruction.  Raises
    [Invalid_argument] when the target is a terminator. *)

val append_block :
  Irmod.t -> Func.t -> label:Instr.label -> Instr.kind list -> Block.t
(** Add a sealed block (the kind list must end in a terminator) at the end
    of the function's block list. *)

val split_before : Irmod.t -> iid:int -> label:Instr.label -> Block.t * Block.t
(** Split the instruction's block in two right before it: the original
    block keeps the prefix and branches to [label], the new block (placed
    directly after it in block order) carries the instruction, the rest of
    the suffix and the original terminator.  Returns (prefix block,
    continuation block). *)

val retarget : Irmod.t -> Block.t -> from_:Instr.label -> to_:Instr.label -> unit
(** Rewrite the block's terminator, substituting one target label for
    another (the terminator keeps its iid). *)

val fresh_label : Func.t -> base:string -> Instr.label
(** [base], or [base<k>] when taken. *)

val fresh_global : Irmod.t -> base:string -> Ty.t -> string
(** Declare (and return the name of) a new zero-initialized global,
    uniquified against existing globals. *)
