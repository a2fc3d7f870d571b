(* Surgical in-place edits of built modules: the patch synthesizer splices
   lock/signal scaffolding around existing instructions without rebuilding
   the program, so every untouched instruction keeps its iid (diagnoses,
   ground truth and failure signatures all key on iids).  Every mutator
   invalidates the module layout; pcs and lookup tables rebuild lazily. *)

(* A scan of the current bodies, not [Irmod.location_of_iid]: every edit
   leaves the layout stale, and a lookup through it would rebuild the
   whole layout once per edit. *)
let locate m ~iid =
  let rec in_block (b : Block.t) n = function
    | [] -> None
    | (i : Instr.t) :: rest ->
      if i.Instr.iid = iid then Some (b, n) else in_block b (n + 1) rest
  in
  let rec in_blocks = function
    | [] -> None
    | (b : Block.t) :: rest -> (
      match in_block b 0 b.Block.instrs with
      | Some _ as hit -> hit
      | None -> in_blocks rest)
  in
  let rec in_funcs = function
    | [] -> raise Not_found
    | (f : Func.t) :: rest -> (
      match in_blocks f.Func.blocks with
      | Some (b, n) -> (f, b, n)
      | None -> in_funcs rest)
  in
  in_funcs (Irmod.funcs m)

let mint m kinds =
  List.map (fun k -> Instr.make ~iid:(Irmod.fresh_iid m) k) kinds

let splice_at (b : Block.t) at instrs =
  let rec go n = function
    | rest when n = 0 -> instrs @ rest
    | [] -> invalid_arg "Rewrite.splice_at: index out of range"
    | i :: rest -> i :: go (n - 1) rest
  in
  b.Block.instrs <- go at b.Block.instrs

let insert_before m ~iid kinds =
  let _, b, at = locate m ~iid in
  let instrs = mint m kinds in
  splice_at b at instrs;
  Irmod.invalidate_layout m;
  instrs

let insert_after m ~iid kinds =
  let _, b, at = locate m ~iid in
  let target = List.nth b.Block.instrs at in
  if Instr.is_terminator target then
    invalid_arg "Rewrite.insert_after: cannot insert after a terminator";
  let instrs = mint m kinds in
  splice_at b (at + 1) instrs;
  Irmod.invalidate_layout m;
  instrs

let append_block m (f : Func.t) ~label kinds =
  if List.exists (fun b -> String.equal b.Block.label label) f.Func.blocks then
    invalid_arg ("Rewrite.append_block: duplicate label " ^ label);
  let b = Block.create ~label in
  b.Block.instrs <- mint m kinds;
  (match List.rev b.Block.instrs with
  | last :: _ when Instr.is_terminator last -> ()
  | _ -> invalid_arg "Rewrite.append_block: block must end in a terminator");
  f.Func.blocks <- f.Func.blocks @ [ b ];
  Irmod.invalidate_layout m;
  b

let split_before m ~iid ~label =
  let f, b, at = locate m ~iid in
  if List.exists (fun b -> String.equal b.Block.label label) f.Func.blocks then
    invalid_arg ("Rewrite.split_before: duplicate label " ^ label);
  let rec take n = function
    | rest when n = 0 -> ([], rest)
    | [] -> invalid_arg "Rewrite.split_before: index out of range"
    | i :: rest ->
      let pre, post = take (n - 1) rest in
      (i :: pre, post)
  in
  let prefix, suffix = take at b.Block.instrs in
  let cont = Block.create ~label in
  cont.Block.instrs <- suffix;
  (* The new block keeps its position in the def-before-use block order by
     going right after the block it came from: registers defined in the
     prefix stay "earlier" than their uses in the suffix. *)
  let rec place = function
    | [] -> invalid_arg "Rewrite.split_before: block not in function"
    | x :: rest ->
      if x == b then x :: cont :: rest else x :: place rest
  in
  f.Func.blocks <- place f.Func.blocks;
  b.Block.instrs <-
    prefix @ mint m [ Instr.Br label ];
  Irmod.invalidate_layout m;
  (b, cont)

let retarget m (b : Block.t) ~from_ ~to_ =
  match List.rev b.Block.instrs with
  | [] -> invalid_arg "Rewrite.retarget: empty block"
  | last :: rev_prefix ->
    let sub l = if String.equal l from_ then to_ else l in
    let kind =
      match last.Instr.kind with
      | Instr.Br l -> Instr.Br (sub l)
      | Instr.Cond_br { cond; then_; else_ } ->
        Instr.Cond_br { cond; then_ = sub then_; else_ = sub else_ }
      | _ -> invalid_arg "Rewrite.retarget: terminator has no label targets"
    in
    (* Same iid: the branch is the same program point, only its target
       moved; failure signatures and ground truth stay comparable. *)
    b.Block.instrs <-
      List.rev (Instr.make ~iid:last.Instr.iid kind :: rev_prefix);
    Irmod.invalidate_layout m

let fresh_label (f : Func.t) ~base =
  let taken l =
    List.exists (fun b -> String.equal b.Block.label l) f.Func.blocks
  in
  if not (taken base) then base
  else begin
    let k = ref 1 in
    while taken (Printf.sprintf "%s%d" base !k) do
      incr k
    done;
    Printf.sprintf "%s%d" base !k
  end

let fresh_global m ~base ty =
  let taken g =
    match Irmod.global_ty m g with _ -> true | exception Not_found -> false
  in
  let name =
    if not (taken base) then base
    else begin
      let k = ref 1 in
      while taken (Printf.sprintf "%s%d" base !k) do
        incr k
      done;
      Printf.sprintf "%s%d" base !k
    end
  in
  Irmod.declare_global m name ty;
  name
