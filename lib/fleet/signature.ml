module Report = Snorlax_core.Report

type t = {
  bug_id : string;
  kind : string;
  failing_pc : int;
  block_stack : int list;
}

let stack_depth = 8

(* The last [stack_depth] block entries of one thread's decoded steps.
   A step enters a block when its pc is its block's start pc. *)
let block_stack_of_steps m steps =
  let entries =
    List.filter_map
      (fun (s : Pt.Decoder.step) ->
        match Lir.Irmod.block_at_pc m s.Pt.Decoder.pc with
        | f, b ->
          let start =
            Lir.Irmod.block_start_pc m ~fname:f.Lir.Func.fname
              ~label:b.Lir.Block.label
          in
          if start = s.Pt.Decoder.pc then Some s.Pt.Decoder.pc else None
        | exception _ -> None)
      (Array.to_list steps)
  in
  let n = List.length entries in
  if n <= stack_depth then entries
  else List.filteri (fun i _ -> i >= n - stack_depth) entries

(* Both the stream router (tracker-side sharding) and the shard's own
   collector compute the signature of the same packet; memoizing the ring
   decode through the shared cache makes the second computation free. *)
let decode_memo m ~config ring =
  let cache = Pt.Decode_cache.shared in
  if not (Pt.Decode_cache.enabled cache) then Pt.Decoder.decode m ~config ring
  else
    let k = Pt.Decode_cache.key m ~config ring in
    match Pt.Decode_cache.find cache k with
    | Some decoded -> decoded
    | None ->
      let decoded = Pt.Decoder.decode m ~config ring in
      Pt.Decode_cache.add cache k decoded;
      decoded

let of_failing m ~config ~bug_id (r : Report.failing_report) =
  match Lir.Irmod.instr_by_iid m (Report.failing_anchor_iid r) with
  | exception _ ->
    Error
      (Printf.sprintf "report for %s references an unknown instruction"
         bug_id)
  | i ->
    let block_stack =
      match List.assoc_opt r.Report.failing_tid r.Report.traces with
      | None -> []
      | Some ring -> (
        match decode_memo m ~config ring with
        | decoded -> block_stack_of_steps m decoded.Pt.Decoder.steps
        | exception _ -> [])
    in
    Ok
      {
        bug_id;
        kind = Report.kind_label r;
        failing_pc = i.Lir.Instr.pc;
        block_stack;
      }

let key s =
  Printf.sprintf "%s|%s|%d|%s" s.bug_id s.kind s.failing_pc
    (String.concat ">" (List.map string_of_int s.block_stack))

(* The whole retained stack: [key] minus the bug id, so two buckets of
   one bug never print alike. *)
let to_string s =
  let via =
    match s.block_stack with
    | [] -> ""
    | pcs -> " via " ^ String.concat ">" (List.map (Printf.sprintf "0x%x") pcs)
  in
  Printf.sprintf "%s@0x%x%s" s.kind s.failing_pc via
