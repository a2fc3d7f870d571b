(* The frozen v1 trace decoder, kept out of the library as the
   differential oracle and the decode benchmark's sequential baseline.
   It is the original pipeline — [Packet.decode_stream] to a packet
   list, two-pass timestamping, then a walker that resolves every step
   through [Irmod] hashtable lookups — extended only to expand
   [Packet.Tnt_packed] runs into per-bit TNT before timestamping.  On any
   input, corrupt rings included, it must return results bit-identical
   to the production cursor walker, [Pt.Decoder.decode]. *)

module Dynbuf = Snorlax_util.Dynbuf
module Packet = Pt.Packet
module Config = Pt.Config

type step = Pt.Decoder.step = { pc : int; iid : int; t_lo : int; t_hi : int option }

type result = Pt.Decoder.result = {
  steps : step array;
  lost_bytes : int;
  desynced : bool;
  thread_ended : bool;
}

let mtc_period config =
  match config.Config.timing with
  | Config.Cyc_and_mtc { mtc_period_ns } | Config.Mtc_only { mtc_period_ns } ->
    mtc_period_ns
  | Config.No_timing -> 0

exception Desync of string
exception Thread_end

let max_replay_steps = 5_000_000

(* Pair every packet with the time interval the decoder can assign to it:
   [lo] is the clock after the last timing packet at or before it; [hi] is
   the first clock value known after it (the next timing packet), so an
   event stamped [lo, hi] genuinely happened inside that window even when
   timing packets are sparse (Mtc_only mode).  When an exact timing packet
   (CYC/TMA/PSB) directly precedes a control packet — the tracer emits
   them at the event itself — the event time is exact and hi = lo. *)
let timestamp_packets config packets =
  let period = mtc_period config in
  let arr = Array.of_list packets in
  let n = Array.length arr in
  let lo = Array.make n 0 in
  let exact = Array.make n false in
  let time = ref 0 in
  let abs_ctc = ref 0 in
  Array.iteri
    (fun i (p, _) ->
      (match p with
      | Packet.Psb { tsc } | Packet.Tma { tsc } ->
        time := tsc;
        if period > 0 then abs_ctc := tsc / period;
        exact.(i) <- true
      | Packet.Mtc { ctc } ->
        if period > 0 then begin
          (* Smallest absolute counter >= current with the given low byte. *)
          let base = !abs_ctc land lnot 0xff in
          let candidate = base lor ctc in
          let abs =
            if candidate >= !abs_ctc then candidate else candidate + 0x100
          in
          abs_ctc := abs;
          time := max !time (abs * period)
        end
      | Packet.Cyc { delta } ->
        time := !time + delta;
        exact.(i) <- true
      | Packet.Fup _ | Packet.Tip _ | Packet.Tip_end | Packet.Tnt _
      | Packet.Tnt_packed _ -> ());
      lo.(i) <- !time)
    arr;
  let is_timing i =
    match fst arr.(i) with
    | Packet.Psb _ | Packet.Tma _ | Packet.Mtc _ | Packet.Cyc _ -> true
    | Packet.Fup _ | Packet.Tip _ | Packet.Tip_end | Packet.Tnt _
    | Packet.Tnt_packed _ -> false
  in
  let hi = Array.make n None in
  let next_known = ref None in
  for i = n - 1 downto 0 do
    hi.(i) <-
      (if i > 0 && is_timing (i - 1) && exact.(i - 1) then Some lo.(i)
       else !next_known);
    if is_timing i then next_known := Some lo.(i)
  done;
  List.init n (fun i -> (fst arr.(i), lo.(i), hi.(i)))

type walker = {
  m : Lir.Irmod.t;
  mutable cur_pc : int;
  mutable t_lo : int;
  acc : step Dynbuf.t;
}

let emit w ~t_hi =
  let i = Lir.Irmod.instr_at_pc w.m w.cur_pc in
  Dynbuf.push w.acc { pc = w.cur_pc; iid = i.Lir.Instr.iid; t_lo = w.t_lo; t_hi };
  if Dynbuf.length w.acc > max_replay_steps then
    raise (Desync "replay step limit")

let block_entry_pc w (f : Lir.Func.t) label =
  Lir.Irmod.block_start_pc w.m ~fname:f.Lir.Func.fname ~label

(* Advance through branch-free instructions, emitting each with the current
   interval, until an instruction that needs a control packet to resolve. *)
let rec walk_until_control w ~t_hi =
  let i = Lir.Irmod.instr_at_pc w.m w.cur_pc in
  match i.Lir.Instr.kind with
  | Lir.Instr.Cond_br _ | Lir.Instr.Ret _ -> ()
  | Lir.Instr.Call { callee; _ } when Lir.Intrinsics.is_intrinsic callee ->
    (* Library calls return via a traced indirect branch (TIP). *)
    ()
  | Lir.Instr.Br label ->
    emit w ~t_hi;
    let f, _ = Lir.Irmod.location_of_iid w.m i.Lir.Instr.iid in
    w.cur_pc <- block_entry_pc w f label;
    walk_until_control w ~t_hi
  | Lir.Instr.Call { callee; _ } ->
    emit w ~t_hi;
    let target = Lir.Irmod.find_func w.m callee in
    w.cur_pc <-
      block_entry_pc w target (Lir.Func.entry target).Lir.Block.label;
    walk_until_control w ~t_hi
  | Lir.Instr.Unreachable -> raise (Desync "walked into unreachable")
  | Lir.Instr.Alloca _ | Lir.Instr.Load _ | Lir.Instr.Store _
  | Lir.Instr.Binop _ | Lir.Instr.Icmp _ | Lir.Instr.Gep _ | Lir.Instr.Index _
  | Lir.Instr.Cast _ ->
    emit w ~t_hi;
    w.cur_pc <- w.cur_pc + 4;
    walk_until_control w ~t_hi

let consume_control w packet ~t_lo_ev ~t_hi_ev =
  walk_until_control w ~t_hi:t_hi_ev;
  let i = Lir.Irmod.instr_at_pc w.m w.cur_pc in
  match i.Lir.Instr.kind, packet with
  | Lir.Instr.Call { callee; _ }, Packet.Tip { pc }
    when Lir.Intrinsics.is_intrinsic callee ->
    emit w ~t_hi:t_hi_ev;
    w.cur_pc <- pc;
    w.t_lo <- t_lo_ev
  | Lir.Instr.Cond_br { then_; else_; _ }, Packet.Tnt taken ->
    emit w ~t_hi:t_hi_ev;
    let f, _ = Lir.Irmod.location_of_iid w.m i.Lir.Instr.iid in
    w.cur_pc <- block_entry_pc w f (if taken then then_ else else_);
    w.t_lo <- t_lo_ev
  | Lir.Instr.Ret _, Packet.Tip { pc } ->
    emit w ~t_hi:t_hi_ev;
    w.cur_pc <- pc;
    w.t_lo <- t_lo_ev
  | Lir.Instr.Ret _, Packet.Tip_end ->
    emit w ~t_hi:t_hi_ev;
    w.t_lo <- t_lo_ev;
    raise Thread_end
  | _, _ ->
    raise
      (Desync
         (Printf.sprintf "control mismatch at pc 0x%x for %s" w.cur_pc
            (Packet.to_string packet)))

(* After the last packet, replay branch-free code up to the failing pc. *)
let walk_tail w ~stop_pc ~t_hi =
  let rec go () =
    if w.cur_pc = stop_pc then emit w ~t_hi
    else
      let i = Lir.Irmod.instr_at_pc w.m w.cur_pc in
      match i.Lir.Instr.kind with
      | Lir.Instr.Cond_br _ | Lir.Instr.Ret _ | Lir.Instr.Unreachable -> ()
      | Lir.Instr.Br label ->
        emit w ~t_hi;
        let f, _ = Lir.Irmod.location_of_iid w.m i.Lir.Instr.iid in
        w.cur_pc <- block_entry_pc w f label;
        go ()
      | Lir.Instr.Call { callee; _ }
        when not (Lir.Intrinsics.is_intrinsic callee) ->
        emit w ~t_hi;
        let target = Lir.Irmod.find_func w.m callee in
        w.cur_pc <-
          block_entry_pc w target (Lir.Func.entry target).Lir.Block.label;
        go ()
      | Lir.Instr.Alloca _ | Lir.Instr.Load _ | Lir.Instr.Store _
      | Lir.Instr.Binop _ | Lir.Instr.Icmp _ | Lir.Instr.Gep _
      | Lir.Instr.Index _ | Lir.Instr.Cast _ | Lir.Instr.Call _ ->
        emit w ~t_hi;
        w.cur_pc <- w.cur_pc + 4;
        go ()
  in
  go ()

(* The packed multi-bit TNT decodes as if it were the per-bit run it
   compresses: same stream position for every bit, so the first bit (and
   only the first) can inherit an exactly-stamped window from a directly
   preceding timing packet — exactly what consecutive v1 TNT packets got. *)
let expand_packed packets =
  List.concat_map
    (fun (p, pos) ->
      match p with
      | Packet.Tnt_packed { bits; count } ->
        List.init count (fun j -> (Packet.Tnt ((bits lsr j) land 1 = 1), pos))
      | _ -> [ (p, pos) ])
    packets

let decode m ~config ?tail_stop snapshot =
  Lir.Irmod.layout m;
  match Packet.scan_psb snapshot ~pos:0 with
  | None ->
    {
      steps = [||];
      lost_bytes = Bytes.length snapshot;
      desynced = false;
      thread_ended = false;
    }
  | Some sync_pos ->
    let packets =
      timestamp_packets config
        (expand_packed (Packet.decode_stream snapshot ~pos:sync_pos))
    in
    let w = { m; cur_pc = -1; t_lo = 0; acc = Dynbuf.create () } in
    let desynced = ref false in
    let ended = ref false in
    (try
       let feed (p, t_lo_ev, t_hi_ev) =
         match p with
         | Packet.Fup { pc } ->
           if w.cur_pc = -1 then begin
             w.cur_pc <- pc;
             w.t_lo <- t_lo_ev
           end
         | Packet.Psb _ | Packet.Tma _ | Packet.Mtc _ | Packet.Cyc _
         | Packet.Tnt_packed _ -> ()
         | Packet.Tnt _ | Packet.Tip _ | Packet.Tip_end ->
           if w.cur_pc <> -1 then consume_control w p ~t_lo_ev ~t_hi_ev
       in
       List.iter feed packets;
       match tail_stop with
       | Some (stop_pc, t_hi) when w.cur_pc <> -1 ->
         (* The tail ends at the failure, whose time is known. *)
         walk_tail w ~stop_pc ~t_hi:(Some t_hi)
       | Some _ | None -> ()
     with
    | Desync _ -> desynced := true
    | Thread_end -> ended := true
    (* A corrupted TIP/FUP packet can carry a pc that maps to no
       instruction; Irmod lookups raise Not_found.  Untrusted ring
       bytes must degrade to a desync, not an escape. *)
    | Not_found -> desynced := true);
    {
      steps = Dynbuf.to_array w.acc;
      lost_bytes = sync_pos;
      desynced = !desynced;
      thread_ended = !ended;
    }

(* Every (snapshot, tail stop) pair trace processing decodes for these
   reports, in report order: each thread's tail is the first
   [Diagnosis] fail-tail entry naming it, exactly as
   [Trace_processing.process] resolves them. *)
let report_inputs m ~failing ~successful =
  let of_traces tails traces =
    List.map
      (fun (tid, snapshot) ->
        ( snapshot,
          List.find_map
            (fun (t, stop_pc, t_hi) ->
              if t = tid then Some (stop_pc, t_hi) else None)
            tails ))
      traces
  in
  List.concat_map
    (fun (r : Snorlax_core.Report.failing_report) ->
      of_traces (Snorlax_core.Diagnosis.failing_tails m r) r.traces)
    failing
  @ List.concat_map
      (fun (s : Snorlax_core.Report.success_report) ->
        of_traces (Snorlax_core.Diagnosis.successful_tails s) s.s_traces)
      successful
