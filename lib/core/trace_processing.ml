(* [t_hi = None] mirrors the decoder's open upper bound: the trace ended
   before a later clock reading, so the event is unordered against any
   later event on another thread. *)
type event = {
  tid : int;
  seq : int;
  iid : int;
  pc : int;
  t_lo : int;
  t_hi : int option;
}

module Iset = Set.Make (Int)

type t = {
  executed : Iset.t;
  events : event array;
  events_by_iid : (int, event array) Hashtbl.t;
  lost_bytes : int;
  desynced_tids : int list;
}

let process m ~config ?(fail_tails = []) ?cache traces =
  let cache = match cache with Some c -> c | None -> Pt.Decode_cache.shared in
  let use_cache = Pt.Decode_cache.enabled cache in
  (* Tails indexed by tid; first entry per tid wins, matching the old
     List.find_opt scan without the O(traces * tails) cost. *)
  let tails = Hashtbl.create 8 in
  List.iter
    (fun (tid, stop_pc, t_hi) ->
      if not (Hashtbl.mem tails tid) then Hashtbl.add tails tid (stop_pc, t_hi))
    fail_tails;
  let traces_a = Array.of_list traces in
  (* Each thread's snapshot decodes on its own, through the memo cache
     when enabled.  Timing each actual invocation keeps pt/decode_ns and
     pt/decode_calls true decoder-work figures that cache hits do not
     inflate. *)
  let rs =
    Array.map
      (fun (tid, snapshot) ->
        let tail_stop = Hashtbl.find_opt tails tid in
        let decode () =
          Obs.Scope.timed "pt/decode_ns" (fun () ->
              Pt.Decoder.decode m ~config ?tail_stop snapshot)
        in
        if not use_cache then decode ()
        else
          let k = Pt.Decode_cache.key m ~config ?tail_stop snapshot in
          match Pt.Decode_cache.find cache k with
          | Some r -> r
          | None ->
            let r = decode () in
            Pt.Decode_cache.add cache k r;
            r)
      traces_a
  in
  let lost = ref 0 in
  let desynced = ref [] in
  let n_ev = ref 0 in
  Array.iteri
    (fun i (tid, _) ->
      let r = rs.(i) in
      lost := !lost + r.Pt.Decoder.lost_bytes;
      if r.Pt.Decoder.desynced then desynced := tid :: !desynced;
      n_ev := !n_ev + Array.length r.Pt.Decoder.steps)
    traces_a;
  let n_ev = !n_ev in
  let events =
    if n_ev = 0 then [||]
    else begin
      let first =
        let rec find i =
          let steps = rs.(i).Pt.Decoder.steps in
          if Array.length steps > 0 then (fst traces_a.(i), steps.(0))
          else find (i + 1)
        in
        find 0
      in
      let dummy =
        let tid, s = first in
        {
          tid;
          seq = 0;
          iid = s.Pt.Decoder.iid;
          pc = s.Pt.Decoder.pc;
          t_lo = s.Pt.Decoder.t_lo;
          t_hi = s.Pt.Decoder.t_hi;
        }
      in
      let events = Array.make n_ev dummy in
      let k = ref 0 in
      Array.iteri
        (fun i (tid, _) ->
          let steps = rs.(i).Pt.Decoder.steps in
          for seq = 0 to Array.length steps - 1 do
            let s = Array.unsafe_get steps seq in
            Array.unsafe_set events !k
              {
                tid;
                seq;
                iid = s.Pt.Decoder.iid;
                pc = s.Pt.Decoder.pc;
                t_lo = s.Pt.Decoder.t_lo;
                t_hi = s.Pt.Decoder.t_hi;
              };
            incr k
          done)
        traces_a;
      events
    end
  in
  (* Group instances per static instruction with a counting sort over the
     dense iid space: iids are small consecutive ints, so two array
     passes replace a hash lookup per event.  Events order is preserved
     inside each group, so instances stay in per-thread order. *)
  let by_iid = Hashtbl.create 64 in
  let executed = ref Iset.empty in
  if n_ev > 0 then begin
    let max_iid = ref 0 in
    for i = 0 to n_ev - 1 do
      let iid = (Array.unsafe_get events i).iid in
      if iid > !max_iid then max_iid := iid
    done;
    let counts = Array.make (!max_iid + 1) 0 in
    for i = 0 to n_ev - 1 do
      let iid = (Array.unsafe_get events i).iid in
      Array.unsafe_set counts iid (Array.unsafe_get counts iid + 1)
    done;
    let slots = Array.make (!max_iid + 1) [||] in
    let dummy = events.(0) in
    for iid = 0 to !max_iid do
      if counts.(iid) > 0 then begin
        slots.(iid) <- Array.make counts.(iid) dummy;
        counts.(iid) <- 0;
        executed := Iset.add iid !executed
      end
    done;
    for i = 0 to n_ev - 1 do
      let e = Array.unsafe_get events i in
      let a = Array.unsafe_get slots e.iid in
      Array.unsafe_set a (Array.unsafe_get counts e.iid) e;
      Array.unsafe_set counts e.iid (Array.unsafe_get counts e.iid + 1)
    done;
    for iid = 0 to !max_iid do
      if Array.length slots.(iid) > 0 then Hashtbl.add by_iid iid slots.(iid)
    done
  end;
  {
    executed = !executed;
    events;
    events_by_iid = by_iid;
    lost_bytes = !lost;
    desynced_tids = !desynced;
  }

let executes_before a b =
  if a.tid = b.tid then a.seq < b.seq
  else match a.t_hi with Some hi -> hi < b.t_lo | None -> false

let instances_arr t ~iid =
  Option.value ~default:[||] (Hashtbl.find_opt t.events_by_iid iid)

let instances t ~iid = Array.to_list (instances_arr t ~iid)
