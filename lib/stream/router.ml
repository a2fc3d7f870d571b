module Wire = Fleet.Wire
module Signature = Fleet.Signature
module Report = Snorlax_core.Report

(* A success report held back because no failing report of its bug has
   established a route yet; re-offered (oldest first) when one does. *)
type held = { h_arrival : float; h_trigger_pc : int; h_packet : bytes }

type t = {
  shards : Shard.t array;
  offer : int -> arrival:float -> bytes -> unit;
  modules : (string, Corpus.Bug.built) Hashtbl.t;
  (* bug id -> (watch_pcs, shard) routes, oldest first — mirroring the
     collector's oldest-bucket-wins success routing. *)
  routes : (string, (int list * int) list) Hashtbl.t;
  route_keys : (string, unit) Hashtbl.t;  (* signature keys already routed *)
  pending : (string, held list) Hashtbl.t;  (* newest first *)
  pending_cap : int;
  mutable pending_dropped : int;
  mutable malformed : int;
  mutable received : int;
}

let create ?(pending_cap = 64) ?offer shards modules =
  if Array.length shards = 0 then invalid_arg "Router.create: no shards";
  if pending_cap < 0 then invalid_arg "Router.create: pending_cap < 0";
  {
    shards;
    offer =
      (match offer with
      | Some f -> f
      | None -> fun idx ~arrival packet -> Shard.offer shards.(idx) ~arrival packet);
    modules;
    routes = Hashtbl.create 8;
    route_keys = Hashtbl.create 16;
    pending = Hashtbl.create 8;
    pending_cap;
    pending_dropped = 0;
    malformed = 0;
    received = 0;
  }

let received t = t.received
let malformed t = t.malformed
let pending_dropped t = t.pending_dropped

let pending_held t =
  Hashtbl.fold (fun _ held acc -> acc + List.length held) t.pending 0

(* The [modules] table is shared with every shard collector, so a
   scenario binary is built once per deployment. *)
let built_for t bug_id = Fleet.Collector.server_build t.modules bug_id

let shard_of_key t key = Hashtbl.hash key mod Array.length t.shards

let offer_to t idx ~arrival packet = t.offer idx ~arrival packet

let try_route_success t ~arrival ~bug_id ~trigger_pc packet =
  match Hashtbl.find_opt t.routes bug_id with
  | None -> false
  | Some entries -> (
    match
      List.find_opt (fun (pcs, _) -> List.mem trigger_pc pcs) entries
    with
    | Some (_, idx) ->
      offer_to t idx ~arrival packet;
      true
    | None -> false)

let hold_success t ~arrival ~bug_id ~trigger_pc packet =
  let held = Option.value ~default:[] (Hashtbl.find_opt t.pending bug_id) in
  let held = { h_arrival = arrival; h_trigger_pc = trigger_pc; h_packet = packet } :: held in
  let held =
    let n = List.length held in
    if n <= t.pending_cap then held
    else begin
      let evicted = n - t.pending_cap in
      t.pending_dropped <- t.pending_dropped + evicted;
      Obs.Scope.count "stream/tracker_pending_dropped" evicted;
      Obs.Log.info "stream/tracker_pending_evict"
        ~fields:
          [ ("bug", Obs.Log.Str bug_id); ("evicted", Obs.Log.Int evicted) ];
      List.filteri (fun i _ -> i < t.pending_cap) held
    end
  in
  if held = [] then Hashtbl.remove t.pending bug_id
  else Hashtbl.replace t.pending bug_id held

(* A new route may claim successes that beat their failure to the
   tracker; re-offer them oldest first so shard queues (FIFO) preserve
   the fleet's true arrival order. *)
let drain_pending t bug_id =
  match Hashtbl.find_opt t.pending bug_id with
  | None -> ()
  | Some held ->
    let leftover =
      List.filter
        (fun h ->
          not
            (try_route_success t ~arrival:h.h_arrival ~bug_id
               ~trigger_pc:h.h_trigger_pc h.h_packet))
        (List.rev held)
    in
    if leftover = [] then Hashtbl.remove t.pending bug_id
    else Hashtbl.replace t.pending bug_id (List.rev leftover)

let route_failing t ~arrival ~(env : Wire.envelope) (r : Report.failing_report)
    packet =
  match built_for t env.Wire.bug_id with
  | Error _ ->
    (* Unknown bug: any shard's collector will reject and count it. *)
    offer_to t (shard_of_key t env.Wire.bug_id) ~arrival packet
  | Ok built -> (
    let m = built.Corpus.Bug.m in
    match
      Signature.of_failing m ~config:env.Wire.config ~bug_id:env.Wire.bug_id r
    with
    | Error _ ->
      (* Corrupt report: forward anyway so the owning shard's collector
         counts the decode error — the tracker never hides damage. *)
      offer_to t (shard_of_key t env.Wire.bug_id) ~arrival packet
    | Ok s ->
      let key = Signature.key s in
      let idx = shard_of_key t key in
      if not (Hashtbl.mem t.route_keys key) then begin
        Hashtbl.add t.route_keys key ();
        let watch_pcs = Corpus.Runner.watch_pcs_for m r in
        let entries =
          Option.value ~default:[] (Hashtbl.find_opt t.routes env.Wire.bug_id)
        in
        Hashtbl.replace t.routes env.Wire.bug_id
          (entries @ [ (watch_pcs, idx) ]);
        Obs.Scope.count "stream/routes" 1;
        drain_pending t env.Wire.bug_id
      end;
      offer_to t idx ~arrival packet)

let route t packet =
  t.received <- t.received + 1;
  Obs.Scope.count "stream/tracker_received" 1;
  let arrival = Obs.Span.wall_clock_ns () in
  match Wire.decode packet with
  | Error _ ->
    (* Garbage still flows to a shard — the collector is the single
       source of truth for decode-error accounting. *)
    t.malformed <- t.malformed + 1;
    Obs.Scope.count "stream/tracker_malformed" 1;
    offer_to t (Hashtbl.hash packet mod Array.length t.shards) ~arrival packet
  | Ok env -> (
    match env.Wire.payload with
    | Wire.Failing r -> route_failing t ~arrival ~env r packet
    | Wire.Success r ->
      if
        not
          (try_route_success t ~arrival ~bug_id:env.Wire.bug_id
             ~trigger_pc:r.Report.trigger_pc packet)
      then
        hold_success t ~arrival ~bug_id:env.Wire.bug_id
          ~trigger_pc:r.Report.trigger_pc packet)
