(* The one-shot fleet loop as it stood before it became a form of the
   stream loop: every endpoint's shipment goes straight into one
   collector, then each bucket gets one batch diagnosis.  Frozen here as
   the reference that [Stream.Deploy.run_once] is held to, field for
   field. *)

module Core = Snorlax_core
module Collector = Fleet.Collector

type row = {
  bug_id : string;
  signature : string;
  endpoints_hit : int;
  failing_kept : int;
  failing_dropped : int;
  success_kept : int;
  success_dropped : int;
  wire_bytes : int;
  qualifiers : string list;
  top_pattern : string option;
  top_describe : string option;
  f1 : float;
  root_cause_match : bool;
  ordering_accuracy : float;
}

type totals = {
  shipped : int;
  t_wire_bytes : int;
  buckets : int;
  dedup_ratio : float;
  decode_errors : int;
  unrouted : int;
}

let row collector (b : Collector.bucket) =
  let res = Collector.diagnose collector b in
  let built = Collector.built collector b in
  let gt = built.Corpus.Bug.ground_truth in
  let top_pattern, top_describe, f1, rc_match, a_o =
    match res.Core.Diagnosis.top with
    | None -> (None, None, 0.0, false, 0.0)
    | Some top ->
      let p = top.Core.Statistics.pattern in
      ( Some (Core.Patterns.id p),
        Some (Core.Patterns.describe built.Corpus.Bug.m p),
        top.Core.Statistics.f1,
        Core.Accuracy.root_cause_match ~diagnosed:p ~ground_truth:gt,
        Core.Accuracy.ordering_accuracy ~diagnosed:p ~ground_truth:gt )
  in
  {
    bug_id = b.Collector.signature.Fleet.Signature.bug_id;
    signature = Fleet.Signature.to_string b.Collector.signature;
    endpoints_hit = List.length b.Collector.endpoints;
    failing_kept = Collector.failing_kept b;
    failing_dropped = Collector.failing_dropped b;
    success_kept = Collector.success_kept b;
    success_dropped = Collector.success_dropped b;
    wire_bytes = b.Collector.wire_bytes;
    qualifiers =
      List.map Collector.qualifier_to_string (Collector.qualifiers b);
    top_pattern;
    top_describe;
    f1;
    root_cause_match = rc_match;
    ordering_accuracy = a_o;
  }

let run ~endpoints bugs =
  let collector = Collector.create () in
  let shipped = ref 0 in
  List.iter
    (fun bug ->
      for e = 0 to endpoints - 1 do
        let s = Fleet.Endpoint.run ~bug ~endpoint:e in
        List.iter
          (fun packet ->
            incr shipped;
            ignore (Collector.ingest collector packet))
          s.Fleet.Endpoint.packets
      done)
    bugs;
  let rows = List.map (row collector) (Collector.buckets collector) in
  let t = Collector.totals collector in
  let buckets = List.length rows in
  ( rows,
    {
      shipped = !shipped;
      t_wire_bytes = t.Collector.wire_bytes;
      buckets;
      dedup_ratio =
        (if buckets = 0 then 0.0
         else float_of_int t.Collector.failing_received /. float_of_int buckets);
      decode_errors = t.Collector.decode_errors;
      unrouted = t.Collector.unrouted;
    } )
