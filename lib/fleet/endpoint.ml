type shipment = {
  endpoint : int;
  packets : bytes list;
  runs : int;
  reproduced : bool;
}

(* Runner.collect's default retry budget is 5000 seeds; keep endpoint
   seed ranges disjoint with room to spare. *)
let seed_stride = 10_000

let run ~bug ~endpoint =
  let config = Pt.Config.default in
  Obs.Scope.with_span
    ("fleet/endpoint-" ^ string_of_int endpoint)
    ~args:[ ("bug", Obs.Span.Str bug.Corpus.Bug.id) ]
  @@ fun () ->
  let seed_base = 1 + (endpoint * seed_stride) in
  Obs.Scope.count "fleet/endpoints" 1;
  (* The endpoint's flight recorder: every log event during its runs
     lands in this ring too.  It is only materialized — replayed to the
     attached sinks — when a sim failure actually fired here. *)
  let recorder = Obs.Log.Recorder.create ~capacity:64 () in
  match
    Obs.Log.with_recorder recorder (fun () ->
        Corpus.Runner.collect bug ~pt_config:config ~seed_base ())
  with
  | Error _ ->
    Obs.Scope.count "fleet/endpoints_quiet" 1;
    { endpoint; packets = []; runs = 0; reproduced = false }
  | Ok c ->
    Obs.Log.error "fleet/endpoint_failure"
      ~fields:
        [
          ("endpoint", Obs.Log.Int endpoint);
          ("bug", Obs.Log.Str bug.Corpus.Bug.id);
          ("failing", Obs.Log.Int (List.length c.Corpus.Runner.failing));
          ("runs", Obs.Log.Int c.Corpus.Runner.runs_needed);
        ];
    Obs.Log.replay recorder;
    let envelope seed (sync : Corpus.Runner.sync_profile) payload =
      {
        Wire.endpoint;
        seed;
        bug_id = bug.Corpus.Bug.id;
        config;
        prov =
          Some
            {
              Wire.runs = c.Corpus.Runner.runs_needed;
              sync_ops = sync.Corpus.Runner.sync_ops;
              sync_digest = sync.Corpus.Runner.sync_digest;
            };
        payload;
      }
    in
    let encode2 f reports seeds syncs =
      List.map2
        (fun r (seed, sync) -> Wire.encode (envelope seed sync (f r)))
        reports
        (List.combine seeds syncs)
    in
    let failing =
      encode2
        (fun r -> Wire.Failing r)
        c.Corpus.Runner.failing c.Corpus.Runner.failing_seeds
        c.Corpus.Runner.failing_sync
    in
    let successful =
      encode2
        (fun r -> Wire.Success r)
        c.Corpus.Runner.successful c.Corpus.Runner.success_seeds
        c.Corpus.Runner.success_sync
    in
    let packets = failing @ successful in
    List.iter
      (fun p -> Obs.Scope.count "fleet/endpoint_wire_bytes" (Bytes.length p))
      packets;
    {
      endpoint;
      packets;
      runs = c.Corpus.Runner.runs_needed;
      reproduced = true;
    }
