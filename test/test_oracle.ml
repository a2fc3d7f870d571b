(* End-to-end differential checks: the happens-before oracle must agree
   with the diagnosis pipeline on every corpus bug, the parallel sweep
   must equal the sequential one, and the production decoder must equal
   the frozen v1 decoder on every report of every corpus bug. *)

let test_full_registry_agreement () =
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      match Oracle.Diffcheck.check_bug bug with
      | Error e ->
        Alcotest.failf "%s failed to reproduce: %s" bug.Corpus.Bug.id e
      | Ok r ->
        Alcotest.(check string)
          (bug.Corpus.Bug.id ^ " classification")
          "agree"
          (Oracle.Diffcheck.classification_name
             r.Oracle.Diffcheck.classification);
        Alcotest.(check bool)
          (bug.Corpus.Bug.id ^ " spurious pairs")
          true
          (r.Oracle.Diffcheck.spurious = []))
    Corpus.Registry.all

(* The cursor == reference differential: every failing and successful
   report's traces of all 54 corpus bugs, decoded by [Pt.Decoder.decode]
   and by the frozen v1 pipeline on the same (snapshot, tail stop)
   inputs diagnosis uses, must give bit-identical results — steps, lost
   bytes, desync and thread-end flags alike. *)
let test_decoder_matches_reference () =
  let config = Pt.Config.default in
  let mismatches =
    List.concat_map
      (fun (bug : Corpus.Bug.t) ->
        match Corpus.Runner.collect bug () with
        | Error e ->
          Alcotest.failf "%s failed to reproduce: %s" bug.Corpus.Bug.id e
        | Ok c ->
          let m = c.Corpus.Runner.built.Corpus.Bug.m in
          let inputs =
            Ref_decoder.report_inputs m ~failing:c.Corpus.Runner.failing
              ~successful:c.Corpus.Runner.successful
          in
          Alcotest.(check bool)
            (bug.Corpus.Bug.id ^ " has traces to decode")
            true (inputs <> []);
          List.filter_map
            (fun (snapshot, tail_stop) ->
              if
                Pt.Decoder.decode m ~config ?tail_stop snapshot
                = Ref_decoder.decode m ~config ?tail_stop snapshot
              then None
              else Some bug.Corpus.Bug.id)
            inputs)
      Corpus.Registry.all
  in
  Alcotest.(check int) "corpus size" 54 (List.length Corpus.Registry.all);
  Alcotest.(check (list string)) "traces whose decodes differ" [] mismatches

(* The corpus sweep itself parallelizes (one lane per bug): the result
   list must come back in input order with results identical to the
   sequential sweep, and a reproduction failure must surface as the same
   Error in the same slot. *)
let test_sweep_jobs_determinism () =
  let bugs =
    List.map Corpus.Registry.find_exn [ "pbzip2-1"; "mysql-5"; "httpd-1" ]
  in
  let strip r =
    List.map
      (fun (id, res) ->
        ( id,
          match res with
          | Error e -> Error e
          | Ok (r : Oracle.Diffcheck.bug_result) ->
            Ok
              ( Oracle.Diffcheck.classification_name
                  r.Oracle.Diffcheck.classification,
                r.Oracle.Diffcheck.spurious ) ))
      r
  in
  let seq = strip (Oracle.Diffcheck.check_all bugs) in
  let par = strip (Oracle.Diffcheck.check_all ~sweep_jobs:4 bugs) in
  Alcotest.(check int) "same result count" (List.length seq) (List.length par);
  List.iter2
    (fun (id_s, r_s) (id_p, r_p) ->
      Alcotest.(check string) "input order preserved" id_s id_p;
      Alcotest.(check bool) (id_s ^ ": parallel sweep equals sequential") true
        (r_s = r_p))
    seq par

let tests =
  [
    ( "oracle.diffcheck",
      [
        Alcotest.test_case "all 54 corpus bugs agree" `Quick
          test_full_registry_agreement;
        Alcotest.test_case "cursor decoder equals v1 on all 54 bugs" `Quick
          test_decoder_matches_reference;
        Alcotest.test_case "sweep-jobs 1/4 determinism" `Quick
          test_sweep_jobs_determinism;
      ] );
  ]
