(* Tests for the fix subsystem: synthesis invariants over the whole
   corpus, the oracle's rejection of a deliberately wrong patch, and
   parallel/sequential sweep equivalence. *)

module Core = Snorlax_core

(* Every synthesizable candidate patch, across all corpus bugs, must (a)
   leave the module well-formed and (b) touch only the functions it
   declares: every other function prints identically to a fresh build.
   At least one template per diagnosed bug must synthesize, or the fix
   ladder would have nothing to validate. *)
let test_patches_verify_and_localize () =
  let patched_total = ref 0 in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      match Experiments.Eval_runs.get_result bug with
      | Error msg -> Alcotest.failf "%s did not reproduce: %s" bug.id msg
      | Ok entry -> (
        match entry.Experiments.Eval_runs.diagnosis.Core.Diagnosis.top with
        | None -> Alcotest.failf "%s diagnosed no pattern" bug.id
        | Some top ->
          let pattern = top.Core.Statistics.pattern in
          let reference = (bug.build ()).Corpus.Bug.m in
          let ok_templates = ref 0 in
          List.iter
            (fun template ->
              let m = (bug.build ()).Corpus.Bug.m in
              match Fix.Patch.synthesize ~m ~pattern template with
              | Error _ -> ()
              | Ok patch ->
                incr ok_templates;
                incr patched_total;
                let name = Fix.Patch.template_name template in
                (match Lir.Verify.check m with
                | [] -> ()
                | errs ->
                  Alcotest.failf "%s/%s: %d verifier errors" bug.id name
                    (List.length errs));
                List.iter
                  (fun (f : Lir.Func.t) ->
                    if not (List.mem f.fname patch.Fix.Patch.touched_funcs)
                    then
                      let orig = Lir.Irmod.find_func reference f.fname in
                      Alcotest.(check string)
                        (Printf.sprintf "%s/%s leaves %s untouched" bug.id
                           name f.fname)
                        (Lir.Printer.func_to_string orig)
                        (Lir.Printer.func_to_string f))
                  (Lir.Irmod.funcs m))
            (Fix.Patch.candidates pattern);
          Alcotest.(check bool)
            (bug.id ^ " has at least one applicable template")
            true (!ok_templates > 0)))
    Corpus.Registry.all;
  Alcotest.(check bool) "patched something" true (!patched_total > 0)

(* Digest, per bug, of the printed module after each candidate template
   (template name, then the module or the synthesis error), recorded
   from the synthesizer as it was before edits stopped forcing a relayout
   per [Rewrite.locate]: the cheaper lookups must not change a single
   byte of any patch. *)
let patched_digests =
  [
    ("mysql-1", "316335bd78299794496bc4a62423e9d0");
    ("mysql-2", "f81e6fc22d6be0f3a34dff122bf89466");
    ("mysql-3", "0544cf6484b3e64418e17f04d0f2eee8");
    ("mysql-4", "545ffa53efdd5ae8137c40ae37e84cf2");
    ("mysql-5", "34247dc81d15d41cd0c5c9aac55f9d53");
    ("mysql-6", "e053bd66fc7f49f31a499439ce054266");
    ("mysql-7", "16f0dcc1726905d22a657ab5859efd8f");
    ("mysql-8", "fa7c12bfe58f97bbadd0e85e5b214f19");
    ("mysql-9", "026d09331d6cc7f9ecb1c6c5f4398b5b");
    ("httpd-1", "9b6beaba26f16961171f0b577cedfead");
    ("httpd-2", "6a36a3d36d2dadabf10fe2954ff1eb9f");
    ("httpd-3", "137cf9ec7381287024d09119af9b39b1");
    ("httpd-4", "4d3c94f491c331f56978699bb1795f99");
    ("httpd-5", "88e990fb9ab77ba84220e82f1d24e76d");
    ("httpd-6", "c8c7b4ed5e7947d0d77ccb8da50cad68");
    ("httpd-7", "47dda890553dd93d1a303e7808b75c8d");
    ("memcached-1", "061c7dac415e3ad81eb732b6aafab4f3");
    ("memcached-2", "a4239539fa4b2673e44c5582bc2138dd");
    ("memcached-3", "2522a58cfc9dc38b78267353f56e3b0f");
    ("sqlite-1", "bb70916cc5e907d64417c348eb33ac64");
    ("sqlite-2", "0e591b6297abdb8febfb7e76392963b4");
    ("sqlite-3", "be67707a936701ebffb876398d4a964e");
    ("sqlite-4", "2cb77af9923b85d0bef984bf2c5a0e51");
    ("transmission-1", "7b9711c69582da42c08ac2039cd6e6ce");
    ("transmission-2", "971b9150abbda683472795c90f2d4657");
    ("transmission-3", "4b3a54011fb29606427e3632c9b69b8c");
    ("transmission-4", "beae870273a3517cdc7ad6b608633bb0");
    ("pbzip2-1", "3e51d13f059ad2ac3df5b38a5def8637");
    ("pbzip2-2", "e4b829c5ff03d7112e92fe0c8f0c2ebf");
    ("pbzip2-3", "9c84264fe3706429a006af38b44f3be0");
    ("aget-1", "26898ef88b4380a17c1cc74fac6d3d4b");
    ("aget-2", "cc714373ec579ca0513fc0bbd1382280");
    ("jdk-1", "a1a560ce1e3626df8298af46cfa232a9");
    ("jdk-2", "28277f80e2df9b7881d88b3d2b2b2db8");
    ("jdk-3", "e57e047f51216cd5100549f4657a75b0");
    ("jdk-4", "8c9d1a5aa77dc654eca883a468873f5b");
    ("jdk-5", "5f6234a8d949b2f4d9d28338be714725");
    ("jdk-6", "115ce384fbe87baf509b96ecd1042f6e");
    ("derby-1", "897650822cb731a24fcd96ccc295539c");
    ("derby-2", "1f1de9fc12bdd65e9c7ebea88e30cf7f");
    ("derby-3", "26a6698597a01526bf74fb18eb4c8a46");
    ("derby-4", "ee8db777d817ab07154b18674baa3d1c");
    ("groovy-1", "059d966704951aa63519c075c0fab0c7");
    ("groovy-2", "0856001dba4c617ecf70e49c67f5b21a");
    ("groovy-3", "72788bddc0056aa2a18b9f4919458e92");
    ("dbcp-1", "ad7a8ae06413d21e7101189944950457");
    ("dbcp-2", "9bd3d38cec6c0cc3fd1bc1f7d5d7c714");
    ("dbcp-3", "d3a4bf5e9ee92af9b4d6299067df34bc");
    ("dbcp-4", "c31d9c117f7b62abe13803e63b69a8ea");
    ("log4j-1", "07e732db57a3ec459a277724f8178d33");
    ("log4j-2", "5938ac8182cbdc516756f5c557069001");
    ("log4j-3", "b71df44d2e6f80b78a1f1be4adac043a");
    ("lucene-1", "e9e869d23e9786821c862930e6f58638");
    ("lucene-2", "e63a7c1b270fbff6e74ff3095555a32d");
  ]

(* Each synthesis lays the module out exactly once, at the end; the
   patched modules print byte-identically to the recorded ones. *)
let test_synthesis_one_layout () =
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      match Experiments.Eval_runs.get_result bug with
      | Error msg -> Alcotest.failf "%s did not reproduce: %s" bug.id msg
      | Ok entry -> (
        match entry.Experiments.Eval_runs.diagnosis.Core.Diagnosis.top with
        | None -> Alcotest.failf "%s diagnosed no pattern" bug.id
        | Some top ->
          let pattern = top.Core.Statistics.pattern in
          let buf = Buffer.create 4096 in
          List.iter
            (fun template ->
              let m = (bug.build ()).Corpus.Bug.m in
              let g0 = Lir.Irmod.generation m in
              let name = Fix.Patch.template_name template in
              Buffer.add_string buf name;
              match Fix.Patch.synthesize ~m ~pattern template with
              | Error e -> Buffer.add_string buf ("error: " ^ e)
              | Ok _ ->
                Buffer.add_string buf (Lir.Printer.module_to_string m);
                Alcotest.(check int)
                  (Printf.sprintf "%s/%s: one layout" bug.id name)
                  1
                  (Lir.Irmod.generation m - g0))
            (Fix.Patch.candidates pattern);
          Alcotest.(check string)
            (bug.id ^ " patched modules print as recorded")
            (List.assoc bug.id patched_digests)
            (Digest.to_hex (Digest.string (Buffer.contents buf)))))
    Corpus.Registry.all

(* A deliberately wrong patch — the new mutex bracketing only the remote
   side of a diagnosed atomicity pair — must not earn [Fixed]: the
   HB-oracle sweep still sees the diagnosed pair racy (or the failure
   still reproduces). *)
let test_one_sided_patch_rejected () =
  let bug = Corpus.Registry.find_exn "mysql-7" in
  let entry =
    match Experiments.Eval_runs.get_result bug with
    | Ok e -> e
    | Error msg -> Alcotest.failf "mysql-7 did not reproduce: %s" msg
  in
  let pattern =
    match entry.Experiments.Eval_runs.diagnosis.Core.Diagnosis.top with
    | Some top -> top.Core.Statistics.pattern
    | None -> Alcotest.fail "mysql-7 diagnosed no pattern"
  in
  let remote_iid =
    match pattern with
    | Core.Patterns.Atomicity { remote_iid; _ } -> remote_iid
    | _ -> Alcotest.fail "mysql-7 should diagnose an atomicity pattern"
  in
  let m = (bug.build ()).Corpus.Bug.m in
  let g = Lir.Rewrite.fresh_global m ~base:"__wrong_mutex" Lir.Ty.I64 in
  let call callee =
    Lir.Instr.Call { dst = None; callee; args = [ Lir.Value.Global g ] }
  in
  ignore
    (Lir.Rewrite.insert_before m ~iid:remote_iid
       [ call Lir.Intrinsics.mutex_lock ]);
  ignore
    (Lir.Rewrite.insert_after m ~iid:remote_iid
       [ call Lir.Intrinsics.mutex_unlock ]);
  Lir.Verify.check_exn m;
  Lir.Irmod.layout m;
  let collected = entry.Experiments.Eval_runs.collected in
  let j =
    Fix.Validate.judge_patch ~bug ~collected ~pattern
      ~sweep_seeds:(Fix.Validate.sweep_seed_list ~collected ~seeds:5)
      m
  in
  match j.Fix.Validate.verdict with
  | Fix.Validate.Fixed ->
    Alcotest.fail "a one-sided lock must not pass validation"
  | Fix.Validate.Not_fixed _ | Fix.Validate.Regressed _ -> ()

(* The parallel fix sweep must return exactly the sequential sweep's
   verdict table: same order, same verdicts, same winning templates. *)
let test_parallel_matches_sequential () =
  let bugs =
    List.map Corpus.Registry.find_exn [ "mysql-7"; "pbzip2-1"; "derby-1" ]
  in
  let project results =
    List.map
      (fun (id, r) ->
        match r with
        | Error msg -> (id, "error", msg)
        | Ok (b : Fix.Validate.bug_report) ->
          ( id,
            Fix.Validate.verdict_name b.verdict,
            match b.template with
            | None -> "-"
            | Some t -> Fix.Patch.template_name t ))
      results
  in
  let seq = project (Fix.Validate.fix_all ~sweep_jobs:1 ~seeds:2 bugs) in
  let par = project (Fix.Validate.fix_all ~sweep_jobs:4 ~seeds:2 bugs) in
  Alcotest.(check (list (triple string string string)))
    "parallel == sequential" seq par;
  List.iter
    (fun (id, verdict, _) ->
      Alcotest.(check string) (id ^ " fixed") "fixed" verdict)
    seq

let tests =
  [
    ( "fix.synthesis",
      [
        Alcotest.test_case "patches verify and localize" `Slow
          test_patches_verify_and_localize;
        Alcotest.test_case "one layout, identical output" `Slow
          test_synthesis_one_layout;
      ] );
    ( "fix.validation",
      [
        Alcotest.test_case "one-sided patch rejected" `Slow
          test_one_sided_patch_rejected;
        Alcotest.test_case "parallel == sequential" `Slow
          test_parallel_matches_sequential;
      ] );
  ]
