(* Sample_stats against a sorted-array reference: the same linear
   interpolation between closest ranks, computed the obvious way. *)

module S = Perfbench_stats.Sample_stats

let reference a p =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let pos = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  if lo >= n - 1 then s.(n - 1)
  else s.(lo) +. ((pos -. float_of_int lo) *. (s.(lo + 1) -. s.(lo)))

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let () =
  Random.init 7;
  let ps = [ 0.0; 1.0; 10.0; 25.0; 33.3; 50.0; 75.0; 90.0; 95.0; 99.0; 99.9; 100.0 ] in
  for trial = 1 to 400 do
    let n = 1 + Random.int (if trial mod 4 = 0 then 3000 else 40) in
    (* Mix wide ranges with heavy ties so duplicate pivots are exercised. *)
    let a =
      Array.init n (fun _ ->
          if trial mod 3 = 0 then float_of_int (Random.int 5)
          else Random.float 1e6 -. 5e5)
    in
    let before = Array.copy a in
    List.iter
      (fun p ->
        let got = S.percentile a p and want = reference a p in
        check (Printf.sprintf "trial %d n=%d p=%g: %g vs %g" trial n p got want)
          (close got want))
      ps;
    check (Printf.sprintf "trial %d leaves input untouched" trial) (a = before);
    let s = S.summarize a in
    check "summary n" (s.S.n = n);
    check "summary median" (close s.S.median (reference a 50.0));
    check "summary quartiles"
      (close s.S.q1 (reference a 25.0) && close s.S.q3 (reference a 75.0));
    check "summary tail" (close s.S.tail (reference a s.S.tail_at))
  done;
  (* The tail rule: the highest grid percentile with >= 10 samples beyond. *)
  check "tail 19" (S.tail_p 19 = None);
  check "tail 20" (S.tail_p 20 = Some 50.0);
  check "tail 40" (S.tail_p 40 = Some 75.0);
  check "tail 100" (S.tail_p 100 = Some 90.0);
  check "tail 199" (S.tail_p 199 = Some 90.0);
  check "tail 200" (S.tail_p 200 = Some 95.0);
  check "tail 999" (S.tail_p 999 = Some 95.0);
  check "tail 1000" (S.tail_p 1000 = Some 99.0);
  check "tail of tiny sample is the max"
    ((S.summarize [| 3.0; 1.0; 2.0 |]).S.tail = 3.0);
  check "empty rejected"
    (match S.percentile [||] 50.0 with _ -> false | exception Invalid_argument _ -> true);
  check "p out of range rejected"
    (match S.percentile [| 1.0 |] 101.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "NaN rejected"
    (match S.percentile [| 1.0; Float.nan |] 50.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end;
  print_endline "sample_stats: ok"
