(* Direct tests of the simulated address space: region layout, fault
   classification, allocation and stack discipline. *)

module B = Lir.Builder
module T = Lir.Ty

(* Accesses as results, so each case reads as the fault it expects. *)
module Memory = struct
  include Sim.Memory

  let read mem ~addr = match load mem ~addr with v -> Ok v | exception Fault e -> Error e

  let write mem ~addr ~value =
    match store mem ~addr ~value with () -> Ok () | exception Fault e -> Error e
end

let globals () =
  let m = Lir.Irmod.create "mem" in
  Lir.Irmod.declare_global m "g1" T.I64;
  Lir.Irmod.declare_global m "g2" (T.Ptr T.I64);
  Memory.layout_globals m

let fresh () = Memory.create (globals ())

let test_null_page_faults () =
  let mem = fresh () in
  (match Memory.read mem ~addr:0 with
  | Error Memory.Null -> ()
  | _ -> Alcotest.fail "addr 0 must be Null");
  (match Memory.write mem ~addr:0xfff ~value:1 with
  | Error Memory.Null -> ()
  | _ -> Alcotest.fail "near-null write must fault")

let test_code_region_unmapped () =
  let mem = fresh () in
  match Memory.read mem ~addr:0x2000 with
  | Error Memory.Unmapped -> ()
  | _ -> Alcotest.fail "code region must not be data-readable"

let test_globals_rw () =
  let g = globals () in
  let mem = Memory.create g in
  let a1 = Memory.global_addr g "g1" in
  let a2 = Memory.global_addr g "g2" in
  Alcotest.(check bool) "distinct addresses" true (a1 <> a2);
  (match Memory.read mem ~addr:a1 with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "globals zero-initialized");
  (match Memory.write mem ~addr:a1 ~value:77 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "global writable");
  (match Memory.read mem ~addr:a1 with
  | Ok 77 -> ()
  | _ -> Alcotest.fail "global readback");
  match Memory.read mem ~addr:a2 with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "sibling global untouched"

let test_heap_alloc_free () =
  let mem = fresh () in
  let a = Memory.alloc_heap mem ~size:16 in
  let b = Memory.alloc_heap mem ~size:16 in
  Alcotest.(check bool) "bump allocation grows" true (b > a);
  (match Memory.write mem ~addr:a ~value:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "live heap writable");
  (match Memory.free_heap mem a with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "free of live base");
  (match Memory.read mem ~addr:a with
  | Error Memory.Freed -> ()
  | _ -> Alcotest.fail "UAF classified as Freed");
  (match Memory.read mem ~addr:(a + 8) with
  | Error Memory.Freed -> ()
  | _ -> Alcotest.fail "interior of freed range also Freed");
  match Memory.free_heap mem a with
  | Error Memory.Unmapped -> ()
  | _ -> Alcotest.fail "double free rejected"

let test_heap_beyond_bump_unmapped () =
  let mem = fresh () in
  let a = Memory.alloc_heap mem ~size:8 in
  match Memory.read mem ~addr:(a + 4096) with
  | Error Memory.Unmapped -> ()
  | _ -> Alcotest.fail "unallocated heap is unmapped"

let test_free_of_wild_pointer () =
  let mem = fresh () in
  match Memory.free_heap mem 0x1234_5678 with
  | Error Memory.Unmapped -> ()
  | _ -> Alcotest.fail "free of non-allocation rejected"

let test_stack_discipline () =
  let mem = fresh () in
  let mark = Memory.frame_mark mem ~tid:3 in
  let s1 = Memory.alloc_stack mem ~tid:3 ~size:8 in
  let s2 = Memory.alloc_stack mem ~tid:3 ~size:8 in
  Alcotest.(check bool) "stack grows" true (s2 > s1);
  (match Memory.write mem ~addr:s1 ~value:5 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "stack slot writable");
  Memory.pop_frame mem ~tid:3 ~mark;
  let s3 = Memory.alloc_stack mem ~tid:3 ~size:8 in
  Alcotest.(check int) "frame reuse after pop" s1 s3

let test_thread_stacks_disjoint () =
  let mem = fresh () in
  let a = Memory.alloc_stack mem ~tid:0 ~size:8 in
  let b = Memory.alloc_stack mem ~tid:1 ~size:8 in
  Alcotest.(check bool) "per-thread regions" true (abs (a - b) >= 0x10_0000)

let tests =
  [
    ( "sim.memory",
      [
        Alcotest.test_case "null page" `Quick test_null_page_faults;
        Alcotest.test_case "code region unmapped" `Quick test_code_region_unmapped;
        Alcotest.test_case "globals r/w" `Quick test_globals_rw;
        Alcotest.test_case "heap alloc/free/UAF" `Quick test_heap_alloc_free;
        Alcotest.test_case "beyond bump unmapped" `Quick
          test_heap_beyond_bump_unmapped;
        Alcotest.test_case "wild free rejected" `Quick test_free_of_wild_pointer;
        Alcotest.test_case "stack discipline" `Quick test_stack_discipline;
        Alcotest.test_case "thread stacks disjoint" `Quick
          test_thread_stacks_disjoint;
      ] );
  ]
