(* Address-space layout (synthetic, collision-free by construction):
     0x0000_0000 .. 0x0000_0fff   null page (always faults)
     0x0000_1000 .. 0x00ff_ffff   code (instruction pcs; faults on data access)
     0x0100_0000 .. 0x0fff_ffff   globals
     0x1000_0000 .. 0x3fff_ffff   heap
     0x4000_0000 ..               stacks, 0x10_0000 bytes per thread *)

let null_limit = 0x1000
let globals_base = 0x0100_0000
let heap_base = 0x1000_0000
let heap_limit = 0x4000_0000
let stacks_base = 0x4000_0000
let stack_size = 0x10_0000

type access_error = Null | Freed | Unmapped

exception Fault of access_error

(* Address-keyed tables.  Addresses are 8-aligned, so the low bits carry
   no information; the high bits tell the regions and threads apart. *)
module Addr_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = (a lsr 3) lxor (a lsr 20)
end)

type globals = { addrs : (string, int) Hashtbl.t; top : int }

type t = {
  cells : int Addr_tbl.t;
  globals : globals; (* shared, never written after layout *)
  mutable heap_top : int;
  live_heap : int Addr_tbl.t; (* base -> size *)
  mutable freed : (int * int) list; (* (base, size), most recent first *)
  stack_tops : (int, int) Hashtbl.t; (* tid -> next free stack addr *)
}

(* Small initial tables: a simulated run touches a few dozen cells, and a
   table of more than 256 buckets would be allocated on the major heap
   for every run.  Nothing iterates these tables, so their sizing cannot
   change a result. *)
let create globals =
  {
    cells = Addr_tbl.create 32;
    globals;
    heap_top = heap_base;
    live_heap = Addr_tbl.create 8;
    freed = [];
    stack_tops = Hashtbl.create 8;
  }

let align8 n = (n + 7) land lnot 7

(* Addresses follow [Irmod.iter_globals] order — the module's global
   table order — so the layout is a function of the module alone. *)
let layout_globals m =
  let addrs = Hashtbl.create 32 in
  let top = ref globals_base in
  Lir.Irmod.iter_globals m (fun name ty ->
      let size = align8 (max 8 (Lir.Irmod.size_of m ty)) in
      Hashtbl.replace addrs name !top;
      top := !top + size);
  { addrs; top = !top }

let global_addr g name = Hashtbl.find g.addrs name

let alloc_heap t ~size =
  let base = t.heap_top in
  t.heap_top <- t.heap_top + align8 (max 8 size);
  Addr_tbl.replace t.live_heap base size;
  (* Re-allocation of a previously freed base is impossible (bump allocator),
     so stale freed records never shadow live memory. *)
  base

let heap_block_size t base = Addr_tbl.find_opt t.live_heap base

let free_heap t base =
  match Addr_tbl.find_opt t.live_heap base with
  | None -> Error Unmapped
  | Some size ->
    Addr_tbl.remove t.live_heap base;
    t.freed <- (base, size) :: t.freed;
    Ok ()

let stack_base tid = stacks_base + (tid * stack_size)

let frame_mark t ~tid =
  match Hashtbl.find t.stack_tops tid with
  | top -> top
  | exception Not_found ->
    let base = stack_base tid in
    Hashtbl.replace t.stack_tops tid base;
    base

let alloc_stack t ~tid ~size =
  let top = frame_mark t ~tid in
  let addr = top in
  Hashtbl.replace t.stack_tops tid (top + align8 (max 8 size));
  addr

let pop_frame t ~tid ~mark = Hashtbl.replace t.stack_tops tid mark

let rec in_freed addr = function
  | [] -> false
  | (base, size) :: rest -> (addr >= base && addr < base + size) || in_freed addr rest

(* The fault an access to [addr] takes, if any. *)
let check t addr =
  if addr < null_limit then raise (Fault Null)
  else if addr < globals_base then raise (Fault Unmapped) (* code region *)
  else if addr < heap_base then begin
    if addr >= t.globals.top then raise (Fault Unmapped)
  end
  else if addr < heap_limit then begin
    if in_freed addr t.freed then raise (Fault Freed)
    else if addr >= t.heap_top then raise (Fault Unmapped)
  end
(* stack zone: frame discipline keeps accesses in-bounds *)

let load t ~addr =
  check t addr;
  match Addr_tbl.find t.cells addr with v -> v | exception Not_found -> 0

let store t ~addr ~value =
  check t addr;
  Addr_tbl.replace t.cells addr value
