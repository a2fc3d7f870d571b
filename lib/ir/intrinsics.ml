type signature = { arg_count : int; ret : Ty.t }

let mutex_lock = "mutex_lock"
let mutex_unlock = "mutex_unlock"
let mutex_init = "mutex_init"
let cond_init = "cond_init"
let cond_wait = "cond_wait"
let cond_signal = "cond_signal"
let cond_broadcast = "cond_broadcast"
let malloc = "malloc"
let free = "free"
let thread_create = "thread_create"
let thread_join = "thread_join"
let work = "work"
let io_delay = "io_delay"
let assert_true = "assert_true"
let print_i64 = "print_i64"
let rand = "rand"

let table =
  [
    (malloc, { arg_count = 1; ret = Ty.Ptr Ty.I8 });
    (free, { arg_count = 1; ret = Ty.Void });
    (mutex_init, { arg_count = 1; ret = Ty.Void });
    (mutex_lock, { arg_count = 1; ret = Ty.Void });
    (mutex_unlock, { arg_count = 1; ret = Ty.Void });
    (cond_init, { arg_count = 1; ret = Ty.Void });
    (cond_wait, { arg_count = 2; ret = Ty.Void });
    (cond_signal, { arg_count = 1; ret = Ty.Void });
    (cond_broadcast, { arg_count = 1; ret = Ty.Void });
    (thread_create, { arg_count = 2; ret = Ty.I64 });
    (thread_join, { arg_count = 1; ret = Ty.Void });
    (work, { arg_count = 1; ret = Ty.Void });
    (io_delay, { arg_count = 1; ret = Ty.Void });
    (assert_true, { arg_count = 1; ret = Ty.Void });
    (print_i64, { arg_count = 1; ret = Ty.Void });
    (rand, { arg_count = 1; ret = Ty.I64 });
  ]

(* Read-only after initialization, so domains may share it. *)
let index =
  let h = Hashtbl.create 32 in
  List.iter (fun (name, sg) -> Hashtbl.replace h name sg) table;
  h

let lookup name = Hashtbl.find_opt index name
let is_intrinsic name = Hashtbl.mem index name
let all = List.map fst table
