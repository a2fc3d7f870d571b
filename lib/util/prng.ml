(* The state lives in 8 bytes rather than a mutable [int64] field: the
   64-bit accessors on [bytes] compile to unboxed loads and stores, so a
   draw allocates nothing (the simulator draws once per instruction). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] next64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t = of_state (next64 t)

let int t ~bound =
  assert (bound > 0);
  (* Mask to OCaml's 62 positive bits: Int64.to_int alone can yield a
     negative 63-bit value. *)
  let raw = Int64.to_int (next64 t) land max_int in
  raw mod bound

let in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let[@inline] float t ~bound =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next64 t) 1L = 1L

let chance t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t ~bound:1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t ~bound:(Array.length arr))
