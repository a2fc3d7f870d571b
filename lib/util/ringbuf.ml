(* Storage starts small and doubles up to [cap].  Growth only happens
   while nothing has been overwritten yet, so until the storage reaches
   [cap] the retained bytes sit linearly at [0, head) and a grow is one
   blit.  Positions always wrap at [cap], never at the current storage
   length: once a wrap is possible the storage is already full size. *)

let initial_size = 256

type t = {
  mutable data : bytes;
  cap : int;
  mutable head : int; (* next write position *)
  mutable filled : int; (* bytes retained, <= cap *)
  mutable written : int; (* bytes ever written *)
}

let create ~capacity =
  assert (capacity > 0);
  {
    data = Bytes.create (min capacity initial_size);
    cap = capacity;
    head = 0;
    filled = 0;
    written = 0;
  }

let capacity t = t.cap
let length t = t.filled
let total_written t = t.written
let wrapped t = t.written > t.cap

(* Make room for [n] more bytes at [head] without a wrap, or grow to the
   full capacity when the write would reach it. *)
let reserve t n =
  let size = Bytes.length t.data in
  if size < t.cap && t.head + n > size then begin
    let want = t.head + n in
    let rec grow s = if s >= want then s else grow (2 * s) in
    let data = Bytes.create (min t.cap (grow (2 * size))) in
    Bytes.blit t.data 0 data 0 t.head;
    t.data <- data
  end

let write_byte t b =
  reserve t 1;
  Bytes.unsafe_set t.data t.head (Char.unsafe_chr (b land 0xff));
  t.head <- (if t.head + 1 = t.cap then 0 else t.head + 1);
  if t.filled < t.cap then t.filled <- t.filled + 1;
  t.written <- t.written + 1

(* Append [n] bytes through [blit src src_off dst dst_off len]: at most
   two blits, one up to the end of the ring and one from its start. *)
let write_with t ~blit n =
  if n >= t.cap then begin
    (* Only the last [cap] bytes survive; they fill the ring from 0. *)
    reserve t t.cap;
    blit (n - t.cap) t.data 0 t.cap;
    t.head <- 0;
    t.filled <- t.cap
  end
  else if n > 0 then begin
    reserve t n;
    let first = min n (t.cap - t.head) in
    blit 0 t.data t.head first;
    if first < n then blit first t.data 0 (n - first);
    t.head <- (t.head + n) mod t.cap;
    t.filled <- min t.cap (t.filled + n)
  end;
  t.written <- t.written + n

let write_bytes t src =
  write_with t (Bytes.length src) ~blit:(fun off dst dst_off len ->
      Bytes.blit src off dst dst_off len)

let write_buffer t src =
  write_with t (Buffer.length src) ~blit:(fun off dst dst_off len ->
      Buffer.blit src off dst dst_off len)

let snapshot t =
  let out = Bytes.create t.filled in
  let start = (t.head - t.filled + t.cap) mod t.cap in
  let first = min t.filled (t.cap - start) in
  Bytes.blit t.data start out 0 first;
  Bytes.blit t.data 0 out first (t.filled - first);
  out

let clear t =
  t.head <- 0;
  t.filled <- 0;
  t.written <- 0
