let swap a i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

(* Hoare-style quickselect with a median-of-three pivot: on return
   a.(k) holds the k-th smallest element, everything left of k is <= it
   and everything right of k is >= it. *)
let select a k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) < a.(!lo) then swap a mid !lo;
    if a.(!hi) < a.(!lo) then swap a !hi !lo;
    if a.(!hi) < a.(mid) then swap a !hi mid;
    let pivot = a.(mid) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample_stats.percentile: no samples";
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Sample_stats.percentile: p outside [0, 100]";
  if Array.exists Float.is_nan a then
    invalid_arg "Sample_stats.percentile: NaN sample";
  let c = Array.copy a in
  let pos = p /. 100.0 *. float_of_int (n - 1) in
  let lo = min (int_of_float pos) (n - 1) in
  let frac = pos -. float_of_int lo in
  select c lo;
  let v = c.(lo) in
  if lo + 1 >= n || frac = 0.0 then v
  else begin
    (* Everything right of [lo] is >= v; the next rank is its minimum. *)
    let next = ref c.(lo + 1) in
    for i = lo + 2 to n - 1 do
      if c.(i) < !next then next := c.(i)
    done;
    v +. (frac *. (!next -. v))
  end

let tail_grid = [ 99.0; 95.0; 90.0; 75.0; 50.0 ]
let min_beyond = 10

(* Integer arithmetic: [n * (1 - p/100)] in floats misrounds (100 samples
   beyond p90 would read 9.999...). *)
let tail_p n =
  List.find_opt
    (fun p -> n * (100 - int_of_float p) / 100 >= min_beyond)
    tail_grid

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  tail_at : float;
  tail : float;
}

let summarize a =
  let n = Array.length a in
  let tail_at = Option.value (tail_p n) ~default:100.0 in
  {
    n;
    median = percentile a 50.0;
    q1 = percentile a 25.0;
    q3 = percentile a 75.0;
    tail_at;
    tail = percentile a tail_at;
  }
