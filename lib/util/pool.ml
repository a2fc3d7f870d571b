(* Every domain, the caller included, claims indices from [next] until it
   runs past [n].  A failure pushes the cursor to [n], so the unclaimed
   rest of the batch is cancelled; the first failure is kept and
   re-raised after every spawned domain has been joined. *)
let map ~jobs f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match f i arr.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
        ignore (Atomic.compare_and_set failure None (Some e) : bool);
        Atomic.set next n);
      work ()
    end
  in
  let spawned = min (jobs - 1) (n - 1) in
  let domains = List.init (max 0 spawned) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  match Atomic.get failure with
  | Some e -> raise e
  | None -> Array.map (function Some v -> v | None -> assert false) results

let default = Atomic.make (Domain.recommended_domain_count ())

let default_jobs () = Atomic.get default

let set_default_jobs n = Atomic.set default (max 1 n)
