type 'a slots = {
  entries : (Irmod.t, int * 'a) Ephemeron.K1.t option array;
  mutable next : int;
}

type 'a t = 'a slots Domain.DLS.key

let create ~slots =
  Domain.DLS.new_key (fun () -> { entries = Array.make slots None; next = 0 })

let find_or_build key m build =
  Irmod.layout m;
  let gen = Irmod.generation m in
  let c = Domain.DLS.get key in
  let n = Array.length c.entries in
  let rec find k =
    if k = n then None
    else
      match c.entries.(k) with
      | None -> find (k + 1)
      | Some e -> (
        match Ephemeron.K1.query e m with
        | Some (g, v) when g = gen -> Some v
        | Some _ ->
          c.entries.(k) <- None;
          find (k + 1)
        | None -> find (k + 1))
  in
  match find 0 with
  | Some v -> v
  | None ->
    let v = build m in
    c.entries.(c.next) <- Some (Ephemeron.K1.make m (gen, v));
    c.next <- (c.next + 1) mod n;
    v
