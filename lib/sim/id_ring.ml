(* Reusable per-request slots in a power-of-two array indexed by
   [id land (width - 1)]. Request ids are dense — each owner numbers its
   requests sequentially — so a ring at least as wide as the window of
   occupied ids never collides, and a collision doubles it. Slots are
   built by [make owner] and reused for the owner's lifetime, so a slot
   can carry state built once with it, such as a timer continuation.

   A slot that is never freed (a request whose reply is lost, with no
   retry layer or deadline to resolve it) would make the ring span every
   id issued after it. Past [max_width] a colliding occupant moves to the
   [parked] table instead, which holds only such stragglers. *)

type ('o, 'a) t = {
  mutable slots : 'a array;
  make : 'o -> 'a;
  occupied : 'a -> bool;
  id_of : 'a -> int;
  parked : (int, 'a) Hashtbl.t;
}

let max_width = 1 lsl 14

let create ~make ~occupied ~id_of =
  { slots = [||]; make; occupied; id_of; parked = Hashtbl.create 8 }

let width t = Array.length t.slots

let index t id = id land (Array.length t.slots - 1)

let holds t s ~id = t.occupied s && t.id_of s = id

let in_ring t ~id =
  Array.length t.slots > 0 && holds t (Array.unsafe_get t.slots (index t id)) ~id

(* A parked slot that has since been freed is dropped when looked up. *)
let parked t ~id =
  match Hashtbl.find_opt t.parked id with
  | Some s when holds t s ~id -> Some s
  | Some _ ->
      Hashtbl.remove t.parked id;
      None
  | None -> None

let mem t ~id =
  in_ring t ~id || (Hashtbl.length t.parked > 0 && parked t ~id <> None)

let get t ~id =
  if in_ring t ~id then Array.unsafe_get t.slots (index t id)
  else
    match parked t ~id with
    | Some s -> s
    | None -> invalid_arg "Id_ring.get: id not present"

(* Occupied slots never collide in the wider ring: ids that differ modulo
   the old width also differ modulo the new one. *)
let widen t owner =
  let n = max 64 (2 * width t) in
  let wider = Array.init n (fun _ -> t.make owner) in
  Array.iter
    (fun s -> if t.occupied s then wider.(t.id_of s land (n - 1)) <- s)
    t.slots;
  t.slots <- wider

let park t owner ~id =
  let s = t.slots.(index t id) in
  Hashtbl.filter_map_inplace
    (fun _ p -> if t.occupied p then Some p else None)
    t.parked;
  Hashtbl.replace t.parked (t.id_of s) s;
  t.slots.(index t id) <- t.make owner

let rec claim t owner ~id =
  if Array.length t.slots > 0 && not (t.occupied (Array.unsafe_get t.slots (index t id)))
  then Array.unsafe_get t.slots (index t id)
  else begin
    if width t < max_width then widen t owner else park t owner ~id;
    claim t owner ~id
  end

let renew t owner ~id =
  if in_ring t ~id then t.slots.(index t id) <- t.make owner
  else Hashtbl.remove t.parked id
