(* Struct-of-arrays binary heap that sifts only ints. The heap arrays hold
   each entry's key ([times], [seqs]) and the index of its payload's slot
   ([slots]); payloads live in a slot table that sifting never touches. A
   payload is written once, at push, and overwritten with [dummy] once, at
   pop, so the heap never keeps a popped payload reachable, and a sift
   moves plain ints with no write barrier per level. Free slots form a
   stack; every array grows (doubling) together, so [len + nfree] is the
   capacity and push and pop allocate nothing once grown. Sifting moves a
   hole instead of swapping entries. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array; (* heap position -> payload slot *)
  mutable payloads : 'a array; (* payload slot -> payload or [dummy] *)
  mutable free : int array; (* free payload slots, [nfree] of them *)
  mutable nfree : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    free = [||];
    nfree = 0;
    len = 0;
    dummy;
  }

let length t = t.len

let is_empty t = t.len = 0

(* Called only when every slot is taken ([nfree = 0], [len = cap]): the new
   slots [cap .. ncap - 1] all go on the free stack. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let extend a = Array.append a (Array.make (ncap - cap) 0) in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.slots <- extend t.slots;
  t.payloads <- Array.append t.payloads (Array.make (ncap - cap) t.dummy);
  t.free <- Array.init ncap (fun i -> ncap - 1 - i);
  t.nfree <- ncap - cap

(* Is the entry at [i] ordered before the key [(time, seq)]? *)
let[@inline] before t i ~time ~seq =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let[@inline] set t i ~time ~seq slot =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.slots i slot

let[@inline] move t ~src ~dst =
  set t dst ~time:(Array.unsafe_get t.times src)
    ~seq:(Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.slots src)

(* Move the hole at [i] up past every parent ordered after the key, then
   fill it. *)
let rec sift_up t i ~time ~seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before t parent ~time ~seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent ~time ~seq slot
  end
  else set t i ~time ~seq slot

(* Move the hole at [i] down past every smaller child, then fill it. *)
let rec sift_down t i ~time ~seq slot =
  let l = (2 * i) + 1 in
  if l >= t.len then set t i ~time ~seq slot
  else begin
    let r = l + 1 in
    let c =
      if r < t.len
         && before t r ~time:(Array.unsafe_get t.times l)
              ~seq:(Array.unsafe_get t.seqs l)
      then r
      else l
    in
    if before t c ~time ~seq then begin
      move t ~src:c ~dst:i;
      sift_down t c ~time ~seq slot
    end
    else set t i ~time ~seq slot
  end

let push t ~time ~seq payload =
  if t.nfree = 0 then grow t;
  let nfree = t.nfree - 1 in
  t.nfree <- nfree;
  let slot = Array.unsafe_get t.free nfree in
  Array.unsafe_set t.payloads slot payload;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i ~time ~seq slot
[@@alloc_free]

(* Remove the root and return its payload: the root's slot is cleared and
   freed, and the last entry refills the hole from the top. *)
let remove_min t =
  let slot = Array.unsafe_get t.slots 0 in
  let payload = Array.unsafe_get t.payloads slot in
  Array.unsafe_set t.payloads slot t.dummy;
  Array.unsafe_set t.free t.nfree slot;
  t.nfree <- t.nfree + 1;
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then
    sift_down t 0
      ~time:(Array.unsafe_get t.times last)
      ~seq:(Array.unsafe_get t.seqs last)
      (Array.unsafe_get t.slots last);
  payload

let pop_min t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) in
    Some (time, seq, remove_min t)
  end

let pop_into t f =
  if t.len = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 in
    let payload = remove_min t in
    f time payload;
    true
  end
[@@alloc_free]

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get t.times 0

let min_seq t =
  if t.len = 0 then invalid_arg "Heap.min_seq: empty heap";
  Array.unsafe_get t.seqs 0
