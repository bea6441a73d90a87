(* Struct-of-arrays binary heap: keys live in two flat [int] arrays beside
   the payload array, so a push or pop moves words between arrays and
   allocates nothing (the arrays double on growth). Sifting moves a hole
   instead of swapping entries. A vacated payload slot is overwritten with
   [dummy], so the heap never keeps a popped payload reachable. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { times = [||]; seqs = [||]; payloads = [||]; len = 0; dummy }

let length t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let times = Array.make ncap 0 in
  let seqs = Array.make ncap 0 in
  let payloads = Array.make ncap t.dummy in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* Is the entry at [i] ordered before the key [(time, seq)]? *)
let before t i ~time ~seq =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let set t i ~time ~seq payload =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.payloads i payload

let move t ~src ~dst =
  set t dst ~time:(Array.unsafe_get t.times src)
    ~seq:(Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.payloads src)

(* Move the hole at [i] up past every parent ordered after the key, then
   fill it. *)
let rec sift_up t i ~time ~seq payload =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before t parent ~time ~seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent ~time ~seq payload
  end
  else set t i ~time ~seq payload

(* Move the hole at [i] down past every smaller child, then fill it. *)
let rec sift_down t i ~time ~seq payload =
  let l = (2 * i) + 1 in
  if l >= t.len then set t i ~time ~seq payload
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
      sift_down t c ~time ~seq payload
    end
    else set t i ~time ~seq payload
  end

let push t ~time ~seq payload =
  if t.len = Array.length t.times then grow t;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i ~time ~seq payload
[@@alloc_free]

(* Remove the root: the last entry refills the hole from the top, and its
   old slot is cleared. *)
let remove_min t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then
    sift_down t 0
      ~time:(Array.unsafe_get t.times last)
      ~seq:(Array.unsafe_get t.seqs last)
      (Array.unsafe_get t.payloads last);
  Array.unsafe_set t.payloads last t.dummy

let pop_min t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) and payload = t.payloads.(0) in
    remove_min t;
    Some (time, seq, payload)
  end

let pop_into t f =
  if t.len = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 in
    let payload = Array.unsafe_get t.payloads 0 in
    remove_min t;
    f time payload;
    true
  end
[@@alloc_free]

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get t.times 0
