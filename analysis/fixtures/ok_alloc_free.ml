(* StatCheck fixture: allocation-free shapes the [@@alloc_free] lint must
   accept. NOT part of the build — parsed by the analyzer only.

   A match on a tuple of expressions builds no tuple; a local function
   that captures nothing is a static closure (its body is still checked);
   a top-level function passed to an iterator is no allocation. Expected:
   no findings. *)

let measure_value v = ignore (String.length v)

let kind label ty =
  match (label, ty) with
  | `Singular, `Scalar -> 0
  | `Singular, _ -> 1
  | `Repeated, _ -> 2
[@@alloc_free]

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0
[@@alloc_free]

let measure values = List.iter measure_value values [@@alloc_free]
