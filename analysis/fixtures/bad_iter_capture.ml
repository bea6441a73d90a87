(* StatCheck fixture: closures an [@@alloc_free] path builds without a
   [fun] in sight. NOT part of the build — parsed by the analyzer only.

   [measure] passes a partial application to [List.iter] (a closure per
   call), and [field_index] searches with a local [let rec] that captures
   the message and the name (a closure per call). Expected: SC-ALLOC (x2,
   one of each). *)

let measure_value plan v = plan.len <- plan.len + String.length v

let measure plan values = List.iter (measure_value plan) values
[@@alloc_free]

let field_index msg name =
  let n = Array.length msg.fields in
  let rec go i =
    if i >= n then raise Not_found
    else if msg.fields.(i) = name then i
    else go (i + 1)
  in
  go 0
[@@alloc_free]
