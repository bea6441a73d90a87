type kind =
  | Alloc
  | Incref
  | Decref
  | Sub
  | Free
  | Dma_post
  | Dma_complete
  | Write
  | Root
  | Unroot

type t = { seq : int; kind : kind; site : string }

let kind_to_string = function
  | Alloc -> "alloc"
  | Incref -> "incref"
  | Decref -> "decref"
  | Sub -> "sub"
  | Free -> "free"
  | Dma_post -> "dma-post"
  | Dma_complete -> "dma-complete"
  | Write -> "write"
  | Root -> "root"
  | Unroot -> "unroot"

let to_string e =
  Printf.sprintf "#%d %-12s @ %s" e.seq (kind_to_string e.kind) e.site

let pp ppf e = Format.pp_print_string ppf (to_string e)

(* Does this event take (+1) or release (-1) a reference? *)
let ref_delta = function
  | Alloc | Incref -> 1
  | Decref -> -1
  | _ -> 0
