type t = { zero_copy_threshold : int; serialize_and_send : bool }

let default = { zero_copy_threshold = 512; serialize_and_send = true }

let all_zero_copy = { default with zero_copy_threshold = 0 }

let all_copy = { default with zero_copy_threshold = max_int }

let with_threshold n = { default with zero_copy_threshold = n }

(* The RefSan toggle rides on the runtime config: [CF_SANITIZE=1] in the
   environment enables it at startup, and harnesses flip it per run. *)
let sanitize () = Sanitizer.Refsan.is_enabled ()

let set_sanitize on = Sanitizer.Refsan.set_enabled on

let pp ppf t =
  let threshold =
    if t.zero_copy_threshold = max_int then "inf"
    else string_of_int t.zero_copy_threshold
  in
  Format.fprintf ppf "{threshold=%s; serialize_and_send=%b}" threshold
    t.serialize_and_send
