type t = { zero_copy : Adaptive.t; serialize_and_send : bool }

let default = { zero_copy = Adaptive.fixed 512; serialize_and_send = true }

let all_zero_copy = { default with zero_copy = Adaptive.fixed 0 }

let all_copy = { default with zero_copy = Adaptive.fixed max_int }

let with_threshold n = { default with zero_copy = Adaptive.fixed n }

(* The RefSan toggle rides on the runtime config: [CF_SANITIZE=1] in the
   environment enables it at startup, and harnesses flip it per run. *)
let sanitize () = Sanitizer.Refsan.is_enabled ()

let set_sanitize on = Sanitizer.Refsan.set_enabled on
