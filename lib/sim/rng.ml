(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   record field would re-box the state on every step. The raw load/store
   primitives compile to single machine moves, and within this module the
   step and the finalizer are inlined, so the int64 arithmetic of a draw
   stays in registers. Only a result that crosses a module boundary as an
   [int64] or a [float] is boxed. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] step t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let next_int64 t = step t

let split t = of_state (step t)

(* Raw state save/restore: a packed connection table keeps millions of
   per-connection SplitMix64 streams as 8 bytes each and rehydrates them
   into one scratch generator, instead of allocating a [t] per stream. *)
let state t = get64 t 0

let set_state t s = set64 t 0 s

(* Job-splitting streams: the parallel harness gives job [i] the generator
   [stream ~seed ~index:i]. Double-mixing the (seed, index) pair scatters
   the initial states across the whole 2^64 SplitMix orbit, so streams for
   distinct indices under one seed are distinct and (for any prefix a
   simulation can consume) non-overlapping. *)
let stream ~seed ~index =
  if index < 0 then invalid_arg "Rng.stream: negative index";
  let base = mix64 (Int64.of_int seed) in
  let salt = Int64.mul golden_gamma (Int64.of_int (index + 1)) in
  of_state (mix64 (Int64.logxor base salt))

let stream_seed ~seed ~index = Int64.to_int (state (stream ~seed ~index))

let[@inline] unit_float t =
  (* 53 high bits give a uniform double in [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (step t) 11)
  *. (1.0 /. 9007199254740992.0)

let float t = unit_float t

let int t bound =
  assert (bound > 0);
  (Int64.to_int (step t) land max_int) mod bound

let bool t p = unit_float t < p
