type value =
  | Int of int64
  | Float of float
  | Payload of Payload.t
  | Nested of t
  | List of value list

(* Index-addressed columns (DESIGN.md §18). [words] holds the presence
   bitmap as little-endian u32 words — the wire's own bitmap bytes — and
   then one 8-byte slot per field: the value (or float bits) of a singular
   scalar, the element count of a repeated field, unused otherwise. Every
   other kind has a column of its own, numbered by the descriptor's
   [columns.col]: singular payloads and nested messages in one array each,
   repeated fields as one growable element array per field (scalars as
   8-byte words). Element arrays keep their capacity across [clear]. *)
and t = {
  desc : Schema.Desc.message;
  words : Bytes.t;
  pays : Payload.t array;
  subs : t array;
  ints : Bytes.t array;
  plist : Payload.t array array;
  mlist : t array array;
}

exception Type_error of string

let bitmap_bytes nfields = 4 * ((nfields + 31) / 32)

(* The value a cleared nested slot holds: a message of no fields, so a
   stale child is never kept alive (or promoted) by its parent. *)
let vacant =
  {
    desc = Schema.Desc.make_message "" [||];
    words = Bytes.empty;
    pays = [||];
    subs = [||];
    ints = [||];
    plist = [||];
    mlist = [||];
  }

let create desc =
  let c = desc.Schema.Desc.columns in
  let n = Array.length desc.Schema.Desc.fields in
  {
    desc;
    words = Bytes.make (bitmap_bytes n + (8 * n)) '\000';
    pays = Array.make c.Schema.Desc.n_payload Payload.empty;
    subs = Array.make c.Schema.Desc.n_nested vacant;
    ints = Array.make c.Schema.Desc.n_scalar_list Bytes.empty;
    plist = Array.make c.Schema.Desc.n_payload_list [||];
    mlist = Array.make c.Schema.Desc.n_nested_list [||];
  }

let desc t = t.desc

(* --- presence and the word column ------------------------------------ *)

let nfields t = Array.length t.desc.Schema.Desc.fields

let slot_off t i = bitmap_bytes (nfields t) + (8 * i)

let mem t i =
  Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0
[@@alloc_free]

let mark t i =
  let b = i lsr 3 in
  Bytes.unsafe_set t.words b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.words b) lor (1 lsl (i land 7))))
[@@alloc_free]

let unmark t i =
  let b = i lsr 3 in
  Bytes.unsafe_set t.words b
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.words b) land lnot (1 lsl (i land 7))))
[@@alloc_free]

(* Bitmap word [j] (fields [32j, 32j+32)), as the wire carries it. *)
let bitmap_word t j =
  let p = 4 * j in
  Char.code (Bytes.unsafe_get t.words p)
  lor (Char.code (Bytes.unsafe_get t.words (p + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get t.words (p + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get t.words (p + 3)) lsl 24)
[@@alloc_free]

let rec popcount x acc = if x = 0 then acc else popcount (x land (x - 1)) (acc + 1)

let rec count_from t j acc =
  if 4 * j >= bitmap_bytes (nfields t) then acc
  else count_from t (j + 1) (popcount (bitmap_word t j) acc)

let present_count t = count_from t 0 0 [@@alloc_free]

let count t i = Int64.to_int (Bytes.get_int64_le t.words (slot_off t i))
[@@alloc_free]

let set_count t i n = Bytes.set_int64_le t.words (slot_off t i) (Int64.of_int n)
[@@alloc_free]

(* --- index setters and getters --------------------------------------- *)

let col t i = Array.unsafe_get t.desc.Schema.Desc.columns.Schema.Desc.col i

let set_int_at t i v =
  Bytes.set_int64_le t.words (slot_off t i) v;
  mark t i
[@@alloc_free]

let set_int_of_int t i v =
  Bytes.set_int64_le t.words (slot_off t i) (Int64.of_int v);
  mark t i
[@@alloc_free]

let set_float_at t i v =
  Bytes.set_int64_le t.words (slot_off t i) (Int64.bits_of_float v);
  mark t i
[@@alloc_free]

let int_at t i = Bytes.get_int64_le t.words (slot_off t i)

let int_of_int_at t i = Int64.to_int (Bytes.get_int64_le t.words (slot_off t i))
[@@alloc_free]

let float_at t i = Int64.float_of_bits (Bytes.get_int64_le t.words (slot_off t i))

let set_payload_at t i p =
  t.pays.(col t i) <- p;
  mark t i
[@@alloc_free]

let payload_at t i = t.pays.(col t i) [@@alloc_free]

let set_nested_at t i m =
  t.subs.(col t i) <- m;
  mark t i
[@@alloc_free]

let nested_at t i = t.subs.(col t i) [@@alloc_free]

(* Marks a repeated field present with no elements (the wire still
   carries its empty table). *)
let touch_list t i = mark t i [@@alloc_free]

(* Element arrays double when full; a pooled message keeps its grown
   arrays across [clear], so steady-state appends never reach here. *)
let grow_len n = if n < 4 then 4 else 2 * n

let grow_ints t c n =
  let b = Bytes.create (8 * grow_len n) in
  Bytes.blit t.ints.(c) 0 b 0 (8 * n);
  t.ints.(c) <- b

let grow_plist t c n =
  let a = Array.make (grow_len n) Payload.empty in
  Array.blit t.plist.(c) 0 a 0 n;
  t.plist.(c) <- a

let grow_mlist t c n =
  let a = Array.make (grow_len n) vacant in
  Array.blit t.mlist.(c) 0 a 0 n;
  t.mlist.(c) <- a

let append_int_at t i v =
  let c = col t i in
  let n = count t i in
  if 8 * (n + 1) > Bytes.length t.ints.(c) then grow_ints t c n;
  Bytes.set_int64_le t.ints.(c) (8 * n) v;
  set_count t i (n + 1);
  mark t i
[@@alloc_free]

let append_float_at t i v = append_int_at t i (Int64.bits_of_float v)
[@@alloc_free]

let append_payload_at t i p =
  let c = col t i in
  let n = count t i in
  if n >= Array.length t.plist.(c) then grow_plist t c n;
  t.plist.(c).(n) <- p;
  set_count t i (n + 1);
  mark t i
[@@alloc_free]

let append_nested_at t i m =
  let c = col t i in
  let n = count t i in
  if n >= Array.length t.mlist.(c) then grow_mlist t c n;
  t.mlist.(c).(n) <- m;
  set_count t i (n + 1);
  mark t i
[@@alloc_free]

let elem_int t i j = Bytes.get_int64_le t.ints.(col t i) (8 * j)

let elem_float t i j = Int64.float_of_bits (elem_int t i j)

let elem_payload t i j = t.plist.(col t i).(j) [@@alloc_free]

let elem_nested t i j = t.mlist.(col t i).(j) [@@alloc_free]

(* Copy the raw 8 bytes of a scalar slot (or a repeated scalar element)
   into a writer at [pos]: no int64 crosses a module boundary. *)
let write_scalar t i w ~pos =
  Cursor.Writer.word_at w ~pos t.words ~src_off:(slot_off t i)
[@@alloc_free]

let write_elem_scalar t i j w ~pos =
  Cursor.Writer.word_at w ~pos t.ints.(col t i) ~src_off:(8 * j)
[@@alloc_free]

(* Echo a validated frame's u64 field into field [i], byte for byte. *)
let set_int_of_reader t i r j =
  Reader.blit_u64 r j t.words ~dst_off:(slot_off t i);
  mark t i
[@@alloc_free]

(* Drop field [i]'s contents, keeping element arrays for reuse. Vacated
   object slots hold the shared constants. *)
let unset t i =
  let f = Array.unsafe_get t.desc.Schema.Desc.fields i in
  (match (f.Schema.Desc.label, f.Schema.Desc.ty) with
  | Schema.Desc.Singular, Schema.Desc.Scalar _ -> ()
  | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      t.pays.(col t i) <- Payload.empty
  | Schema.Desc.Singular, Schema.Desc.Message _ -> t.subs.(col t i) <- vacant
  | Schema.Desc.Repeated, Schema.Desc.Scalar _ -> ()
  | Schema.Desc.Repeated, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      Array.fill t.plist.(col t i) 0 (count t i) Payload.empty
  | Schema.Desc.Repeated, Schema.Desc.Message _ ->
      Array.fill t.mlist.(col t i) 0 (count t i) vacant);
  Bytes.set_int64_le t.words (slot_off t i) 0L;
  unmark t i
[@@alloc_free]

(* Reusable-message API: a pooled request/response object is [clear]ed (or
   [reset] when it may still own zero-copy references) and rebuilt in
   place. Only present fields are touched. *)
let clear t =
  for i = 0 to nfields t - 1 do
    if mem t i then unset t i
  done
[@@alloc_free]

(* --- by-name API ----------------------------------------------------- *)

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let rec check_kind (f : Schema.Desc.field) v =
  match (f.ty, v) with
  | Schema.Desc.Scalar _, Int _ -> ()
  | Schema.Desc.Scalar Schema.Desc.Float64, Float _ -> ()
  | (Schema.Desc.Str | Schema.Desc.Bytes), Payload _ -> ()
  | Schema.Desc.Message name, Nested m ->
      if m.desc.Schema.Desc.msg_name <> name then
        type_error "field %s expects message %s, got %s" f.field_name name
          m.desc.Schema.Desc.msg_name
  | _, List _ ->
      type_error "field %s: nested List values are not allowed" f.field_name
  | _, _ ->
      type_error "field %s: value does not match type %s" f.field_name
        (Schema.Desc.field_type_to_string f.ty)

and check_value (f : Schema.Desc.field) v =
  match (f.label, v) with
  | Schema.Desc.Repeated, List elems -> List.iter (check_kind f) elems
  | Schema.Desc.Repeated, _ ->
      type_error "repeated field %s requires a List value" f.field_name
  | Schema.Desc.Singular, List _ ->
      type_error "singular field %s cannot hold a List" f.field_name
  | Schema.Desc.Singular, _ -> check_kind f v

let index t name = Schema.Desc.field_index t.desc name

(* Store an already-checked element or singular value. *)
let store t i (f : Schema.Desc.field) v =
  match (f.label, v) with
  | Schema.Desc.Singular, Int x -> set_int_at t i x
  | Schema.Desc.Singular, Float x -> set_float_at t i x
  | Schema.Desc.Singular, Payload p -> set_payload_at t i p
  | Schema.Desc.Singular, Nested m -> set_nested_at t i m
  | Schema.Desc.Repeated, Int x -> append_int_at t i x
  | Schema.Desc.Repeated, Float x -> append_float_at t i x
  | Schema.Desc.Repeated, Payload p -> append_payload_at t i p
  | Schema.Desc.Repeated, Nested m -> append_nested_at t i m
  | _, List _ -> assert false

let set t name v =
  let i = index t name in
  let f = t.desc.Schema.Desc.fields.(i) in
  check_value f v;
  match v with
  | List elems ->
      unset t i;
      touch_list t i;
      List.iter (store t i f) elems
  | _ -> store t i f v

let elem_value t i (f : Schema.Desc.field) j =
  match f.Schema.Desc.ty with
  | Schema.Desc.Scalar Schema.Desc.Float64 -> Float (elem_float t i j)
  | Schema.Desc.Scalar _ -> Int (elem_int t i j)
  | Schema.Desc.Str | Schema.Desc.Bytes -> Payload (elem_payload t i j)
  | Schema.Desc.Message _ -> Nested (elem_nested t i j)

let value_at t i =
  let f = t.desc.Schema.Desc.fields.(i) in
  match (f.Schema.Desc.label, f.Schema.Desc.ty) with
  | Schema.Desc.Repeated, _ ->
      List (List.init (count t i) (fun j -> elem_value t i f j))
  | Schema.Desc.Singular, Schema.Desc.Scalar Schema.Desc.Float64 ->
      Float (float_at t i)
  | Schema.Desc.Singular, Schema.Desc.Scalar _ -> Int (int_at t i)
  | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
      Payload (payload_at t i)
  | Schema.Desc.Singular, Schema.Desc.Message _ -> Nested (nested_at t i)

let get t name =
  let i = index t name in
  if mem t i then Some (value_at t i) else None

let clear_field t name = unset t (index t name)

let append t name v =
  let i = index t name in
  let f = t.desc.Schema.Desc.fields.(i) in
  if f.label <> Schema.Desc.Repeated then
    type_error "append on non-repeated field %s" name;
  check_kind f v;
  store t i f v

let set_int t name v = set t name (Int v)

let get_int t name =
  match get t name with
  | Some (Int v) -> Some v
  | Some _ -> type_error "field %s is not an integer" name
  | None -> None

let set_payload t name p = set t name (Payload p)

let get_payload t name =
  match get t name with
  | Some (Payload p) -> Some p
  | Some _ -> type_error "field %s is not a payload" name
  | None -> None

let set_string t space name s = set_payload t name (Payload.of_string space s)

let get_list t name =
  match get t name with
  | Some (List elems) -> elems
  | Some v -> [ v ]
  | None -> []

let iter_present t f =
  Array.iteri
    (fun i field -> if mem t i then f i field (value_at t i))
    t.desc.Schema.Desc.fields

(* --- whole-message traversals ---------------------------------------- *)

(* [on_payload] sees every payload in serialization order (depth-first,
   field order); [None] leaves it in place, [Some p'] replaces it. *)
let rec rewrite_payloads t f =
  let fields = t.desc.Schema.Desc.fields in
  for i = 0 to Array.length fields - 1 do
    if mem t i then
      match (fields.(i).Schema.Desc.label, fields.(i).Schema.Desc.ty) with
      | _, Schema.Desc.Scalar _ -> ()
      | Schema.Desc.Singular, (Schema.Desc.Str | Schema.Desc.Bytes) ->
          let p = payload_at t i in
          let p' = f p in
          if p' != p then t.pays.(col t i) <- p'
      | Schema.Desc.Singular, Schema.Desc.Message _ ->
          rewrite_payloads (nested_at t i) f
      | Schema.Desc.Repeated, (Schema.Desc.Str | Schema.Desc.Bytes) ->
          let arr = t.plist.(col t i) in
          for j = 0 to count t i - 1 do
            let p = arr.(j) in
            let p' = f p in
            if p' != p then arr.(j) <- p'
          done
      | Schema.Desc.Repeated, Schema.Desc.Message _ ->
          for j = 0 to count t i - 1 do
            rewrite_payloads (elem_nested t i j) f
          done
  done

let map_payloads t f = rewrite_payloads t f

let fold_payloads t ~init ~f =
  let acc = ref init in
  rewrite_payloads t (fun p ->
      acc := f !acc p;
      p);
  !acc

let payload_bytes t = fold_payloads t ~init:0 ~f:(fun a p -> a + Payload.len p)

let release ~cpu t =
  rewrite_payloads t (fun p ->
      Payload.release ~cpu p;
      p)

let reset ~cpu t =
  release ~cpu t;
  clear t

let rec equal_value a b =
  match (a, b) with
  | Int x, Int y -> Int64.equal x y
  | Float x, Float y -> Float.equal x y
  | Payload x, Payload y -> String.equal (Payload.to_string x) (Payload.to_string y)
  | Nested x, Nested y -> equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal_value xs ys
  | _, _ -> false

and equal a b =
  a.desc.Schema.Desc.msg_name = b.desc.Schema.Desc.msg_name
  && nfields a = nfields b
  &&
  let ok = ref true in
  for i = 0 to nfields a - 1 do
    match (mem a i, mem b i) with
    | false, false -> ()
    | true, true ->
        if not (equal_value (value_at a i) (value_at b i)) then ok := false
    | _, _ -> ok := false
  done;
  !ok

let rec pp_value ppf = function
  | Int v -> Format.fprintf ppf "%Ld" v
  | Float v -> Format.fprintf ppf "%g" v
  | Payload p ->
      let s = Payload.to_string p in
      if String.length s <= 16 then Format.fprintf ppf "%S" s
      else Format.fprintf ppf "<%d bytes>" (String.length s)
  | Nested m -> pp ppf m
  | List elems ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_value)
        elems

and pp ppf t =
  Format.fprintf ppf "@[<hv 2>%s {" t.desc.Schema.Desc.msg_name;
  iter_present t (fun _ f v ->
      Format.fprintf ppf "@ %s = %a;" f.Schema.Desc.field_name pp_value v);
  Format.fprintf ppf "@;<1 -2>}@]"
