type value =
  | Simple of string
  | Error of string
  | Int of int
  | Bulk of Mem.View.t
  | Null
  | Array of value list

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let digits n = String.length (string_of_int n)

let rec encoded_len = function
  | Simple s -> 1 + String.length s + 2
  | Error s -> 1 + String.length s + 2
  | Int n -> 1 + digits n + 2
  | Bulk v -> 1 + digits v.Mem.View.len + 2 + v.Mem.View.len + 2
  | Null -> 5 (* $-1\r\n *)
  | Array elems ->
      1 + digits (List.length elems) + 2
      + List.fold_left (fun acc e -> acc + encoded_len e) 0 elems

let crlf w = Wire.Cursor.Writer.string w "\r\n"

let rec encode w v =
  let module W = Wire.Cursor.Writer in
  match v with
  | Simple s ->
      W.string w "+";
      W.string w s;
      crlf w
  | Error s ->
      W.string w "-";
      W.string w s;
      crlf w
  | Int n ->
      W.string w ":";
      W.string w (string_of_int n);
      crlf w
  | Bulk view ->
      W.string w "$";
      W.string w (string_of_int view.Mem.View.len);
      crlf w;
      W.view_bytes w view;
      crlf w
  | Null -> W.string w "$-1\r\n"
  | Array elems ->
      W.string w "*";
      W.string w (string_of_int (List.length elems));
      crlf w;
      List.iter (fun e -> encode w e) elems

type parser_state = {
  view : Mem.View.t;
  r : Wire.Cursor.Reader.t;
}

let read_line st =
  let module R = Wire.Cursor.Reader in
  let buf = Buffer.create 16 in
  let rec go () =
    if R.remaining st.r < 2 then fail "unterminated line";
    let c = Char.chr (R.u8 st.r) in
    if c = '\r' then begin
      let lf = Char.chr (R.u8 st.r) in
      if lf <> '\n' then fail "bad line terminator"
    end
    else begin
      Buffer.add_char buf c;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let read_int_line st =
  let s = read_line st in
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail "bad integer %S" s

let rec read_value st =
  let module R = Wire.Cursor.Reader in
  if R.remaining st.r < 1 then fail "empty input";
  match Char.chr (R.u8 st.r) with
  | '+' -> Simple (read_line st)
  | '-' -> Error (read_line st)
  | ':' -> Int (read_int_line st)
  | '$' ->
      let len = read_int_line st in
      if len = -1 then Null
      else if len < 0 || len > R.remaining st.r - 2 then fail "bad bulk length %d" len
      else begin
        let v = R.sub st.r ~len in
        let cr = R.u8 st.r and lf = R.u8 st.r in
        if cr <> Char.code '\r' || lf <> Char.code '\n' then
          fail "bulk not terminated";
        Bulk v
      end
  | '*' ->
      let n = read_int_line st in
      if n < 0 || n > 1_000_000 then fail "bad array length %d" n;
      Array (List.init n (fun _ -> read_value st))
  | c -> fail "unexpected type byte %C" c

let decode ~cpu view =
  let st = { view; r = Wire.Cursor.Reader.create ~cpu view } in
  let v = read_value st in
  if Wire.Cursor.Reader.remaining st.r <> 0 then fail "trailing bytes";
  v

let to_string space v =
  let data = Bytes.create (encoded_len v) in
  let view =
    Mem.View.make
      ~addr:(Mem.Addr_space.reserve space ~bytes:(Bytes.length data))
      ~data ~off:0 ~len:(Bytes.length data)
  in
  let w = Wire.Cursor.Writer.create ~cpu:Memmodel.Cpu.none view in
  encode w v;
  Bytes.to_string data

let rec equal a b =
  match (a, b) with
  | Simple x, Simple y | Error x, Error y -> String.equal x y
  | Int x, Int y -> x = y
  | Bulk x, Bulk y -> String.equal (Mem.View.to_string x) (Mem.View.to_string y)
  | Null, Null -> true
  | Array xs, Array ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | _, _ -> false

let rec pp ppf = function
  | Simple s -> Format.fprintf ppf "+%s" s
  | Error s -> Format.fprintf ppf "-%s" s
  | Int n -> Format.fprintf ppf ":%d" n
  | Bulk v ->
      if v.Mem.View.len <= 32 then Format.fprintf ppf "%S" (Mem.View.to_string v)
      else Format.fprintf ppf "<bulk %d>" v.Mem.View.len
  | Null -> Format.fprintf ppf "(nil)"
  | Array elems ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        elems

let command space parts =
  Array (List.map (fun s -> Bulk (Mem.View.of_string space s)) parts)
