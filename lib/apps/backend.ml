type t = {
  name : string;
  send : Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit;
  (* A fixed fact of the wire format: [None] exactly for Cornflakes. *)
  recv :
    (Net.Transport.t -> Schema.Desc.message -> Mem.Pinned.Buf.t -> Wire.Dyn.t)
    option;
  wrap : Net.Transport.t -> Mem.View.t -> Wire.Payload.t;
  wrap_buf : Net.Transport.t -> Mem.Pinned.Buf.t -> Wire.Payload.t;
}

let cornflakes ?(config = Cornflakes.Config.default) () =
  {
    name =
      (if config = Cornflakes.Config.default then "cornflakes"
       else if config = Cornflakes.Config.all_copy then "cornflakes-copy"
       else if config = Cornflakes.Config.all_zero_copy then "cornflakes-zc"
       else
         Printf.sprintf "cornflakes-t%d%s"
           (Cornflakes.Adaptive.threshold config.Cornflakes.Config.zero_copy)
           (if config.Cornflakes.Config.serialize_and_send then "" else "-nosas"));
    send = (fun tr ~dst msg -> Cornflakes.Send.send_via config tr ~dst msg);
    recv = None;
    wrap =
      (fun tr view ->
        Cornflakes.Cf_ptr.make ~cpu:(Net.Transport.cpu tr) config
          (Net.Transport.endpoint tr) view);
    wrap_buf =
      (fun tr buf ->
        Cornflakes.Cf_ptr.make_buf ~cpu:(Net.Transport.cpu tr) config
          (Net.Transport.endpoint tr) buf);
  }

let literal_wrap _tr view = Wire.Payload.Literal view

let literal_wrap_buf _tr buf = Wire.Payload.Literal (Mem.Pinned.Buf.view buf)

(* Setting a bytes field on a Protobuf struct copies the data into the
   message object (paper section 8: "applications still move data from
   in-memory data structures to Protobuf objects"); SerializeTo* then moves
   it again into the output buffer. The first copy is the cold one. *)
let protobuf_wrap tr view =
  Wire.Payload.Copied
    (Mem.Arena.copy_in ~cpu:(Net.Transport.cpu tr) (Net.Transport.arena tr)
       view)

let protobuf_wrap_buf tr buf =
  Wire.Payload.Copied
    (Mem.Arena.copy_in_buf ~cpu:(Net.Transport.cpu tr) (Net.Transport.arena tr)
       buf)

let protobuf =
  {
    name = "protobuf";
    send = Baselines.Protobuf.serialize_and_send;
    recv =
      Some
        (fun tr desc buf ->
          Baselines.Protobuf.deserialize ~cpu:(Net.Transport.cpu tr)
            (Net.Transport.endpoint tr) Proto.schema desc buf);
    wrap = protobuf_wrap;
    wrap_buf = protobuf_wrap_buf;
  }

let flatbuffers =
  {
    name = "flatbuffers";
    send = Baselines.Flatbuf.serialize_and_send;
    recv =
      Some
        (fun tr desc buf ->
          Baselines.Flatbuf.deserialize ~cpu:(Net.Transport.cpu tr) Proto.schema
            desc buf);
    wrap = literal_wrap;
    wrap_buf = literal_wrap_buf;
  }

let capnproto =
  {
    name = "capnproto";
    send = Baselines.Capnp.serialize_and_send;
    recv =
      Some
        (fun tr desc buf ->
          Baselines.Capnp.deserialize ~cpu:(Net.Transport.cpu tr) Proto.schema
            desc buf);
    wrap = literal_wrap;
    wrap_buf = literal_wrap_buf;
  }

let all = [ cornflakes (); protobuf; flatbuffers; capnproto ]

let by_name name =
  match List.find_opt (fun b -> b.name = name) all with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Backend.by_name: %s" name)

let parser t tr desc = Option.map (fun recv -> recv tr desc) t.recv

let response_id t ~clients =
  let id_of (type r) (module D : Kv_rpc.Resp.R with type t = r) (resp : r) buf
      =
    let id =
      match D.decode resp buf with
      | exception Wire.Reader.Invalid _ -> -1
      | () ->
          let id = if D.has_id resp then D.id resp else -1 in
          D.finish resp;
          id
    in
    List.iter (fun c -> Mem.Arena.reset (Net.Transport.arena c)) clients;
    id
  in
  match
    Kv_rpc.Resp.decoder ~cpu:Memmodel.Cpu.none
      (parser t (List.hd clients) Proto.resp)
  with
  | Kv_rpc.Resp.Decoder (d, resp) -> id_of d resp
