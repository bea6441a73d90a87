type t = {
  name : string;
  (* A fixed fact of the wire format, not an option: [true] exactly for
     Cornflakes, whose frames servers validate once and read in place
     ([Wire.Reader], the generated skeleton's [serve]); [false] for the
     baselines, whose frames only their own decoders can read ([recv]
     into a [Wire.Dyn] for [serve_dyn]). *)
  zc_rx : bool;
  send : Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit;
  recv :
    Net.Transport.t -> Schema.Desc.message -> Mem.Pinned.Buf.t -> Wire.Dyn.t;
  wrap : Net.Transport.t -> Mem.View.t -> Wire.Payload.t;
}

let cornflakes ?(config = Cornflakes.Config.default) () =
  {
    name =
      (if config = Cornflakes.Config.default then "cornflakes"
       else if config = Cornflakes.Config.all_copy then "cornflakes-copy"
       else if config = Cornflakes.Config.all_zero_copy then "cornflakes-zc"
       else
         Printf.sprintf "cornflakes-t%d%s" config.Cornflakes.Config.zero_copy_threshold
           (if config.Cornflakes.Config.serialize_and_send then "" else "-nosas"));
    zc_rx = true;
    send = (fun tr ~dst msg -> Cornflakes.Send.send_via config tr ~dst msg);
    recv =
      (fun tr desc buf ->
        Cornflakes.Send.deserialize ~cpu:(Net.Transport.cpu tr) Proto.schema
          desc buf);
    wrap =
      (fun tr view ->
        Cornflakes.Cf_ptr.make ~cpu:(Net.Transport.cpu tr) config
          (Net.Transport.endpoint tr) view);
  }

let literal_wrap _tr view = Wire.Payload.Literal view

(* Setting a bytes field on a Protobuf struct copies the data into the
   message object (paper section 8: "applications still move data from
   in-memory data structures to Protobuf objects"); SerializeTo* then moves
   it again into the output buffer. The first copy is the cold one. *)
let protobuf_wrap tr view =
  Wire.Payload.Copied
    (Mem.Arena.copy_in ~cpu:(Net.Transport.cpu tr) (Net.Transport.arena tr)
       view)

let protobuf =
  {
    name = "protobuf";
    zc_rx = false;
    send = Baselines.Protobuf.serialize_and_send;
    recv =
      (fun tr desc buf ->
        Baselines.Protobuf.deserialize ~cpu:(Net.Transport.cpu tr)
          (Net.Transport.endpoint tr) Proto.schema desc buf);
    wrap = protobuf_wrap;
  }

let flatbuffers =
  {
    name = "flatbuffers";
    zc_rx = false;
    send = Baselines.Flatbuf.serialize_and_send;
    recv =
      (fun tr desc buf ->
        Baselines.Flatbuf.deserialize ~cpu:(Net.Transport.cpu tr) Proto.schema
          desc buf);
    wrap = literal_wrap;
  }

let capnproto =
  {
    name = "capnproto";
    zc_rx = false;
    send = Baselines.Capnp.serialize_and_send;
    recv =
      (fun tr desc buf ->
        Baselines.Capnp.deserialize ~cpu:(Net.Transport.cpu tr) Proto.schema
          desc buf);
    wrap = literal_wrap;
  }

let all = [ cornflakes (); protobuf; flatbuffers; capnproto ]

let by_name name =
  match List.find_opt (fun b -> b.name = name) all with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Backend.by_name: %s" name)

let response_id t reader ~clients buf =
  let id =
    if t.zc_rx then
      match Kv_rpc.Resp.read_folded reader buf with
      | () -> Wire.Reader.get_u64_or reader Proto.resp_id ~default:(-1L)
      | exception Wire.Reader.Invalid _ -> -1L
    else begin
      let msg = t.recv (List.hd clients) Proto.resp buf in
      let id =
        if Wire.Dyn.mem msg Proto.resp_id then Wire.Dyn.int_at msg Proto.resp_id
        else -1L
      in
      Wire.Dyn.release ~cpu:Memmodel.Cpu.none msg;
      id
    end
  in
  List.iter (fun c -> Mem.Arena.reset (Net.Transport.arena c)) clients;
  Int64.to_int id
