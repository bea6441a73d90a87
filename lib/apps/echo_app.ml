type mode =
  | Lib of Backend.t
  | No_serialization
  | Zero_copy_raw
  | Zero_copy_safe
  | One_copy
  | Two_copy

let mode_name = function
  | Lib b -> b.Backend.name
  | No_serialization -> "no-serialization"
  | Zero_copy_raw -> "zero-copy"
  | Zero_copy_safe -> "zero-copy-safe"
  | One_copy -> "one-copy"
  | Two_copy -> "two-copy"

type t = {
  rig : Rig.t;
  mode : mode;
  (* Pooled per-app message objects; the stack owns any zero-copy refs
     after send, so [Dyn.clear] between uses, never [reset]. *)
  resp_scratch : Wire.Dyn.t;
  req_scratch : Wire.Dyn.t;
  resp_reader : Wire.Reader.t; (* client-side response parse *)
}

let lib_handler t backend ~src buf =
  let rig = t.rig in
  let cpu = rig.Rig.cpu in
  let tr = rig.Rig.server_tr in
  let req = backend.Backend.recv tr Proto.resp buf in
  let resp = t.resp_scratch in
  Wire.Dyn.clear resp;
  if Wire.Dyn.mem req Proto.resp_id then
    Wire.Dyn.set_int_at resp Proto.resp_id (Wire.Dyn.int_at req Proto.resp_id);
  for j = 0 to Wire.Dyn.count req Proto.resp_vals - 1 do
    let p = Wire.Dyn.elem_payload req Proto.resp_vals j in
    let payload = backend.Backend.wrap tr (Wire.Payload.view p) in
    Wire.Dyn.append_payload_at resp Proto.resp_vals payload
  done;
  backend.Backend.send tr ~dst:src resp;
  Wire.Dyn.release ~cpu req;
  Mem.Pinned.Buf.decr_ref ~cpu buf

let manual_handler rig mode ~src buf =
  let cpu = rig.Rig.cpu in
  let tr = rig.Rig.server_tr in
  match mode with
  | No_serialization ->
      (* Pure L3 forward: the receive buffer itself is retransmitted. *)
      Baselines.Manual.forward tr ~dst:src buf
  | _ ->
      let fields = Baselines.Manual.parse ~cpu (Mem.Pinned.Buf.view buf) in
      (match mode with
      | Zero_copy_raw ->
          Baselines.Manual.send_zero_copy ~safety:`Raw tr ~dst:src fields
      | Zero_copy_safe ->
          Baselines.Manual.send_zero_copy ~safety:`Safe tr ~dst:src fields
      | One_copy -> Baselines.Manual.send_one_copy tr ~dst:src fields
      | Two_copy -> Baselines.Manual.send_two_copy tr ~dst:src fields
      | Lib _ | No_serialization -> assert false);
      Mem.Pinned.Buf.decr_ref ~cpu buf

let install rig mode =
  let t =
    {
      rig;
      mode;
      resp_scratch = Wire.Dyn.create Proto.resp;
      req_scratch = Wire.Dyn.create Proto.resp;
      resp_reader = Kv_rpc.Resp.reader ~cpu:Memmodel.Cpu.none ();
    }
  in
  (match mode with
  | Lib backend ->
      Loadgen.Server.set_handler rig.Rig.server (fun ~src buf ->
          lib_handler t backend ~src buf)
  | _ ->
      Loadgen.Server.set_handler rig.Rig.server (fun ~src buf ->
          manual_handler rig mode ~src buf));
  t

let send_request t ~sizes client ~dst ~id =
  match t.mode with
  | Lib backend ->
      let space = t.rig.Rig.space in
      let msg = t.req_scratch in
      Wire.Dyn.clear msg;
      Wire.Dyn.set_int_of_int msg Proto.resp_id id;
      List.iter
        (fun n ->
          Wire.Dyn.append_payload_at msg Proto.resp_vals
            (Wire.Payload.of_string space (Workload.Spec.filler (max 1 n))))
        sizes;
      backend.Backend.send client ~dst msg;
      Mem.Arena.reset (Net.Transport.arena client)
  | _ ->
      (* Manual framing; FIFO matching, so the id is not encoded. *)
      let body =
        let buf = Buffer.create 256 in
        let u32 v =
          Buffer.add_char buf (Char.chr (v land 0xff));
          Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
          Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
          Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))
        in
        u32 (List.length sizes);
        List.iter u32 sizes;
        List.iter (fun n -> Buffer.add_string buf (Workload.Spec.filler n)) sizes;
        Buffer.contents buf
      in
      Net.Transport.send_string client ~dst body

let parse_id t =
  match t.mode with
  | Lib backend ->
      Some
        (Backend.response_id backend t.resp_reader ~clients:t.rig.Rig.clients)
  | _ -> None
