(* Mini-Redis demo: RESP commands against the store, served once with
   Redis's handwritten serialization and once with Cornflakes replies.

   Run with:  dune exec examples/redis_demo.exe *)

let print_resp rig label s =
  let view = Mem.View.of_string rig.Apps.Rig.space s in
  match Mini_redis.Resp.decode ~cpu:Memmodel.Cpu.none view with
  | v -> Format.printf "%s -> %a@." label Mini_redis.Resp.pp v
  | exception Mini_redis.Resp.Protocol_error _ ->
      Printf.printf "%s -> (non-RESP reply, %d bytes)\n" label (String.length s)

let run_command rig label cmd ~print =
  let client = List.hd rig.Apps.Rig.clients in
  let got = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      got := Some (Mem.View.to_string (Mem.Pinned.Buf.view buf));
      Mem.Pinned.Buf.decr_ref ~cpu:Memmodel.Cpu.none buf);
  Net.Transport.send_string client ~dst:Apps.Rig.server_id
    (Mini_redis.Resp.to_string rig.Apps.Rig.space
       (Mini_redis.Resp.command rig.Apps.Rig.space cmd));
  Sim.Engine.run_all rig.Apps.Rig.engine;
  match !got with
  | Some reply -> print rig label reply
  | None -> Printf.printf "%s -> (no reply)\n" label

let demo mode =
  Printf.printf "--- %s ---\n" (Mini_redis.Server.mode_name mode);
  let rig = Apps.Rig.create ~n_clients:1 () in
  let workload = Workload.Ycsb.make ~n_keys:64 ~entries:2 ~entry_size:900 () in
  let _srv = Mini_redis.Server.install rig mode ~workload ~list_values:true in
  let key1 = Printf.sprintf "user%026d" 1 in
  run_command rig "SET fruit apple" [ "SET"; "fruit"; "apple" ] ~print:print_resp;
  run_command rig "GET fruit" [ "GET"; "fruit" ] ~print:print_resp;
  run_command rig "MGET fruit nosuch" [ "MGET"; "fruit"; "nosuch" ]
    ~print:print_resp;
  run_command rig
    ("LRANGE " ^ String.sub key1 0 8 ^ "... 0 -1")
    [ "LRANGE"; key1; "0"; "-1" ]
    ~print:(fun rig label s ->
      match mode with
      | Mini_redis.Server.Native -> print_resp rig label s
      | Mini_redis.Server.Cornflakes_backed _ ->
          (* Cornflakes replies are Cornflakes objects, not RESP. *)
          ignore rig;
          Printf.printf "%s -> cornflakes object, %d bytes on the wire\n" label
            (String.length s))

let () =
  demo Mini_redis.Server.Native;
  demo (Mini_redis.Server.Cornflakes_backed Cornflakes.Config.default)
