type t = {
  engine : Sim.Engine.t;
  one_way_delay_ns : int;
  mutable loss_rate : float;
  rng : Sim.Rng.t;
  (* Endpoint id -> its arrival function (count, receive, release), built
     once at attach. Each scheduled arrival owns one reference on the
     frame: the receiving NIC copies it into a posted rx buffer
     synchronously in [rx], so the frame goes back to the sender's pool as
     soon as its last delivery (or drop) is accounted. *)
  endpoints : (int, Nic.Device.wire -> unit) Hashtbl.t;
  mutable delivered : int;
  mutable dropped : int;
  dropped_by_dst : (int, int) Hashtbl.t;
  mutable injector : Faults.Injector.t option;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable reordered : int;
}

let check_loss_rate r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Fabric: loss rate %g outside [0,1]" r)

let create ?(one_way_delay_ns = 850) ?(loss_rate = 0.0) engine =
  check_loss_rate loss_rate;
  {
    engine;
    one_way_delay_ns;
    loss_rate;
    rng = Sim.Rng.create ~seed:0x5eed_fab;
    endpoints = Hashtbl.create 64;
    delivered = 0;
    dropped = 0;
    dropped_by_dst = Hashtbl.create 16;
    injector = None;
    corrupted = 0;
    duplicated = 0;
    delayed = 0;
    reordered = 0;
  }

let engine t = t.engine

let one_way_delay_ns t = t.one_way_delay_ns

let attach t ~id ~rx =
  if Hashtbl.mem t.endpoints id then
    invalid_arg (Printf.sprintf "Fabric.attach: duplicate endpoint %d" id);
  Hashtbl.replace t.endpoints id (fun w ->
      t.delivered <- t.delivered + 1;
      rx w;
      Nic.Device.wire_release w)

let set_loss_rate t r =
  check_loss_rate r;
  t.loss_rate <- r

let set_injector t inj = t.injector <- inj

let injector t = t.injector

let drop t ~dst =
  t.dropped <- t.dropped + 1;
  let prev = Option.value (Hashtbl.find_opt t.dropped_by_dst dst) ~default:0 in
  Hashtbl.replace t.dropped_by_dst dst (prev + 1)

let fault_for t ~dst =
  match t.injector with
  | None -> None
  | Some inj ->
      Faults.Injector.fabric_decision inj ~now:(Sim.Engine.now t.engine) ~dst

let inject t w =
  let dst =
    Packet.dst_of_bytes (Nic.Device.wire_bytes w) ~len:(Nic.Device.wire_len w)
  in
  let lost = t.loss_rate > 0.0 && Sim.Rng.bool t.rng t.loss_rate in
  if lost then begin
    drop t ~dst;
    Nic.Device.wire_release w
  end
  else
    match Hashtbl.find t.endpoints dst with
    | exception Not_found ->
        drop t ~dst;
        Nic.Device.wire_release w
    | arrive -> (
        (* Each hop rides the frame's own continuation. *)
        match fault_for t ~dst with
        | Some `Drop ->
            drop t ~dst;
            Nic.Device.wire_release w
        | Some `Corrupt ->
            (* Wire corruption: the receiving NIC's FCS check catches the
               mangled frame and discards it before the host sees it, so a
               corrupt packet is a (separately counted) drop. *)
            t.corrupted <- t.corrupted + 1;
            drop t ~dst;
            Nic.Device.wire_release w
        | Some `Duplicate ->
            t.duplicated <- t.duplicated + 1;
            Nic.Device.wire_retain w;
            Nic.Device.wire_arrive_after w ~after:t.one_way_delay_ns arrive;
            Nic.Device.wire_arrive_after w ~after:(2 * t.one_way_delay_ns) arrive
        | Some (`Delay extra) ->
            t.delayed <- t.delayed + 1;
            Nic.Device.wire_arrive_after w ~after:(t.one_way_delay_ns + extra) arrive
        | Some `Reorder ->
            (* Hold the packet for two extra one-way delays so anything
               sent in that window overtakes it. *)
            t.reordered <- t.reordered + 1;
            Nic.Device.wire_arrive_after w ~after:(3 * t.one_way_delay_ns) arrive
        | None -> Nic.Device.wire_arrive_after w ~after:t.one_way_delay_ns arrive)
[@@alloc_free]

let delivered t = t.delivered

let dropped t = t.dropped

let dropped_to t ~dst =
  Option.value (Hashtbl.find_opt t.dropped_by_dst dst) ~default:0

let drops_by_dst t =
  Hashtbl.fold (fun dst n acc -> (dst, n) :: acc) t.dropped_by_dst []
  |> List.sort compare

let corrupted t = t.corrupted

let duplicated t = t.duplicated

let delayed t = t.delayed

let reordered t = t.reordered
