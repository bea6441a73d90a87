type t = {
  name : string;
  max_sge : int;
  line_rate_gbps : float;
  pcie_per_descriptor_ns : float;
  pcie_per_sge_ns : float;
  per_packet_wire_overhead_bytes : int;
  tx_ring_entries : int;
}

(* Mellanox ConnectX-5 Ex, 100 Gbps (measurement-study platform); WQEs take
   up to 64 gather pointers. The base the exported models derive from. *)
let mellanox_cx5 =
  {
    name = "mlx5-cx5ex";
    max_sge = 64;
    line_rate_gbps = 100.0;
    pcie_per_descriptor_ns = 40.0;
    pcie_per_sge_ns = 10.0;
    per_packet_wire_overhead_bytes = 24 (* preamble+IFG+FCS *) + 14 (* eth *);
    tx_ring_entries = 1024;
  }

let mellanox_cx6 = { mellanox_cx5 with name = "mlx5-cx6"; pcie_per_sge_ns = 9.0 }

let intel_e810 =
  {
    mellanox_cx5 with
    name = "intel-e810";
    max_sge = 8;
    pcie_per_descriptor_ns = 45.0;
    pcie_per_sge_ns = 12.0;
  }

let wire_time_ns t ~bytes =
  let total = bytes + t.per_packet_wire_overhead_bytes in
  float_of_int (total * 8) /. t.line_rate_gbps
