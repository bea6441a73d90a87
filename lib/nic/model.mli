(** NIC hardware models.

    Captures the device characteristics that matter to the serialization
    tradeoff: the scatter-gather entry limit, the PCIe cost the DMA engine
    pays per descriptor and per extra gather entry, and the line rate.
    Constants for the three NICs in the paper (§6.1.1, §6.3). *)

type t = {
  name : string;
  max_sge : int; (* gather entries per send, incl. the header entry *)
  line_rate_gbps : float;
  pcie_per_descriptor_ns : float; (* descriptor fetch over PCIe *)
  pcie_per_sge_ns : float; (* extra PCIe read per gather entry *)
  per_packet_wire_overhead_bytes : int; (* preamble + IFG + FCS *)
  tx_ring_entries : int;
}

(** Mellanox ConnectX-6, 100 Gbps (end-to-end platform). *)
val mellanox_cx6 : t

(** Intel e810-CQDA2, 100 Gbps; only 8 gather entries per send (§6.3). *)
val intel_e810 : t

(** Nanoseconds to move [bytes] payload bytes across the wire. *)
val wire_time_ns : t -> bytes:int -> float
