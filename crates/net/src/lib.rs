//! # irn-net — packet-level network substrate
//!
//! This crate reproduces the network model of the simulator used in
//! "Revisiting Network Support for RDMA" (SIGCOMM 2018, §4.1):
//!
//! * full-duplex **links** with configurable bandwidth and propagation
//!   delay ([`Bandwidth`], [`units`]);
//! * **input-queued switches** with virtual output queues (VOQs)
//!   scheduled by per-output round-robin arbitration ([`switch`]);
//! * per-input-port buffer accounting with **Priority Flow Control**
//!   (X-OFF / X-ON pause frames, configurable threshold and headroom,
//!   [`PfcConfig`]);
//! * RED-style **ECN marking** on egress occupancy for DCQCN / DCTCP
//!   ([`EcnConfig`]);
//! * three-tier **fat-tree topologies** (§4.1's 54-server k=6 default,
//!   plus k=8/128-server and k=10/250-server variants) and arbitrary
//!   custom topologies ([`Topology`]);
//! * per-flow **ECMP** routing ([`routing`]);
//! * endhost **NIC ports** that serialize packets onto their uplink and
//!   honour PFC pauses ([`Fabric`] host API);
//! * optional random **fault injection** (per-hop packet loss) for
//!   robustness experiments.
//!
//! The central type is [`Fabric`]: it owns every switch, link and host
//! port, consumes [`FabricEvent`]s from the global event queue, and
//! reports packet deliveries and transmit-ready notifications back to the
//! caller (the transport layer lives above, in `irn-transport`).
//!
//! Everything is deterministic: ties in arbitration are broken by
//! round-robin state, and the only randomness (ECN coin flips, fault
//! injection) draws from a seeded [`irn_sim::SimRng`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod fabric;
pub mod packet;
pub mod routing;
pub mod switch;
pub mod topology;
pub mod units;

pub use arena::{PacketArena, PktId, PktQueue};
pub use fabric::{Fabric, FabricConfig, FabricEvent, FabricOutput, FabricStats, LoadBalancing};
pub use packet::{FlowId, HostId, Packet, PacketKind};
pub use routing::NetTables;
pub use switch::{EcnConfig, PfcConfig};
pub use topology::{fat_tree_hosts, NodeId, Topology};
pub use units::Bandwidth;
