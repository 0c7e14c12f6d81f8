//! # irn-rdma — NIC-side machinery for out-of-order delivery (§5–§6)
//!
//! The paper's §5 ("Implementation Considerations") describes how IRN's
//! transport changes interact with RDMA's operation semantics, and — the
//! crux — what a NIC needs to support *out-of-order packet delivery* at
//! the responder, which current RoCE NICs simply do not do. This crate
//! holds the parts of that machinery the simulator and the benchmark
//! run:
//!
//! * [`bitmap`] — BDP-sized ring bitmaps in 32-bit chunks, with the exact
//!   three operation families the paper synthesizes on an FPGA (§6.2):
//!   find-first-zero, popcount, and head shifts;
//! * [`modules`] — the four packet-processing modules the paper
//!   synthesizes (`receiveData`, `txFree`, `receiveAck`, `timeout`) as
//!   pure functions over a QP context, timed by the repo benchmark's
//!   `rdma.receive_data_ns` kernel;
//! * [`state_budget`] — the §6.1 accounting of additional NIC state
//!   (52/104/160 bits per QP, five BDP-sized bitmaps, 3 B per WQE, 10 B
//!   shared), reproduced from configuration.
//!
//! The verbs layer above them (WQEs and CQEs, shared receive queues,
//! credits) is not modelled. The one trace of it here is the message
//! sequence number: `receive_data` takes an `is_last` flag and
//! [`modules::QpContext`] counts completed messages in `msn`, which the
//! benchmark's `receiveData` kernel pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod modules;
pub mod state_budget;

pub use bitmap::RingBitmap;
