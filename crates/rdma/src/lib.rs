//! # irn-rdma — RDMA verbs semantics and NIC-side machinery (§5–§6)
//!
//! The paper's §5 ("Implementation Considerations") describes how IRN's
//! transport changes interact with RDMA's operation semantics: Work Queue
//! Elements (WQEs), Completion Queue Elements (CQEs), message sequence
//! numbers (MSNs), and — the crux — supporting *out-of-order packet
//! delivery* at the responder, which current RoCE NICs simply do not do.
//! This crate implements that machinery:
//!
//! * [`bitmap`] — BDP-sized ring bitmaps in 32-bit chunks, with the exact
//!   three operation families the paper synthesizes on an FPGA (§6.2):
//!   find-first-zero, popcount, and head shifts;
//! * [`verbs`] — operations (Write, Write-with-Immediate, Read, Send,
//!   Atomic), WQEs, CQEs;
//! * [`qp`] — requester and responder queue-pair state machines,
//!   including the sPSN/rPSN split (§5.4), read (N)ACKs (§5.2), and the
//!   2-bitmap + premature-CQE mechanics (§5.3.3);
//! * [`srq`] — shared receive queues with dequeue-time sequence-number
//!   allotment (Appendix B.2);
//! * [`credits`] — end-to-end credit handling and RNR-NACK rules
//!   (Appendix B.3–B.4);
//! * [`modules`] — the four packet-processing modules the paper
//!   synthesizes (`receiveData`, `txFree`, `receiveAck`, `timeout`) as
//!   pure functions over a QP context, timed by the repo benchmark's
//!   `rdma.receive_data_ns` kernel;
//! * [`state_budget`] — the §6.1 accounting of additional NIC state
//!   (52/104/160 bits per QP, five BDP-sized bitmaps, 3 B per WQE, 10 B
//!   shared), reproduced from configuration.
//!
//! The queue-pair model here is deliberately network-agnostic: packets go
//! in, actions come out. Integration tests (and the `irn-transport`
//! crate) drive it through lossy, reordering channels to exercise every
//! §5.3 corner case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod credits;
pub mod modules;
pub mod qp;
pub mod srq;
pub mod state_budget;
pub mod verbs;

pub use bitmap::RingBitmap;
pub use qp::{Requester, Responder};
pub use verbs::{Cqe, CqeKind, RdmaOp, ReceiveWqe, RequestWqe};
