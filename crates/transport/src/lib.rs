//! # irn-transport — NIC transport logic (§3 of the paper)
//!
//! The protocols under evaluation in "Revisiting Network Support for
//! RDMA" (SIGCOMM 2018), as endhost state machines:
//!
//! * **RoCE** (§2.1): go-back-N loss recovery — the receiver discards
//!   out-of-order packets and NACKs; the sender rewinds. Timeouts use a
//!   single RTO_high and are disabled when PFC is on (§4.1).
//! * **IRN** (§3): selective retransmission driven by the SACK bitmap
//!   (reusing the *same* packet-processing modules `irn-rdma` implements
//!   and benches for Table 2), plus **BDP-FC**, the static
//!   bandwidth-delay-product cap on in-flight packets (§3.2), and the
//!   two-level RTO_low/RTO_high timeout scheme (§3.1).
//! * **Congestion control** (§4.2.4, optional for both transports):
//!   [`cc::dcqcn`] and [`cc::timely`] rate control, and window-based
//!   TCP-AIMD / DCTCP (§4.4.4) — all with the parameters the source
//!   papers specify (see [`cc::params`]).
//! * **iWARP's philosophy** (§4.6): a full TCP stack in the NIC,
//!   modelled as a NewReno sender/receiver pair ([`tcp`]) with slow
//!   start, fast retransmit/recovery and RTO estimation.
//!
//! Every sender is one private core — flow identity, the packetizer
//! with its retransmission accounting, the retransmission timer's
//! plumbing — under a policy: [`sender::SenderQp`] adds SACK or
//! go-back-N recovery, BDP-FC and congestion control, [`tcp::TcpSender`]
//! NewReno and the RTT-estimated RTO. The embedding simulation names
//! neither: [`endpoints`] builds a [`Sender`] / [`Receiver`] pair for a
//! [`TransportKind`], and drives those two enums.
//!
//! The interface is poll-based: the embedding simulation asks for the
//! next packet when the NIC port is free ([`nic::HostNic`] arbitrates
//! control-priority and per-QP round-robin like the ConnectX model in
//! §4.1), and feeds arriving packets and timer expirations back in.
//! Everything is clock-explicit and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod config;
pub mod nic;
pub mod receiver;
pub mod sender;
pub mod tcp;

pub use config::{LossRecovery, TransportConfig, TransportKind};
pub use nic::{HostNic, NicPoll};
pub use receiver::{Receiver, ReceiverQp, RecvOutcome};
pub use sender::{Sender, SenderPoll, SenderQp, SenderStats, TimerCmd};

use irn_net::{FlowId, HostId};
use irn_sim::Time;

/// Build both endpoints of a flow of `size_bytes` from `src` to `dst`
/// starting at `now`: the one place that knows which concrete sender
/// and receiver a [`TransportKind`] means. The sender copies `cfg`.
pub fn endpoints(
    kind: TransportKind,
    cfg: &TransportConfig,
    flow: FlowId,
    src: HostId,
    dst: HostId,
    size_bytes: u64,
    now: Time,
) -> (Sender, Receiver) {
    if kind == TransportKind::IwarpTcp {
        let s = tcp::TcpSender::new(cfg.clone(), flow, src, dst, size_bytes);
        let r = tcp::TcpReceiver::new(cfg, flow, src, dst, s.total_packets());
        (Sender::Tcp(s), Receiver::Tcp(r))
    } else {
        let s = SenderQp::new(cfg.clone(), flow, src, dst, size_bytes, cfg.cc, now);
        let r = ReceiverQp::new(cfg, flow, src, dst, s.total_packets(), cfg.cc);
        (Sender::Rdma(s), Receiver::Rdma(r))
    }
}
