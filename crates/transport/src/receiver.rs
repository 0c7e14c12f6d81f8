//! The receiving half of a flow's queue pair.
//!
//! The receiver is where IRN and RoCE diverge first (§2.1 vs §3.1): an
//! IRN receiver keeps out-of-order packets (DMA'd straight to memory,
//! §5.3) and answers every OOO arrival with a NACK carrying cumulative +
//! SACK information; a RoCE receiver discards OOO packets and NACKs once
//! per sequence error. Both behaviours come from
//! [`irn_rdma::modules::receive_data`] — the same logic the Table 2
//! benchmarks measure.
//!
//! The receiver also hosts DCQCN's *notification point*: ECN-marked
//! arrivals generate CNPs at most once per 50 µs (§4.1, \[37\]).

use irn_net::{FlowId, HostId, Packet, PacketKind};
use irn_rdma::modules::{self, AckEmit, QpContext, ReceiverMode};
use irn_sim::Time;

use crate::cc::dcqcn::CnpGenerator;
use crate::cc::CcKind;
use crate::config::{LossRecovery, TransportConfig};
use crate::tcp::TcpReceiver;

/// What a data arrival produced.
#[derive(Debug, Clone, Default)]
pub struct RecvOutcome {
    /// Acknowledgement to queue on the reverse path (at most one).
    pub ack: Option<Packet>,
    /// CNP to queue (DCQCN, marked packet within the CNP interval).
    pub cnp: Option<Packet>,
    /// The flow just completed — every payload byte has arrived. The
    /// completion time is the arrival `now` of this packet (the FCT
    /// measurement point, §4.1).
    pub completed: bool,
}

/// The receiving half of one flow.
#[derive(Debug)]
pub struct ReceiverQp {
    flow: FlowId,
    /// The data sender (destination for our ACKs).
    sender: HostId,
    /// This endhost.
    me: HostId,
    total_packets: u32,
    mode: ReceiverMode,
    ack_bytes: u32,
    ctx: QpContext,
    cnp_gen: Option<CnpGenerator>,
    /// When the last payload byte arrived; [`NOT_COMPLETED`] until then.
    completed_at: Time,
}

/// [`ReceiverQp::completed_at`] of a flow still receiving.
const NOT_COMPLETED: Time = Time::MAX;

impl ReceiverQp {
    /// Receiver for a flow of `total_packets` from `sender` to `me`.
    pub fn new(
        cfg: &TransportConfig,
        flow: FlowId,
        sender: HostId,
        me: HostId,
        total_packets: u32,
        cc_kind: CcKind,
    ) -> ReceiverQp {
        let mode = match cfg.recovery {
            LossRecovery::SelectiveRepeat => ReceiverMode::Irn,
            LossRecovery::GoBackN => ReceiverMode::RoceGoBackN,
        };
        let bitmap_bits = cfg.bdp_cap.unwrap_or(0).clamp(256, 4096) as usize;
        let mut r = ReceiverQp::with(
            mode,
            bitmap_bits,
            cfg.ack_bytes,
            flow,
            sender,
            me,
            total_packets,
        );
        r.cnp_gen = (cc_kind == CcKind::Dcqcn).then(CnpGenerator::default);
        r
    }

    /// A receiver that sends no CNPs, from its parts.
    pub(crate) fn with(
        mode: ReceiverMode,
        bitmap_bits: usize,
        ack_bytes: u32,
        flow: FlowId,
        sender: HostId,
        me: HostId,
        total_packets: u32,
    ) -> ReceiverQp {
        ReceiverQp {
            flow,
            sender,
            me,
            total_packets,
            mode,
            ack_bytes,
            ctx: QpContext::new(bitmap_bits),
            cnp_gen: None,
            completed_at: NOT_COMPLETED,
        }
    }

    /// When the flow completed, if it has.
    pub fn completed_at(&self) -> Option<Time> {
        (self.completed_at != NOT_COMPLETED).then_some(self.completed_at)
    }

    /// Process an arriving data packet.
    #[inline]
    pub fn on_data(&mut self, now: Time, pkt: &Packet) -> RecvOutcome {
        debug_assert_eq!(pkt.kind, PacketKind::Data);
        debug_assert_eq!(pkt.flow, self.flow);
        let mut out = RecvOutcome::default();

        let ack = modules::receive_data(&mut self.ctx, pkt.psn, pkt.is_last, self.mode);

        // Build the acknowledgement. It echoes the data packet's send
        // timestamp (Timely RTT) and its ECN mark (DCTCP).
        out.ack = match ack {
            AckEmit::Ack { cum } => Some(self.make_ack(PacketKind::Ack, cum, 0, pkt)),
            AckEmit::Nack { cum, sack } => Some(self.make_ack(PacketKind::Nack, cum, sack, pkt)),
            AckEmit::None => None,
        };

        // DCQCN notification point.
        if pkt.ecn_ce {
            if let Some(gen) = &mut self.cnp_gen {
                if gen.on_marked_packet(now) {
                    out.cnp = Some(Packet::control(
                        PacketKind::Cnp,
                        self.flow,
                        self.me,
                        self.sender,
                        0,
                        64,
                    ));
                }
            }
        }

        // Completion: all packets delivered in order.
        if self.completed_at == NOT_COMPLETED && self.ctx.expected_seq >= self.total_packets {
            self.completed_at = now;
            out.completed = true;
        }
        out
    }

    /// The cumulative ACK of everything in order so far, answering `data`.
    pub(crate) fn cumulative_ack(&self, data: &Packet) -> Packet {
        self.make_ack(PacketKind::Ack, self.ctx.expected_seq, 0, data)
    }

    fn make_ack(&self, kind: PacketKind, cum: u32, sack: u32, data: &Packet) -> Packet {
        let mut ack = Packet::control(kind, self.flow, self.me, self.sender, cum, self.ack_bytes);
        ack.sack = sack;
        ack.sent_at = data.sent_at; // RTT echo
        ack.ecn_echo = data.ecn_ce; // DCTCP echo
        ack
    }
}

/// The receiving endpoint of one flow, whichever transport runs it:
/// [`crate::Sender`]'s counterpart, built with it by [`crate::endpoints`].
#[derive(Debug)]
pub enum Receiver {
    /// RoCE, IRN and the Figure 7 ablations.
    Rdma(ReceiverQp),
    /// The iWARP-style TCP stack.
    Tcp(TcpReceiver),
}

impl Receiver {
    /// Process an arriving data packet.
    #[inline]
    pub fn on_data(&mut self, now: Time, pkt: &Packet) -> RecvOutcome {
        match self {
            Receiver::Rdma(r) => r.on_data(now, pkt),
            Receiver::Tcp(r) => r.on_data(now, pkt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransportConfig;

    fn data(psn: u32, last: bool) -> Packet {
        let mut p = Packet::data(FlowId(0), HostId(0), HostId(1), psn, 1048);
        p.is_last = last;
        p.sent_at = Time::from_nanos(42);
        p
    }

    fn irn_receiver(total: u32) -> ReceiverQp {
        ReceiverQp::new(
            &TransportConfig::irn_default(),
            FlowId(0),
            HostId(0),
            HostId(1),
            total,
            CcKind::None,
        )
    }

    fn roce_receiver(total: u32) -> ReceiverQp {
        ReceiverQp::new(
            &TransportConfig::roce_default(true),
            FlowId(0),
            HostId(0),
            HostId(1),
            total,
            CcKind::None,
        )
    }

    #[test]
    fn in_order_completion_with_acks() {
        let mut r = irn_receiver(3);
        for psn in 0..3 {
            let out = r.on_data(Time::from_nanos(psn as u64 * 100), &data(psn, psn == 2));
            let ack = out.ack.expect("per-packet ACKs");
            assert_eq!(ack.kind, PacketKind::Ack);
            assert_eq!(ack.psn, psn + 1);
            assert_eq!(ack.wire_bytes, 64, "IRN pays ACK bandwidth");
            assert_eq!(out.completed, psn == 2);
        }
        assert_eq!(r.completed_at(), Some(Time::from_nanos(200)));
    }

    #[test]
    fn ack_echoes_timestamp_and_ecn() {
        let mut r = irn_receiver(2);
        let mut d = data(0, false);
        d.ecn_ce = true;
        d.sent_at = Time::from_nanos(777);
        let out = r.on_data(Time::from_nanos(1000), &d);
        let ack = out.ack.unwrap();
        assert_eq!(ack.sent_at, Time::from_nanos(777), "RTT echo for Timely");
        assert!(ack.ecn_echo, "mark echo for DCTCP");
    }

    #[test]
    fn irn_buffers_ooo_and_nacks() {
        let mut r = irn_receiver(3);
        let out = r.on_data(Time::ZERO, &data(2, true));
        let nack = out.ack.unwrap();
        assert_eq!(nack.kind, PacketKind::Nack);
        assert_eq!((nack.psn, nack.sack), (0, 2));
        // Filling the holes completes without re-delivering psn 2: it
        // was buffered, not discarded.
        r.on_data(Time::from_nanos(10), &data(0, false));
        let out = r.on_data(Time::from_nanos(20), &data(1, false));
        let ack = out.ack.unwrap();
        assert_eq!((ack.kind, ack.psn), (PacketKind::Ack, 3));
        assert!(out.completed);
    }

    #[test]
    fn roce_discards_ooo_and_needs_full_redelivery() {
        let mut r = roce_receiver(3);
        let out = r.on_data(Time::ZERO, &data(2, true));
        assert_eq!(out.ack.unwrap().kind, PacketKind::Nack);
        r.on_data(Time::from_nanos(10), &data(0, false));
        let out = r.on_data(Time::from_nanos(20), &data(1, false));
        // Packet 2 was discarded: the cumulative ACK stops short of it,
        // and the flow is not complete until it arrives again.
        let ack = out.ack.unwrap();
        assert_eq!((ack.kind, ack.psn), (PacketKind::Ack, 2));
        assert_eq!(r.completed_at(), None);
        let out = r.on_data(Time::from_nanos(30), &data(2, true));
        assert!(out.completed);
    }

    #[test]
    fn roce_acks_are_free() {
        let mut r = roce_receiver(2);
        let out = r.on_data(Time::ZERO, &data(0, false));
        assert_eq!(
            out.ack.unwrap().wire_bytes,
            0,
            "§5.2: RoCE baseline ACKs carry no bandwidth cost"
        );
    }

    #[test]
    fn cnp_generated_once_per_interval() {
        let mut r = ReceiverQp::new(
            &TransportConfig::irn_default(),
            FlowId(0),
            HostId(0),
            HostId(1),
            100,
            CcKind::Dcqcn,
        );
        let mut marked = data(0, false);
        marked.ecn_ce = true;
        let out = r.on_data(Time::ZERO, &marked);
        assert!(out.cnp.is_some(), "first mark → CNP");
        let mut marked2 = data(1, false);
        marked2.ecn_ce = true;
        let out = r.on_data(Time::from_nanos(1000), &marked2);
        assert!(out.cnp.is_none(), "within 50 µs → suppressed");
        let cnp = r
            .on_data(Time::ZERO + irn_sim::Duration::micros(51), &{
                let mut d = data(2, false);
                d.ecn_ce = true;
                d
            })
            .cnp;
        assert!(cnp.is_some(), "next interval → CNP");
    }

    #[test]
    fn no_cnp_without_dcqcn() {
        let mut r = irn_receiver(2);
        let mut marked = data(0, false);
        marked.ecn_ce = true;
        assert!(r.on_data(Time::ZERO, &marked).cnp.is_none());
    }

    #[test]
    fn duplicate_data_reacks_without_double_completion() {
        let mut r = irn_receiver(2);
        r.on_data(Time::ZERO, &data(0, false));
        let out = r.on_data(Time::from_nanos(5), &data(1, true));
        assert!(out.completed);
        let out = r.on_data(Time::from_nanos(10), &data(1, true));
        assert!(!out.completed, "completion fires exactly once");
        let ack = out.ack.unwrap();
        assert_eq!(
            (ack.kind, ack.psn),
            (PacketKind::Ack, 2),
            "duplicates still re-ACK"
        );
    }
}
