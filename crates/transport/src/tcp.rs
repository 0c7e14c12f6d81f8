//! The iWARP comparator: a full TCP stack in the NIC (§4.6).
//!
//! iWARP \[32\] implements TCP in hardware and layers RDMA on top. The
//! paper compares IRN against "full-blown TCP stack's" behaviour (INET's
//! TCP in their simulator): slow start, AIMD congestion avoidance,
//! triple-duplicate-ACK fast retransmit with NewReno fast recovery, and
//! an RTT-estimated retransmission timeout. §4.6's findings — IRN's lack
//! of slow start (BDP-FC instead) gives ~21 % better slowdowns, and
//! adding AIMD to IRN beats iWARP outright — come from exactly these
//! mechanisms, reproduced here at packet granularity.
//!
//! Simplifications, documented for honesty: sequence numbers count
//! packets (not bytes; the MTU segmentation is fixed), the advertised
//! receive window is unbounded (iWARP NICs size it to the pipe), and
//! delayed ACKs are off (per-packet ACKs, as RDMA-class fabrics use).
//! None of these affect the slow-start / loss-recovery dynamics the
//! comparison is about.

use irn_net::{FlowId, HostId, Packet, PacketKind};
use irn_rdma::modules::ReceiverMode;
use irn_sim::{Duration, Time};

use crate::config::{TransportConfig, ACK_WIRE_BYTES};
use crate::receiver::{ReceiverQp, RecvOutcome};
use crate::sender::{SenderCore, SenderPoll, SenderStats, TimerCmd};

/// TCP sender congestion state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpState {
    SlowStart,
    CongestionAvoidance,
    FastRecovery,
}

/// Initial window (packets) — conservative, classic NewReno.
const INITIAL_WINDOW: f64 = 2.0;
/// Duplicate-ACK threshold for fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;
/// RTO bounds: floor matches the RDMA transports' RTO_high for a fair
/// §4.6 comparison; ceiling stops exponential backoff from freezing
/// flows for the whole run.
const MIN_RTO: Duration = Duration::micros(320);
const MAX_RTO: Duration = Duration::millis(16);

/// The sending half of an iWARP-style TCP connection carrying one flow:
/// the shared sender core under NewReno and an RTT-estimated RTO.
#[derive(Debug)]
pub struct TcpSender {
    core: SenderCore,

    cwnd: f64,
    ssthresh: f64,
    state: TcpState,

    cum_acked: u32,
    next_to_send: u32,
    dup_acks: u32,
    /// NewReno recovery point: highest sequence sent at FR entry.
    recover: u32,
    /// Fast/partial-ack retransmission queued for the next poll.
    retx_pending: Option<u32>,

    // RTT estimation (Jacobson/Karels).
    srtt_ns: Option<f64>,
    rttvar_ns: f64,
    rto: Duration,
    /// Karn's algorithm: suppress sampling while retransmissions are in
    /// the window.
    tainted_until: u32,
}

impl TcpSender {
    /// New connection for one flow; slow start from the initial window
    /// (2 packets, classic NewReno).
    pub fn new(
        cfg: TransportConfig,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        size_bytes: u64,
    ) -> TcpSender {
        TcpSender {
            core: SenderCore::new(cfg, flow, src, dst, size_bytes),
            cwnd: INITIAL_WINDOW,
            ssthresh: f64::INFINITY,
            state: TcpState::SlowStart,
            cum_acked: 0,
            next_to_send: 0,
            dup_acks: 0,
            recover: 0,
            retx_pending: None,
            srtt_ns: None,
            rttvar_ns: 0.0,
            rto: MIN_RTO,
            tainted_until: 0,
        }
    }

    /// Total packets in the flow.
    pub fn total_packets(&self) -> u32 {
        self.core.total_packets
    }

    /// The flow's counters so far (`nacks` and `cnps` stay zero).
    pub fn stats(&self) -> SenderStats {
        self.core.stats.widen()
    }

    /// Ask for the next packet. There is no clock gate here (no pacing,
    /// no fetch delay), so `Blocked` — window full or everything sent —
    /// is sticky until the next ACK or timer expiry, as the contract on
    /// [`SenderPoll::Blocked`] requires.
    #[inline]
    pub fn poll(&mut self, now: Time) -> SenderPoll {
        if self.core.done {
            return SenderPoll::Done;
        }
        if let Some(psn) = self.retx_pending.take() {
            return SenderPoll::Packet(self.send(now, psn));
        }
        let in_flight = self.next_to_send.saturating_sub(self.cum_acked);
        if (in_flight as f64) < self.cwnd.max(1.0) && self.next_to_send < self.core.total_packets {
            let psn = self.next_to_send;
            self.next_to_send += 1;
            return SenderPoll::Packet(self.send(now, psn));
        }
        SenderPoll::Blocked
    }

    fn send(&mut self, now: Time, psn: u32) -> Packet {
        let pkt = self.core.packet(now, psn);
        if pkt.is_retx {
            self.tainted_until = self.core.highest_sent; // Karn
        }
        if self.core.timer.is_idle() {
            self.core.timer.restart(now, self.rto);
        }
        pkt
    }

    /// Drain a pending timer arm/cancel request.
    pub fn take_timer_request(&mut self) -> Option<TimerCmd> {
        self.core.timer.take_request()
    }

    /// Feed a (cumulative) ACK. Returns `true` when the flow completes.
    pub fn on_ack_packet(&mut self, now: Time, pkt: &Packet) -> bool {
        let cum = pkt.psn;

        if cum > self.cum_acked {
            let newly = cum - self.cum_acked;
            self.cum_acked = cum;
            // A post-rewind late ACK can pass the transmit cursor.
            self.next_to_send = self.next_to_send.max(cum);
            self.dup_acks = 0;

            // RTT sampling (Karn: skip while retransmissions are out).
            if cum > self.tainted_until || self.srtt_ns.is_none() {
                self.rtt_sample(now.saturating_since(pkt.sent_at));
            }

            match self.state {
                TcpState::FastRecovery => {
                    if cum > self.recover {
                        // Full ACK: leave recovery.
                        self.state = TcpState::CongestionAvoidance;
                        self.cwnd = self.ssthresh;
                    } else {
                        // NewReno partial ACK: retransmit the next hole,
                        // deflate by the amount acked.
                        self.retx_pending = Some(cum);
                        self.cwnd = (self.cwnd - newly as f64 + 1.0).max(1.0);
                    }
                }
                TcpState::SlowStart => {
                    self.cwnd += newly as f64; // exponential
                    if self.cwnd >= self.ssthresh {
                        self.state = TcpState::CongestionAvoidance;
                    }
                }
                TcpState::CongestionAvoidance => {
                    self.cwnd += newly as f64 / self.cwnd.max(1.0);
                }
            }

            if self.cum_acked >= self.core.total_packets {
                return self.core.complete();
            }
            self.core.timer.progress(now);
            if self.core.timer.is_idle() {
                self.core.timer.restart(now, self.rto);
            }
        } else if cum == self.cum_acked && self.core.highest_sent > cum {
            // Duplicate ACK.
            match self.state {
                TcpState::FastRecovery => {
                    self.cwnd += 1.0; // inflation
                }
                _ => {
                    self.dup_acks += 1;
                    if self.dup_acks == DUPACK_THRESHOLD {
                        // Fast retransmit + enter fast recovery.
                        let flight = (self.next_to_send - self.cum_acked) as f64;
                        self.ssthresh = (flight / 2.0).max(2.0);
                        self.cwnd = self.ssthresh + DUPACK_THRESHOLD as f64;
                        self.recover = self.core.highest_sent;
                        self.retx_pending = Some(cum);
                        self.state = TcpState::FastRecovery;
                    }
                }
            }
        }
        false
    }

    fn rtt_sample(&mut self, rtt: Duration) {
        let r = rtt.as_nanos() as f64;
        let srtt = match self.srtt_ns {
            None => {
                self.rttvar_ns = r / 2.0;
                r
            }
            Some(srtt) => {
                // RFC 6298 constants.
                self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (srtt - r).abs();
                0.875 * srtt + 0.125 * r
            }
        };
        self.srtt_ns = Some(srtt);
        let rto_ns = srtt + 4.0 * self.rttvar_ns;
        self.rto = Duration::nanos(rto_ns as u64).max(MIN_RTO).min(MAX_RTO);
    }

    /// The connection's (live) retransmission timer expired; cancelled
    /// deadlines never reach here. Returns `true` if the sender acted.
    pub fn on_timer(&mut self, now: Time) -> bool {
        if self.core.done {
            return false;
        }
        self.core.timer.expired();
        if self.cum_acked >= self.core.highest_sent {
            return false; // nothing outstanding
        }
        if self.core.timer.defer(now, self.rto) {
            return true;
        }
        // RTO: multiplicative backoff, collapse to slow start, go-back-N.
        self.core.stats.timeouts += 1;
        let flight = (self.next_to_send - self.cum_acked) as f64;
        self.ssthresh = (flight / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.state = TcpState::SlowStart;
        self.next_to_send = self.cum_acked;
        self.dup_acks = 0;
        self.rto = (self.rto * 2).min(MAX_RTO);
        self.core.timer.restart(now, self.rto);
        true
    }
}

/// The receiving half: IRN's receiver — out-of-order segments are
/// buffered, never discarded — answering every segment with a
/// cumulative ACK and nothing else.
#[derive(Debug)]
pub struct TcpReceiver(ReceiverQp);

impl TcpReceiver {
    /// Receiver for `total_packets` from `sender`.
    pub fn new(
        cfg: &TransportConfig,
        flow: FlowId,
        sender: HostId,
        me: HostId,
        total_packets: u32,
    ) -> TcpReceiver {
        // An arrival's offset from the expected sequence is below
        // `total_packets`, so planes sized by the flow (in place up to
        // 256 packets) keep every arrival 4 096 bits would have.
        TcpReceiver(ReceiverQp::with(
            ReceiverMode::Irn,
            total_packets.clamp(256, 4096) as usize,
            cfg.ack_bytes.max(ACK_WIRE_BYTES),
            flow,
            sender,
            me,
            total_packets,
        ))
    }

    /// Process a data segment: always one cumulative ACK, never a CNP.
    /// An out-of-order arrival's NACK goes out as the duplicate ACK it
    /// is to TCP (same `cum`), which is what drives dupack counting.
    #[inline]
    pub fn on_data(&mut self, now: Time, pkt: &Packet) -> RecvOutcome {
        let mut out = self.0.on_data(now, pkt);
        let ack = out.ack.get_or_insert_with(|| self.0.cumulative_ack(pkt));
        ack.kind = PacketKind::Ack;
        ack.sack = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::tests::armed_deadline;

    fn sender(size: u64) -> TcpSender {
        TcpSender::new(
            TransportConfig::irn_default(),
            FlowId(0),
            HostId(0),
            HostId(1),
            size,
        )
    }

    fn ack_at(cum: u32, sent_at: Time) -> Packet {
        let mut p = Packet::control(PacketKind::Ack, FlowId(0), HostId(1), HostId(0), cum, 64);
        p.sent_at = sent_at;
        p
    }

    fn drain(s: &mut TcpSender, now: Time) -> Vec<Packet> {
        let mut v = Vec::new();
        while let SenderPoll::Packet(p) = s.poll(now) {
            v.push(p);
        }
        v
    }

    #[test]
    fn slow_start_limits_initial_burst() {
        let mut s = sender(1_000_000); // 1000 packets
        let burst = drain(&mut s, Time::ZERO);
        assert_eq!(
            burst.len(),
            INITIAL_WINDOW as usize,
            "§4.6: iWARP pays slow start where IRN starts at the BDP"
        );
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender(1_000_000);
        let mut time = Time::ZERO;
        let mut in_flight = drain(&mut s, time);
        let mut window_sizes = vec![in_flight.len()];
        for _ in 0..4 {
            time += Duration::micros(25);
            for p in std::mem::take(&mut in_flight) {
                s.on_ack_packet(time, &ack_at(p.psn + 1, p.sent_at));
            }
            in_flight = drain(&mut s, time);
            window_sizes.push(in_flight.len());
        }
        // Geometric growth: each window roughly doubles.
        for w in window_sizes.windows(2) {
            assert!(
                w[1] >= w[0] * 2 - 1,
                "slow start must ≈double: {window_sizes:?}"
            );
        }
    }

    #[test]
    fn triple_dupack_fast_retransmits() {
        let mut s = sender(20_000); // 20 packets
                                    // Grow the window a bit first.
        let mut t = Time::ZERO;
        let burst = drain(&mut s, t);
        t += Duration::micros(25);
        for p in &burst {
            s.on_ack_packet(t, &ack_at(p.psn + 1, p.sent_at));
        }
        let burst2 = drain(&mut s, t);
        assert!(burst2.len() >= 4, "need ≥4 in flight for 3 dupacks");
        // Packet burst2[0] lost: receiver dupacks at its cum.
        let lost = burst2[0].psn;
        t += Duration::micros(25);
        for _ in 0..3 {
            s.on_ack_packet(t, &ack_at(lost, burst2[1].sent_at));
        }
        let retx = drain(&mut s, t);
        assert!(!retx.is_empty());
        assert_eq!(retx[0].psn, lost);
        assert!(retx[0].is_retx);
        assert_eq!(s.stats().retransmitted, 1, "one fast retransmit");
    }

    #[test]
    fn rto_collapses_to_slow_start() {
        let mut s = sender(50_000);
        drain(&mut s, Time::ZERO);
        let deadline = armed_deadline(s.take_timer_request());
        assert!(s.on_timer(deadline));
        assert_eq!(s.stats().timeouts, 1);
        assert_eq!(s.cwnd as u32, 1, "RTO ⇒ loss window of 1");
        let retx = drain(&mut s, deadline);
        assert_eq!(retx.len(), 1, "cwnd=1 allows exactly the head");
        assert_eq!(retx[0].psn, 0);
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let mut s = sender(50_000);
        drain(&mut s, Time::ZERO);
        let d1 = armed_deadline(s.take_timer_request());
        s.on_timer(d1);
        let d2 = armed_deadline(s.take_timer_request());
        assert!(d2.since(d1) >= MIN_RTO * 2, "backoff must double the RTO");
    }

    #[test]
    fn receiver_dupacks_on_ooo() {
        let cfg = TransportConfig::irn_default();
        let mut r = TcpReceiver::new(&cfg, FlowId(0), HostId(0), HostId(1), 4);
        let mk = |psn: u32, last: bool| {
            let mut p = Packet::data(FlowId(0), HostId(0), HostId(1), psn, 1048);
            p.is_last = last;
            p
        };
        let mut ack_of = |t: Time, pkt: Packet| {
            let out = r.on_data(t, &pkt);
            (
                out.ack.expect("every segment is acknowledged").psn,
                out.completed,
            )
        };
        assert_eq!(ack_of(Time::ZERO, mk(0, false)).0, 1);
        // 1 lost; 2 and 3 arrive → duplicate ACKs at cum=1.
        let a1 = ack_of(Time::ZERO, mk(2, false)).0;
        let a2 = ack_of(Time::ZERO, mk(3, true)).0;
        assert_eq!((a1, a2), (1, 1), "duplicate cumulative ACKs");
        // Retransmitted 1 completes everything (2,3 were buffered).
        let (a3, done) = ack_of(Time::from_nanos(10), mk(1, false));
        assert_eq!(a3, 4);
        assert!(done, "OOO segments were buffered, not discarded");
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = sender(30_000);
        // Open the window: two slow-start rounds (2 → 4 → 8 in flight).
        let mut t = Time::ZERO;
        let mut b2 = drain(&mut s, t);
        for _ in 0..2 {
            t += Duration::micros(25);
            for p in std::mem::take(&mut b2) {
                s.on_ack_packet(t, &ack_at(p.psn + 1, p.sent_at));
            }
            b2 = drain(&mut s, t);
        }
        assert!(b2.len() >= 6);
        let first = b2[0].psn;
        // Two losses: first and first+2. Dupacks carry cum=first.
        t += Duration::micros(25);
        for _ in 0..3 {
            s.on_ack_packet(t, &ack_at(first, b2[1].sent_at));
        }
        let retx1 = drain(&mut s, t);
        assert_eq!(retx1[0].psn, first);
        // Partial ack up to the second hole.
        t += Duration::micros(25);
        s.on_ack_packet(t, &ack_at(first + 2, retx1[0].sent_at));
        let retx2 = drain(&mut s, t);
        assert_eq!(retx2[0].psn, first + 2, "NewReno retransmits the next hole");
    }

    #[test]
    fn completion_cancels_timer() {
        let mut s = sender(1_000);
        let pkts = drain(&mut s, Time::ZERO);
        let done = s.on_ack_packet(Time::from_nanos(5_000), &ack_at(1, pkts[0].sent_at));
        assert!(done);
        // Completion supersedes the arm from the send with a cancel, so
        // the embedding scheduler removes the deadline outright.
        assert_eq!(s.take_timer_request(), Some(TimerCmd::Cancel));
    }
}
