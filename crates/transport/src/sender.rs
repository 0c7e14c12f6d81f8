//! The sending half of a flow's queue pair.
//!
//! One [`SenderQp`] drives one flow (§4.1's unit of transfer). It
//! composes four orthogonal mechanisms, mirroring the paper's factoring:
//!
//! 1. **Loss recovery** — either IRN's SACK-driven selective repeat
//!    (§3.1), executed by the *same* `irn-rdma` packet-processing
//!    modules the paper synthesizes for Table 2, or RoCE's go-back-N
//!    rewind (§2.1);
//! 2. **BDP-FC** — the static in-flight cap (§3.2);
//! 3. **Congestion control** — optional rate pacing (Timely/DCQCN) or
//!    window bounding (AIMD/DCTCP),§4.2.4/§4.4.4;
//! 4. **Timeouts** — IRN's RTO_low/RTO_high split (§3.1) or RoCE's
//!    single RTO_high; disabled for RoCE-with-PFC (§4.1).
//!
//! The interface is poll-based: the NIC asks for the next packet when
//! the uplink frees ([`SenderQp::poll`]); ACK/NACK/CNP arrivals and
//! timer expirations are fed in; timer arm/cancel requests are drained
//! via [`SenderQp::take_timer_request`] and applied by the embedding
//! simulation to its scheduler's cancellable timer for this flow — a
//! cancelled deadline is removed in O(1) and [`SenderQp::on_timer`] is
//! only ever invoked for live expiries (no generation filtering).

use irn_net::{FlowId, HostId, Packet, PacketKind};
use irn_rdma::modules::{self, SenderContext, TimeoutOut, TxFreeOut};
use irn_sim::{Duration, Time};

use crate::cc::{CcKind, CcState};
use crate::config::{LossRecovery, TransportConfig};
use crate::tcp::TcpSender;

/// Result of asking the sender for its next packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderPoll {
    /// Transmit this packet now.
    Packet(Packet),
    /// Nothing until the given time (pacing gap or retransmission-fetch
    /// delay); poll again then.
    Wait(Time),
    /// Window/BDP-FC full, or all data sent: an ACK must arrive before
    /// anything more can happen.
    ///
    /// **Sticky until the sender is fed.** `Blocked` is a function of
    /// sender state alone, and that state changes only through
    /// `on_ack_packet`, `on_cnp`, `on_timer` or a `poll` that returns a
    /// packet; a sender that answered `Blocked` answers `Blocked` again,
    /// at any later time and without changing state, until one of the
    /// first three is called. The engine relies on this to stop polling
    /// such a sender (`Flows::poll_sender` in `irn-core`; its debug
    /// builds assert it at every skipped poll). Anything that the clock
    /// alone can unblock — a pacing gap, the retransmission-fetch delay
    /// — must be [`SenderPoll::Wait`], never `Blocked`.
    Blocked,
    /// Flow fully acknowledged; the QP can be torn down.
    Done,
}

/// A retransmission-timer request the embedding simulation must apply
/// to its scheduler (one cancellable timer per flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerCmd {
    /// Arm (or re-arm) the flow's timer to expire at the given absolute
    /// time, superseding any pending deadline.
    Arm(Time),
    /// Cancel the pending deadline; the expiry must never be delivered.
    Cancel,
}

/// Per-flow sender statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Data packets transmitted (including retransmissions).
    pub sent: u64,
    /// Retransmitted packets.
    pub retransmitted: u64,
    /// NACKs received.
    pub nacks: u64,
    /// Timeouts fired.
    pub timeouts: u64,
    /// CNPs received.
    pub cnps: u64,
}

/// [`SenderStats`] as a flow keeps them: `u32` counters, widened by
/// `stats()`. A flow's sequence space is a `u32`, and no flow sends
/// its packets anywhere near 2^32 times.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlowCounters {
    pub(crate) sent: u32,
    pub(crate) retransmitted: u32,
    pub(crate) nacks: u32,
    pub(crate) timeouts: u32,
    pub(crate) cnps: u32,
}

impl FlowCounters {
    pub(crate) fn widen(self) -> SenderStats {
        SenderStats {
            sent: self.sent.into(),
            retransmitted: self.retransmitted.into(),
            nacks: self.nacks.into(),
            timeouts: self.timeouts.into(),
            cnps: self.cnps.into(),
        }
    }
}

/// [`RetxTimer::pending_arm`] when no arm is pending.
const NO_ARM: Time = Time::MAX;

/// The flow's retransmission timer as its sender sees it: the armed
/// mirror of the one cancellable scheduler timer the embedding
/// simulation keeps per flow, the one-slot mailbox of requests for it,
/// and the lazy reset. Which timeout applies is the policy's argument.
#[derive(Debug)]
pub(crate) struct RetxTimer {
    /// An expiry is pending out in the simulation.
    armed: bool,
    /// The mailbox: an arm for this deadline ([`NO_ARM`]: none), or a
    /// cancel. At most one of the two is pending.
    pending_arm: Time,
    pending_cancel: bool,
    /// Last acknowledgement progress; an expiry earlier than
    /// `last_progress + RTO` re-arms instead of firing (the standard
    /// lazy-reset optimization — avoids scheduling an event per ACK).
    last_progress: Time,
}

impl Default for RetxTimer {
    fn default() -> RetxTimer {
        RetxTimer {
            armed: false,
            pending_arm: NO_ARM,
            pending_cancel: false,
            last_progress: Time::ZERO,
        }
    }
}

impl RetxTimer {
    /// No expiry is pending: the next send or progress must arm.
    pub(crate) fn is_idle(&self) -> bool {
        !self.armed
    }

    /// Arm (or re-arm) for `at`, superseding any pending deadline.
    pub(crate) fn arm(&mut self, at: Time) {
        self.armed = true;
        self.pending_arm = at;
        self.pending_cancel = false;
    }

    /// The flow completed: cancel the pending expiry if there is one,
    /// and drop any request not yet drained.
    fn disarm(&mut self) {
        self.pending_cancel = std::mem::take(&mut self.armed);
        self.pending_arm = NO_ARM;
    }

    /// Acknowledgement progress: the pending expiry defers against it.
    pub(crate) fn progress(&mut self, now: Time) {
        self.last_progress = now;
    }

    /// Start a full `rto` from `now`.
    pub(crate) fn restart(&mut self, now: Time, rto: Duration) {
        self.progress(now);
        self.arm(now + rto);
    }

    /// The pending expiry was delivered (only live ones ever are).
    pub(crate) fn expired(&mut self) {
        self.armed = false;
    }

    /// Lazy reset: with progress less than `rto` ago, push the deadline
    /// out instead of firing. Returns `true` when it re-armed.
    pub(crate) fn defer(&mut self, now: Time, rto: Duration) -> bool {
        let effective_deadline = self.last_progress + rto;
        if effective_deadline > now {
            self.arm(effective_deadline);
        }
        effective_deadline > now
    }

    /// Drain the request the last call left, if any.
    pub(crate) fn take_request(&mut self) -> Option<TimerCmd> {
        if std::mem::take(&mut self.pending_cancel) {
            return Some(TimerCmd::Cancel);
        }
        let at = std::mem::replace(&mut self.pending_arm, NO_ARM);
        (at != NO_ARM).then_some(TimerCmd::Arm(at))
    }
}

/// What every sender is, whatever recovers its losses: the flow's
/// identity and length, the `psn → Packet` packetizer with its
/// retransmission accounting, the retransmission timer's plumbing, and
/// completion. [`SenderQp`] and [`TcpSender`] are this plus a policy.
#[derive(Debug)]
pub(crate) struct SenderCore {
    pub(crate) cfg: TransportConfig,
    flow: FlowId,
    src: HostId,
    dst: HostId,
    size_bytes: u64,
    pub(crate) total_packets: u32,
    /// Highest sequence ever transmitted + 1 (for retransmit marking).
    pub(crate) highest_sent: u32,
    pub(crate) timer: RetxTimer,
    pub(crate) done: bool,
    pub(crate) stats: FlowCounters,
}

impl SenderCore {
    pub(crate) fn new(
        cfg: TransportConfig,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        size_bytes: u64,
    ) -> SenderCore {
        SenderCore {
            flow,
            src,
            dst,
            size_bytes,
            total_packets: cfg.packets_for(size_bytes),
            highest_sent: 0,
            timer: RetxTimer::default(),
            done: false,
            stats: FlowCounters::default(),
            cfg,
        }
    }

    /// Data packet `psn`, sent at `now`. A sequence below the high-water
    /// mark is a retransmission, and is counted as one.
    pub(crate) fn packet(&mut self, now: Time, psn: u32) -> Packet {
        let payload = self.cfg.payload_of(self.size_bytes, psn);
        let wire = self.cfg.data_wire_bytes(payload);
        let mut pkt = Packet::data(self.flow, self.src, self.dst, psn, wire);
        pkt.sent_at = now;
        pkt.is_last = psn + 1 == self.total_packets;
        pkt.is_retx = psn < self.highest_sent;
        if pkt.is_retx {
            self.stats.retransmitted += 1;
        }
        self.highest_sent = self.highest_sent.max(psn + 1);
        self.stats.sent += 1;
        pkt
    }

    /// Every packet is cumulatively acknowledged: finish, and cancel the
    /// pending deadline (the scheduler removes it in O(1) — it will
    /// never pop). Returns `true`: "the flow just completed".
    pub(crate) fn complete(&mut self) -> bool {
        self.timer.disarm();
        self.done = true;
        true
    }
}

/// The sending half of one flow.
#[derive(Debug)]
pub struct SenderQp {
    core: SenderCore,
    /// Transport context (SACK bitmap, cumulative state, recovery FSM).
    ctx: SenderContext,
    /// Go-back-N transmit cursor (rewinds on NACK); mirrors
    /// `ctx.next_to_send` in selective-repeat mode.
    gbn_cursor: u32,
    /// Congestion-control state.
    cc: CcState,
    /// Pacing: earliest next transmission.
    next_allowed: Time,
    /// Retransmissions become available at this time (PCIe fetch model,
    /// §6.3).
    retx_ready_at: Time,
    /// Pending head retransmission forced by a timeout (§3.1: timeout
    /// retransmits from the cumulative ack even without SACKs).
    force_head_retx: bool,
    /// In a loss episode for window-CC purposes (one `on_loss` per
    /// episode).
    cc_loss_reported: bool,
    /// NACKs seen outside recovery (for §7's reordering threshold).
    nacks_outside_recovery: u32,
    /// Last congestion window emitted as a `cc.cwnd` trace event; only
    /// touched while tracing is enabled, so behaviour is identical when
    /// it is off.
    last_traced_cwnd: Option<u32>,
}

impl SenderQp {
    /// Create the sender for a flow of `size_bytes` from `src` to `dst`,
    /// starting (at line rate, §4.1) at time `now`.
    pub fn new(
        cfg: TransportConfig,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        size_bytes: u64,
        cc_kind: CcKind,
        now: Time,
    ) -> SenderQp {
        let core = SenderCore::new(cfg, flow, src, dst, size_bytes);
        let cfg = &core.cfg;
        // Under BDP-FC every packet sent is below `cum_acked + cap`:
        // `poll_sack` sends only while `next_to_send − cum_acked < cap`,
        // `poll_gbn` only while `gbn_cursor − cum_acked < cap`, and
        // `cum_acked` only grows. A SACK names a packet already sent, so
        // every offset `receive_ack`, `tx_free` and `advance` see is
        // below `cap`, and a bitmap of `cap` bits (in place, up to 256)
        // loses nothing whatever the flow's length. Without BDP-FC the
        // window is the flow, up to 4 096 packets.
        let bitmap_bits = match cfg.bdp_cap {
            Some(cap) => cap.max(256),
            None => core.total_packets.clamp(256, 4096),
        };
        let cc = CcState::new(cc_kind, cfg.line_rate, cfg.bdp_cap.unwrap_or(110), now);
        SenderQp {
            ctx: SenderContext::new(bitmap_bits as usize),
            gbn_cursor: 0,
            cc,
            next_allowed: Time::ZERO,
            retx_ready_at: Time::ZERO,
            force_head_retx: false,
            cc_loss_reported: false,
            nacks_outside_recovery: 0,
            last_traced_cwnd: None,
            core,
        }
    }

    /// Total data packets in the flow.
    pub fn total_packets(&self) -> u32 {
        self.core.total_packets
    }

    /// True once every packet is cumulatively acknowledged.
    pub fn is_done(&self) -> bool {
        self.core.done
    }

    /// The flow's counters so far.
    pub fn stats(&self) -> SenderStats {
        self.core.stats.widen()
    }

    /// Effective window: the tightest of BDP-FC (§3.2) and the CC
    /// window (§4.4.4). `u32::MAX` when unbounded (plain RoCE).
    fn window(&self) -> u32 {
        let bdp = self.core.cfg.bdp_cap.unwrap_or(u32::MAX);
        let cwnd = self.cc.cwnd().unwrap_or(u32::MAX);
        bdp.min(cwnd)
    }

    /// Ask for the next packet to put on the wire. Keeps the
    /// stickiness contract on [`SenderPoll::Blocked`]: the two clock
    /// gates below answer `Wait`, and every `Blocked` comes from window
    /// and cursor state only.
    #[inline]
    pub fn poll(&mut self, now: Time) -> SenderPoll {
        if self.core.done {
            return SenderPoll::Done;
        }
        // Pacing gate (rate-based CC).
        if now < self.next_allowed {
            return SenderPoll::Wait(self.next_allowed);
        }

        // Timeout-forced head retransmission takes priority.
        if self.force_head_retx {
            if now < self.retx_ready_at {
                return SenderPoll::Wait(self.retx_ready_at);
            }
            self.force_head_retx = false;
            let psn = self.ctx.cum_acked;
            // Only an *outstanding* packet may go out through the retx
            // path. A timeout can race a fully acknowledged window
            // (in-flight 0 with unsent data still gated by pacing);
            // head-"retransmitting" psn == next_to_send here would ship
            // new data without advancing the send cursor, and the ack
            // for it would push cum_acked past next_to_send —
            // underflowing in_flight() and wedging the window
            // accounting. Fall through to regular transmission instead.
            if psn < self.ctx.next_to_send {
                return SenderPoll::Packet(self.make_packet(now, psn));
            }
        }

        match self.core.cfg.recovery {
            LossRecovery::SelectiveRepeat => self.poll_sack(now),
            LossRecovery::GoBackN => self.poll_gbn(now),
        }
    }

    fn poll_sack(&mut self, now: Time) -> SenderPoll {
        let can_send_new =
            self.ctx.in_flight() < self.window() && self.ctx.next_to_send < self.core.total_packets;
        match modules::tx_free(&mut self.ctx, can_send_new) {
            TxFreeOut::Retransmit { psn } => {
                if now < self.retx_ready_at {
                    // Not fetched yet (§6.3): undo the cursor advance and
                    // come back when the DMA completes.
                    self.ctx.retx_cursor = psn;
                    return SenderPoll::Wait(self.retx_ready_at);
                }
                SenderPoll::Packet(self.make_packet(now, psn))
            }
            TxFreeOut::SendNew { psn } => SenderPoll::Packet(self.make_packet(now, psn)),
            TxFreeOut::Idle => SenderPoll::Blocked,
        }
    }

    fn poll_gbn(&mut self, now: Time) -> SenderPoll {
        if self.gbn_cursor >= self.core.total_packets {
            return SenderPoll::Blocked;
        }
        if self.gbn_cursor.saturating_sub(self.ctx.cum_acked) >= self.window() {
            return SenderPoll::Blocked;
        }
        if self.gbn_cursor < self.core.highest_sent && now < self.retx_ready_at {
            return SenderPoll::Wait(self.retx_ready_at);
        }
        let psn = self.gbn_cursor;
        self.gbn_cursor += 1;
        // Keep the shared context's send cursor at the high-water mark so
        // in-flight accounting stays correct across rewinds.
        if self.gbn_cursor > self.ctx.next_to_send {
            self.ctx.next_to_send = self.gbn_cursor;
        }
        SenderPoll::Packet(self.make_packet(now, psn))
    }

    fn make_packet(&mut self, now: Time, psn: u32) -> Packet {
        let pkt = self.core.packet(now, psn);

        // Pacing: open the next slot per the current rate.
        if let Some(rate) = self.cc.pacing_rate_mbps(now) {
            let gap_ns = (pkt.wire_bytes as f64 * 8000.0 / rate).ceil() as u64;
            self.next_allowed = now + Duration::nanos(gap_ns);
        }
        self.cc.on_send(now, pkt.wire_bytes as u64);

        // Make sure a retransmission timer is running.
        if self.core.cfg.timeouts_enabled && self.core.timer.is_idle() {
            self.arm_timer(now);
        }
        pkt
    }

    /// The §3.1 timeout for the current flight, and whether it is
    /// RTO_low: only when few packets are in flight, and only for
    /// IRN-style recovery.
    fn rto(&self) -> (Duration, bool) {
        let cfg = &self.core.cfg;
        let low =
            cfg.recovery == LossRecovery::SelectiveRepeat && self.ctx.in_flight() < cfg.rto_low_n;
        (if low { cfg.rto_low } else { cfg.rto_high }, low)
    }

    /// Start a full timeout from `now`.
    fn arm_timer(&mut self, now: Time) {
        let (rto, low) = self.rto();
        self.ctx.rto_low_armed = low;
        self.core.timer.restart(now, rto);
    }

    /// Drain the timer request produced by the last call, if any. The
    /// embedding simulation applies it to this flow's scheduler timer.
    pub fn take_timer_request(&mut self) -> Option<TimerCmd> {
        self.core.timer.take_request()
    }

    /// Feed an arriving ACK or NACK. Returns `true` if the flow just
    /// completed (all data acknowledged).
    pub fn on_ack_packet(&mut self, now: Time, pkt: &Packet) -> bool {
        debug_assert!(matches!(pkt.kind, PacketKind::Ack | PacketKind::Nack));
        let is_nack = pkt.kind == PacketKind::Nack;
        let cum = pkt.psn;
        let sack = is_nack.then_some(pkt.sack);
        if is_nack {
            self.core.stats.nacks += 1;
        }

        // §7 reordering robustness: with a threshold > 1, the first
        // NACKs outside recovery record their SACK information but do
        // not trigger retransmission — spraying fabrics NACK benignly.
        let mut effective_nack = is_nack;
        let cfg = &self.core.cfg;
        if is_nack && cfg.recovery == LossRecovery::SelectiveRepeat && !self.ctx.in_recovery {
            self.nacks_outside_recovery += 1;
            if self.nacks_outside_recovery < cfg.nack_threshold {
                effective_nack = false;
            }
        }
        let out = modules::receive_ack(&mut self.ctx, cum, sack, effective_nack);

        if out.entered_recovery || out.exited_recovery {
            self.nacks_outside_recovery = 0;
        }
        if out.entered_recovery {
            self.retx_ready_at = now + self.core.cfg.retx_fetch_delay;
            self.report_cc_loss(now);
        }
        if out.exited_recovery {
            self.cc_loss_reported = false;
        }

        match self.core.cfg.recovery {
            LossRecovery::SelectiveRepeat => {}
            LossRecovery::GoBackN => {
                if is_nack {
                    // §2.1: retransmit all packets sent after the last
                    // acknowledged one.
                    if cum < self.gbn_cursor {
                        self.gbn_cursor = cum.max(self.ctx.cum_acked);
                        self.retx_ready_at = now + self.core.cfg.retx_fetch_delay;
                        self.report_cc_loss(now);
                    }
                } else if cum > self.gbn_cursor {
                    self.gbn_cursor = cum;
                }
            }
        }

        // Congestion-control feedback: RTT echo + ECN echo.
        let rtt = now.saturating_since(pkt.sent_at);
        self.cc.on_ack(now, out.newly_acked, rtt, pkt.ecn_echo);
        self.trace_cwnd(now);

        // Timer discipline: progress re-arms, completion cancels.
        if self.ctx.cum_acked >= self.core.total_packets {
            return self.core.complete();
        }
        if out.newly_acked > 0 {
            self.core.timer.progress(now);
            if self.core.cfg.timeouts_enabled && self.core.timer.is_idle() {
                self.arm_timer(now);
            }
        }
        false
    }

    fn report_cc_loss(&mut self, now: Time) {
        if !self.cc_loss_reported {
            self.cc_loss_reported = true;
            self.cc.on_loss(now);
            self.trace_cwnd(now);
        }
    }

    /// Emit a `cc.cwnd` trace event when the congestion window changed
    /// since the last one. No-op (and no state change) unless tracing is
    /// live on this thread, so determinism with tracing off is untouched.
    fn trace_cwnd(&mut self, now: Time) {
        if !irn_telemetry::enabled() {
            return;
        }
        if let Some(cwnd) = self.cc.cwnd() {
            if self.last_traced_cwnd != Some(cwnd) {
                self.last_traced_cwnd = Some(cwnd);
                irn_telemetry::trace!(
                    "cc.cwnd",
                    t = now.as_nanos(),
                    flow = self.core.flow.0,
                    host = self.core.src.0,
                    cwnd = cwnd,
                );
            }
        }
    }

    /// Feed a DCQCN congestion-notification packet.
    pub fn on_cnp(&mut self, now: Time) {
        self.core.stats.cnps += 1;
        self.cc.on_cnp(now);
        self.trace_cwnd(now);
    }

    /// The flow's (live) retransmission timer expired. The embedding
    /// simulation's scheduler guarantees cancelled or superseded
    /// deadlines never reach here. Returns `true` if the sender acted
    /// (fired or re-armed) — i.e. a follow-up poll/drain is warranted.
    pub fn on_timer(&mut self, now: Time) -> bool {
        if self.core.done {
            return false;
        }
        self.core.timer.expired();
        if self.ctx.in_flight() == 0 && self.ctx.next_to_send >= self.core.total_packets {
            return false; // nothing outstanding; quiescent
        }
        let (rto_now, low) = self.rto();
        if self.core.timer.defer(now, rto_now) {
            self.ctx.rto_low_armed = low;
            return true;
        }
        match self.core.cfg.recovery {
            LossRecovery::SelectiveRepeat => {
                match modules::timeout(&mut self.ctx, self.core.cfg.rto_low_n) {
                    TimeoutOut::ExtendToHigh => {
                        // Re-arm with the long timeout; no action (§6.2).
                        self.core.timer.arm(now + self.core.cfg.rto_high);
                        return true;
                    }
                    TimeoutOut::Fired { .. } => {
                        self.core.stats.timeouts += 1;
                        self.force_head_retx = true;
                        self.retx_ready_at = now + self.core.cfg.retx_fetch_delay;
                        self.report_cc_loss(now);
                    }
                }
            }
            LossRecovery::GoBackN => {
                self.core.stats.timeouts += 1;
                self.gbn_cursor = self.ctx.cum_acked;
                self.retx_ready_at = now + self.core.cfg.retx_fetch_delay;
                self.report_cc_loss(now);
            }
        }
        self.arm_timer(now);
        true
    }
}

/// The sending endpoint of one flow, whichever transport runs it: what
/// the embedding simulation holds, polls and feeds. Built by
/// [`crate::endpoints`]; each method is its namesake on [`SenderQp`] /
/// [`TcpSender`].
///
/// A plain enum, not a trait object: senders live by value in one flat
/// slab and `poll` is the per-packet path. The size skew between the
/// variants is accepted for the same reason — boxing the large one
/// would put an indirection on that path.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Sender {
    /// RoCE, IRN and the Figure 7 ablations.
    Rdma(SenderQp),
    /// The iWARP-style TCP stack.
    Tcp(TcpSender),
}

impl Sender {
    /// Ask for the next packet to put on the wire.
    #[inline]
    pub fn poll(&mut self, now: Time) -> SenderPoll {
        match self {
            Sender::Rdma(s) => s.poll(now),
            Sender::Tcp(s) => s.poll(now),
        }
    }

    /// Feed an arriving ACK or NACK; `true` if the flow just completed.
    #[inline]
    pub fn on_ack_packet(&mut self, now: Time, pkt: &Packet) -> bool {
        match self {
            Sender::Rdma(s) => s.on_ack_packet(now, pkt),
            Sender::Tcp(s) => s.on_ack_packet(now, pkt),
        }
    }

    /// Feed a DCQCN congestion-notification packet (TCP never gets one).
    #[inline]
    pub fn on_cnp(&mut self, now: Time) {
        if let Sender::Rdma(s) = self {
            s.on_cnp(now);
        }
    }

    /// The flow's (live) retransmission timer expired; `true` if the
    /// sender acted (fired or re-armed).
    #[inline]
    pub fn on_timer(&mut self, now: Time) -> bool {
        match self {
            Sender::Rdma(s) => s.on_timer(now),
            Sender::Tcp(s) => s.on_timer(now),
        }
    }

    /// Drain the timer request produced by the last call, if any.
    #[inline]
    pub fn take_timer_request(&mut self) -> Option<TimerCmd> {
        match self {
            Sender::Rdma(s) => s.take_timer_request(),
            Sender::Tcp(s) => s.take_timer_request(),
        }
    }

    /// The flow's counters so far, in the one shape every transport has.
    pub fn stats(&self) -> SenderStats {
        match self {
            Sender::Rdma(s) => s.stats(),
            Sender::Tcp(s) => s.stats(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The deadline the sender just asked its timer to be armed for.
    pub(crate) fn armed_deadline(cmd: Option<TimerCmd>) -> Time {
        match cmd {
            Some(TimerCmd::Arm(t)) => t,
            other => panic!("expected a timer arm, got {other:?}"),
        }
    }
    fn irn_sender(size: u64) -> SenderQp {
        SenderQp::new(
            TransportConfig::irn_default(),
            FlowId(0),
            HostId(0),
            HostId(1),
            size,
            CcKind::None,
            Time::ZERO,
        )
    }

    fn roce_sender(size: u64, with_pfc: bool) -> SenderQp {
        SenderQp::new(
            TransportConfig::roce_default(with_pfc),
            FlowId(0),
            HostId(0),
            HostId(1),
            size,
            CcKind::None,
            Time::ZERO,
        )
    }

    fn ack(cum: u32, sent_at: Time) -> Packet {
        let mut p = Packet::control(PacketKind::Ack, FlowId(0), HostId(1), HostId(0), cum, 64);
        p.sent_at = sent_at;
        p
    }

    fn nack(cum: u32, sack: u32, sent_at: Time) -> Packet {
        let mut p = Packet::control(PacketKind::Nack, FlowId(0), HostId(1), HostId(0), cum, 64);
        p.sack = sack;
        p.sent_at = sent_at;
        p
    }

    fn drain(s: &mut SenderQp, now: Time) -> Vec<Packet> {
        let mut pkts = Vec::new();
        while let SenderPoll::Packet(p) = s.poll(now) {
            pkts.push(p);
        }
        pkts
    }

    #[test]
    fn bdp_fc_caps_initial_burst() {
        // 1 MB flow = 1000 packets, but only 110 may be outstanding.
        let mut s = irn_sender(1_000_000);
        let burst = drain(&mut s, Time::ZERO);
        assert_eq!(burst.len(), 110, "§3.2: BDP cap");
        assert_eq!(s.poll(Time::ZERO), SenderPoll::Blocked);
        // ACKs open the window one-for-one.
        s.on_ack_packet(Time::from_nanos(100), &ack(5, Time::ZERO));
        let more = drain(&mut s, Time::from_nanos(100));
        assert_eq!(more.len(), 5);
    }

    #[test]
    fn roce_has_no_bdp_cap() {
        let mut s = roce_sender(1_000_000, true);
        let burst = drain(&mut s, Time::ZERO);
        assert_eq!(burst.len(), 1000, "RoCE blasts the whole message");
    }

    #[test]
    fn packets_have_correct_sizes_and_last_flag() {
        let mut s = irn_sender(2_500);
        let pkts = drain(&mut s, Time::ZERO);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].wire_bytes, 1048);
        assert_eq!(pkts[2].wire_bytes, 500 + 48);
        assert!(pkts[2].is_last);
        assert!(!pkts[0].is_last);
    }

    #[test]
    fn sack_recovery_retransmits_only_losses() {
        let mut s = irn_sender(10_000); // 10 packets
        let t0 = Time::ZERO;
        drain(&mut s, t0);
        // Receiver got 0,1; 2 lost; 3..9 arrived (SACKed).
        let t1 = Time::from_nanos(10_000);
        s.on_ack_packet(t1, &ack(2, t0));
        for sacked in 3..10 {
            s.on_ack_packet(t1, &nack(2, sacked, t0));
        }
        let retx = drain(&mut s, t1);
        assert_eq!(retx.len(), 1, "only the lost packet retransmits");
        assert_eq!(retx[0].psn, 2);
        assert!(retx[0].is_retx);
        // Ack for the retransmission completes the flow.
        let done = s.on_ack_packet(Time::from_nanos(20_000), &ack(10, t1));
        assert!(done);
        assert!(s.is_done());
        assert_eq!(s.stats().retransmitted, 1);
    }

    #[test]
    fn gbn_rewinds_everything_after_loss() {
        let mut s = roce_sender(10_000, false);
        let t0 = Time::ZERO;
        let first = drain(&mut s, t0);
        assert_eq!(first.len(), 10);
        // Receiver NACKs at expected=2 (packet 2 lost).
        let t1 = Time::from_nanos(10_000);
        s.on_ack_packet(t1, &nack(2, 3, t0));
        let retx = drain(&mut s, t1);
        // Go-back-N: retransmits 2..9 (8 packets).
        assert_eq!(retx.len(), 8, "§2.1: all packets after the loss resend");
        assert_eq!(retx[0].psn, 2);
        assert!(retx.iter().all(|p| p.is_retx));
        assert_eq!(s.stats().retransmitted, 8);
    }

    #[test]
    fn timeout_forces_head_retransmission() {
        let mut s = irn_sender(2_000); // 2 packets: in-flight 2 < N=3 → RTO_low
        let pkts = drain(&mut s, Time::ZERO);
        assert_eq!(pkts.len(), 2);
        let deadline = armed_deadline(s.take_timer_request());
        assert_eq!(deadline, Time::ZERO + Duration::micros(100), "RTO_low");
        assert!(s.on_timer(deadline));
        assert_eq!(s.stats().timeouts, 1);
        let retx = drain(&mut s, deadline);
        assert_eq!(retx[0].psn, 0, "§3.1: timeout retransmits the cum. ack");
        assert!(retx[0].is_retx);
    }

    #[test]
    fn rto_low_extends_to_high_when_flight_grows() {
        let mut s = irn_sender(200_000); // 200 packets
        drain(&mut s, Time::ZERO);
        // Timer armed at the first send while in-flight was 0 → RTO_low.
        let deadline = armed_deadline(s.take_timer_request());
        assert_eq!(deadline, Time::ZERO + Duration::micros(100));
        // At expiry 110 packets are in flight (≥ N): must extend to
        // RTO_high (measured from the arming point), not fire.
        assert!(s.on_timer(deadline));
        assert_eq!(s.stats().timeouts, 0, "no spurious timeout");
        assert_eq!(
            armed_deadline(s.take_timer_request()),
            Time::ZERO + Duration::micros(320),
            "extended to RTO_high"
        );
    }

    #[test]
    fn ack_progress_defers_timeout() {
        let mut s = irn_sender(5_000);
        drain(&mut s, Time::ZERO);
        let d1 = armed_deadline(s.take_timer_request());
        // Progress at 5 µs: the expiry at the original deadline must
        // defer (re-arm), not fire a timeout.
        s.on_ack_packet(Time::ZERO + Duration::micros(5), &ack(2, Time::ZERO));
        assert!(s.on_timer(d1), "live but deferred");
        assert_eq!(s.stats().timeouts, 0);
        let d2 = armed_deadline(s.take_timer_request());
        assert!(d2 > d1);
        // The deferred deadline eventually fires for real.
        assert!(s.on_timer(d2));
        assert_eq!(s.stats().timeouts, 1);
    }

    #[test]
    fn completion_requests_timer_cancel() {
        let mut s = irn_sender(2_000);
        drain(&mut s, Time::ZERO);
        assert!(matches!(
            s.take_timer_request(),
            Some(TimerCmd::Arm(_)),
            // armed on first send
        ));
        assert!(s.on_ack_packet(Time::from_nanos(5_000), &ack(2, Time::ZERO)));
        assert_eq!(
            s.take_timer_request(),
            Some(TimerCmd::Cancel),
            "completion must cancel the pending deadline in the scheduler"
        );
    }

    #[test]
    fn timeouts_disabled_for_roce_with_pfc() {
        let mut s = roce_sender(5_000, true);
        drain(&mut s, Time::ZERO);
        assert!(s.take_timer_request().is_none(), "§4.1: no timers with PFC");
    }

    #[test]
    fn pacing_spaces_packets_at_cc_rate() {
        let cfg = TransportConfig::irn_default();
        let mut s = SenderQp::new(
            cfg,
            FlowId(0),
            HostId(0),
            HostId(1),
            10_000,
            CcKind::Timely,
            Time::ZERO,
        );
        // Line rate 40 Gbps: 1048 B gap = 1048*8/40000 µs ≈ 210 ns.
        let SenderPoll::Packet(_) = s.poll(Time::ZERO) else {
            panic!()
        };
        match s.poll(Time::ZERO) {
            SenderPoll::Wait(t) => {
                assert_eq!(t, Time::from_nanos(210), "pacing gap at line rate")
            }
            other => panic!("expected pacing wait, got {other:?}"),
        }
        // At the allowed time the next packet flows.
        assert!(matches!(
            s.poll(Time::from_nanos(210)),
            SenderPoll::Packet(_)
        ));
    }

    #[test]
    fn cnp_cuts_dcqcn_rate_and_pacing_slows() {
        let cfg = TransportConfig::irn_default();
        let mut s = SenderQp::new(
            cfg,
            FlowId(0),
            HostId(0),
            HostId(1),
            100_000,
            CcKind::Dcqcn,
            Time::ZERO,
        );
        let SenderPoll::Packet(_) = s.poll(Time::ZERO) else {
            panic!()
        };
        s.on_cnp(Time::from_nanos(50));
        // Pull the next packet at its allowed time, then measure the gap.
        let t1 = match s.poll(Time::from_nanos(50)) {
            SenderPoll::Wait(t) => t,
            SenderPoll::Packet(_) => Time::from_nanos(50),
            other => panic!("{other:?}"),
        };
        let SenderPoll::Packet(_) = s.poll(t1) else {
            panic!()
        };
        match s.poll(t1) {
            SenderPoll::Wait(t2) => {
                let gap = t2.since(t1);
                assert!(
                    gap >= Duration::nanos(400),
                    "post-CNP gap must reflect the halved rate, got {gap}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retx_fetch_delay_postpones_retransmissions_only() {
        let mut cfg = TransportConfig::irn_default();
        cfg.retx_fetch_delay = Duration::micros(2);
        let mut s = SenderQp::new(
            cfg,
            FlowId(0),
            HostId(0),
            HostId(1),
            10_000,
            CcKind::None,
            Time::ZERO,
        );
        drain(&mut s, Time::ZERO);
        let t1 = Time::from_nanos(10_000);
        s.on_ack_packet(t1, &nack(2, 5, Time::ZERO));
        match s.poll(t1) {
            SenderPoll::Wait(t) => assert_eq!(t, t1 + Duration::micros(2)),
            other => panic!("retransmission must wait for the fetch: {other:?}"),
        }
        let retx = drain(&mut s, t1 + Duration::micros(2));
        assert_eq!(retx[0].psn, 2);
    }

    #[test]
    fn aimd_window_halves_on_loss() {
        let cfg = TransportConfig::irn_default();
        let mut s = SenderQp::new(
            cfg,
            FlowId(0),
            HostId(0),
            HostId(1),
            1_000_000,
            CcKind::Aimd,
            Time::ZERO,
        );
        let burst = drain(&mut s, Time::ZERO);
        assert_eq!(burst.len(), 110, "min(BDP cap, cwnd)");
        let t1 = Time::from_nanos(10_000);
        s.on_ack_packet(t1, &nack(0, 1, Time::ZERO));
        // After halving, the window is 55: with 110 in flight the sender
        // can only retransmit the hole, not send new data.
        let pkts = drain(&mut s, t1);
        assert!(pkts.iter().all(|p| p.is_retx));
    }

    #[test]
    fn done_flow_reports_done() {
        let mut s = irn_sender(1_000);
        drain(&mut s, Time::ZERO);
        assert!(s.on_ack_packet(Time::from_nanos(5_000), &ack(1, Time::ZERO)));
        assert_eq!(s.poll(Time::from_nanos(6_000)), SenderPoll::Done);
    }

    #[test]
    fn single_packet_flow_uses_rto_low() {
        let mut s = irn_sender(100);
        let pkts = drain(&mut s, Time::ZERO);
        assert_eq!(pkts.len(), 1);
        assert_eq!(
            armed_deadline(s.take_timer_request()),
            Time::ZERO + Duration::micros(100),
            "§3.1: short messages recover via RTO_low"
        );
    }
}
