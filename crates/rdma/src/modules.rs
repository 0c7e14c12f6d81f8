//! The four NIC packet-processing modules of §6.2, as pure functions.
//!
//! The paper synthesizes exactly four modules on a Kintex Ultrascale
//! FPGA — `receiveData`, `txFree`, `receiveAck`, `timeout` — each taking
//! "the relevant packet metadata and the QP context as streamed inputs"
//! and emitting the updated context plus module-specific outputs. This
//! module reproduces those interfaces in software:
//!
//! * the same inputs and outputs (Table 2's modules);
//! * the same bitmap algorithms (chunked find-first-zero / popcount /
//!   shifts over BDP-sized ring buffers, see [`crate::bitmap`]);
//! * the same transport semantics (§3.1's loss-recovery rules).
//!
//! `irn-transport` builds its IRN sender/receiver directly on these
//! functions, so the logic the repo benchmark times
//! (`rdma.receive_data_ns`) is the logic that produces every
//! simulation result — not a copy.

use crate::bitmap::{RingBitmap, TwoBitmap};

/// Sender half of the transport-level queue-pair context — the per-QP
/// state §6.1 budgets, per side: what `txFree`, `receiveAck` and
/// `timeout` stream in and out.
#[derive(Debug, Clone)]
pub struct SenderContext {
    /// Cumulative acknowledgement: everything below is delivered.
    pub cum_acked: u32,
    /// Next fresh sequence number to assign.
    pub next_to_send: u32,
    /// Sequence to examine next for retransmission (§6.1: "24 bits to
    /// track the packet sequence to be retransmitted").
    pub retx_cursor: u32,
    /// Last regular packet sent before the first retransmission; leaving
    /// recovery requires `cum_acked` to pass it (§3.1, §6.1's second
    /// 24-bit field).
    pub recovery_seq: u32,
    /// In loss-recovery mode.
    pub in_recovery: bool,
    /// One above the highest selectively-acked sequence (0 = none).
    pub highest_sacked: u32,
    /// Selective-ack bitmap, head at `cum_acked`.
    pub sack: RingBitmap,
    /// The armed timer is the short RTO_low one (§3.1/§6.2 timeout
    /// module contract).
    pub rto_low_armed: bool,
}

impl SenderContext {
    /// Fresh context with an all-zero sequence space; `bdp_cap` sizes
    /// the SACK bitmap (in packets).
    pub fn new(bdp_cap: usize) -> SenderContext {
        SenderContext {
            cum_acked: 0,
            next_to_send: 0,
            retx_cursor: 0,
            recovery_seq: 0,
            in_recovery: false,
            highest_sacked: 0,
            sack: RingBitmap::new(bdp_cap),
            rto_low_armed: false,
        }
    }

    /// Packets in flight as the sender sees them (§3.2: "computed as the
    /// difference between current packet's sequence number and last
    /// acknowledged sequence number").
    pub fn in_flight(&self) -> u32 {
        self.next_to_send - self.cum_acked
    }

    /// Shared recovery-entry bookkeeping (NACK or timeout): start
    /// retransmitting from the cumulative ack, remember the last regular
    /// packet sent (§3.1's recovery sequence).
    fn entered_recovery_reset(&mut self) {
        self.retx_cursor = self.cum_acked;
        self.recovery_seq = self.next_to_send.saturating_sub(1).max(self.cum_acked);
    }
}

/// Receiver half of the queue-pair context: what `receiveData` streams
/// in and out ([`SenderContext`] is the other half).
#[derive(Debug, Clone)]
pub struct QpContext {
    /// Next expected sequence number.
    pub expected_seq: u32,
    /// Message sequence number (completed messages, §5.3.3).
    pub msn: u32,
    /// Arrival/last-packet 2-bitmap, head at `expected_seq`.
    pub recv: TwoBitmap,
    /// Set while a NACK for the current `expected_seq` has already been
    /// sent and no in-order progress has happened since; RoCE-style
    /// receivers use it to avoid NACK storms (IRN NACKs every OOO
    /// arrival and keeps it `false`).
    pub nack_outstanding: bool,
}

impl QpContext {
    /// Fresh context with an all-zero sequence space; `bdp_cap` sizes
    /// the receive bitmaps (in packets).
    pub fn new(bdp_cap: usize) -> QpContext {
        QpContext {
            expected_seq: 0,
            msn: 0,
            recv: TwoBitmap::new(bdp_cap),
            nack_outstanding: false,
        }
    }
}

/// Acknowledgement a receiver emits in response to a data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckEmit {
    /// Cumulative ACK carrying the expected sequence number.
    Ack {
        /// Receiver's (new) expected sequence number.
        cum: u32,
    },
    /// NACK carrying the cumulative acknowledgement *and* the sequence
    /// that triggered it — IRN's simplified SACK (§3.1).
    Nack {
        /// Receiver's expected sequence number.
        cum: u32,
        /// The out-of-order arrival that triggered this NACK.
        sack: u32,
    },
    /// Nothing to emit (e.g. RoCE-style duplicate suppression).
    None,
}

/// Receiver policy: how the receiver treats out-of-order arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverMode {
    /// IRN: buffer OOO packets, NACK with SACK info on every OOO arrival
    /// (§3.1).
    Irn,
    /// Current RoCE NICs: discard OOO packets, NACK once per sequence
    /// error until in-order progress resumes (go-back-N partner, §2.1).
    RoceGoBackN,
}

/// `receiveData` (§6.2): triggered on a data-packet arrival; updates the
/// receive bitmaps and the MSN, and produces the (N)ACK to send back.
pub fn receive_data(ctx: &mut QpContext, psn: u32, is_last: bool, mode: ReceiverMode) -> AckEmit {
    if psn < ctx.expected_seq {
        // Already delivered (retransmitted duplicate): re-ACK so the
        // sender's cumulative state can advance.
        return AckEmit::Ack {
            cum: ctx.expected_seq,
        };
    }

    let offset = (psn - ctx.expected_seq) as usize;

    if psn == ctx.expected_seq {
        // In-order: record, slide the 2-bitmap, bump MSN.
        ctx.recv.record(offset, is_last);
        let (advanced, completions) = ctx.recv.slide();
        ctx.expected_seq += advanced as u32;
        ctx.msn += completions as u32;
        ctx.nack_outstanding = false;
        return AckEmit::Ack {
            cum: ctx.expected_seq,
        };
    }

    // Out of order.
    match mode {
        ReceiverMode::Irn => {
            if offset >= ctx.recv.capacity() {
                // BDP-FC bounds OOO arrivals to the bitmap size (§6.1);
                // anything beyond is discarded defensively.
                return AckEmit::None;
            }
            if !ctx.recv.has(offset) {
                ctx.recv.record(offset, is_last);
            }
            // §3.1: "Upon every out-of-order packet arrival, an IRN
            // receiver sends a NACK, which carries both the cumulative
            // acknowledgment … and the sequence number of the packet
            // that triggered the NACK."
            AckEmit::Nack {
                cum: ctx.expected_seq,
                sack: psn,
            }
        }
        ReceiverMode::RoceGoBackN => {
            // §2.1: discard and NACK (once per sequence-error episode).
            if ctx.nack_outstanding {
                AckEmit::None
            } else {
                ctx.nack_outstanding = true;
                AckEmit::Nack {
                    cum: ctx.expected_seq,
                    sack: psn,
                }
            }
        }
    }
}

/// Output of the `txFree` module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxFreeOut {
    /// Retransmit this sequence number (loss recovery, §3.1).
    Retransmit {
        /// The lost packet's sequence number.
        psn: u32,
    },
    /// Transmit the next new packet (the caller enforces BDP-FC and
    /// message limits before asking).
    SendNew {
        /// The fresh sequence number to use.
        psn: u32,
    },
    /// Nothing to retransmit; sending new data is not allowed either.
    Idle,
}

/// `txFree` (§6.2): triggered when the link is free for this QP. During
/// loss recovery it performs the look-ahead search of the SACK bitmap
/// for the next sequence to retransmit.
///
/// `can_send_new` is the caller's BDP-FC / window / pending-data gate.
pub fn tx_free(ctx: &mut SenderContext, can_send_new: bool) -> TxFreeOut {
    if ctx.in_recovery {
        // §3.1: first retransmission is the cumulative ack; a later
        // packet is lost only if a higher sequence was SACKed.
        while ctx.retx_cursor < ctx.highest_sacked {
            let psn = ctx.retx_cursor;
            if psn < ctx.cum_acked {
                ctx.retx_cursor = ctx.cum_acked;
                continue;
            }
            let off = (psn - ctx.cum_acked) as usize;
            if off < ctx.sack.capacity() && !ctx.sack.get(off) {
                ctx.retx_cursor = psn + 1;
                return TxFreeOut::Retransmit { psn };
            }
            ctx.retx_cursor = psn + 1;
        }
        // No known-lost packets left: §3.1 "when there are no more lost
        // packets to be retransmitted, the sender continues to transmit
        // new packets (if allowed by BDP-FC)".
    }
    if can_send_new {
        let psn = ctx.next_to_send;
        ctx.next_to_send += 1;
        TxFreeOut::SendNew { psn }
    } else {
        TxFreeOut::Idle
    }
}

/// Output of the `receiveAck` module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceiveAckOut {
    /// Packets newly cumulatively acknowledged.
    pub newly_acked: u32,
    /// This (N)ACK put the sender into loss recovery.
    pub entered_recovery: bool,
    /// This ACK completed loss recovery (§3.1 exit rule).
    pub exited_recovery: bool,
}

/// `receiveAck` (§6.2): triggered when an ACK/NACK arrives; advances the
/// cumulative state, shifts the SACK bitmap, records selective acks, and
/// drives recovery entry/exit.
pub fn receive_ack(
    ctx: &mut SenderContext,
    cum: u32,
    sack: Option<u32>,
    is_nack: bool,
) -> ReceiveAckOut {
    let mut out = ReceiveAckOut::default();

    // Advance the cumulative point and shift the bitmap head with it.
    if cum > ctx.cum_acked {
        out.newly_acked = cum - ctx.cum_acked;
        ctx.sack.advance((cum - ctx.cum_acked) as usize);
        ctx.cum_acked = cum;
        if ctx.retx_cursor < cum {
            ctx.retx_cursor = cum;
        }
        if ctx.highest_sacked < cum {
            ctx.highest_sacked = cum;
        }
    }

    // Record the selective acknowledgement (NACK trigger sequence).
    if let Some(s) = sack {
        if s >= ctx.cum_acked {
            let off = (s - ctx.cum_acked) as usize;
            if off < ctx.sack.capacity() {
                ctx.sack.set(off);
                if s + 1 > ctx.highest_sacked {
                    ctx.highest_sacked = s + 1;
                }
            }
        }
    }

    // Recovery entry: a NACK signals loss (§3.1).
    if is_nack && !ctx.in_recovery {
        ctx.in_recovery = true;
        ctx.entered_recovery_reset();
        out.entered_recovery = true;
    }

    // Recovery exit: cumulative ack passed the recovery sequence.
    if ctx.in_recovery && ctx.cum_acked > ctx.recovery_seq {
        ctx.in_recovery = false;
        out.exited_recovery = true;
    }
    out
}

/// Output of the `timeout` module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutOut {
    /// The RTO_low condition no longer holds: re-arm with RTO_high and
    /// take no recovery action (§6.2: "sets an output flag to extend the
    /// timeout to RTO_high").
    ExtendToHigh,
    /// Timeout action executed: enter recovery, retransmit from the
    /// cumulative ack.
    Fired {
        /// Recovery was (re-)entered by this timeout.
        entered_recovery: bool,
    },
}

/// `timeout` (§6.2): called when the armed timer expires.
///
/// `n_threshold` is the paper's `N` (default 3): RTO_low applies only
/// when fewer than `N` packets are in flight, keeping spurious
/// retransmissions negligible (§3.1).
pub fn timeout(ctx: &mut SenderContext, n_threshold: u32) -> TimeoutOut {
    if ctx.rto_low_armed && ctx.in_flight() >= n_threshold {
        // Condition for the short timeout does not hold any more.
        ctx.rto_low_armed = false;
        return TimeoutOut::ExtendToHigh;
    }
    let entered = !ctx.in_recovery;
    ctx.in_recovery = true;
    ctx.entered_recovery_reset();
    TimeoutOut::Fired {
        entered_recovery: entered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 128;

    /// A fresh receiver half.
    fn ctx() -> QpContext {
        QpContext::new(CAP)
    }

    /// A fresh sender half.
    fn sctx() -> SenderContext {
        SenderContext::new(CAP)
    }

    /// Head-relative offsets the receiver holds out of order.
    fn held(c: &QpContext) -> Vec<usize> {
        (0..c.recv.capacity()).filter(|&i| c.recv.has(i)).collect()
    }

    // ---- receiveData ----

    #[test]
    fn in_order_stream_acks_cumulatively() {
        let mut c = ctx();
        for psn in 0..5 {
            let ack = receive_data(&mut c, psn, false, ReceiverMode::Irn);
            assert_eq!(ack, AckEmit::Ack { cum: psn + 1 });
            assert_eq!(c.expected_seq, psn + 1);
            assert!(held(&c).is_empty());
        }
    }

    #[test]
    fn irn_ooo_arrival_nacks_with_sack() {
        let mut c = ctx();
        receive_data(&mut c, 0, false, ReceiverMode::Irn);
        // Packet 1 lost; 2 and 3 arrive and are buffered.
        let ack = receive_data(&mut c, 2, false, ReceiverMode::Irn);
        assert_eq!(ack, AckEmit::Nack { cum: 1, sack: 2 });
        let ack = receive_data(&mut c, 3, false, ReceiverMode::Irn);
        assert_eq!(ack, AckEmit::Nack { cum: 1, sack: 3 });
        assert_eq!(c.expected_seq, 1);
        assert_eq!(held(&c), vec![1, 2]);
        // Retransmitted 1 fills the hole: window slides over 1,2,3.
        let ack = receive_data(&mut c, 1, false, ReceiverMode::Irn);
        assert_eq!(ack, AckEmit::Ack { cum: 4 });
        assert_eq!(c.expected_seq, 4);
        assert!(held(&c).is_empty());
    }

    #[test]
    fn irn_msn_counts_messages_released_in_order() {
        let mut c = ctx();
        // Two messages: {0,1(last)} and {2(last)}; 0 lost initially.
        receive_data(&mut c, 1, true, ReceiverMode::Irn);
        receive_data(&mut c, 2, true, ReceiverMode::Irn);
        assert_eq!(c.msn, 0, "completions held until the hole fills");
        receive_data(&mut c, 0, false, ReceiverMode::Irn);
        assert_eq!(c.msn, 2);
        assert_eq!(c.expected_seq, 3);
    }

    #[test]
    fn irn_duplicate_ooo_is_flagged() {
        let mut c = ctx();
        receive_data(&mut c, 2, false, ReceiverMode::Irn);
        let ack = receive_data(&mut c, 2, false, ReceiverMode::Irn);
        assert_eq!(ack, AckEmit::Nack { cum: 0, sack: 2 });
        assert_eq!(c.expected_seq, 0);
        assert_eq!(held(&c), vec![2], "held once, not twice");
    }

    #[test]
    fn irn_below_window_duplicate_reacks() {
        let mut c = ctx();
        for psn in 0..3 {
            receive_data(&mut c, psn, false, ReceiverMode::Irn);
        }
        let ack = receive_data(&mut c, 1, false, ReceiverMode::Irn);
        assert_eq!(ack, AckEmit::Ack { cum: 3 });
        assert_eq!(c.expected_seq, 3);
        assert!(held(&c).is_empty());
    }

    #[test]
    fn irn_beyond_window_discarded() {
        let mut c = ctx();
        let ack = receive_data(&mut c, CAP as u32 + 5, true, ReceiverMode::Irn);
        assert_eq!(ack, AckEmit::None);
        assert_eq!((c.expected_seq, c.msn, c.nack_outstanding), (0, 0, false));
        assert!(held(&c).is_empty(), "nothing recorded");
    }

    #[test]
    fn roce_discards_ooo_and_nacks_once() {
        let mut c = ctx();
        receive_data(&mut c, 0, false, ReceiverMode::RoceGoBackN);
        let ack = receive_data(&mut c, 2, false, ReceiverMode::RoceGoBackN);
        assert_eq!(ack, AckEmit::Nack { cum: 1, sack: 2 });
        assert!(held(&c).is_empty(), "RoCE receivers discard OOO packets");
        // Further OOO arrivals in the same episode: silent.
        let ack = receive_data(&mut c, 3, false, ReceiverMode::RoceGoBackN);
        assert_eq!(ack, AckEmit::None);
        // In-order progress resets the episode.
        let ack = receive_data(&mut c, 1, false, ReceiverMode::RoceGoBackN);
        assert_eq!(ack, AckEmit::Ack { cum: 2 });
        let ack = receive_data(&mut c, 3, false, ReceiverMode::RoceGoBackN);
        assert_eq!(ack, AckEmit::Nack { cum: 2, sack: 3 });
    }

    #[test]
    fn roce_dropped_ooo_must_be_retransmitted() {
        // Packets 2,3 discarded; after 1 arrives the stream resumes at 2.
        let mut c = ctx();
        receive_data(&mut c, 0, false, ReceiverMode::RoceGoBackN);
        receive_data(&mut c, 2, false, ReceiverMode::RoceGoBackN);
        receive_data(&mut c, 3, false, ReceiverMode::RoceGoBackN);
        receive_data(&mut c, 1, false, ReceiverMode::RoceGoBackN);
        assert_eq!(c.expected_seq, 2, "2 and 3 were discarded, not buffered");
    }

    // ---- receiveAck / txFree: the §3.1 recovery walk ----

    /// Drive a sender through: send 10, lose 2 and 5, recover.
    #[test]
    fn sack_recovery_retransmits_exactly_the_lost() {
        let mut c = sctx();
        // "Send" 10 packets.
        for _ in 0..10 {
            assert!(matches!(tx_free(&mut c, true), TxFreeOut::SendNew { .. }));
        }
        assert_eq!(c.in_flight(), 10);

        // Receiver saw 0,1 in order; 2 lost; 3,4 OOO; 5 lost; 6..9 OOO.
        receive_ack(&mut c, 2, None, false); // cum ack for 0,1
        let out = receive_ack(&mut c, 2, Some(3), true); // NACK (cum 2, sack 3)
        assert!(out.entered_recovery);
        receive_ack(&mut c, 2, Some(4), true);
        receive_ack(&mut c, 2, Some(6), true);
        receive_ack(&mut c, 2, Some(7), true);
        receive_ack(&mut c, 2, Some(8), true);
        receive_ack(&mut c, 2, Some(9), true);

        // txFree must retransmit exactly 2 then 5, then go back to new.
        assert_eq!(tx_free(&mut c, true), TxFreeOut::Retransmit { psn: 2 });
        assert_eq!(tx_free(&mut c, true), TxFreeOut::Retransmit { psn: 5 });
        match tx_free(&mut c, true) {
            TxFreeOut::SendNew { psn } => assert_eq!(psn, 10),
            other => panic!("expected new packet, got {other:?}"),
        }
    }

    #[test]
    fn recovery_exit_requires_passing_recovery_seq() {
        let mut c = sctx();
        for _ in 0..5 {
            tx_free(&mut c, true);
        }
        // Lose 0: NACK (cum 0, sack 1). recovery_seq = 4.
        let out = receive_ack(&mut c, 0, Some(1), true);
        assert!(out.entered_recovery);
        assert_eq!(c.recovery_seq, 4);
        // Cum advances to 3 (retx of 0 delivered; 1,2 sacked etc.).
        let out = receive_ack(&mut c, 3, None, false);
        assert!(!out.exited_recovery, "cum 3 ≤ recovery_seq 4");
        let out = receive_ack(&mut c, 5, None, false);
        assert!(out.exited_recovery);
        assert!(!c.in_recovery);
    }

    #[test]
    fn no_spurious_retransmit_without_higher_sack() {
        // §3.1: a packet is lost only if a *higher* sequence was SACKed.
        let mut c = sctx();
        for _ in 0..6 {
            tx_free(&mut c, true);
        }
        receive_ack(&mut c, 1, Some(2), true); // 1 delivered; 2 sacked; hole at... cum=1
                                               // Retransmit cursor starts at cum (1). Only psn 1 qualifies
                                               // (sack at 2 is higher); psn 3,4,5 have no higher sack.
        assert_eq!(tx_free(&mut c, true), TxFreeOut::Retransmit { psn: 1 });
        match tx_free(&mut c, true) {
            TxFreeOut::SendNew { psn } => assert_eq!(psn, 6),
            other => panic!("must move to new data, got {other:?}"),
        }
    }

    #[test]
    fn cum_ack_shifts_sack_bitmap() {
        let mut c = sctx();
        for _ in 0..8 {
            tx_free(&mut c, true);
        }
        receive_ack(&mut c, 0, Some(5), true);
        assert!(c.sack.get(5));
        receive_ack(&mut c, 4, None, false);
        // After advancing by 4, the sack at absolute 5 is at offset 1.
        assert!(c.sack.get(1));
        assert!(!c.sack.get(5));
    }

    #[test]
    fn idle_when_nothing_to_do() {
        let mut c = sctx();
        assert_eq!(tx_free(&mut c, false), TxFreeOut::Idle);
    }

    #[test]
    fn duplicate_nack_does_not_reenter_recovery() {
        let mut c = sctx();
        for _ in 0..4 {
            tx_free(&mut c, true);
        }
        let first = receive_ack(&mut c, 0, Some(1), true);
        assert!(first.entered_recovery);
        let second = receive_ack(&mut c, 0, Some(2), true);
        assert!(!second.entered_recovery, "already in recovery");
    }

    // ---- timeout ----

    #[test]
    fn timeout_extends_when_rto_low_condition_fails() {
        let mut c = sctx();
        for _ in 0..5 {
            tx_free(&mut c, true);
        }
        c.rto_low_armed = true;
        // 5 packets in flight ≥ N=3: RTO_low was stale, extend.
        assert_eq!(timeout(&mut c, 3), TimeoutOut::ExtendToHigh);
        assert!(!c.in_recovery, "extension must not trigger recovery");
        assert!(!c.rto_low_armed);
    }

    #[test]
    fn timeout_fires_and_enters_recovery() {
        let mut c = sctx();
        for _ in 0..2 {
            tx_free(&mut c, true);
        }
        c.rto_low_armed = true;
        // 2 in flight < N=3: the short timeout legitimately fires.
        assert_eq!(
            timeout(&mut c, 3),
            TimeoutOut::Fired {
                entered_recovery: true
            }
        );
        assert!(c.in_recovery);
        assert_eq!(c.retx_cursor, 0);
        // With no SACK above the head nothing is known-lost, so txFree is
        // idle; the transport retransmits `cum_acked` itself on `Fired`.
        assert_eq!(tx_free(&mut c, false), TxFreeOut::Idle);
    }

    #[test]
    fn high_timeout_always_fires() {
        let mut c = sctx();
        for _ in 0..50 {
            tx_free(&mut c, true);
        }
        c.rto_low_armed = false; // RTO_high armed
        assert_eq!(
            timeout(&mut c, 3),
            TimeoutOut::Fired {
                entered_recovery: true
            }
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under any loss/reorder pattern, feeding every receiver ACK
            /// back to the sender and retransmitting whatever txFree asks
            /// for (plus the head on timeout) eventually delivers all
            /// packets in order.
            #[test]
            fn sender_receiver_converge(
                loss_mask in proptest::collection::vec(prop::bool::ANY, 1..60),
                window in 1usize..12,
                picks in proptest::collection::vec(0usize..1 << 16, 1..64),
            ) {
                let total = loss_mask.len() as u32;
                let mut s = SenderContext::new(128);
                let mut r = QpContext::new(128);
                // Channel: lossy on first transmission, and each delivery
                // takes a random one of the first `window` packets queued.
                let mut picks = picks.iter().cycle();
                let mut deliver = |wire: &mut Vec<u32>| {
                    let k = picks.next().expect("cycle") % wire.len().min(window);
                    let psn = wire.remove(k);
                    match receive_data(&mut r, psn, psn == total - 1, ReceiverMode::Irn) {
                        AckEmit::Ack { cum } => Some((cum, None, false)),
                        AckEmit::Nack { cum, sack } => Some((cum, Some(sack), true)),
                        AckEmit::None => None,
                    }
                };

                let mut wire = Vec::new();
                for (i, lost) in loss_mask.iter().enumerate() {
                    let psn = match tx_free(&mut s, true) {
                        TxFreeOut::SendNew { psn } => psn,
                        other => panic!("unexpected {other:?}"),
                    };
                    prop_assert_eq!(psn, i as u32);
                    if !lost {
                        wire.push(psn);
                    }
                }
                // The sender hears nothing until every first transmission
                // is out, so txFree above only ever sends new data.
                let mut acks = Vec::new();
                while !wire.is_empty() {
                    acks.extend(deliver(&mut wire));
                }
                for (cum, sack, nack) in acks {
                    receive_ack(&mut s, cum, sack, nack);
                }

                // Recovery rounds: retransmit known-lost + timeout head.
                for _round in 0..(total * 4) {
                    if s.cum_acked == total { break; }
                    // Ask txFree for retransmissions only.
                    let mut to_send = Vec::new();
                    while let TxFreeOut::Retransmit { psn } = tx_free(&mut s, false) {
                        to_send.push(psn);
                    }
                    if to_send.is_empty() {
                        // Timeout path: retransmit the cumulative head.
                        timeout(&mut s, 3);
                        to_send.push(s.cum_acked);
                    }
                    while !to_send.is_empty() {
                        if let Some((cum, sack, nack)) = deliver(&mut to_send) {
                            receive_ack(&mut s, cum, sack, nack);
                        }
                    }
                }
                prop_assert_eq!(r.expected_seq, total, "receiver must end with all packets");
                prop_assert_eq!(s.cum_acked, total, "sender must see everything acked");
                prop_assert_eq!(r.msn, 1, "exactly one message boundary");
                prop_assert!(!s.in_recovery);
            }

            /// txFree never retransmits a sequence at/above the highest
            /// SACK and never below the cumulative ack.
            #[test]
            fn retransmissions_stay_in_the_hole_region(
                sacks in proptest::collection::vec(1u32..100, 1..30),
                cum in 0u32..20,
            ) {
                let mut s = SenderContext::new(128);
                for _ in 0..100 { tx_free(&mut s, true); }
                receive_ack(&mut s, cum, None, false);
                for sk in &sacks {
                    receive_ack(&mut s, cum, Some(*sk), true);
                }
                while let TxFreeOut::Retransmit { psn } = tx_free(&mut s, false) {
                    prop_assert!(psn >= s.cum_acked);
                    prop_assert!(psn < s.highest_sacked);
                    let off = (psn - s.cum_acked) as usize;
                    prop_assert!(!s.sack.get(off), "never retransmit SACKed data");
                }
            }
        }
    }
}
