//! End-to-end credits and RNR handling under IRN (Appendix B.3–B.4).
//!
//! RoCE NICs run a credit scheme for operations that consume Receive
//! WQEs: ACKs piggy-back how many Receive WQEs (credits) remain. A
//! sender out of credits may still send the *first* packet of a Send (or
//! all packets of a Write-with-Immediate) as a **probe**; if the
//! receiver has a WQE the operation succeeds, otherwise an RNR
//! ("receiver not ready") NACK triggers go-back-N.
//!
//! IRN keeps the scheme but adds one rule (B.3): an **out-of-sequence**
//! probe arriving without credits is silently dropped — processing it
//! could bind it to the wrong Receive WQE (the paper's two-Sends
//! example), and an RNR NACK would be ill-timed. Loss recovery
//! retransmits the earlier message and the probe alike, so everything
//! "gets back on track".
//!
//! B.4 generalizes: any error NACK (e.g. RNR) makes an IRN sender do
//! go-back-N, and an out-of-sequence packet that *would* produce an
//! error NACK is discarded without a NACK.

/// What the responder does with an arriving credit-consuming packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// A Receive WQE is available: process normally, return fresh credit
    /// in the ACK.
    Execute,
    /// In-sequence arrival, no WQE: answer with an RNR NACK (the
    /// requester will go-back-N after a delay).
    RnrNack,
    /// Out-of-sequence arrival, no WQE: drop silently (B.3's rule).
    Drop,
}

/// Responder-side credit bookkeeping.
#[derive(Debug, Default)]
pub struct ResponderCredits {
    available: u32,
}

impl ResponderCredits {
    /// Fresh state with no posted Receive WQEs.
    pub fn new() -> ResponderCredits {
        ResponderCredits::default()
    }

    /// Application posted a Receive WQE.
    pub fn post_receive(&mut self) {
        self.available += 1;
    }

    /// Credits advertised in outgoing ACKs.
    pub fn advertised(&self) -> u32 {
        self.available
    }

    /// Decide the fate of a credit-consuming packet (first packet of a
    /// Send, or a Write-with-Immediate message).
    ///
    /// `in_sequence` — the packet's PSN equals the expected sequence
    /// number (no holes before it).
    pub fn on_consume_attempt(&mut self, in_sequence: bool) -> ProbeOutcome {
        if self.available > 0 {
            self.available -= 1;
            ProbeOutcome::Execute
        } else if in_sequence {
            ProbeOutcome::RnrNack
        } else {
            ProbeOutcome::Drop
        }
    }
}

/// Requester-side credit view plus the B.4 go-back-N error handling.
#[derive(Debug, Default)]
pub struct RequesterCredits {
    credits: u32,
    /// Set while recovering from an RNR NACK (go-back-N in progress).
    pub rnr_backoff: bool,
}

impl RequesterCredits {
    /// Fresh state; `initial` credits negotiated at connection setup.
    pub fn new(initial: u32) -> RequesterCredits {
        RequesterCredits {
            credits: initial,
            rnr_backoff: false,
        }
    }

    /// Credits currently believed available.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// An ACK arrived advertising `remaining` receiver credits.
    pub fn on_ack(&mut self, remaining: u32) {
        self.credits = remaining;
        self.rnr_backoff = false;
    }

    /// May a new credit-consuming message start transmitting?
    /// Out of credits ⇒ only as a probe (`Probe`), never while an RNR
    /// go-back-N is pending.
    pub fn send_mode(&self) -> SendMode {
        if self.rnr_backoff {
            SendMode::Blocked
        } else if self.credits > 0 {
            SendMode::Normal
        } else {
            SendMode::Probe
        }
    }

    /// Consume one credit for a normally-sent message.
    pub fn consume(&mut self) {
        debug_assert!(self.credits > 0);
        self.credits -= 1;
    }

    /// An RNR NACK arrived: go-back-N (B.4).
    pub fn on_rnr_nack(&mut self) {
        self.rnr_backoff = true;
    }
}

/// Transmission permission for credit-consuming operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Credits available: send the whole message.
    Normal,
    /// No credits: send only the probe prefix (first Send packet / all
    /// WriteImm packets).
    Probe,
    /// RNR recovery in progress: hold off.
    Blocked,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_consumes_credit() {
        let mut r = ResponderCredits::new();
        r.post_receive();
        assert_eq!(r.advertised(), 1);
        assert_eq!(r.on_consume_attempt(true), ProbeOutcome::Execute);
        assert_eq!(r.advertised(), 0);
    }

    #[test]
    fn in_sequence_probe_without_credit_rnr_nacks() {
        let mut r = ResponderCredits::new();
        assert_eq!(r.on_consume_attempt(true), ProbeOutcome::RnrNack);
    }

    #[test]
    fn out_of_sequence_probe_without_credit_drops() {
        // B.3's example: first Send lost, second arrives as a probe with
        // no credits — placing it would use the wrong WQE; NACKing would
        // be ill-timed. Drop.
        let mut r = ResponderCredits::new();
        assert_eq!(r.on_consume_attempt(false), ProbeOutcome::Drop);
    }

    #[test]
    fn requester_modes() {
        let mut q = RequesterCredits::new(1);
        assert_eq!(q.send_mode(), SendMode::Normal);
        q.consume();
        assert_eq!(q.send_mode(), SendMode::Probe);
        q.on_rnr_nack();
        assert_eq!(q.send_mode(), SendMode::Blocked);
        q.on_ack(3);
        assert_eq!(q.send_mode(), SendMode::Normal);
        assert_eq!(q.credits(), 3);
    }

    #[test]
    fn b3_two_sends_one_wqe_scenario() {
        // One Receive WQE; requester sends message A normally and B as a
        // probe. A is lost; B arrives out of sequence → dropped, not
        // misplaced. After loss recovery redelivers A (in sequence, gets
        // the WQE) and B (in sequence, no WQE → RNR).
        let mut resp = ResponderCredits::new();
        resp.post_receive();

        // B arrives out of sequence with no credit spent yet at the
        // responder? Credits were consumed when A *should* have arrived;
        // the responder decides per arrival: B is OOO and would need the
        // WQE "reserved" for A.
        // Model: A lost. B arrives OOO. The responder sees a consume
        // attempt while expecting A first.
        // It still has 1 credit — but that credit belongs to A's SN.
        // IRN resolves this via recv_WQE_SN matching; the credit module
        // only handles the zero-credit case. Simulate zero credits:
        let mut empty = ResponderCredits::new();
        assert_eq!(empty.on_consume_attempt(false), ProbeOutcome::Drop);

        // Retransmission: A in sequence → executes with the real WQE.
        assert_eq!(resp.on_consume_attempt(true), ProbeOutcome::Execute);
        // B in sequence now, no WQE → well-timed RNR NACK.
        assert_eq!(resp.on_consume_attempt(true), ProbeOutcome::RnrNack);
    }
}
