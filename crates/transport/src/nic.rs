//! The endhost NIC transmit scheduler.
//!
//! §4.1: "When the sender QP is ready to transmit data packets, it
//! periodically polls the MAC layer until the link is available for
//! transmission." [`HostNic`] is that MAC-facing arbiter for one host:
//!
//! * **control frames first** — ACKs/NACKs/CNPs generated by receiver
//!   QPs at this host are queued here and take strict priority over
//!   data (they are latency-critical and tiny; real NICs prioritize
//!   response generation similarly);
//! * **round-robin across sender QPs** — matching the ConnectX model's
//!   per-QP fairness at the MAC;
//! * **pacing-aware** — a QP whose congestion controller has closed the
//!   current pacing slot reports the time its slot opens; the NIC
//!   reports the earliest such time so the simulation can schedule a
//!   wake-up instead of spinning.

use std::collections::VecDeque;

use irn_net::{FlowId, Packet};
use irn_sim::Time;

use crate::sender::SenderPoll;

/// Result of polling the NIC for the next frame to transmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicPoll {
    /// Put this frame on the wire.
    Packet(Packet),
    /// Nothing now; something becomes ready at the given time.
    Wait(Time),
    /// Nothing to send until an external event (arrival, new flow).
    Idle,
}

/// Mark left in `active` for a sender that reported
/// [`SenderPoll::Done`] during the current lap (never a real flow id:
/// the engine packs flow ids into 30 bits).
const FINISHED: FlowId = FlowId(u32::MAX);

/// Per-host NIC transmit state.
#[derive(Debug, Default)]
pub struct HostNic {
    /// Control frames awaiting transmission (strict priority).
    control: VecDeque<Packet>,
    /// Sender QPs registered at this host (flows originating here).
    active: Vec<FlowId>,
    /// Round-robin cursor into `active`.
    cursor: usize,
}

impl HostNic {
    /// An idle NIC.
    pub fn new() -> HostNic {
        HostNic::default()
    }

    /// Queue a control frame (ACK/NACK/CNP) for transmission.
    pub fn push_control(&mut self, pkt: Packet) {
        self.control.push_back(pkt);
    }

    /// Register a new sender QP.
    pub fn register(&mut self, flow: FlowId) {
        debug_assert_ne!(flow, FINISHED, "flow id reserved as the removal mark");
        self.active.push(flow);
    }

    /// Pick the next frame: control first, then round-robin over sender
    /// QPs via the `poll_sender` callback (which forwards to
    /// [`crate::SenderQp::poll`]). Senders reporting
    /// [`SenderPoll::Done`] are deregistered on the spot.
    #[inline]
    pub fn poll(
        &mut self,
        now: Time,
        mut poll_sender: impl FnMut(FlowId, Time) -> SenderPoll,
    ) -> NicPoll {
        if let Some(pkt) = self.control.pop_front() {
            return NicPoll::Packet(pkt);
        }
        if self.active.is_empty() {
            return NicPoll::Idle;
        }

        // One lap starting at the cursor. A finished sender is marked in
        // place and compacted out once the lap ends, so a poll neither
        // allocates nor divides per entry.
        let mut earliest: Option<Time> = None;
        let n = self.active.len();
        let start = self.cursor % n;
        let mut done = false;
        for idx in (start..n).chain(0..start) {
            match poll_sender(self.active[idx], now) {
                SenderPoll::Packet(pkt) => {
                    // Serve and advance the cursor past this QP.
                    self.cursor = (idx + 1) % n;
                    self.cleanup(done);
                    return NicPoll::Packet(pkt);
                }
                SenderPoll::Wait(t) => {
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                }
                SenderPoll::Blocked => {}
                SenderPoll::Done => {
                    self.active[idx] = FINISHED;
                    done = true;
                }
            }
        }
        self.cleanup(done);
        match earliest {
            Some(t) => NicPoll::Wait(t),
            None => NicPoll::Idle,
        }
    }

    /// Drop the entries the lap marked [`FINISHED`]. The cursor is
    /// reduced modulo the new length and **not** shifted for entries
    /// removed before it: the service order every pinned digest was
    /// taken under (`service_order_matches_the_captured_vector`).
    fn cleanup(&mut self, done: bool) {
        if !done {
            return;
        }
        self.active.retain(|&f| f != FINISHED);
        if self.active.is_empty() {
            self.cursor = 0;
        } else {
            self.cursor %= self.active.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_net::{HostId, PacketKind};

    fn ctrl(flow: u32) -> Packet {
        Packet::control(PacketKind::Ack, FlowId(flow), HostId(0), HostId(1), 0, 64)
    }

    fn dat(flow: u32, psn: u32) -> Packet {
        Packet::data(FlowId(flow), HostId(0), HostId(1), psn, 1048)
    }

    #[test]
    fn control_preempts_data() {
        let mut nic = HostNic::new();
        nic.register(FlowId(1));
        nic.push_control(ctrl(9));
        let got = nic.poll(Time::ZERO, |f, _| {
            assert_eq!(f, FlowId(1));
            SenderPoll::Packet(dat(1, 0))
        });
        match got {
            NicPoll::Packet(p) => assert_eq!(p.kind, PacketKind::Ack),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_robin_alternates_between_qps() {
        let mut nic = HostNic::new();
        nic.register(FlowId(0));
        nic.register(FlowId(1));
        let mut served = Vec::new();
        for _ in 0..4 {
            match nic.poll(Time::ZERO, |f, _| SenderPoll::Packet(dat(f.0, 0))) {
                NicPoll::Packet(p) => served.push(p.flow.0),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(served, vec![0, 1, 0, 1], "per-packet round robin");
    }

    #[test]
    fn skips_blocked_qps() {
        let mut nic = HostNic::new();
        nic.register(FlowId(0));
        nic.register(FlowId(1));
        let got = nic.poll(Time::ZERO, |f, _| {
            if f == FlowId(0) {
                SenderPoll::Blocked
            } else {
                SenderPoll::Packet(dat(1, 0))
            }
        });
        assert!(matches!(got, NicPoll::Packet(p) if p.flow == FlowId(1)));
    }

    #[test]
    fn reports_earliest_wait() {
        let mut nic = HostNic::new();
        nic.register(FlowId(0));
        nic.register(FlowId(1));
        nic.register(FlowId(2));
        let got = nic.poll(Time::ZERO, |f, _| match f.0 {
            0 => SenderPoll::Wait(Time::from_nanos(500)),
            1 => SenderPoll::Wait(Time::from_nanos(200)),
            _ => SenderPoll::Blocked,
        });
        assert_eq!(got, NicPoll::Wait(Time::from_nanos(200)));
    }

    #[test]
    fn done_qps_are_deregistered() {
        let mut nic = HostNic::new();
        nic.register(FlowId(0));
        nic.register(FlowId(1));
        let got = nic.poll(Time::ZERO, |f, _| {
            if f == FlowId(0) {
                SenderPoll::Done
            } else {
                SenderPoll::Blocked
            }
        });
        assert_eq!(got, NicPoll::Idle);
        assert_eq!(nic.active.len(), 1);
    }

    #[test]
    fn idle_when_empty() {
        let mut nic = HostNic::new();
        assert!(nic.control.is_empty() && nic.active.is_empty());
        assert_eq!(nic.poll(Time::ZERO, |_, _| unreachable!()), NicPoll::Idle);
    }

    #[test]
    fn rr_cursor_survives_removals() {
        let mut nic = HostNic::new();
        for f in 0..3 {
            nic.register(FlowId(f));
        }
        // Serve flow 0, then deregister flow 1 via Done; next service
        // must not panic and must serve the remaining flows.
        let _ = nic.poll(Time::ZERO, |f, _| {
            if f == FlowId(0) {
                SenderPoll::Packet(dat(0, 0))
            } else {
                SenderPoll::Blocked
            }
        });
        let _ = nic.poll(Time::ZERO, |f, _| {
            if f == FlowId(1) {
                SenderPoll::Done
            } else {
                SenderPoll::Blocked
            }
        });
        let got = nic.poll(Time::ZERO, |f, _| SenderPoll::Packet(dat(f.0, 1)));
        assert!(matches!(got, NicPoll::Packet(_)));
        assert_eq!(nic.active.len(), 2);
    }

    #[derive(Clone, Copy)]
    enum R {
        P,
        W(u64),
        B,
        D,
    }

    enum Step {
        Register(u32),
        /// Poll with these per-flow answers (unlisted flows: Blocked).
        Poll(&'static [(u32, R)]),
    }

    /// One line per poll: who was asked in which order, the outcome,
    /// and the registered list and cursor left behind.
    fn service_trace(script: &[Step]) -> Vec<String> {
        let mut nic = HostNic::new();
        let mut out = Vec::new();
        for step in script {
            let answers = match step {
                Step::Register(f) => {
                    nic.register(FlowId(*f));
                    continue;
                }
                Step::Poll(answers) => answers,
            };
            let mut asked = Vec::new();
            let got = nic.poll(Time::ZERO, |f, _| {
                asked.push(f.0);
                match answers
                    .iter()
                    .find(|(a, _)| *a == f.0)
                    .map_or(R::B, |x| x.1)
                {
                    R::P => SenderPoll::Packet(dat(f.0, 0)),
                    R::W(ns) => SenderPoll::Wait(Time::from_nanos(ns)),
                    R::B => SenderPoll::Blocked,
                    R::D => SenderPoll::Done,
                }
            });
            let got = match got {
                NicPoll::Packet(p) => format!("pkt {}", p.flow.0),
                NicPoll::Wait(t) => format!("wait {}", t.as_nanos()),
                NicPoll::Idle => "idle".to_string(),
            };
            let active: Vec<u32> = nic.active.iter().map(|f| f.0).collect();
            out.push(format!(
                "asked {asked:?} -> {got}; active {active:?} cursor {}",
                nic.cursor
            ));
        }
        out
    }

    /// The round-robin service order as a vector. The expected lines
    /// were captured from the previous `poll` (finished senders
    /// collected in a side `Vec`, `idx = (idx + 1) % n` per entry)
    /// before that loop was rewritten. Every pinned `sim_digest`
    /// depends on this order, quirks included: the cursor is not
    /// shifted when an entry before it is removed.
    #[test]
    fn service_order_matches_the_captured_vector() {
        use Step::*;
        use R::*;
        let script = [
            Register(0),
            Register(1),
            Register(2),
            Register(3),
            Register(4),
            // Plain round robin: serve the entry at the cursor.
            Poll(&[(0, P), (1, P), (2, P), (3, P), (4, P)]),
            // Removal *at* the cursor, then a packet.
            Poll(&[(1, D), (2, P)]),
            // Wrap, then removal *before* the served entry: the cursor
            // is not shifted, so flow 3 is skipped on the next lap.
            Poll(&[(0, D), (2, P)]),
            // Removal *after* the cursor with nothing to send.
            Poll(&[(3, D)]),
            Register(5),
            Register(6),
            // Removal of the last entry.
            Poll(&[(6, D)]),
            // Earliest wait wins; blocked entries do not count.
            Poll(&[(2, W(500)), (4, W(200))]),
            Register(7),
            Register(8),
            // Two removals and then a packet in one lap.
            Poll(&[(2, D), (4, D), (5, P)]),
            Poll(&[(5, P), (7, P), (8, P)]),
            // A packet ends the lap: finished senders after it stay.
            Poll(&[(7, P), (8, D), (5, D)]),
            // Removals on both sides of the wrap, no packet.
            Poll(&[(8, D), (5, D), (7, W(9))]),
            Poll(&[(7, P)]),
            // Everything finishes: back to an empty NIC.
            Poll(&[(7, D)]),
            Poll(&[]),
            Register(9),
            Register(10),
            Register(11),
            Poll(&[(9, B), (10, P), (11, P)]),
            // The served entry is the last one: the cursor wraps to 0.
            Poll(&[(11, P)]),
            Poll(&[(9, P)]),
            // Removal of the last entry, mid-lap.
            Poll(&[(10, B), (11, D), (9, B)]),
            Poll(&[(10, D), (9, P)]),
            Register(12),
            Register(13),
            Register(14),
            Poll(&[(9, P)]),
            // The served cursor lands past the shrunken list: `% len`.
            Poll(&[(12, D), (13, P)]),
            Poll(&[(9, P), (13, P), (14, P)]),
        ];
        let expected = [
            "asked [0] -> pkt 0; active [0, 1, 2, 3, 4] cursor 1",
            "asked [1, 2] -> pkt 2; active [0, 2, 3, 4] cursor 3",
            "asked [4, 0, 2] -> pkt 2; active [2, 3, 4] cursor 2",
            "asked [4, 2, 3] -> idle; active [2, 4] cursor 0",
            "asked [2, 4, 5, 6] -> idle; active [2, 4, 5] cursor 0",
            "asked [2, 4, 5] -> wait 200; active [2, 4, 5] cursor 0",
            "asked [2, 4, 5] -> pkt 5; active [5, 7, 8] cursor 0",
            "asked [5] -> pkt 5; active [5, 7, 8] cursor 1",
            "asked [7] -> pkt 7; active [5, 7, 8] cursor 2",
            "asked [8, 5, 7] -> wait 9; active [7] cursor 0",
            "asked [7] -> pkt 7; active [7] cursor 0",
            "asked [7] -> idle; active [] cursor 0",
            "asked [] -> idle; active [] cursor 0",
            "asked [9, 10] -> pkt 10; active [9, 10, 11] cursor 2",
            "asked [11] -> pkt 11; active [9, 10, 11] cursor 0",
            "asked [9] -> pkt 9; active [9, 10, 11] cursor 1",
            "asked [10, 11, 9] -> idle; active [9, 10] cursor 1",
            "asked [10, 9] -> pkt 9; active [9] cursor 0",
            "asked [9] -> pkt 9; active [9, 12, 13, 14] cursor 1",
            "asked [12, 13] -> pkt 13; active [9, 13, 14] cursor 0",
            "asked [9] -> pkt 9; active [9, 13, 14] cursor 1",
        ];
        assert_eq!(service_trace(&script), expected);
    }
}
