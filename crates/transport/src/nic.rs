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
        self.active.push(flow);
    }

    /// Number of registered sender QPs.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// True when nothing is queued and no QPs are registered.
    pub fn is_quiescent(&self) -> bool {
        self.control.is_empty() && self.active.is_empty()
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

        let mut earliest: Option<Time> = None;
        let n = self.active.len();
        let mut scanned = 0;
        let mut idx = self.cursor % n;
        let mut removed = Vec::new();

        while scanned < n {
            let flow = self.active[idx];
            match poll_sender(flow, now) {
                SenderPoll::Packet(pkt) => {
                    // Serve and advance the cursor past this QP.
                    self.cursor = (idx + 1) % n;
                    self.cleanup(&removed);
                    return NicPoll::Packet(pkt);
                }
                SenderPoll::Wait(t) => {
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                }
                SenderPoll::Blocked => {}
                SenderPoll::Done => removed.push(flow),
            }
            idx = (idx + 1) % n;
            scanned += 1;
        }
        self.cleanup(&removed);
        match earliest {
            Some(t) => NicPoll::Wait(t),
            None => NicPoll::Idle,
        }
    }

    fn cleanup(&mut self, done: &[FlowId]) {
        if done.is_empty() {
            return;
        }
        self.active.retain(|f| !done.contains(f));
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
        assert_eq!(nic.active_flows(), 1);
    }

    #[test]
    fn idle_when_empty() {
        let mut nic = HostNic::new();
        assert!(nic.is_quiescent());
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
        assert_eq!(nic.active_flows(), 2);
    }
}
