//! Congestion control for RDMA transports (§4.2.4, §4.4.4).
//!
//! The paper evaluates RoCE and IRN bare and in combination with the two
//! deployed RDMA congestion-control schemes — DCQCN \[37\] (ECN/CNP,
//! rate-based) and Timely \[29\] (RTT-gradient, rate-based) — plus
//! conventional window schemes (TCP AIMD and DCTCP) in §4.4.4. All four
//! live here behind one enum, [`CcState`], so a sender composes with any
//! of them (or none: flows start and stay at line rate, §4.1).
//!
//! Rate-based controllers pace packets ([`CcState::pacing_rate_mbps`]);
//! window-based controllers bound in-flight packets ([`CcState::cwnd`]).
//! Both gates apply on top of IRN's BDP-FC cap when enabled — the paper
//! stresses these are orthogonal (§3).
//!
//! None of the controllers schedules events: DCQCN's periodic alpha
//! decay and rate-increase timers are applied lazily with closed-form
//! catch-up when the flow is touched, which is equivalent for pacing
//! purposes and keeps the hot path event-free.

pub mod dcqcn;
pub mod params;
pub mod timely;
pub mod window;

use irn_net::Bandwidth;
use irn_sim::{Duration, Time};

pub use dcqcn::Dcqcn;
pub use timely::Timely;
pub use window::{Aimd, Dctcp};

/// Which congestion-control algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// No explicit congestion control (§4.2.1–4.2.3): flows run at line
    /// rate, bounded only by BDP-FC / the fabric.
    None,
    /// Timely \[29\]: RTT-gradient rate control.
    Timely,
    /// DCQCN \[37\]: ECN-marking + CNP rate control.
    Dcqcn,
    /// TCP-style AIMD window (§4.4.4).
    Aimd,
    /// DCTCP window scaling by marked fraction (§4.4.4).
    Dctcp,
}

impl CcKind {
    /// Does this algorithm react to ECN marks (and therefore require the
    /// fabric to mark)?
    pub fn needs_ecn(self) -> bool {
        matches!(self, CcKind::Dcqcn | CcKind::Dctcp)
    }

    /// Human-readable name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CcKind::None => "NoCC",
            CcKind::Timely => "Timely",
            CcKind::Dcqcn => "DCQCN",
            CcKind::Aimd => "AIMD",
            CcKind::Dctcp => "DCTCP",
        }
    }
}

/// Per-flow congestion-control state.
#[derive(Debug, Clone)]
pub enum CcState {
    /// Line-rate, unpaced.
    None,
    /// Timely rate control.
    Timely(Timely),
    /// DCQCN rate control.
    Dcqcn(Dcqcn),
    /// AIMD window.
    Aimd(Aimd),
    /// DCTCP window.
    Dctcp(Dctcp),
}

impl CcState {
    /// Instantiate `kind` with its default parameters for a flow
    /// starting at `now` on a link of `line_rate`. `bdp_packets` seeds
    /// window controllers (flows start at line rate, §4.1).
    pub fn new(kind: CcKind, line_rate: Bandwidth, bdp_packets: u32, now: Time) -> CcState {
        match kind {
            CcKind::None => CcState::None,
            CcKind::Timely => CcState::Timely(Timely::new(line_rate)),
            CcKind::Dcqcn => CcState::Dcqcn(Dcqcn::new(line_rate, now)),
            CcKind::Aimd => CcState::Aimd(Aimd::new(bdp_packets)),
            CcKind::Dctcp => CcState::Dctcp(Dctcp::new(bdp_packets)),
        }
    }

    /// Feed an acknowledgement: `newly_acked` packets, measured `rtt`,
    /// and whether the ACK echoed an ECN mark (DCTCP).
    pub fn on_ack(&mut self, now: Time, newly_acked: u32, rtt: Duration, ecn_echo: bool) {
        match self {
            CcState::None => {}
            CcState::Timely(t) => t.on_completion(rtt),
            CcState::Dcqcn(d) => d.touch(now),
            CcState::Aimd(a) => a.on_ack(newly_acked),
            CcState::Dctcp(d) => d.on_ack(newly_acked, ecn_echo),
        }
    }

    /// Feed a loss signal (NACK-detected loss or timeout).
    pub fn on_loss(&mut self, now: Time) {
        match self {
            CcState::None => {}
            // Rate-based schemes do not treat loss as a signal (§4.4.4
            // notes AIMD regains the drop signal that PFC removes).
            CcState::Timely(_) => {}
            CcState::Dcqcn(d) => d.touch(now),
            CcState::Aimd(a) => a.on_loss(),
            CcState::Dctcp(d) => d.on_loss(),
        }
    }

    /// Feed a DCQCN congestion-notification packet.
    pub fn on_cnp(&mut self, now: Time) {
        if let CcState::Dcqcn(d) = self {
            d.on_cnp(now);
        }
    }

    /// Account transmitted bytes (drives DCQCN's byte-counter clock).
    pub fn on_send(&mut self, now: Time, bytes: u64) {
        if let CcState::Dcqcn(d) = self {
            d.on_send(now, bytes);
        }
    }

    /// Pacing rate, if this controller paces. `None` ⇒ unpaced.
    pub fn pacing_rate_mbps(&mut self, now: Time) -> Option<f64> {
        match self {
            CcState::None => None,
            CcState::Timely(t) => Some(t.rate_mbps()),
            CcState::Dcqcn(d) => Some(d.rate_mbps(now)),
            CcState::Aimd(_) | CcState::Dctcp(_) => None,
        }
    }

    /// Congestion window in packets, if this controller windows.
    pub fn cwnd(&self) -> Option<u32> {
        match self {
            CcState::Aimd(a) => Some(a.cwnd_packets()),
            CcState::Dctcp(d) => Some(d.cwnd_packets()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_ecn_only_for_marking_schemes() {
        assert!(CcKind::Dcqcn.needs_ecn());
        assert!(CcKind::Dctcp.needs_ecn());
        assert!(!CcKind::Timely.needs_ecn());
        assert!(!CcKind::None.needs_ecn());
        assert!(!CcKind::Aimd.needs_ecn());
    }

    #[test]
    fn none_is_unpaced_and_unwindowed() {
        let mut cc = CcState::new(CcKind::None, Bandwidth::from_gbps(40), 110, Time::ZERO);
        assert_eq!(cc.pacing_rate_mbps(Time::ZERO), None);
        assert_eq!(cc.cwnd(), None);
    }

    #[test]
    fn rate_schemes_start_at_line_rate() {
        let line = Bandwidth::from_gbps(40);
        for kind in [CcKind::Timely, CcKind::Dcqcn] {
            let mut cc = CcState::new(kind, line, 110, Time::ZERO);
            let r = cc.pacing_rate_mbps(Time::ZERO).unwrap();
            assert_eq!(r, 40_000.0, "{kind:?} must start at line rate (§4.1)");
        }
    }

    #[test]
    fn window_schemes_start_at_bdp() {
        for kind in [CcKind::Aimd, CcKind::Dctcp] {
            let cc = CcState::new(kind, Bandwidth::from_gbps(40), 110, Time::ZERO);
            assert_eq!(cc.cwnd(), Some(110), "{kind:?} starts at line rate");
        }
    }
}
