//! Window-based congestion control: TCP-style AIMD and DCTCP (§4.4.4).
//!
//! "We also implemented conventional window-based congestion control
//! schemes such as TCP's AIMD and DCTCP with IRN and observed similar
//! trends… In fact, when IRN is used with TCP's AIMD, the benefits of
//! disabling PFC were even stronger, because it exploits packet drops as
//! a congestion signal, which is lost when PFC is enabled."
//!
//! Both controllers bound in-flight *packets* (the simulator's
//! congestion unit) and start at the line-rate window (the BDP) per
//! §4.1's flows-start-at-line-rate rule.

use super::params::{aimd, dctcp};

/// TCP-style additive-increase / multiplicative-decrease window.
#[derive(Debug, Clone)]
pub struct Aimd {
    cwnd: f64,
}

impl Aimd {
    /// Start with a window of `initial` packets (the BDP for line-rate
    /// start).
    pub fn new(initial: u32) -> Aimd {
        Aimd {
            cwnd: initial.max(1) as f64,
        }
    }

    /// `n` packets newly acknowledged: congestion-avoidance increase
    /// (`increase_per_rtt / cwnd` per packet ⇒ ≈ +1 per RTT).
    pub fn on_ack(&mut self, n: u32) {
        self.cwnd += n as f64 * aimd::INCREASE_PER_RTT / self.cwnd.max(1.0);
    }

    /// A loss event (NACK-detected or timeout): multiplicative decrease.
    /// The sender reports one event per recovery episode, not per lost
    /// packet (standard fast-recovery semantics).
    pub fn on_loss(&mut self) {
        self.cwnd = (self.cwnd * aimd::DECREASE_FACTOR).max(aimd::MIN_CWND);
    }

    /// Current window, whole packets.
    pub fn cwnd_packets(&self) -> u32 {
        self.cwnd.max(aimd::MIN_CWND) as u32
    }
}

/// DCTCP \[15\]: window scaled by the EWMA fraction of ECN-marked ACKs.
#[derive(Debug, Clone)]
pub struct Dctcp {
    cwnd: f64,
    alpha: f64,
    /// Marked / total ACKs in the current observation window.
    acked: u32,
    marked: u32,
    /// Window boundary: when `acked` crosses `cwnd`, fold the estimate.
    window_acked: f64,
}

impl Dctcp {
    /// Start with a window of `initial` packets.
    pub fn new(initial: u32) -> Dctcp {
        Dctcp {
            cwnd: initial.max(1) as f64,
            alpha: 0.0,
            acked: 0,
            marked: 0,
            window_acked: 0.0,
        }
    }

    /// `n` packets acknowledged; `ecn_echo` = the ACK carried a mark.
    pub fn on_ack(&mut self, n: u32, ecn_echo: bool) {
        self.acked += n;
        if ecn_echo {
            self.marked += n;
        }
        self.window_acked += n as f64;
        // Congestion avoidance growth.
        self.cwnd += n as f64 / self.cwnd.max(1.0);

        if self.window_acked >= self.cwnd {
            // One observation window elapsed: update α and react.
            let f = if self.acked > 0 {
                self.marked as f64 / self.acked as f64
            } else {
                0.0
            };
            self.alpha = (1.0 - dctcp::G) * self.alpha + dctcp::G * f;
            if self.marked > 0 {
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(dctcp::MIN_CWND);
            }
            self.acked = 0;
            self.marked = 0;
            self.window_acked = 0.0;
        }
    }

    /// Loss event: Reno-style halving.
    pub fn on_loss(&mut self) {
        self.cwnd = (self.cwnd * 0.5).max(dctcp::MIN_CWND);
    }

    /// Current window, whole packets.
    pub fn cwnd_packets(&self) -> u32 {
        self.cwnd.max(dctcp::MIN_CWND) as u32
    }

    /// The marked-fraction estimate (tests).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aimd_grows_one_per_window() {
        let mut a = Aimd::new(10);
        // Two windows' worth of ACKs grow cwnd by ≈2 (10 → ≈12).
        for _ in 0..21 {
            a.on_ack(1);
        }
        let c = a.cwnd_packets();
        assert!(
            (11..=12).contains(&c),
            "two windows of ACKs grow cwnd by ≈2, got {c}"
        );
    }

    #[test]
    fn aimd_halves_on_loss() {
        let mut a = Aimd::new(100);
        a.on_loss();
        assert_eq!(a.cwnd_packets(), 50);
        for _ in 0..10 {
            a.on_loss();
        }
        assert_eq!(a.cwnd_packets(), 1, "floor at min_cwnd");
    }

    #[test]
    fn dctcp_unmarked_traffic_keeps_growing() {
        let mut d = Dctcp::new(10);
        for _ in 0..100 {
            d.on_ack(1, false);
        }
        assert!(d.cwnd_packets() > 10);
        assert_eq!(d.alpha(), 0.0);
    }

    #[test]
    fn dctcp_fully_marked_traffic_throttles_gently_then_hard() {
        let mut d = Dctcp::new(64);
        let start = d.cwnd_packets();
        for _ in 0..2000 {
            d.on_ack(1, true);
        }
        assert!(d.alpha() > 0.5, "α must converge up, got {}", d.alpha());
        assert!(d.cwnd_packets() < start / 4);
    }

    #[test]
    fn dctcp_partial_marking_scales_proportionally() {
        let mut d = Dctcp::new(64);
        // ~12.5 % marks.
        for i in 0..4000u32 {
            d.on_ack(1, i % 8 == 0);
        }
        let a = d.alpha();
        assert!(
            (0.02..0.4).contains(&a),
            "α should track the marked fraction loosely, got {a}"
        );
    }

    #[test]
    fn dctcp_loss_halves() {
        let mut d = Dctcp::new(40);
        d.on_loss();
        assert_eq!(d.cwnd_packets(), 20);
    }
}
