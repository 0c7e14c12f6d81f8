//! Timely \[29\]: RTT-gradient rate control.
//!
//! Timely needs no switch support: the NIC timestamps every completion
//! and steers the rate by the *gradient* of the RTT series —
//! a positive gradient (queues building) triggers multiplicative
//! decrease, a flat/negative one additive increase, with guard bands
//! `T_low` (below: always increase) and `T_high` (above: always
//! decrease) and a hyperactive-increase (HAI) mode after several
//! consecutive negative-gradient completions.
//!
//! In this simulator the "completion event" is an arriving ACK, whose
//! `sent_at` echo gives the RTT sample, exactly like the NIC hardware
//! timestamps the paper's implementation relies on.

use irn_net::Bandwidth;
use irn_sim::Duration;

use super::params::timely as p;

/// Per-flow Timely state.
#[derive(Debug, Clone)]
pub struct Timely {
    line_mbps: f64,
    rate: f64,
    prev_rtt_ns: Option<f64>,
    /// EWMA of the RTT differences.
    rtt_diff_ns: f64,
    /// Consecutive completions with non-positive gradient.
    negative_streak: u32,
}

impl Timely {
    /// A flow starting at line rate (§4.1).
    pub fn new(line_rate: Bandwidth) -> Timely {
        Timely {
            line_mbps: line_rate.as_mbps() as f64,
            rate: line_rate.as_mbps() as f64,
            prev_rtt_ns: None,
            rtt_diff_ns: 0.0,
            negative_streak: 0,
        }
    }

    /// Feed one completion's RTT sample — an arriving ACK's.
    pub fn on_completion(&mut self, rtt: Duration) {
        let rtt_ns = rtt.as_nanos() as f64;

        let new_diff = match self.prev_rtt_ns {
            Some(prev) => rtt_ns - prev,
            None => 0.0,
        };
        self.prev_rtt_ns = Some(rtt_ns);
        self.rtt_diff_ns = (1.0 - p::EWMA_ALPHA) * self.rtt_diff_ns + p::EWMA_ALPHA * new_diff;
        let gradient = self.rtt_diff_ns / p::MIN_RTT.as_nanos() as f64;

        if rtt < p::T_LOW {
            // Below the floor: unconditional additive increase.
            self.negative_streak = self.negative_streak.saturating_add(1);
            self.additive_increase(1.0);
            return;
        }
        if rtt > p::T_HIGH {
            // Above the ceiling: decrease regardless of gradient,
            // proportional to how far past T_high we are.
            self.negative_streak = 0;
            let factor = 1.0 - p::BETA * (1.0 - p::T_HIGH.as_nanos() as f64 / rtt_ns);
            self.rate = (self.rate * factor).max(p::MIN_RATE_MBPS);
            return;
        }
        if gradient <= 0.0 {
            self.negative_streak += 1;
            // HAI mode: after N consecutive decreases in RTT, climb in
            // multiples of δ.
            let scale = if self.negative_streak >= p::HAI_THRESHOLD {
                p::HAI_THRESHOLD as f64
            } else {
                1.0
            };
            self.additive_increase(scale);
        } else {
            self.negative_streak = 0;
            self.rate = (self.rate * (1.0 - p::BETA * gradient.min(1.0))).max(p::MIN_RATE_MBPS);
        }
    }

    fn additive_increase(&mut self, scale: f64) {
        self.rate = (self.rate + scale * p::DELTA_MBPS).min(self.line_mbps);
    }

    /// Current pacing rate.
    pub fn rate_mbps(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Timely {
        Timely::new(Bandwidth::from_gbps(40))
    }

    #[test]
    fn starts_at_line_rate() {
        assert_eq!(mk().rate_mbps(), 40_000.0);
    }

    #[test]
    fn low_rtt_keeps_line_rate() {
        let mut t = mk();
        for _ in 0..100 {
            t.on_completion(Duration::micros(30)); // < T_low
        }
        assert_eq!(t.rate_mbps(), 40_000.0, "increase is clamped at line rate");
    }

    #[test]
    fn rising_rtt_decreases_rate() {
        let mut t = mk();
        // RTT ramps 60 → 460 µs: positive gradient inside the band.
        for i in 0..40 {
            t.on_completion(Duration::micros(60 + i * 10));
        }
        assert!(
            t.rate_mbps() < 20_000.0,
            "sustained queue growth must throttle hard, got {}",
            t.rate_mbps()
        );
    }

    #[test]
    fn rtt_above_thigh_decreases_even_when_falling() {
        let mut t = mk();
        // Falling series, but all above T_high = 500 µs.
        let r0 = t.rate_mbps();
        for us in [900u64, 850, 800, 750, 700] {
            t.on_completion(Duration::micros(us));
        }
        assert!(t.rate_mbps() < r0);
    }

    #[test]
    fn falling_rtt_in_band_recovers_rate() {
        let mut t = mk();
        for i in 0..40 {
            t.on_completion(Duration::micros(60 + i * 10));
        }
        let low = t.rate_mbps();
        // Falling RTTs inside the band: additive recovery, then HAI.
        for i in 0..200 {
            t.on_completion(Duration::micros(300u64.saturating_sub(i) + 60));
        }
        assert!(
            t.rate_mbps() > low + 5.0 * p::DELTA_MBPS,
            "HAI must speed recovery: {low} → {}",
            t.rate_mbps()
        );
    }

    #[test]
    fn rate_never_below_floor() {
        let mut t = mk();
        for _ in 0..1000 {
            t.on_completion(Duration::millis(5));
        }
        assert!(t.rate_mbps() >= p::MIN_RATE_MBPS);
    }
}
