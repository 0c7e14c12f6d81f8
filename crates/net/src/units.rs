//! Bandwidth and bandwidth-delay-product arithmetic.
//!
//! All rate math is integer nanosecond arithmetic so serialization times
//! are exactly reproducible. Rates are stored in megabits per second,
//! which represents every link speed in the paper (10 / 40 / 100 Gbps)
//! exactly.

use irn_sim::Duration;

/// A link or pacing rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    mbps: u64,
}

impl Bandwidth {
    /// A rate of `mbps` megabits per second. Panics on zero (a zero-rate
    /// link can never transmit and would wedge the simulation).
    pub const fn from_mbps(mbps: u64) -> Bandwidth {
        assert!(mbps > 0, "bandwidth must be positive");
        Bandwidth { mbps }
    }

    /// A rate of `gbps` gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Bandwidth {
        Bandwidth::from_mbps(gbps * 1000)
    }

    /// This rate in megabits per second.
    pub const fn as_mbps(self) -> u64 {
        self.mbps
    }

    /// This rate in bits per second, as a float (for congestion-control
    /// rate arithmetic).
    pub fn as_bps_f64(self) -> f64 {
        self.mbps as f64 * 1e6
    }

    /// Time to serialize `bytes` onto a link of this rate, rounded up to
    /// the next nanosecond. Zero-byte frames (pure signalling in some
    /// experiment configurations) serialize in zero time.
    pub fn serialize(self, bytes: u64) -> Duration {
        // ns = bytes * 8 / (mbps * 1e6 / 1e9) = bytes * 8000 / mbps
        let bits_scaled = bytes * 8000;
        Duration::nanos(bits_scaled.div_ceil(self.mbps))
    }

    /// Bytes this rate carries in `d` (rounded down); used for PFC
    /// headroom and BDP computation.
    pub fn bytes_in(self, d: Duration) -> u64 {
        // bytes = mbps * 1e6 / 8 * secs = mbps * ns / 8000
        (self.mbps as u128 * d.as_nanos() as u128 / 8000) as u64
    }
}

impl std::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.mbps % 1000 == 0 {
            write!(f, "{}Gbps", self.mbps / 1000)
        } else {
            write!(f, "{}Mbps", self.mbps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_times_match_hand_math() {
        // 1000 B at 40 Gbps = 8000 bits / 40 bits-per-ns = 200 ns.
        assert_eq!(
            Bandwidth::from_gbps(40).serialize(1000),
            Duration::nanos(200)
        );
        // 1500 B at 10 Gbps = 12000 bits / 10 bits-per-ns = 1200 ns.
        assert_eq!(
            Bandwidth::from_gbps(10).serialize(1500),
            Duration::nanos(1200)
        );
        // 64 B at 100 Gbps = 512 bits / 100 = 5.12 → rounds up to 6 ns.
        assert_eq!(Bandwidth::from_gbps(100).serialize(64), Duration::nanos(6));
    }

    #[test]
    fn zero_bytes_serialize_instantly() {
        assert_eq!(Bandwidth::from_gbps(40).serialize(0), Duration::ZERO);
    }

    #[test]
    fn paper_default_bdp_is_120kb() {
        // §4.1: 40 Gbps, longest path 6 hops, 2 µs propagation per link
        // ⇒ RTT 24 µs ⇒ BDP 120 KB.
        let bdp = Bandwidth::from_gbps(40).bytes_in(Duration::micros(24));
        assert_eq!(bdp, 120_000);
    }

    #[test]
    fn pfc_headroom_is_upstream_link_bdp() {
        // §4.1: headroom = upstream link's bandwidth-delay product
        // = 40 Gbps × 2 · 2 µs = 20 KB.
        let headroom = Bandwidth::from_gbps(40).bytes_in(Duration::micros(4));
        assert_eq!(headroom, 20_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::from_gbps(40).to_string(), "40Gbps");
        assert_eq!(Bandwidth::from_mbps(2500).to_string(), "2500Mbps");
    }

    #[test]
    fn bytes_in_round_trips_with_serialize() {
        let bw = Bandwidth::from_gbps(40);
        let d = bw.serialize(120_000);
        let b = bw.bytes_in(d);
        assert_eq!(b, 120_000);
    }
}
