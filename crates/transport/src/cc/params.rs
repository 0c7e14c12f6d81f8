//! Congestion-control parameters, as specified by the source papers.
//!
//! §4.1: "When using RoCE or IRN with Timely or DCQCN, we use the same
//! congestion control parameters as specified in \[29\] and \[37\]
//! respectively." Those values are encoded here verbatim where the
//! papers give them; where a paper gives only a 10 Gbps configuration we
//! keep the value and note it (the reproduction target is the *shape* of
//! the comparisons, and every transport under test shares the same
//! parameters). They are constants, not per-flow state: no experiment
//! varies one.

/// DCQCN \[37\] reaction-point / notification-point parameters.
pub mod dcqcn {
    use irn_sim::Duration;

    /// EWMA gain for the alpha estimate (g = 1/256 in \[37\]).
    pub const G: f64 = 1.0 / 256.0;
    /// Alpha update timer: alpha decays every such period without CNPs
    /// (55 µs in \[37\]).
    pub const ALPHA_TIMER: Duration = Duration::micros(55);
    /// Rate-increase timer period (55 µs, the fast-recovery clock).
    pub const INCREASE_TIMER: Duration = Duration::micros(55);
    /// Byte counter: a rate-increase event per this many bytes sent
    /// (10 MB in \[37\]).
    pub const BYTE_COUNTER: u64 = 10 * 1024 * 1024;
    /// Fast-recovery threshold F: increase events before leaving fast
    /// recovery (5 in \[37\]).
    pub const FAST_RECOVERY_THRESHOLD: u32 = 5;
    /// Additive-increase step (40 Mbps in \[37\]).
    pub const RAI_MBPS: f64 = 40.0;
    /// Hyper-increase step (400 Mbps in \[37\]).
    pub const RHAI_MBPS: f64 = 400.0;
    /// Rate floor — DCQCN never pushes a flow below this.
    pub const MIN_RATE_MBPS: f64 = 40.0;
    /// Notification point: minimum gap between CNPs per flow (50 µs).
    pub const CNP_INTERVAL: Duration = Duration::micros(50);
}

/// Timely \[29\] parameters. Rates update on every ACK: Timely updates
/// per completion event, and with 1 KB MTU segments every ACK *is* one.
pub mod timely {
    use irn_sim::Duration;

    /// Additive increment δ (10 Mbps in \[29\]).
    pub const DELTA_MBPS: f64 = 10.0;
    /// Multiplicative-decrease factor β (0.8 in \[29\]).
    pub const BETA: f64 = 0.8;
    /// EWMA weight α for the RTT-difference filter (0.46 per \[29\]'s
    /// patched implementation).
    pub const EWMA_ALPHA: f64 = 0.46;
    /// Below this RTT: pure additive increase (50 µs in \[29\]).
    pub const T_LOW: Duration = Duration::micros(50);
    /// Above this RTT: multiplicative decrease independent of gradient
    /// (500 µs in \[29\]).
    pub const T_HIGH: Duration = Duration::micros(500);
    /// Consecutive negative-gradient completions before hyperactive
    /// increase (5 in \[29\]).
    pub const HAI_THRESHOLD: u32 = 5;
    /// Minimum RTT used to normalize the gradient (the paper's fabric
    /// floor; 20 µs here ≈ the 24 µs propagation RTT minus queuing-free
    /// slack).
    pub const MIN_RTT: Duration = Duration::micros(20);
    /// Rate floor.
    pub const MIN_RATE_MBPS: f64 = 10.0;
}

/// TCP-style AIMD window parameters (§4.4.4): standard Reno-style
/// constants.
pub mod aimd {
    /// Additive increase per window's worth of ACKs, in packets.
    pub const INCREASE_PER_RTT: f64 = 1.0;
    /// Multiplicative-decrease factor on a loss event.
    pub const DECREASE_FACTOR: f64 = 0.5;
    /// Window floor, packets.
    pub const MIN_CWND: f64 = 1.0;
}

/// DCTCP \[15\] parameters (§4.4.4).
pub mod dctcp {
    /// EWMA gain for the marked fraction (1/16 in \[15\]).
    pub const G: f64 = 1.0 / 16.0;
    /// Window floor, packets.
    pub const MIN_CWND: f64 = 1.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_sim::Duration;

    #[test]
    fn dcqcn_paper_values() {
        assert!((dcqcn::G - 0.00390625).abs() < 1e-12);
        assert_eq!(dcqcn::ALPHA_TIMER, Duration::micros(55));
        assert_eq!(dcqcn::BYTE_COUNTER, 10 * 1024 * 1024);
        assert_eq!(dcqcn::FAST_RECOVERY_THRESHOLD, 5);
        assert_eq!(dcqcn::CNP_INTERVAL, Duration::micros(50));
    }

    #[test]
    fn timely_paper_values() {
        assert_eq!(timely::T_LOW, Duration::micros(50));
        assert_eq!(timely::T_HIGH, Duration::micros(500));
        assert_eq!(timely::BETA, 0.8);
        assert_eq!(timely::DELTA_MBPS, 10.0);
    }
}
