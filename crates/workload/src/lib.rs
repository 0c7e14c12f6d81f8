//! # irn-workload — traffic generation for the IRN experiments (§4.1)
//!
//! "Each end host generates new flows with Poisson inter-arrival times.
//! Each flow's destination is picked randomly and size is drawn from a
//! realistic heavy-tailed distribution derived from \[19\]. … The network
//! load is set at 70% utilization for our default case."
//!
//! This crate provides:
//!
//! * [`SizeDistribution`] — the paper's heavy-tailed mix (50 % small
//!   RPC-like single-packet messages of 32 B–1 KB, 15 % large 200 KB–3 MB
//!   background/storage transfers, the rest in between) and the Table 6
//!   uniform 500 KB–5 MB alternative, plus fixed sizes for tests;
//! * [`TrafficModel`] — the pluggable, validated, composable traffic
//!   API every experiment describes its workload with: the paper's
//!   shapes plus bursty on/off Poisson, permutation shuffles, explicit
//!   flow lists, and general composition (see [`model`]), and the
//!   closed-loop applications behind the [`AppDriver`] seam (see
//!   [`app`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod arrivals;
pub mod model;

pub use app::{AllreduceAlgo, AppDriver, AppEvent, AppSink, ClosedLoop};
pub use arrivals::Arrivals;
pub use model::{Component, FlowStream, Population, Start, TrafficCtx, TrafficError, TrafficModel};

use irn_sim::{SimRng, Time};

/// One flow to simulate: who, whom, how much, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source host index.
    pub src: u32,
    /// Destination host index (≠ src).
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Arrival (start) time.
    pub at: Time,
}

/// Flow-size distributions used in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDistribution {
    /// §4.1's heavy-tailed enterprise/datacenter mix derived from
    /// Benson et al. \[19\]: 50 % of flows are single-packet RPCs
    /// (32 B–1 KB, think key-value lookups [21, 25]), 15 % are large
    /// 200 KB–3 MB background/storage flows carrying most of the bytes,
    /// and the remaining 35 % sit in between (1 KB–200 KB), all
    /// log-uniform within their bands.
    HeavyTailed,
    /// Table 6's uniform 500 KB–5 MB mix ("storage or background
    /// tasks").
    Uniform500KbTo5Mb,
    /// Every flow the same size (tests, microbenchmarks).
    Fixed(u64),
}

impl SizeDistribution {
    /// Draw one flow size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match self {
            SizeDistribution::HeavyTailed => {
                let band = rng.uniform();
                if band < 0.50 {
                    log_uniform(rng, 32, 1_000)
                } else if band < 0.85 {
                    log_uniform(rng, 1_000, 200_000)
                } else {
                    log_uniform(rng, 200_000, 3_000_000)
                }
            }
            SizeDistribution::Uniform500KbTo5Mb => rng.range(500_000, 5_000_001),
            SizeDistribution::Fixed(b) => *b,
        }
    }

    /// Analytic mean of the distribution in bytes (used to calibrate the
    /// Poisson arrival rate to a load target).
    pub fn mean_bytes(&self) -> f64 {
        match self {
            SizeDistribution::HeavyTailed => {
                0.50 * log_uniform_mean(32.0, 1_000.0)
                    + 0.35 * log_uniform_mean(1_000.0, 200_000.0)
                    + 0.15 * log_uniform_mean(200_000.0, 3_000_000.0)
            }
            SizeDistribution::Uniform500KbTo5Mb => (500_000.0 + 5_000_000.0) / 2.0,
            SizeDistribution::Fixed(b) => *b as f64,
        }
    }
}

/// Log-uniform integer draw in `[lo, hi]`.
fn log_uniform(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo > 0 && hi > lo);
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    let x = (a + rng.uniform() * (b - a)).exp();
    (x.round() as u64).clamp(lo, hi)
}

/// Mean of a log-uniform distribution on `[a, b]`: `(b-a)/ln(b/a)`.
fn log_uniform_mean(a: f64, b: f64) -> f64 {
    (b - a) / (b / a).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_tailed_band_fractions() {
        let d = SizeDistribution::HeavyTailed;
        let mut rng = SimRng::new(7);
        let n = 50_000;
        let mut small = 0;
        let mut large = 0;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            assert!((32..=3_000_000).contains(&s));
            if s <= 1_000 {
                small += 1;
            } else if s >= 200_000 {
                large += 1;
            }
        }
        let fs = small as f64 / n as f64;
        let fl = large as f64 / n as f64;
        assert!(
            (fs - 0.50).abs() < 0.02,
            "§4.1: ~50% single-packet, got {fs}"
        );
        assert!((fl - 0.15).abs() < 0.02, "§4.1: ~15% large flows, got {fl}");
    }

    #[test]
    fn most_bytes_in_large_flows() {
        // §4.1: "most of the bytes are in large flows".
        let d = SizeDistribution::HeavyTailed;
        let mut rng = SimRng::new(8);
        let mut total = 0u64;
        let mut large = 0u64;
        for _ in 0..50_000 {
            let s = d.sample(&mut rng);
            total += s;
            if s >= 200_000 {
                large += s;
            }
        }
        assert!(
            large as f64 / total as f64 > 0.7,
            "large flows must dominate bytes"
        );
    }

    #[test]
    fn uniform_band() {
        let d = SizeDistribution::Uniform500KbTo5Mb;
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((500_000..=5_000_000).contains(&s));
        }
    }

    #[test]
    fn mean_bytes_close_to_sampled_mean() {
        for d in [
            SizeDistribution::HeavyTailed,
            SizeDistribution::Uniform500KbTo5Mb,
        ] {
            let mut rng = SimRng::new(3);
            let n = 200_000u64;
            let total: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
            let sampled = total as f64 / n as f64;
            let analytic = d.mean_bytes();
            assert!(
                (sampled - analytic).abs() / analytic < 0.05,
                "{d:?}: sampled {sampled:.0} vs analytic {analytic:.0}"
            );
        }
    }

    fn paper_default(hosts: usize, flow_count: usize, seed: u64) -> Vec<FlowSpec> {
        let model = TrafficModel::Poisson {
            load: 0.7,
            sizes: SizeDistribution::HeavyTailed,
            flow_count,
        };
        let ctx = TrafficCtx {
            hosts,
            line_rate_bps: 40e9,
            seed,
        };
        model.generate(&ctx).flows
    }

    #[test]
    fn load_calibration_hits_target() {
        // Generated traffic over the horizon must offer ≈70 % load.
        let flows = paper_default(16, 4000, 11);
        assert_eq!(flows.len(), 4000);
        let horizon = flows.last().unwrap().at.as_nanos() as f64 / 1e9;
        let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        let offered_bps = bytes as f64 * 8.0 / horizon;
        let capacity_bps = 16.0 * 40e9;
        let load = offered_bps / capacity_bps;
        assert!(
            (load - 0.7).abs() < 0.12,
            "offered load {load:.3} should be ≈0.70"
        );
    }

    #[test]
    fn flows_never_self_target() {
        for f in paper_default(8, 2000, 5) {
            assert_ne!(f.src, f.dst);
            assert!((f.dst as usize) < 8);
        }
    }

    #[test]
    fn schedule_is_sorted_and_deterministic() {
        let a = paper_default(8, 500, 42);
        assert_eq!(a, paper_default(8, 500, 42), "same seed ⇒ same workload");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert_ne!(a, paper_default(8, 500, 43));
    }

    #[test]
    fn incast_stripes_evenly_excluding_dst() {
        let model = TrafficModel::Incast {
            m: 30,
            total_bytes: 150_000_000,
        };
        let ctx = TrafficCtx {
            hosts: 54,
            line_rate_bps: 40e9,
            seed: 1,
        };
        let stream = model.generate(&ctx);
        assert_eq!(stream.flows.len(), 30);
        assert_eq!(stream.incast_from, Some(0));
        let mut seen = std::collections::HashSet::new();
        for f in &stream.flows {
            assert_eq!(f.dst, 0);
            assert_ne!(f.src, 0, "destination must not send to itself");
            assert!(seen.insert(f.src), "senders must be distinct");
            assert_eq!(f.bytes, 5_000_000);
            assert_eq!(f.at, Time::ZERO);
        }
    }

    #[test]
    fn incast_with_too_many_senders_is_a_typed_error() {
        let model = TrafficModel::Incast {
            m: 10,
            total_bytes: 1000,
        };
        assert_eq!(
            model.validate(10),
            Err(TrafficError::IncastFanIn { m: 10, hosts: 10 })
        );
    }
}
