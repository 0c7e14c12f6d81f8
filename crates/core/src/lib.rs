//! # irn-core — the public face of the IRN reproduction
//!
//! This crate assembles the workspace into the system the paper
//! evaluates: a packet-level simulation of RDMA transports (RoCE's
//! go-back-N, IRN's selective repeat + BDP-FC, an iWARP-style TCP
//! stack) over a PFC-capable fat-tree fabric, driven by the §4.1
//! workloads and measured with the §4.1 metrics.
//!
//! ## Quickstart
//!
//! ```
//! use irn_core::{ExperimentConfig, Simulation, TopologySpec, TrafficModel};
//! use irn_core::transport::TransportKind;
//! use irn_workload::SizeDistribution;
//!
//! // A small IRN-without-PFC run on a 16-host fat-tree.
//! let cfg = ExperimentConfig::quick(200)
//!     .with_transport(TransportKind::Irn)
//!     .with_pfc(false);
//! let result = Simulation::new(cfg).run();
//! assert!(result.summary.avg_slowdown >= 1.0);
//! println!(
//!     "IRN: slowdown {:.2}, avg FCT {}, p99 FCT {}",
//!     result.summary.avg_slowdown, result.summary.avg_fct, result.summary.p99_fct
//! );
//! ```
//!
//! The experiment harness (`irn-experiments`) builds every figure and
//! table of the paper from exactly this API; nothing in the harness
//! touches simulator internals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod engine;
mod flows;
pub mod result;
pub mod scenario;

pub use audit::AuditFailure;
pub use config::{ExperimentConfig, TopologySpec};
pub use engine::{RunError, Simulation};
pub use irn_workload::{
    AllreduceAlgo, AppDriver, AppEvent, AppSink, ClosedLoop, Component, Population, Start,
    TrafficCtx, TrafficError, TrafficModel,
};
pub use result::{MemoryStats, RunResult, SchedCounters, TransportTotals};
pub use scenario::{transport_name, Scenario, ScenarioBuilder, ScenarioError, SCENARIO_SCHEMA};

// Re-export the sub-crates under stable names so downstream users (and
// the examples) need only one dependency.
pub use irn_metrics as metrics;
pub use irn_net as net;
pub use irn_rdma as rdma;
pub use irn_sim as sim;
pub use irn_transport as transport;
pub use irn_workload as workload;

#[cfg(test)]
mod tests {
    use super::*;
    use irn_sim::Duration;
    use irn_transport::cc::CcKind;
    use irn_transport::config::TransportKind;
    use irn_workload::{FlowSpec, SizeDistribution};
    use sim::Time;

    fn run(cfg: ExperimentConfig) -> RunResult {
        Simulation::new(cfg).run()
    }

    /// One flow across a single switch: completion math should be exact.
    #[test]
    fn one_flow_completes_with_sane_fct() {
        let cfg = ExperimentConfig {
            topology: TopologySpec::SingleSwitch(2),
            traffic: TrafficModel::Explicit(vec![FlowSpec {
                src: 0,
                dst: 1,
                bytes: 100_000,
                at: Time::ZERO,
            }]),
            ..ExperimentConfig::paper_default(1)
        };
        let r = run(cfg);
        assert_eq!(r.summary.flows, 1);
        // 100 packets of 1048 B at 40 Gbps ≈ 21 µs + 2 hops × 2 µs.
        let fct = r.summary.avg_fct;
        assert!(
            (Duration::micros(24)..Duration::micros(32)).contains(&fct),
            "unloaded FCT should be ≈25-26 µs, got {fct}"
        );
        assert!(r.summary.avg_slowdown >= 1.0 && r.summary.avg_slowdown < 1.2);
        assert_eq!(r.fabric.buffer_drops, 0);
        assert_eq!(r.transport.retransmitted, 0);
    }

    /// A config that skips `Scenario` validation can describe no flows;
    /// the run says so instead of panicking.
    #[test]
    fn an_empty_workload_is_a_typed_run_error() {
        let cfg = ExperimentConfig {
            topology: TopologySpec::SingleSwitch(2),
            traffic: TrafficModel::Explicit(vec![]),
            ..ExperimentConfig::paper_default(1)
        };
        let err = Simulation::new(cfg).try_run().err();
        assert_eq!(err, Some(RunError::NoFlows));
    }

    /// Every transport preset must complete a small workload.
    #[test]
    fn all_transports_complete() {
        for transport in [
            TransportKind::Irn,
            TransportKind::Roce,
            TransportKind::IrnGoBackN,
            TransportKind::IrnNoBdpFc,
            TransportKind::IwarpTcp,
        ] {
            for pfc in [false, true] {
                let cfg = ExperimentConfig {
                    topology: TopologySpec::SingleSwitch(4),
                    traffic: TrafficModel::Poisson {
                        load: 0.5,
                        sizes: SizeDistribution::HeavyTailed,
                        flow_count: 60,
                    },
                    ..ExperimentConfig::paper_default(60)
                }
                .with_transport(transport)
                .with_pfc(pfc);
                let r = run(cfg);
                assert_eq!(
                    r.summary.flows, 60,
                    "{transport:?} pfc={pfc} must complete all flows"
                );
            }
        }
    }

    /// Every congestion-control scheme must complete a small workload.
    #[test]
    fn all_cc_schemes_complete() {
        for cc in [
            CcKind::None,
            CcKind::Timely,
            CcKind::Dcqcn,
            CcKind::Aimd,
            CcKind::Dctcp,
        ] {
            let cfg = ExperimentConfig {
                topology: TopologySpec::SingleSwitch(4),
                traffic: TrafficModel::Poisson {
                    load: 0.5,
                    sizes: SizeDistribution::HeavyTailed,
                    flow_count: 50,
                },
                ..ExperimentConfig::paper_default(50)
            }
            .with_cc(cc);
            let r = run(cfg);
            assert_eq!(r.summary.flows, 50, "{cc:?} must complete all flows");
        }
    }

    /// Determinism: identical configs give identical results.
    #[test]
    fn runs_are_deterministic() {
        let mk = || ExperimentConfig {
            topology: TopologySpec::FatTree(4),
            traffic: TrafficModel::Poisson {
                load: 0.6,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: 150,
            },
            ..ExperimentConfig::paper_default(150)
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.summary.avg_fct, b.summary.avg_fct);
        assert_eq!(a.summary.p99_fct, b.summary.p99_fct);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fabric, b.fabric);
    }

    /// Under pressure PFC pauses (its losslessness is audited inside
    /// the run); without it, heavy load drops.
    #[test]
    fn pfc_is_lossless_no_pfc_drops() {
        let base = ExperimentConfig {
            topology: TopologySpec::FatTree(4),
            traffic: TrafficModel::Poisson {
                load: 0.9,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: 300,
            },
            buffer_bytes: 60_000, // small buffers to force pressure
            ..ExperimentConfig::paper_default(300)
        };
        let with_pfc = run(base
            .clone()
            .with_transport(TransportKind::Irn)
            .with_pfc(true));
        assert!(with_pfc.fabric.pauses > 0, "pressure must trigger pauses");
        let without = run(base.with_transport(TransportKind::Irn).with_pfc(false));
        assert!(without.fabric.buffer_drops > 0, "no PFC ⇒ drops");
        assert_eq!(without.fabric.pauses, 0);
        assert!(without.transport.retransmitted > 0, "losses must recover");
    }

    /// RPC closed loop: every op completes, app metrics are populated,
    /// and the flow count matches the driver's exact accounting.
    #[test]
    fn rpc_closed_loop_completes_every_op() {
        let cfg = ExperimentConfig {
            topology: TopologySpec::SingleSwitch(6),
            traffic: TrafficModel::RpcClosedLoop {
                clients: 3,
                ops_per_client: 8,
                window: 2,
                request_bytes: 8_000,
                response_bytes: 1_000,
                think: Duration::micros(30),
                fanout: 2,
            },
            ..ExperimentConfig::paper_default(1)
        };
        let r = run(cfg);
        let app = r.app.expect("closed-loop run must report app metrics");
        assert_eq!(app.ops(), 3 * 8);
        // fanout requests + fanout responses per op.
        assert_eq!(r.summary.flows, 3 * 8 * 2 * 2);
        assert!(app.mean_latency() > Duration::ZERO);
        assert!(app.percentile_latency(0.99) >= app.percentile_latency(0.50));
    }

    /// Allreduce: both algorithms run all phases to completion and the
    /// iteration count lands in the op counter.
    #[test]
    fn allreduce_completes_all_iterations() {
        for algorithm in [AllreduceAlgo::Ring, AllreduceAlgo::Tree] {
            let cfg = ExperimentConfig {
                topology: TopologySpec::FatTree(4),
                traffic: TrafficModel::Allreduce {
                    algorithm,
                    participants: 8,
                    bytes: 1 << 20,
                    iterations: 3,
                },
                ..ExperimentConfig::paper_default(1)
            };
            let r = run(cfg);
            let app = r.app.expect("app metrics");
            assert_eq!(app.ops(), 3, "{algorithm:?} iterations");
            assert!(app.phases() > 0, "{algorithm:?} must emit phase barriers");
            assert!(r.summary.flows > 0);
        }
    }

    /// Leader replication: quorum commits drive every op to completion.
    #[test]
    fn leader_replicate_commits_every_op() {
        let cfg = ExperimentConfig {
            topology: TopologySpec::SingleSwitch(8),
            traffic: TrafficModel::LeaderReplicate {
                clients: 3,
                followers: 3,
                quorum: 2,
                ops_per_client: 6,
                request_bytes: 4_000,
                ack_bytes: 64,
                think: Duration::micros(20),
            },
            ..ExperimentConfig::paper_default(1)
        };
        let r = run(cfg);
        let app = r.app.expect("app metrics");
        assert_eq!(app.ops(), 3 * 6);
        // request + F replicates + F acks + response per op.
        assert_eq!(r.summary.flows, 3 * 6 * (2 * 3 + 2));
    }

    /// Closed-loop runs are deterministic: two identical runs produce
    /// identical app metrics, event counts, and fabric counters.
    #[test]
    fn closed_loop_runs_are_deterministic() {
        let mk = || ExperimentConfig {
            topology: TopologySpec::FatTree(4),
            traffic: TrafficModel::RpcClosedLoop {
                clients: 4,
                ops_per_client: 10,
                window: 3,
                request_bytes: 20_000,
                response_bytes: 500,
                think: Duration::micros(50),
                fanout: 2,
            },
            ..ExperimentConfig::paper_default(1)
        };
        let a = run(mk());
        let b = run(mk());
        let (aa, ba) = (a.app.unwrap(), b.app.unwrap());
        assert_eq!(aa.ops(), ba.ops());
        assert_eq!(aa.mean_latency(), ba.mean_latency());
        assert_eq!(aa.percentile_latency(0.99), ba.percentile_latency(0.99));
        assert_eq!(a.events, b.events);
        assert_eq!(a.fabric, b.fabric);
        assert_eq!(a.summary.avg_fct, b.summary.avg_fct);
    }

    /// A lossy fabric still completes a closed-loop run (recovery paths
    /// feed back into the driver correctly) and ops take longer than on
    /// a clean fabric.
    #[test]
    fn closed_loop_survives_loss() {
        let mk = |loss| {
            ExperimentConfig {
                topology: TopologySpec::SingleSwitch(6),
                traffic: TrafficModel::RpcClosedLoop {
                    clients: 2,
                    ops_per_client: 6,
                    window: 1,
                    request_bytes: 50_000,
                    response_bytes: 1_000,
                    think: Duration::micros(10),
                    fanout: 1,
                },
                loss_injection: loss,
                ..ExperimentConfig::paper_default(1)
            }
            .with_transport(TransportKind::Irn)
            .with_pfc(false)
        };
        let clean = run(mk(0.0));
        let lossy = run(mk(0.02));
        assert_eq!(clean.app.as_ref().unwrap().ops(), 12);
        assert_eq!(lossy.app.as_ref().unwrap().ops(), 12);
        assert!(lossy.transport.retransmitted > 0, "loss must force retx");
        assert!(
            lossy.app.unwrap().mean_latency() > clean.app.unwrap().mean_latency(),
            "loss must slow down op latency"
        );
    }

    /// Incast completes and reports an RCT.
    #[test]
    fn incast_reports_rct() {
        let cfg = ExperimentConfig {
            topology: TopologySpec::FatTree(4),
            traffic: TrafficModel::Incast {
                m: 8,
                total_bytes: 8_000_000,
            },
            ..ExperimentConfig::paper_default(8)
        }
        .with_pfc(true)
        .with_transport(TransportKind::Roce);
        let r = run(cfg);
        // 8 MB over a 40 Gbps edge ≈ 1.7 ms lower bound.
        let rct = r.rct();
        assert!(
            rct >= Duration::micros(1_600),
            "RCT {rct} below the line-rate bound"
        );
        assert_eq!(r.summary.flows, 8);
    }
}
