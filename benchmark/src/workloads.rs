//! The six workloads and the generator that turns `--seed` into their
//! `scenario-v1` documents.
//!
//! The simulator sees only the documents written here: the child
//! process reads them back from disk and parses them with
//! `Scenario::from_json_str`, the same way `repro run` would. The seed
//! changes the scenario's master seed (arrivals, sizes, pairs, ECMP
//! salt, loss coins) and nothing else, so every seed does the same
//! *kind* of work at the same stated input size.
//!
//! A seed names a *sequence* of input sets, one per pass: the timed
//! run gives pass `j` the `j`-th set, so that a run's median is taken
//! over the seed-to-seed differences of a heavy-tailed draw (measured
//! here: ±10 % in cost per packet between 800-flow draws) as well as
//! over the machine's noise, and two seeds report comparable numbers.

use irn_core::sim::Duration;
use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{Scenario, TopologySpec, TrafficModel};

/// One benchmark workload.
pub struct Workload {
    /// The name `--workload` takes and BENCHMARK.json lists.
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    /// `Some` for the one workload that drives the `repro` CLI as a
    /// subprocess fleet instead of in-process simulations: the `--seeds`
    /// replicates `repro run` makes of every scenario file.
    pub fleet_seeds: Option<usize>,
    cells: fn(u64) -> Vec<Scenario>,
}

impl Workload {
    /// The scenario documents of input set `pass` of `seed`, in cell
    /// order.
    pub fn scenarios(&self, seed: u64, pass: u64) -> Vec<Scenario> {
        (self.cells)(self.scenario_seed(seed, pass))
    }

    /// The master seed written into the documents: benchmark seed,
    /// pass and workload spread so that no two share a stream.
    fn scenario_seed(&self, seed: u64, pass: u64) -> u64 {
        let index = WORKLOADS
            .iter()
            .position(|w| w.name == self.name)
            .expect("workload is in the table") as u64;
        seed * 1_000_000 + pass * 16 + index
    }
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every workload, in the order BENCHMARK.json lists them.
pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paper-default-k8",
        why: "the paper's default shape on k=8: every layer carries a moderate share; IRN no-PFC and RoCE+PFC cells",
        fleet_seeds: None,
        cells: paper_default_k8,
    },
    Workload {
        name: "fabric-shuffle-k8",
        why: "512 long flows, every packet crosses five switches: net and sim do nearly all the work",
        fleet_seeds: None,
        cells: fabric_shuffle_k8,
    },
    Workload {
        name: "incast-pfc-k8",
        why: "32-to-1 incast over cross-traffic on RoCE+PFC: deep VOQs, pause propagation, delivery batching",
        fleet_seeds: None,
        cells: incast_pfc_k8,
    },
    Workload {
        name: "mice-flood-k8",
        why: "single-packet flows: per-flow lifecycle, generation and metrics dominate while queues stay empty",
        fleet_seeds: None,
        cells: mice_flood_k8,
    },
    Workload {
        name: "rpc-lossy-k4",
        why: "closed-loop RPC under 1% loss on k=4: transport recovery, timers and the AppDriver seam, cache-resident",
        fleet_seeds: None,
        cells: rpc_lossy_k4,
    },
    Workload {
        name: "repro-fleet-batch",
        why: "the repro CLI with two worker processes: plan, WorkerPool, work-v1 frames, reports, envelopes",
        fleet_seeds: Some(3),
        cells: repro_fleet_batch,
    },
];

fn build(
    name: &str,
    k: usize,
    transport: TransportKind,
    pfc: bool,
    cc: CcKind,
    seed: u64,
    traffic: TrafficModel,
) -> Scenario {
    Scenario::builder(name)
        .topology(TopologySpec::FatTree(k))
        .transport(transport)
        .pfc(pfc)
        .cc(cc)
        .seed(seed)
        .traffic(traffic)
        .build()
        .expect("benchmark scenarios are valid by construction")
}

const PAPER_FLOWS: usize = 800;

fn paper_default_k8(seed: u64) -> Vec<Scenario> {
    let traffic = TrafficModel::Poisson {
        load: 0.7,
        sizes: SizeDistribution::HeavyTailed,
        flow_count: PAPER_FLOWS,
    };
    vec![
        build(
            "paper-default-k8 irn",
            8,
            TransportKind::Irn,
            false,
            CcKind::Dcqcn,
            seed,
            traffic.clone(),
        ),
        build(
            "paper-default-k8 roce-pfc",
            8,
            TransportKind::Roce,
            true,
            CcKind::Dcqcn,
            seed,
            traffic,
        ),
    ]
}

fn fabric_shuffle_k8(seed: u64) -> Vec<Scenario> {
    vec![build(
        "fabric-shuffle-k8",
        8,
        TransportKind::Irn,
        false,
        CcKind::None,
        seed,
        TrafficModel::Shuffle {
            flow_bytes: 2_000_000,
            rounds: 1,
            round_gap: Duration::micros(200),
        },
    )]
}

fn incast_pfc_k8(seed: u64) -> Vec<Scenario> {
    vec![build(
        "incast-pfc-k8",
        8,
        TransportKind::Roce,
        true,
        CcKind::Dcqcn,
        seed,
        TrafficModel::incast_with_cross(32, 250_000_000, 0.5, SizeDistribution::HeavyTailed, 800),
    )]
}

fn mice_flood_k8(seed: u64) -> Vec<Scenario> {
    vec![build(
        "mice-flood-k8",
        8,
        TransportKind::Irn,
        false,
        CcKind::None,
        seed,
        TrafficModel::Poisson {
            load: 0.3,
            sizes: SizeDistribution::Fixed(1_000),
            flow_count: 110_000,
        },
    )]
}

fn rpc(ops_per_client: u32) -> TrafficModel {
    TrafficModel::RpcClosedLoop {
        clients: 8,
        ops_per_client,
        window: 4,
        request_bytes: 512,
        response_bytes: 32_000,
        think: Duration::micros(20),
        fanout: 2,
    }
}

fn lossy(s: Scenario) -> Scenario {
    let mut cfg = s.config().clone();
    cfg.loss_injection = 0.01;
    Scenario::from_config(s.name(), cfg).expect("1% loss is in range")
}

fn rpc_lossy_k4(seed: u64) -> Vec<Scenario> {
    [
        ("rpc-lossy-k4 irn", TransportKind::Irn),
        ("rpc-lossy-k4 roce", TransportKind::Roce),
    ]
    .into_iter()
    .map(|(name, t)| lossy(build(name, 4, t, false, CcKind::None, seed, rpc(300))))
    .collect()
}

/// The fleet batch: many small k=4 cells in the shapes of the
/// registry's figure cells (Poisson at three loads under four
/// transport/PFC/CC settings, an incast sweep, lossy RPC, a shuffle),
/// each replicated over three strided seeds by `repro run --seeds 3`.
fn repro_fleet_batch(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    let variants = [
        ("irn", TransportKind::Irn, false, CcKind::None),
        ("roce-pfc", TransportKind::Roce, true, CcKind::None),
        ("irn-dcqcn", TransportKind::Irn, false, CcKind::Dcqcn),
        ("roce-pfc-dcqcn", TransportKind::Roce, true, CcKind::Dcqcn),
    ];
    for (tag, t, pfc, cc) in variants {
        for load in [0.5, 0.7, 0.9] {
            let traffic = TrafficModel::Poisson {
                load,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: 100,
            };
            let name = format!("fleet poisson {tag} load{}", (load * 100.0) as u32);
            out.push(build(&name, 4, t, pfc, cc, seed, traffic));
        }
    }
    for m in [4usize, 8, 12] {
        for (tag, t, pfc) in [
            ("irn", TransportKind::Irn, false),
            ("roce-pfc", TransportKind::Roce, true),
        ] {
            let traffic = TrafficModel::Incast {
                m,
                total_bytes: 2_000_000,
            };
            let name = format!("fleet incast m{m} {tag}");
            out.push(build(&name, 4, t, pfc, CcKind::None, seed, traffic));
        }
    }
    for (tag, t) in [("irn", TransportKind::Irn), ("roce", TransportKind::Roce)] {
        let name = format!("fleet rpc-loss {tag}");
        out.push(lossy(build(
            &name,
            4,
            t,
            false,
            CcKind::None,
            seed,
            rpc(50),
        )));
    }
    out.push(build(
        "fleet fwd-churn",
        4,
        TransportKind::Irn,
        false,
        CcKind::None,
        seed,
        TrafficModel::Shuffle {
            flow_bytes: 256_000,
            rounds: 3,
            round_gap: Duration::micros(50),
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_documents_and_every_stream_is_its_own() {
        let mut seeds = HashSet::new();
        for w in WORKLOADS.iter() {
            let text = |seed, pass| -> Vec<String> {
                w.scenarios(seed, pass)
                    .iter()
                    .map(Scenario::to_json_string)
                    .collect()
            };
            assert_eq!(text(1, 0), text(1, 0), "{}", w.name);
            assert_ne!(text(1, 0), text(2, 0), "{}", w.name);
            assert_ne!(text(1, 0), text(1, 1), "{}", w.name);
            for (seed, pass) in [(1, 0), (1, 1), (2, 0), (2, 7)] {
                assert!(seeds.insert(w.scenario_seed(seed, pass)));
            }
        }
    }

    #[test]
    fn cells_of_one_workload_share_their_traffic() {
        // The IRN and RoCE cells see the same flows, so their ratio is
        // a property of the transports, not of the draw.
        for name in ["paper-default-k8", "rpc-lossy-k4"] {
            let cells = find(name).unwrap().scenarios(1, 0);
            assert_eq!(cells.len(), 2);
            assert_eq!(cells[0].config().traffic, cells[1].config().traffic);
            assert_eq!(cells[0].config().seed, cells[1].config().seed);
            assert_ne!(cells[0].config().transport, cells[1].config().transport);
        }
    }
}
