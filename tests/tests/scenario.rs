//! The `Scenario` API contract: serde round-trips are byte-identical,
//! a parsed scenario reproduces bit-identical results, and the two new
//! traffic models (bursty on/off Poisson, permutation shuffle) are
//! deterministic and correctly calibrated end to end.

use irn_core::net::PfcConfig;
use irn_core::sim::{Duration, SimRng, Time};
use irn_core::transport::cc::CcKind;
use irn_core::transport::config::{TransportKind, DATA_HEADER_BYTES};
use irn_core::workload::{FlowSpec, SizeDistribution};
use irn_core::{
    AllreduceAlgo, Component, Population, Scenario, ScenarioError, Simulation, Start, TopologySpec,
    TrafficError, TrafficModel,
};
use irn_integration::run;
use proptest::prelude::*;
use serde::json;
use serde::Serialize;

// ---------------------------------------------------------------------
// Random valid scenarios (seed-driven, so failures reproduce exactly)
// ---------------------------------------------------------------------

fn pick<T: Copy>(rng: &mut SimRng, options: &[T]) -> T {
    options[rng.index(options.len())]
}

fn arb_sizes(rng: &mut SimRng) -> SizeDistribution {
    match rng.index(3) {
        0 => SizeDistribution::HeavyTailed,
        1 => SizeDistribution::Uniform500KbTo5Mb,
        _ => SizeDistribution::Fixed(1 + rng.range(1, 1_000_000)),
    }
}

fn arb_leaf_model(rng: &mut SimRng, hosts: usize) -> TrafficModel {
    match rng.index(5) {
        0 => TrafficModel::Poisson {
            load: 0.05 + 0.95 * rng.uniform(),
            sizes: arb_sizes(rng),
            flow_count: 1 + rng.index(500),
        },
        1 => TrafficModel::BurstyPoisson {
            load: 0.05 + 0.95 * rng.uniform(),
            sizes: arb_sizes(rng),
            flow_count: 1 + rng.index(500),
            duty_cycle: 0.05 + 0.95 * rng.uniform(),
            burst_flows: 1 + rng.index(20),
        },
        2 => TrafficModel::Incast {
            m: 1 + rng.index(hosts - 1),
            total_bytes: 1 + rng.range(1, 100_000_000),
        },
        3 => TrafficModel::Shuffle {
            flow_bytes: 1 + rng.range(1, 10_000_000),
            rounds: 1 + rng.index(10),
            round_gap: Duration::nanos(rng.range(0, 1_000_000)),
        },
        _ => TrafficModel::Explicit(
            (0..1 + rng.index(5))
                .map(|_| {
                    let src = rng.index(hosts) as u32;
                    let mut dst = rng.index(hosts - 1) as u32;
                    if dst >= src {
                        dst += 1;
                    }
                    FlowSpec {
                        src,
                        dst,
                        bytes: 1 + rng.range(1, 1_000_000),
                        at: Time::from_nanos(rng.range(0, 1_000_000)),
                    }
                })
                .collect(),
        ),
    }
}

/// A random *closed-loop* model, valid at `hosts` by construction.
/// These never nest under Compose (validation forbids it), so they are
/// generated as top-level traffic only.
fn arb_closed_loop(rng: &mut SimRng, hosts: usize) -> TrafficModel {
    let kind = rng.index(3);
    if kind == 0 {
        let clients = 1 + rng.index(hosts - 1);
        let servers = hosts - clients;
        return TrafficModel::RpcClosedLoop {
            clients: clients as u32,
            ops_per_client: 1 + rng.index(30) as u32,
            window: 1 + rng.index(4) as u32,
            request_bytes: 1 + rng.range(1, 1_000_000),
            response_bytes: 1 + rng.range(1, 100_000),
            think: Duration::nanos(rng.range(0, 1_000_000)),
            fanout: 1 + rng.index(servers.min(4)) as u32,
        };
    }
    // LeaderReplicate needs leader + followers + clients distinct hosts.
    if kind == 2 && hosts >= 3 {
        let followers = 1 + rng.index(hosts - 2);
        let clients = 1 + rng.index(hosts - 1 - followers);
        return TrafficModel::LeaderReplicate {
            clients: clients as u32,
            followers: followers as u32,
            quorum: 1 + rng.index(followers) as u32,
            ops_per_client: 1 + rng.index(30) as u32,
            request_bytes: 1 + rng.range(1, 1_000_000),
            ack_bytes: 1 + rng.range(1, 10_000),
            think: Duration::nanos(rng.range(0, 1_000_000)),
        };
    }
    TrafficModel::Allreduce {
        algorithm: pick(rng, &[AllreduceAlgo::Ring, AllreduceAlgo::Tree]),
        participants: (2 + rng.index(hosts - 1)) as u32,
        bytes: 1 + rng.range(1, 10_000_000),
        iterations: 1 + rng.index(6) as u32,
    }
}

fn arb_scenario(seed: u64) -> Scenario {
    let mut rng = SimRng::new(seed);
    let topology = match rng.index(3) {
        0 => TopologySpec::SingleSwitch(2 + rng.index(14)),
        1 => TopologySpec::Dumbbell(1 + rng.index(6), 1 + rng.index(6)),
        _ => TopologySpec::FatTree(pick(&mut rng, &[4usize, 6, 8])),
    };
    let hosts = topology.hosts();
    let traffic = if rng.chance(0.25) {
        arb_closed_loop(&mut rng, hosts)
    } else if rng.chance(0.33) {
        TrafficModel::Compose(
            (0..1 + rng.index(3))
                .map(|_| Component {
                    model: arb_leaf_model(&mut rng, hosts),
                    population: pick(&mut rng, &[Population::Primary, Population::Incast]),
                    seed_salt: rng.next_u64(),
                    start: match rng.index(3) {
                        0 => Start::Zero,
                        1 => Start::PriorMedian,
                        _ => Start::At(Duration::nanos(rng.range(0, 10_000_000))),
                    },
                })
                .collect(),
        )
    } else {
        arb_leaf_model(&mut rng, hosts)
    };
    let name = format!("prop scenario #{seed} (weird/chars %+ok)");
    Scenario::builder(name)
        .topology(topology)
        .traffic(traffic)
        .transport(pick(
            &mut rng,
            &[
                TransportKind::Irn,
                TransportKind::Roce,
                TransportKind::IrnGoBackN,
                TransportKind::IrnNoBdpFc,
                TransportKind::IwarpTcp,
            ],
        ))
        .cc(pick(
            &mut rng,
            &[
                CcKind::None,
                CcKind::Timely,
                CcKind::Dcqcn,
                CcKind::Aimd,
                CcKind::Dctcp,
            ],
        ))
        .pfc(rng.chance(0.5))
        .seed(rng.next_u64())
        .configure(|c| {
            c.bandwidth = irn_core::net::Bandwidth::from_mbps(1 + rng.range(1, 400_000));
            c.prop_delay = Duration::nanos(rng.range(1, 100_000));
            c.buffer_bytes = 1 + rng.range(1, 1_000_000);
            c.mtu = 1 + rng.range(1, 9000) as u32;
            c.extra_header = rng.range(0, 64) as u32;
            if c.pfc {
                // Above the pause headroom the fabric provisions (§4.1).
                let frame = (c.mtu + DATA_HEADER_BYTES + c.extra_header) as u64;
                c.buffer_bytes += PfcConfig::headroom(c.bandwidth, c.prop_delay, frame);
            }
            c.rto_high = rng
                .chance(0.5)
                .then(|| Duration::nanos(rng.range(1, 10_000_000)));
            c.rto_low = Duration::nanos(rng.range(1, 1_000_000));
            c.rto_low_n = 1 + rng.range(0, 20) as u32;
            c.retx_fetch_delay = Duration::nanos(rng.range(0, 10_000));
            c.loss_injection = if rng.chance(0.3) {
                0.9 * rng.uniform()
            } else {
                0.0
            };
            c.load_balancing = pick(
                &mut rng,
                &[
                    irn_core::net::LoadBalancing::EcmpPerFlow,
                    irn_core::net::LoadBalancing::PacketSpray,
                ],
            );
            c.nack_threshold = 1 + rng.range(0, 8) as u32;
            c.max_events = 1 + rng.next_u64() % (1 << 40);
        })
        .build()
        .expect("generated scenarios are valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// serialize → parse → serialize is byte-identical, and the parsed
    /// scenario equals the original (config and all).
    #[test]
    fn scenario_serde_round_trip_is_byte_identical(seed in 0u64..1_000_000) {
        let scenario = arb_scenario(seed);
        let text = scenario.to_json_string();
        let parsed = Scenario::from_json_str(&text).expect("own output must parse");
        prop_assert_eq!(&parsed, &scenario);
        prop_assert_eq!(parsed.to_json_string(), text);
    }

    /// What validation admits, the engine can build: the fabric, its PFC
    /// thresholds and the workload, without a panic (not run: a random
    /// draw can take minutes).
    #[test]
    fn every_validated_scenario_constructs(seed in 0u64..1_000_000) {
        let scenario = arb_scenario(seed);
        drop(Simulation::new(scenario.config().clone()));
    }
}

// ---------------------------------------------------------------------
// Parsed scenarios reproduce bit-identical results
// ---------------------------------------------------------------------

/// A run is a pure function of its config; a config that survived a
/// JSON round trip must therefore produce a bit-identical [`RunResult`]
/// (compared through its full serialized form — every metric, counter,
/// and timestamp).
#[test]
fn parsed_scenario_runs_bit_identical() {
    let scenarios = [
        Scenario::builder("round-trip poisson")
            .topology(TopologySpec::SingleSwitch(4))
            .traffic(TrafficModel::Poisson {
                load: 0.6,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: 50,
            })
            .seed(11)
            .build()
            .unwrap(),
        Scenario::builder("round-trip bursty")
            .topology(TopologySpec::SingleSwitch(6))
            .traffic(TrafficModel::BurstyPoisson {
                load: 0.5,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: 60,
                duty_cycle: 0.3,
                burst_flows: 6,
            })
            .cc(CcKind::Timely)
            .build()
            .unwrap(),
        Scenario::builder("round-trip shuffle")
            .topology(TopologySpec::FatTree(4))
            .traffic(TrafficModel::Shuffle {
                flow_bytes: 40_000,
                rounds: 2,
                round_gap: Duration::micros(20),
            })
            .build()
            .unwrap(),
        Scenario::builder("round-trip compose")
            .topology(TopologySpec::SingleSwitch(8))
            .traffic(TrafficModel::incast_with_cross(
                4,
                1_000_000,
                0.4,
                SizeDistribution::HeavyTailed,
                40,
            ))
            .build()
            .unwrap(),
        Scenario::builder("round-trip rpc closed loop")
            .topology(TopologySpec::SingleSwitch(6))
            .traffic(TrafficModel::RpcClosedLoop {
                clients: 2,
                ops_per_client: 6,
                window: 2,
                request_bytes: 10_000,
                response_bytes: 500,
                think: Duration::micros(25),
                fanout: 2,
            })
            .seed(3)
            .build()
            .unwrap(),
        Scenario::builder("round-trip allreduce")
            .topology(TopologySpec::SingleSwitch(8))
            .traffic(TrafficModel::Allreduce {
                algorithm: AllreduceAlgo::Tree,
                participants: 6,
                bytes: 300_000,
                iterations: 2,
            })
            .build()
            .unwrap(),
        Scenario::builder("round-trip leader replicate")
            .topology(TopologySpec::SingleSwitch(8))
            .traffic(TrafficModel::LeaderReplicate {
                clients: 2,
                followers: 3,
                quorum: 2,
                ops_per_client: 5,
                request_bytes: 8_000,
                ack_bytes: 64,
                think: Duration::micros(15),
            })
            .build()
            .unwrap(),
    ];
    for scenario in scenarios {
        let parsed = Scenario::from_json_str(&scenario.to_json_string()).unwrap();
        let a = run(scenario.config().clone());
        let b = run(parsed.into_config());
        assert_eq!(
            json::to_string(&a.to_json()),
            json::to_string(&b.to_json()),
            "{}: parsed config must reproduce the run bit-for-bit",
            scenario.name()
        );
    }
}

// ---------------------------------------------------------------------
// New traffic models, end to end
// ---------------------------------------------------------------------

/// Bursty on/off Poisson through the full engine: deterministic,
/// completes every flow, and offered load stays calibrated (the flows'
/// own bytes/horizon, measured per host in the generated stream, is
/// covered by unit tests; here the engine must finish the workload).
#[test]
fn bursty_scenario_is_deterministic_end_to_end() {
    let s = Scenario::builder("bursty e2e")
        .topology(TopologySpec::FatTree(4))
        .traffic(TrafficModel::BurstyPoisson {
            load: 0.6,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 120,
            duty_cycle: 0.25,
            burst_flows: 8,
        })
        .seed(5)
        .build()
        .unwrap();
    let a = run(s.config().clone());
    let b = run(s.config().clone());
    assert_eq!(a.summary.flows, 120, "every bursty flow must complete");
    assert_eq!(json::to_string(&a.to_json()), json::to_string(&b.to_json()));
    // Different seed ⇒ different realization.
    let c = run(s.with_seed(6).into_config());
    assert_ne!(json::to_string(&a.to_json()), json::to_string(&c.to_json()));
}

/// Permutation shuffle through the full engine: every host sends and
/// receives `rounds × flow_bytes`, nothing self-targets, runs are
/// deterministic.
#[test]
fn shuffle_scenario_is_deterministic_and_balanced() {
    let s = Scenario::builder("shuffle e2e")
        .topology(TopologySpec::SingleSwitch(10))
        .traffic(TrafficModel::Shuffle {
            flow_bytes: 30_000,
            rounds: 3,
            round_gap: Duration::micros(10),
        })
        .seed(2)
        .build()
        .unwrap();
    let a = run(s.config().clone());
    assert_eq!(a.summary.flows, 30, "rounds × hosts flows");
    let b = run(s.config().clone());
    assert_eq!(json::to_string(&a.to_json()), json::to_string(&b.to_json()));
}

// ---------------------------------------------------------------------
// Committed example files
// ---------------------------------------------------------------------

/// Every committed `examples/*.json` scenario must parse and validate
/// (the CI smoke test also executes them at release speed).
#[test]
fn committed_example_scenarios_are_valid() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples");
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let scenario =
            Scenario::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            !scenario.name().is_empty(),
            "{} must carry a name",
            path.display()
        );
        count += 1;
    }
    assert!(
        count >= 7,
        "expected the committed example set, found {count}"
    );
}

/// The beyond-paper k=10 shuffle example really is beyond the paper's
/// matrix: 250 hosts, a pattern §4 never runs.
#[test]
fn shuffle_example_is_beyond_paper_scale() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples");
    let text = std::fs::read_to_string(dir.join("shuffle-k10.json")).unwrap();
    let s = Scenario::from_json_str(&text).unwrap();
    assert_eq!(s.config().topology.hosts(), 250);
    assert!(matches!(
        s.config().traffic,
        TrafficModel::Shuffle { rounds: 2, .. }
    ));
}

// ---------------------------------------------------------------------
// Typed errors, not panics
// ---------------------------------------------------------------------

/// The user-reachable misconfiguration space maps to typed errors —
/// never a panic — including through the JSON path.
#[test]
fn config_mistakes_surface_as_typed_errors() {
    let cases: Vec<(&str, ScenarioError)> = vec![
        (
            r#"{"schema": "scenario-v1", "name": "x",
                "topology": {"fat_tree": {"k": 7}},
                "traffic": {"poisson": {"load": 0.5, "sizes": "heavy_tailed", "flows": 5}}}"#,
            ScenarioError::OddFatTree { k: 7 },
        ),
        (
            r#"{"schema": "scenario-v1", "name": "x", "mtu": 0,
                "topology": {"fat_tree": {"k": 4}},
                "traffic": {"poisson": {"load": 0.5, "sizes": "heavy_tailed", "flows": 5}}}"#,
            ScenarioError::ZeroMtu,
        ),
        (
            r#"{"schema": "scenario-v1", "name": "x",
                "topology": {"fat_tree": {"k": 4}},
                "traffic": {"poisson": {"load": 0.0, "sizes": "heavy_tailed", "flows": 5}}}"#,
            ScenarioError::Traffic(TrafficError::LoadOutOfRange { load: 0.0 }),
        ),
        (
            r#"{"schema": "scenario-v1", "name": "x",
                "topology": {"single_switch": {"hosts": 6}},
                "traffic": {"incast": {"m": 6, "total_bytes": 100}}}"#,
            ScenarioError::Traffic(TrafficError::IncastFanIn { m: 6, hosts: 6 }),
        ),
    ];
    for (text, expect) in cases {
        assert_eq!(Scenario::from_json_str(text).unwrap_err(), expect);
    }
}
