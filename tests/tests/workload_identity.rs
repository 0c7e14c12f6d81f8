//! The oracle for irn-workload's one-implementation-per-concept
//! refactor: every flow and application event the traffic models
//! produce, captured before the crate was touched.
//!
//! `fixtures/workload-identity.txt` was written by this file's `rows()`
//! at commit 48a76cc, while `WorkloadSpec`, the free `incast()`, a
//! second per-host arrival loop for bursty traffic and two copies of the
//! closed-loop operation bookkeeping still existed. Per case it holds
//! the FNV-1a of what the model produced:
//!
//! - an open-loop model (every shape, and compositions with
//!   `incast_with_cross`, `PriorMedian` and `At` starts) hashes
//!   `generate()`'s flows and `incast_from`, for 2, 16 and 54 hosts
//!   under several seeds;
//! - a closed-loop model (RPC with window and fanout above one and a
//!   think time, ring and tree allreduce, leader replication with a
//!   quorum below its followers) hashes its seed flows, `on_start`'s
//!   events and every spawn and event of a drain that retires flows in
//!   FIFO order, as `benchmark/src/kernels.rs::driver_retire` does.
//!
//! A refactor of the crate may move no byte of any of them.

use std::collections::VecDeque;
use std::fmt::Write as _;

use irn_core::sim::{Duration, Time};
use irn_core::workload::{FlowSpec, SizeDistribution};
use irn_core::TrafficModel;
use irn_core::{AllreduceAlgo, AppEvent, AppSink, Component, Population, Start, TrafficCtx};

const HOSTS: [usize; 3] = [2, 16, 54];
const SEEDS: [u64; 4] = [1, 2, 42, 0x5EED_C0FF_EE00_0001];

/// FNV-1a 64 over a growing byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn flow(&mut self, f: &FlowSpec) {
        self.put(format!("f {} {} {} {};", f.src, f.dst, f.bytes, f.at.as_nanos()).as_bytes());
    }

    fn event(&mut self, e: &AppEvent) {
        let s = match *e {
            AppEvent::OpStart { op, client, at } => {
                format!("s {op} {client} {};", at.as_nanos())
            }
            AppEvent::OpDone {
                op,
                client,
                started,
                at,
            } => format!("d {op} {client} {} {};", started.as_nanos(), at.as_nanos()),
            AppEvent::Phase { phase, at } => format!("p {phase} {};", at.as_nanos()),
        };
        self.put(s.as_bytes());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn flow(src: u32, dst: u32, bytes: u64, at_ns: u64) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        bytes,
        at: Time::from_nanos(at_ns),
    }
}

fn part(model: TrafficModel, population: Population, seed_salt: u64, start: Start) -> Component {
    Component {
        model,
        population,
        seed_salt,
        start,
    }
}

/// Every open-loop shape, with parameters that depend on the host count
/// only where validation requires it.
fn open_loop(hosts: usize) -> Vec<(&'static str, TrafficModel)> {
    let n = hosts as u32;
    let poisson = |load, sizes, flow_count| TrafficModel::Poisson {
        load,
        sizes,
        flow_count,
    };
    let bursty = |duty_cycle, burst_flows, flow_count| TrafficModel::BurstyPoisson {
        load: 0.6,
        sizes: SizeDistribution::HeavyTailed,
        flow_count,
        duty_cycle,
        burst_flows,
    };
    let explicit = TrafficModel::Explicit(vec![
        flow(1, 0, 9_000, 9_000_000),
        flow(0, 1, 10, 10),
        flow(n - 1, 0, 5_000, 5_000),
        flow(0, n - 1, 1, 0),
    ]);
    vec![
        (
            "poisson-heavy",
            poisson(0.7, SizeDistribution::HeavyTailed, 500),
        ),
        (
            "poisson-fixed",
            poisson(0.3, SizeDistribution::Fixed(1_000), 37),
        ),
        (
            "poisson-uniform",
            poisson(1.0, SizeDistribution::Uniform500KbTo5Mb, 101),
        ),
        ("poisson-one", poisson(0.5, SizeDistribution::Fixed(1), 1)),
        ("bursty", bursty(0.25, 10, 600)),
        ("bursty-duty1-burst1", bursty(1.0, 1, 333)),
        ("bursty-duty1-burst5", bursty(1.0, 5, 333)),
        ("bursty-burst1", bursty(0.6, 1, 333)),
        ("bursty-tiny-off", bursty(0.999_999, 3, 250)),
        ("bursty-low-duty", bursty(0.01, 40, 400)),
        (
            "incast-one",
            TrafficModel::Incast {
                m: 1,
                total_bytes: 150_000_000,
            },
        ),
        (
            "incast-all",
            TrafficModel::Incast {
                m: hosts - 1,
                total_bytes: 150_000_001,
            },
        ),
        (
            "incast-half",
            TrafficModel::Incast {
                m: hosts.div_ceil(2).min(hosts - 1),
                total_bytes: 7,
            },
        ),
        (
            "shuffle",
            TrafficModel::Shuffle {
                flow_bytes: 100_000,
                rounds: 3,
                round_gap: Duration::micros(50),
            },
        ),
        (
            "shuffle-sync",
            TrafficModel::Shuffle {
                flow_bytes: 7,
                rounds: 2,
                round_gap: Duration::ZERO,
            },
        ),
        ("explicit", explicit.clone()),
        (
            "incast-with-cross",
            TrafficModel::incast_with_cross(
                (hosts / 2).max(1),
                15_000_000,
                0.5,
                SizeDistribution::HeavyTailed,
                200,
            ),
        ),
        (
            "compose-mixed",
            TrafficModel::Compose(vec![
                part(
                    TrafficModel::Incast {
                        m: 1,
                        total_bytes: 1_000,
                    },
                    Population::Incast,
                    3,
                    Start::PriorMedian,
                ),
                part(
                    bursty(0.3, 4, 90),
                    Population::Primary,
                    0,
                    Start::At(Duration::micros(7)),
                ),
                part(explicit, Population::Primary, 0, Start::PriorMedian),
                part(
                    TrafficModel::Shuffle {
                        flow_bytes: 4_000,
                        rounds: 2,
                        round_gap: Duration::micros(3),
                    },
                    Population::Incast,
                    0x77,
                    Start::PriorMedian,
                ),
                part(
                    poisson(0.4, SizeDistribution::Fixed(64), 50),
                    Population::Primary,
                    0x1CA57,
                    Start::At(Duration::nanos(1)),
                ),
            ]),
        ),
        (
            "compose-incast-shape-primary",
            TrafficModel::Compose(vec![
                part(
                    poisson(0.7, SizeDistribution::HeavyTailed, 40),
                    Population::Primary,
                    0,
                    Start::Zero,
                ),
                part(
                    TrafficModel::Incast {
                        m: 1,
                        total_bytes: 400_000,
                    },
                    Population::Primary,
                    9,
                    Start::PriorMedian,
                ),
            ]),
        ),
    ]
}

/// Every closed-loop shape that validates on `hosts`.
fn closed_loop(hosts: usize) -> Vec<(&'static str, TrafficModel)> {
    let n = hosts as u32;
    let rpc = |clients, window, fanout, think| TrafficModel::RpcClosedLoop {
        clients,
        ops_per_client: 7,
        window,
        request_bytes: 4_096,
        response_bytes: 256,
        think,
        fanout,
    };
    let allreduce = |algorithm, participants| TrafficModel::Allreduce {
        algorithm,
        participants,
        bytes: 1 << 20,
        iterations: 3,
    };
    let replicate = |clients, followers, quorum, think| TrafficModel::LeaderReplicate {
        clients,
        followers,
        quorum,
        ops_per_client: 5,
        request_bytes: 2_048,
        ack_bytes: 64,
        think,
    };
    let clients = (n / 3).max(1);
    let servers = n - clients;
    vec![
        ("rpc", rpc(clients, 3, servers.min(3), Duration::micros(20))),
        (
            "rpc-window-above-ops",
            rpc(clients, 9, 1, Duration::micros(2)),
        ),
        (
            "rpc-no-think",
            rpc(clients, 2, servers.min(2), Duration::ZERO),
        ),
        ("allreduce-ring", allreduce(AllreduceAlgo::Ring, n)),
        ("allreduce-tree", allreduce(AllreduceAlgo::Tree, n)),
        ("allreduce-tree-5", allreduce(AllreduceAlgo::Tree, n.min(5))),
        (
            "replicate",
            replicate(
                (n.saturating_sub(4)).clamp(1, 6),
                3,
                2,
                Duration::micros(20),
            ),
        ),
        ("replicate-no-think", replicate(1, 1, 1, Duration::ZERO)),
    ]
}

fn ctx(hosts: usize, seed: u64) -> TrafficCtx {
    TrafficCtx {
        hosts,
        line_rate_bps: 40e9,
        seed,
    }
}

/// Hash of `generate()`: its flows, then its incast boundary.
fn generated(model: &TrafficModel, c: &TrafficCtx) -> (usize, String) {
    let stream = model.generate(c);
    let mut h = Fnv::new();
    for f in &stream.flows {
        h.flow(f);
    }
    h.put(format!("incast_from {:?}", stream.incast_from).as_bytes());
    (stream.flows.len(), h.hex())
}

/// Hash of a closed-loop run: seed flows, `on_start`'s events, then for
/// each retirement (FIFO by spawn order, a microsecond after the flow
/// may start) the retired flow, the clock, every spawned flow and every
/// event.
fn driven(model: &TrafficModel, c: &TrafficCtx) -> (usize, String) {
    let mut cl = model.closed_loop(c).expect("a closed-loop model");
    let mut h = Fnv::new();
    for f in &cl.seed_flows {
        h.flow(f);
    }
    let mut sink = AppSink::new();
    cl.driver.on_start(&mut sink);
    assert!(sink.flows.is_empty(), "on_start spawns nothing");
    for e in &sink.events {
        h.event(e);
    }
    let mut live: VecDeque<(u32, Time)> = cl
        .seed_flows
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u32, f.at))
        .collect();
    let mut next_index = live.len() as u32;
    let mut now = Time::ZERO;
    while let Some((flow, at)) = live.pop_front() {
        now = now.max(at) + Duration::micros(1);
        h.put(format!("r {flow} {};", now.as_nanos()).as_bytes());
        sink.clear();
        cl.driver.on_flow_retired(now, flow, next_index, &mut sink);
        for spec in &sink.flows {
            h.flow(spec);
            live.push_back((next_index, spec.at));
            next_index += 1;
        }
        for e in &sink.events {
            h.event(e);
        }
    }
    (next_index as usize, h.hex())
}

/// One line per (model, hosts, seed), in a fixed order.
fn rows() -> String {
    let mut out = String::new();
    for hosts in HOSTS {
        for seed in SEEDS {
            let c = ctx(hosts, seed);
            let open = open_loop(hosts).into_iter().map(|(n, m)| (n, m, false));
            let closed = closed_loop(hosts).into_iter().map(|(n, m)| (n, m, true));
            for (name, model, is_closed) in open.chain(closed) {
                let cell = format!("{name}/hosts={hosts}/seed={seed}");
                if model.validate(hosts).is_err() {
                    writeln!(out, "{cell} invalid").unwrap();
                    continue;
                }
                assert_eq!(model.is_closed_loop(), is_closed, "{cell}");
                let (flows, hash) = if is_closed {
                    driven(&model, &c)
                } else {
                    generated(&model, &c)
                };
                writeln!(out, "{cell} flows={flows} hash={hash}").unwrap();
            }
        }
    }
    out
}

#[test]
fn every_model_produces_the_flows_and_events_it_did_before_the_refactor() {
    let path = format!(
        "{}/tests/fixtures/workload-identity.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = rows();
    assert_eq!(got.lines().count(), want.lines().count(), "case count");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w);
    }
}
