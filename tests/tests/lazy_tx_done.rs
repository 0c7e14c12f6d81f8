//! The oracle for the lazy `TxDone`: what every cell of a small matrix
//! simulated, captured while every transmission still scheduled its
//! completion event.
//!
//! A switch port that sends a frame with nothing else queued reserves
//! its `TxDone`'s sequence number and schedules nothing; the entry
//! enters the queue later, under the reserved number, only if traffic
//! turns up while the frame is on the wire (`crates/net/src/fabric.rs`).
//! That may remove events and nothing else. `fixtures/lazy-tx-done.txt`
//! was written by this file's `rows()` at commit c1134ea — the last
//! with an eager `TxDone`, before `fabric.rs` or `scheduler.rs` was
//! touched — and holds, per cell, the FNV-1a of the simulated
//! statistics and of the full `trace-v1` capture, plus the event-loop
//! counts. The `trace` column of the four cells that cascade
//! (`poisson/iwarp/pfc=*/loss=0.01/spray`,
//! `sync/iwarp/pfc=*/loss=0.01/ecmp`) was rewritten when the scheduler's
//! buckets narrowed from 256 to 32 ns: a `sched.cascade` line carries
//! its bucket's start, and with those lines removed the four traces
//! match the old ones byte for byte. The `stale_reclaims` column was
//! rewritten when a cancelled or re-armed timer began unlinking its
//! dead entry from the ring at once: a dead deadline is counted when it
//! is removed, so the cells whose run ended with dead entries still
//! waiting in the ring count them now, and no other column moved. Here
//! every hash and every timer count is equal, the events that are not
//! fabric events are as many as they were, and the fabric events are
//! strictly fewer.
//!
//! The matrix: 5 transports × PFC on/off × loss {0, 1 %} × {ECMP,
//! packet spray} × three traffic shapes — Poisson; a shuffle round plus
//! a 16-to-1 incast that all start at t = 0, so `Arrive` / `TxDone`
//! ties at one nanosecond are the norm; closed-loop RPC, whose arrivals
//! react to every completion time. RoCE with PFC keeps only its
//! lossless ECMP cells (111 cells in all).

use std::fmt::Write as _;

use irn_core::net::LoadBalancing;
use irn_core::sim::Duration;
use irn_core::transport::config::TransportKind;
use irn_core::workload::{Component, Population, SizeDistribution, Start};
use irn_core::{ExperimentConfig, RunResult, TopologySpec, TrafficModel};
use irn_integration::{fnv_hex, run};
use irn_telemetry::TraceFilter;
use serde::json;

const TRANSPORTS: [(&str, TransportKind); 5] = [
    ("irn", TransportKind::Irn),
    ("roce", TransportKind::Roce),
    ("irn-gbn", TransportKind::IrnGoBackN),
    ("irn-nobdpfc", TransportKind::IrnNoBdpFc),
    ("iwarp", TransportKind::IwarpTcp),
];

/// Topology, traffic and per-input-port switch buffer of one shape.
type Shape = (TopologySpec, TrafficModel, u64);
/// A named constructor of one.
type NamedShape = (&'static str, fn() -> Shape);

fn poisson() -> Shape {
    let traffic = TrafficModel::Poisson {
        load: 0.7,
        sizes: SizeDistribution::HeavyTailed,
        flow_count: 60,
    };
    (TopologySpec::FatTree(4), traffic, 240_000)
}

/// One permutation round over all 54 hosts of a k=6 fat-tree and a
/// 16-to-1 incast on top of it, every flow starting at time zero, into
/// buffers a quarter of the default: the incast pauses its senders
/// under PFC and overflows without it.
fn synchronized() -> Shape {
    let part = |model, population, seed_salt| Component {
        model,
        population,
        seed_salt,
        start: Start::Zero,
    };
    let shuffle = TrafficModel::Shuffle {
        flow_bytes: 12_000,
        rounds: 1,
        round_gap: Duration::ZERO,
    };
    let incast = TrafficModel::Incast {
        m: 16,
        total_bytes: 480_000,
    };
    let traffic = TrafficModel::Compose(vec![
        part(shuffle, Population::Primary, 0),
        part(incast, Population::Incast, 0x1CA5),
    ]);
    (TopologySpec::FatTree(6), traffic, 60_000)
}

fn rpc() -> Shape {
    let traffic = TrafficModel::RpcClosedLoop {
        clients: 6,
        ops_per_client: 5,
        window: 2,
        request_bytes: 2_000,
        response_bytes: 16_000,
        think: Duration::micros(4),
        fanout: 2,
    };
    (TopologySpec::FatTree(4), traffic, 240_000)
}

const SHAPES: [NamedShape; 3] = [("poisson", poisson), ("sync", synchronized), ("rpc", rpc)];

/// Everything the run simulated; the event count, the scheduler
/// counters and the memory gauge (host-side quantities) stay out.
fn simulated(r: &RunResult) -> String {
    fnv_hex([
        json::to_string(&r.summary),
        json::to_string(&r.metrics),
        json::to_string(&r.incast_metrics),
        json::to_string(&r.app),
        json::to_string(&r.fabric),
        json::to_string(&r.transport),
        json::to_string(&r.finished_at),
    ])
}

/// One line per cell, in matrix order.
fn rows() -> String {
    let mut out = String::new();
    for (shape_name, shape) in SHAPES {
        for (transport_name, transport) in TRANSPORTS {
            for pfc in [false, true] {
                for loss in [0.0, 0.01] {
                    for (lb_name, lb) in [
                        ("ecmp", LoadBalancing::EcmpPerFlow),
                        ("spray", LoadBalancing::PacketSpray),
                    ] {
                        // RoCE with PFC runs without timeouts (§4.1) and
                        // NACKs a gap once: an injected loss (the skip
                        // `nic_parking.rs` makes) or a sprayed tail that
                        // arrives out of order twice strands the flow.
                        let unrecoverable = loss > 0.0 || lb == LoadBalancing::PacketSpray;
                        if transport == TransportKind::Roce && pfc && unrecoverable {
                            continue;
                        }
                        let (topology, traffic, buffer_bytes) = shape();
                        let mut cfg = ExperimentConfig::quick(0)
                            .with_traffic(traffic)
                            .with_transport(transport)
                            .with_pfc(pfc);
                        cfg.topology = topology;
                        cfg.buffer_bytes = buffer_bytes;
                        cfg.loss_injection = loss;
                        cfg.load_balancing = lb;
                        let (r, trace) =
                            irn_telemetry::capture(0, TraceFilter::all(), usize::MAX, || run(cfg));
                        assert_eq!(trace.dropped, 0);
                        writeln!(
                            out,
                            "{shape_name}/{transport_name}/pfc={pfc}/loss={loss}/{lb_name} \
                             simulated={} trace={} trace_lines={} events={} fabric_events={} \
                             timer_arms={} timer_cancels={} stale_reclaims={} past_clamps={}",
                            simulated(&r),
                            fnv_hex(&trace.lines),
                            trace.lines.len(),
                            r.events,
                            r.sched.fabric_events,
                            r.sched.timer_arms,
                            r.sched.timer_cancels,
                            r.sched.stale_timer_reclaims,
                            r.sched.past_clamps,
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

/// `key=value` member of a row.
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    row.split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("row without {key}: {row}"))
}

fn count(row: &str, key: &str) -> u64 {
    field(row, key).parse().expect("a count")
}

#[test]
fn every_cell_simulates_what_the_eager_tx_done_did_in_fewer_events() {
    let path = format!(
        "{}/tests/fixtures/lazy-tx-done.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = rows();
    assert_eq!(got.lines().count(), want.lines().count(), "cell count");
    assert_eq!(got.lines().count(), 111);
    for (g, w) in got.lines().zip(want.lines()) {
        let cell = g.split(' ').next().expect("a cell name");
        assert_eq!(Some(cell), w.split(' ').next(), "cell order");
        for key in [
            "simulated",
            "trace",
            "trace_lines",
            "timer_arms",
            "timer_cancels",
            "stale_reclaims",
            "past_clamps",
        ] {
            assert_eq!(field(g, key), field(w, key), "{cell}: {key}");
        }
        assert_eq!(
            count(g, "events") - count(g, "fabric_events"),
            count(w, "events") - count(w, "fabric_events"),
            "{cell}: only fabric events may go"
        );
        assert!(
            count(g, "events") < count(w, "events"),
            "{cell}: {} events, {} with the eager TxDone",
            count(g, "events"),
            count(w, "events")
        );
    }
}
