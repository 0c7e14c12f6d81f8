//! One pass over a workload's cells, in a process of its own.
//!
//! The coordinator writes the scenario documents and spawns this
//! process once per pass, so every pass starts with a cold
//! routing-table cache and reports a `VmHWM` that is its alone. The
//! child reads each document, builds and runs the simulation, checks
//! the outputs, and prints one JSON object on standard output.
//!
//! Modes: `setup` builds every cell and stops (a set-up time sample);
//! `timed` runs them with span recording off; `traced` records spans
//! around every call into a layer, makes the extra per-layer calls
//! (wire encode/decode, summary, workload generation, table build) and
//! runs the replay kernels.

use std::path::{Path, PathBuf};
use std::time::Instant;

use irn_core::net::NetTables;
use irn_core::transport::config::{LossRecovery, TransportConfig, TransportKind};
use irn_core::workload::TrafficCtx;
use irn_core::{ExperimentConfig, RunResult, Scenario, Simulation, TrafficModel};
use irn_harness::wire;
use irn_telemetry::TraceFilter;
use serde::json::Value;
use serde::Serialize;

use crate::check::{check_cell, data_packets, sim_digest};
use crate::json_object;
use crate::kernels::{self, Measured};
use crate::trace::{total_s, Span, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Setup,
    Timed,
    Traced,
}

impl Mode {
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "setup" => Some(Mode::Setup),
            "timed" => Some(Mode::Timed),
            "traced" => Some(Mode::Traced),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Timed => "timed",
            Mode::Traced => "traced",
        }
    }
}

/// Scale of the replay kernels in a traced pass: each runs a small
/// multiple of this many operations, a few tens of milliseconds.
const KERNEL_OPS: u64 = 1_000_000;

/// One finished cell.
struct Cell {
    cfg: ExperimentConfig,
    name: String,
    run_s: f64,
    result: RunResult,
    failures: Vec<String>,
    /// Length of the cell's `result-v1` wire frame (traced mode).
    frame_bytes: usize,
}

/// Run the child pass and print its JSON line. `origin` is the instant
/// `main` was entered: the first cell's set-up time counts from there,
/// a later cell's from the end of the run before it.
pub fn run(origin: Instant, workload: &str, mode: Mode, files: &[PathBuf]) -> Result<(), String> {
    let mut tracer = Tracer::new(mode == Mode::Traced, origin, workload);
    let mut cells = Vec::new();
    let mut setup_total = 0.0;
    let mut mark = origin;
    for (i, file) in files.iter().enumerate() {
        tracer.set_cell(i as u32);
        if mode == Mode::Traced {
            layer_probes_before(&mut tracer, file)?;
            mark = Instant::now();
        }
        let (cell, _) = tracer.span("cell", |t| run_cell(t, mode, i as u64, file, mark));
        let (setup_s, cell) = cell?;
        setup_total += setup_s;
        cells.extend(cell);
        mark = Instant::now();
    }

    let mut out = vec![
        ("mode", mode.label().to_json()),
        ("setup_s", setup_total.to_json()),
    ];
    if mode != Mode::Setup {
        let hwm = crate::proc::vm_hwm_kb("self").ok_or("no VmHWM in /proc/self/status")?;
        out.push(("vm_hwm_kb", hwm.to_json()));
        out.push(("cells", Value::Array(cells.iter().map(cell_json).collect())));
    }
    if mode == Mode::Traced {
        let kernel_values = run_kernels(&mut tracer, &cells, KERNEL_OPS);
        let spans = tracer.into_spans();
        let layer = ledger(&cells, &kernel_values, &spans);
        out.push((
            "layer",
            Value::Object(layer.into_iter().map(|(k, v)| (k, v.to_json())).collect()),
        ));
        out.push((
            "spans",
            Value::Array(spans.iter().map(Span::to_json_value).collect()),
        ));
    }
    println!("{}", serde::json::to_string(&json_object(out)));
    Ok(())
}

/// Set up one cell — read, parse, build — and, unless the pass only
/// samples set-up time, run and check it. Returns the set-up seconds
/// counted from `mark`.
fn run_cell(
    t: &mut Tracer,
    mode: Mode,
    id: u64,
    file: &Path,
    mark: Instant,
) -> Result<(f64, Option<Cell>), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let (scenario, _) = t.span("core.scenario_parse", |_| Scenario::from_json_str(&text));
    let scenario = scenario.map_err(|e| format!("{}: {e}", file.display()))?;
    let (sim, _) = t.span("core.sim_new", |_| {
        Simulation::new(scenario.config().clone())
    });
    let setup_s = mark.elapsed().as_secs_f64();
    if mode == Mode::Setup {
        return Ok((setup_s, None));
    }
    let (result, run_s) = t.span("core.sim_run", |_| sim.run());
    let mut cell = Cell {
        cfg: scenario.config().clone(),
        name: scenario.name().to_string(),
        run_s,
        failures: check_cell(scenario.config(), &result),
        result,
        frame_bytes: 0,
    };
    if mode == Mode::Traced {
        layer_probes_after(t, id, &scenario, &mut cell);
    }
    Ok((setup_s, Some(cell)))
}

fn cell_json(c: &Cell) -> Value {
    json_object(vec![
        ("name", c.name.to_json()),
        ("run_s", c.run_s.to_json()),
        ("events", c.result.events.to_json()),
        ("data_pkts", data_packets(&c.result).to_json()),
        ("digest", sim_digest(&c.result).to_json()),
        ("failures", c.failures.to_json()),
    ])
}

/// Layer calls the traced pass makes before a cell's set-up, outside
/// every end-to-end timing: workload generation and the routing-table
/// build, each on its own.
fn layer_probes_before(tracer: &mut Tracer, file: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let scenario = Scenario::from_json_str(&text).map_err(|e| e.to_string())?;
    let cfg = scenario.config();
    let ctx = TrafficCtx {
        hosts: cfg.topology.hosts(),
        line_rate_bps: cfg.bandwidth.as_bps_f64(),
        seed: cfg.seed,
    };
    tracer.span_counted("workload.generate", |_| {
        match cfg.traffic.closed_loop(&ctx) {
            Some(cl) => ((), cl.seed_flows.len() as u64),
            None => ((), cfg.traffic.generate(&ctx).flows.len() as u64),
        }
    });
    let topo = cfg.topology.build();
    tracer.span("net.tables_build", |_| {
        std::hint::black_box(NetTables::build(&topo));
    });
    Ok(())
}

/// Layer calls the traced pass makes after a cell's run: the wire
/// frames a worker fleet would exchange for it, and the summary fold.
fn layer_probes_after(tracer: &mut Tracer, id: u64, scenario: &Scenario, cell: &mut Cell) {
    tracer.span("harness.encode_work", |_| {
        std::hint::black_box(wire::encode_work(id, scenario, None));
    });
    let (frame, _) = tracer.span("harness.encode_result", |_| {
        wire::encode_result(id, cell.run_s, &cell.result, None)
    });
    cell.frame_bytes = frame.len();
    let (decoded, _) = tracer.span("harness.decode_result", |_| wire::decode(&frame));
    match decoded {
        Ok(wire::Frame::Result { result, .. }) => {
            if sim_digest(&result) != sim_digest(&cell.result) {
                cell.failures
                    .push("result frame did not round-trip".to_string());
            }
        }
        other => cell
            .failures
            .push(format!("result frame decoded as {other:?}")),
    }
    tracer.span("metrics.summary", |_| {
        std::hint::black_box(cell.result.metrics.summary());
    });
}

/// Kernel measurements by metric name, plus the telemetry probe's
/// counts.
struct KernelValues {
    hold: Measured,
    timers: Measured,
    hop: Measured,
    hop_congested: Measured,
    clean: Measured,
    lossy_sr: Measured,
    lossy_gbn: Measured,
    qp_setup: Measured,
    cc: Measured,
    bitmap: Measured,
    receive_data: Measured,
    record: Measured,
    driver: Option<Measured>,
    telemetry: Option<TelemetryProbe>,
}

struct TelemetryProbe {
    slowdown_x: f64,
    recorded: u64,
    dropped: u64,
}

/// True when the cell lost nothing: its transport ran the clean path.
fn lossless(c: &Cell) -> bool {
    c.result.transport.retransmitted == 0
}

/// Events the scheduler held on average, by Little's law: fabric events
/// per virtual nanosecond times their mean lead time. A packet on a
/// link has two events pending, its `TxDone` one serialization (0.2 µs)
/// ahead and its `Arrive` a propagation delay (2 µs) further; a packet
/// waiting in a switch queue has none, so the packet pool's peak would
/// overstate the population many times over on a congested run.
fn mean_event_population(r: &RunResult) -> usize {
    const MEAN_LEAD_NS: f64 = 1_200.0;
    (r.sched.fabric_events as f64 * MEAN_LEAD_NS / r.finished_at.as_nanos().max(1) as f64) as usize
}

/// Run every replay kernel on the first cell's topology and settings.
/// `ops` scales them all: a million in a traced pass, a handful in tests.
fn run_kernels(tracer: &mut Tracer, cells: &[Cell], ops: u64) -> KernelValues {
    tracer.set_cell(cells.len() as u32);
    let first = &cells[0];
    let cfg = &first.cfg;
    let hosts = cfg.topology.hosts();
    let flows = first.result.memory.flows.max(1);
    let flow_bytes = (data_packets(&first.result) * cfg.mtu as u64 / flows).max(1);
    let diameter = kernels::diameter_hops(cfg);
    // The clean channel runs the transport of a cell that lost nothing,
    // when the workload has one.
    let clean_cell = cells.iter().find(|c| lossless(c)).unwrap_or(first);
    let clean_cfg = clean_cell.cfg.transport_config(diameter);
    let sr_cfg = kernels::transport_for(cfg, TransportKind::Irn, false, diameter);
    let gbn_cfg = kernels::transport_for(cfg, TransportKind::Roce, false, diameter);
    let population = cells
        .iter()
        .map(|c| mean_event_population(&c.result))
        .max()
        .unwrap_or(0)
        .max(64);
    let timers = hosts + flows.min(1024) as usize;
    let pkts_per_sender = (ops / 25 / hosts as u64).max(1) as u32;

    let (mut out, _) = tracer.span("kernels", |t| KernelValues {
        hold: timed(t, "sim.hold", || kernels::sched_hold(population, 2 * ops)),
        timers: timed(t, "sim.timers", || kernels::sched_timers(timers, ops)),
        hop: timed(t, "net.hop", || kernels::net_hop(cfg, pkts_per_sender)),
        hop_congested: timed(t, "net.hop_congested", || {
            kernels::net_hop_congested(cfg, pkts_per_sender).0
        }),
        clean: timed(t, "transport.clean", || {
            kernels::transport_channel(&clean_cfg, flow_bytes, ops / 3, None)
        }),
        lossy_sr: timed(t, "transport.lossy_sr", || {
            kernels::transport_channel(&sr_cfg, flow_bytes, ops / 3, Some(100))
        }),
        lossy_gbn: timed(t, "transport.lossy_gbn", || {
            kernels::transport_channel(&gbn_cfg, flow_bytes, ops / 3, Some(100))
        }),
        qp_setup: timed(t, "transport.qp_setup", || {
            kernels::qp_setup(&clean_cfg, flow_bytes, ops / 10)
        }),
        cc: timed(t, "transport.cc", || kernels::cc_per_ack(&clean_cfg, ops)),
        bitmap: timed(t, "rdma.bitmap", || kernels::rdma_bitmap(2 * ops)),
        receive_data: timed(t, "rdma.receive_data", || {
            kernels::rdma_receive_data(2 * ops)
        }),
        record: timed(t, "metrics.record", || {
            kernels::metrics_record(flow_bytes, cfg.mtu, ops / 2)
        }),
        driver: cfg.traffic.is_closed_loop().then(|| {
            timed(t, "workload.driver", || {
                kernels::driver_retire(cfg).expect("closed loop")
            })
        }),
        telemetry: None,
    });
    out.telemetry = telemetry_probe(tracer, cfg);
    out
}

/// Run one kernel inside a span that carries its op count. The span
/// covers the kernel's untimed set-up too; the cost metrics use the
/// kernel's own timing.
fn timed(t: &mut Tracer, name: &str, f: impl FnOnce() -> Measured) -> Measured {
    t.span_counted(name, |_| {
        let m = f();
        (m, m.ops)
    })
    .0
}

/// A short closed-loop cell run outside and inside the flight
/// recorder. Only the RPC workload has one: the probe is a scaled-down
/// copy of its first cell.
fn telemetry_probe(tracer: &mut Tracer, cfg: &ExperimentConfig) -> Option<TelemetryProbe> {
    let mut small = cfg.clone();
    let TrafficModel::RpcClosedLoop { ops_per_client, .. } = &mut small.traffic else {
        return None;
    };
    *ops_per_client = (*ops_per_client).min(40);
    let (_, outside) = tracer.span("telemetry.outside", |_| {
        std::hint::black_box(Simulation::new(small.clone()).run());
    });
    let ((_, chunk), inside) = tracer.span("telemetry.capture", |_| {
        irn_telemetry::capture(
            0,
            TraceFilter::all(),
            irn_telemetry::DEFAULT_CAPACITY,
            || {
                std::hint::black_box(Simulation::new(small.clone()).run());
            },
        )
    });
    Some(TelemetryProbe {
        slowdown_x: inside / outside,
        recorded: chunk.lines.len() as u64,
        dropped: chunk.dropped,
    })
}

/// The per-layer ledger of one traced pass: counts from the cells'
/// own results, costs from the kernels and spans, and each layer's
/// estimated share of the run (count × kernel cost ÷ run time). What
/// the kernels do not account for is `core.unattributed_share`.
fn ledger(cells: &[Cell], k: &KernelValues, spans: &[Span]) -> Vec<(String, f64)> {
    let sum =
        |f: &dyn Fn(&RunResult) -> u64| cells.iter().map(|c| f(&c.result)).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&RunResult) -> u64| {
        cells.iter().map(|c| f(&c.result)).max().unwrap_or(0) as f64
    };
    let run_s: f64 = cells.iter().map(|c| c.run_s).sum();
    let run_ns = run_s * 1e9;
    let events = sum(&|r| r.events);
    let sent = sum(&|r| r.transport.sent);
    let retransmitted = sum(&|r| r.transport.retransmitted);
    let delivered = sum(&|r| r.fabric.delivered_pkts);
    let drops = sum(&|r| r.fabric.buffer_drops + r.fabric.injected_drops);
    let us = |name: &str| total_s(spans, name) * 1e6;

    let hold = k.hold.ns_per_op();
    let timer = k.timers.ns_per_op();
    let sim_ns: f64 = cells
        .iter()
        .map(|c| {
            let s = &c.result.sched;
            let queue_events = c.result.events - s.qp_timer_events - s.nic_wake_events;
            queue_events as f64 * hold + (s.timer_arms + s.timer_cancels) as f64 * timer
        })
        .sum();
    let net_ns: f64 = cells
        .iter()
        .map(|c| {
            let per_event = if c.cfg.pfc {
                k.hop_congested.ns_per_op()
            } else {
                k.hop.ns_per_op()
            };
            c.result.sched.fabric_events as f64 * per_event
        })
        .sum();
    let transport_ns: f64 = cells
        .iter()
        .map(|c| {
            let recovery = TransportConfig::preset(c.cfg.transport, c.cfg.pfc).recovery;
            let per_pkt = if lossless(c) {
                k.clean.ns_per_op()
            } else if recovery == LossRecovery::SelectiveRepeat {
                k.lossy_sr.ns_per_op()
            } else {
                k.lossy_gbn.ns_per_op()
            };
            c.result.transport.sent as f64 * per_pkt
        })
        .sum();
    let flows = sum(&|r| r.memory.flows);
    let metrics_ns = flows * k.record.ns_per_op() + us("metrics.summary") * 1e3;
    let driver_ns = k.driver.map_or(0.0, Measured::ns_per_op);
    let workload_ns: f64 = cells
        .iter()
        .filter(|c| c.cfg.traffic.is_closed_loop())
        .map(|c| c.result.memory.flows as f64 * driver_ns)
        .fold(0.0, |a, b| a + b);
    let shares = [sim_ns, net_ns, transport_ns, metrics_ns, workload_ns].map(|ns| ns / run_ns);

    // Simulated ratios between the workload's IRN and RoCE cells, when
    // it has both: slowdown for open-loop cells, operation p99 for
    // closed-loop ones.
    let by_kind = |kind| cells.iter().find(|c| c.cfg.transport == kind);
    let (mut slowdown_ratio, mut op_p99_ratio) = (0.0, 0.0);
    if let (Some(irn), Some(roce)) = (by_kind(TransportKind::Irn), by_kind(TransportKind::Roce)) {
        match (&irn.result.app, &roce.result.app) {
            (Some(i), Some(r)) => {
                op_p99_ratio = r.percentile_latency(0.99) / i.percentile_latency(0.99)
            }
            _ => {
                slowdown_ratio = irn.result.summary.avg_slowdown / roce.result.summary.avg_slowdown
            }
        }
    }

    let t = k.telemetry.as_ref();
    let pairs: Vec<(&str, f64)> = vec![
        ("sim.events", events),
        ("sim.timer_arms", sum(&|r| r.sched.timer_arms)),
        ("sim.timer_cancels", sum(&|r| r.sched.timer_cancels)),
        ("sim.stale_reclaims", sum(&|r| r.sched.stale_timer_reclaims)),
        ("sim.past_clamps", sum(&|r| r.sched.past_clamps)),
        ("sim.hold_ns_per_op", hold),
        ("sim.timer_ns_per_op", timer),
        ("sim.est_share", shares[0]),
        ("net.fabric_events", sum(&|r| r.sched.fabric_events)),
        ("net.delivered_pkts", delivered),
        ("net.pkt_allocs", delivered + drops),
        ("net.pkt_pool_peak", max(&|r| r.memory.pkt_pool_pkts)),
        ("net.buffer_drops", sum(&|r| r.fabric.buffer_drops)),
        ("net.injected_drops", sum(&|r| r.fabric.injected_drops)),
        ("net.drop_ratio", drops / sent),
        ("net.pauses", sum(&|r| r.fabric.pauses)),
        ("net.ecn_marks", sum(&|r| r.fabric.ecn_marked)),
        ("net.hop_ns", k.hop.ns_per_op()),
        ("net.hop_congested_ns", k.hop_congested.ns_per_op()),
        ("net.tables_build_s", total_s(spans, "net.tables_build")),
        ("net.est_share", shares[1]),
        ("transport.sent", sent),
        (
            "transport.retransmitted",
            sum(&|r| r.transport.retransmitted),
        ),
        ("transport.useful_ratio", (sent - retransmitted) / sent),
        ("transport.nacks", sum(&|r| r.transport.nacks)),
        ("transport.timeouts", sum(&|r| r.transport.timeouts)),
        ("transport.cnps", sum(&|r| r.transport.cnps)),
        ("transport.clean_ns_per_pkt", k.clean.ns_per_op()),
        ("transport.lossy_sr_ns_per_pkt", k.lossy_sr.ns_per_op()),
        ("transport.lossy_gbn_ns_per_pkt", k.lossy_gbn.ns_per_op()),
        ("transport.qp_setup_ns", k.qp_setup.ns_per_op()),
        ("transport.cc_ns_per_ack", k.cc.ns_per_op()),
        ("transport.est_share", shares[2]),
        ("rdma.bitmap_ns_per_op", k.bitmap.ns_per_op()),
        ("rdma.receive_data_ns", k.receive_data.ns_per_op()),
        ("metrics.record_ns_per_flow", k.record.ns_per_op()),
        ("metrics.summary_us", us("metrics.summary")),
        ("metrics.hist_buckets", sum(&|r| r.memory.hist_buckets)),
        ("metrics.heap_bytes", sum(&|r| r.memory.metrics_bytes)),
        ("metrics.est_share", shares[3]),
        ("workload.flows", flows),
        (
            "workload.app_ops",
            sum(&|r| r.app.as_ref().map_or(0, |a| a.ops())),
        ),
        ("workload.generate_s", total_s(spans, "workload.generate")),
        ("workload.driver_ns_per_retire", driver_ns),
        ("workload.est_share", shares[4]),
        ("core.scenario_parse_us", us("core.scenario_parse")),
        ("core.sim_new_s", total_s(spans, "core.sim_new")),
        ("core.sim_run_s", run_s),
        ("core.events_per_s", events / run_s),
        ("core.ns_per_event", run_ns / events),
        ("core.flow_arrivals", sum(&|r| r.sched.flow_arrivals)),
        ("core.qp_timer_events", sum(&|r| r.sched.qp_timer_events)),
        ("core.nic_wake_events", sum(&|r| r.sched.nic_wake_events)),
        (
            "core.peak_flow_state_bytes",
            max(&|r| r.memory.peak_flow_state_bytes),
        ),
        (
            "core.bytes_per_flow",
            cells
                .iter()
                .map(|c| c.result.memory.bytes_per_flow())
                .fold(0.0, f64::max),
        ),
        ("core.sim_irn_over_roce_slowdown", slowdown_ratio),
        ("core.sim_op_p99_roce_over_irn", op_p99_ratio),
        ("core.unattributed_share", 1.0 - shares.iter().sum::<f64>()),
        ("harness.encode_work_us", us("harness.encode_work")),
        ("harness.encode_result_us", us("harness.encode_result")),
        ("harness.decode_result_us", us("harness.decode_result")),
        (
            "harness.result_frame_bytes",
            cells.iter().map(|c| c.frame_bytes).sum::<usize>() as f64,
        ),
        (
            "telemetry.capture_slowdown_x",
            t.map_or(0.0, |t| t.slowdown_x),
        ),
        (
            "telemetry.events_recorded",
            t.map_or(0.0, |t| t.recorded as f64),
        ),
        (
            "telemetry.events_dropped",
            t.map_or(0.0, |t| t.dropped as f64),
        ),
        ("bench.spans", spans.len() as f64),
    ];
    pairs.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;
    use irn_core::sim::Duration;
    use irn_core::TopologySpec;

    /// A toy traced pass over an IRN and a RoCE closed-loop cell: every
    /// kernel, probe and span the real pass has, at a few thousand ops.
    fn toy_pass() -> (Vec<(String, f64)>, Vec<Span>) {
        let dir = std::env::temp_dir().join(format!("irn-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut tracer = Tracer::new(true, Instant::now(), "toy");
        let mut cells = Vec::new();
        for (i, kind) in [TransportKind::Irn, TransportKind::Roce]
            .into_iter()
            .enumerate()
        {
            let mut cfg = ExperimentConfig {
                topology: TopologySpec::FatTree(4),
                traffic: TrafficModel::RpcClosedLoop {
                    clients: 2,
                    ops_per_client: 6,
                    window: 2,
                    request_bytes: 200,
                    response_bytes: 6_000,
                    think: Duration::micros(5),
                    fanout: 2,
                },
                ..ExperimentConfig::quick(1)
            }
            .with_transport(kind);
            cfg.loss_injection = 0.01;
            let file = dir.join(format!("cell-{i}.json"));
            let scenario = Scenario::from_config(format!("toy {i}"), cfg).unwrap();
            std::fs::write(&file, scenario.to_json_string()).unwrap();
            tracer.set_cell(i as u32);
            layer_probes_before(&mut tracer, &file).unwrap();
            let (cell, _) = tracer.span("cell", |t| {
                run_cell(t, Mode::Traced, i as u64, &file, Instant::now())
            });
            let cell = cell.unwrap().1.expect("traced passes run the cell");
            assert_eq!(cell.failures, Vec::<String>::new());
            assert!(cell.frame_bytes > 0);
            cells.push(cell);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        let kernel_values = run_kernels(&mut tracer, &cells, 3_000);
        let spans = tracer.into_spans();
        (ledger(&cells, &kernel_values, &spans), spans)
    }

    #[test]
    fn ledger_names_are_in_the_manifest_and_shares_sum_to_one() {
        let (layer, spans) = toy_pass();
        let get = |name: &str| {
            layer
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("ledger lacks {name}"))
                .1
        };
        for (name, value) in &layer {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not in BENCHMARK.json"
            );
            assert!(value.is_finite(), "{name} = {value}");
        }
        // What the child leaves out is what the coordinator or the
        // fleet adds; nothing else may be missing.
        let elsewhere = [
            "bench.trace_overhead_share",
            "bench.calib_ns",
            "core.sim_digest_pinned_match",
            "harness.thread_exec_overhead_share",
            "harness.pool_overhead_share",
            "harness.pool_idle_tail_s",
            "harness.retries",
        ];
        for m in &PER_LAYER {
            let here = layer.iter().any(|(n, _)| n == m.name);
            let there = elsewhere.contains(&m.name) || m.name.starts_with("experiments.");
            assert!(here != there, "{} reported here={here}", m.name);
        }
        let shares: f64 = ["sim", "net", "transport", "metrics", "workload"]
            .iter()
            .map(|l| get(&format!("{l}.est_share")))
            .sum();
        assert!((shares + get("core.unattributed_share") - 1.0).abs() < 1e-9);
        // Every kernel ran and was counted, and the closed-loop and
        // telemetry probes fired for this RPC workload.
        for name in [
            "sim.hold_ns_per_op",
            "sim.timer_ns_per_op",
            "net.hop_ns",
            "net.hop_congested_ns",
            "transport.clean_ns_per_pkt",
            "transport.lossy_sr_ns_per_pkt",
            "transport.lossy_gbn_ns_per_pkt",
            "transport.qp_setup_ns",
            "transport.cc_ns_per_ack",
            "rdma.bitmap_ns_per_op",
            "rdma.receive_data_ns",
            "metrics.record_ns_per_flow",
            "workload.driver_ns_per_retire",
            "telemetry.capture_slowdown_x",
            "telemetry.events_recorded",
            "core.sim_op_p99_roce_over_irn",
            "workload.app_ops",
        ] {
            assert!(get(name) > 0.0, "{name} = {}", get(name));
        }
        assert_eq!(get("workload.app_ops"), 24.0);
        assert_eq!(get("bench.spans"), spans.len() as f64);
        // Spans nest: each cell's layer calls sit under its `cell` root.
        let root = spans.iter().find(|s| s.name == "cell").unwrap();
        assert!(spans
            .iter()
            .any(|s| s.name == "core.sim_run" && s.parent == Some(root.id)));
        assert!(spans.iter().filter(|s| s.count > 1).count() >= 12);
    }
}
