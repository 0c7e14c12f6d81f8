//! The artifact table: every figure and table of the paper's
//! evaluation is one row of [`ARTIFACTS`].
//!
//! The evaluation is one matrix — {IRN, RoCE} × {PFC on, off} × {no CC,
//! Timely, DCQCN} on three metrics — and the appendix repeats one
//! layout (IRN absolute, IRN/IRN+PFC, IRN/RoCE+PFC) over seven
//! one-parameter sweeps. A row therefore says only what is particular
//! to its figure: the report header, which of the scale's repetition
//! counts applies, and the logical cells grouped by the rows they fold
//! into — written with `grid`, `sweep` and `app_loss`. Everything
//! else (the seed fan-out, the batch, the demux, the registry facts) is
//! derived from that by [`crate::plan::Plan`].
//!
//! Every metric row reports `mean` and — when more than one seed ran —
//! a `<metric>_ci95` companion column. Ratio rows (Figure 9, the
//! appendix tables) pair the IRN and RoCE runs **seed by seed** before
//! aggregating, so common workload noise differences out of the ratio.
//! No fold reads a clock: the paper's Tables 1–2 are NIC-hardware and
//! FPGA measurements a packet simulator cannot reproduce, §6.1's
//! accounting is `state-budget`, and host cost per module is the repo
//! benchmark's business (`BENCHMARK.json`).

use irn_core::net::Bandwidth;
use irn_core::sim::Duration;
use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind::{self, Irn, Roce};
use irn_core::workload::SizeDistribution::{HeavyTailed, Uniform500KbTo5Mb};
use irn_core::{AllreduceAlgo, ExperimentConfig, RunResult, Scenario, TopologySpec, TrafficModel};
use irn_harness::Stats;
use irn_rdma::state_budget::{bitmap_bits_for, irn_state_budget};

use crate::artifacts::Artifact;
use crate::plan::{Fold, Group};
use crate::report::Row;
use crate::scale::Scale;

// ---------------------------------------------------------------------
// Folds: a group's results → its report rows
// ---------------------------------------------------------------------

/// A named metric extracted from one run.
type Metric = (&'static str, fn(&RunResult) -> f64);

/// The three §4.1 headline metrics (times in milliseconds, as the
/// paper's figures report them).
const FCT_METRICS: [Metric; 3] = [
    ("avg_slowdown", |r| r.summary.avg_slowdown),
    ("avg_fct_ms", |r| r.summary.avg_fct.as_millis_f64()),
    ("p99_fct_ms", |r| r.summary.p99_fct.as_millis_f64()),
];

/// Closed-loop workloads report per-operation latency (the application
/// round trip the driver observed), not per-flow FCT: an op spans a
/// whole request/response (or iteration, or commit) chain, which is the
/// number an RPC or replication user actually sees.
const APP_METRICS: [Metric; 4] = [
    ("ops", |r| r.app.as_ref().map_or(0.0, |a| a.ops() as f64)),
    ("op_mean_ms", |r| {
        r.app
            .as_ref()
            .map_or(0.0, |a| a.mean_latency().as_millis_f64())
    }),
    ("op_p50_ms", |r| {
        r.app
            .as_ref()
            .map_or(0.0, |a| a.percentile_latency(0.50).as_millis_f64())
    }),
    ("op_p99_ms", |r| {
        r.app
            .as_ref()
            .map_or(0.0, |a| a.percentile_latency(0.99).as_millis_f64())
    }),
];

/// `f` over one cell's seed replicates.
fn stats(runs: &[RunResult], f: fn(&RunResult) -> f64) -> Stats {
    let values: Vec<f64> = runs.iter().map(f).collect();
    Stats::from_values(&values)
}

/// Seed-aligned ratio aggregate: `f(num_i) / f(den_i)` per seed, then
/// [`Stats`] over the per-seed ratios. Pairing by seed differences the
/// common workload realization out of the ratio.
fn ratio_stats(num: &[RunResult], den: &[RunResult], f: fn(&RunResult) -> f64) -> Stats {
    let ratios: Vec<f64> = num.iter().zip(den).map(|(a, b)| f(a) / f(b)).collect();
    Stats::from_values(&ratios)
}

/// One row: each metric's value from `stat`, as mean (± ci95 when more
/// than one seed ran).
fn row_of(label: String, metrics: &[Metric], stat: impl Fn(fn(&RunResult) -> f64) -> Stats) -> Row {
    metrics.iter().fold(Row::new(label), |row, (name, f)| {
        row.push_stats(name, &stat(*f))
    })
}

/// The common figure row: `metrics` of the group's one cell.
fn metric_row(label: &str, runs: &[&[RunResult]], metrics: &[Metric]) -> Vec<Row> {
    vec![row_of(label.to_string(), metrics, |f| stats(runs[0], f))]
}

/// The §4.1 headline metrics of one cell.
pub(crate) fn fct_row(label: &str, runs: &[&[RunResult]]) -> Vec<Row> {
    metric_row(label, runs, &FCT_METRICS)
}

/// Figure 7 reports average FCT only.
fn avg_fct_row(label: &str, runs: &[&[RunResult]]) -> Vec<Row> {
    metric_row(label, runs, &FCT_METRICS[1..2])
}

/// §4.4.3 adds the incast RCT to the headline metrics.
pub(crate) fn incast_row(label: &str, runs: &[&[RunResult]]) -> Vec<Row> {
    let rct: Metric = ("incast_rct_ms", |r| r.rct().as_millis_f64());
    let [slowdown, avg, p99] = FCT_METRICS;
    metric_row(label, runs, &[slowdown, avg, p99, rct])
}

/// Per-operation latency of one closed-loop cell.
pub(crate) fn app_row(label: &str, runs: &[&[RunResult]]) -> Vec<Row> {
    metric_row(label, runs, &APP_METRICS)
}

/// Figure 8: tail latency of single-packet messages. Percentiles are
/// computed per seed, then aggregated; seeds whose run produced no
/// single-packet messages are excluded from the aggregate, and the row
/// is dropped if no seed produced any.
fn tail_row(label: &str, runs: &[&[RunResult]]) -> Vec<Row> {
    let mut row = Row::new(label);
    for (name, q) in [("p90_ms", 0.90), ("p99_ms", 0.99), ("p99.9_ms", 0.999)] {
        let values: Vec<f64> = runs[0]
            .iter()
            .filter_map(|r| {
                let sp = r.metrics.single_packet_messages();
                (!sp.is_empty()).then(|| sp.percentile(q).as_millis_f64())
            })
            .collect();
        if !values.is_empty() {
            row = row.push_stats(name, &Stats::from_values(&values));
        }
    }
    if row.values.is_empty() {
        Vec::new()
    } else {
        vec![row]
    }
}

/// Figure 9: incast RCT of the group's first cell (IRN) over its second
/// (RoCE with PFC), paired seed by seed.
fn rct_ratio_row(label: &str, runs: &[&[RunResult]]) -> Vec<Row> {
    let ratio = ratio_stats(runs[0], runs[1], |r| r.rct().as_nanos() as f64);
    vec![Row::new(label).push_stats("rct_ratio_irn_over_roce", &ratio)]
}

/// The appendix-table layout over an {IRN, IRN+PFC, RoCE+PFC} triple:
/// IRN absolute, then the two seed-aligned ratios.
fn appendix_rows(key: &str, runs: &[&[RunResult]]) -> Vec<Row> {
    let irn = runs[0];
    let mut rows = vec![row_of(format!("{key} IRN"), &FCT_METRICS, |f| {
        stats(irn, f)
    })];
    for (suffix, denom) in [("IRN/IRN+PFC", runs[1]), ("IRN/RoCE+PFC", runs[2])] {
        rows.push(row_of(format!("{key} {suffix}"), &FCT_METRICS, |f| {
            ratio_stats(irn, denom, f)
        }));
    }
    rows
}

/// §6.1: the NIC state budget — pure accounting, no runs.
fn state_budget_rows(_: &str, _: &[&[RunResult]]) -> Vec<Row> {
    let b = irn_state_budget(bitmap_bits_for(110));
    let mut rows = vec![
        Row::new("per-QP")
            .push("state_bits", b.per_qp_state_bits as f64)
            .push("bitmap_bits", b.per_qp_bitmap_bits as f64)
            .push("per_side_bits", b.per_side_state_bits() as f64),
        Row::new("per-WQE").push("extra_bits", b.per_wqe_bits as f64),
        Row::new("shared").push("bytes", b.shared_bytes as f64),
    ];
    for (qps, wqes) in [(1000u64, 10_000u64), (2000, 20_000), (2000, 40_000)] {
        rows.push(
            Row::new(format!("{qps} QPs, {wqes} WQEs, 4MB cache"))
                .push("fraction", b.cache_fraction(qps, wqes, 4 << 20)),
        );
    }
    rows
}

// ---------------------------------------------------------------------
// Cells: the three shapes every artifact's matrix is written in
// ---------------------------------------------------------------------

/// One transport/PFC pairing with its display name. The paper never
/// sweeps transport and PFC independently — each compared configuration
/// is such a pair.
type Variant<'a> = (&'a str, TransportKind, bool);

const IRN: Variant = ("IRN", Irn, false);
const IRN_PFC: Variant = ("IRN + PFC", Irn, true);
const ROCE_PFC: Variant = ("RoCE (PFC)", Roce, true);
const ROCE_NO_PFC: Variant = ("RoCE no PFC", Roce, false);

const NO_CC: [CcKind; 1] = [CcKind::None];
const EXPLICIT_CCS: [CcKind; 2] = [CcKind::Timely, CcKind::Dcqcn];
const ALL_CCS: [CcKind; 3] = [CcKind::None, CcKind::Timely, CcKind::Dcqcn];

/// The figure-label suffix for a CC scheme: empty for [`CcKind::None`],
/// `" + Timely"` style otherwise (matches the paper's row labels).
fn cc_suffix(cc: CcKind) -> String {
    match cc {
        CcKind::None => String::new(),
        other => format!(" + {}", other.label()),
    }
}

/// One (transport, pfc, cc) cell over `base`. Panics if the config is
/// invalid: every caller builds it from literals in this file, so that
/// is a programming error, not user input.
fn cell(label: &str, base: &ExperimentConfig, t: TransportKind, pfc: bool, cc: CcKind) -> Scenario {
    let cfg = base.clone().with_transport(t).with_pfc(pfc).with_cc(cc);
    Scenario::from_config(label, cfg)
        .unwrap_or_else(|e| panic!("cell '{label}': invalid config: {e}"))
}

/// `variants` × `ccs` over `base`, cc outermost, one single-cell group
/// per combination, labelled like the paper's rows (variant name plus
/// [`cc_suffix`]).
fn grid(base: &ExperimentConfig, variants: &[Variant], ccs: &[CcKind], fold: Fold) -> Vec<Group> {
    let mut groups = Vec::new();
    for &cc in ccs {
        for &(name, t, pfc) in variants {
            let label = format!("{name}{}", cc_suffix(cc));
            groups.push(Group::of(cell(&label, base, t, pfc, cc), fold));
        }
    }
    groups
}

/// An appendix table: for each swept value (applied to the scale's
/// base config by `set`) and each CC scheme, the {IRN, IRN+PFC,
/// RoCE+PFC} triple that [`appendix_rows`] folds.
fn sweep<T: Copy>(
    scale: &Scale,
    values: &[T],
    label: impl Fn(T) -> String,
    set: impl Fn(&mut ExperimentConfig, T),
) -> Vec<Group> {
    let mut groups = Vec::new();
    for &value in values {
        let mut base = scale.base();
        set(&mut base, value);
        for cc in ALL_CCS {
            groups.push(Group {
                label: format!("{}{}", label(value), cc_suffix(cc)),
                cells: vec![
                    cell("irn", &base, Irn, false, cc),
                    cell("irn+pfc", &base, Irn, true, cc),
                    cell("roce+pfc", &base, Roce, true, cc),
                ],
                fold: appendix_rows,
            });
        }
    }
    groups
}

/// The closed-loop comparison matrix: each loss rate (clean, Figure
/// 10's 0.1%, an aggressive 1%) × {IRN, RoCE}, reporting per-op
/// latency. RoCE runs without PFC here because §4.1's RoCE-with-PFC
/// configuration disables timeouts (PFC is assumed to prevent loss), so
/// injected drops would be unrecoverable. Open-loop sweeps hold
/// arrivals fixed as the fabric degrades; closed-loop ops *wait* for
/// their predecessors, so transport-level recovery cost (selective
/// repeat vs go-back-N) compounds into op latency — that divergence is
/// the point of these artifacts.
fn app_loss(scale: &Scale, traffic: TrafficModel) -> Vec<Group> {
    let mut base = scale.base().with_traffic(traffic);
    let mut groups = Vec::new();
    for loss in [0.0, 0.001, 0.01] {
        base.loss_injection = loss;
        let pct = loss * 100.0;
        let (irn, roce) = (format!("IRN loss={pct}%"), format!("RoCE loss={pct}%"));
        let variants = [(irn.as_str(), Irn, false), (roce.as_str(), Roce, false)];
        groups.extend(grid(&base, &variants, &NO_CC, app_row));
    }
    groups
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

/// The repetition count of the Poisson artifacts: `--seeds`.
const SEEDS: fn(&Scale) -> usize = |s| s.seeds;

/// Every artifact, in presentation order (the order `repro all` prints).
pub static ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "fig1",
        id: "Figure 1",
        title: "Comparing IRN and RoCE's performance",
        paper: "IRN is 2.8-3.7x better than RoCE across all three metrics",
        reps: SEEDS,
        groups: |s| grid(&s.base(), &[IRN, ROCE_PFC], &NO_CC, fct_row),
    },
    Artifact {
        name: "fig2",
        id: "Figure 2",
        title: "Impact of enabling PFC with IRN",
        paper: "PFC degrades IRN by ~1.5-2x (congestion spreading); IRN does not need PFC",
        reps: SEEDS,
        groups: |s| grid(&s.base(), &[IRN_PFC, IRN], &NO_CC, fct_row),
    },
    Artifact {
        name: "fig3",
        id: "Figure 3",
        title: "Impact of disabling PFC with RoCE",
        paper: "disabling PFC degrades RoCE by 1.5-3x (go-back-N retransmission storms)",
        reps: SEEDS,
        groups: |s| grid(&s.base(), &[ROCE_PFC, ROCE_NO_PFC], &NO_CC, fct_row),
    },
    Artifact {
        name: "fig4",
        id: "Figure 4",
        title: "IRN vs RoCE with Timely and DCQCN",
        paper: "IRN remains 1.5-2.2x better than RoCE under both CC schemes",
        reps: SEEDS,
        groups: |s| grid(&s.base(), &[IRN, ROCE_PFC], &EXPLICIT_CCS, fct_row),
    },
    Artifact {
        name: "fig5",
        id: "Figure 5",
        title: "Impact of enabling PFC with IRN under Timely/DCQCN",
        paper: "largely unaffected: improvement <1%, worst degradation ~3.4%",
        reps: SEEDS,
        groups: |s| grid(&s.base(), &[IRN_PFC, IRN], &EXPLICIT_CCS, fct_row),
    },
    Artifact {
        name: "fig6",
        id: "Figure 6",
        title: "Impact of disabling PFC with RoCE under Timely/DCQCN",
        paper: "RoCE still needs PFC: enabling it improves 1.35-3.5x (no-PFC+DCQCN = Resilient RoCE)",
        reps: SEEDS,
        groups: |s| grid(&s.base(), &[ROCE_PFC, ROCE_NO_PFC], &EXPLICIT_CCS, fct_row),
    },
    Artifact {
        name: "fig7",
        id: "Figure 7",
        title: "Factor analysis of IRN (avg FCT)",
        paper: "go-back-N hurts more than removing BDP-FC; both hurt vs full IRN",
        reps: SEEDS,
        groups: |s| {
            let gbn = ("IRN w/ GBN", TransportKind::IrnGoBackN, false);
            let no_bdp_fc = ("IRN w/o BDP-FC", TransportKind::IrnNoBdpFc, false);
            grid(&s.base(), &[IRN, gbn, no_bdp_fc], &ALL_CCS, avg_fct_row)
        },
    },
    Artifact {
        name: "fig8",
        id: "Figure 8",
        title: "Tail latency of single-packet messages (ms)",
        paper: "IRN (no PFC) has the best tail across all CC schemes (RTO_low recovery)",
        reps: SEEDS,
        groups: |s| grid(&s.base(), &[ROCE_PFC, IRN_PFC, IRN], &ALL_CCS, tail_row),
    },
    Artifact {
        name: "fig9",
        id: "Figure 9",
        title: "Incast: RCT ratio IRN/RoCE vs fan-in M",
        paper: "ratio stays within ~2.5% of 1.0 (incast without cross-traffic is PFC's best case)",
        // Incast averaging predates the Poisson replication and keeps
        // its own repetition count (paper: up to 100).
        reps: |s| s.incast_reps,
        groups: |s| {
            let base = s.base();
            let ms: &[usize] = if base.topology.hosts() >= 54 {
                &[10, 20, 30, 40, 50]
            } else {
                &[4, 8, 12]
            };
            let mut groups = Vec::new();
            for cc in [CcKind::None, CcKind::Dcqcn, CcKind::Timely] {
                for &m in ms {
                    let incast = base.clone().with_traffic(TrafficModel::Incast {
                        m,
                        total_bytes: s.incast_bytes,
                    });
                    groups.push(Group {
                        label: format!("M={m}{}", cc_suffix(cc)),
                        cells: vec![
                            cell("incast", &incast, Irn, false, cc),
                            cell("incast", &incast, Roce, true, cc),
                        ],
                        fold: rct_ratio_row,
                    });
                }
            }
            groups
        },
    },
    Artifact {
        name: "incast-cross",
        id: "§4.4.3",
        title: "Incast (M striped) with 50%-load cross-traffic",
        paper: "IRN RCT 4-30% lower than RoCE; background flows 32-87% better with IRN",
        reps: SEEDS,
        groups: |s| {
            let base = s.base();
            let m = if base.topology.hosts() >= 54 { 30 } else { 8 };
            let traffic =
                TrafficModel::incast_with_cross(m, s.incast_bytes, 0.5, HeavyTailed, s.flows / 2);
            let base = base.with_traffic(traffic);
            grid(&base, &[IRN, ROCE_PFC], &ALL_CCS, incast_row)
        },
    },
    Artifact {
        name: "fig10",
        id: "Figure 10",
        title: "Resilient RoCE vs IRN",
        paper: "IRN, even without CC, significantly beats Resilient RoCE",
        reps: SEEDS,
        groups: |s| {
            let resilient = cell("Resilient RoCE", &s.base(), Roce, false, CcKind::Dcqcn);
            let mut groups = vec![Group::of(resilient, fct_row)];
            groups.extend(grid(&s.base(), &[IRN], &NO_CC, fct_row));
            groups
        },
    },
    Artifact {
        name: "fig11",
        id: "Figure 11",
        title: "iWARP's transport (TCP stack) vs IRN",
        paper: "IRN: ~21% better slowdown (no slow start), comparable FCTs; IRN+AIMD beats iWARP",
        reps: SEEDS,
        groups: |s| {
            let iwarp = ("iWARP (TCP)", TransportKind::IwarpTcp, false);
            let mut groups = grid(&s.base(), &[iwarp, IRN], &NO_CC, fct_row);
            groups.extend(grid(&s.base(), &[IRN], &[CcKind::Aimd], fct_row));
            groups
        },
    },
    Artifact {
        name: "fig12",
        id: "Figure 12",
        title: "IRN worst-case overheads (+16B header/packet, 2us retx fetch)",
        paper: "overheads cost only 4-7%; IRN stays 35-63% better than RoCE+PFC",
        reps: SEEDS,
        groups: |s| {
            let base = s.base();
            let mut worst = base.clone();
            worst.extra_header = 16;
            worst.retx_fetch_delay = Duration::micros(2);
            let mut groups = Vec::new();
            for cc in ALL_CCS {
                groups.extend(grid(&base, &[ROCE_PFC, IRN], &[cc], fct_row));
                groups.extend(grid(&worst, &[("IRN worst-case", Irn, false)], &[cc], fct_row));
            }
            groups
        },
    },
    Artifact {
        name: "table3",
        id: "Table 3",
        title: "Robustness to link utilization (30/50/70/90%)",
        paper: "higher load -> PFC hurts more; ratios fall with load",
        reps: SEEDS,
        groups: |s| {
            sweep(
                s,
                &[0.3, 0.5, 0.7, 0.9],
                |load| format!("{}%", (load * 100.0) as u32),
                |b, load| {
                    b.traffic = TrafficModel::Poisson {
                        load,
                        sizes: HeavyTailed,
                        flow_count: s.flows,
                    }
                },
            )
        },
    },
    Artifact {
        name: "table4",
        id: "Table 4",
        title: "Robustness to link bandwidth (10/40/100 Gbps)",
        paper: "higher bandwidth -> relative cost of loss recovery rises, gap narrows",
        reps: SEEDS,
        groups: |s| {
            sweep(
                s,
                &[10u64, 40, 100],
                |gbps| format!("{gbps}G"),
                |b, gbps| {
                    b.bandwidth = Bandwidth::from_gbps(gbps);
                    // Buffers stay 2x the (bandwidth-dependent) BDP as in §4.1.
                    let diameter = 6;
                    b.buffer_bytes = 2 * b.bdp_bytes(diameter).max(10_000);
                },
            )
        },
    },
    Artifact {
        name: "table5",
        id: "Table 5",
        title: "Robustness to fat-tree scale",
        paper: "trends stay roughly constant as the topology scales out",
        reps: SEEDS,
        groups: |s| {
            let ks: &[usize] = if s.fat_tree_k >= 6 {
                &[6, 8, 10]
            } else {
                &[4, 6]
            };
            sweep(
                s,
                ks,
                |k| format!("k={k}"),
                |b, k| b.topology = TopologySpec::FatTree(k),
            )
        },
    },
    Artifact {
        name: "table6",
        id: "Table 6",
        title: "Robustness to workload (heavy-tailed vs uniform 500KB-5MB)",
        paper: "key trends hold for the uniform storage-style workload too",
        reps: SEEDS,
        groups: |s| {
            // Uniform flows are ~16x larger on average; scale the count
            // down to keep run times comparable at equal load.
            let workloads = [
                ("heavy", HeavyTailed, s.flows),
                ("uniform", Uniform500KbTo5Mb, (s.flows / 8).max(60)),
            ];
            sweep(
                s,
                &workloads,
                |(name, _, _)| name.to_string(),
                |b, (_, sizes, flow_count)| {
                    b.traffic = TrafficModel::Poisson {
                        load: 0.7,
                        sizes,
                        flow_count,
                    }
                },
            )
        },
    },
    Artifact {
        name: "table7",
        id: "Table 7",
        title: "Robustness to per-port buffer size",
        paper: "smaller buffers -> more pauses, PFC hurts more; larger -> differences shrink",
        reps: SEEDS,
        groups: |s| {
            sweep(
                s,
                &[60u64, 120, 240, 480],
                |kb| format!("{kb}KB"),
                |b, kb| b.buffer_bytes = kb * 1000,
            )
        },
    },
    Artifact {
        name: "table8",
        id: "Table 8",
        title: "Robustness to RTO_high over-estimation",
        paper: "IRN is insensitive to RTO_high (320/640/1280 us)",
        reps: SEEDS,
        groups: |s| {
            sweep(
                s,
                &[320u64, 640, 1280],
                |us| format!("{us}us"),
                |b, us| b.rto_high = Some(Duration::micros(us)),
            )
        },
    },
    Artifact {
        name: "table9",
        id: "Table 9",
        title: "Robustness to N (RTO_low in-flight threshold)",
        paper: "IRN is insensitive to N (3/10/15)",
        reps: SEEDS,
        groups: |s| {
            sweep(
                s,
                &[3u32, 10, 15],
                |n| format!("N={n}"),
                |b, n| b.rto_low_n = n,
            )
        },
    },
    Artifact {
        name: "state-budget",
        id: "§6.1",
        title: "IRN additional NIC state",
        paper: "52 bits/side, 160 bits/QP + five 128-bit bitmaps (640b), 3B/WQE, 10B shared; 3-10% of cache",
        reps: SEEDS,
        groups: |_| {
            vec![Group {
                label: String::new(),
                cells: Vec::new(),
                fold: state_budget_rows,
            }]
        },
    },
    // Closed-loop application workloads (traffic models beyond the
    // paper's open-loop sweeps), each through `app_loss`.
    Artifact {
        name: "rpc-loss",
        id: "rpc-loss",
        title: "Closed-loop RPC op latency: loss rate x {IRN, RoCE}",
        paper: "closed-loop op latency diverges with loss: go-back-N recovery stalls the window",
        reps: SEEDS,
        groups: |s| {
            app_loss(
                s,
                TrafficModel::RpcClosedLoop {
                    clients: 8,
                    ops_per_client: (s.flows / 32).max(2) as u32,
                    window: 2,
                    request_bytes: 40_000,
                    response_bytes: 1_000,
                    think: Duration::micros(50),
                    fanout: 2,
                },
            )
        },
    },
    // Phase barriers make every iteration as slow as its slowest flow,
    // so a single retransmission storm shows up directly in the
    // iteration time.
    Artifact {
        name: "allreduce-loss",
        id: "allreduce-loss",
        title: "Ring allreduce iteration latency: loss rate x {IRN, RoCE}",
        paper: "phase barriers amplify tail flows; selective repeat keeps iterations tight",
        reps: SEEDS,
        groups: |s| {
            app_loss(
                s,
                TrafficModel::Allreduce {
                    algorithm: AllreduceAlgo::Ring,
                    participants: 8,
                    bytes: 1 << 20,
                    iterations: (s.flows / 112).max(2) as u32,
                },
            )
        },
    },
    Artifact {
        name: "replicate-loss",
        id: "replicate-loss",
        title: "Leader replication commit latency: loss rate x {IRN, RoCE}",
        paper: "quorum acks hide one slow follower; loss beyond that lands on the commit path",
        reps: SEEDS,
        groups: |s| {
            app_loss(
                s,
                TrafficModel::LeaderReplicate {
                    clients: 4,
                    followers: 3,
                    quorum: 2,
                    ops_per_client: (s.flows / 32).max(2) as u32,
                    request_bytes: 20_000,
                    ack_bytes: 64,
                    think: Duration::micros(50),
                },
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_cartesian_in_declared_order() {
        let base = ExperimentConfig::quick(50);
        let groups = grid(
            &base,
            &[IRN, ROCE_PFC],
            &[CcKind::None, CcKind::Timely],
            fct_row,
        );
        let labels: Vec<&str> = groups.iter().map(|g| g.label.as_str()).collect();
        assert_eq!(
            labels,
            ["IRN", "RoCE (PFC)", "IRN + Timely", "RoCE (PFC) + Timely"]
        );
        let cells: Vec<&Scenario> = groups.iter().flat_map(|g| &g.cells).collect();
        assert_eq!(cells.len(), 4, "one cell per group");
        assert_eq!(cells[1].name(), "RoCE (PFC)");
        assert_eq!(cells[1].config().transport, Roce);
        assert!(cells[1].config().pfc);
        assert_eq!(cells[2].config().cc, CcKind::Timely);
    }

    #[test]
    #[should_panic(expected = "cell 'bad': invalid config")]
    fn a_misconfigured_literal_cell_panics() {
        let mut base = ExperimentConfig::quick(50);
        base.mtu = 0;
        let _ = cell("bad", &base, Irn, false, CcKind::None);
    }
}
