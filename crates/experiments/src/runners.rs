//! One runner per figure/table of the paper's evaluation.
//!
//! Every runner expresses its experiment matrix as a
//! [`Plan`]: a batch of [`Cell`]s plus a deferred assembly step that
//! folds the results into a [`Report`]. Poisson-workload artifacts fan
//! every logical cell out over [`Scale::seeds`] seed-shifted replicates
//! (stride [`SEED_STRIDE`], matching Figure 9's incast averaging), so
//! each reported metric row carries `mean` and — when more than one
//! seed ran — a `<metric>_ci95` companion column. Ratio rows (Figure 9,
//! the appendix tables) pair IRN and RoCE runs **seed by seed** before
//! aggregating, so common workload noise differences out of the ratio.
//!
//! Plans from several artifacts can be spliced into one global batch
//! (see [`crate::artifacts::run_artifacts`]); results come back in
//! submission order, which keeps report assembly — and therefore the
//! rendered output — byte-identical at any job count. No runner reads
//! a clock: the paper's Tables 1–2 are NIC-hardware and FPGA
//! measurements a packet simulator cannot reproduce, §6.1's accounting
//! is [`state_budget`], and host cost per module is the repo
//! benchmark's business (`BENCHMARK.json`).

use irn_core::sim::Duration;
use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, RunResult, TrafficModel};
use irn_harness::sweep::cc_suffix;
use irn_harness::{Cell, Replicate, ReplicateResult, ReplicateSet, Stats, SweepGrid, Variant};
use irn_rdma::state_budget::{bitmap_bits_for, irn_state_budget};

use crate::plan::Plan;
use crate::report::{Report, Row};
use crate::scale::Scale;

/// Seed stride between replicates of one cell. Strided (rather than
/// consecutive) seeds keep replicate seed sets disjoint from the small
/// integers used as explicit seeds elsewhere.
pub const SEED_STRIDE: u64 = 101;

/// A named metric extracted from one run.
pub(crate) type Metric = (&'static str, fn(&RunResult) -> f64);

/// The three §4.1 headline metrics (times in milliseconds, as the
/// paper's figures report them).
pub(crate) const FCT_METRICS: [Metric; 3] = [
    ("avg_slowdown", |r| r.summary.avg_slowdown),
    ("avg_fct_ms", |r| r.summary.avg_fct.as_millis_f64()),
    ("p99_fct_ms", |r| r.summary.p99_fct.as_millis_f64()),
];

/// Figure 7 reports average FCT only.
const AVG_FCT_METRIC: [Metric; 1] = [("avg_fct_ms", |r| r.summary.avg_fct.as_millis_f64())];

/// §4.4.3 adds the incast RCT to the headline metrics.
pub(crate) const INCAST_METRICS: [Metric; 4] = [
    ("avg_slowdown", |r| r.summary.avg_slowdown),
    ("avg_fct_ms", |r| r.summary.avg_fct.as_millis_f64()),
    ("p99_fct_ms", |r| r.summary.p99_fct.as_millis_f64()),
    ("incast_rct_ms", |r| r.rct().as_millis_f64()),
];

/// Closed-loop workloads report per-operation latency (the application
/// round trip the driver observed), not per-flow FCT: an op spans a
/// whole request/response (or iteration, or commit) chain, which is the
/// number an RPC or replication user actually sees.
pub(crate) const APP_METRICS: [Metric; 4] = [
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

/// Fan each logical cell out over the scale's seed set (the cell's own
/// seed is the base of the strided set).
fn replicate_cells(cells: Vec<Cell>, scale: Scale) -> ReplicateSet {
    ReplicateSet::new(
        cells
            .into_iter()
            .map(|c| {
                let base_seed = c.config().seed;
                Replicate::strided(c, base_seed, scale.seeds, SEED_STRIDE)
            })
            .collect(),
    )
}

/// The common figure shape: one row per logical cell, each metric
/// aggregated over the seed replicates as mean (± ci95 when n > 1).
fn metrics_plan(rep: Report, cells: Vec<Cell>, scale: Scale, metrics: &'static [Metric]) -> Plan {
    let set = replicate_cells(cells, scale);
    let flat = set.cells();
    Plan::new(flat, move |results| {
        let mut rep = rep;
        for rr in set.collect(results) {
            let mut row = Row::new(rr.label.clone());
            for (name, f) in metrics {
                row = row.push_stats(name, &rr.stats(*f));
            }
            rep.add(row);
        }
        rep
    })
}

/// Seed-aligned ratio aggregate: `f(num_i) / f(den_i)` per seed, then
/// [`Stats`] over the per-seed ratios. Pairing by seed differences the
/// common workload realization out of the ratio — exactly the pairing
/// Figure 9 uses for IRN/RoCE.
fn ratio_stats(num: &ReplicateResult, den: &ReplicateResult, f: fn(&RunResult) -> f64) -> Stats {
    let ratios: Vec<f64> = num
        .runs
        .iter()
        .zip(&den.runs)
        .map(|((sa, a), (sb, b))| {
            debug_assert_eq!(sa, sb, "ratio replicates must align by seed");
            f(a) / f(b)
        })
        .collect();
    Stats::from_values(&ratios)
}

/// The `IRN` variant (selective repeat, no PFC).
fn irn() -> Variant {
    Variant::new("IRN", TransportKind::Irn, false)
}

/// The `RoCE (PFC)` variant (go-back-N behind a lossless fabric).
fn roce_pfc() -> Variant {
    Variant::new("RoCE (PFC)", TransportKind::Roce, true)
}

/// Figure 1: IRN (without PFC) vs RoCE (with PFC), no explicit CC.
pub fn fig1(scale: Scale) -> Plan {
    let rep = Report::new(
        "Figure 1",
        "Comparing IRN and RoCE's performance",
        "IRN is 2.8-3.7x better than RoCE across all three metrics",
    );
    let cells = SweepGrid::new(scale.base())
        .variants([irn(), roce_pfc()])
        .build();
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

/// Figure 2: impact of enabling PFC with IRN.
pub fn fig2(scale: Scale) -> Plan {
    let rep = Report::new(
        "Figure 2",
        "Impact of enabling PFC with IRN",
        "PFC degrades IRN by ~1.5-2x (congestion spreading); IRN does not need PFC",
    );
    let cells = SweepGrid::new(scale.base())
        .variants([Variant::new("IRN + PFC", TransportKind::Irn, true), irn()])
        .build();
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

/// Figure 3: impact of disabling PFC with RoCE.
pub fn fig3(scale: Scale) -> Plan {
    let rep = Report::new(
        "Figure 3",
        "Impact of disabling PFC with RoCE",
        "disabling PFC degrades RoCE by 1.5-3x (go-back-N retransmission storms)",
    );
    let cells = SweepGrid::new(scale.base())
        .variants([
            roce_pfc(),
            Variant::new("RoCE no PFC", TransportKind::Roce, false),
        ])
        .build();
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

/// Figure 4: IRN vs RoCE with explicit congestion control.
pub fn fig4(scale: Scale) -> Plan {
    let rep = Report::new(
        "Figure 4",
        "IRN vs RoCE with Timely and DCQCN",
        "IRN remains 1.5-2.2x better than RoCE under both CC schemes",
    );
    let cells = SweepGrid::new(scale.base())
        .variants([irn(), roce_pfc()])
        .ccs([CcKind::Timely, CcKind::Dcqcn])
        .build();
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

/// Figure 5: IRN with/without PFC under explicit congestion control.
pub fn fig5(scale: Scale) -> Plan {
    let rep = Report::new(
        "Figure 5",
        "Impact of enabling PFC with IRN under Timely/DCQCN",
        "largely unaffected: improvement <1%, worst degradation ~3.4%",
    );
    let cells = SweepGrid::new(scale.base())
        .variants([Variant::new("IRN + PFC", TransportKind::Irn, true), irn()])
        .ccs([CcKind::Timely, CcKind::Dcqcn])
        .build();
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

/// Figure 6: RoCE with/without PFC under explicit congestion control.
pub fn fig6(scale: Scale) -> Plan {
    let rep = Report::new(
        "Figure 6",
        "Impact of disabling PFC with RoCE under Timely/DCQCN",
        "RoCE still needs PFC: enabling it improves 1.35-3.5x (no-PFC+DCQCN = Resilient RoCE)",
    );
    let cells = SweepGrid::new(scale.base())
        .variants([
            roce_pfc(),
            Variant::new("RoCE no PFC", TransportKind::Roce, false),
        ])
        .ccs([CcKind::Timely, CcKind::Dcqcn])
        .build();
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

/// Figure 7: factor analysis — IRN vs IRN+go-back-N vs IRN−BDP-FC.
pub fn fig7(scale: Scale) -> Plan {
    let rep = Report::new(
        "Figure 7",
        "Factor analysis of IRN (avg FCT)",
        "go-back-N hurts more than removing BDP-FC; both hurt vs full IRN",
    );
    let cells = SweepGrid::new(scale.base())
        .variants([
            irn(),
            Variant::new("IRN w/ GBN", TransportKind::IrnGoBackN, false),
            Variant::new("IRN w/o BDP-FC", TransportKind::IrnNoBdpFc, false),
        ])
        .ccs([CcKind::None, CcKind::Timely, CcKind::Dcqcn])
        .build();
    metrics_plan(rep, cells, scale, &AVG_FCT_METRIC)
}

/// Figure 8: tail latency CDF (90-99.9%ile) of single-packet messages.
/// Percentiles are computed per seed, then aggregated; seeds whose run
/// produced no single-packet messages are excluded from that row's
/// aggregate (and the row is dropped if no seed produced any).
pub fn fig8(scale: Scale) -> Plan {
    let rep = Report::new(
        "Figure 8",
        "Tail latency of single-packet messages (ms)",
        "IRN (no PFC) has the best tail across all CC schemes (RTO_low recovery)",
    );
    let cells = SweepGrid::new(scale.base())
        .variants([
            roce_pfc(),
            Variant::new("IRN + PFC", TransportKind::Irn, true),
            irn(),
        ])
        .ccs([CcKind::None, CcKind::Timely, CcKind::Dcqcn])
        .build();
    let set = replicate_cells(cells, scale);
    let flat = set.cells();
    Plan::new(flat, move |results| {
        let mut rep = rep;
        for rr in set.collect(results) {
            let mut row = Row::new(rr.label.clone());
            let mut any = false;
            for (name, q) in [("p90_ms", 0.90), ("p99_ms", 0.99), ("p99.9_ms", 0.999)] {
                let values: Vec<f64> = rr
                    .runs
                    .iter()
                    .filter_map(|(_, r)| {
                        let sp = r.metrics.single_packet_messages();
                        (!sp.is_empty()).then(|| sp.percentile_fct(q).as_millis_f64())
                    })
                    .collect();
                if values.is_empty() {
                    continue;
                }
                any = true;
                row = row.push_stats(name, &Stats::from_values(&values));
            }
            if any {
                rep.add(row);
            }
        }
        rep
    })
}

/// Figure 9: incast RCT ratio (IRN without PFC over RoCE with PFC) for
/// varying fan-in M, averaged over [`Scale::incast_reps`] seed-aligned
/// replicate pairs.
pub fn fig9(scale: Scale) -> Plan {
    let base = scale.base();
    let hosts = base.topology.hosts();
    let ms: Vec<usize> = if hosts >= 54 {
        vec![10, 20, 30, 40, 50]
    } else {
        vec![4, 8, 12]
    };
    let rep = Report::new(
        "Figure 9",
        "Incast: RCT ratio IRN/RoCE vs fan-in M",
        "ratio stays within ~2.5% of 1.0 (incast without cross-traffic is PFC's best case)",
    );

    // Pair an IRN replicate with a RoCE replicate per (cc, M); the
    // ReplicateSet merges every per-seed cell into one flat batch.
    let mut labels = Vec::new();
    let mut reps = Vec::new();
    for cc in [CcKind::None, CcKind::Dcqcn, CcKind::Timely] {
        for &m in &ms {
            let wl = TrafficModel::Incast {
                m,
                total_bytes: scale.incast_bytes,
            };
            let fanout = |t, pfc| {
                Replicate::strided(
                    Cell::tpc("incast", &base.clone().with_traffic(wl.clone()), t, pfc, cc),
                    base.seed,
                    scale.incast_reps,
                    SEED_STRIDE,
                )
            };
            labels.push(format!("M={m}{}", cc_suffix(cc)));
            reps.push(fanout(TransportKind::Irn, false));
            reps.push(fanout(TransportKind::Roce, true));
        }
    }
    let set = ReplicateSet::new(reps);
    let flat = set.cells();
    Plan::new(flat, move |results| {
        let mut rep = rep;
        let collected = set.collect(results);
        for (label, pair) in labels.iter().zip(collected.chunks_exact(2)) {
            let stats = ratio_stats(&pair[0], &pair[1], |r| r.rct().as_nanos() as f64);
            rep.add(Row::new(label.clone()).push_stats("rct_ratio_irn_over_roce", &stats));
        }
        rep
    })
}

/// §4.4.3 (text): incast with cross-traffic.
pub fn incast_cross(scale: Scale) -> Plan {
    let base = scale.base();
    let hosts = base.topology.hosts();
    let m = if hosts >= 54 { 30 } else { 8 };
    let rep = Report::new(
        "§4.4.3",
        "Incast (M striped) with 50%-load cross-traffic",
        "IRN RCT 4-30% lower than RoCE; background flows 32-87% better with IRN",
    );
    let mut cells = Vec::new();
    for cc in [CcKind::None, CcKind::Timely, CcKind::Dcqcn] {
        let wl = TrafficModel::incast_with_cross(
            m,
            scale.incast_bytes,
            0.5,
            SizeDistribution::HeavyTailed,
            scale.flows / 2,
        );
        let with_wl = base.clone().with_traffic(wl);
        cells.push(Cell::tpc(
            format!("IRN{}", cc_suffix(cc)),
            &with_wl,
            TransportKind::Irn,
            false,
            cc,
        ));
        cells.push(Cell::tpc(
            format!("RoCE (PFC){}", cc_suffix(cc)),
            &with_wl,
            TransportKind::Roce,
            true,
            cc,
        ));
    }
    metrics_plan(rep, cells, scale, &INCAST_METRICS)
}

/// Figure 10: Resilient RoCE (RoCE + DCQCN, no PFC) vs IRN (no CC).
pub fn fig10(scale: Scale) -> Plan {
    let base = scale.base();
    let rep = Report::new(
        "Figure 10",
        "Resilient RoCE vs IRN",
        "IRN, even without CC, significantly beats Resilient RoCE",
    );
    let cells = vec![
        Cell::tpc(
            "Resilient RoCE",
            &base,
            TransportKind::Roce,
            false,
            CcKind::Dcqcn,
        ),
        Cell::tpc("IRN", &base, TransportKind::Irn, false, CcKind::None),
    ];
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

/// Figure 11: iWARP (full TCP stack) vs IRN.
pub fn fig11(scale: Scale) -> Plan {
    let base = scale.base();
    let rep = Report::new(
        "Figure 11",
        "iWARP's transport (TCP stack) vs IRN",
        "IRN: ~21% better slowdown (no slow start), comparable FCTs; IRN+AIMD beats iWARP",
    );
    let cells = vec![
        Cell::tpc(
            "iWARP (TCP)",
            &base,
            TransportKind::IwarpTcp,
            false,
            CcKind::None,
        ),
        Cell::tpc("IRN", &base, TransportKind::Irn, false, CcKind::None),
        Cell::tpc("IRN + AIMD", &base, TransportKind::Irn, false, CcKind::Aimd),
    ];
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

/// Figure 12: IRN with worst-case implementation overheads.
pub fn fig12(scale: Scale) -> Plan {
    let base = scale.base();
    let mut worst = base.clone();
    worst.extra_header = 16;
    worst.retx_fetch_delay = Duration::micros(2);
    let rep = Report::new(
        "Figure 12",
        "IRN worst-case overheads (+16B header/packet, 2us retx fetch)",
        "overheads cost only 4-7%; IRN stays 35-63% better than RoCE+PFC",
    );
    let mut cells = Vec::new();
    for cc in [CcKind::None, CcKind::Timely, CcKind::Dcqcn] {
        cells.push(Cell::tpc(
            format!("RoCE (PFC){}", cc_suffix(cc)),
            &base,
            TransportKind::Roce,
            true,
            cc,
        ));
        cells.push(Cell::tpc(
            format!("IRN{}", cc_suffix(cc)),
            &base,
            TransportKind::Irn,
            false,
            cc,
        ));
        cells.push(Cell::tpc(
            format!("IRN worst-case{}", cc_suffix(cc)),
            &worst,
            TransportKind::Irn,
            false,
            cc,
        ));
    }
    metrics_plan(rep, cells, scale, &FCT_METRICS)
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

const APPENDIX_CCS: [CcKind; 3] = [CcKind::None, CcKind::Timely, CcKind::Dcqcn];

/// The appendix-table layout: IRN absolute + two ratios, per CC scheme,
/// across a sweep of variant base configs. Every per-seed cell of the
/// whole table goes to the harness as a single batch; absolute rows
/// aggregate per metric over seeds, ratio rows pair the numerator and
/// denominator runs seed by seed (see [`ratio_stats`]).
fn appendix_plan(rep: Report, bases: Vec<(String, ExperimentConfig)>, scale: Scale) -> Plan {
    let mut keys = Vec::new();
    let mut reps = Vec::new();
    for (variant, base) in &bases {
        for cc in APPENDIX_CCS {
            keys.push(format!("{variant}{}", cc_suffix(cc)));
            for (label, t, pfc) in [
                ("irn", TransportKind::Irn, false),
                ("irn+pfc", TransportKind::Irn, true),
                ("roce+pfc", TransportKind::Roce, true),
            ] {
                reps.push(Replicate::strided(
                    Cell::tpc(label, base, t, pfc, cc),
                    base.seed,
                    scale.seeds,
                    SEED_STRIDE,
                ));
            }
        }
    }
    let set = ReplicateSet::new(reps);
    let flat = set.cells();
    Plan::new(flat, move |results| {
        let mut rep = rep;
        let collected = set.collect(results);
        for (key, chunk) in keys.iter().zip(collected.chunks_exact(3)) {
            let (irn, irn_pfc, roce_pfc) = (&chunk[0], &chunk[1], &chunk[2]);
            let mut row = Row::new(format!("{key} IRN"));
            for (name, f) in &FCT_METRICS {
                row = row.push_stats(name, &irn.stats(*f));
            }
            rep.add(row);
            for (suffix, denom) in [("IRN/IRN+PFC", irn_pfc), ("IRN/RoCE+PFC", roce_pfc)] {
                let mut row = Row::new(format!("{key} {suffix}"));
                for (name, f) in &FCT_METRICS {
                    row = row.push_stats(name, &ratio_stats(irn, denom, *f));
                }
                rep.add(row);
            }
        }
        rep
    })
}

/// Table 3: link-utilization sweep (30-90%).
pub fn table3(scale: Scale) -> Plan {
    let rep = Report::new(
        "Table 3",
        "Robustness to link utilization (30/50/70/90%)",
        "higher load -> PFC hurts more; ratios fall with load",
    );
    let bases: Vec<(String, ExperimentConfig)> = [0.3, 0.5, 0.7, 0.9]
        .iter()
        .map(|&load| {
            let mut base = scale.base();
            base.traffic = TrafficModel::Poisson {
                load,
                sizes: SizeDistribution::HeavyTailed,
                flow_count: scale.flows,
            };
            (format!("{}%", (load * 100.0) as u32), base)
        })
        .collect();
    appendix_plan(rep, bases, scale)
}

/// Table 4: bandwidth sweep (10/40/100 Gbps).
pub fn table4(scale: Scale) -> Plan {
    let rep = Report::new(
        "Table 4",
        "Robustness to link bandwidth (10/40/100 Gbps)",
        "higher bandwidth -> relative cost of loss recovery rises, gap narrows",
    );
    let bases: Vec<(String, ExperimentConfig)> = [10u64, 40, 100]
        .iter()
        .map(|&gbps| {
            let mut base = scale.base();
            base.bandwidth = irn_core::net::Bandwidth::from_gbps(gbps);
            // Buffers stay 2x the (bandwidth-dependent) BDP as in §4.1.
            let diameter = 6;
            base.buffer_bytes = 2 * base.bdp_bytes(diameter).max(10_000);
            (format!("{gbps}G"), base)
        })
        .collect();
    appendix_plan(rep, bases, scale)
}

/// Table 5: topology scale sweep.
pub fn table5(scale: Scale) -> Plan {
    let rep = Report::new(
        "Table 5",
        "Robustness to fat-tree scale",
        "trends stay roughly constant as the topology scales out",
    );
    let ks: Vec<usize> = if scale.fat_tree_k >= 6 {
        vec![6, 8, 10]
    } else {
        vec![4, 6]
    };
    let bases: Vec<(String, ExperimentConfig)> = ks
        .iter()
        .map(|&k| {
            let mut base = scale.base();
            base.topology = irn_core::TopologySpec::FatTree(k);
            (format!("k={k}"), base)
        })
        .collect();
    appendix_plan(rep, bases, scale)
}

/// Table 6: workload-pattern sweep.
pub fn table6(scale: Scale) -> Plan {
    let rep = Report::new(
        "Table 6",
        "Robustness to workload (heavy-tailed vs uniform 500KB-5MB)",
        "key trends hold for the uniform storage-style workload too",
    );
    let bases: Vec<(String, ExperimentConfig)> = [
        ("heavy", SizeDistribution::HeavyTailed),
        ("uniform", SizeDistribution::Uniform500KbTo5Mb),
    ]
    .iter()
    .map(|&(label, sizes)| {
        let mut base = scale.base();
        // Uniform flows are ~16x larger on average; scale the count down
        // to keep run times comparable at equal load.
        let flows = if label == "uniform" {
            (scale.flows / 8).max(60)
        } else {
            scale.flows
        };
        base.traffic = TrafficModel::Poisson {
            load: 0.7,
            sizes,
            flow_count: flows,
        };
        (label.to_string(), base)
    })
    .collect();
    appendix_plan(rep, bases, scale)
}

/// Table 7: buffer-size sweep (60-480 KB per port).
pub fn table7(scale: Scale) -> Plan {
    let rep = Report::new(
        "Table 7",
        "Robustness to per-port buffer size",
        "smaller buffers -> more pauses, PFC hurts more; larger -> differences shrink",
    );
    let bases: Vec<(String, ExperimentConfig)> = [60u64, 120, 240, 480]
        .iter()
        .map(|&kb| {
            let mut base = scale.base();
            base.buffer_bytes = kb * 1000;
            (format!("{kb}KB"), base)
        })
        .collect();
    appendix_plan(rep, bases, scale)
}

/// Table 8: RTO_high sweep (1x/2x/4x of ~320 µs).
pub fn table8(scale: Scale) -> Plan {
    let rep = Report::new(
        "Table 8",
        "Robustness to RTO_high over-estimation",
        "IRN is insensitive to RTO_high (320/640/1280 us)",
    );
    let bases: Vec<(String, ExperimentConfig)> = [1u64, 2, 4]
        .iter()
        .map(|&mult| {
            let mut base = scale.base();
            base.rto_high = Some(Duration::micros(320 * mult));
            (format!("{}us", 320 * mult), base)
        })
        .collect();
    appendix_plan(rep, bases, scale)
}

/// Table 9: N (RTO_low threshold) sweep.
pub fn table9(scale: Scale) -> Plan {
    let rep = Report::new(
        "Table 9",
        "Robustness to N (RTO_low in-flight threshold)",
        "IRN is insensitive to N (3/10/15)",
    );
    let bases: Vec<(String, ExperimentConfig)> = [3u32, 10, 15]
        .iter()
        .map(|&n| {
            let mut base = scale.base();
            base.rto_low_n = n;
            (format!("N={n}"), base)
        })
        .collect();
    appendix_plan(rep, bases, scale)
}

// ---------------------------------------------------------------------
// Closed-loop application artifacts
// ---------------------------------------------------------------------

/// Loss rates for the closed-loop loss × transport sweeps: clean,
/// Figure 10's 0.1%, and an aggressive 1%.
const APP_LOSS_RATES: [f64; 3] = [0.0, 0.001, 0.01];

/// The closed-loop comparison matrix: each loss rate × {IRN, RoCE},
/// both lossy-mode (no PFC), one row per cell, reporting per-op
/// latency. RoCE runs without PFC here because §4.1's RoCE-with-PFC
/// configuration disables timeouts (PFC is assumed to prevent loss),
/// so injected drops would be unrecoverable. Open-loop sweeps hold
/// arrivals fixed as the fabric degrades; closed-loop ops *wait* for
/// their predecessors, so transport-level recovery cost (selective
/// repeat vs go-back-N) compounds into op latency — that divergence
/// is the point of these artifacts.
fn app_loss_plan(rep: Report, base: ExperimentConfig, scale: Scale) -> Plan {
    let mut cells = Vec::new();
    for &loss in &APP_LOSS_RATES {
        let mut cfg = base.clone();
        cfg.loss_injection = loss;
        let pct = loss * 100.0;
        cells.push(Cell::tpc(
            format!("IRN loss={pct}%"),
            &cfg,
            TransportKind::Irn,
            false,
            CcKind::None,
        ));
        cells.push(Cell::tpc(
            format!("RoCE loss={pct}%"),
            &cfg,
            TransportKind::Roce,
            false,
            CcKind::None,
        ));
    }
    metrics_plan(rep, cells, scale, &APP_METRICS)
}

/// `rpc-loss`: closed-loop RPC (fanout 2, window 2) under the loss ×
/// transport sweep.
pub fn rpc_loss(scale: Scale) -> Plan {
    let rep = Report::new(
        "rpc-loss",
        "Closed-loop RPC op latency: loss rate x {IRN, RoCE}",
        "closed-loop op latency diverges with loss: go-back-N recovery stalls the window",
    );
    let mut base = scale.base();
    base.traffic = TrafficModel::RpcClosedLoop {
        clients: 8,
        ops_per_client: (scale.flows / 32).max(2) as u32,
        window: 2,
        request_bytes: 40_000,
        response_bytes: 1_000,
        think: Duration::micros(50),
        fanout: 2,
    };
    app_loss_plan(rep, base, scale)
}

/// `allreduce-loss`: ring allreduce iterations under the loss ×
/// transport sweep. Phase barriers make every iteration as slow as its
/// slowest flow, so a single retransmission storm shows up directly in
/// the iteration time.
pub fn allreduce_loss(scale: Scale) -> Plan {
    let rep = Report::new(
        "allreduce-loss",
        "Ring allreduce iteration latency: loss rate x {IRN, RoCE}",
        "phase barriers amplify tail flows; selective repeat keeps iterations tight",
    );
    let mut base = scale.base();
    base.traffic = TrafficModel::Allreduce {
        algorithm: irn_core::AllreduceAlgo::Ring,
        participants: 8,
        bytes: 1 << 20,
        iterations: (scale.flows / 112).max(2) as u32,
    };
    app_loss_plan(rep, base, scale)
}

/// `replicate-loss`: leader/quorum replication commits under the loss ×
/// transport sweep.
pub fn replicate_loss(scale: Scale) -> Plan {
    let rep = Report::new(
        "replicate-loss",
        "Leader replication commit latency: loss rate x {IRN, RoCE}",
        "quorum acks hide one slow follower; loss beyond that lands on the commit path",
    );
    let mut base = scale.base();
    base.traffic = TrafficModel::LeaderReplicate {
        clients: 4,
        followers: 3,
        quorum: 2,
        ops_per_client: (scale.flows / 32).max(2) as u32,
        request_bytes: 20_000,
        ack_bytes: 64,
        think: Duration::micros(50),
    };
    app_loss_plan(rep, base, scale)
}

/// §6.1: the NIC state budget as its own printable report — pure
/// accounting, so the plan has no cells and ignores the scale.
pub fn state_budget(_scale: Scale) -> Plan {
    let mut rep = Report::new(
        "§6.1",
        "IRN additional NIC state",
        "52 bits/side, 160 bits/QP + five 128-bit bitmaps (640b), 3B/WQE, 10B shared; 3-10% of cache",
    );
    let b = irn_state_budget(bitmap_bits_for(110));
    rep.add(
        Row::new("per-QP")
            .push("state_bits", b.per_qp_state_bits as f64)
            .push("bitmap_bits", b.per_qp_bitmap_bits as f64)
            .push("per_side_bits", b.per_side_state_bits() as f64),
    );
    rep.add(Row::new("per-WQE").push("extra_bits", b.per_wqe_bits as f64));
    rep.add(Row::new("shared").push("bytes", b.shared_bytes as f64));
    for (qps, wqes) in [(1000u64, 10_000u64), (2000, 20_000), (2000, 40_000)] {
        rep.add(
            Row::new(format!("{qps} QPs, {wqes} WQEs, 4MB cache"))
                .push("fraction", b.cache_fraction(qps, wqes, 4 << 20)),
        );
    }
    Plan::new(Vec::new(), move |_| rep)
}
