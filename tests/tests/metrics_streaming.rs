//! The accuracy-contract differential suite for the streaming metrics
//! vertical (`irn-metrics`): random flow populations are folded into
//! the fixed-memory [`MetricsCollector`] *and* into an exact
//! record-vector reference, and every reported number must be either
//! bit-identical (the documented exact paths) or within the documented
//! quantile bound ([`QUANTILE_RELATIVE_ERROR`]). A second tier pins the
//! executor invariant: the streaming state serializes byte-identically
//! at `--jobs 1`, `--jobs 8`, and across a 3-worker TCP fleet.

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, Scenario, TrafficModel};
use irn_harness::{Executor, PoolConfig, ThreadExecutor, WorkerPool, WorkerSpec};
use irn_metrics::{
    FlowRecord, LogHistogram, MetricsCollector, MAX_RELATIVE_ERROR, QUANTILE_RELATIVE_ERROR,
};
use irn_sim::{Duration, Time};
use proptest::prelude::*;
use serde::Serialize;

// ---------------------------------------------------------------------
// The exact-vector reference: the semantics of the pre-streaming
// implementation, kept here as the oracle the collector is diffed
// against.
// ---------------------------------------------------------------------

/// What the old record-vector collector computed.
struct ExactReference {
    fcts_ns: Vec<u64>,
    slowdowns: Vec<f64>,
    slowdown_sum: f64,
    fct_sum_ns: u64,
    first_start_ns: u64,
    last_finish_ns: u64,
}

impl ExactReference {
    fn new(records: &[FlowRecord]) -> ExactReference {
        let mut fcts_ns: Vec<u64> = records.iter().map(|r| r.fct().as_nanos()).collect();
        let mut slowdowns: Vec<f64> = records.iter().map(|r| r.slowdown()).collect();
        // Record-order sums first (the collector folds in record
        // order, so bit-exactness is against this order).
        let slowdown_sum = slowdowns.iter().sum();
        let fct_sum_ns = fcts_ns.iter().fold(0u64, |a, &b| a.saturating_add(b));
        fcts_ns.sort_unstable();
        slowdowns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ExactReference {
            fcts_ns,
            slowdowns,
            slowdown_sum,
            fct_sum_ns,
            first_start_ns: records.iter().map(|r| r.start.as_nanos()).min().unwrap(),
            last_finish_ns: records.iter().map(|r| r.finish.as_nanos()).max().unwrap(),
        }
    }

    /// The old nearest-rank index (same formula the collector's
    /// histograms use on exact counts).
    fn rank(q: f64, n: usize) -> usize {
        (((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1)
    }

    fn percentile_fct_ns(&self, q: f64) -> u64 {
        self.fcts_ns[ExactReference::rank(q, self.fcts_ns.len())]
    }

    fn percentile_slowdown(&self, q: f64) -> f64 {
        self.slowdowns[ExactReference::rank(q, self.slowdowns.len())]
    }
}

/// The raw per-flow tuple the strategy generates:
/// `(fct_ns, start_ns, ideal_divisor, packets)`. The vendored proptest
/// subset has no `prop_map`, so [`records_from`] builds the
/// [`FlowRecord`]s inside the test body.
type RawFlow = (u64, u64, u64, u32);

/// Strategy for a random flow population's raw tuples.
#[allow(clippy::type_complexity)]
fn arb_rows(
    max_len: usize,
) -> proptest::collection::VecStrategy<(
    std::ops::Range<u64>,
    std::ops::Range<u64>,
    std::ops::Range<u64>,
    std::ops::Range<u32>,
)> {
    proptest::collection::vec(
        (
            1u64..2_000_000_000_000, // fct span: 1 ns .. ~33 min
            0u64..1_000_000_000_000, // start time
            1u64..101,               // ideal = fct / divisor, so slowdown ≈ divisor ≥ 1
            1u32..400,               // packets (1 ⇒ the Figure 8 sub-population)
        ),
        1..max_len,
    )
}

/// Records with the simulator's invariants: positive FCT, ideal ≤ FCT
/// (slowdown ≥ 1).
fn records_from(rows: &[RawFlow]) -> Vec<FlowRecord> {
    rows.iter()
        .enumerate()
        .map(|(i, &(fct_ns, start_ns, divisor, packets))| {
            let start = Time::from_nanos(start_ns);
            FlowRecord {
                flow: i as u32,
                bytes: packets as u64 * 1000,
                packets,
                start,
                finish: start + Duration::nanos(fct_ns),
                ideal: Duration::nanos((fct_ns / divisor).max(1)),
            }
        })
        .collect()
}

fn collect(records: &[FlowRecord]) -> MetricsCollector {
    let mut c = MetricsCollector::new();
    for r in records {
        c.record(*r);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The heart of the accuracy contract: every exact path is
    /// bit-identical to the record-vector reference, and every interior
    /// quantile is within [`QUANTILE_RELATIVE_ERROR`] of the exact
    /// nearest-rank value.
    #[test]
    fn streaming_collector_matches_exact_vector_reference(
        rows in arb_rows(400),
        q in 0.001f64..0.999,
    ) {
        let records = records_from(&rows);
        let c = collect(&records);
        let exact = ExactReference::new(&records);
        let n = records.len();

        // Exact paths: bit-identical, no tolerance.
        prop_assert_eq!(c.len(), n);
        prop_assert_eq!(
            c.summary().avg_slowdown.to_bits(),
            (exact.slowdown_sum / n as f64).to_bits()
        );
        // The historical average: f64 division of the exact nanosecond
        // sum, rounded (the collector keeps that formula bit-for-bit).
        prop_assert_eq!(
            c.summary().avg_fct.as_nanos(),
            (exact.fct_sum_ns as f64 / n as f64).round() as u64
        );
        prop_assert_eq!(
            c.rct().as_nanos(),
            exact.last_finish_ns - exact.first_start_ns
        );
        // Quantile boundaries are the exact minimum and maximum.
        prop_assert_eq!(c.percentile_fct(0.0).as_nanos(), exact.fcts_ns[0]);
        prop_assert_eq!(c.percentile_fct(1.0).as_nanos(), exact.fcts_ns[n - 1]);
        prop_assert_eq!(c.percentile_slowdown(0.0).to_bits(), exact.slowdowns[0].to_bits());
        prop_assert_eq!(c.percentile_slowdown(1.0).to_bits(), exact.slowdowns[n - 1].to_bits());

        // Bucketed paths: within the documented bound at fixed and
        // generated quantiles.
        for q in [0.5, 0.9, 0.99, 0.999, q] {
            let exact_fct = exact.percentile_fct_ns(q) as f64;
            let got_fct = c.percentile_fct(q).as_nanos() as f64;
            prop_assert!(
                (got_fct - exact_fct).abs() <= exact_fct * QUANTILE_RELATIVE_ERROR,
                "FCT q={q}: streaming {got_fct} vs exact {exact_fct} exceeds the contract"
            );
            let exact_sd = exact.percentile_slowdown(q);
            let got_sd = c.percentile_slowdown(q);
            prop_assert!(
                (got_sd - exact_sd).abs() <= exact_sd * QUANTILE_RELATIVE_ERROR,
                "slowdown q={q}: streaming {got_sd} vs exact {exact_sd} exceeds the contract"
            );
        }
    }

    /// Histogram bucketing invariants for arbitrary u64 values: a value
    /// always lands in a bucket whose bounds contain it, and the
    /// reported representative is within [`MAX_RELATIVE_ERROR`].
    #[test]
    fn histogram_buckets_contain_their_values(v in 0u64..u64::MAX) {
        let idx = LogHistogram::bucket_index(v);
        let (lo, hi) = LogHistogram::bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
        let rep = LogHistogram::representative(idx);
        prop_assert!(
            (rep as f64 - v as f64).abs() <= v as f64 * MAX_RELATIVE_ERROR,
            "representative {rep} of {v} exceeds the bucket error bound"
        );
    }

    /// The wire form round-trips the full streaming state bit-exactly —
    /// this is what lets a remote worker ship its collector without
    /// perturbing byte-identical envelopes.
    #[test]
    fn collector_round_trips_bit_exactly(rows in arb_rows(200)) {
        let c = collect(&records_from(&rows));
        let json = serde::json::to_string(&c);
        let back: MetricsCollector =
            serde::from_json_str(&json).expect("collector JSON round-trips");
        prop_assert_eq!(back, c);
    }
}

// ---------------------------------------------------------------------
// Executor differentials: the streaming state must not observe how the
// batch was scheduled.
// ---------------------------------------------------------------------

/// A small mixed batch exercising every streaming population: Poisson
/// heavy-tailed (single- and multi-packet flows), an incast (the
/// secondary collector), and a lossy cell (retransmission paths).
fn differential_batch() -> Vec<Scenario> {
    let mut cells = vec![
        Scenario::from_config(
            "poisson-irn",
            ExperimentConfig::quick(60)
                .with_transport(TransportKind::Irn)
                .with_pfc(false)
                .with_seed(3),
        )
        .unwrap(),
        Scenario::from_config(
            "poisson-roce",
            ExperimentConfig::quick(50)
                .with_transport(TransportKind::Roce)
                .with_pfc(true)
                .with_cc(CcKind::Dcqcn)
                .with_seed(5),
        )
        .unwrap(),
    ];
    let mut incast = ExperimentConfig::quick(40);
    incast.traffic =
        TrafficModel::incast_with_cross(6, 600_000, 0.5, SizeDistribution::HeavyTailed, 40);
    cells.push(Scenario::from_config("incast", incast.with_seed(7)).unwrap());
    let mut lossy = ExperimentConfig::quick(40);
    lossy.loss_injection = 0.01;
    cells.push(
        Scenario::from_config(
            "lossy",
            lossy
                .with_transport(TransportKind::Irn)
                .with_pfc(false)
                .with_seed(9),
        )
        .unwrap(),
    );
    cells
}

/// Serialize outcomes to the same JSON trees the artifact envelopes are
/// built from (collector wire form included).
fn result_trees(outcomes: &[irn_harness::CellOutcome]) -> Vec<serde::json::Value> {
    outcomes.iter().map(|o| o.result.to_json()).collect()
}

#[test]
fn streaming_state_is_identical_at_jobs_1_and_8() {
    let cells = differential_batch();
    let a = ThreadExecutor::new(1).run_cells(&cells, None).unwrap();
    let b = ThreadExecutor::new(8).run_cells(&cells, None).unwrap();
    assert_eq!(
        result_trees(&a),
        result_trees(&b),
        "streaming metrics/memory diverged between --jobs 1 and --jobs 8"
    );
    for o in &a {
        // The gauge rides along every result and must be populated.
        assert!(o.result.memory.flows > 0, "memory gauge lost its flows");
        assert!(o.result.memory.peak_bytes() > 0);
    }
}

#[test]
fn committed_k16_scenario_meets_the_memory_diet_budget() {
    // The PR's acceptance gauge: the committed k=16 fat-tree scenario
    // (1024 hosts, 20k flows) must complete with peak bytes/flow at or
    // under 10% of what the pre-refactor per-flow records cost — the
    // slab high-water mark plus histogram heap, amortized over flows.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../examples/memory-diet-k16.json"
    );
    let text = std::fs::read_to_string(path).expect("committed example scenario");
    let scenario = irn_core::Scenario::from_json_str(&text).expect("scenario parses");
    let r = irn_integration::run(scenario.into_config());
    assert_eq!(r.summary.flows, 20_000, "every flow must complete");
    // Per-flow bytes of the pre-slab engine layout: a retained
    // `FlowRecord` plus `Option<sender>` / `Option<receiver>` /
    // `Option<TimerId>` slots sized to the total flow count. A recorded
    // number, not a `size_of` sum, so the budget does not move when
    // today's types do.
    const LEGACY_PER_FLOW_BYTES: u64 = 840;
    let legacy = LEGACY_PER_FLOW_BYTES as f64;
    let bpf = r.memory.bytes_per_flow();
    assert!(
        bpf <= 0.10 * legacy,
        "memory diet broken: {bpf:.1} bytes/flow exceeds 10% of the \
         {legacy:.0}-byte legacy per-flow record"
    );
    assert!(bpf > 0.0, "gauge must be populated");
}

#[test]
fn streaming_state_survives_a_3_worker_tcp_fleet_byte_identically() {
    // Three in-process `worker::serve` loops over real TCP sockets
    // stand in for `repro worker --listen`: the collector's wire form
    // must cross the work-v1 protocol bit-exactly, so a fleet of any
    // size reassembles envelopes byte-identical to the in-process run.
    let cells = differential_batch();
    let reference = ThreadExecutor::new(2).run_cells(&cells, None).unwrap();

    let mut specs = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..3 {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        specs.push(WorkerSpec::Connect { addr });
        servers.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("coordinator connects");
            let reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let _ =
                irn_harness::worker::serve(reader, &stream, irn_harness::WorkerOptions::default());
        }));
    }
    let mut pool = WorkerPool::new(PoolConfig::new(specs));
    let got = pool.run_cells(&cells, None).unwrap();
    assert_eq!(
        result_trees(&got),
        result_trees(&reference),
        "3-worker fleet diverged from the in-process streaming state"
    );
    drop(pool);
    for s in servers {
        let _ = s.join();
    }
}
