//! # irn-metrics — streaming performance metrics (§4.1)
//!
//! "We primarily look at three metrics: (i) average slowdown, where
//! slowdown for a flow is its completion time divided by the time it
//! would have taken to traverse its path at line rate in an empty
//! network, (ii) average flow completion time (FCT), (iii) 99%ile or
//! tail FCT."
//!
//! [`FlowRecord`] captures one completed flow *transiently*:
//! [`MetricsCollector`] folds each record into fixed-memory streaming
//! state — exact scalar accumulators plus log-bucketed
//! [`LogHistogram`]s — instead of retaining a vector of per-flow
//! records. Memory is O(buckets), not O(flows), which is what lets
//! million-flow sweeps fit in a per-cell budget. A value stream with
//! an exact count, min and max beside its histogram is a
//! [`Distribution`]: the FCTs, the single-packet population and
//! closed-loop operation latencies ([`AppMetrics`]) are one each.
//!
//! ## Accuracy contract
//!
//! Every number a collector reports is either **exact** or
//! **bucketed**, and the split is part of the public contract
//! (documented per method, mirrored in `docs/SCHEMA.md`):
//!
//! - **Exact** (bit-identical to the former record-vector
//!   implementation): flow count, `avg_slowdown` (f64 sum in record
//!   order), `avg_fct` (u64 nanosecond sum), min/max FCT, min/max
//!   slowdown, [`MetricsCollector::rct`], and the `q = 0.0` / `q = 1.0`
//!   quantile boundaries.
//! - **Bucketed**: interior quantiles (`0 < q < 1`) come from a
//!   base-2 log histogram with [`SUB_BUCKETS`] sub-buckets per octave.
//!   The bucket *value* error is ≤ [`MAX_RELATIVE_ERROR`] (1/128 ≈
//!   0.78%); slowdown quantiles add a fixed-point quantization of
//!   1/[`SLOWDOWN_SCALE`] absolute, so every quantile is within
//!   [`QUANTILE_RELATIVE_ERROR`] (1%) of the exact nearest-rank value.
//!   The *rank* itself is exact — the histogram loses value
//!   resolution, never counts.
//!
//! The collector also exposes the single-packet-message population
//! Figure 8 reads its tail from and the incast request-completion time
//! (RCT, §4.4.3).
//!
//! ## Wire forms
//!
//! Each wire form is a private derived struct, read strictly at every
//! depth; `{"flows":0}` and `{"ops":0,"phases":n}` are its `Option`
//! members left out. By hand is only what a type cannot say: bucket
//! indices in range and once each, positive counts, totals matching the
//! count, and the optional members present exactly when it is positive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use irn_sim::{Duration, Time};
use serde::json::Value;
use serde::{DeError, Deserialize, Serialize};

/// One completed flow's measurements — the *input* to the collector,
/// not a stored object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Flow index.
    pub flow: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Number of data packets.
    pub packets: u32,
    /// Arrival (start) time.
    pub start: Time,
    /// Completion time (last payload byte delivered in order, §4.1).
    pub finish: Time,
    /// Ideal completion time for this flow's path at line rate in an
    /// empty network (the slowdown denominator).
    pub ideal: Duration,
}

impl FlowRecord {
    /// Flow completion time.
    pub fn fct(&self) -> Duration {
        self.finish.since(self.start)
    }

    /// Slowdown = FCT / ideal (≥ 1 in a well-behaved simulation).
    pub fn slowdown(&self) -> f64 {
        self.fct() / self.ideal
    }
}

/// Ideal (empty-network, line-rate) completion time for a flow:
/// store-and-forward serialization of the full wire size at line rate on
/// the bottleneck (all links equal here), plus per-hop propagation, plus
/// per-switch store-and-forward of one packet (§4.1's definition of
/// "traversing its path at line rate").
pub fn ideal_fct(
    wire_bytes: u64,
    one_packet_wire_bytes: u64,
    hops: usize,
    line_rate_bps: f64,
    prop_per_hop: Duration,
) -> Duration {
    let ser_all = Duration::from_secs_f64(wire_bytes as f64 * 8.0 / line_rate_bps);
    let ser_one = Duration::from_secs_f64(one_packet_wire_bytes as f64 * 8.0 / line_rate_bps);
    // The first packet cuts through `hops` links (serialized per hop);
    // the remaining bytes stream behind it at line rate.
    let pipeline = prop_per_hop * hops as u64 + ser_one * (hops.saturating_sub(1)) as u64;
    ser_all + pipeline
}

// ---------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------

/// Sub-buckets per octave (power-of-two value range).
pub const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6; // log2(SUB_BUCKETS)

/// Worst-case relative error of a bucket's representative value:
/// buckets in octave `o` have width `2^o` starting at `64·2^o`, and the
/// midpoint representative is off by at most half a width → 1/128.
/// Values below [`SUB_BUCKETS`] are stored exactly.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 128.0;

/// Fixed-point scale for slowdown values before bucketing: slowdowns
/// are multiplied by this, rounded, and stored as integers. For
/// slowdowns ≥ 1 the quantization error is ≤ 1/2048 relative.
pub const SLOWDOWN_SCALE: f64 = 1024.0;

/// The documented end-to-end bound on any interior quantile reported by
/// the collector, relative to the exact nearest-rank value over the
/// full record population: bucket error (≤ 1/128) plus, for slowdowns,
/// fixed-point quantization (≤ 1/2048). Stated as 1% with margin.
pub const QUANTILE_RELATIVE_ERROR: f64 = 0.01;

/// Heap bytes per allocated histogram bucket slot (one `u64` count).
const BUCKET_BYTES: u64 = std::mem::size_of::<u64>() as u64;

/// Number of addressable buckets: 64 exact values plus 58 octaves
/// (octave of the MSB positions 6..=63) × 64 sub-buckets.
pub const MAX_BUCKETS: usize = 64 + 58 * 64;

/// A base-2 logarithmic histogram over `u64` values with exact counts
/// and bounded value error (HdrHistogram-style bucketing).
///
/// Values `< 64` index their own exact bucket; a value with its most
/// significant bit at position `m ≥ 6` lands in octave `m − 6`, which
/// is split into [`SUB_BUCKETS`] equal sub-buckets of width `2^(m−6)`.
/// Bucket math is integer-only, so histograms are bit-identical across
/// runs, job counts, and worker fleets.
///
/// The counts vector grows lazily to the highest index actually used
/// (at most [`MAX_BUCKETS`] ≈ 3.8k slots, ~30 KB), independent of how
/// many values are recorded — that is the fixed-memory guarantee.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// Bucket index for a value.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let octave = msb - SUB_BITS;
            let sub = (v >> octave) - SUB_BUCKETS;
            SUB_BUCKETS as usize * (1 + octave as usize) + sub as usize
        }
    }

    /// Inclusive `[lo, hi]` value range of a bucket.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < MAX_BUCKETS, "bucket index out of range");
        if index < SUB_BUCKETS as usize {
            (index as u64, index as u64)
        } else {
            let octave = ((index - SUB_BUCKETS as usize) / SUB_BUCKETS as usize) as u32;
            let sub = ((index - SUB_BUCKETS as usize) % SUB_BUCKETS as usize) as u64;
            let lo = (SUB_BUCKETS + sub) << octave;
            let width = 1u64 << octave;
            (lo, lo + (width - 1))
        }
    }

    /// The value reported for a bucket: the range midpoint (exact for
    /// octave-0 and sub-64 buckets), within [`MAX_RELATIVE_ERROR`] of
    /// any member.
    pub fn representative(index: usize) -> u64 {
        let (lo, hi) = LogHistogram::bucket_bounds(index);
        lo + (hi - lo) / 2
    }

    /// Count one value.
    pub fn record(&mut self, v: u64) {
        let idx = LogHistogram::bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// The representative value at nearest-rank quantile `q`; `None`
    /// when empty.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return None;
        }
        let rank = nearest_rank(q, self.total as usize) as u64;
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return Some(LogHistogram::representative(idx));
            }
        }
        unreachable!("cumulative count must reach total")
    }

    /// Allocated bucket slots (the memory-gauge unit).
    pub fn allocated_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Non-empty buckets as `(index, count)` in index order.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

/// [`LogHistogram`]'s wire form: the total plus `[index, count]` pairs
/// for the non-empty buckets, in index order.
#[derive(Serialize, Deserialize)]
struct HistogramWire {
    total: u64,
    buckets: Vec<(u64, u64)>,
}

impl Serialize for LogHistogram {
    fn to_json(&self) -> Value {
        HistogramWire {
            total: self.total,
            buckets: self.nonzero().map(|(i, c)| (i as u64, c)).collect(),
        }
        .to_json()
    }
}

impl Deserialize for LogHistogram {
    /// The wire form, plus what its type cannot say: every index in
    /// range and at most once, every count positive, and the counts
    /// summing to `total`. The counts vector is rebuilt to the highest
    /// index present, so a round trip is byte-identical.
    fn from_json(v: &Value) -> Result<LogHistogram, DeError> {
        let wire = HistogramWire::from_json(v)?;
        let mut h = LogHistogram::default();
        let mut sum = 0u128;
        for (i, &(index, count)) in wire.buckets.iter().enumerate() {
            let at = |msg: &str| DeError::new(msg).in_field(&format!("buckets.[{i}]"));
            let index = usize::try_from(index)
                .ok()
                .filter(|&x| x < MAX_BUCKETS)
                .ok_or_else(|| at("bucket index out of range"))?;
            if count == 0 {
                return Err(at("bucket count must be positive"));
            }
            if index >= h.counts.len() {
                h.counts.resize(index + 1, 0);
            }
            if h.counts[index] != 0 {
                return Err(at("duplicate bucket index"));
            }
            h.counts[index] = count;
            sum += u128::from(count);
        }
        if sum != u128::from(wire.total) {
            return Err(DeError::new("bucket counts do not sum to total").in_field("total"));
        }
        h.total = wire.total;
        Ok(h)
    }
}

// ---------------------------------------------------------------------
// Distribution
// ---------------------------------------------------------------------

/// A streamed distribution of nanosecond values in O(buckets) memory:
/// an exact count, exact min and max, and a [`LogHistogram`] for the
/// interior quantiles. Flow completion times, the single-packet
/// population and closed-loop operation latencies each fold into one.
///
/// Sums are not kept here: the owners whose wire forms carry one
/// ([`MetricsCollector`]'s `fct_sum_ns`, [`AppMetrics`]'s
/// `latency_sum_ns`) keep their own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Distribution {
    count: u64,
    min_ns: u64,
    max_ns: u64,
    hist: LogHistogram,
}

impl Distribution {
    /// Fold in one value.
    pub fn record(&mut self, ns: u64) {
        if self.count == 0 || ns < self.min_ns {
            self.min_ns = ns;
        }
        self.max_ns = self.max_ns.max(ns);
        self.count += 1;
        self.hist.record(ns);
    }

    /// Values recorded (exact).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` ∈ [0, 1] (nearest-rank): the exact
    /// min at `q = 0` and max at `q = 1`; in between, the bucket
    /// representative (≤ [`MAX_RELATIVE_ERROR`]) clamped to the
    /// observed `[min, max]`. An empty distribution returns
    /// [`Duration::ZERO`], so the query is total.
    pub fn percentile(&self, q: f64) -> Duration {
        let Some(v) = self.hist.value_at_quantile(q) else {
            return Duration::ZERO;
        };
        Duration::nanos(if q == 0.0 {
            self.min_ns
        } else if q == 1.0 {
            self.max_ns
        } else {
            v.clamp(self.min_ns, self.max_ns)
        })
    }

    /// The wire members after the count: `(min, max, histogram)`, each
    /// absent when the distribution is empty.
    fn wire(&self) -> (Option<u64>, Option<u64>, Option<&LogHistogram>) {
        let on = self.count > 0;
        (
            on.then_some(self.min_ns),
            on.then_some(self.max_ns),
            on.then_some(&self.hist),
        )
    }

    /// The inverse of [`Distribution::wire`]: the members, named by
    /// `keys` (min, max, histogram) in errors, must be present exactly
    /// when `count` is positive, in order, and the histogram must total
    /// `count`.
    fn from_wire(
        count: u64,
        (min, max, hist): (Option<u64>, Option<u64>, Option<LogHistogram>),
        keys: [&str; 3],
    ) -> Result<Distribution, DeError> {
        let p = Present(count > 0);
        let d = Distribution {
            count,
            min_ns: p.take(min, keys[0])?,
            max_ns: p.take(max, keys[1])?,
            hist: p.take(hist, keys[2])?,
        };
        ensure(d.min_ns <= d.max_ns, keys[0], DISORDER)?;
        ensure(d.hist.total == count, keys[2], TOTAL)?;
        Ok(d)
    }
}

/// The wire members an empty form leaves out (`{"flows":0}`,
/// `{"ops":0,"phases":n}`): each must be present exactly when the
/// form's count is positive (`.0`), and reads as its type's default
/// when absent.
struct Present(bool);

impl Present {
    fn take<T: Default>(&self, member: Option<T>, key: &str) -> Result<T, DeError> {
        match (member, self.0) {
            (Some(v), true) => Ok(v),
            (None, false) => Ok(T::default()),
            (None, true) => Err(DeError::new("missing; the count is positive").in_field(key)),
            (Some(_), false) => Err(DeError::new("not allowed; the count is zero").in_field(key)),
        }
    }
}

/// A check a wire type cannot state: `msg` at `key` unless it `holds`.
/// (Extremes out of order from a lying peer would panic a later `clamp`.)
fn ensure(holds: bool, key: &str, msg: &str) -> Result<(), DeError> {
    holds
        .then_some(())
        .ok_or_else(|| DeError::new(msg).in_field(key))
}

const TOTAL: &str = "histogram total does not match the count";
const DISORDER: &str = "above its upper bound";

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

/// The three headline metrics of §4.1 plus context.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Mean slowdown (dominated by latency-sensitive short flows).
    pub avg_slowdown: f64,
    /// Mean FCT (dominated by throughput-sensitive long flows).
    pub avg_fct: Duration,
    /// 99th-percentile FCT (bucketed; see the accuracy contract).
    pub p99_fct: Duration,
    /// Completed flows.
    pub flows: usize,
}

/// Per-operation metrics of a closed-loop application run, in
/// O(buckets) memory.
///
/// A closed-loop driver (RPC, allreduce, replication) completes
/// *operations* — request/response round trips, collective iterations,
/// replicated commits — whose latency spans many flows. Their
/// latencies fold into a [`Distribution`] the same way
/// [`MetricsCollector`] folds FCTs, under the same accuracy contract
/// (every quantile within [`QUANTILE_RELATIVE_ERROR`], 1%, of the exact
/// nearest-rank value; the `q = 0`/`q = 1` boundaries exact).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppMetrics {
    latency: Distribution,
    latency_sum_ns: u64,
    phases: u64,
}

/// [`AppMetrics`]'s wire form; `{"ops":0,"phases":n}` when no
/// operation completed. `H` is `&LogHistogram` out, `LogHistogram` in.
#[derive(Serialize, Deserialize)]
struct AppWire<H> {
    ops: u64,
    latency_sum_ns: Option<u64>,
    min_latency_ns: Option<u64>,
    max_latency_ns: Option<u64>,
    latency_hist: Option<H>,
    phases: u64,
}

impl AppMetrics {
    /// Fold in one completed operation's latency.
    pub fn record_op(&mut self, latency_ns: u64) {
        self.latency_sum_ns += latency_ns;
        self.latency.record(latency_ns);
    }

    /// Count one crossed collective phase barrier.
    pub fn record_phase(&mut self) {
        self.phases += 1;
    }

    /// Completed operations (exact).
    pub fn ops(&self) -> u64 {
        self.latency.count
    }

    /// Collective phase barriers crossed (exact; zero for RPC and
    /// replication models).
    pub fn phases(&self) -> u64 {
        self.phases
    }

    /// Mean operation latency (exact; [`Duration::ZERO`] when empty).
    pub fn mean_latency(&self) -> Duration {
        if self.latency.is_empty() {
            return Duration::ZERO;
        }
        Duration::nanos(self.latency_sum_ns / self.latency.count)
    }

    /// Operation latency at quantile `q` ∈ [0, 1]
    /// ([`Distribution::percentile`]).
    pub fn percentile_latency(&self, q: f64) -> Duration {
        self.latency.percentile(q)
    }

    /// Heap bytes behind the latency histogram.
    pub fn heap_bytes(&self) -> u64 {
        self.allocated_buckets() * BUCKET_BYTES
    }

    /// Allocated histogram buckets.
    pub fn allocated_buckets(&self) -> u64 {
        self.latency.hist.allocated_buckets() as u64
    }
}

impl Serialize for AppMetrics {
    fn to_json(&self) -> Value {
        let (min_latency_ns, max_latency_ns, latency_hist) = self.latency.wire();
        AppWire {
            ops: self.latency.count,
            latency_sum_ns: (self.latency.count > 0).then_some(self.latency_sum_ns),
            min_latency_ns,
            max_latency_ns,
            latency_hist,
            phases: self.phases,
        }
        .to_json()
    }
}

impl Deserialize for AppMetrics {
    fn from_json(v: &Value) -> Result<AppMetrics, DeError> {
        let w = AppWire::<LogHistogram>::from_json(v)?;
        Ok(AppMetrics {
            latency: Distribution::from_wire(
                w.ops,
                (w.min_latency_ns, w.max_latency_ns, w.latency_hist),
                ["min_latency_ns", "max_latency_ns", "latency_hist"],
            )?,
            latency_sum_ns: Present(w.ops > 0).take(w.latency_sum_ns, "latency_sum_ns")?,
            phases: w.phases,
        })
    }
}

/// Aggregated results over many flows, in O(buckets) memory.
///
/// Exact accumulators (sums, slowdown extremes, RCT span) sit alongside
/// the FCT [`Distribution`], a slowdown [`LogHistogram`] (in
/// 1/[`SLOWDOWN_SCALE`] fixed point) and the single-packet
/// [`Distribution`]. See the crate docs for which outputs are exact and
/// which are bucketed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsCollector {
    fct: Distribution,
    fct_sum_ns: u64,
    slowdown_sum: f64,
    min_slowdown: f64,
    max_slowdown: f64,
    first_start_ns: u64,
    last_finish_ns: u64,
    slowdown_hist: LogHistogram,
    single_packet: Distribution,
}

/// [`MetricsCollector`]'s wire form: the streaming state itself, exact
/// accumulators plus sparse histograms; `{"flows":0}` when empty.
/// Integer members are integers and f64 sums use the writer's
/// shortest-round-trip form, so a round trip is bit-exact. `H` is
/// `&LogHistogram` out, `LogHistogram` in.
#[derive(Serialize, Deserialize)]
struct CollectorWire<H> {
    flows: u64,
    fct_sum_ns: Option<u64>,
    slowdown_sum: Option<f64>,
    min_fct_ns: Option<u64>,
    max_fct_ns: Option<u64>,
    min_slowdown: Option<f64>,
    max_slowdown: Option<f64>,
    first_start_ns: Option<u64>,
    last_finish_ns: Option<u64>,
    fct_hist: Option<H>,
    slowdown_hist: Option<H>,
    single_packet: Option<SinglePacketWire<H>>,
}

/// The single-packet [`Distribution`] on the wire; `{"flows":0}` when
/// empty.
#[derive(Default, Serialize, Deserialize)]
struct SinglePacketWire<H> {
    flows: u64,
    min_fct_ns: Option<u64>,
    max_fct_ns: Option<u64>,
    fct_hist: Option<H>,
}

/// The names [`Distribution::from_wire`] reports FCT members by.
const FCT_KEYS: [&str; 3] = ["min_fct_ns", "max_fct_ns", "fct_hist"];

impl Serialize for MetricsCollector {
    fn to_json(&self) -> Value {
        let on = !self.is_empty();
        let (min_fct_ns, max_fct_ns, fct_hist) = self.fct.wire();
        let (sp_min, sp_max, sp_hist) = self.single_packet.wire();
        CollectorWire {
            flows: self.fct.count,
            fct_sum_ns: on.then_some(self.fct_sum_ns),
            slowdown_sum: on.then_some(self.slowdown_sum),
            min_fct_ns,
            max_fct_ns,
            min_slowdown: on.then_some(self.min_slowdown),
            max_slowdown: on.then_some(self.max_slowdown),
            first_start_ns: on.then_some(self.first_start_ns),
            last_finish_ns: on.then_some(self.last_finish_ns),
            fct_hist,
            slowdown_hist: on.then_some(&self.slowdown_hist),
            single_packet: on.then_some(SinglePacketWire {
                flows: self.single_packet.count,
                min_fct_ns: sp_min,
                max_fct_ns: sp_max,
                fct_hist: sp_hist,
            }),
        }
        .to_json()
    }
}

impl Deserialize for MetricsCollector {
    fn from_json(v: &Value) -> Result<MetricsCollector, DeError> {
        let w = CollectorWire::<LogHistogram>::from_json(v)?;
        let p = Present(w.flows > 0);
        let slowdown_hist = p.take(w.slowdown_hist, "slowdown_hist")?;
        ensure(slowdown_hist.total == w.flows, "slowdown_hist", TOTAL)?;
        let min_slowdown = p.take(w.min_slowdown, "min_slowdown")?;
        let max_slowdown = p.take(w.max_slowdown, "max_slowdown")?;
        ensure(min_slowdown <= max_slowdown, "min_slowdown", DISORDER)?;
        let first_start_ns = p.take(w.first_start_ns, "first_start_ns")?;
        let last_finish_ns = p.take(w.last_finish_ns, "last_finish_ns")?;
        ensure(first_start_ns <= last_finish_ns, "first_start_ns", DISORDER)?;
        let sp = p.take(w.single_packet, "single_packet")?;
        Ok(MetricsCollector {
            fct: Distribution::from_wire(
                w.flows,
                (w.min_fct_ns, w.max_fct_ns, w.fct_hist),
                FCT_KEYS,
            )?,
            fct_sum_ns: p.take(w.fct_sum_ns, "fct_sum_ns")?,
            slowdown_sum: p.take(w.slowdown_sum, "slowdown_sum")?,
            min_slowdown,
            max_slowdown,
            first_start_ns,
            last_finish_ns,
            slowdown_hist,
            single_packet: Distribution::from_wire(
                sp.flows,
                (sp.min_fct_ns, sp.max_fct_ns, sp.fct_hist),
                FCT_KEYS,
            )
            .map_err(|e| e.in_field("single_packet"))?,
        })
    }
}

impl MetricsCollector {
    /// Empty collector.
    pub fn new() -> MetricsCollector {
        MetricsCollector::default()
    }

    /// Fold one completed flow into the streaming state. The record is
    /// consumed, not retained.
    pub fn record(&mut self, r: FlowRecord) {
        debug_assert!(r.finish >= r.start, "negative FCT");
        debug_assert!(!r.ideal.is_zero(), "ideal FCT must be positive");
        let fct_ns = r.fct().as_nanos();
        let slowdown = r.slowdown();
        let first = self.is_empty();
        // Saturating: the sum only pins at u64::MAX after ~584 years of
        // cumulative FCT, where the old record-vector sum overflowed.
        self.fct_sum_ns = self.fct_sum_ns.saturating_add(fct_ns);
        self.slowdown_sum += slowdown;
        if first || slowdown < self.min_slowdown {
            self.min_slowdown = slowdown;
        }
        if slowdown > self.max_slowdown {
            self.max_slowdown = slowdown;
        }
        if first || r.start.as_nanos() < self.first_start_ns {
            self.first_start_ns = r.start.as_nanos();
        }
        self.last_finish_ns = self.last_finish_ns.max(r.finish.as_nanos());
        self.fct.record(fct_ns);
        self.slowdown_hist.record(scale_slowdown(slowdown));
        if r.packets == 1 {
            self.single_packet.record(fct_ns);
        }
    }

    /// Number of completed flows. Exact.
    pub fn len(&self) -> usize {
        self.fct.len()
    }

    /// True when nothing has completed.
    pub fn is_empty(&self) -> bool {
        self.fct.is_empty()
    }

    /// The §4.1 headline metrics. `avg_slowdown` and `avg_fct` are
    /// exact (record-order f64 sum; u64 nanosecond sum); `p99_fct` is
    /// bucketed. Panics when empty (an experiment that completed zero
    /// flows is broken and must not silently report).
    pub fn summary(&self) -> Summary {
        assert!(!self.is_empty(), "no flows completed");
        let n = self.fct.count as f64;
        let avg_fct_ns = self.fct_sum_ns as f64 / n;
        Summary {
            avg_slowdown: self.slowdown_sum / n,
            avg_fct: Duration::nanos(avg_fct_ns.round() as u64),
            p99_fct: self.percentile_fct(0.99),
            flows: self.len(),
        }
    }

    /// FCT at quantile `q` ∈ [0, 1] ([`Distribution::percentile`]):
    /// exact at the boundaries, bucketed in the interior, and
    /// [`Duration::ZERO`] for an empty collector, so envelope assembly
    /// over empty sub-populations never panics.
    pub fn percentile_fct(&self, q: f64) -> Duration {
        self.fct.percentile(q)
    }

    /// Slowdown at quantile `q` (nearest-rank). Boundaries are exact;
    /// interior quantiles are bucketed fixed-point (within
    /// [`QUANTILE_RELATIVE_ERROR`]), clamped to the observed range.
    /// Returns `0.0` when empty (slowdowns are ≥ 1, so the sentinel is
    /// unambiguous).
    pub fn percentile_slowdown(&self, q: f64) -> f64 {
        let Some(scaled) = self.slowdown_hist.value_at_quantile(q) else {
            return 0.0;
        };
        if q == 0.0 {
            return self.min_slowdown;
        }
        if q == 1.0 {
            return self.max_slowdown;
        }
        (scaled as f64 / SLOWDOWN_SCALE).clamp(self.min_slowdown, self.max_slowdown)
    }

    /// The single-packet-message sub-population (Figure 8).
    pub fn single_packet_messages(&self) -> &Distribution {
        &self.single_packet
    }

    /// Request completion time: first flow start to last flow finish
    /// (incast, §4.4.3). Exact. Panics when empty.
    pub fn rct(&self) -> Duration {
        assert!(!self.is_empty(), "no flows completed");
        Duration::nanos(self.last_finish_ns - self.first_start_ns)
    }

    /// Heap bytes held by the histograms (the collector's only
    /// flow-count-independent heap use). Deterministic: a function of
    /// which buckets were touched, not of allocator behavior.
    pub fn heap_bytes(&self) -> u64 {
        self.allocated_buckets() * BUCKET_BYTES
    }

    /// Total allocated histogram bucket slots across all populations.
    pub fn allocated_buckets(&self) -> u64 {
        let hists = [
            &self.fct.hist,
            &self.slowdown_hist,
            &self.single_packet.hist,
        ];
        hists.iter().map(|h| h.allocated_buckets() as u64).sum()
    }
}

/// Slowdown → fixed-point integer for bucketing.
fn scale_slowdown(s: f64) -> u64 {
    (s * SLOWDOWN_SCALE).round() as u64
}

fn nearest_rank(q: f64, n: usize) -> usize {
    (((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(flow: u32, packets: u32, start_us: u64, fct_us: u64, ideal_us: u64) -> FlowRecord {
        FlowRecord {
            flow,
            bytes: packets as u64 * 1000,
            packets,
            start: Time::ZERO + Duration::micros(start_us),
            finish: Time::ZERO + Duration::micros(start_us + fct_us),
            ideal: Duration::micros(ideal_us),
        }
    }

    fn rel_err(approx: u64, exact: u64) -> f64 {
        (approx as f64 - exact as f64).abs() / exact as f64
    }

    #[test]
    fn slowdown_and_fct() {
        let r = rec(0, 10, 5, 30, 10);
        assert_eq!(r.fct(), Duration::micros(30));
        assert!((r.slowdown() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_averages_are_exact() {
        let mut m = MetricsCollector::new();
        m.record(rec(0, 1, 0, 10, 10)); // slowdown 1
        m.record(rec(1, 1, 0, 30, 10)); // slowdown 3
        let s = m.summary();
        assert!((s.avg_slowdown - 2.0).abs() < 1e-12);
        assert_eq!(s.avg_fct, Duration::micros(20));
        assert_eq!(s.flows, 2);
    }

    #[test]
    fn bucket_index_bounds_and_representative_agree() {
        for v in (0u64..2048).chain([
            1 << 20,
            (1 << 20) + 17,
            u64::MAX / 3,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let idx = LogHistogram::bucket_index(v);
            let (lo, hi) = LogHistogram::bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} not in bucket [{lo},{hi}]");
            let rep = LogHistogram::representative(idx);
            assert!(lo <= rep && rep <= hi);
            if v >= SUB_BUCKETS {
                assert!(
                    rel_err(rep, v) <= MAX_RELATIVE_ERROR,
                    "v={v} rep={rep} err too large"
                );
            } else {
                assert_eq!(rep, v, "values below {SUB_BUCKETS} are exact");
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0usize;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 4096, 1 << 30, u64::MAX] {
            let idx = LogHistogram::bucket_index(v);
            assert!(idx >= prev, "index must be nondecreasing in value");
            prev = idx;
        }
        assert!(LogHistogram::bucket_index(u64::MAX) < MAX_BUCKETS);
    }

    #[test]
    fn percentiles_nearest_rank_within_contract() {
        let mut m = MetricsCollector::new();
        for i in 1..=100 {
            m.record(rec(i, 1, 0, i as u64, 1));
        }
        // Boundaries are exact.
        assert_eq!(m.percentile_fct(1.0), Duration::micros(100));
        assert_eq!(m.percentile_fct(0.0), Duration::micros(1));
        // Interior quantiles are bucketed within the documented bound.
        for (q, exact_us) in [(0.50, 50u64), (0.99, 99)] {
            let got = m.percentile_fct(q).as_nanos();
            let exact = Duration::micros(exact_us).as_nanos();
            assert!(
                rel_err(got, exact) <= MAX_RELATIVE_ERROR,
                "q={q}: got {got}ns, exact {exact}ns"
            );
        }
    }

    #[test]
    fn empty_collector_quantiles_are_total() {
        let m = MetricsCollector::new();
        assert_eq!(m.percentile_fct(0.0), Duration::ZERO);
        assert_eq!(m.percentile_fct(0.5), Duration::ZERO);
        assert_eq!(m.percentile_fct(1.0), Duration::ZERO);
        assert_eq!(m.percentile_slowdown(0.99), 0.0);
        assert_eq!(m.single_packet_messages().percentile(0.999), Duration::ZERO);
        assert!(m.is_empty());
    }

    #[test]
    fn single_flow_quantiles_are_exact_at_every_q() {
        let mut m = MetricsCollector::new();
        m.record(rec(0, 1, 3, 137, 10));
        // One value: clamping to [min, max] collapses every quantile to
        // the exact observation.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(m.percentile_fct(q), Duration::micros(137), "q={q}");
        }
        assert!((m.percentile_slowdown(0.5) - 13.7).abs() / 13.7 <= QUANTILE_RELATIVE_ERROR);
    }

    #[test]
    fn duplicate_fcts_share_a_bucket() {
        let mut m = MetricsCollector::new();
        for i in 0..50 {
            m.record(rec(i, 1, 0, 42, 6));
        }
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(m.percentile_fct(q), Duration::micros(42), "q={q}");
        }
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn max_duration_values_do_not_overflow() {
        let mut m = MetricsCollector::new();
        m.record(FlowRecord {
            flow: 0,
            bytes: 1,
            packets: 1,
            start: Time::ZERO,
            finish: Time::MAX,
            ideal: Duration::nanos(1),
        });
        m.record(rec(1, 1, 0, 10, 10));
        // q = 1.0 is the exact max even at the top of the u64 range.
        assert_eq!(m.percentile_fct(1.0).as_nanos(), Time::MAX.as_nanos());
        assert_eq!(m.percentile_fct(0.0), Duration::micros(10));
        assert!(m.percentile_fct(0.9).as_nanos() <= Time::MAX.as_nanos());
    }

    #[test]
    fn single_packet_filter() {
        let mut m = MetricsCollector::new();
        m.record(rec(0, 1, 0, 5, 1));
        m.record(rec(1, 100, 0, 500, 100));
        m.record(rec(2, 1, 0, 7, 1));
        let sp = m.single_packet_messages();
        assert_eq!(sp.len(), 2);
        assert_eq!(sp.percentile(1.0), Duration::micros(7));
    }

    #[test]
    fn rct_spans_first_start_to_last_finish() {
        let mut m = MetricsCollector::new();
        m.record(rec(0, 10, 0, 100, 10));
        m.record(rec(1, 10, 50, 200, 10)); // finishes at 250
        assert_eq!(m.rct(), Duration::micros(250));
    }

    #[test]
    fn ideal_fct_math() {
        // 120 KB over 6 hops at 40 Gbps with 2 µs props:
        // ser_all = 24 µs; pipeline = 6×2 µs + 5×~0.21 µs ≈ 13.05 µs.
        let d = ideal_fct(120_000, 1_048, 6, 40e9, Duration::micros(2));
        let expect_ns = 24_000 + 12_000 + 5 * 210;
        assert!(
            (d.as_nanos() as i64 - expect_ns as i64).abs() < 20,
            "got {d}, expected ≈{expect_ns}ns"
        );
        // Single-packet message on 2 hops: ser + 2 props + 1 hop ser.
        let d1 = ideal_fct(1_048, 1_048, 2, 40e9, Duration::micros(2));
        assert!(
            (d1.as_nanos() as i64 - (210 + 4_000 + 210)).abs() < 20,
            "got {d1}"
        );
    }

    #[test]
    #[should_panic]
    fn empty_summary_panics() {
        MetricsCollector::new().summary();
    }

    #[test]
    fn csv_exports_histogram_buckets() {
        // What an exporter has to go on: every population's non-empty
        // buckets, with their counts.
        let mut m = MetricsCollector::new();
        m.record(rec(7, 3, 10, 40, 20));
        m.record(rec(8, 1, 10, 40, 20));
        let counts = |h: &LogHistogram| h.nonzero().map(|(_, c)| c).collect::<Vec<_>>();
        // Both flows share the 40 µs FCT bucket.
        assert_eq!(counts(&m.fct.hist), vec![2]);
        assert_eq!(counts(&m.slowdown_hist).iter().sum::<u64>(), 2);
        assert_eq!(counts(&m.single_packet.hist), vec![1]);
    }

    #[test]
    fn collector_round_trips_bit_exactly() {
        let mut m = MetricsCollector::new();
        for i in 1..=257 {
            m.record(rec(i, 1 + i % 3, i as u64, (i * 31) as u64 % 911 + 1, 7));
        }
        let text = serde::json::to_string(&m);
        let back = MetricsCollector::from_json(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(serde::json::to_string(&back), text);

        let empty = MetricsCollector::new();
        let etext = serde::json::to_string(&empty);
        assert_eq!(etext, r#"{"flows":0}"#);
        let eback = MetricsCollector::from_json(&serde::json::from_str(&etext).unwrap()).unwrap();
        assert_eq!(eback, empty);
    }

    /// The error reading `text` as a `T`, as its message prints.
    fn rejection<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
        T::from_json(&serde::json::from_str(text).unwrap())
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn histogram_rejects_inconsistent_wire_forms() {
        for (text, said) in [
            (
                r#"{"total":3,"buckets":[[1,1]]}"#,
                "at total: bucket counts do not sum to total",
            ),
            (
                r#"{"total":2,"buckets":[[1,1],[1,1]]}"#,
                "at buckets.[1]: duplicate bucket index",
            ),
            (
                r#"{"total":1,"buckets":[[99999,1]]}"#,
                "at buckets.[0]: bucket index out of range",
            ),
            (
                r#"{"total":0,"buckets":[[5,0]]}"#,
                "at buckets.[0]: bucket count must be positive",
            ),
            (
                r#"{"total":1,"buckets":[[1,18446744073709551615],[2,2]]}"#,
                "at total: bucket counts do not sum to total",
            ),
        ] {
            assert_eq!(rejection::<LogHistogram>(text), said, "{text}");
        }
    }

    #[test]
    fn every_wire_form_is_strict_at_every_depth() {
        let mut one = MetricsCollector::new();
        one.record(rec(0, 1, 3, 137, 10));
        let one = serde::json::to_string(&one);
        let extra = one.replacen(r#"{"flows":1,"#, r#"{"flows":1,"extra":1,"#, 1);
        let nested = one.replacen(
            r#""single_packet":{"flows":1,"#,
            r#""single_packet":{"flows":1,"extra":1,"#,
            1,
        );
        assert!(extra != one && nested != one);
        // Extremes out of order would panic a later `clamp` or `rct`.
        let min_above_max = one.replacen(r#""min_fct_ns":137000"#, r#""min_fct_ns":137001"#, 1);
        let slowdown_above = one.replacen(r#""max_slowdown":13.7"#, r#""max_slowdown":13.6"#, 1);
        let start_after = one.replacen(r#""first_start_ns":3000"#, r#""first_start_ns":140001"#, 1);
        let collector = [
            (r#"{"flows":0,"bogus":1}"#, "at bogus: unknown field"),
            (
                r#"{"flows":0,"fct_sum_ns":99}"#,
                "at fct_sum_ns: not allowed; the count is zero",
            ),
            (extra.as_str(), "at extra: unknown field"),
            (nested.as_str(), "at single_packet.extra: unknown field"),
            (
                r#"{"flows":1}"#,
                "at slowdown_hist: missing; the count is positive",
            ),
            (r#"{"flows":0,"flows":0}"#, "at flows: duplicate field"),
            (
                min_above_max.as_str(),
                "at min_fct_ns: above its upper bound",
            ),
            (
                slowdown_above.as_str(),
                "at min_slowdown: above its upper bound",
            ),
            (
                start_after.as_str(),
                "at first_start_ns: above its upper bound",
            ),
        ];
        for (text, said) in collector {
            assert_eq!(rejection::<MetricsCollector>(text), said, "{text}");
        }
        assert_eq!(
            rejection::<AppMetrics>(r#"{"ops":0,"phases":2,"x":1}"#),
            "at x: unknown field"
        );
        assert_eq!(
            rejection::<AppMetrics>(r#"{"ops":0,"phases":2,"latency_sum_ns":1}"#),
            "at latency_sum_ns: not allowed; the count is zero"
        );
        for (text, said) in [
            (
                r#"{"total":1,"buckets":[[3,1]],"x":true}"#,
                "at x: unknown field",
            ),
            (
                r#"{"total":1,"total":1,"buckets":[[3,1]]}"#,
                "at total: duplicate field",
            ),
            (
                r#"{"total":1,"buckets":[[3,1,1]]}"#,
                "at buckets.[0]: expected 2 elements, got 3",
            ),
        ] {
            assert_eq!(rejection::<LogHistogram>(text), said, "{text}");
        }
        // A histogram one flow short of its population, at each depth.
        let short = one.replacen(
            r#""fct_hist":{"total":1,"buckets":[[770,1]]}}}"#,
            r#""fct_hist":{"total":0,"buckets":[]}}}"#,
            1,
        );
        assert_ne!(short, one);
        assert_eq!(
            rejection::<MetricsCollector>(&short),
            "at single_packet.fct_hist: histogram total does not match the count"
        );
    }

    #[test]
    fn heap_bytes_track_allocated_buckets() {
        let mut m = MetricsCollector::new();
        assert_eq!(m.heap_bytes(), 0);
        m.record(rec(0, 2, 0, 100, 10));
        assert_eq!(
            m.heap_bytes(),
            m.allocated_buckets() * std::mem::size_of::<u64>() as u64
        );
        // Another 10k flows in the same value range must not grow the
        // histograms past the bucket ceiling.
        for i in 0..10_000 {
            m.record(rec(i, 2, 0, 100 + i as u64 % 7, 10));
        }
        assert!(m.allocated_buckets() < 3 * MAX_BUCKETS as u64);
    }

    #[test]
    fn app_metrics_quantiles_meet_the_contract() {
        let mut a = AppMetrics::default();
        assert_eq!(a.ops(), 0);
        assert_eq!(a.mean_latency(), Duration::ZERO);
        assert_eq!(a.percentile_latency(0.99), Duration::ZERO);
        let latencies: Vec<u64> = (1..=1000).map(|i| i * 977).collect();
        for &l in &latencies {
            a.record_op(l);
        }
        a.record_phase();
        a.record_phase();
        assert_eq!(a.ops(), 1000);
        assert_eq!(a.phases(), 2);
        // Boundaries exact, interior within the 1% quantile contract.
        assert_eq!(a.percentile_latency(0.0), Duration::nanos(977));
        assert_eq!(a.percentile_latency(1.0), Duration::nanos(977_000));
        let exact = latencies[nearest_rank(0.99, 1000) - 1];
        let got = a.percentile_latency(0.99).as_nanos();
        assert!(
            (got as f64 - exact as f64).abs() / exact as f64 <= QUANTILE_RELATIVE_ERROR,
            "p99 {got} vs exact {exact}"
        );
        let mean = a.mean_latency().as_nanos();
        assert_eq!(mean, latencies.iter().sum::<u64>() / 1000);
    }

    #[test]
    fn app_metrics_serde_round_trips_and_validates() {
        let mut a = AppMetrics::default();
        for l in [5_000u64, 80_000, 80_000, 2_000_000] {
            a.record_op(l);
        }
        a.record_phase();
        let text = serde::json::to_string(&a);
        let back = AppMetrics::from_json(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, a);
        assert_eq!(serde::json::to_string(&back), text);

        // Empty form stays compact but keeps the phase count.
        let mut empty = AppMetrics::default();
        empty.record_phase();
        let etext = serde::json::to_string(&empty);
        assert_eq!(etext, r#"{"ops":0,"phases":1}"#);
        let eback = AppMetrics::from_json(&serde::json::from_str(&etext).unwrap()).unwrap();
        assert_eq!(eback, empty);

        // A histogram that disagrees with the op count is rejected.
        let bad = r#"{"ops":3,"latency_sum_ns":30,"min_latency_ns":10,"max_latency_ns":10,"latency_hist":{"total":1,"buckets":[[10,1]]},"phases":0}"#;
        assert!(AppMetrics::from_json(&serde::json::from_str(bad).unwrap()).is_err());
    }
}
