//! Results of one simulation run.

use irn_metrics::{AppMetrics, MetricsCollector, Summary};
use irn_net::FabricStats;
use irn_sim::{Duration, Time};
use serde::{Deserialize, Serialize};

/// Transport-layer counters aggregated over every flow in a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportTotals {
    /// Data packets transmitted (including retransmissions).
    pub sent: u64,
    /// Retransmitted data packets.
    pub retransmitted: u64,
    /// NACKs received by senders.
    pub nacks: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// CNPs received by senders.
    pub cnps: u64,
}

impl TransportTotals {
    /// Fraction of transmissions that were retransmissions.
    pub fn retransmission_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.retransmitted as f64 / self.sent as f64
        }
    }
}

/// Event-loop health counters: per-event-kind totals plus the
/// scheduler's invariant violations. All values are deterministic
/// functions of the config (they count simulation events, not wall
/// clock), so they are safe to compare across runs and job counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedCounters {
    /// Flow arrivals streamed into the loop.
    pub flow_arrivals: u64,
    /// Fabric events (packet arrivals, transmit completions, PFC).
    pub fabric_events: u64,
    /// Live retransmission-timer expiries delivered.
    pub qp_timer_events: u64,
    /// Live NIC pacing wake-ups delivered.
    pub nic_wake_events: u64,
    /// Timer arms applied to the scheduler.
    pub timer_arms: u64,
    /// Timer cancellations that removed a pending deadline.
    pub timer_cancels: u64,
    /// Cancelled/superseded deadlines removed inside the scheduler,
    /// counted when each goes: most with the cancel or re-arm itself,
    /// the rest when the scheduler reaches them (and an open-loop run
    /// ends with a few still pending, uncounted). These were *removed*,
    /// not delivered — the pre-scheduler engine popped and discarded an
    /// event for each of them.
    pub stale_timer_reclaims: u64,
    /// Timer events that surfaced for an already-finished flow. The
    /// scheduler's cancel-on-completion makes this structurally zero;
    /// the run's audit fails a run where it is not.
    pub stale_timer_events: u64,
    /// Past-scheduled events clamped to "now" (release builds). A
    /// nonzero count means a model scheduled backwards in time — a bug
    /// the old engine silently hid. The run's audit fails a run where
    /// it is not zero.
    pub past_clamps: u64,
}

/// An **analytic** byte accounting of the engine's per-flow state, the
/// collectors' histogram heap and the packet arena — counts ×
/// `size_of`, not allocator probes — so it is a deterministic function
/// of the workload, byte-identical at any `--jobs` value and across
/// worker fleets (of the same build; sizes are platform-specific).
///
/// Its readers: the benchmark's per-layer ledger (`net.pkt_pool_peak`,
/// `metrics.hist_buckets`, `metrics.heap_bytes`,
/// `core.peak_flow_state_bytes`, `core.bytes_per_flow`) and its
/// result checks (`flows`, `pkt_pool_pkts`), the `result-v1` frame a
/// worker sends, and the tests that hold it equal across runs, job
/// counts and fleets. Peak heap itself is measured, not modelled: by
/// the benchmark's `peak_rss_mb` and the counting-allocator tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Peak bytes of live flow state: the slab's slot array at its
    /// high-water mark plus the flow → slot window at its widest.
    pub peak_flow_state_bytes: u64,
    /// Heap bytes held by the metrics collectors' histograms at the
    /// end of the run (monotone: histograms never shrink).
    pub metrics_bytes: u64,
    /// Flows the run completed (the per-flow denominator).
    pub flows: u64,
    /// Allocated histogram bucket slots across all collectors.
    pub hist_buckets: u64,
    /// Peak footprint of the fabric's packet arena: slab slots at the
    /// in-flight high-water mark, with their intrusive links and
    /// free-list entries.
    pub pkt_pool_bytes: u64,
    /// High-water mark of packets simultaneously in flight (peak arena
    /// occupancy).
    pub pkt_pool_pkts: u64,
}

impl MemoryStats {
    /// Total peak bytes of the three analytic folds.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_flow_state_bytes + self.metrics_bytes + self.pkt_pool_bytes
    }

    /// Peak bytes per completed flow (the benchmark's
    /// `core.bytes_per_flow`).
    pub fn bytes_per_flow(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.peak_bytes() as f64 / self.flows as f64
        }
    }
}

/// Everything a finished run reports.
///
/// Serializes field-by-field and deserializes back **bit-exactly**
/// (integers are exact nanosecond/count wire forms; floats use the
/// shortest-round-trip JSON form), which is what lets a remote worker
/// ship its result over the `work-v1` protocol without perturbing the
/// byte-identical-output guarantee of the in-process executor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// §4.1 headline metrics over the primary flow population (the
    /// background workload when an incast rides on cross-traffic).
    pub summary: Summary,
    /// Streaming metrics of the primary population (percentiles,
    /// Figure 8 CDFs) — fixed-memory histograms plus exact
    /// accumulators; see the `irn-metrics` accuracy contract.
    pub metrics: MetricsCollector,
    /// Incast flows, when the workload included an incast (RCT lives
    /// here, §4.4.3).
    pub incast_metrics: Option<MetricsCollector>,
    /// Per-operation latency of a closed-loop application (RPC round
    /// trips, allreduce iterations, replicated commits), when the
    /// workload was closed-loop.
    pub app: Option<AppMetrics>,
    /// Fabric counters: drops, pauses, ECN marks.
    pub fabric: FabricStats,
    /// Transport counters.
    pub transport: TransportTotals,
    /// Events processed by the simulation loop (arrivals + deliveries
    /// of live queue events; cancelled timers never surface, so they
    /// are not counted).
    pub events: u64,
    /// Event-loop health counters (per-kind totals, stale/clamp
    /// violations).
    pub sched: SchedCounters,
    /// Virtual time of the last flow completion.
    pub finished_at: Time,
    /// Analytic peak-memory accounting.
    pub memory: MemoryStats,
}

impl RunResult {
    /// Incast request completion time (§4.4.3). Panics if the workload
    /// had no incast.
    pub fn rct(&self) -> Duration {
        self.incast_metrics
            .as_ref()
            .expect("workload had no incast")
            .rct()
    }
}
