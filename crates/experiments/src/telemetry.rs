//! The unified `telemetry` envelope block: every counter the vertical
//! already keeps — [`irn_core::SchedCounters`], the fabric's
//! `FabricStats` (from `irn-net`, not a dependency of this crate), the
//! per-flow transport totals — folded
//! into one serializable summary per artifact, with a per-transport
//! breakdown of the drop/pause/retransmit/mark counters.
//!
//! Everything here is a pure sum of deterministic `RunResult` counters,
//! so the block inherits the artifact's determinism class: for
//! deterministic artifacts it is byte-identical at any `--jobs` and any
//! fleet size. The serialized shape is documented in `docs/SCHEMA.md`;
//! the drop partition invariant (`drops.total = drops.buffer +
//! drops.injected`, and the by-kind rows summing to the totals) is
//! enforced by `verify_artifact_json` and the integration suite.

use irn_core::transport::config::TransportKind;
use irn_core::RunResult;
use serde::json::Value;
use serde::Serialize;

/// Counters attributable to one transport kind (each cell runs exactly
/// one transport, so its fabric counters are charged to that kind).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Cells that ran this transport.
    pub cells: u64,
    /// Data packets transmitted (including retransmissions).
    pub sent: u64,
    /// Retransmitted packets.
    pub retransmitted: u64,
    /// NACKs received by senders.
    pub nacks: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// DCQCN CNPs received by senders.
    pub cnps: u64,
    /// Packets dropped to buffer overflow in those cells.
    pub buffer_drops: u64,
    /// Packets dropped by fault injection in those cells.
    pub injected_drops: u64,
    /// PFC X-OFF frames generated in those cells.
    pub pauses: u64,
    /// Data packets ECN-marked in those cells.
    pub ecn_marked: u64,
}

impl KindCounters {
    fn add(&mut self, r: &RunResult) {
        self.cells += 1;
        self.sent += r.transport.sent;
        self.retransmitted += r.transport.retransmitted;
        self.nacks += r.transport.nacks;
        self.timeouts += r.transport.timeouts;
        self.cnps += r.transport.cnps;
        self.buffer_drops += r.fabric.buffer_drops;
        self.injected_drops += r.fabric.injected_drops;
        self.pauses += r.fabric.pauses;
        self.ecn_marked += r.fabric.ecn_marked;
    }

    fn to_json_value(self, kind: &str) -> Value {
        Value::Object(vec![
            ("kind".to_string(), kind.to_json()),
            ("cells".to_string(), self.cells.to_json()),
            ("sent".to_string(), self.sent.to_json()),
            ("retransmitted".to_string(), self.retransmitted.to_json()),
            ("nacks".to_string(), self.nacks.to_json()),
            ("timeouts".to_string(), self.timeouts.to_json()),
            ("cnps".to_string(), self.cnps.to_json()),
            (
                "drops".to_string(),
                drops_object(self.buffer_drops, self.injected_drops),
            ),
            ("pauses".to_string(), self.pauses.to_json()),
            ("ecn_marked".to_string(), self.ecn_marked.to_json()),
        ])
    }
}

/// The drop partition: `total` is always `buffer + injected`.
fn drops_object(buffer: u64, injected: u64) -> Value {
    Value::Object(vec![
        ("total".to_string(), (buffer + injected).to_json()),
        ("buffer".to_string(), buffer.to_json()),
        ("injected".to_string(), injected.to_json()),
    ])
}

/// The unified counters for one artifact (or one scenario batch): sums
/// over every cell's `RunResult`, plus the per-transport breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Cells summed into this block.
    pub cells: u64,
    /// Simulation events across those cells.
    pub events: u64,
    /// Flow arrivals processed (scheduler counter).
    pub flow_arrivals: u64,
    /// Fabric events processed.
    pub fabric_events: u64,
    /// Live QP-timer expiries delivered.
    pub qp_timer_events: u64,
    /// NIC pacing wake-ups delivered.
    pub nic_wake_events: u64,
    /// Timer arms requested of the scheduler.
    pub timer_arms: u64,
    /// Timer cancels requested of the scheduler.
    pub timer_cancels: u64,
    /// Stale timer entries reclaimed lazily by the scheduler.
    pub stale_timer_reclaims: u64,
    /// Events scheduled in the past and clamped to "now".
    pub past_clamps: u64,
    /// Packets delivered to hosts.
    pub delivered_pkts: u64,
    /// Wire bytes delivered to hosts.
    pub delivered_bytes: u64,
    /// Packets dropped to buffer overflow.
    pub buffer_drops: u64,
    /// Packets dropped by fault injection.
    pub injected_drops: u64,
    /// PFC X-OFF frames generated.
    pub pauses: u64,
    /// PFC X-ON frames generated.
    pub resumes: u64,
    /// Data packets ECN-marked.
    pub ecn_marked: u64,
    /// Transport counters per kind, in first-appearance order
    /// (deterministic: cells are visited in submission order).
    pub by_kind: Vec<(TransportKind, KindCounters)>,
}

impl TelemetrySummary {
    /// Fold one cell's result in, charged to its transport kind.
    pub fn add(&mut self, kind: TransportKind, r: &RunResult) {
        self.cells += 1;
        self.events += r.events;
        self.flow_arrivals += r.sched.flow_arrivals;
        self.fabric_events += r.sched.fabric_events;
        self.qp_timer_events += r.sched.qp_timer_events;
        self.nic_wake_events += r.sched.nic_wake_events;
        self.timer_arms += r.sched.timer_arms;
        self.timer_cancels += r.sched.timer_cancels;
        self.stale_timer_reclaims += r.sched.stale_timer_reclaims;
        self.past_clamps += r.sched.past_clamps;
        self.delivered_pkts += r.fabric.delivered_pkts;
        self.delivered_bytes += r.fabric.delivered_bytes;
        self.buffer_drops += r.fabric.buffer_drops;
        self.injected_drops += r.fabric.injected_drops;
        self.pauses += r.fabric.pauses;
        self.resumes += r.fabric.resumes;
        self.ecn_marked += r.fabric.ecn_marked;
        match self.by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, c)) => c.add(r),
            None => {
                let mut c = KindCounters::default();
                c.add(r);
                self.by_kind.push((kind, c));
            }
        }
    }

    /// Total packets dropped (the partitioned sum).
    pub fn drops_total(&self) -> u64 {
        self.buffer_drops + self.injected_drops
    }

    /// Transport totals across every kind.
    pub fn transport_totals(&self) -> KindCounters {
        let mut t = KindCounters::default();
        for (_, c) in &self.by_kind {
            t.cells += c.cells;
            t.sent += c.sent;
            t.retransmitted += c.retransmitted;
            t.nacks += c.nacks;
            t.timeouts += c.timeouts;
            t.cnps += c.cnps;
            t.buffer_drops += c.buffer_drops;
            t.injected_drops += c.injected_drops;
            t.pauses += c.pauses;
            t.ecn_marked += c.ecn_marked;
        }
        t
    }

    /// The serialized `telemetry` block (ordered object; see
    /// `docs/SCHEMA.md`).
    pub fn to_json_value(&self) -> Value {
        let totals = self.transport_totals();
        Value::Object(vec![
            ("cells".to_string(), self.cells.to_json()),
            ("events".to_string(), self.events.to_json()),
            (
                "sched".to_string(),
                Value::Object(vec![
                    ("flow_arrivals".to_string(), self.flow_arrivals.to_json()),
                    ("fabric_events".to_string(), self.fabric_events.to_json()),
                    (
                        "qp_timer_events".to_string(),
                        self.qp_timer_events.to_json(),
                    ),
                    (
                        "nic_wake_events".to_string(),
                        self.nic_wake_events.to_json(),
                    ),
                    ("timer_arms".to_string(), self.timer_arms.to_json()),
                    ("timer_cancels".to_string(), self.timer_cancels.to_json()),
                    (
                        "stale_timer_reclaims".to_string(),
                        self.stale_timer_reclaims.to_json(),
                    ),
                    ("past_clamps".to_string(), self.past_clamps.to_json()),
                ]),
            ),
            (
                "fabric".to_string(),
                Value::Object(vec![
                    ("delivered_pkts".to_string(), self.delivered_pkts.to_json()),
                    (
                        "delivered_bytes".to_string(),
                        self.delivered_bytes.to_json(),
                    ),
                    (
                        "drops".to_string(),
                        drops_object(self.buffer_drops, self.injected_drops),
                    ),
                    ("pauses".to_string(), self.pauses.to_json()),
                    ("resumes".to_string(), self.resumes.to_json()),
                    ("ecn_marked".to_string(), self.ecn_marked.to_json()),
                ]),
            ),
            (
                "transport".to_string(),
                Value::Object(vec![
                    (
                        "total".to_string(),
                        Value::Object(vec![
                            ("sent".to_string(), totals.sent.to_json()),
                            ("retransmitted".to_string(), totals.retransmitted.to_json()),
                            ("nacks".to_string(), totals.nacks.to_json()),
                            ("timeouts".to_string(), totals.timeouts.to_json()),
                            ("cnps".to_string(), totals.cnps.to_json()),
                        ]),
                    ),
                    (
                        "by_kind".to_string(),
                        Value::Array(
                            self.by_kind
                                .iter()
                                .map(|(k, c)| c.to_json_value(irn_core::transport_name(*k)))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_core::ExperimentConfig;

    fn result_for(kind: TransportKind) -> RunResult {
        let mut cfg = ExperimentConfig::quick(8);
        cfg.transport = kind;
        irn_core::run(cfg)
    }

    #[test]
    fn summary_partitions_drops_and_kinds() {
        let irn = result_for(TransportKind::Irn);
        let roce = result_for(TransportKind::Roce);
        let mut s = TelemetrySummary::default();
        s.add(TransportKind::Irn, &irn);
        s.add(TransportKind::Roce, &roce);
        s.add(TransportKind::Irn, &irn);

        assert_eq!(s.cells, 3);
        assert_eq!(s.events, 2 * irn.events + roce.events);
        assert_eq!(s.drops_total(), s.buffer_drops + s.injected_drops);
        assert_eq!(s.by_kind.len(), 2);
        let totals = s.transport_totals();
        assert_eq!(totals.cells, 3);
        assert_eq!(totals.sent, 2 * irn.transport.sent + roce.transport.sent);
        // Fabric counters charged to kinds partition the fabric sums.
        assert_eq!(totals.buffer_drops + totals.injected_drops, s.drops_total());
        assert_eq!(totals.pauses, s.pauses);
        assert_eq!(totals.ecn_marked, s.ecn_marked);
    }

    #[test]
    fn json_block_carries_the_partition() {
        let mut s = TelemetrySummary::default();
        s.add(TransportKind::Irn, &result_for(TransportKind::Irn));
        let v = s.to_json_value();
        let fabric = v.get("fabric").unwrap();
        let drops = fabric.get("drops").unwrap();
        let total = drops.get("total").and_then(Value::as_u64).unwrap();
        let buffer = drops.get("buffer").and_then(Value::as_u64).unwrap();
        let injected = drops.get("injected").and_then(Value::as_u64).unwrap();
        assert_eq!(total, buffer + injected);
        let by_kind = v
            .get("transport")
            .and_then(|t| t.get("by_kind"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(by_kind.len(), 1);
        assert_eq!(by_kind[0].get("kind").and_then(Value::as_str), Some("irn"));
    }
}
