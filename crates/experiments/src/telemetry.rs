//! The unified `telemetry` envelope block: every counter the vertical
//! already keeps — [`irn_core::SchedCounters`], the fabric's
//! `FabricStats` (from `irn-net`, not a dependency of this crate), the
//! per-flow transport totals — folded into one summary per artifact,
//! with a per-transport breakdown of the drop/pause/retransmit/mark
//! counters.
//!
//! Everything here is a pure sum of deterministic `RunResult` counters,
//! so the block inherits the artifact's determinism class: for
//! deterministic artifacts it is byte-identical at any `--jobs` and any
//! fleet size. The structs *are* the serialized shape (their field
//! names and order are the JSON keys documented in `docs/SCHEMA.md`);
//! what a type cannot say — every `drops` object partitions, the
//! by-kind rows sum to the totals — is
//! [`TelemetrySummary::check_partitions`], which `verify_artifact_json`
//! and the integration suite run.

use irn_core::transport::config::TransportKind;
use irn_core::{RunResult, TransportTotals};
use serde::{Deserialize, Serialize};

/// The drop partition: `total` is always `buffer + injected` (overflow
/// vs. fault injection — the only two ways the fabric loses a packet).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Drops {
    /// Packets dropped, either way.
    pub total: u64,
    /// Packets dropped to buffer overflow.
    pub buffer: u64,
    /// Packets dropped by fault injection.
    pub injected: u64,
}

impl Drops {
    fn add(&mut self, r: &RunResult) {
        self.buffer += r.fabric.buffer_drops;
        self.injected += r.fabric.injected_drops;
        self.total = self.buffer + self.injected;
    }
}

/// Counters attributable to one transport kind (each cell runs exactly
/// one transport, so its fabric counters are charged to that kind).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCounters {
    /// The transport, in its scenario-v1 spelling
    /// ([`irn_core::transport_name`]).
    pub kind: String,
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
    /// Packets dropped in those cells.
    pub drops: Drops,
    /// PFC X-OFF frames generated in those cells.
    pub pauses: u64,
    /// Data packets ECN-marked in those cells.
    pub ecn_marked: u64,
}

/// The block's `sched` object: scheduler counters summed over cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedBlock {
    /// Flow arrivals processed.
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
    /// Cancelled or superseded timer entries the scheduler removed.
    pub stale_timer_reclaims: u64,
    /// Events scheduled in the past and clamped to "now".
    pub past_clamps: u64,
}

/// The block's `fabric` object: fabric counters summed over cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricBlock {
    /// Packets delivered to hosts.
    pub delivered_pkts: u64,
    /// Wire bytes delivered to hosts.
    pub delivered_bytes: u64,
    /// Packets dropped.
    pub drops: Drops,
    /// PFC X-OFF frames generated.
    pub pauses: u64,
    /// PFC X-ON frames generated.
    pub resumes: u64,
    /// Data packets ECN-marked.
    pub ecn_marked: u64,
}

/// The block's `transport` object.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportBlock {
    /// Transport counters across every kind.
    pub total: TransportTotals,
    /// The same per kind, in first-appearance order (deterministic:
    /// cells are visited in submission order).
    pub by_kind: Vec<KindCounters>,
}

/// The unified counters for one artifact (or one scenario batch): sums
/// over every cell's `RunResult`, plus the per-transport breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Cells summed into this block.
    pub cells: u64,
    /// Simulation events across those cells.
    pub events: u64,
    /// Scheduler counters.
    pub sched: SchedBlock,
    /// Fabric counters.
    pub fabric: FabricBlock,
    /// Transport counters, in total and per kind.
    pub transport: TransportBlock,
}

impl TelemetrySummary {
    /// Fold one cell's result in, charged to its transport kind.
    pub fn add(&mut self, kind: TransportKind, r: &RunResult) {
        self.cells += 1;
        self.events += r.events;
        let s = &mut self.sched;
        s.flow_arrivals += r.sched.flow_arrivals;
        s.fabric_events += r.sched.fabric_events;
        s.qp_timer_events += r.sched.qp_timer_events;
        s.nic_wake_events += r.sched.nic_wake_events;
        s.timer_arms += r.sched.timer_arms;
        s.timer_cancels += r.sched.timer_cancels;
        s.stale_timer_reclaims += r.sched.stale_timer_reclaims;
        s.past_clamps += r.sched.past_clamps;
        let f = &mut self.fabric;
        f.delivered_pkts += r.fabric.delivered_pkts;
        f.delivered_bytes += r.fabric.delivered_bytes;
        f.drops.add(r);
        f.pauses += r.fabric.pauses;
        f.resumes += r.fabric.resumes;
        f.ecn_marked += r.fabric.ecn_marked;
        let t = &mut self.transport;
        t.total.sent += r.transport.sent;
        t.total.retransmitted += r.transport.retransmitted;
        t.total.nacks += r.transport.nacks;
        t.total.timeouts += r.transport.timeouts;
        t.total.cnps += r.transport.cnps;
        let kind = irn_core::transport_name(kind);
        let row = match t.by_kind.iter().position(|c| c.kind == kind) {
            Some(i) => &mut t.by_kind[i],
            None => {
                t.by_kind.push(KindCounters {
                    kind: kind.to_string(),
                    ..KindCounters::default()
                });
                t.by_kind.last_mut().expect("just pushed")
            }
        };
        row.cells += 1;
        row.sent += r.transport.sent;
        row.retransmitted += r.transport.retransmitted;
        row.nacks += r.transport.nacks;
        row.timeouts += r.transport.timeouts;
        row.cnps += r.transport.cnps;
        row.drops.add(r);
        row.pauses += r.fabric.pauses;
        row.ecn_marked += r.fabric.ecn_marked;
    }

    /// The invariants `docs/SCHEMA.md` promises of a block: every
    /// `drops` object satisfies `total = buffer + injected`, and the
    /// `by_kind` rows sum to the block's cell count, to the fabric's
    /// drop, pause and mark counters, and to `transport.total`. The
    /// error names the offending member by its dotted path.
    pub fn check_partitions(&self) -> Result<(), String> {
        let rows = &self.transport.by_kind;
        let row_drops = rows
            .iter()
            .enumerate()
            .map(|(i, c)| (format!("transport.by_kind.[{i}].drops"), c.drops));
        for (path, d) in
            std::iter::once(("fabric.drops".to_string(), self.fabric.drops)).chain(row_drops)
        {
            if d.total != d.buffer + d.injected {
                return Err(format!(
                    "at telemetry.{path}: total {} != buffer {} + injected {}",
                    d.total, d.buffer, d.injected
                ));
            }
        }
        let sum = |f: fn(&KindCounters) -> u64| rows.iter().map(f).sum::<u64>();
        let (fabric, total) = (&self.fabric, &self.transport.total);
        for (member, rows_sum, whole) in [
            ("cells", sum(|c| c.cells), self.cells),
            ("drops.total", sum(|c| c.drops.total), fabric.drops.total),
            ("pauses", sum(|c| c.pauses), fabric.pauses),
            ("ecn_marked", sum(|c| c.ecn_marked), fabric.ecn_marked),
            ("sent", sum(|c| c.sent), total.sent),
            (
                "retransmitted",
                sum(|c| c.retransmitted),
                total.retransmitted,
            ),
            ("nacks", sum(|c| c.nacks), total.nacks),
            ("timeouts", sum(|c| c.timeouts), total.timeouts),
            ("cnps", sum(|c| c.cnps), total.cnps),
        ] {
            if rows_sum != whole {
                return Err(format!(
                    "at telemetry.transport.by_kind: the rows' '{member}' sum to {rows_sum}, \
                     the block's total says {whole}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_core::ExperimentConfig;

    fn result_for(kind: TransportKind) -> RunResult {
        let mut cfg = ExperimentConfig::quick(8);
        cfg.transport = kind;
        irn_core::Simulation::new(cfg).run()
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
        let kinds: Vec<&str> = s
            .transport
            .by_kind
            .iter()
            .map(|c| c.kind.as_str())
            .collect();
        assert_eq!(kinds, ["irn", "roce"]);
        assert_eq!(s.transport.by_kind[0].cells, 2);
        assert_eq!(
            s.transport.total.sent,
            2 * irn.transport.sent + roce.transport.sent
        );
        // Fabric counters charged to kinds partition the fabric sums.
        s.check_partitions().unwrap();
    }

    /// One case per promise: a `drops` object that does not partition
    /// (the fabric's, and a row's), and a row counter that no longer
    /// sums to its total.
    #[test]
    fn broken_partitions_are_named_by_path() {
        let mut s = TelemetrySummary::default();
        s.add(TransportKind::Irn, &result_for(TransportKind::Irn));
        s.add(TransportKind::Roce, &result_for(TransportKind::Roce));
        let broken = |edit: fn(&mut TelemetrySummary)| {
            let mut s = s.clone();
            edit(&mut s);
            s.check_partitions().unwrap_err()
        };
        let err = broken(|s| s.fabric.drops.buffer += 1);
        assert!(err.starts_with("at telemetry.fabric.drops: total"), "{err}");
        let err = broken(|s| s.transport.by_kind[1].drops.injected += 1);
        assert!(
            err.starts_with("at telemetry.transport.by_kind.[1].drops: total"),
            "{err}"
        );
        for (member, edit) in [
            ("cells", (|s| s.cells += 1) as fn(&mut TelemetrySummary)),
            ("drops.total", |s| {
                s.transport.by_kind[0].drops.total += 1;
                s.transport.by_kind[0].drops.buffer += 1;
            }),
            ("pauses", |s| s.fabric.pauses += 1),
            ("ecn_marked", |s| s.transport.by_kind[0].ecn_marked += 1),
            ("sent", |s| s.transport.total.sent += 1),
            ("retransmitted", |s| {
                s.transport.by_kind[1].retransmitted += 1
            }),
            ("nacks", |s| s.transport.total.nacks += 1),
            ("timeouts", |s| s.transport.by_kind[0].timeouts += 1),
            ("cnps", |s| s.transport.total.cnps += 1),
        ] {
            let err = broken(edit);
            assert!(
                err.contains(&format!("by_kind: the rows' '{member}' sum to")),
                "{member}: {err}"
            );
        }
    }

    #[test]
    fn json_block_carries_the_partition() {
        let mut s = TelemetrySummary::default();
        s.add(TransportKind::Irn, &result_for(TransportKind::Irn));
        let back = TelemetrySummary::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        back.check_partitions().unwrap();
        assert_eq!(back.transport.by_kind.len(), 1);
        assert_eq!(back.transport.by_kind[0].kind, "irn");
    }
}
