//! The `memory-v1` gauge: the analytic peak-memory accounting every
//! run already carries ([`irn_core::MemoryStats`]) folded into one
//! summary per artifact, and serialized as the gauge file behind
//! `repro --memory-json FILE` / `repro diff-memory`.
//!
//! Everything here is a pure fold of deterministic `RunResult` fields
//! — the gauge is byte-identical at any `--jobs` value and across any
//! worker fleet of the same build (the byte counts come from
//! `size_of`, so they are platform/build-specific, not run-specific).
//! That is why, unlike the `bench-trajectory-v1` timing file, the
//! envelope records no job count and carries determinism class
//! `deterministic`. The structs are the serialized shape, documented
//! in `docs/SCHEMA.md`.

use crate::artifacts::{pretty, BatchRun};
use crate::scale::Scale;
use irn_core::RunResult;
use serde::{de_field, json, Deserialize, Serialize};

/// Per-flow bytes of the pre-slab engine layout, the baseline the gauge
/// is judged against: a retained `FlowRecord` plus `Option<sender>` /
/// `Option<receiver>` / `Option<TimerId>` slots sized to the total flow
/// count. A recorded number, not a `size_of` sum: a baseline must not
/// move when today's sender and receiver types do.
pub const LEGACY_PER_FLOW_BYTES: u64 = 840;

/// The memory gauge for one artifact (or one scenario batch) — one
/// `artifacts` row of the `memory-v1` file: peak state over every
/// cell's `RunResult`, plus the worst per-flow cost.
///
/// Peaks take the **max** over cells — cells run concurrently under
/// `--jobs`, but the gauge tracks the per-cell high-water mark, which
/// is what bounds a single million-flow simulation. Flows sum, so
/// `flows` is the artifact's total completed-flow volume.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemorySummary {
    /// Artifact name or scenario slug.
    pub artifact: String,
    /// Cells folded into this gauge.
    pub cells: u64,
    /// Completed flows summed over those cells.
    pub flows: u64,
    /// Largest per-cell peak of slab + histogram bytes.
    pub peak_bytes: u64,
    /// Largest per-cell peak of live flow-slab bytes.
    pub peak_flow_state_bytes: u64,
    /// Largest per-cell metrics-histogram heap footprint.
    pub metrics_bytes: u64,
    /// Largest per-cell allocated histogram bucket count.
    pub hist_buckets: u64,
    /// Largest per-cell peak footprint of the fabric's packet arena.
    pub pkt_pool_bytes: u64,
    /// Largest per-cell high-water mark of packets simultaneously in
    /// flight (peak arena occupancy).
    pub pkt_pool_pkts: u64,
    /// Worst per-cell `peak_bytes / flows` ratio — the headline the
    /// diet is judged by (see `MemoryStats::bytes_per_flow`).
    pub bytes_per_flow: f64,
}

impl MemorySummary {
    /// Fold one cell's gauge into the artifact summary.
    pub fn add(&mut self, r: &RunResult) {
        self.cells += 1;
        self.flows += r.memory.flows;
        self.peak_bytes = self.peak_bytes.max(r.memory.peak_bytes());
        self.peak_flow_state_bytes = self
            .peak_flow_state_bytes
            .max(r.memory.peak_flow_state_bytes);
        self.metrics_bytes = self.metrics_bytes.max(r.memory.metrics_bytes);
        self.hist_buckets = self.hist_buckets.max(r.memory.hist_buckets);
        self.pkt_pool_bytes = self.pkt_pool_bytes.max(r.memory.pkt_pool_bytes);
        self.pkt_pool_pkts = self.pkt_pool_pkts.max(r.memory.pkt_pool_pkts);
        self.bytes_per_flow = self.bytes_per_flow.max(r.memory.bytes_per_flow());
    }
}

/// The `memory-v1` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryGauge {
    /// Always `"memory-v1"`.
    pub schema: String,
    /// Always `"deterministic"`.
    pub determinism: String,
    /// As in the artifact envelope.
    pub scale: String,
    /// As in the artifact envelope.
    pub seeds: u64,
    /// The pre-refactor per-flow-record baseline
    /// ([`LEGACY_PER_FLOW_BYTES`]) the ratios are judged against.
    pub legacy_per_flow_bytes: u64,
    /// One row per artifact that ran cells.
    pub artifacts: Vec<MemorySummary>,
}

/// Serialize a batch's memory gauges as the `memory-v1` JSON
/// (pretty-printed, trailing newline): one record per simulation-backed
/// artifact; an artifact that ran no cells contributes no row. Unlike
/// the timing file, these bytes are **deterministic**: identical at any
/// `--jobs` and across any worker fleet of the same build.
pub fn memory_json(batch: &BatchRun, scale: &Scale) -> String {
    let gauges = batch.items.iter().filter_map(|i| i.memory.clone());
    pretty(&MemoryGauge {
        schema: "memory-v1".to_string(),
        determinism: "deterministic".to_string(),
        scale: scale.label().to_string(),
        seeds: scale.seeds as u64,
        legacy_per_flow_bytes: LEGACY_PER_FLOW_BYTES,
        artifacts: gauges.collect(),
    })
}

/// Read a `memory-v1` file: the schema tag, then the strict typed read
/// every derived format gets. Returns a human-readable error
/// referencing `docs/SCHEMA.md`.
pub fn verify_memory_json(text: &str) -> Result<MemoryGauge, String> {
    let read = || {
        let v = json::from_str(text).map_err(|e| e.to_string())?;
        // The tag says which shape to expect, so it is read first.
        if de_field::<String>(&v, "schema").ok().as_deref() != Some("memory-v1") {
            return Err("not a memory-v1 file".to_string());
        }
        MemoryGauge::from_json(&v).map_err(|e| e.to_string())
    };
    read().map_err(|msg| format!("{msg} (see docs/SCHEMA.md)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_core::MemoryStats;

    fn result_with(memory: MemoryStats) -> RunResult {
        let mut r = irn_core::run(
            irn_core::ExperimentConfig::quick(2)
                .with_transport(irn_core::transport::config::TransportKind::Irn),
        );
        r.memory = memory;
        r
    }

    #[test]
    fn summary_folds_max_peaks_and_summed_flows() {
        let mut s = MemorySummary::default();
        s.add(&result_with(MemoryStats {
            peak_flow_state_bytes: 100,
            metrics_bytes: 50,
            flows: 10,
            hist_buckets: 8,
            pkt_pool_bytes: 0,
            pkt_pool_pkts: 3,
        }));
        s.add(&result_with(MemoryStats {
            peak_flow_state_bytes: 40,
            metrics_bytes: 300,
            flows: 5,
            hist_buckets: 2,
            pkt_pool_bytes: 64,
            pkt_pool_pkts: 1,
        }));
        assert_eq!(s.cells, 2);
        assert_eq!(s.flows, 15);
        // Peaks are per-cell maxima, not sums: 100+50+0=150 vs
        // 40+300+64=404. Pool fields fold independently: bytes from
        // cell 2, packet high-water from cell 1.
        assert_eq!(s.peak_bytes, 404);
        assert_eq!(s.peak_flow_state_bytes, 100);
        assert_eq!(s.metrics_bytes, 300);
        assert_eq!(s.hist_buckets, 8);
        assert_eq!(s.pkt_pool_bytes, 64);
        assert_eq!(s.pkt_pool_pkts, 3);
        // Worst ratio is cell 2's 404/5 = 80.8.
        assert!((s.bytes_per_flow - 80.8).abs() < 1e-12);
    }

    #[test]
    fn verify_accepts_round_trip_and_rejects_garbage() {
        let text = r#"{
            "schema": "memory-v1",
            "determinism": "deterministic",
            "scale": "quick",
            "seeds": 2,
            "legacy_per_flow_bytes": 100,
            "artifacts": [
                {"artifact": "fig2", "cells": 4, "flows": 800,
                 "peak_bytes": 40000, "peak_flow_state_bytes": 9000,
                 "metrics_bytes": 31000, "hist_buckets": 120,
                 "pkt_pool_bytes": 1000, "pkt_pool_pkts": 10,
                 "bytes_per_flow": 200.0}
            ]
        }"#;
        let gauge = verify_memory_json(text).expect("valid gauge accepted");
        assert_eq!(gauge.artifacts[0].artifact, "fig2");
        assert_eq!(
            pretty(&gauge),
            pretty(&verify_memory_json(&pretty(&gauge)).unwrap())
        );
        let rejects = |text: &str, what: &str| {
            let err = verify_memory_json(text).unwrap_err();
            assert!(err.contains(what), "{err}");
            assert!(err.contains("docs/SCHEMA.md"), "{err}");
        };
        rejects("{", "JSON parse error");
        rejects("{}", "not a memory-v1 file");
        rejects(
            &text.replace("memory-v1", "memory-v2"),
            "not a memory-v1 file",
        );
        rejects(r#"{"schema":"memory-v1"}"#, "at determinism:");
        // A stray key in a row, a row without `cells`, a row written
        // before the packet arena existed: each is named by its path.
        rejects(
            &text.replace(r#""cells": 4,"#, r#""cells": 4, "extra": 1,"#),
            "at artifacts.[0].extra: unknown field",
        );
        rejects(
            &text.replace(r#""cells": 4,"#, ""),
            "at artifacts.[0].cells: expected a non-negative integer, got null",
        );
        rejects(
            &text.replace(r#""pkt_pool_bytes": 1000, "pkt_pool_pkts": 10,"#, ""),
            "at artifacts.[0].pkt_pool_bytes:",
        );
        rejects(
            &text.replace(r#""seeds": 2,"#, r#""seeds": 2, "seeds": 3,"#),
            "at seeds: duplicate field",
        );
    }
}
