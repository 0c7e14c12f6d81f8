//! The `irn-metrics` wire forms, pinned byte for byte.
//!
//! `fixtures/wire-bytes.tsv` holds one `name<TAB>json` line per shape,
//! written by the hand-paired writers these forms had before they were
//! derived structs. Every shape must still encode to exactly those
//! bytes and read back to a value that encodes to them again; a byte
//! that moves here moves every `result-v1` frame and every envelope.

use irn_metrics::{AppMetrics, FlowRecord, LogHistogram, MetricsCollector};
use irn_sim::{Duration, Time};
use serde::{Deserialize, Serialize};

fn rec(flow: u32, packets: u32, start_ns: u64, fct_ns: u64, ideal_ns: u64) -> FlowRecord {
    FlowRecord {
        flow,
        bytes: packets as u64 * 1000,
        packets,
        start: Time::ZERO + Duration::nanos(start_ns),
        finish: Time::ZERO + Duration::nanos(start_ns + fct_ns),
        ideal: Duration::nanos(ideal_ns),
    }
}

fn one(packets: u32, fct_ns: u64, ideal_ns: u64) -> MetricsCollector {
    let mut m = MetricsCollector::new();
    m.record(rec(0, packets, 1_000, fct_ns, ideal_ns));
    m
}

/// Forty flows; with `single`, every third is a single-packet flow.
fn many(single: bool) -> MetricsCollector {
    let mut m = MetricsCollector::new();
    for i in 0..40u32 {
        let packets = if single { 1 + i % 3 } else { 2 + i % 3 };
        let i = i as u64;
        m.record(rec(
            i as u32,
            packets,
            i * 997,
            3_000 + (i * 7919) % 250_000,
            2_000 + i * 13,
        ));
    }
    m
}

fn fixture(name: &str) -> String {
    include_str!("fixtures/wire-bytes.tsv")
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix('\t'))
        .unwrap_or_else(|| panic!("no fixture line for {name}"))
        .to_string()
}

/// `value` encodes to the pinned bytes, and so does what they read back as.
fn pinned<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(name: &str, value: T) {
    let want = fixture(name);
    assert_eq!(serde::json::to_string(&value), want, "{name}: bytes moved");
    let back: T = serde::from_json_str(&want).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(back, value, "{name}: the read is not the value written");
    assert_eq!(serde::json::to_string(&back), want, "{name}: round trip");
}

#[test]
fn collector_wire_bytes_are_pinned() {
    pinned("empty", MetricsCollector::new());
    pinned("one_multi", one(3, 52_345, 10_000));
    pinned("one_single", one(1, 4_321, 1_200));
    pinned("many_multi", many(false));
    pinned("many_single", many(true));
}

#[test]
fn app_metrics_wire_bytes_are_pinned() {
    let mut empty = AppMetrics::default();
    for _ in 0..3 {
        empty.record_phase();
    }
    pinned("app_empty", empty);
    let mut full = AppMetrics::default();
    for l in [5_000u64, 80_000, 80_000, 2_000_000, 123_456_789] {
        full.record_op(l);
    }
    full.record_phase();
    pinned("app_full", full);
}

#[test]
fn histogram_wire_bytes_are_pinned() {
    let mut h = LogHistogram::default();
    for v in [0u64, 1, 63, 64, 1000, 1000, 123_456_789, u64::MAX] {
        h.record(v);
    }
    pinned("hist", h);
}
