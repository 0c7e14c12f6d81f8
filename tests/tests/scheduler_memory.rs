//! Scheduler memory follows what is pending, not the virtual time a run
//! covers.
//!
//! The ladder ring keeps its entries in one pooled store whose indices
//! are freed as each bucket opens, so a run that pushes four times the
//! events through the same population of flows needs no more heap. A
//! counting global allocator (this test binary's alone) reads the peak
//! of one k=4 shuffle round at two flow sizes 4× apart: a scheduler
//! that kept every bucket's high-water buffer, once per slot the run
//! crossed, grew about 4× with the flow size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use irn_core::sim::Duration;
use irn_core::{ExperimentConfig, TopologySpec, TrafficModel};
use irn_integration::run;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
            PEAK.fetch_max(live, SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), SeqCst);
            let live = LIVE.fetch_add(new_size, SeqCst) + new_size;
            PEAK.fetch_max(live, SeqCst);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap above what was live before, over one shuffle round on a
/// k=4 fat-tree (16 hosts, one flow each) of `flow_bytes` per flow.
fn peak_heap_of_one_shuffle_round(flow_bytes: u64) -> usize {
    let cfg = ExperimentConfig {
        topology: TopologySpec::FatTree(4),
        traffic: TrafficModel::Shuffle {
            flow_bytes,
            rounds: 1,
            round_gap: Duration::ZERO,
        },
        ..ExperimentConfig::paper_default(16)
    };
    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    let result = run(cfg);
    let peak = PEAK.load(SeqCst) - before;
    assert_eq!(result.summary.flows, 16, "{flow_bytes} B flows");
    peak
}

#[test]
fn peak_heap_does_not_grow_with_virtual_time() {
    let short = peak_heap_of_one_shuffle_round(100_000);
    let long = peak_heap_of_one_shuffle_round(400_000);
    assert!(
        long as f64 <= 1.25 * short as f64,
        "peak heap {long} B for 400 KB flows against {short} B for 100 KB flows"
    );
}
