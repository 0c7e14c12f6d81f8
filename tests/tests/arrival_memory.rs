//! Engine memory follows the flows in flight, not the workload's size.
//!
//! Arrivals stream from the traffic model as the run reaches them, a
//! flow's spec lives in its slot only while it runs, and the flow →
//! slot map spans only the ids from the oldest unretired flow to the
//! newest started one, so the engine keeps no heap per flow of the
//! whole workload. A counting global allocator (this test binary's
//! alone) reads the peak of two Poisson runs at one load, the second
//! with four times the flows. A map with an entry for every flow grows
//! by 4 B per extra flow here, and an engine that holds the flow list
//! and an arrival order by 32 B.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, TrafficModel};
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

/// Peak heap above what was live before, over one run of `flows`
/// single-packet (1 KB) Poisson flows at 30 % load on a k=4 fat-tree.
fn peak_heap_of_mice(flows: usize) -> usize {
    let cfg = ExperimentConfig::quick(flows).with_traffic(TrafficModel::Poisson {
        load: 0.3,
        sizes: SizeDistribution::Fixed(1_000),
        flow_count: flows,
    });
    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    let result = run(cfg);
    let peak = PEAK.load(SeqCst) - before;
    assert_eq!(result.summary.flows, flows);
    peak
}

#[test]
fn peak_heap_grows_by_at_most_1_byte_per_flow() {
    // Measure after a first run, so that nothing a run leaves behind
    // once per process counts.
    peak_heap_of_mice(100);
    let n = 4_000;
    let small = peak_heap_of_mice(n);
    let large = peak_heap_of_mice(4 * n);
    let per_flow = large.saturating_sub(small) as f64 / (3 * n) as f64;
    assert!(
        per_flow <= 1.0,
        "peak heap {small} B at {n} flows, {large} B at {} flows: {per_flow:.1} B per extra flow",
        4 * n
    );
}
