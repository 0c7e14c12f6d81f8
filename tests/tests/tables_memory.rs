//! Routing tables are sized by switches × attachment switches, built in
//! a fixed number of allocations.
//!
//! `NetTables::build` sizes every table before it fills it, so the
//! number of allocations does not depend on the topology, and its
//! peak heap follows switches × attachment switches rather than
//! switches × hosts. A counting global allocator (this test binary's
//! alone) reads both; set-up is gated on counts, not on a timer. A
//! build keyed by destination host peaked at 1.54 GB at k=32.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use irn_core::net::{NetTables, Topology};

/// The system allocator, counting calls, live bytes and their
/// high-water mark.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            CALLS.fetch_add(1, SeqCst);
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
            CALLS.fetch_add(1, SeqCst);
            LIVE.fetch_sub(layout.size(), SeqCst);
            let live = LIVE.fetch_add(new_size, SeqCst) + new_size;
            PEAK.fetch_max(live, SeqCst);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation calls and peak heap above what was live before, over one
/// `NetTables::build` of a k-ary fat-tree (the topology is built first
/// and not counted).
fn build_cost(k: usize) -> (usize, usize) {
    let topo = Topology::fat_tree(k);
    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    let calls = CALLS.load(SeqCst);
    let tables = NetTables::build(&topo);
    let cost = (CALLS.load(SeqCst) - calls, PEAK.load(SeqCst) - before);
    assert_eq!(tables.routes.diameter_hops, 6, "k={k}");
    cost
}

/// One test, so no other test's allocations land in the counters.
#[test]
fn tables_build_in_fixed_allocations_and_bounded_heap() {
    let (calls_4, _) = build_cost(4);
    let (calls_8, _) = build_cost(8);
    let (calls_16, peak_16) = build_cost(16);
    assert_eq!(
        (calls_8, calls_16),
        (calls_4, calls_4),
        "allocations at k=8 and k=16 against k=4"
    );
    assert!(
        peak_16 <= 1_000_000,
        "k=16 tables peaked at {peak_16} B, above 1 MB"
    );
    let (calls_32, peak_32) = build_cost(32);
    assert_eq!(calls_32, calls_4, "allocations at k=32 against k=4");
    assert!(
        peak_32 <= 64_000_000,
        "k=32 tables peaked at {peak_32} B, above 64 MB"
    );
}
