//! A flow costs no heap while it lives.
//!
//! A flow's state is one slab slot: its spec, sender and receiver, with
//! the sender's SACK bitmap and the receiver's two bitmap planes held in
//! place up to 256 bits, which covers the default BDP cap and every
//! flow of at most 256 packets. Slots are recycled and the flow → slot
//! map spans only the live id window, so once a run is warm another
//! thousand flows allocate nothing. A counting global allocator (this
//! test binary's alone) counts the allocation calls of two runs at one
//! load, the second with four times the flows. With the bitmaps on the
//! heap each flow made three allocations, about 36 000 between these
//! two runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use irn_core::transport::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{run, ExperimentConfig, TrafficModel};

/// The system allocator, counting allocation calls (a `realloc` is
/// one: it may move the block).
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter
// only observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, SeqCst);
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation calls over one run of `flows` single-packet (1 KB)
/// Poisson flows at 30 % load on a k=4 fat-tree.
fn allocations_of_mice(transport: TransportKind, flows: usize) -> usize {
    let cfg = ExperimentConfig::quick(flows)
        .with_transport(transport)
        .with_traffic(TrafficModel::Poisson {
            load: 0.3,
            sizes: SizeDistribution::Fixed(1_000),
            flow_count: flows,
        });
    let before = CALLS.load(SeqCst);
    let result = run(cfg);
    let calls = CALLS.load(SeqCst) - before;
    assert_eq!(result.summary.flows, flows);
    calls
}

#[test]
fn flows_at_the_default_bdp_cap_allocate_nothing() {
    for transport in [TransportKind::Irn, TransportKind::Roce] {
        let n = 4_000;
        let small = allocations_of_mice(transport, n);
        let large = allocations_of_mice(transport, 4 * n);
        assert!(
            large.saturating_sub(small) <= 16,
            "{transport:?}: {small} allocations at {n} flows, {large} at {} flows",
            4 * n
        );
    }
}
