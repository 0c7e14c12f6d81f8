//! A flow costs no heap while it lives.
//!
//! A flow's state is one slab slot: its spec, sender and receiver, with
//! the sender's SACK bitmap and the receiver's two bitmap planes held in
//! place up to 256 bits. Each bitmap is sized by what its transport can
//! address: IRN's SACK bitmap by the BDP cap (110 packets by default)
//! whatever the flow's length, a sender without BDP-FC and the TCP
//! receiver by the flow, the RDMA receiver by the BDP cap and at least
//! 256 bits. So an IRN flow at the default cap of any length, and every
//! flow of at most 256 packets, fits in place. Slots are recycled and the flow → slot map spans only
//! the live id window, so once a run is warm more flows allocate
//! nothing. A counting global allocator (this test binary's alone)
//! counts the allocation calls of two runs at one load, the second with
//! four times the flows. With the bitmaps on the heap each mouse made
//! three allocations, about 36 000 between the two mice runs; with the
//! SACK bitmap sized by the flow, each IRN flow over 256 packets made
//! one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use irn_core::transport::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, TrafficModel};
use irn_integration::run;

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

/// Allocation calls over one run of `flows` Poisson flows of `bytes`
/// each at 30 % load on a k=4 fat-tree.
fn allocations_of(transport: TransportKind, flows: usize, bytes: u64) -> usize {
    let cfg = ExperimentConfig::quick(flows)
        .with_transport(transport)
        .with_traffic(TrafficModel::Poisson {
            load: 0.3,
            sizes: SizeDistribution::Fixed(bytes),
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
    // (transport, flows, bytes per flow): single-packet mice, then
    // 300-packet flows (1 000 B MTU), past the 256 bits a bitmap holds
    // in place, which BDP-FC keeps below 110 SACK offsets.
    let cases = [
        (TransportKind::Irn, 4_000, 1_000),
        (TransportKind::Roce, 4_000, 1_000),
        (TransportKind::IwarpTcp, 4_000, 1_000),
        (TransportKind::Irn, 64, 300_000),
        (TransportKind::IrnGoBackN, 64, 300_000),
    ];
    assert_eq!(ExperimentConfig::quick(1).mtu, 1_000);
    for (transport, n, bytes) in cases {
        let small = allocations_of(transport, n, bytes);
        let large = allocations_of(transport, 4 * n, bytes);
        assert!(
            large.saturating_sub(small) <= 16,
            "{transport:?}, {bytes} B flows: {small} allocations at {n} flows, {large} at {} flows",
            4 * n
        );
    }
}
