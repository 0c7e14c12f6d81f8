//! Tier-1 determinism guard for the event-queue/RNG layer: the same
//! `ExperimentConfig` (same seed) must produce **bit-identical**
//! `RunResult`s across two independent runs. A regression here —
//! iteration over an unordered map, a stray `HashMap` tie-break, wall
//! clock or OS entropy leaking in — silently invalidates every
//! experiment comparison in the paper reproduction, so it is pinned at
//! the cheapest possible scale.

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::RunResult;
use irn_integration::{quick_cfg, run};

/// Assert full bit-identity of two runs, field by field so a failure
/// names the layer that diverged.
fn assert_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.events, b.events, "{what}: event count diverged");
    assert_eq!(a.summary, b.summary, "{what}: summary diverged");
    assert_eq!(a.fabric, b.fabric, "{what}: fabric counters diverged");
    assert_eq!(
        a.transport, b.transport,
        "{what}: transport counters diverged"
    );
    assert_eq!(
        a.finished_at, b.finished_at,
        "{what}: completion time diverged"
    );
    assert_eq!(
        a.metrics, b.metrics,
        "{what}: streaming metrics state diverged"
    );
    assert_eq!(a.memory, b.memory, "{what}: memory gauge diverged");
}

/// Same config + seed ⇒ bit-identical results, for every transport and
/// both PFC settings.
#[test]
fn identical_seeds_give_identical_runs() {
    for (t, pfc) in [
        (TransportKind::Irn, false),
        (TransportKind::Roce, true),
        (TransportKind::IwarpTcp, false),
    ] {
        let mk = || quick_cfg(40).with_transport(t).with_pfc(pfc);
        let a = run(mk());
        let b = run(mk());
        assert_identical(&a, &b, &format!("{t:?} pfc={pfc}"));
    }
}

/// Congestion control adds its own clocks and coin flips; pin those too.
#[test]
fn identical_seeds_give_identical_runs_with_cc() {
    for cc in [CcKind::Timely, CcKind::Dcqcn] {
        let mk = || {
            quick_cfg(40)
                .with_transport(TransportKind::Irn)
                .with_pfc(false)
                .with_cc(cc)
        };
        assert_identical(&run(mk()), &run(mk()), &format!("{cc:?}"));
    }
}

/// Different seeds must actually change the run — otherwise the seed is
/// dead and the determinism assertions above prove nothing.
#[test]
fn different_seeds_give_different_runs() {
    let base = || {
        quick_cfg(40)
            .with_transport(TransportKind::Irn)
            .with_pfc(false)
    };
    let a = run(base().with_seed(1));
    let b = run(base().with_seed(2));
    assert_ne!(
        (a.events, a.finished_at),
        (b.events, b.finished_at),
        "changing the seed changed nothing — RNG is disconnected"
    );
}

/// A config clone run after another simulation has already executed in
/// the same process must still match: no hidden global state.
#[test]
fn runs_are_order_independent() {
    let mk = |seed: u64| {
        quick_cfg(30)
            .with_transport(TransportKind::Irn)
            .with_pfc(false)
            .with_seed(seed)
    };
    let first = run(mk(7));
    let _interleaved = run(mk(99));
    let again = run(mk(7));
    assert_identical(&first, &again, "seed 7 after interleaved run");
}
