//! Differential suite for the ladder-queue `Scheduler`.
//!
//! The scheduler's determinism contract — nondecreasing pop times,
//! strict FIFO among simultaneous events, cancelled timers never
//! surfacing — is pinned against the obviously-correct reference: a
//! binary-heap `EventQueue` whose timer expiries carry generation
//! tokens that are filtered at pop (exactly the `TimerSlot` mechanism
//! the engine used before the swap). Random interleavings of
//! push/pop/arm/cancel/peek, and of sequence numbers reserved and
//! pushed under later (or never), must produce identical delivered
//! sequences on both implementations — including runs that lap the
//! ring several times, where every slot's list and pooled entry is
//! reused, and arm- and cancel-heavy mixes inside the ring's horizon,
//! where nearly every dead deadline is unlinked from its bucket by the
//! call that killed it. After every operation the scheduler's entry
//! books balance: pushes == pops + reclaimed + held.
//!
//! The integration half drives the engine through the cells that churn
//! timers hardest. The guarantees the scheduler buys — **zero** stale
//! timer events, nothing scheduled into the past, per-kind counters that
//! add up — are conservation laws audited inside every run
//! (`irn_core::audit`), so a cell here fails if it breaks one.

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, TopologySpec, TrafficModel};
use irn_integration::{run, EventQueue, TimerSlot};
use irn_sim::{Duration, SchedStats, Scheduler, Time, TimerId, RING_SPAN};
use proptest::prelude::*;

const TIMERS: usize = 4;

/// The reference: a binary heap of `(tag, Option<(timer, generation)>)`
/// events with stale generations filtered at pop — the pre-scheduler
/// engine's exact discipline.
struct Reference {
    queue: EventQueue<(u64, Option<(usize, u64)>)>,
    generations: [u64; TIMERS],
    armed: [Option<Time>; TIMERS],
}

impl Reference {
    fn new() -> Reference {
        Reference {
            queue: EventQueue::new(),
            generations: [0; TIMERS],
            armed: [None; TIMERS],
        }
    }

    fn push(&mut self, at: Time, tag: u64) {
        self.queue.push(at, (tag, None));
    }

    fn push_reserved(&mut self, at: Time, seq: u64, tag: u64) {
        self.queue.push_reserved(at, seq, (tag, None));
    }

    fn arm(&mut self, k: usize, deadline: Time, tag: u64) {
        self.generations[k] += 1;
        self.armed[k] = Some(deadline);
        self.queue
            .push(deadline, (tag, Some((k, self.generations[k]))));
    }

    fn cancel(&mut self, k: usize) {
        self.generations[k] += 1;
        self.armed[k] = None;
    }

    fn is_stale(&self, timer: Option<(usize, u64)>) -> bool {
        match timer {
            Some((k, generation)) => self.generations[k] != generation,
            None => false,
        }
    }

    /// Drop stale heads; the heap's front is then the next live event.
    fn settle(&mut self) {
        while let Some((_, &(_, timer))) = self.queue.peek() {
            if self.is_stale(timer) {
                self.queue.pop();
            } else {
                break;
            }
        }
    }

    fn peek_live(&mut self) -> Option<Time> {
        self.settle();
        self.queue.peek_time()
    }

    fn pop_live(&mut self) -> Option<(Time, u64)> {
        self.settle();
        let (t, (tag, timer)) = self.queue.pop()?;
        if let Some((k, _)) = timer {
            self.armed[k] = None; // a delivered expiry consumes the arm
        }
        Some((t, tag))
    }
}

/// One revolution of the scheduler's ring.
const RING_SPAN_NS: u64 = RING_SPAN.as_nanos();

/// Both queues driven in lockstep. `ops` is a flat op stream:
/// `(selector, timer index, time gap)`. Returns the time of the last
/// event delivered and the scheduler's counters.
fn run_differential(ops: &[(usize, usize, u64)]) -> (Time, SchedStats) {
    let mut sched: Scheduler<u64> = Scheduler::new();
    let ids: Vec<TimerId> = (0..TIMERS).map(|_| sched.timer_create()).collect();
    let mut reference = Reference::new();
    // Times only move forward from the frontier: the latest time either
    // implementation has reported. This mirrors the engine contract
    // (handlers schedule relative to the popped "now") and keeps the
    // reference heap's past-clamp out of play.
    let mut frontier = Time::ZERO;
    let mut tag = 0u64;
    // Sequence numbers taken and not yet pushed under. Whatever is
    // left here at the end was never scheduled and must not show.
    let mut reserved: Vec<u64> = Vec::new();

    for &(sel, k, gap) in ops {
        let at = frontier + Duration::nanos(gap);
        match sel {
            // Plain push.
            0 => {
                tag += 1;
                sched.push(at, tag);
                reference.push(at, tag);
            }
            // Arm (supersede) timer k.
            1 => {
                tag += 1;
                sched.timer_arm(ids[k], at, tag);
                reference.arm(k, at, tag);
                assert_eq!(sched.timer_deadline(ids[k]), Some(at));
            }
            // Cancel timer k.
            2 => {
                sched.timer_cancel(ids[k]);
                reference.cancel(k);
                assert_eq!(sched.timer_deadline(ids[k]), None);
            }
            // Pop one delivered event.
            3 => {
                let got = sched.pop();
                let want = reference.pop_live();
                assert_eq!(got, want, "pop diverged");
                if let Some((t, _)) = got {
                    frontier = frontier.max(t);
                }
            }
            // Peek the next live timestamp.
            4 => {
                let got = sched.peek_time();
                let want = reference.peek_live();
                assert_eq!(got, want, "peek diverged");
                if let Some(t) = got {
                    frontier = frontier.max(t);
                }
            }
            // Reserve a sequence number; both sides hand out the same.
            5 => {
                let seq = sched.reserve();
                assert_eq!(seq, reference.queue.reserve(), "reserve diverged");
                reserved.push(seq);
            }
            // Push under a reserved number. With `gap == 0` after a pop
            // this lands at "now" below the key just popped: it must
            // come out next, which the following pops check.
            _ => {
                if !reserved.is_empty() {
                    let seq = reserved.swap_remove(k % reserved.len());
                    tag += 1;
                    sched.push_reserved(at, seq, tag);
                    reference.push_reserved(at, seq, tag);
                }
            }
        }
        // The reference heap's clock advances over the *stale* entries
        // it drains (pre-scheduler engine semantics: stale expiries
        // were delivered and discarded, moving time). Keep the frontier
        // at or past it so generated times are legal for both sides —
        // the engine's own schedules always derive from a delivered
        // event's time, which satisfies this by construction.
        frontier = frontier.max(reference.queue.now());
        // Every entry pushed was popped, was removed dead, or is still
        // held: a dead deadline in the ring leaves with its cancel.
        let stats = sched.stats();
        assert_eq!(
            stats.pushes,
            stats.pops + stats.stale_skips + sched.held() as u64,
            "entry books"
        );
        // The live-event count must track the reference's armed state
        // exactly (cheap invariant; full equality is checked by the
        // drain below).
        for (idx, id) in ids.iter().enumerate() {
            assert_eq!(
                sched.timer_deadline(*id),
                reference.armed[idx],
                "armed-deadline mirror diverged for timer {idx}"
            );
        }
    }

    // Full drain: every remaining live event must match, in order.
    loop {
        let got = sched.pop();
        let want = reference.pop_live();
        assert_eq!(got, want, "drain diverged");
        if got.is_none() {
            break;
        }
    }
    assert!(sched.is_empty());
    assert_eq!(sched.held(), 0, "a drained scheduler holds nothing");
    // Every entry that went in came out or was a reclaimed tombstone:
    // unused reservations are in neither count.
    let stats = sched.stats();
    assert_eq!(stats.pushes, stats.pops + stats.stale_skips);
    assert_eq!(stats.pushes, tag);
    (sched.now(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random push/pop/arm/cancel/peek/reserve interleavings: the ladder queue
    /// and the heap+generation reference must deliver identical event
    /// sequences (times, payloads, and FIFO tie-breaks).
    #[test]
    fn scheduler_matches_heap_reference(
        ops in proptest::collection::vec((0usize..7, 0usize..TIMERS, 0u64..3_000), 1..400),
    ) {
        run_differential(&ops);
    }

    /// Tie-heavy variant: tiny gap range forces many simultaneous
    /// events, exercising the FIFO tie-break across bucket sorts,
    /// due-run merges, and the heap's sequence numbers.
    #[test]
    fn scheduler_matches_reference_under_heavy_ties(
        ops in proptest::collection::vec((0usize..7, 0usize..TIMERS, 0u64..3), 1..400),
    ) {
        run_differential(&ops);
    }

    /// Far-horizon variant: gaps past the ring horizon park events in
    /// the overflow level, exercising cascades against the reference.
    /// Every case opens with a push two revolutions out, which only a
    /// cascade can bring back.
    #[test]
    fn scheduler_matches_reference_across_cascades(
        ops in proptest::collection::vec((0usize..7, 0usize..TIMERS, 0u64..3 * RING_SPAN_NS), 1..200),
    ) {
        let ops: Vec<_> = std::iter::once((0, 0, 2 * RING_SPAN_NS)).chain(ops).collect();
        let (_, stats) = run_differential(&ops);
        prop_assert!(stats.cascades >= 1, "no cascade ran");
    }

    /// Timer-churn variant: arms and cancels outnumber everything else
    /// and every deadline falls inside the ring horizon, so nearly every
    /// dead deadline is unlinked from its bucket by the call that killed
    /// it. Pops open buckets while the churn goes on, so some die in the
    /// open `due` run instead.
    #[test]
    fn scheduler_matches_reference_under_timer_churn_in_the_ring(
        ops in proptest::collection::vec((0usize..10, 0usize..TIMERS, 0u64..RING_SPAN_NS / 2), 1..400),
    ) {
        run_differential(&churn(&ops));
    }

    /// Timer-churn variant with deadlines a few buckets apart: lists
    /// hold several entries, so unlinks hit their heads, middles and
    /// tails, and re-arms land in the bucket they left.
    #[test]
    fn scheduler_matches_reference_under_timer_churn_in_few_buckets(
        ops in proptest::collection::vec((0usize..10, 0usize..TIMERS, 0u64..200), 1..400),
    ) {
        run_differential(&churn(&ops));
    }

    /// Many-revolution variant: a pop follows every op, so the clock
    /// keeps pace with the pushes and the run laps the ~1 ms ring
    /// several times, reusing each slot's list and the pooled entries
    /// earlier laps freed.
    #[test]
    fn scheduler_matches_reference_over_many_revolutions(
        ops in proptest::collection::vec((0usize..7, 0usize..TIMERS, 0u64..100_000), 400..800),
    ) {
        let ops: Vec<_> = ops.iter().flat_map(|&op| [op, (3, 0, 0)]).collect();
        let (reached, _) = run_differential(&ops);
        prop_assert!(
            reached.as_nanos() >= 3 * RING_SPAN_NS,
            "the run reached only {reached}"
        );
    }
}

/// Map a selector in `0..10` onto an arm- and cancel-heavy mix: four
/// arms, three cancels, two pops and one plain push in ten.
fn churn(ops: &[(usize, usize, u64)]) -> Vec<(usize, usize, u64)> {
    const MIX: [usize; 10] = [1, 1, 1, 1, 2, 2, 2, 3, 3, 0];
    ops.iter()
        .map(|&(sel, k, gap)| (MIX[sel], k, gap))
        .collect()
}

/// A cancelled deadline never surfaces, even when re-arms raced it
/// through bucket boundaries (the unit-level guarantee the proptest
/// covers statistically, pinned deterministically here).
#[test]
fn cancelled_deadlines_never_surface() {
    let mut s: Scheduler<&'static str> = Scheduler::new();
    let t = s.timer_create();
    // Arm, supersede across the ring horizon, cancel, re-arm nearby.
    s.timer_arm(t, Time::from_nanos(100), "gen1");
    s.timer_arm(t, Time::ZERO + Duration::millis(50), "gen2-overflow");
    s.timer_cancel(t);
    s.timer_arm(t, Time::from_nanos(300), "gen3");
    s.push(Time::from_nanos(200), "data");
    let delivered: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
    assert_eq!(
        delivered,
        vec![
            (Time::from_nanos(200), "data"),
            (Time::from_nanos(300), "gen3"),
        ]
    );
    assert_eq!(s.stats().stale_skips, 2, "both dead generations reclaimed");
}

/// The legacy `TimerSlot` reference semantics themselves (arm → stale
/// generation filtered) still hold — the differential suite depends on
/// the reference being right.
#[test]
fn timer_slot_reference_filters_stale_generations() {
    let mut slot = TimerSlot::new();
    let g1 = slot.arm(Time::from_nanos(10));
    let g2 = slot.arm(Time::from_nanos(20));
    assert!(!slot.fires(g1));
    assert!(slot.fires(g2));
}

// ---------------------------------------------------------------------
// Engine-level guarantees (the integration half).
// ---------------------------------------------------------------------

fn poisson_cfg(transport: TransportKind, pfc: bool, cc: CcKind) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologySpec::FatTree(4),
        traffic: TrafficModel::Poisson {
            load: 0.8,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 150,
        },
        ..ExperimentConfig::paper_default(150)
    }
    .with_transport(transport)
    .with_pfc(pfc)
    .with_cc(cc)
}

/// Steady-state runs pop zero stale timer events and clamp zero
/// past-scheduled events — across every transport family, with and
/// without losses (no-PFC runs retransmit heavily, churning timers).
/// The audit inside each run checks both, and the timer hygiene.
#[test]
fn runs_deliver_no_stale_timers_and_no_past_clamps() {
    let matrix = [
        (TransportKind::Irn, false, CcKind::None),
        (TransportKind::Irn, true, CcKind::Timely),
        (TransportKind::Roce, false, CcKind::None),
        (TransportKind::Roce, true, CcKind::Dcqcn),
        (TransportKind::IwarpTcp, false, CcKind::None),
    ];
    for (transport, pfc, cc) in matrix {
        let r = run(poisson_cfg(transport, pfc, cc));
        assert_eq!(r.summary.flows, 150, "{transport:?} pfc={pfc}");
        assert_eq!(r.sched.flow_arrivals, 150);
    }
}

/// Lossy runs churn retransmission timers hard: the scheduler must be
/// reclaiming superseded deadlines (the events the old engine scheduled,
/// popped, and discarded) without ever delivering one.
#[test]
fn lossy_run_reclaims_superseded_timers_internally() {
    let cfg = ExperimentConfig {
        topology: TopologySpec::FatTree(4),
        traffic: TrafficModel::Poisson {
            load: 0.9,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 300,
        },
        buffer_bytes: 60_000, // small buffers to force drops
        ..ExperimentConfig::paper_default(300)
    }
    .with_transport(TransportKind::Irn)
    .with_pfc(false);
    let r = run(cfg);
    assert!(
        r.transport.retransmitted > 0,
        "no-PFC with tiny buffers at 90% load must retransmit"
    );
    assert!(r.sched.timer_arms > 0, "retransmission timers were armed");
    assert!(
        r.sched.stale_timer_reclaims > 0,
        "superseded deadlines should be reclaimed internally, \
         not scheduled-and-filtered"
    );
}

/// The incast path (fig9's workload) exercises cancel-on-completion for
/// hundreds of synchronized flows; none of those cancels may surface,
/// which the audit inside the run checks.
#[test]
fn incast_run_is_stale_free() {
    let cfg = ExperimentConfig {
        topology: TopologySpec::FatTree(4),
        traffic: TrafficModel::Incast {
            m: 8,
            total_bytes: 4_000_000,
        },
        ..ExperimentConfig::paper_default(8)
    }
    .with_transport(TransportKind::Irn)
    .with_pfc(false);
    let r = run(cfg);
    assert_eq!(r.summary.flows, 8);
}
