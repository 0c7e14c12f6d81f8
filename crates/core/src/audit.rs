//! The run's conservation laws, written once.
//!
//! [`Simulation::try_run`](crate::Simulation::try_run) calls [`audit`]
//! after its loop and before it assembles the `RunResult`, in every
//! build: a run that broke a law ends in
//! [`RunError::Audit`](crate::RunError::Audit), which names the law and
//! the two numbers that disagree, instead of a result. The laws read the
//! engine's end-of-run [`Books`]; they add no byte to any result,
//! envelope or trace.
//!
//! Retransmission without a drop or a timeout is deliberately *not* a
//! law: under packet spraying, reordering alone makes a receiver NACK
//! and a sender resend (docs/ARCHITECTURE.md, "Conservation laws").

use irn_net::FabricStats;

use crate::result::{SchedCounters, TransportTotals};

/// What the laws read: the engine's books at the end of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Books {
    /// The fabric ran PFC.
    pub pfc: bool,
    /// The config injects faults (`loss_injection > 0`).
    pub fault_injection: bool,
    /// Fabric counters.
    pub fabric: FabricStats,
    /// Transport counters over every flow.
    pub transport: TransportTotals,
    /// Event-loop counters.
    pub sched: SchedCounters,
    /// Events the loop processed.
    pub events: u64,
    /// The scheduler's entry books.
    pub entries: Entries,
    /// `ceil(bytes / mtu)` summed over the flows that started: the
    /// packets each sender must have sent for the first time, once.
    pub first_sends: u64,
    /// A closed-loop run's books when its queue drains; `None` for an
    /// open-loop run, whose loop stops at the last completion.
    pub drain: Option<Drain>,
}

/// The scheduler's entry books at the end of a run: every entry pushed
/// was popped live, was reclaimed dead, or is still pending.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Entries {
    /// Entries pushed, timer arms included.
    pub pushes: u64,
    /// Live entries popped.
    pub pops: u64,
    /// Dead timer entries removed (`SchedStats::stale_skips`).
    pub reclaimed: u64,
    /// Entries still held, live or dead: the ring's, the open `due`
    /// run's and the overflow's (`Scheduler::held`).
    pub pending: u64,
}

/// A closed-loop run's books when its queue drains: what its driver
/// did against what its model promises, and what is left over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drain {
    /// Flows and operations the traffic model promises
    /// ([`TrafficModel::promised`](crate::TrafficModel::promised)).
    pub promised: (u64, u64),
    /// Flows the driver spawned and the run completed.
    pub flows: u64,
    /// Operations the driver completed.
    pub ops: u64,
    /// Packets live in the arena.
    pub live_packets: u64,
    /// Flow slots not retired.
    pub live_slots: u64,
    /// Retransmission timers still armed.
    pub armed_timers: u64,
}

/// One conservation law.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Law {
    /// A closed-loop driver spawned every flow its model promises.
    FlowsPromised,
    /// A closed-loop driver completed every operation its model
    /// promises.
    OpsPromised,
    /// Every packet of every started flow was first-sent exactly once.
    FirstSendsOnce,
    /// A closed-loop drain leaves no packet live.
    DrainedPackets,
    /// A closed-loop drain leaves no flow slot live.
    DrainedSlots,
    /// A closed-loop drain leaves no retransmission timer armed.
    DrainedTimers,
    /// PFC is lossless.
    PfcLossless,
    /// Fault drops need fault injection.
    FaultDropsNeedInjection,
    /// A closed-loop drain leaves no PFC pause standing.
    PausesResumed,
    /// Nothing was scheduled into the past.
    NoPastClamps,
    /// No timer surfaced for a finished flow.
    NoStaleTimerEvents,
    /// The per-kind event counters add up to the events processed.
    EventsAddUp,
    /// Timers fire at most as often as they are armed.
    FiresWithinArms,
    /// Timers are cancelled at most as often as they are armed.
    CancelsWithinArms,
    /// Every scheduler entry is popped, reclaimed or still pending.
    EntriesAddUp,
}

impl Law {
    /// The law as a relation between its two numbers, left first.
    fn statement(self) -> &'static str {
        match self {
            Law::FlowsPromised => "closed-loop drain: flows run == flows promised",
            Law::OpsPromised => "closed-loop drain: ops completed == ops promised",
            Law::FirstSendsOnce => "sent - retransmitted == sum of ceil(bytes / mtu) over flows",
            Law::DrainedPackets => "closed-loop drain: live packets == 0",
            Law::DrainedSlots => "closed-loop drain: live flow slots == 0",
            Law::DrainedTimers => "closed-loop drain: armed retransmission timers == 0",
            Law::PfcLossless => "PFC is lossless: buffer drops == 0",
            Law::FaultDropsNeedInjection => "no fault injection: injected drops == 0",
            Law::PausesResumed => "closed-loop drain: PFC pauses == resumes",
            Law::NoPastClamps => "past clamps == 0",
            Law::NoStaleTimerEvents => "stale timer events == 0",
            Law::EventsAddUp => "sum of per-kind event counters == events",
            Law::FiresWithinArms => "timer fires <= timer arms",
            Law::CancelsWithinArms => "timer cancels <= timer arms",
            Law::EntriesAddUp => "scheduler pushes == pops + reclaimed + pending",
        }
    }

    fn holds(self, left: u64, right: u64) -> bool {
        match self {
            Law::FiresWithinArms | Law::CancelsWithinArms => left <= right,
            _ => left == right,
        }
    }
}

/// A broken law and the two numbers that disagree, in the order its
/// statement names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditFailure {
    /// The law.
    pub law: Law,
    /// Its left-hand number.
    pub left: u64,
    /// Its right-hand number.
    pub right: u64,
}

impl std::fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conservation law broken: {} ({} vs {})",
            self.law.statement(),
            self.left,
            self.right
        )
    }
}

/// Check every law against `b`, in a fixed order; the first broken one
/// is the failure.
pub fn audit(b: &Books) -> Result<(), AuditFailure> {
    use Law::*;
    let (f, s, t) = (&b.fabric, &b.sched, &b.transport);
    let first_sent = t.sent.saturating_sub(t.retransmitted);
    let fires = s.qp_timer_events + s.nic_wake_events;
    let kinds = s.flow_arrivals + s.fabric_events + fires;
    let no_faults = !b.fault_injection;
    let drained = b.drain.is_some();
    let drain = b.drain.unwrap_or_default();
    let e = &b.entries;
    // (law, whether it applies to this run, left, right)
    let laws = [
        (FlowsPromised, drained, drain.flows, drain.promised.0),
        (OpsPromised, drained, drain.ops, drain.promised.1),
        (FirstSendsOnce, true, first_sent, b.first_sends),
        (DrainedPackets, drained, drain.live_packets, 0),
        (DrainedSlots, drained, drain.live_slots, 0),
        (DrainedTimers, drained, drain.armed_timers, 0),
        (PfcLossless, b.pfc, f.buffer_drops, 0),
        (FaultDropsNeedInjection, no_faults, f.injected_drops, 0),
        (PausesResumed, drained, f.pauses, f.resumes),
        (NoPastClamps, true, s.past_clamps, 0),
        (NoStaleTimerEvents, true, s.stale_timer_events, 0),
        (EventsAddUp, true, kinds, b.events),
        (FiresWithinArms, true, fires, s.timer_arms),
        (CancelsWithinArms, true, s.timer_cancels, s.timer_arms),
        (
            EntriesAddUp,
            true,
            e.pushes,
            e.pops + e.reclaimed + e.pending,
        ),
    ];
    match laws
        .into_iter()
        .find(|&(law, applies, left, right)| applies && !law.holds(left, right))
    {
        Some((law, _, left, right)) => Err(AuditFailure { law, left, right }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Books that keep every law: a closed-loop run of 96 operations in
    /// 192 flows that drained clean.
    fn clean() -> Books {
        Books {
            pfc: true,
            fault_injection: false,
            fabric: FabricStats {
                pauses: 7,
                resumes: 7,
                delivered_pkts: 400,
                ..FabricStats::default()
            },
            transport: TransportTotals {
                sent: 230,
                retransmitted: 30,
                timeouts: 2,
                ..TransportTotals::default()
            },
            sched: SchedCounters {
                flow_arrivals: 192,
                fabric_events: 1_000,
                qp_timer_events: 2,
                nic_wake_events: 6,
                timer_arms: 40,
                timer_cancels: 30,
                ..SchedCounters::default()
            },
            events: 1_200,
            // Every event but the streamed arrivals is a pop; the
            // 30 cancels' entries were reclaimed.
            entries: Entries {
                pushes: 1_038,
                pops: 1_008,
                reclaimed: 30,
                pending: 0,
            },
            first_sends: 200,
            drain: Some(Drain {
                promised: (192, 96),
                flows: 192,
                ops: 96,
                ..Drain::default()
            }),
        }
    }

    fn broken(doctor: impl FnOnce(&mut Books)) -> Option<AuditFailure> {
        let mut b = clean();
        doctor(&mut b);
        audit(&b).err()
    }

    fn fails(law: Law, left: u64, right: u64) -> Option<AuditFailure> {
        Some(AuditFailure { law, left, right })
    }

    /// The clean books' drain, to doctor.
    fn drain(b: &mut Books) -> &mut Drain {
        b.drain.get_or_insert_with(Drain::default)
    }

    #[test]
    fn clean_books_pass() {
        assert_eq!(audit(&clean()), Ok(()));
    }

    /// A past engine bug: an `in_flight` underflow sent a new packet
    /// down the retransmit path, so it counted as a retransmission and
    /// one first send went missing.
    #[test]
    fn a_first_send_counted_as_a_retransmission_is_named() {
        let failure = broken(|b| {
            b.transport.sent += 1;
            b.transport.retransmitted += 2;
        });
        assert_eq!(failure, fails(Law::FirstSendsOnce, 199, 200));
        let text = failure.map(|f| f.to_string()).unwrap_or_default();
        assert!(text.contains("sent - retransmitted"), "{text}");
        assert!(text.contains("(199 vs 200)"), "{text}");
    }

    /// A past engine bug: a finished flow was never retired, so its
    /// closed-loop driver starved (63 of 96 operations) and the drain
    /// left its slot live.
    #[test]
    fn a_retirement_leak_is_named() {
        let leak = |b: &mut Books| {
            drain(b).ops = 63;
            drain(b).live_slots = 1;
        };
        assert_eq!(broken(leak), fails(Law::OpsPromised, 63, 96));
        let slot_only = |b: &mut Books| {
            leak(b);
            drain(b).ops = 96;
        };
        assert_eq!(broken(slot_only), fails(Law::DrainedSlots, 1, 0));
    }

    #[test]
    fn every_law_fires() {
        type Doctor = fn(&mut Books);
        let cases: [(Doctor, Option<AuditFailure>); 15] = [
            (
                |b| drain(b).flows = 191,
                fails(Law::FlowsPromised, 191, 192),
            ),
            (
                |b| drain(b).promised.1 = 97,
                fails(Law::OpsPromised, 96, 97),
            ),
            (
                |b| b.first_sends = 201,
                fails(Law::FirstSendsOnce, 200, 201),
            ),
            (
                |b| drain(b).live_packets = 1,
                fails(Law::DrainedPackets, 1, 0),
            ),
            (|b| drain(b).live_slots = 2, fails(Law::DrainedSlots, 2, 0)),
            (
                |b| drain(b).armed_timers = 3,
                fails(Law::DrainedTimers, 3, 0),
            ),
            (|b| b.fabric.buffer_drops = 4, fails(Law::PfcLossless, 4, 0)),
            (
                |b| b.fabric.injected_drops = 5,
                fails(Law::FaultDropsNeedInjection, 5, 0),
            ),
            (|b| b.fabric.resumes = 6, fails(Law::PausesResumed, 7, 6)),
            (|b| b.sched.past_clamps = 1, fails(Law::NoPastClamps, 1, 0)),
            (
                |b| b.sched.stale_timer_events = 1,
                fails(Law::NoStaleTimerEvents, 1, 0),
            ),
            (|b| b.events = 1_201, fails(Law::EventsAddUp, 1_200, 1_201)),
            (
                |b| {
                    b.sched.timer_arms = 7;
                    b.sched.timer_cancels = 7;
                },
                fails(Law::FiresWithinArms, 8, 7),
            ),
            (
                |b| b.sched.timer_cancels = 41,
                fails(Law::CancelsWithinArms, 41, 40),
            ),
            // An unlink that frees its entry without counting it.
            (
                |b| b.entries.reclaimed -= 1,
                fails(Law::EntriesAddUp, 1_038, 1_037),
            ),
        ];
        for (doctor, want) in cases {
            assert_eq!(broken(doctor), want);
        }
    }

    /// The conditional laws bind only where they apply: drops without
    /// PFC, fault drops under injection, and whatever an open-loop run
    /// leaves in flight (and paused) when its last flow completes.
    #[test]
    fn conditional_laws_bind_only_where_they_apply() {
        let ok = |doctor: fn(&mut Books)| broken(doctor).is_none();
        assert!(ok(|b| {
            b.pfc = false;
            b.fabric.buffer_drops = 4;
        }));
        assert!(ok(|b| {
            b.fault_injection = true;
            b.fabric.injected_drops = 5;
        }));
        assert!(ok(|b| {
            b.drain = None;
            b.fabric.resumes = 5;
        }));
    }
}
