//! The simulation engine: fabric + transports + workload + metrics under
//! one deterministic event loop.
//!
//! The loop owns a single ladder-queue [`Scheduler`]; every subsystem is
//! a passive state machine (the smoltcp idiom): the fabric consumes
//! [`FabricEvent`]s (scheduling its own follow-ups straight into the
//! queue) and reports deliveries; flow endpoints are polled and fed
//! packets; retransmission timers and NIC pacing wake-ups are
//! first-class scheduler timers, so a cancelled or re-armed deadline is
//! removed in O(1) and **never surfaces** — the engine sees no stale
//! timer events. Flow arrivals are not queue events at all: they stream
//! from the traffic model's [`Arrivals`], generated as the run reaches
//! them, so neither the queue nor the engine holds the workload — only
//! the flows in flight, each slot with its own [`FlowSpec`]. Nothing
//! blocks, nothing is hidden — a run is a pure function of its
//! [`ExperimentConfig`].
//!
//! Ordering: nondecreasing time, FIFO among simultaneous queue events
//! (the contract of `irn-integration`'s binary-heap reference queue),
//! and arrivals win ties against queue events. Every pinned byte was
//! taken under that order; `tests/tests/seeds.rs` pins jobs=1 vs jobs=8
//! byte-equality for every artifact.
//!
//! The engine drives flow endpoints, not transports: one
//! `irn_transport::endpoints` pair per live flow, built from the run's
//! `TransportKind`. No concrete sender or receiver type is named in
//! this file (CI's size-ledger step checks).

use std::collections::{HashMap, VecDeque};

use irn_metrics::{ideal_fct, AppMetrics, FlowRecord, MetricsCollector};
use irn_net::{Fabric, FabricEvent, FabricOutput, FlowId, HostId, Packet, PacketKind, PktId};
use irn_sim::{Scheduler, Time, TimerId};
use irn_transport::config::TransportConfig;
use irn_transport::{endpoints, HostNic, NicPoll, Receiver, Sender, SenderPoll, TimerCmd};
use irn_workload::{AppDriver, AppEvent, AppSink, Arrivals, FlowSpec, TrafficCtx};

use crate::config::ExperimentConfig;
use crate::result::{MemoryStats, RunResult, SchedCounters, TransportTotals};

/// Events driving the simulation. Timer events carry no generation
/// tokens: the scheduler's cancellable timers guarantee only live
/// expiries are delivered.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Network-internal event (arrivals, transmit completions, PFC).
    Fabric(FabricEvent),
    /// The retransmission timer of flow `flow` expired.
    QpTimer { flow: u32 },
    /// The pacing wake-up of host `host`'s NIC.
    NicWake { host: u32 },
    /// A closed-loop driver's spawned flow reaches its start time; its
    /// spec waits in the app runtime's `pending`. This event starts it
    /// exactly like a streamed arrival would.
    AppSpawn { flow: u32 },
}

/// [`Event`] packed into one word, the type the scheduler actually
/// stores. With an 8-byte event a scheduler entry is exactly 32 bytes
/// (time, seq, timer stamp, event), and bucket sorts/memmoves — the
/// engine's hottest memory traffic — move a power-of-two stride.
///
/// Layout: `[b:30][a:30][tag:3]` from the high bits down. Both payload
/// fields are comfortably below 2^30 (`a` is a directed-link / flow /
/// host index, `b` an arena slot index); debug builds assert it.
#[derive(Debug, Clone, Copy)]
struct PackedEvent(u64);

const TAG_TX_DONE: u64 = 0;
const TAG_ARRIVE: u64 = 1;
const TAG_PFC_XOFF: u64 = 2;
const TAG_PFC_XON: u64 = 3;
const TAG_QP_TIMER: u64 = 4;
const TAG_NIC_WAKE: u64 = 5;
const TAG_APP_SPAWN: u64 = 6;

impl PackedEvent {
    #[inline]
    fn pack(tag: u64, a: u32, b: u32) -> PackedEvent {
        debug_assert!(a < (1 << 30) && b < (1 << 30));
        PackedEvent(tag | ((a as u64) << 3) | ((b as u64) << 33))
    }

    /// Decode back to the enum the engine matches on.
    #[inline]
    fn unpack(self) -> Event {
        let a = (self.0 >> 3) as u32 & 0x3fff_ffff;
        let b = (self.0 >> 33) as u32;
        match self.0 & 0x7 {
            TAG_TX_DONE => Event::Fabric(FabricEvent::TxDone { link: a }),
            TAG_ARRIVE => Event::Fabric(FabricEvent::Arrive {
                link: a,
                pkt: PktId(b),
            }),
            TAG_PFC_XOFF => Event::Fabric(FabricEvent::PfcArrive {
                link: a,
                xoff: true,
            }),
            TAG_PFC_XON => Event::Fabric(FabricEvent::PfcArrive {
                link: a,
                xoff: false,
            }),
            TAG_QP_TIMER => Event::QpTimer { flow: a },
            TAG_NIC_WAKE => Event::NicWake { host: a },
            TAG_APP_SPAWN => Event::AppSpawn { flow: a },
            tag => unreachable!("unknown event tag {tag}"),
        }
    }
}

impl From<FabricEvent> for PackedEvent {
    #[inline]
    fn from(fe: FabricEvent) -> PackedEvent {
        match fe {
            FabricEvent::TxDone { link } => PackedEvent::pack(TAG_TX_DONE, link, 0),
            FabricEvent::Arrive { link, pkt } => PackedEvent::pack(TAG_ARRIVE, link, pkt.0),
            FabricEvent::PfcArrive { link, xoff } => {
                PackedEvent::pack(if xoff { TAG_PFC_XOFF } else { TAG_PFC_XON }, link, 0)
            }
        }
    }
}

/// Live state of one in-progress flow: the slab's unit of allocation.
struct FlowSlot {
    /// Who, whom, how much and when: read at completion and by the
    /// retransmission timer. The slot is the only place a flow's spec
    /// lives while it runs.
    spec: FlowSpec,
    sender: Option<Sender>,
    receiver: Option<Receiver>,
    /// Retransmission timer, created lazily and **owned by the slot**,
    /// not the flow: re-arming overwrites the payload, so a recycled
    /// slot safely reuses its timer for the next occupant.
    timer: Option<TimerId>,
    /// Packets of this flow currently inside the fabric (data and
    /// control alike; +1 at host TX, −1 at delivery or drop).
    inflight: u32,
    /// The receiver delivered the last payload byte.
    receiver_done: bool,
}

/// Where a flow's state lives, encoded in the `flow → slot` window.
const NOT_STARTED: u32 = u32::MAX;
const RETIRED: u32 = u32::MAX - 1;
/// Top bit of a live flow's `slot_of` entry: the flow's sender answered
/// [`SenderPoll::Blocked`] and has not been handed out since. `Blocked`
/// is sticky until the sender is fed (the contract on the variant), so
/// [`FlowSlab::poll_sender`] answers for a parked sender from the map
/// alone, without touching the flow's [`FlowSlot`]. Slot indices stay
/// below the bit (and so below the two sentinels above, which carry
/// it).
const PARKED: u32 = 1 << 31;

/// Decode a `slot_of` entry to its slot index, parked or not.
#[inline]
fn live_slot(entry: u32) -> Option<usize> {
    match entry {
        NOT_STARTED | RETIRED => None,
        si => Some((si & !PARKED) as usize),
    }
}

/// Slab of live flow state keyed by dense `u32` flow ids.
///
/// The pre-refactor engine kept `Vec<Option<Sender>>` /
/// `Vec<Option<Receiver>>` / `Vec<Option<TimerId>>` each sized to the
/// *total* flow count for the whole run. The slab sizes state to the
/// *concurrently live* flow count instead: a slot is allocated at flow
/// arrival (reusing a free slot when one exists), and recycled once the
/// flow retires — sender done, receiver done, and nothing of the flow
/// left inside the fabric. `slots.len()` is therefore the live-flow
/// high-water mark, which is what `MemoryStats::peak_flow_state_bytes`
/// reports.
///
/// The `flow → slot` map is a window too: it covers only the ids from
/// the oldest flow not yet retired (`base`) to the newest started one.
/// Every id below `base` is retired, every id past the window has not
/// started, and the front is dropped as flows retire in order. An early
/// flow that lives to the end of the run keeps the whole map, as dense
/// as one entry per flow.
struct FlowSlab {
    slots: Vec<FlowSlot>,
    /// Recycled slot indices (LIFO: reuse the hottest slot first).
    free: Vec<u32>,
    /// Per flow from `base` on: slot index, or [`NOT_STARTED`] /
    /// [`RETIRED`].
    slot_of: VecDeque<u32>,
    /// The flow id of `slot_of[0]`.
    base: usize,
    /// High-water mark of `slot_of.len()`.
    window_peak: usize,
    /// Flows in the run so far: every streamed flow, started or not,
    /// and every flow a driver has spawned.
    flows: usize,
}

impl FlowSlab {
    fn new(flows: usize) -> FlowSlab {
        FlowSlab {
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: VecDeque::new(),
            base: 0,
            window_peak: 0,
            flows,
        }
    }

    /// The flow's `slot_of` entry, read through the window.
    #[inline]
    fn entry(&self, flow: usize) -> u32 {
        match flow.checked_sub(self.base) {
            None => RETIRED,
            Some(i) => self.slot_of.get(i).copied().unwrap_or(NOT_STARTED),
        }
    }

    /// The flow's `slot_of` entry, for a flow known to be inside the
    /// window (a live one).
    #[inline]
    fn entry_mut(&mut self, flow: usize) -> &mut u32 {
        &mut self.slot_of[flow - self.base]
    }

    /// Allocate a slot for an arriving flow.
    fn insert(&mut self, flow: usize, spec: FlowSpec, sender: Sender, receiver: Receiver) {
        debug_assert_eq!(self.entry(flow), NOT_STARTED, "flow started twice");
        debug_assert!(
            self.slots.len() < (PARKED >> 1) as usize,
            "slot indices must stay clear of the PARKED bit"
        );
        // Open the window up to this flow; ids it skips have not started.
        let end = flow - self.base + 1;
        if self.slot_of.len() < end {
            self.slot_of.resize(end, NOT_STARTED);
            self.window_peak = self.window_peak.max(end);
        }
        let si = match self.free.pop() {
            Some(si) => {
                let slot = &mut self.slots[si as usize];
                slot.spec = spec;
                slot.sender = Some(sender);
                slot.receiver = Some(receiver);
                // slot.timer is kept: recycled with the slot.
                slot.inflight = 0;
                slot.receiver_done = false;
                si
            }
            None => {
                self.slots.push(FlowSlot {
                    spec,
                    sender: Some(sender),
                    receiver: Some(receiver),
                    timer: None,
                    inflight: 0,
                    receiver_done: false,
                });
                self.slots.len() as u32 - 1
            }
        };
        *self.entry_mut(flow) = si;
    }

    /// The flow's live slot; `None` when not started or retired. Leaves
    /// a parked sender parked: nothing reached through the slot itself
    /// (in-flight accounting, the receiver, the timer id) feeds the
    /// sender.
    fn slot_mut(&mut self, flow: usize) -> Option<&mut FlowSlot> {
        live_slot(self.entry(flow)).map(|si| &mut self.slots[si])
    }

    /// The flow's live slot, unparked. This is the only way to a
    /// `&mut Sender` outside [`FlowSlab::poll_sender`]: whoever feeds
    /// the sender an ACK, a CNP or a timer expiry, or drains its timer
    /// request, wakes it by construction.
    fn wake(&mut self, flow: usize) -> Option<&mut FlowSlot> {
        let si = live_slot(self.entry(flow))?;
        *self.entry_mut(flow) = si as u32;
        Some(&mut self.slots[si])
    }

    /// The host NIC asks the flow's sender for its next packet. A parked
    /// sender is answered for from `slot_of`; a real poll that comes
    /// back `Blocked` parks it. A flow with no sender (completed, or
    /// retired) is `Done`, which is how the NIC deregisters it.
    #[inline]
    fn poll_sender(&mut self, flow: usize, t: Time) -> SenderPoll {
        let entry = self.entry(flow);
        let Some(si) = live_slot(entry) else {
            return SenderPoll::Done;
        };
        if entry & PARKED != 0 {
            // Debug builds poll anyway and check the stickiness contract
            // at every skipped poll. A `Blocked` poll is idempotent on
            // sender state (`tx_free`'s `Idle` path, `poll_gbn`'s early
            // returns, the TCP sender's fall-through), so debug and
            // release runs stay byte-identical.
            debug_assert_eq!(
                self.slots[si].sender.as_mut().map(|s| s.poll(t)),
                Some(SenderPoll::Blocked),
                "parked sender of flow {flow} was fed without sender_mut"
            );
            return SenderPoll::Blocked;
        }
        count_real_poll();
        let poll = match self.slots[si].sender.as_mut() {
            Some(s) => s.poll(t),
            None => SenderPoll::Done,
        };
        if poll == SenderPoll::Blocked {
            *self.entry_mut(flow) = entry | PARKED;
        }
        poll
    }

    /// Count one driver-spawned flow (closed-loop workloads add flows
    /// mid-run) and return its id: ids count up as flows are spawned.
    fn grow(&mut self) -> u32 {
        self.flows += 1;
        self.flows as u32 - 1
    }

    /// Flows in the run so far.
    fn flows(&self) -> usize {
        self.flows
    }

    /// Recycle the flow's slot if it is live and nothing of it remains:
    /// sender finished, receiver delivered everything, and no packet of
    /// the flow inside the fabric (so no event can ever need this state
    /// again; late control packets to a retired flow are ignored).
    /// Drops sender/receiver state and keeps the timer, disarmed, for
    /// the next occupant. The flow id can never come back, and the
    /// window drops every retired id at its front. Returns whether the
    /// flow retired.
    fn retire(&mut self, flow: usize, sched: &mut Scheduler<PackedEvent>) -> bool {
        let Some(si) = live_slot(self.entry(flow)) else {
            return false;
        };
        let slot = &mut self.slots[si];
        if slot.sender.is_some() || !slot.receiver_done || slot.inflight > 0 {
            return false;
        }
        // The completing sender already cancelled its timer through
        // `drain_timer`; the deadline guard keeps the scheduler's
        // cancel counters identical to the pre-slab engine.
        if let Some(id) = slot.timer {
            if sched.timer_deadline(id).is_some() {
                sched.timer_cancel(id);
            }
        }
        slot.receiver = None;
        *self.entry_mut(flow) = RETIRED;
        self.free.push(si as u32);
        while self.slot_of.front() == Some(&RETIRED) {
            self.slot_of.pop_front();
            self.base += 1;
        }
        true
    }

    /// Analytic peak bytes: every slot ever allocated (`slots.len()` is
    /// the live-flow high-water mark — monotone), with the bitmaps its
    /// sender and receiver hold in place, the free list backing it, and
    /// the flow → slot window at its widest.
    fn peak_bytes(&self) -> u64 {
        let slot = std::mem::size_of::<FlowSlot>() as u64;
        let idx = std::mem::size_of::<u32>() as u64;
        self.slots.len() as u64 * (slot + idx) + self.window_peak as u64 * idx
    }
}

/// The closed-loop application runtime riding on the engine: the
/// reactive driver, its reusable output sink, the per-operation metrics
/// it feeds, and the spawned flows that have not started yet.
struct AppRuntime {
    driver: Box<dyn AppDriver>,
    sink: AppSink,
    metrics: AppMetrics,
    /// Spawned flows' specs by flow id, each until its `AppSpawn`
    /// fires.
    pending: HashMap<u32, FlowSpec>,
}

impl AppRuntime {
    /// Apply a driver callback's output: fold application events into
    /// traces and per-operation metrics, then give each spawned flow the
    /// next id and schedule its start.
    fn drain_sink(&mut self, now: Time, slab: &mut FlowSlab, sched: &mut Scheduler<PackedEvent>) {
        for ev in self.sink.events.drain(..) {
            match ev {
                AppEvent::OpStart { op, client, at } => {
                    irn_telemetry::trace!(
                        "app.op.start",
                        t = at.as_nanos(),
                        op = op,
                        client = client,
                    );
                }
                AppEvent::OpDone {
                    op,
                    client,
                    started,
                    at,
                } => {
                    let latency_ns = at.saturating_since(started).as_nanos();
                    self.metrics.record_op(latency_ns);
                    irn_telemetry::trace!(
                        "app.op.done",
                        t = at.as_nanos(),
                        op = op,
                        client = client,
                        latency_ns = latency_ns,
                    );
                }
                AppEvent::Phase { phase, at } => {
                    self.metrics.record_phase();
                    irn_telemetry::trace!("app.phase", t = at.as_nanos(), phase = phase);
                }
            }
        }
        for spec in self.sink.flows.drain(..) {
            debug_assert!(spec.at >= now, "driver spawned a flow in the past");
            let flow = slab.grow();
            self.pending.insert(flow, spec);
            sched.push(spec.at, PackedEvent::pack(TAG_APP_SPAWN, flow, 0));
        }
    }
}

/// Apply any timer request the flow's sender produced to the slot's
/// scheduler timer.
fn drain_timer(
    sender: &mut Sender,
    timer: &mut Option<TimerId>,
    sched: &mut Scheduler<PackedEvent>,
    now: Time,
    idx: usize,
) {
    let Some(req) = sender.take_timer_request() else {
        return;
    };
    match req {
        TimerCmd::Arm(deadline) => {
            irn_telemetry::trace!(
                "timer.arm",
                t = now.as_nanos(),
                flow = idx,
                deadline = deadline.as_nanos(),
            );
            let id = *timer.get_or_insert_with(|| sched.timer_create());
            sched.timer_arm(id, deadline, PackedEvent::pack(TAG_QP_TIMER, idx as u32, 0));
        }
        TimerCmd::Cancel => {
            irn_telemetry::trace!("timer.cancel", t = now.as_nanos(), flow = idx);
            if let Some(id) = *timer {
                sched.timer_cancel(id);
            }
        }
    }
}

/// Why a run could not finish. Scenario validation cannot rule these
/// out: whether a run completes is known only by running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The workload generated no flows.
    NoFlows,
    /// `max_events` events ran out before every flow completed: a
    /// livelock, or a budget set too low.
    EventBudget {
        /// Virtual time of the event over budget.
        at: Time,
        /// Flows completed by then.
        completed: usize,
        /// Flows in the run.
        flows: usize,
    },
    /// No event was left while flows were still incomplete (RoCE under
    /// PFC has no timeout: one lost packet can strand a flow).
    Deadlock {
        /// Flows completed.
        completed: usize,
        /// Flows in the run.
        flows: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NoFlows => write!(f, "workload generated no flows"),
            RunError::EventBudget {
                at,
                completed,
                flows,
            } => write!(
                f,
                "event budget exceeded at {at} with {completed}/{flows} flows complete — livelock?"
            ),
            RunError::Deadlock { completed, flows } => write!(
                f,
                "simulation deadlocked: {completed}/{flows} flows completed (no events left)"
            ),
        }
    }
}

/// One experiment in flight.
pub struct Simulation {
    cfg: ExperimentConfig,
    /// The run's transport settings (`cfg.transport_config` over the
    /// fabric's diameter), built once; each sender takes a copy.
    tcfg: TransportConfig,
    sched: Scheduler<PackedEvent>,
    fabric: Fabric,
    /// The workload's flows in arrival order, generated as the run
    /// reaches them instead of pre-pushed into the queue.
    arrivals: Arrivals,
    /// Index of the first incast flow, when the workload has one.
    incast_from: Option<usize>,
    /// Live flow state (senders, receivers, timers), slab-allocated.
    slab: FlowSlab,
    nics: Vec<HostNic>,
    /// Per-host NIC pacing timer.
    nic_wake: Vec<TimerId>,
    metrics: MetricsCollector,
    incast_metrics: MetricsCollector,
    totals: TransportTotals,
    counters: SchedCounters,
    completed: usize,
    finished_at: Time,
    /// Closed-loop application runtime, when the traffic model has one.
    /// `None` for every open-loop model: the hot path stays untouched.
    app: Option<AppRuntime>,
}

impl Simulation {
    /// Build the simulation for `cfg`: the fabric, the hosts, and the
    /// workload's [`Arrivals`] stream, which generates flows as the run
    /// reaches them.
    pub fn new(cfg: ExperimentConfig) -> Simulation {
        let fabric = Fabric::new(&cfg.topology.build(), cfg.fabric_config());
        let hosts = fabric.hosts();
        let tcfg = cfg.transport_config(fabric.diameter_hops());

        let tctx = TrafficCtx {
            hosts,
            line_rate_bps: cfg.bandwidth.as_bps_f64(),
            seed: cfg.seed,
        };
        // A closed-loop model streams only its seed flows; the rest of
        // the workload materializes in reaction to completions, through
        // the driver hook in `maybe_retire`.
        let (arrivals, app) = match cfg.traffic.closed_loop(&tctx) {
            Some(cl) => (
                Arrivals::from_flows(cl.seed_flows),
                Some(AppRuntime {
                    driver: cl.driver,
                    sink: AppSink::new(),
                    metrics: AppMetrics::default(),
                    pending: HashMap::new(),
                }),
            ),
            None => (cfg.traffic.arrivals(&tctx), None),
        };

        let mut sched = Scheduler::new();
        let nic_wake: Vec<TimerId> = (0..hosts).map(|_| sched.timer_create()).collect();

        Simulation {
            sched,
            fabric,
            incast_from: arrivals.incast_from(),
            slab: FlowSlab::new(arrivals.flow_count()),
            arrivals,
            nics: (0..hosts).map(|_| HostNic::new()).collect(),
            nic_wake,
            metrics: MetricsCollector::new(),
            incast_metrics: MetricsCollector::new(),
            totals: TransportTotals::default(),
            counters: SchedCounters::default(),
            completed: 0,
            finished_at: Time::ZERO,
            app,
            tcfg,
            cfg,
        }
    }

    /// [`Simulation::try_run`] for a run that is known to finish; panics
    /// with the [`RunError`] otherwise.
    pub fn run(self) -> RunResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run to completion (all flows delivered) and report, or say why
    /// the run cannot finish. The error is a pure function of the
    /// config, like the result: rerunning it anywhere fails the same way.
    pub fn try_run(mut self) -> Result<RunResult, RunError> {
        if self.slab.flows() == 0 {
            return Err(RunError::NoFlows);
        }
        // Give a closed-loop driver its time-zero callback (trace
        // records for the seed operations; never any flows).
        if let Some(app) = self.app.as_mut() {
            app.sink.clear();
            app.driver.on_start(&mut app.sink);
            debug_assert!(app.sink.flows.is_empty(), "on_start must not spawn");
            app.drain_sink(Time::ZERO, &mut self.slab, &mut self.sched);
        }
        let mut events: u64 = 0;
        loop {
            // Interleave the lazily streamed arrivals with the queue;
            // arrivals win ties (parity with the old engine, where every
            // arrival carried a smaller sequence number than any event
            // pushed while running).
            let arrival = self.arrivals.next_by(self.sched.peek_time());
            // The next event and its time (not the stale last-pop time —
            // a livelock report must point at the right instant); a
            // `None` event is the arrival.
            let (now, queued) = match arrival {
                Some((_, spec)) => (spec.at, None),
                None => match self.sched.pop() {
                    Some((q, ev)) => (q, Some(ev)),
                    None => break,
                },
            };
            events += 1;
            if events > self.cfg.max_events {
                return Err(RunError::EventBudget {
                    at: now,
                    completed: self.completed,
                    flows: self.slab.flows(),
                });
            }
            if let Some(ev) = queued {
                match ev.unpack() {
                    Event::Fabric(fe) => {
                        self.counters.fabric_events += 1;
                        self.on_fabric(now, fe);
                    }
                    Event::QpTimer { flow } => {
                        self.counters.qp_timer_events += 1;
                        self.on_qp_timer(now, flow);
                    }
                    Event::NicWake { host } => {
                        self.counters.nic_wake_events += 1;
                        self.try_send(now, HostId(host));
                    }
                    Event::AppSpawn { flow } => {
                        let spawned = self.app.as_mut().and_then(|a| a.pending.remove(&flow));
                        if let Some(spec) = spawned {
                            self.counters.flow_arrivals += 1;
                            self.on_flow_arrival(now, flow as usize, spec);
                        }
                    }
                }
            } else if let Some((flow, spec)) = arrival {
                self.sched.advance_to(now);
                self.counters.flow_arrivals += 1;
                self.on_flow_arrival(now, flow as usize, spec);
            }
            // With a closed-loop driver every completion may spawn more
            // work, so the run ends only when the queue truly drains;
            // open-loop runs keep the early exit (late NIC wake-ups and
            // PFC resumes after the last completion are not work).
            if self.app.is_none() && self.completed == self.slab.flows() {
                break;
            }
        }
        if self.completed != self.slab.flows() {
            return Err(RunError::Deadlock {
                completed: self.completed,
                flows: self.slab.flows(),
            });
        }

        // Sweep stats from any sender still alive (receiver finished
        // before the sender saw its final ack). Slot order, not flow
        // order — the totals are commutative sums.
        for s in self.slab.slots.iter().filter_map(|s| s.sender.as_ref()) {
            self.totals += s.stats();
        }

        let (primary, incast_metrics) = match self.incast_from {
            None => (self.metrics, None),
            // Pure incast: the incast population is also the primary one.
            Some(0) => (self.incast_metrics.clone(), Some(self.incast_metrics)),
            Some(_) => (self.metrics, Some(self.incast_metrics)),
        };

        let collector_fixed = std::mem::size_of::<MetricsCollector>() as u64;
        let app_fixed = std::mem::size_of::<AppMetrics>() as u64;
        let metrics_bytes = collector_fixed
            + primary.heap_bytes()
            + incast_metrics
                .as_ref()
                .map_or(0, |m| collector_fixed + m.heap_bytes())
            + self
                .app
                .as_ref()
                .map_or(0, |a| app_fixed + a.metrics.heap_bytes());
        let memory = MemoryStats {
            peak_flow_state_bytes: self.slab.peak_bytes(),
            metrics_bytes,
            flows: self.slab.flows() as u64,
            hist_buckets: primary.allocated_buckets()
                + incast_metrics.as_ref().map_or(0, |m| m.allocated_buckets())
                + self
                    .app
                    .as_ref()
                    .map_or(0, |a| a.metrics.allocated_buckets()),
            pkt_pool_bytes: self.fabric.pkt_pool_bytes(),
            pkt_pool_pkts: self.fabric.pkt_pool_peak() as u64,
        };

        let sstats = self.sched.stats();
        self.counters.past_clamps = sstats.past_clamps;
        self.counters.timer_arms = sstats.timer_arms;
        self.counters.timer_cancels = sstats.timer_cancels;
        self.counters.stale_timer_reclaims = sstats.stale_skips;

        Ok(RunResult {
            summary: primary.summary(),
            metrics: primary,
            incast_metrics,
            app: self.app.map(|a| a.metrics),
            fabric: self.fabric.stats(),
            transport: self.totals,
            events,
            sched: self.counters,
            finished_at: self.finished_at,
            memory,
        })
    }

    fn on_flow_arrival(&mut self, now: Time, i: usize, spec: FlowSpec) {
        debug_assert_eq!(spec.at, now);
        let flow = FlowId(i as u32);
        let (src, dst) = (HostId(spec.src), HostId(spec.dst));
        let kind = self.cfg.transport;
        let (snd, rcv) = endpoints(kind, &self.tcfg, flow, src, dst, spec.bytes, now);
        self.slab.insert(i, spec, snd, rcv);
        irn_telemetry::trace!(
            "flow.start",
            t = now.as_nanos(),
            flow = i,
            src = spec.src,
            dst = spec.dst,
            bytes = spec.bytes,
        );
        self.nics[spec.src as usize].register(flow);
        self.try_send(now, src);
    }

    fn on_fabric(&mut self, now: Time, fe: FabricEvent) {
        let (fabric, sched) = (&mut self.fabric, &mut self.sched);
        let out = fabric.handle(now, fe, sched);
        match out {
            None => {}
            Some(FabricOutput::HostTxReady { host }) => self.try_send(now, host),
            Some(FabricOutput::Deliver { host, pkt }) => self.on_deliver(now, host, pkt),
            Some(FabricOutput::Dropped { flow }) => self.on_drop(now, flow),
        }
    }

    /// A packet died inside the fabric: it will never be delivered, so
    /// it leaves the flow's in-flight count here (recovery itself stays
    /// timer/NACK-driven, exactly as before).
    fn on_drop(&mut self, now: Time, flow: FlowId) {
        let idx = flow.idx();
        if let Some(slot) = self.slab.slot_mut(idx) {
            slot.inflight -= 1;
            self.maybe_retire(now, idx);
        }
    }

    /// Process one delivered packet.
    fn on_deliver(&mut self, now: Time, host: HostId, id: PktId) {
        let pkt: Packet = self.fabric.take_delivered(id);
        irn_telemetry::trace!(
            "pkt.rx",
            t = now.as_nanos(),
            flow = pkt.flow.0,
            host = host.0,
            pkt = pkt.kind.label(),
            psn = pkt.psn,
        );
        let idx = pkt.flow.idx();
        // The packet just left the fabric; balance the in-flight count
        // taken at host TX. A retired flow cannot have counted packets
        // in flight (retirement requires the count to reach zero), so
        // the guard only skips packets sent after retirement (late
        // control traffic), which were never counted.
        if let Some(slot) = self.slab.slot_mut(idx) {
            slot.inflight -= 1;
        }
        match pkt.kind {
            PacketKind::Data => {
                // A data packet counts against its flow's in-flight total
                // until here, so its flow has started and cannot have
                // retired: the slot is live and holds the receiver.
                let Some(FlowSlot {
                    spec,
                    receiver: Some(receiver),
                    receiver_done,
                    ..
                }) = self.slab.slot_mut(idx)
                else {
                    panic!("data for flow {idx}, which has no live receiver");
                };
                let spec = *spec;
                let out = receiver.on_data(now, &pkt);
                *receiver_done |= out.completed;
                if let Some(ack) = out.ack {
                    if ack.kind == PacketKind::Nack {
                        irn_telemetry::trace!(
                            "nack.tx",
                            t = now.as_nanos(),
                            flow = pkt.flow.0,
                            host = host.0,
                            psn = ack.psn,
                            sack = ack.sack,
                        );
                    }
                    self.nics[host.idx()].push_control(ack);
                }
                if let Some(cnp) = out.cnp {
                    irn_telemetry::trace!(
                        "cnp.tx",
                        t = now.as_nanos(),
                        flow = pkt.flow.0,
                        host = host.0,
                    );
                    self.nics[host.idx()].push_control(cnp);
                }
                if out.completed {
                    self.record_completion(now, idx, spec);
                }
                self.maybe_retire(now, idx);
                self.try_send(now, host);
            }
            PacketKind::Ack | PacketKind::Nack => {
                if let Some(slot) = self.slab.wake(idx) {
                    if let Some(s) = slot.sender.as_mut() {
                        let done = s.on_ack_packet(now, &pkt);
                        drain_timer(s, &mut slot.timer, &mut self.sched, now, idx);
                        if done {
                            self.totals += s.stats();
                            slot.sender = None;
                        }
                    }
                }
                // Retire even when the sender is already gone: a
                // duplicate final ack (the sender completed on the
                // first copy) can be the flow's last in-flight packet,
                // and skipping the check here would leave the flow
                // finished but never retired — starving a closed-loop
                // driver waiting on the retirement callback.
                self.maybe_retire(now, idx);
                self.try_send(now, host);
            }
            PacketKind::Cnp => {
                if let Some(s) = self.slab.wake(idx).and_then(|s| s.sender.as_mut()) {
                    s.on_cnp(now);
                }
                // Rate drop needs no immediate send attempt.
                self.maybe_retire(now, idx);
            }
        }
    }

    /// Retire the flow if it is finished ([`FlowSlab::retire`]), and
    /// tell a closed-loop driver.
    fn maybe_retire(&mut self, now: Time, idx: usize) {
        if !self.slab.retire(idx, &mut self.sched) {
            return;
        }
        irn_telemetry::trace!("flow.retire", t = now.as_nanos(), flow = idx);
        // The closed-loop seam: a retired flow is the one event an
        // application reacts to. The driver sees only (now, flow id,
        // flow count) — virtual time, no wall clock — so its spawns are
        // byte-identical at any --jobs and across worker fleets.
        if let Some(app) = self.app.as_mut() {
            app.sink.clear();
            let next_index = self.slab.flows() as u32;
            app.driver
                .on_flow_retired(now, idx as u32, next_index, &mut app.sink);
            app.drain_sink(now, &mut self.slab, &mut self.sched);
        }
    }

    fn on_qp_timer(&mut self, now: Time, flow: u32) {
        let idx = flow as usize;
        let Some(FlowSlot {
            spec,
            sender: Some(sender),
            timer,
            ..
        }) = self.slab.wake(idx)
        else {
            // Structurally impossible: completion cancels the timer in
            // the scheduler. Counted (and asserted zero in the
            // integration suite) rather than silently tolerated.
            self.counters.stale_timer_events += 1;
            return;
        };
        irn_telemetry::trace!("timer.fire", t = now.as_nanos(), flow = idx);
        if sender.on_timer(now) {
            drain_timer(sender, timer, &mut self.sched, now, idx);
            let src = HostId(spec.src);
            self.try_send(now, src);
        }
    }

    /// Keep feeding the host's uplink while it is idle and traffic is
    /// ready; otherwise schedule the earliest pacing wake-up.
    fn try_send(&mut self, now: Time, host: HostId) {
        loop {
            if !self.fabric.host_tx_idle(host) {
                return;
            }
            let (nics, slab) = (&mut self.nics, &mut self.slab);
            let poll = nics[host.idx()].poll(now, |flow, t| slab.poll_sender(flow.idx(), t));
            match poll {
                NicPoll::Packet(pkt) => {
                    let flow_idx = pkt.flow.idx();
                    let (fabric, sched) = (&mut self.fabric, &mut self.sched);
                    fabric.host_start_tx(now, host, pkt, sched);
                    // The packet is now inside the fabric; count it
                    // against its flow (live flows only — a retired
                    // flow's late control packets go uncounted, and
                    // their delivery is uncounted symmetrically).
                    if let Some(slot) = self.slab.wake(flow_idx) {
                        slot.inflight += 1;
                        // The sender may have armed its timer in poll().
                        if let Some(s) = slot.sender.as_mut() {
                            drain_timer(s, &mut slot.timer, &mut self.sched, now, flow_idx);
                        }
                    }
                }
                NicPoll::Wait(t) => {
                    self.schedule_wake(host, t.max(now));
                    return;
                }
                NicPoll::Idle => return,
            }
        }
    }

    /// Deduplicated NIC wake-up scheduling: keep only the earliest.
    /// Re-arming supersedes the later deadline in O(1) — the old wake
    /// event is gone, not filtered at pop.
    fn schedule_wake(&mut self, host: HostId, at: Time) {
        let id = self.nic_wake[host.idx()];
        let better = self.sched.timer_deadline(id).is_none_or(|d| at < d);
        if better {
            self.sched
                .timer_arm(id, at, PackedEvent::pack(TAG_NIC_WAKE, host.0, 0));
        }
    }

    fn record_completion(&mut self, now: Time, idx: usize, spec: FlowSpec) {
        let hops = self.fabric.path_hops(HostId(spec.src), HostId(spec.dst));
        let header = self.tcfg.data_wire_bytes(0) as u64;
        let packets = self.tcfg.packets_for(spec.bytes);
        let wire_total = spec.bytes + packets as u64 * header;
        let one_pkt = (self.tcfg.data_wire_bytes(self.tcfg.mtu) as u64).min(wire_total);
        let ideal = ideal_fct(
            wire_total,
            one_pkt,
            hops,
            self.cfg.bandwidth.as_bps_f64(),
            self.cfg.prop_delay,
        );
        let record = FlowRecord {
            flow: idx as u32,
            bytes: spec.bytes,
            packets,
            start: spec.at,
            finish: now,
            ideal,
        };
        irn_telemetry::trace!(
            "flow.done",
            t = now.as_nanos(),
            flow = idx,
            src = spec.src,
            dst = spec.dst,
            fct_ns = now.saturating_since(spec.at).as_nanos(),
        );
        match self.incast_from {
            Some(boundary) if idx >= boundary => self.incast_metrics.record(record),
            _ => self.metrics.record(record),
        }
        self.completed += 1;
        self.finished_at = self.finished_at.max(now);
    }
}

/// A poll reached a sender through [`FlowSlab::poll_sender`]: counted by
/// this crate's unit tests, nothing in any other build. (A function
/// pair down here rather than a `cfg` attribute at the call site: CI's
/// size ledger counts a file's lines up to its first test-only item.)
#[cfg(not(test))]
#[inline(always)]
fn count_real_poll() {}

#[cfg(test)]
use tests::count_real_poll;

#[cfg(test)]
mod tests {
    use super::*;
    use irn_transport::TransportKind;
    use irn_workload::{SizeDistribution, TrafficModel};
    use std::cell::Cell;

    thread_local! {
        /// Real sender polls on this test thread (the debug-only re-poll
        /// of a parked sender is not one).
        static REAL_POLLS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count_real_poll() {
        REAL_POLLS.with(|c| c.set(c.get() + 1));
    }

    const SPEC: FlowSpec = FlowSpec {
        src: 0,
        dst: 1,
        bytes: 1_000,
        at: Time::ZERO,
    };

    fn one_packet_flow(flow: u32) -> (Sender, Receiver) {
        let tcfg = TransportConfig::irn_default();
        let (id, src, dst) = (FlowId(flow), HostId(0), HostId(1));
        endpoints(TransportKind::Irn, &tcfg, id, src, dst, 1_000, Time::ZERO)
    }

    /// Insert `flow` and poll it until its sender parks.
    fn insert_parked(slab: &mut FlowSlab, flow: usize) {
        let (s, r) = one_packet_flow(flow as u32);
        slab.insert(flow, SPEC, s, r);
        assert!(matches!(
            slab.poll_sender(flow, Time::ZERO),
            SenderPoll::Packet(_)
        ));
        assert_eq!(slab.entry(flow) & PARKED, 0, "a packet does not park");
        assert_eq!(slab.poll_sender(flow, Time::ZERO), SenderPoll::Blocked);
        assert_ne!(slab.entry(flow) & PARKED, 0, "Blocked parks");
    }

    /// Finish `flow` the way the engine does and recycle its slot.
    fn finish(slab: &mut FlowSlab, flow: usize) {
        assert!(
            !slab.retire(flow, &mut Scheduler::new()),
            "sender still live"
        );
        let slot = slab.slot_mut(flow).expect("live");
        slot.sender = None;
        slot.receiver_done = true;
        assert!(slab.retire(flow, &mut Scheduler::new()));
    }

    #[test]
    fn flow_slot_holds_half_a_qp_context_per_endpoint() {
        // 728 B when each endpoint carried both halves, 552 B with the
        // bitmaps on the heap; the slab's footprint and
        // `peak_flow_state_bytes` scale with this, and it now holds the
        // sender's SACK bitmap and the receiver's two planes in place.
        let (slot, s, r) = (
            std::mem::size_of::<FlowSlot>(),
            std::mem::size_of::<Sender>(),
            std::mem::size_of::<Receiver>(),
        );
        assert!(slot <= 528, "FlowSlot {slot} B (Sender {s}, Receiver {r})");
    }

    #[test]
    fn parked_senders_are_answered_without_a_poll() {
        let mut slab = FlowSlab::new(1);
        insert_parked(&mut slab, 0);
        let before = REAL_POLLS.with(Cell::get);
        for _ in 0..10 {
            assert_eq!(slab.poll_sender(0, Time::ZERO), SenderPoll::Blocked);
        }
        assert_eq!(REAL_POLLS.with(Cell::get), before);
    }

    #[test]
    fn wake_unparks_and_slot_mut_does_not() {
        let mut slab = FlowSlab::new(1);
        insert_parked(&mut slab, 0);
        slab.slot_mut(0).expect("live").inflight += 1;
        assert!(slab.slot_mut(0).expect("live").timer.is_none());
        assert_ne!(slab.entry(0) & PARKED, 0, "slot access leaves it parked");
        assert!(slab.wake(0).is_some_and(|s| s.sender.is_some()));
        assert_eq!(slab.entry(0), 0, "wake hands out an unparked flow");
        let before = REAL_POLLS.with(Cell::get);
        assert_eq!(slab.poll_sender(0, Time::ZERO), SenderPoll::Blocked);
        assert_eq!(
            REAL_POLLS.with(Cell::get),
            before + 1,
            "woken: polled again"
        );
    }

    #[test]
    fn retire_and_never_started_see_through_the_parked_bit() {
        let mut slab = FlowSlab::new(2);
        insert_parked(&mut slab, 0);
        assert_ne!(slab.entry(0), NOT_STARTED);
        assert_eq!(slab.entry(1), NOT_STARTED);
        assert!(!slab.retire(1, &mut Scheduler::new()), "never started");
        // Retire straight from the parked state (the engine always
        // passes through `wake` first; the slab does not rely on it).
        finish(&mut slab, 0);
        assert_eq!(slab.entry(0), RETIRED);
        assert_eq!(slab.free, vec![0], "the index is recycled without the bit");
        assert!(slab.slot_mut(0).is_none() && slab.wake(0).is_none());
        assert!(!slab.retire(0, &mut Scheduler::new()), "retired once");
        assert_eq!(slab.poll_sender(0, Time::ZERO), SenderPoll::Done);
        assert_eq!(slab.poll_sender(1, Time::ZERO), SenderPoll::Done);
    }

    #[test]
    fn a_recycled_slot_starts_unparked() {
        let mut slab = FlowSlab::new(2);
        insert_parked(&mut slab, 0);
        finish(&mut slab, 0);
        let (s, r) = one_packet_flow(1);
        slab.insert(1, SPEC, s, r);
        assert_eq!(slab.entry(1), 0, "same slot, no inherited bit");
        assert_eq!(slab.slots.len(), 1);
        assert!(matches!(
            slab.poll_sender(1, Time::ZERO),
            SenderPoll::Packet(_)
        ));
    }

    #[test]
    fn parked_entries_never_collide_with_the_sentinels() {
        // Both sentinels carry the bit, so "parked" is only ever read
        // off a live entry, and the largest slot index the slab admits
        // stays clear of them parked or not.
        assert_eq!(NOT_STARTED & PARKED, PARKED);
        assert_eq!(RETIRED & PARKED, PARKED);
        let max_slot = (PARKED >> 1) - 1;
        for entry in [max_slot, max_slot | PARKED, 0, PARKED] {
            assert!(entry != NOT_STARTED && entry != RETIRED);
            assert_eq!(live_slot(entry), Some((entry & !PARKED) as usize));
        }
        assert_eq!(live_slot(NOT_STARTED), None);
        assert_eq!(live_slot(RETIRED), None);
    }

    #[test]
    fn the_window_spans_the_oldest_unretired_to_the_newest_started_flow() {
        let mut slab = FlowSlab::new(6);
        // Flows may start out of id order; the ids skipped are in the
        // window, not started.
        insert_parked(&mut slab, 1);
        assert_eq!((slab.base, slab.slot_of.len()), (0, 2));
        assert_eq!(slab.entry(0), NOT_STARTED);
        insert_parked(&mut slab, 0);
        insert_parked(&mut slab, 3);
        assert_eq!((slab.base, slab.slot_of.len()), (0, 4));
        // A retirement behind the front leaves the window alone...
        finish(&mut slab, 1);
        assert_eq!((slab.base, slab.slot_of.len()), (0, 4));
        // ...and retiring the front drops every retired id up to the
        // first flow that is live or has not started.
        finish(&mut slab, 0);
        assert_eq!((slab.base, slab.slot_of.len()), (2, 2));
        assert_eq!([slab.entry(0), slab.entry(1)], [RETIRED; 2]);
        assert_eq!(slab.entry(2), NOT_STARTED);
        assert_eq!(slab.entry(5), NOT_STARTED, "past the window");
        assert!(live_slot(slab.entry(3)).is_some());
        assert_eq!(slab.poll_sender(1, Time::ZERO), SenderPoll::Done);
        assert_eq!((slab.window_peak, slab.flows()), (4, 6));
        let slot = std::mem::size_of::<FlowSlot>() as u64;
        assert_eq!(slab.peak_bytes(), 3 * (slot + 4) + 4 * 4);
    }

    #[test]
    fn grown_entries_start_unparked() {
        let mut slab = FlowSlab::new(1);
        insert_parked(&mut slab, 0);
        slab.grow();
        assert_eq!(slab.entry(1), NOT_STARTED);
        let (s, r) = one_packet_flow(1);
        slab.insert(1, SPEC, s, r);
        assert_eq!(slab.entry(1), 1);
        assert_ne!(slab.entry(0) & PARKED, 0, "the neighbour stays parked");
    }

    /// The count the parking buys: a single-packet flow costs three real
    /// sender polls (its packet, the `Blocked` that parks it, the `Done`
    /// after its ACK) however many other senders wait at its host. The
    /// scan-everything closure paid one per waiting sender per
    /// `try_send` — 102 per flow on `mice-flood-k8`.
    #[test]
    fn mice_cell_polls_each_sender_three_times() {
        let flows = 2_000;
        let cfg = ExperimentConfig::quick(flows).with_traffic(TrafficModel::Poisson {
            load: 0.3,
            sizes: SizeDistribution::Fixed(1_000),
            flow_count: flows,
        });
        let before = REAL_POLLS.with(Cell::get);
        let result = Simulation::new(cfg).run();
        let polls = REAL_POLLS.with(Cell::get) - before;
        assert_eq!(result.summary.flows, flows);
        assert_eq!(
            result.transport.sent, flows as u64,
            "no loss, no retransmission"
        );
        assert!(
            polls <= 3 * flows as u64 + 16,
            "{polls} real sender polls for {flows} single-packet flows"
        );
        assert!(polls >= 2 * flows as u64, "every flow is polled and parked");
    }
}
