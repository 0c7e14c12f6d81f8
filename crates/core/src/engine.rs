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
//! taken under that order (`tests/tests/seeds.rs` pins every artifact).
//!
//! The engine decides when a flow moves; `Flows` (`flows.rs`) moves
//! it and keeps every per-flow book. No concrete sender or receiver
//! type and no per-flow book is named in this file (CI checks).

use std::collections::HashMap;

use irn_metrics::{AppMetrics, MetricsCollector};
use irn_net::{Fabric, FabricEvent, FabricOutput, FlowId, HostId, Packet, PacketKind, PktId};
use irn_sim::{Scheduler, Time, TimerId};
use irn_transport::{HostNic, NicPoll};
use irn_workload::{AppDriver, AppEvent, AppSink, Arrivals, FlowSpec, TrafficCtx};

use crate::audit::{audit, AuditFailure, Books, Drain, Entries};
use crate::config::ExperimentConfig;
use crate::flows::Flows;
use crate::result::{MemoryStats, RunResult, SchedCounters};

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
pub(crate) struct PackedEvent(u64);

const TAG_TX_DONE: u64 = 0;
const TAG_ARRIVE: u64 = 1;
const TAG_PFC_XOFF: u64 = 2;
const TAG_PFC_XON: u64 = 3;
pub(crate) const TAG_QP_TIMER: u64 = 4;
const TAG_NIC_WAKE: u64 = 5;
const TAG_APP_SPAWN: u64 = 6;

impl PackedEvent {
    #[inline]
    pub(crate) fn pack(tag: u64, a: u32, b: u32) -> PackedEvent {
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

/// The closed-loop application runtime riding on the engine: the
/// reactive driver, its reusable output sink, the per-operation metrics
/// it feeds, and the spawned flows that have not started yet.
struct AppRuntime {
    driver: Box<dyn AppDriver>,
    sink: AppSink,
    metrics: AppMetrics,
    /// Spawned flows' specs by flow id, each until its `AppSpawn` fires.
    pending: HashMap<u32, FlowSpec>,
}

impl AppRuntime {
    /// Apply a driver callback's output: fold application events into
    /// traces and per-operation metrics, then give each spawned flow the
    /// next id and schedule its start.
    fn drain_sink(&mut self, now: Time, flows: &mut Flows, sched: &mut Scheduler<PackedEvent>) {
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
            let flow = flows.grow();
            self.pending.insert(flow, spec);
            sched.push(spec.at, PackedEvent::pack(TAG_APP_SPAWN, flow, 0));
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
    /// The run finished but broke a conservation law
    /// ([`crate::audit`]): a bug in the simulator, not in its input.
    Audit(AuditFailure),
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
            RunError::Audit(failure) => write!(f, "{failure}"),
        }
    }
}

/// One experiment in flight.
pub struct Simulation {
    cfg: ExperimentConfig,
    sched: Scheduler<PackedEvent>,
    fabric: Fabric,
    /// The workload's flows in arrival order, generated as the run
    /// reaches them instead of pre-pushed into the queue.
    arrivals: Arrivals,
    /// The flows in flight and their books (`Flows`).
    flows: Flows,
    nics: Vec<HostNic>,
    /// Per-host NIC pacing timer.
    nic_wake: Vec<TimerId>,
    counters: SchedCounters,
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
            flows: Flows::new(&cfg, fabric.diameter_hops(), &arrivals),
            fabric,
            arrivals,
            nics: (0..hosts).map(|_| HostNic::new()).collect(),
            nic_wake,
            counters: SchedCounters::default(),
            app,
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
        if self.flows.count == 0 {
            return Err(RunError::NoFlows);
        }
        // Give a closed-loop driver its time-zero callback (trace
        // records for the seed operations; never any flows).
        if let Some(app) = self.app.as_mut() {
            app.sink.clear();
            app.driver.on_start(&mut app.sink);
            debug_assert!(app.sink.flows.is_empty(), "on_start must not spawn");
            app.drain_sink(Time::ZERO, &mut self.flows, &mut self.sched);
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
                    completed: self.flows.completed,
                    flows: self.flows.count,
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
                        if let Some(src) =
                            self.flows.fire_timer(now, flow as usize, &mut self.sched)
                        {
                            self.try_send(now, src);
                        }
                    }
                    Event::NicWake { host } => {
                        self.counters.nic_wake_events += 1;
                        self.try_send(now, HostId(host));
                    }
                    Event::AppSpawn { flow } => {
                        let spawned = self.app.as_mut().and_then(|a| a.pending.remove(&flow));
                        if let Some(spec) = spawned {
                            self.on_flow_arrival(now, flow as usize, spec);
                        }
                    }
                }
            } else if let Some((flow, spec)) = arrival {
                self.sched.advance_to(now);
                self.on_flow_arrival(now, flow as usize, spec);
            }
            // With a closed-loop driver every completion may spawn more
            // work, so the run ends only when the queue truly drains;
            // open-loop runs keep the early exit (late NIC wake-ups and
            // PFC resumes after the last completion are not work).
            if self.app.is_none() && self.flows.completed == self.flows.count {
                break;
            }
        }
        if self.flows.completed != self.flows.count {
            return Err(RunError::Deadlock {
                completed: self.flows.completed,
                flows: self.flows.count,
            });
        }

        let (books, flows_drain) = self.flows.close(&self.sched);
        let sstats = self.sched.stats();
        self.counters.past_clamps = sstats.past_clamps;
        self.counters.timer_arms = sstats.timer_arms;
        self.counters.timer_cancels = sstats.timer_cancels;
        self.counters.stale_timer_reclaims = sstats.stale_skips;
        self.counters.stale_timer_events = self.flows.stale_timers;

        // A closed-loop run stops only when its queue drains, so what
        // its driver did and what it leaves behind are audited too.
        let drain = self.app.as_ref().map(|app| Drain {
            // A driver runs only for a closed-loop model, which promises.
            promised: self.cfg.traffic.promised().unwrap_or_default(),
            ops: app.metrics.ops(),
            live_packets: self.fabric.pkt_pool_live() as u64,
            ..flows_drain
        });
        let fabric = self.fabric.stats();
        audit(&Books {
            pfc: self.cfg.pfc,
            fault_injection: self.cfg.loss_injection > 0.0,
            fabric,
            sched: self.counters,
            events,
            entries: Entries {
                pushes: sstats.pushes,
                pops: sstats.pops,
                reclaimed: sstats.stale_skips,
                pending: self.sched.held() as u64,
            },
            drain,
            ..books
        })
        .map_err(RunError::Audit)?;

        let (primary, incast_metrics) = self.flows.take_metrics();

        // Fixed size plus heap of every metrics block the result holds.
        let (mut metrics_bytes, mut hist_buckets) = (0, 0);
        for m in std::iter::once(&primary).chain(&incast_metrics) {
            metrics_bytes += std::mem::size_of::<MetricsCollector>() as u64 + m.heap_bytes();
            hist_buckets += m.allocated_buckets();
        }
        if let Some(a) = &self.app {
            metrics_bytes += std::mem::size_of::<AppMetrics>() as u64 + a.metrics.heap_bytes();
            hist_buckets += a.metrics.allocated_buckets();
        }
        let memory = MemoryStats {
            peak_flow_state_bytes: self.flows.peak_bytes(),
            metrics_bytes,
            flows: self.flows.count as u64,
            hist_buckets,
            pkt_pool_bytes: self.fabric.pkt_pool_bytes(),
            pkt_pool_pkts: self.fabric.pkt_pool_peak() as u64,
        };

        Ok(RunResult {
            summary: primary.summary(),
            metrics: primary,
            incast_metrics,
            app: self.app.map(|a| a.metrics),
            fabric,
            transport: self.flows.totals,
            events,
            sched: self.counters,
            finished_at: self.flows.finished_at,
            memory,
        })
    }

    fn on_flow_arrival(&mut self, now: Time, i: usize, spec: FlowSpec) {
        debug_assert_eq!(spec.at, now);
        self.counters.flow_arrivals += 1;
        self.flows.start(now, i, spec);
        self.nics[spec.src as usize].register(FlowId(i as u32));
        self.try_send(now, HostId(spec.src));
    }

    fn on_fabric(&mut self, now: Time, fe: FabricEvent) {
        match self.fabric.handle(now, fe, &mut self.sched) {
            None => {}
            Some(FabricOutput::HostTxReady { host }) => self.try_send(now, host),
            Some(FabricOutput::Deliver { host, pkt }) => self.on_deliver(now, host, pkt),
            Some(FabricOutput::Dropped { flow }) => {
                // A packet died inside the fabric: it will never be
                // delivered (recovery itself stays timer/NACK-driven).
                self.flows.left_fabric(flow.idx());
                self.maybe_retire(now, flow.idx());
            }
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
        let out = self
            .flows
            .deliver(now, host, &pkt, &self.fabric, &mut self.sched);
        for ctl in out.into_iter().flat_map(|o| [o.ack, o.cnp]).flatten() {
            self.nics[host.idx()].push_control(ctl);
        }
        // Retire even when the sender is already gone: a duplicate final
        // ack (the sender completed on the first copy) can be the flow's
        // last in-flight packet, and skipping the check here would leave
        // the flow finished but never retired — starving a closed-loop
        // driver waiting on the retirement callback.
        self.maybe_retire(now, pkt.flow.idx());
        // A CNP's rate drop needs no immediate send attempt.
        if pkt.kind != PacketKind::Cnp {
            self.try_send(now, host);
        }
    }

    /// Retire the flow if it is finished (`Flows::retire`), and tell a
    /// closed-loop driver.
    fn maybe_retire(&mut self, now: Time, idx: usize) {
        if !self.flows.retire(idx, &mut self.sched) {
            return;
        }
        irn_telemetry::trace!("flow.retire", t = now.as_nanos(), flow = idx);
        // The closed-loop seam: a retired flow is the one event an
        // application reacts to. The driver sees only (now, flow id,
        // flow count) — virtual time, no wall clock — so its spawns are
        // byte-identical at any --jobs and across worker fleets.
        if let Some(app) = self.app.as_mut() {
            app.sink.clear();
            let next_index = self.flows.count as u32;
            app.driver
                .on_flow_retired(now, idx as u32, next_index, &mut app.sink);
            app.drain_sink(now, &mut self.flows, &mut self.sched);
        }
    }

    /// Keep feeding the host's uplink while it is idle and traffic is
    /// ready; otherwise schedule the earliest pacing wake-up.
    fn try_send(&mut self, now: Time, host: HostId) {
        loop {
            if !self.fabric.host_tx_idle(host) {
                return;
            }
            let (nics, flows) = (&mut self.nics, &mut self.flows);
            let poll = nics[host.idx()].poll(now, |flow, t| flows.poll_sender(flow.idx(), t));
            match poll {
                NicPoll::Packet(pkt) => {
                    let flow_idx = pkt.flow.idx();
                    self.fabric.host_start_tx(now, host, pkt, &mut self.sched);
                    self.flows.sent(now, flow_idx, &mut self.sched);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::tests::real_polls;
    use irn_workload::{SizeDistribution, TrafficModel};

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
        let before = real_polls();
        let result = Simulation::new(cfg).run();
        let polls = real_polls() - before;
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
