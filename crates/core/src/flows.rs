//! A flow's life, from arrival to retirement, and every book kept per
//! flow ([`Flows`]): each transition is one method, and each book
//! changes at one site.

use std::collections::VecDeque;
use std::mem::take;

use irn_metrics::{ideal_fct, FlowRecord, MetricsCollector};
use irn_net::{Fabric, FlowId, HostId, Packet, PacketKind};
use irn_sim::{Duration, Scheduler, Time, TimerId};
use irn_transport::{
    endpoints, Receiver, RecvOutcome, Sender, SenderPoll, TimerCmd, TransportConfig, TransportKind,
};
use irn_workload::{Arrivals, FlowSpec};

use crate::audit::{Books, Drain};
use crate::config::ExperimentConfig;
use crate::engine::{PackedEvent, TAG_QP_TIMER};
use crate::result::TransportTotals;

/// Live state of one in-progress flow: the slab's unit of allocation.
struct FlowSlot {
    /// The only place a flow's spec lives while it runs.
    spec: FlowSpec,
    sender: Option<Sender>,
    receiver: Option<Receiver>,
    /// Retransmission timer, created lazily and **owned by the slot**:
    /// re-arming overwrites the payload, so the next occupant reuses it.
    timer: Option<TimerId>,
    /// Packets of this flow currently inside the fabric (data and
    /// control alike; +1 at host TX, −1 at delivery or drop).
    inflight: u32,
    /// The receiver delivered the last payload byte.
    receiver_done: bool,
}

impl FlowSlot {
    /// Apply any timer request the flow's sender produced to the slot's
    /// scheduler timer.
    fn drain_timer(&mut self, sched: &mut Scheduler<PackedEvent>, now: Time, flow: usize) {
        let Some(req) = self.sender.as_mut().and_then(Sender::take_timer_request) else {
            return;
        };
        match req {
            TimerCmd::Arm(deadline) => {
                irn_telemetry::trace!(
                    "timer.arm",
                    t = now.as_nanos(),
                    flow = flow,
                    deadline = deadline.as_nanos(),
                );
                let id = *self.timer.get_or_insert_with(|| sched.timer_create());
                sched.timer_arm(
                    id,
                    deadline,
                    PackedEvent::pack(TAG_QP_TIMER, flow as u32, 0),
                );
            }
            TimerCmd::Cancel => {
                irn_telemetry::trace!("timer.cancel", t = now.as_nanos(), flow = flow);
                if let Some(id) = self.timer {
                    sched.timer_cancel(id);
                }
            }
        }
    }
}

/// Fold a finished sender's counters into the run's totals: the one
/// site the totals grow.
fn fold_sender(totals: &mut TransportTotals, sender: Option<Sender>) {
    let Some(s) = sender.map(|s| s.stats()) else {
        return;
    };
    totals.sent += s.sent;
    totals.retransmitted += s.retransmitted;
    totals.nacks += s.nacks;
    totals.timeouts += s.timeouts;
    totals.cnps += s.cnps;
}

/// Where a flow's state lives, encoded in the `flow → slot` window.
const NOT_STARTED: u32 = u32::MAX;
const RETIRED: u32 = u32::MAX - 1;
/// Top bit of a live flow's `slot_of` entry: its sender answered
/// [`SenderPoll::Blocked`], which is sticky until the sender is fed, so
/// [`Flows::poll_sender`] answers for it from the map alone. Slot
/// indices stay below the bit (the two sentinels above carry it).
const PARKED: u32 = 1 << 31;

/// Decode a `slot_of` entry to its slot index, parked or not.
#[inline]
fn live_slot(entry: u32) -> Option<usize> {
    match entry {
        NOT_STARTED | RETIRED => None,
        si => Some((si & !PARKED) as usize),
    }
}

/// The run's flows: a slab of live flow state keyed by dense `u32` flow
/// ids, and the books kept over every flow.
///
/// A slot is allocated at flow arrival (reusing a free one, LIFO) and
/// recycled when the flow retires, so `slots.len()` is the live-flow
/// high-water mark (`MemoryStats::peak_flow_state_bytes`). The `flow →
/// slot` map is a window from the oldest unretired flow (`base`) to the
/// newest started one: ids below it are retired, ids past it have not
/// started, and its front drops as flows retire in order.
pub(crate) struct Flows {
    slots: Vec<FlowSlot>,
    /// Recycled slot indices (reuse the hottest slot first).
    free: Vec<u32>,
    /// Per flow from `base` on: slot index, [`NOT_STARTED`] or [`RETIRED`].
    slot_of: VecDeque<u32>,
    /// The flow id of `slot_of[0]`.
    base: usize,
    /// High-water mark of `slot_of.len()`.
    window_peak: usize,
    /// Flows in the run so far, streamed (started or not) or spawned.
    pub(crate) count: usize,
    kind: TransportKind,
    /// The run's transport settings, built once; each sender copies them.
    tcfg: TransportConfig,
    prop_delay: Duration,
    /// Index of the first incast flow, when the workload has one.
    incast_from: Option<usize>,
    metrics: MetricsCollector,
    incast_metrics: MetricsCollector,
    pub(crate) totals: TransportTotals,
    /// `ceil(bytes / mtu)` over the started flows: the audit's first sends.
    first_sends: u64,
    pub(crate) completed: usize,
    pub(crate) finished_at: Time,
    /// Timer expiries that found no sender (audited to zero).
    pub(crate) stale_timers: u64,
}

impl Flows {
    pub(crate) fn new(cfg: &ExperimentConfig, diameter_hops: usize, arrivals: &Arrivals) -> Flows {
        Flows {
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: VecDeque::new(),
            base: 0,
            window_peak: 0,
            count: arrivals.flow_count(),
            kind: cfg.transport,
            tcfg: cfg.transport_config(diameter_hops),
            prop_delay: cfg.prop_delay,
            incast_from: arrivals.incast_from(),
            metrics: MetricsCollector::new(),
            incast_metrics: MetricsCollector::new(),
            totals: TransportTotals::default(),
            first_sends: 0,
            completed: 0,
            finished_at: Time::ZERO,
            stale_timers: 0,
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

    /// The `slot_of` entry of a flow inside the window (a live one).
    #[inline]
    fn entry_mut(&mut self, flow: usize) -> &mut u32 {
        &mut self.slot_of[flow - self.base]
    }

    /// Flow `flow` arrives: build its endpoints and give it a slot.
    pub(crate) fn start(&mut self, now: Time, flow: usize, spec: FlowSpec) {
        let (src, dst) = (HostId(spec.src), HostId(spec.dst));
        let id = FlowId(flow as u32);
        let (snd, rcv) = endpoints(self.kind, &self.tcfg, id, src, dst, spec.bytes, now);
        self.insert(flow, spec, snd, rcv);
        self.first_sends += self.tcfg.packets_for(spec.bytes) as u64;
        irn_telemetry::trace!(
            "flow.start",
            t = now.as_nanos(),
            flow = flow,
            src = spec.src,
            dst = spec.dst,
            bytes = spec.bytes,
        );
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

    /// The flow's live slot, left parked: nothing reached through it
    /// here (the in-flight count, the receiver) feeds the sender.
    fn slot_mut(&mut self, flow: usize) -> Option<&mut FlowSlot> {
        live_slot(self.entry(flow)).map(|si| &mut self.slots[si])
    }

    /// The flow's live slot, unparked: the only way to a `&mut Sender`
    /// outside [`Flows::poll_sender`], so whatever feeds the sender wakes
    /// it by construction.
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
    pub(crate) fn poll_sender(&mut self, flow: usize, t: Time) -> SenderPoll {
        let entry = self.entry(flow);
        let Some(si) = live_slot(entry) else {
            return SenderPoll::Done;
        };
        if entry & PARKED != 0 {
            // Debug builds poll anyway and check the stickiness contract;
            // a `Blocked` poll leaves sender state as it was, so debug and
            // release runs stay byte-identical.
            debug_assert_eq!(
                self.slots[si].sender.as_mut().map(|s| s.poll(t)),
                Some(SenderPoll::Blocked),
                "parked sender of flow {flow} was fed without waking it"
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

    /// A packet of the flow entered the fabric (a retired flow's late
    /// control packets go uncounted).
    pub(crate) fn sent(&mut self, now: Time, flow: usize, sched: &mut Scheduler<PackedEvent>) {
        if let Some(slot) = self.wake(flow) {
            slot.inflight += 1;
            // The sender may have armed its timer in poll().
            slot.drain_timer(sched, now, flow);
        }
    }

    /// A packet of the flow left the fabric, delivered or dropped. A
    /// retired flow has none counted (retirement needs zero), so only
    /// packets sent after it, never counted, are skipped.
    pub(crate) fn left_fabric(&mut self, flow: usize) {
        if let Some(slot) = self.slot_mut(flow) {
            slot.inflight -= 1;
        }
    }

    /// A packet of the flow left the fabric at its endpoint `host`: feed
    /// it to the sender (ACK, NACK, CNP) or to the receiver (data), which
    /// completes the flow on its last byte. Returns what a receiver sends
    /// back.
    pub(crate) fn deliver(
        &mut self,
        now: Time,
        host: HostId,
        pkt: &Packet,
        fabric: &Fabric,
        sched: &mut Scheduler<PackedEvent>,
    ) -> Option<RecvOutcome> {
        let flow = pkt.flow.idx();
        self.left_fabric(flow);
        if pkt.kind != PacketKind::Data {
            let slot = self.wake(flow)?;
            let sender = slot.sender.as_mut()?;
            if pkt.kind == PacketKind::Cnp {
                sender.on_cnp(now);
            } else {
                let done = sender.on_ack_packet(now, pkt);
                slot.drain_timer(sched, now, flow);
                let finished = slot.sender.take_if(|_| done);
                fold_sender(&mut self.totals, finished);
            }
            return None;
        }
        // A data packet counts against its flow's in-flight total until
        // it is delivered, so its flow has started and cannot have
        // retired: the slot is live and holds the receiver.
        let Some(FlowSlot {
            spec,
            receiver: Some(receiver),
            receiver_done,
            ..
        }) = self.slot_mut(flow)
        else {
            panic!("data for flow {flow}, which has no live receiver");
        };
        let spec = *spec;
        let out = receiver.on_data(now, pkt);
        *receiver_done |= out.completed;
        if let Some(ack) = out.ack.as_ref().filter(|a| a.kind == PacketKind::Nack) {
            irn_telemetry::trace!(
                "nack.tx",
                t = now.as_nanos(),
                flow = pkt.flow.0,
                host = host.0,
                psn = ack.psn,
                sack = ack.sack,
            );
        }
        if out.cnp.is_some() {
            irn_telemetry::trace!(
                "cnp.tx",
                t = now.as_nanos(),
                flow = pkt.flow.0,
                host = host.0,
            );
        }
        if !out.completed {
            return Some(out);
        }
        // The flow's FCT against the ideal over its path.
        let hops = fabric.path_hops(HostId(spec.src), HostId(spec.dst));
        let header = self.tcfg.data_wire_bytes(0) as u64;
        let packets = self.tcfg.packets_for(spec.bytes);
        let wire_total = spec.bytes + packets as u64 * header;
        let one_pkt = (self.tcfg.data_wire_bytes(self.tcfg.mtu) as u64).min(wire_total);
        let rate = self.tcfg.line_rate.as_bps_f64();
        let ideal = ideal_fct(wire_total, one_pkt, hops, rate, self.prop_delay);
        let record = FlowRecord {
            flow: flow as u32,
            bytes: spec.bytes,
            packets,
            start: spec.at,
            finish: now,
            ideal,
        };
        irn_telemetry::trace!(
            "flow.done",
            t = now.as_nanos(),
            flow = flow,
            src = spec.src,
            dst = spec.dst,
            fct_ns = now.saturating_since(spec.at).as_nanos(),
        );
        match self.incast_from {
            Some(boundary) if flow >= boundary => self.incast_metrics.record(record),
            _ => self.metrics.record(record),
        }
        self.completed += 1;
        self.finished_at = self.finished_at.max(now);
        Some(out)
    }

    /// The flow's retransmission timer fired. Returns the sending host
    /// when the sender acted and may have something to send.
    pub(crate) fn fire_timer(
        &mut self,
        now: Time,
        flow: usize,
        sched: &mut Scheduler<PackedEvent>,
    ) -> Option<HostId> {
        let Some(slot) = self.wake(flow).filter(|s| s.sender.is_some()) else {
            // Impossible by construction (completion cancels the timer):
            // counted and audited to zero, not silently tolerated.
            self.stale_timers += 1;
            return None;
        };
        irn_telemetry::trace!("timer.fire", t = now.as_nanos(), flow = flow);
        if !slot.sender.as_mut().is_some_and(|s| s.on_timer(now)) {
            return None;
        }
        slot.drain_timer(sched, now, flow);
        Some(HostId(slot.spec.src))
    }

    /// Count one driver-spawned flow and return its id.
    pub(crate) fn grow(&mut self) -> u32 {
        self.count += 1;
        self.count as u32 - 1
    }

    /// Recycle the flow's slot if nothing of it remains (sender finished,
    /// receiver done, no packet in the fabric), keeping its timer,
    /// disarmed, for the next occupant. Returns whether it retired.
    pub(crate) fn retire(&mut self, flow: usize, sched: &mut Scheduler<PackedEvent>) -> bool {
        let Some(si) = live_slot(self.entry(flow)) else {
            return false;
        };
        let slot = &mut self.slots[si];
        if slot.sender.is_some() || !slot.receiver_done || slot.inflight > 0 {
            return false;
        }
        // The completing sender already cancelled its timer; the guard
        // keeps the cancel counters identical to the pre-slab engine.
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

    /// The run ended: fold every sender still alive (slot order; the
    /// totals are sums), and return the flows' part of the audit's books
    /// and of a closed-loop drain.
    pub(crate) fn close(&mut self, sched: &Scheduler<PackedEvent>) -> (Books, Drain) {
        for slot in &mut self.slots {
            fold_sender(&mut self.totals, slot.sender.take());
        }
        let books = Books {
            transport: self.totals,
            first_sends: self.first_sends,
            ..Books::default()
        };
        let timers = self.slots.iter().filter_map(|s| s.timer);
        let drain = Drain {
            flows: self.count as u64,
            live_slots: (self.slots.len() - self.free.len()) as u64,
            armed_timers: timers
                .filter(|&id| sched.timer_deadline(id).is_some())
                .count() as u64,
            ..Drain::default()
        };
        (books, drain)
    }

    /// Analytic peak bytes: every slot ever allocated (bitmaps in place)
    /// with its free-list entry, and the window at its widest.
    pub(crate) fn peak_bytes(&self) -> u64 {
        let slot = std::mem::size_of::<FlowSlot>() as u64;
        let idx = std::mem::size_of::<u32>() as u64;
        self.slots.len() as u64 * (slot + idx) + self.window_peak as u64 * idx
    }

    /// Take the FCT collectors: the primary population, and the incast
    /// one when the workload has an incast.
    pub(crate) fn take_metrics(&mut self) -> (MetricsCollector, Option<MetricsCollector>) {
        let (metrics, incast) = (take(&mut self.metrics), take(&mut self.incast_metrics));
        match self.incast_from {
            None => (metrics, None),
            // Pure incast: the incast population is also the primary one.
            Some(0) => (incast.clone(), Some(incast)),
            Some(_) => (metrics, Some(incast)),
        }
    }
}

/// A poll reached a sender through [`Flows::poll_sender`]: counted by
/// this crate's unit tests, nothing in any other build. (A function
/// pair down here rather than a `cfg` attribute at the call site: CI's
/// size ledger counts a file's lines up to its first test-only item.)
#[cfg(not(test))]
#[inline(always)]
fn count_real_poll() {}

#[cfg(test)]
use tests::count_real_poll;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Real sender polls on this test thread (the debug-only re-poll
        /// of a parked sender is not one).
        static REAL_POLLS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count_real_poll() {
        REAL_POLLS.with(|c| c.set(c.get() + 1));
    }

    /// Real sender polls on this thread so far.
    pub(crate) fn real_polls() -> u64 {
        REAL_POLLS.with(Cell::get)
    }

    const SPEC: FlowSpec = FlowSpec {
        src: 0,
        dst: 1,
        bytes: 1_000,
        at: Time::ZERO,
    };

    /// The flows of a run that streams `flows` flows, none started (on
    /// a k=4 fat tree, whose diameter is 6 hops).
    fn slab(flows: usize) -> Flows {
        let arrivals = Arrivals::from_flows(vec![SPEC; flows]);
        Flows::new(&ExperimentConfig::quick(flows), 6, &arrivals)
    }

    fn one_packet_flow(flow: u32) -> (Sender, Receiver) {
        let tcfg = TransportConfig::irn_default();
        let (id, src, dst) = (FlowId(flow), HostId(0), HostId(1));
        endpoints(TransportKind::Irn, &tcfg, id, src, dst, 1_000, Time::ZERO)
    }

    /// Insert `flow` and poll it until its sender parks.
    fn insert_parked(slab: &mut Flows, flow: usize) {
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
    fn finish(slab: &mut Flows, flow: usize) {
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
        let mut slab = slab(1);
        insert_parked(&mut slab, 0);
        let before = REAL_POLLS.with(Cell::get);
        for _ in 0..10 {
            assert_eq!(slab.poll_sender(0, Time::ZERO), SenderPoll::Blocked);
        }
        assert_eq!(REAL_POLLS.with(Cell::get), before);
    }

    #[test]
    fn wake_unparks_and_slot_mut_does_not() {
        let mut slab = slab(1);
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
        let mut slab = slab(2);
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
        let mut slab = slab(2);
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
        let mut slab = slab(6);
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
        assert_eq!((slab.window_peak, slab.count), (4, 6));
        let slot = std::mem::size_of::<FlowSlot>() as u64;
        assert_eq!(slab.peak_bytes(), 3 * (slot + 4) + 4 * 4);
    }

    #[test]
    fn grown_entries_start_unparked() {
        let mut slab = slab(1);
        insert_parked(&mut slab, 0);
        slab.grow();
        assert_eq!(slab.entry(1), NOT_STARTED);
        let (s, r) = one_packet_flow(1);
        slab.insert(1, SPEC, s, r);
        assert_eq!(slab.entry(1), 1);
        assert_ne!(slab.entry(0) & PARKED, 0, "the neighbour stays parked");
    }

    /// Retirement waits for three things — the sender finished, the
    /// receiver done, and the flow's last packet out of the fabric — and
    /// comes with the last of them, in whichever order they happen,
    /// exactly once. Each step flips one of the three through the
    /// transitions the engine makes, followed by its retire check.
    #[test]
    fn a_flow_retires_once_with_the_last_of_its_three_conditions() {
        let cfg = ExperimentConfig::quick(1);
        let fabric = Fabric::new(&cfg.topology.build(), cfg.fabric_config());
        let (host, now) = (HostId(SPEC.dst), Time::ZERO);
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let arrivals = Arrivals::from_flows(vec![SPEC]);
            let mut flows = Flows::new(&cfg, fabric.diameter_hops(), &arrivals);
            let mut sched = Scheduler::new();
            flows.start(now, 0, SPEC);
            let SenderPoll::Packet(data) = flows.poll_sender(0, now) else {
                panic!("a one-packet flow sends its packet");
            };
            // The ACK that finishes the sender, from a twin receiver.
            let ack = one_packet_flow(0)
                .1
                .on_data(now, &data)
                .ack
                .expect("an ACK");
            // A packet in flight that the fabric will drop.
            flows.sent(now, 0, &mut sched);
            for (n, step) in order.into_iter().enumerate() {
                let mut send_and_deliver = |pkt: &Packet| {
                    flows.sent(now, 0, &mut sched);
                    flows.deliver(now, host, pkt, &fabric, &mut sched)
                };
                match step {
                    0 => assert!(
                        send_and_deliver(&ack).is_none(),
                        "the sender answers nothing"
                    ),
                    1 => assert!(send_and_deliver(&data).is_some_and(|o| o.completed)),
                    _ => flows.left_fabric(0),
                }
                let retired = flows.retire(0, &mut sched);
                assert_eq!(retired, n == 2, "order {order:?}, after step {n}");
            }
            assert!(!flows.retire(0, &mut sched), "{order:?}: retired twice");
            assert_eq!((flows.entry(0), flows.free.as_slice()), (RETIRED, &[0][..]));
            assert_eq!((flows.completed, flows.totals.sent), (1, 1));
        }
    }
}
