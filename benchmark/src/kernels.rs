//! Replay kernels: each drives one layer's public API in isolation, in
//! the benchmark's own loop, with the workload's topology, transport
//! settings and flow-size mix. A kernel returns how many operations it
//! performed and how long the timed part took; it leaves the layer
//! quiescent (asserted), so a kernel that loses a packet or wedges a
//! sender fails loudly instead of reporting a cost.
//!
//! Kernels run cache-hot and alone. That is their point — they bound
//! what a layer costs at best — and their limit: the remainder between
//! their sum and the measured run is reported, never explained away.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use irn_core::metrics::{FlowRecord, MetricsCollector};
use irn_core::net::{
    Fabric, FabricEvent, FabricOutput, FlowId, HostId, Packet, PacketKind, Topology,
};
use irn_core::rdma::modules::{self, QpContext, ReceiverMode};
use irn_core::rdma::RingBitmap;
use irn_core::sim::{Duration, SchedulePort, Scheduler, SimRng, Time};
use irn_core::transport::cc::{CcKind, CcState};
use irn_core::transport::config::{TransportConfig, TransportKind};
use irn_core::transport::{HostNic, NicPoll, ReceiverQp, SenderQp, TimerCmd};
use irn_core::workload::{AppSink, TrafficCtx};
use irn_core::ExperimentConfig;

/// Operations performed and wall seconds of the timed part.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub ops: u64,
    pub secs: f64,
}

impl Measured {
    pub fn ns_per_op(self) -> f64 {
        self.secs * 1e9 / self.ops as f64
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

// ---------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------

/// Steady-state pop-one/push-one on the scheduler holding `population`
/// events spaced like packet events (up to ~8 µs ahead). One op is one
/// pop plus one push — what every engine event costs the queue.
pub fn sched_hold(population: usize, ops: u64) -> Measured {
    let mut s: Scheduler<u64> = Scheduler::new();
    let mut rng = 1u64;
    let mut now = Time::ZERO;
    for i in 0..population as u64 {
        s.push(now + Duration::nanos(lcg(&mut rng) % 8192 + 1), i);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        let (t, e) = s.pop().expect("population stays constant");
        now = t;
        black_box(e);
        s.push(now + Duration::nanos(lcg(&mut rng) % 8192 + 1), i);
    }
    let secs = t0.elapsed().as_secs_f64();
    while s.pop().is_some() {}
    assert!(s.is_empty());
    Measured { ops, secs }
}

/// Retransmission-timer churn over `timers` cancellable timers: every
/// step re-arms one (superseding its pending deadline), every eighth
/// cancels instead, and whatever comes due fires. One op is one arm or
/// cancel; fires ride along, as they do in the engine.
pub fn sched_timers(timers: usize, ops: u64) -> Measured {
    let rto = Duration::micros(320);
    let step = Duration::nanos(210);
    let mut s: Scheduler<u64> = Scheduler::new();
    let ids: Vec<_> = (0..timers).map(|_| s.timer_create()).collect();
    let mut now = Time::ZERO;
    let mut fired = 0u64;
    let t0 = Instant::now();
    for i in 0..ops {
        let id = ids[(i as usize * 7) % timers];
        if i % 8 == 7 {
            s.timer_cancel(id);
        } else {
            s.timer_arm(id, now + rto, i);
        }
        now += step;
        while s.peek_time().is_some_and(|t| t <= now) {
            s.pop();
            fired += 1;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(fired);
    for id in ids {
        s.timer_cancel(id);
    }
    assert!(s.pop().is_none(), "cancelled timers must never surface");
    Measured { ops, secs }
}

// ---------------------------------------------------------------------
// net
// ---------------------------------------------------------------------

/// One recorded call into the fabric. A `Tx` takes the next packet of
/// [`Recording::pkts`]: keeping the 64-byte packets out of the op keeps
/// the log at 24 bytes per fabric event.
#[derive(Clone, Copy)]
enum FabricOp {
    Tx { now: Time, host: HostId },
    Event { now: Time, ev: FabricEvent },
}

/// Every call one forwarding run made into the fabric, in order.
#[derive(Default)]
struct Recording {
    ops: Vec<FabricOp>,
    pkts: Vec<Packet>,
}

/// A port that drops what the fabric schedules: the replay takes its
/// events from the recording, so the timed loop holds fabric work only.
struct Discard;

impl SchedulePort<FabricEvent> for Discard {
    fn schedule(&mut self, _at: Time, _ev: FabricEvent) {}
}

/// Traffic for the forwarding kernels: who sends to whom, and how many
/// data packets each sender may have unacknowledged.
struct Pattern {
    /// `dst[h]` is the host `h` sends to; `None` for a pure receiver.
    dst: Vec<Option<u32>>,
    window: u32,
}

/// A random derangement: every host sends to one other host and
/// receives from one (the shape of a shuffle round).
fn permutation(hosts: usize, seed: u64) -> Pattern {
    let mut rng = SimRng::new(seed);
    let mut order: Vec<u32> = (0..hosts as u32).collect();
    for i in (1..hosts).rev() {
        order.swap(i, rng.index(i + 1));
    }
    // Send along the cycle the shuffled order describes: no host maps
    // to itself, every host sends and receives exactly once.
    let mut dst = vec![None; hosts];
    for (i, &h) in order.iter().enumerate() {
        dst[h as usize] = Some(order[(i + 1) % hosts]);
    }
    Pattern { dst, window: 16 }
}

/// Fan-in: every eighth host is a sink, and each sink draws one sender
/// from each of seven other groups of eight, so the converging flows
/// cross the fabric. The window is deep enough to fill the VOQs and
/// trip PFC.
fn fan_in(hosts: usize) -> Pattern {
    let groups = (hosts / 8).max(1) as u32;
    let dst = (0..hosts as u32)
        .map(|h| {
            let (group, lane) = (h / 8, h % 8);
            (lane != 0 && group < groups).then(|| (group + lane) % groups * 8)
        })
        .collect();
    Pattern { dst, window: 64 }
}

/// The recording pass of a forwarding kernel: the fabric under the real
/// scheduler, the per-host send state, and the log of every call made
/// into the fabric.
struct Recorder<'a> {
    fabric: Fabric,
    sched: Scheduler<FabricEvent>,
    pattern: &'a Pattern,
    pkts_per_sender: u32,
    data_wire: u32,
    /// Data packets each host has yet to send.
    left: Vec<u32>,
    /// Data packets each host has sent and not seen acknowledged.
    unacked: Vec<u32>,
    /// Acknowledgements each host owes, oldest first.
    acks: Vec<VecDeque<Packet>>,
    log: Recording,
}

impl Recorder<'_> {
    /// Give host `h`'s idle uplink its next frame: acknowledgements
    /// first (as the NIC does), then data while the window allows.
    fn pump(&mut self, h: usize, now: Time) {
        let host = HostId(h as u32);
        if !self.fabric.host_tx_idle(host) {
            return;
        }
        let pkt = if let Some(ack) = self.acks[h].pop_front() {
            ack
        } else if self.left[h] > 0 && self.unacked[h] < self.pattern.window {
            self.left[h] -= 1;
            self.unacked[h] += 1;
            let to = HostId(self.pattern.dst[h].expect("senders have a destination"));
            let psn = self.pkts_per_sender - self.left[h];
            Packet::data(FlowId(h as u32), host, to, psn, self.data_wire)
        } else {
            return;
        };
        self.log.ops.push(FabricOp::Tx { now, host });
        self.log.pkts.push(pkt);
        self.fabric.host_start_tx(now, host, pkt, &mut self.sched);
    }

    fn run(mut self) -> Recording {
        for h in 0..self.left.len() {
            self.pump(h, Time::ZERO);
        }
        while let Some((now, ev)) = self.sched.pop() {
            self.log.ops.push(FabricOp::Event { now, ev });
            match self.fabric.handle(now, ev, &mut self.sched) {
                None => {}
                Some(FabricOutput::HostTxReady { host }) => self.pump(host.idx(), now),
                Some(FabricOutput::Deliver { host, pkt }) => {
                    let p = self.fabric.take_delivered(pkt);
                    if p.is_data() {
                        let ack = Packet::control(PacketKind::Ack, p.flow, host, p.src, p.psn, 64);
                        self.acks[host.idx()].push_back(ack);
                    } else {
                        self.unacked[host.idx()] -= 1;
                    }
                    self.pump(host.idx(), now);
                }
                Some(FabricOutput::Dropped { .. }) => {
                    panic!("forwarding kernel lost a packet: window too deep for the buffers")
                }
            }
        }
        assert_eq!(
            self.fabric.pkt_pool_live(),
            0,
            "recording left packets in flight"
        );
        assert!(self.left.iter().all(|&n| n == 0) && self.unacked.iter().all(|&n| n == 0));
        self.log
    }
}

/// Drive `pattern` through a fresh fabric with the real scheduler and
/// record every call made into the fabric, in order.
fn record_forwarding(
    topo: &Topology,
    cfg: &ExperimentConfig,
    pattern: &Pattern,
    pkts_per_sender: u32,
) -> Recording {
    let hosts = pattern.dst.len();
    Recorder {
        fabric: Fabric::new(topo, cfg.fabric_config()),
        sched: Scheduler::new(),
        pattern,
        pkts_per_sender,
        data_wire: cfg.mtu + 48 + cfg.extra_header,
        left: pattern
            .dst
            .iter()
            .map(|d| if d.is_some() { pkts_per_sender } else { 0 })
            .collect(),
        unacked: vec![0; hosts],
        acks: vec![VecDeque::new(); hosts],
        log: Recording::default(),
    }
    .run()
}

/// Replay a recording against a fresh fabric: `host_start_tx`, `handle`
/// and `take_delivered` in the recorded order, nothing else. One op is
/// one fabric event handled. Returns the fabric's pause count too, so
/// the caller can tell a congested run from a bare one.
fn replay_forwarding(topo: &Topology, cfg: &ExperimentConfig, log: &Recording) -> (Measured, u64) {
    let mut fabric = Fabric::new(topo, cfg.fabric_config());
    let mut port = Discard;
    let mut events = 0u64;
    let mut pkts = log.pkts.iter();
    let t0 = Instant::now();
    for op in &log.ops {
        match *op {
            FabricOp::Tx { now, host } => {
                let pkt = *pkts.next().expect("one packet per recorded Tx");
                fabric.host_start_tx(now, host, pkt, &mut port)
            }
            FabricOp::Event { now, ev } => {
                events += 1;
                if let Some(FabricOutput::Deliver { pkt, .. }) = fabric.handle(now, ev, &mut port) {
                    black_box(fabric.take_delivered(pkt));
                }
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(fabric.pkt_pool_live(), 0, "replay left packets in flight");
    (Measured { ops: events, secs }, fabric.stats().pauses)
}

/// Bare forwarding on the cell's topology: a permutation of hosts, data
/// one way and a 64-byte acknowledgement back per packet, no PFC, no
/// ECN, no loss, no transport.
pub fn net_hop(cfg: &ExperimentConfig, pkts_per_sender: u32) -> Measured {
    let mut cfg = cfg.clone();
    cfg.pfc = false;
    cfg.cc = CcKind::None;
    cfg.loss_injection = 0.0;
    let topo = cfg.topology.build();
    let pattern = permutation(topo.hosts, cfg.seed);
    let log = record_forwarding(&topo, &cfg, &pattern, pkts_per_sender);
    replay_forwarding(&topo, &cfg, &log).0
}

/// The same loop under fan-in with PFC and ECN marking on: deep VOQs,
/// pause and resume frames, paused host uplinks.
pub fn net_hop_congested(cfg: &ExperimentConfig, pkts_per_sender: u32) -> (Measured, u64) {
    let mut cfg = cfg.clone();
    cfg.pfc = true;
    cfg.cc = CcKind::Dcqcn;
    cfg.loss_injection = 0.0;
    let topo = cfg.topology.build();
    let pattern = fan_in(topo.hosts);
    let log = record_forwarding(&topo, &cfg, &pattern, pkts_per_sender);
    replay_forwarding(&topo, &cfg, &log)
}

/// Longest host-to-host path of the cell's topology, in links.
pub fn diameter_hops(cfg: &ExperimentConfig) -> usize {
    Fabric::new(&cfg.topology.build(), cfg.fabric_config()).diameter_hops()
}

// ---------------------------------------------------------------------
// transport
// ---------------------------------------------------------------------

/// The transport settings a kernel runs: the cell's own, or the cell's
/// with the loss-recovery scheme swapped for the lossy kernels.
pub fn transport_for(
    cfg: &ExperimentConfig,
    kind: TransportKind,
    pfc: bool,
    diameter: usize,
) -> TransportConfig {
    let mut cfg = cfg.clone();
    cfg.transport = kind;
    cfg.pfc = pfc;
    cfg.transport_config(diameter)
}

/// Flows of `flow_bytes` run one after another over a fixed-delay
/// channel — sender polled through a `HostNic`, data into `on_data`,
/// the acknowledgement back through the receiver's `HostNic` into
/// `on_ack_packet`, timers applied as the engine applies them — until
/// `min_pkts` data packets have been sent. `drop_every` loses every
/// n-th data packet on the way. One op is one data packet transmitted
/// (retransmissions included); QP construction is inside the timing.
pub fn transport_channel(
    tcfg: &TransportConfig,
    flow_bytes: u64,
    min_pkts: u64,
    drop_every: Option<u64>,
) -> Measured {
    let (src, dst, cc) = (HostId(0), HostId(1), tcfg.cc);
    let one_way = Duration::micros(6);
    let gap = tcfg
        .line_rate
        .serialize(tcfg.data_wire_bytes(tcfg.mtu) as u64);
    let mut sent = 0u64;
    let mut now = Time::ZERO;
    let mut flow_id = 0u32;
    let mut data: VecDeque<(Time, Packet)> = VecDeque::new();
    let mut back: VecDeque<(Time, Packet)> = VecDeque::new();
    let t0 = Instant::now();
    while sent < min_pkts {
        let flow = FlowId(flow_id);
        flow_id += 1;
        let mut sender = SenderQp::new(tcfg.clone(), flow, src, dst, flow_bytes, cc, now);
        let mut receiver = ReceiverQp::new(tcfg, flow, src, dst, sender.total_packets(), cc);
        let (mut tx_nic, mut rx_nic) = (HostNic::new(), HostNic::new());
        tx_nic.register(flow);
        let mut deadline: Option<Time> = None;
        let apply = |s: &mut SenderQp, deadline: &mut Option<Time>| match s.take_timer_request() {
            Some(TimerCmd::Arm(t)) => *deadline = Some(t),
            Some(TimerCmd::Cancel) => *deadline = None,
            None => {}
        };
        while !sender.is_done() {
            // Deliver whatever has arrived by now, oldest first.
            loop {
                let d = data.front().map(|x| x.0).filter(|&t| t <= now);
                let b = back.front().map(|x| x.0).filter(|&t| t <= now);
                let take_data = match (d, b) {
                    (Some(d), Some(b)) => d <= b,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if take_data {
                    let (t, pkt) = data.pop_front().expect("front checked");
                    let out = receiver.on_data(t, &pkt);
                    for ctl in [out.ack, out.cnp].into_iter().flatten() {
                        rx_nic.push_control(ctl);
                        let NicPoll::Packet(ctl) = rx_nic.poll(t, |_, _| unreachable!()) else {
                            unreachable!("a queued control frame is always served")
                        };
                        back.push_back((t + one_way, ctl));
                    }
                } else {
                    let (t, pkt) = back.pop_front().expect("front checked");
                    if pkt.kind == PacketKind::Cnp {
                        sender.on_cnp(t);
                    } else {
                        sender.on_ack_packet(t, &pkt);
                        apply(&mut sender, &mut deadline);
                    }
                }
            }
            if sender.is_done() {
                break;
            }
            if deadline.is_some_and(|t| t <= now) {
                deadline = None;
                sender.on_timer(now);
                apply(&mut sender, &mut deadline);
            }
            let next_due = [
                data.front().map(|x| x.0),
                back.front().map(|x| x.0),
                deadline,
            ]
            .into_iter()
            .flatten()
            .min();
            match tx_nic.poll(now, |_, t| sender.poll(t)) {
                NicPoll::Packet(pkt) => {
                    apply(&mut sender, &mut deadline);
                    sent += 1;
                    if drop_every.is_none_or(|n| sent % n != 0) {
                        data.push_back((now + one_way, pkt));
                    }
                    now += gap;
                }
                NicPoll::Wait(t) => now = next_due.map_or(t, |d| d.min(t)).max(now),
                NicPoll::Idle => {
                    now = next_due
                        .expect("blocked sender with nothing in flight and no timer")
                        .max(now)
                }
            }
        }
        assert!(sender.is_done() && receiver.completed_at().is_some());
        // Late duplicates of a finished flow mean nothing to the next.
        data.clear();
        back.clear();
    }
    let secs = t0.elapsed().as_secs_f64();
    Measured { ops: sent, secs }
}

/// Construct and drop one sender/receiver pair per op.
pub fn qp_setup(tcfg: &TransportConfig, flow_bytes: u64, ops: u64) -> Measured {
    let cc = tcfg.cc;
    let t0 = Instant::now();
    for i in 0..ops {
        let flow = FlowId(i as u32);
        let s = SenderQp::new(
            tcfg.clone(),
            flow,
            HostId(0),
            HostId(1),
            flow_bytes,
            cc,
            Time::ZERO,
        );
        let r = ReceiverQp::new(tcfg, flow, HostId(0), HostId(1), s.total_packets(), cc);
        black_box((s, r));
    }
    Measured {
        ops,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Congestion-control work per acknowledgement: `on_send`, the pacing
/// query and `on_ack`, with every sixteenth ack carrying an ECN echo
/// and every 64th step a CNP.
pub fn cc_per_ack(tcfg: &TransportConfig, ops: u64) -> Measured {
    let mut state = CcState::new(
        tcfg.cc,
        tcfg.line_rate,
        tcfg.bdp_cap.unwrap_or(110),
        Time::ZERO,
    );
    let mut now = Time::ZERO;
    let rtt = Duration::micros(24);
    let t0 = Instant::now();
    for i in 0..ops {
        now += Duration::nanos(210);
        state.on_send(now, 1048);
        black_box(state.pacing_rate_mbps(now));
        state.on_ack(now, 1, rtt, i % 16 == 0);
        if i % 64 == 63 {
            state.on_cnp(now);
        }
    }
    black_box(state.cwnd());
    Measured {
        ops,
        secs: t0.elapsed().as_secs_f64(),
    }
}

// ---------------------------------------------------------------------
// rdma
// ---------------------------------------------------------------------

/// The bitmap operations of §6.2 on a BDP-sized ring: set, find first
/// zero, popcount, and the shift when the head run completes. One op is
/// one arriving sequence number.
pub fn rdma_bitmap(ops: u64) -> Measured {
    let mut bm = RingBitmap::new(128);
    let mut rng = 7u64;
    let t0 = Instant::now();
    for _ in 0..ops {
        // Mostly in order, one arrival in eight lands further out.
        let offset = if lcg(&mut rng) % 8 == 0 {
            1 + (lcg(&mut rng) % 100) as usize
        } else {
            0
        };
        bm.set(offset);
        black_box(bm.popcount());
        let ready = bm.leading_ones();
        if ready > 0 {
            bm.advance(ready);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(bm.is_empty());
    Measured { ops, secs }
}

/// `receiveData` on a stream where every hundredth packet arrives late:
/// the in-order fast path, out-of-order buffering with a NACK, and the
/// hole-fill slide.
pub fn rdma_receive_data(ops: u64) -> Measured {
    let mut ctx = QpContext::new(128);
    let mut late: Option<u32> = None;
    let mut psn = 0u32;
    let mut calls = 0u64;
    let mut receive = |ctx: &mut QpContext, psn: u32| {
        calls += 1;
        black_box(modules::receive_data(ctx, psn, false, ReceiverMode::Irn));
    };
    let t0 = Instant::now();
    while psn < ops as u32 {
        if psn % 100 == 50 && late.is_none() {
            // Skip this sequence number now, deliver it 20 packets on.
            late = Some(psn);
            psn += 1;
        }
        receive(&mut ctx, psn);
        psn += 1;
        if late.is_some_and(|l| psn >= l + 20) {
            receive(&mut ctx, late.take().expect("checked"));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    if let Some(hole) = late {
        receive(&mut ctx, hole);
    }
    assert_eq!(ctx.expected_seq, psn, "every hole was filled");
    Measured { ops: calls, secs }
}

// ---------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------

/// Fold `ops` completed flows of `flow_bytes` into a collector.
pub fn metrics_record(flow_bytes: u64, mtu: u32, ops: u64) -> Measured {
    let mut m = MetricsCollector::new();
    let packets = flow_bytes.max(1).div_ceil(mtu as u64) as u32;
    let ideal = Duration::nanos(12_000 + flow_bytes / 5);
    let mut rng = 3u64;
    let t0 = Instant::now();
    for i in 0..ops {
        let start = Time::ZERO + Duration::nanos(i * 100);
        m.record(FlowRecord {
            flow: i as u32,
            bytes: flow_bytes,
            packets,
            start,
            finish: start + ideal + Duration::nanos(lcg(&mut rng) % (ideal.as_nanos() * 8)),
            ideal,
        });
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(m.len() as u64, ops);
    black_box(m.summary());
    Measured { ops, secs }
}

// ---------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------

/// The closed-loop driver alone: retire its flows in spawn order, each
/// a microsecond after it may start, and feed it back whatever it
/// spawns until the loop runs dry. One op is one retirement.
/// `None` for an open-loop model, which has no driver.
pub fn driver_retire(cfg: &ExperimentConfig) -> Option<Measured> {
    let ctx = TrafficCtx {
        hosts: cfg.topology.hosts(),
        line_rate_bps: cfg.bandwidth.as_bps_f64(),
        seed: cfg.seed,
    };
    let mut cl = cfg.traffic.closed_loop(&ctx)?;
    let mut sink = AppSink::new();
    let mut live: VecDeque<(u32, Time)> = cl
        .seed_flows
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u32, f.at))
        .collect();
    let mut next_index = live.len() as u32;
    let mut now = Time::ZERO;
    let mut ops = 0u64;
    let t0 = Instant::now();
    cl.driver.on_start(&mut sink);
    while let Some((flow, at)) = live.pop_front() {
        now = now.max(at) + Duration::micros(1);
        sink.clear();
        cl.driver.on_flow_retired(now, flow, next_index, &mut sink);
        for spec in sink.flows.drain(..) {
            live.push_back((next_index, spec.at));
            next_index += 1;
        }
        ops += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    Some(Measured { ops, secs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_core::{TopologySpec, TrafficModel};

    fn toy() -> ExperimentConfig {
        ExperimentConfig::quick(10)
    }

    #[test]
    fn scheduler_kernels_count_and_drain() {
        assert_eq!(sched_hold(64, 1_000).ops, 1_000);
        assert_eq!(sched_timers(16, 1_000).ops, 1_000);
    }

    #[test]
    fn forwarding_kernels_leave_the_arena_empty() {
        // Quiescence (`pkt_pool_live() == 0`) is asserted inside.
        let bare = net_hop(&toy(), 20);
        assert!(bare.ops > 0 && bare.secs > 0.0);
        let (congested, pauses) = net_hop_congested(&toy(), 200);
        assert!(congested.ops > 0);
        assert!(pauses > 0, "fan-in must trip PFC");
    }

    #[test]
    fn permutation_is_a_derangement() {
        let p = permutation(16, 5);
        let mut seen = [false; 16];
        for (h, d) in p.dst.iter().enumerate() {
            let d = d.expect("everyone sends") as usize;
            assert_ne!(d, h);
            assert!(!std::mem::replace(&mut seen[d], true));
        }
    }

    #[test]
    fn transport_kernels_finish_every_flow() {
        // `is_done()` is asserted inside for every flow.
        let cfg = toy();
        let d = diameter_hops(&cfg);
        assert_eq!(d, 6);
        let irn = transport_for(&cfg, TransportKind::Irn, false, d);
        let roce = transport_for(&cfg, TransportKind::Roce, false, d);
        let clean = transport_channel(&irn, 20_000, 200, None);
        assert_eq!(clean.ops, 200, "a clean channel sends each packet once");
        let sr = transport_channel(&irn, 20_000, 200, Some(10));
        let gbn = transport_channel(&roce, 20_000, 200, Some(10));
        assert!(sr.ops >= 200 && gbn.ops >= sr.ops, "go-back-N resends more");
        // A single-packet flow that loses its only packet needs the timer.
        assert!(transport_channel(&irn, 500, 50, Some(7)).ops >= 50);
        let paced = transport_for(
            &cfg.clone().with_cc(CcKind::Dcqcn),
            TransportKind::Irn,
            false,
            d,
        );
        assert!(transport_channel(&paced, 20_000, 100, None).ops >= 100);
        assert_eq!(qp_setup(&irn, 20_000, 10).ops, 10);
        assert_eq!(cc_per_ack(&paced, 100).ops, 100);
    }

    #[test]
    fn rdma_and_metrics_kernels_count() {
        assert_eq!(rdma_bitmap(1_000).ops, 1_000);
        assert_eq!(rdma_receive_data(1_000).ops, 1_000);
        assert_eq!(
            rdma_receive_data(1_060).ops,
            1_060,
            "a trailing hole is filled"
        );
        assert_eq!(metrics_record(4_000, 1000, 500).ops, 500);
    }

    #[test]
    fn driver_kernel_retires_every_flow_of_the_loop() {
        let cfg = ExperimentConfig {
            topology: TopologySpec::FatTree(4),
            traffic: TrafficModel::RpcClosedLoop {
                clients: 2,
                ops_per_client: 5,
                window: 2,
                request_bytes: 100,
                response_bytes: 1_000,
                think: Duration::micros(5),
                fanout: 2,
            },
            ..toy()
        };
        // 2 clients x 5 ops x fanout 2 x (request + response).
        assert_eq!(driver_retire(&cfg).expect("closed loop").ops, 40);
        assert!(driver_retire(&toy()).is_none());
    }
}
