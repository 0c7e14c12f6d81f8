//! The fabric: every link, switch and host port wired together behind a
//! single event-driven interface.
//!
//! The transport layer above drives the fabric with three calls:
//!
//! * [`Fabric::host_start_tx`] — a host NIC begins serializing a packet
//!   onto its uplink (only legal when [`Fabric::host_tx_idle`]);
//! * [`Fabric::handle`] — process one [`FabricEvent`] popped from the
//!   global queue; may return a packet delivery or a "host may transmit
//!   again" notification;
//! * schedule port — the fabric never owns the event queue; it emits
//!   `(Time, FabricEvent)` pairs through a caller-provided
//!   [`SchedulePort`] (in production, the embedding simulation's
//!   `Scheduler` itself: its event enum has a `From<FabricEvent>` impl,
//!   so fabric events land directly in the typed queue alongside the
//!   transport's own events — no closure threading).
//!
//! ## Model fidelity notes
//!
//! * Store-and-forward at every hop: a packet is eligible for forwarding
//!   only after its last bit arrives (`serialization + propagation` per
//!   link), matching the INET switch model the paper used.
//! * PFC PAUSE/RESUME frames bypass data queues and are modelled with
//!   propagation delay only — a 64-byte control frame's serialization
//!   time (12.8 ns at 40 Gbps) is three orders of magnitude below the
//!   2 µs propagation delay and PFC frames preempt data in real MACs.
//! * A pause lands on the *transmitter* of a link: an X-OFF received
//!   mid-serialization lets the in-flight frame finish (the headroom in
//!   [`PfcConfig::for_buffer`](crate::PfcConfig::for_buffer) absorbs it).

use std::sync::Arc;

use irn_sim::{Duration, SchedulePort, SimRng, Time};

use crate::arena::{PacketArena, PktId};
use crate::packet::{FlowId, HostId, Packet};
use crate::routing::{Endpoint, NetTables};
use crate::switch::{Dequeue, EcnConfig, Enqueue, PfcConfig, SwitchState};
use crate::topology::Topology;
use crate::units::Bandwidth;

/// How the fabric spreads traffic over equal-cost paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadBalancing {
    /// Per-flow ECMP (§4.1's default): a flow sticks to one path, so the
    /// network never reorders.
    #[default]
    EcmpPerFlow,
    /// Per-packet spraying (§7's "other load balancing schemes that may
    /// cause packet reordering within a flow", e.g. DRILL \[22\]): each
    /// packet independently picks an equal-cost next hop.
    PacketSpray,
}

/// Fabric-wide configuration (uniform across links/switches, as in every
/// experiment of the paper).
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Link rate (default scenario: 40 Gbps).
    pub bandwidth: Bandwidth,
    /// Per-link propagation delay (default: 2 µs).
    pub prop_delay: Duration,
    /// Per-input-port buffer (default: 2 × network BDP = 240 KB).
    pub buffer_bytes: u64,
    /// PFC thresholds; `None` disables PFC (losses possible).
    pub pfc: Option<PfcConfig>,
    /// ECN marking; `None` disables marking.
    pub ecn: Option<EcnConfig>,
    /// Random per-switch-hop drop probability for *data* packets (fault
    /// injection; 0.0 in all paper experiments).
    pub loss_injection: f64,
    /// Equal-cost path selection policy.
    pub load_balancing: LoadBalancing,
    /// Seed for the fabric's private randomness (ECN coin flips, fault
    /// injection).
    pub seed: u64,
}

impl FabricConfig {
    /// The paper's default-scenario fabric (§4.1) with PFC enabled.
    pub fn paper_default() -> FabricConfig {
        let bandwidth = Bandwidth::from_gbps(40);
        let prop_delay = Duration::micros(2);
        let buffer_bytes = 240_000;
        FabricConfig {
            bandwidth,
            prop_delay,
            buffer_bytes,
            pfc: Some(PfcConfig::for_buffer(
                buffer_bytes,
                bandwidth,
                prop_delay,
                1_048,
            )),
            ecn: None,
            loss_injection: 0.0,
            load_balancing: LoadBalancing::EcmpPerFlow,
            seed: 0xF_AB,
        }
    }
}

/// Run state of one directed link; its two ends are wiring, in
/// [`NetTables`].
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// Transmitter currently serializing a frame.
    busy: bool,
    /// Transmitter held paused by the receiver (PFC X-OFF).
    paused: bool,
}

/// Events the fabric schedules for itself via the caller's queue.
///
/// `Arrive` carries a 4-byte [`PktId`] into the fabric's
/// [`PacketArena`], not the 64-byte packet — the whole enum is 12
/// bytes, which is what makes ladder-queue buckets cache-dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// Last bit of `pkt` reaches the receiving end of directed link `link`.
    Arrive {
        /// Directed link index.
        link: u32,
        /// Arena handle of the packet.
        pkt: PktId,
    },
    /// The transmitter of `link` finishes serializing its current frame.
    TxDone {
        /// Directed link index.
        link: u32,
    },
    /// A PFC frame reaches the transmitter of `link`.
    PfcArrive {
        /// Directed link index whose transmitter is being paused/resumed.
        link: u32,
        /// `true` = X-OFF (pause), `false` = X-ON (resume).
        xoff: bool,
    },
}

/// What an event produced for the layer above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricOutput {
    /// A packet arrived at its destination host. The id stays live
    /// until the consumer claims it with [`Fabric::take_delivered`].
    Deliver {
        /// Receiving host.
        host: HostId,
        /// Arena handle of the packet.
        pkt: PktId,
    },
    /// `host`'s uplink just became available (previous transmission
    /// finished, or a PFC pause lifted); the transport may send.
    HostTxReady {
        /// The host whose uplink is free.
        host: HostId,
    },
    /// A packet died inside the fabric (buffer overflow or fault
    /// injection) and will never reach its destination. Loss recovery
    /// stays timer/NACK-driven as before; this output exists so the
    /// layer above can retire per-flow state once nothing of the flow
    /// remains in flight.
    Dropped {
        /// The flow the lost packet belonged to.
        flow: FlowId,
    },
}

/// Aggregated fabric counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FabricStats {
    /// Packets dropped to buffer overflow (all switches).
    pub buffer_drops: u64,
    /// Packets dropped by fault injection.
    pub injected_drops: u64,
    /// PFC X-OFF frames generated.
    pub pauses: u64,
    /// PFC X-ON frames generated.
    pub resumes: u64,
    /// Data packets ECN-marked.
    pub ecn_marked: u64,
    /// Packets delivered to hosts.
    pub delivered_pkts: u64,
    /// Bytes delivered to hosts (wire bytes).
    pub delivered_bytes: u64,
}

/// The simulated network: the run state over one topology's wiring.
pub struct Fabric {
    cfg: FabricConfig,
    /// Wiring and routes (see [`NetTables`]): per-topology, not
    /// per-fabric, so seed replicates skip the cable walk and the BFS.
    tables: Arc<NetTables>,
    /// Per directed link, indexed like `tables.ports.links`.
    links: Vec<LinkState>,
    switches: Vec<SwitchState>,
    /// Precomputed `cfg.bandwidth.serialize(bytes)` for small frames.
    /// Every data/control packet fits; the table turns a per-hop u64
    /// division into a load. Larger frames fall back to the division.
    ser_lut: Vec<Duration>,
    /// Every packet in flight, addressed by [`PktId`].
    arena: PacketArena,
    rng: SimRng,
    injected_drops: u64,
    delivered_pkts: u64,
    delivered_bytes: u64,
}

impl Fabric {
    /// Instantiate the fabric for `topo` under `cfg`, building fresh
    /// tables. Use [`Fabric::with_tables`] to share tables across
    /// fabrics over the same topology.
    pub fn new(topo: &Topology, cfg: FabricConfig) -> Fabric {
        Fabric::with_tables(Arc::new(NetTables::build(topo)), cfg)
    }

    /// Instantiate the fabric over precomputed `tables`
    /// ([`NetTables::build`]) under `cfg`.
    pub fn with_tables(tables: Arc<NetTables>, cfg: FabricConfig) -> Fabric {
        let ports = &tables.ports;
        let switches = (0..ports.switch_ports.len())
            .map(|s| SwitchState::new(ports.radix(s), cfg.buffer_bytes, cfg.pfc, cfg.ecn))
            .collect();
        Fabric {
            links: vec![LinkState::default(); ports.links.len()],
            switches,
            ser_lut: (0..2048u64).map(|b| cfg.bandwidth.serialize(b)).collect(),
            arena: PacketArena::new(),
            rng: SimRng::new(cfg.seed ^ 0x5EED_F00D),
            injected_drops: 0,
            delivered_pkts: 0,
            delivered_bytes: 0,
            tables,
            cfg,
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.tables.ports.host_uplink.len()
    }

    /// Link rate.
    pub fn bandwidth(&self) -> Bandwidth {
        self.cfg.bandwidth
    }

    /// Per-link propagation delay.
    pub fn prop_delay(&self) -> Duration {
        self.cfg.prop_delay
    }

    /// Longest shortest host-to-host path in links (for BDP-FC).
    pub fn diameter_hops(&self) -> usize {
        self.tables.routes.diameter_hops
    }

    /// Shortest-path length between two hosts in links.
    pub fn path_hops(&self, src: HostId, dst: HostId) -> usize {
        self.tables.routes.host_distance(src.idx(), dst.idx())
    }

    /// Read a live in-flight packet by id.
    #[inline]
    pub fn packet(&self, id: PktId) -> &Packet {
        self.arena.get(id)
    }

    /// Claim a delivered packet: copy it out of the arena and retire
    /// the id. Must be called exactly once per
    /// [`FabricOutput::Deliver`].
    #[inline]
    pub fn take_delivered(&mut self, id: PktId) -> Packet {
        let pkt = *self.arena.get(id);
        self.arena.release(id);
        pkt
    }

    /// Packets currently in flight through the fabric.
    pub fn pkt_pool_live(&self) -> u32 {
        self.arena.live()
    }

    /// High-water mark of packets simultaneously in flight.
    pub fn pkt_pool_peak(&self) -> u32 {
        self.arena.peak_slots()
    }

    /// Analytic peak footprint of the packet pool, bytes.
    pub fn pkt_pool_bytes(&self) -> u64 {
        self.arena.pool_bytes()
    }

    /// True when `host` may start a transmission: uplink idle and not
    /// PFC-paused.
    #[inline]
    pub fn host_tx_idle(&self, host: HostId) -> bool {
        let l = &self.links[self.tables.ports.host_uplink[host.idx()] as usize];
        !l.busy && !l.paused
    }

    /// Begin serializing `pkt` from `host` onto its uplink. The packet
    /// enters the arena here; it leaves via [`Fabric::take_delivered`]
    /// or an internal drop.
    ///
    /// Panics if the uplink is busy or paused — the transport must only
    /// send after [`FabricOutput::HostTxReady`] / [`Fabric::host_tx_idle`].
    #[inline]
    pub fn host_start_tx(
        &mut self,
        now: Time,
        host: HostId,
        mut pkt: Packet,
        port: &mut impl SchedulePort<FabricEvent>,
    ) {
        assert!(
            self.host_tx_idle(host),
            "host {host:?} started tx on a busy/paused uplink"
        );
        pkt.sent_at = if pkt.is_data() { now } else { pkt.sent_at };
        irn_telemetry::trace!(
            if pkt.is_retx { "pkt.retx" } else { "pkt.tx" },
            t = now.as_nanos(),
            flow = pkt.flow.0,
            src = pkt.src.0,
            dst = pkt.dst.0,
            pkt = pkt.kind.label(),
            psn = pkt.psn,
            bytes = pkt.wire_bytes,
        );
        let id = self.arena.alloc(pkt);
        self.start_tx(now, self.tables.ports.host_uplink[host.idx()], id, port);
    }

    /// Process one fabric event.
    #[inline]
    pub fn handle(
        &mut self,
        now: Time,
        ev: FabricEvent,
        port: &mut impl SchedulePort<FabricEvent>,
    ) -> Option<FabricOutput> {
        match ev {
            FabricEvent::Arrive { link, pkt } => self.on_arrive(now, link, pkt, port),
            FabricEvent::TxDone { link } => self.on_tx_done(now, link, port),
            FabricEvent::PfcArrive { link, xoff } => self.on_pfc(now, link, xoff, port),
        }
    }

    fn on_arrive(
        &mut self,
        now: Time,
        link_id: u32,
        id: PktId,
        port: &mut impl SchedulePort<FabricEvent>,
    ) -> Option<FabricOutput> {
        match self.tables.ports.links[link_id as usize].dst {
            Endpoint::Host(h) => {
                self.delivered_pkts += 1;
                self.delivered_bytes += self.arena.get(id).wire_bytes as u64;
                Some(FabricOutput::Deliver {
                    host: HostId(h),
                    pkt: id,
                })
            }
            Endpoint::SwitchPort { sw, port: in_port } => {
                // Copy the routing-relevant header fields out of the
                // arena once; the packet bytes themselves stay put.
                let (flow, src, dst, psn, ecmp_seed, is_retx, is_data) = {
                    let pkt = self.arena.get(id);
                    (
                        pkt.flow,
                        pkt.src,
                        pkt.dst,
                        pkt.psn,
                        pkt.ecmp_seed,
                        pkt.is_retx,
                        pkt.is_data(),
                    )
                };
                // Fault injection: a failing hop silently eats the frame.
                if self.cfg.loss_injection > 0.0
                    && is_data
                    && self.rng.chance(self.cfg.loss_injection)
                {
                    self.injected_drops += 1;
                    irn_telemetry::trace!(
                        "pkt.drop",
                        t = now.as_nanos(),
                        flow = flow.0,
                        src = src.0,
                        dst = dst.0,
                        psn = psn,
                        cause = "inject",
                    );
                    self.arena.release(id);
                    return Some(FabricOutput::Dropped { flow });
                }
                let swi = sw as usize;
                let out = match self.cfg.load_balancing {
                    LoadBalancing::EcmpPerFlow => {
                        self.tables.routes.out_port(swi, dst.idx(), ecmp_seed)
                    }
                    LoadBalancing::PacketSpray => {
                        // Per-packet nonce: PSN plus a retransmission bit
                        // so a retransmitted copy can take a new path.
                        let nonce = psn ^ ((is_retx as u32) << 30);
                        self.tables
                            .routes
                            .out_port_spray(swi, dst.idx(), ecmp_seed, nonce)
                    }
                };
                match self.switches[swi].enqueue(in_port, out, id, &mut self.arena, &mut self.rng) {
                    Enqueue::Dropped => {
                        irn_telemetry::trace!(
                            "pkt.drop",
                            t = now.as_nanos(),
                            flow = flow.0,
                            src = src.0,
                            dst = dst.0,
                            psn = psn,
                            cause = "buffer",
                        );
                        self.arena.release(id);
                        return Some(FabricOutput::Dropped { flow });
                    }
                    Enqueue::Queued { send_xoff, marked } => {
                        if marked {
                            irn_telemetry::trace!(
                                "ecn.mark",
                                t = now.as_nanos(),
                                flow = flow.0,
                                src = src.0,
                                dst = dst.0,
                                psn = psn,
                            );
                        }
                        if send_xoff {
                            irn_telemetry::trace!(
                                "pfc.pause",
                                t = now.as_nanos(),
                                sw = swi,
                                port = in_port,
                            );
                            // Pause the transmitter feeding this input.
                            port.schedule(
                                now + self.cfg.prop_delay,
                                FabricEvent::PfcArrive {
                                    link: link_id,
                                    xoff: true,
                                },
                            );
                        }
                        self.try_switch_tx(now, swi, out, port);
                    }
                }
                None
            }
        }
    }

    fn on_tx_done(
        &mut self,
        now: Time,
        link_id: u32,
        port: &mut impl SchedulePort<FabricEvent>,
    ) -> Option<FabricOutput> {
        let link = &mut self.links[link_id as usize];
        link.busy = false;
        if link.paused {
            return None; // the pause owner will kick us on resume
        }
        self.kick(now, link_id, port)
    }

    fn on_pfc(
        &mut self,
        now: Time,
        link_id: u32,
        xoff: bool,
        port: &mut impl SchedulePort<FabricEvent>,
    ) -> Option<FabricOutput> {
        let link = &mut self.links[link_id as usize];
        link.paused = xoff;
        // Resume: restart the transmitter if it has gone idle while
        // paused (if it is mid-frame, TxDone will pick up from here).
        if xoff || link.busy {
            return None;
        }
        self.kick(now, link_id, port)
    }

    /// The transmitter of idle, unpaused `link_id` may go again: tell a
    /// host so, serve a switch port.
    fn kick(
        &mut self,
        now: Time,
        link_id: u32,
        port: &mut impl SchedulePort<FabricEvent>,
    ) -> Option<FabricOutput> {
        match self.tables.ports.links[link_id as usize].src {
            Endpoint::Host(h) => Some(FabricOutput::HostTxReady { host: HostId(h) }),
            Endpoint::SwitchPort { sw, port: p } => {
                self.try_switch_tx(now, sw as usize, p, port);
                None
            }
        }
    }

    /// Serialization delay at the fabric line rate, via the LUT for the
    /// common small frames (exact: the table is built from
    /// [`Bandwidth::serialize`]).
    #[inline]
    fn serialize_wire(&self, bytes: u64) -> Duration {
        match self.ser_lut.get(bytes as usize) {
            Some(&d) => d,
            None => self.cfg.bandwidth.serialize(bytes),
        }
    }

    /// Start the transmitter of switch `sw` output `out_port` if it is idle,
    /// unpaused, and has queued traffic.
    fn try_switch_tx(
        &mut self,
        now: Time,
        sw: usize,
        out_port: u16,
        port: &mut impl SchedulePort<FabricEvent>,
    ) {
        let ports = &self.tables.ports;
        let out_link_id = ports.switch_out_link[sw * ports.port_stride + out_port as usize];
        let link = &self.links[out_link_id as usize];
        if link.busy || link.paused {
            return;
        }
        let Some(Dequeue {
            pkt,
            in_port,
            send_xon,
        }) = self.switches[sw].dequeue(out_port, &mut self.arena)
        else {
            return;
        };
        if send_xon {
            irn_telemetry::trace!("pfc.resume", t = now.as_nanos(), sw = sw, port = in_port,);
            let ports = &self.tables.ports;
            let in_link = ports.switch_in_link[sw * ports.port_stride + in_port as usize];
            port.schedule(
                now + self.cfg.prop_delay,
                FabricEvent::PfcArrive {
                    link: in_link,
                    xoff: false,
                },
            );
        }
        self.start_tx(now, out_link_id, pkt, port);
    }

    /// Put `pkt` on the wire of idle `link`: the transmitter is busy
    /// for the frame's serialization time, and its last bit lands one
    /// propagation delay after that.
    #[inline]
    fn start_tx(
        &mut self,
        now: Time,
        link: u32,
        pkt: PktId,
        port: &mut impl SchedulePort<FabricEvent>,
    ) {
        self.links[link as usize].busy = true;
        let ser = self.serialize_wire(self.arena.get(pkt).wire_bytes as u64);
        port.schedule(now + ser, FabricEvent::TxDone { link });
        port.schedule(
            now + ser + self.cfg.prop_delay,
            FabricEvent::Arrive { link, pkt },
        );
    }

    /// Aggregated counters across all switches plus fabric-level ones.
    pub fn stats(&self) -> FabricStats {
        let mut s = FabricStats {
            injected_drops: self.injected_drops,
            delivered_pkts: self.delivered_pkts,
            delivered_bytes: self.delivered_bytes,
            ..FabricStats::default()
        };
        for sw in &self.switches {
            s.buffer_drops += sw.stats.buffer_drops;
            s.pauses += sw.stats.pauses_sent;
            s.resumes += sw.stats.resumes_sent;
            s.ecn_marked += sw.stats.ecn_marked;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketKind};
    use irn_sim::Scheduler;

    /// Timestamped packet deliveries to hosts.
    type Deliveries = Vec<(Time, HostId, Packet)>;
    /// Timestamped transmit-ready notifications to hosts.
    type TxReadies = Vec<(Time, HostId)>;

    /// Drive a fabric to quiescence, collecting host deliveries.
    /// Returns (deliveries, tx_ready notifications). Asserts the packet
    /// arena drained — every allocated id retired exactly once.
    fn run(fabric: &mut Fabric, queue: &mut Scheduler<FabricEvent>) -> (Deliveries, TxReadies) {
        let mut delivered = Vec::new();
        let mut ready = Vec::new();
        while let Some((now, ev)) = queue.pop() {
            let out = fabric.handle(now, ev, queue);
            match out {
                Some(FabricOutput::Deliver { host, pkt }) => {
                    delivered.push((now, host, fabric.take_delivered(pkt)))
                }
                Some(FabricOutput::HostTxReady { host }) => ready.push((now, host)),
                Some(FabricOutput::Dropped { .. }) | None => {}
            }
        }
        assert_eq!(fabric.pkt_pool_live(), 0, "arena must drain at quiescence");
        assert_eq!(fabric.arena.allocated(), fabric.arena.released());
        (delivered, ready)
    }

    fn send(
        fabric: &mut Fabric,
        queue: &mut Scheduler<FabricEvent>,
        now: Time,
        src: u32,
        dst: u32,
        bytes: u32,
        psn: u32,
    ) {
        let mut pkt = Packet::data(FlowId(src), HostId(src), HostId(dst), psn, bytes);
        pkt.ecmp_seed = src;
        fabric.host_start_tx(now, HostId(src), pkt, queue);
    }

    fn small_cfg() -> FabricConfig {
        FabricConfig {
            bandwidth: Bandwidth::from_gbps(40),
            prop_delay: Duration::micros(2),
            buffer_bytes: 240_000,
            pfc: None,
            ecn: None,
            loss_injection: 0.0,
            load_balancing: LoadBalancing::EcmpPerFlow,
            seed: 7,
        }
    }

    #[test]
    fn single_switch_delivery_time_is_exact() {
        // host0 → sw → host1: ser(1000 B @40G) = 200 ns, prop = 2 µs.
        // Two links, store-and-forward: 2·(200 + 2000) ns = 4.4 µs.
        let topo = Topology::single_switch(2);
        let mut fabric = Fabric::new(&topo, small_cfg());
        let mut q = Scheduler::new();
        send(&mut fabric, &mut q, Time::ZERO, 0, 1, 1000, 0);
        let (delivered, ready) = run(&mut fabric, &mut q);
        assert_eq!(delivered.len(), 1);
        let (t, host, pkt) = delivered[0];
        assert_eq!(host, HostId(1));
        assert_eq!(pkt.psn, 0);
        assert_eq!(t, Time::from_nanos(4_400));
        // The sender's uplink freed after serialization: 200 ns.
        assert_eq!(ready, vec![(Time::from_nanos(200), HostId(0))]);
    }

    #[test]
    fn packets_queue_behind_each_other_at_bottleneck() {
        // Two senders to one receiver through one switch: second packet
        // must wait for the first to serialize on the shared downlink.
        let topo = Topology::single_switch(3);
        let mut fabric = Fabric::new(&topo, small_cfg());
        let mut q = Scheduler::new();
        send(&mut fabric, &mut q, Time::ZERO, 0, 2, 1000, 0);
        send(&mut fabric, &mut q, Time::ZERO, 1, 2, 1000, 1);
        let (delivered, _) = run(&mut fabric, &mut q);
        assert_eq!(delivered.len(), 2);
        // First arrives at 4.4 µs; second 200 ns (one serialization) later.
        assert_eq!(delivered[0].0, Time::from_nanos(4_400));
        assert_eq!(delivered[1].0, Time::from_nanos(4_600));
    }

    #[test]
    fn no_drops_with_pfc_under_extreme_fan_in() {
        // 8 senders blast a single receiver with tiny buffers: without
        // PFC this drops; with PFC it must be lossless.
        let topo = Topology::single_switch(9);
        let buffer = 30_000u64;
        let mut cfg = small_cfg();
        cfg.buffer_bytes = buffer;
        cfg.pfc = Some(PfcConfig::for_buffer(
            buffer,
            cfg.bandwidth,
            cfg.prop_delay,
            1_048,
        ));
        let mut fabric = Fabric::new(&topo, cfg);
        let mut q = Scheduler::new();

        // Each sender keeps its uplink saturated: re-send on TxReady.
        let mut sent = [0u32; 8];
        for s in 0..8u32 {
            send(&mut fabric, &mut q, Time::ZERO, s, 8, 1000, 0);
            sent[s as usize] = 1;
        }
        let per_sender = 60u32;
        let mut delivered = 0u64;
        while let Some((now, ev)) = q.pop() {
            let out = fabric.handle(now, ev, &mut q);
            match out {
                Some(FabricOutput::Deliver { pkt, .. }) => {
                    fabric.take_delivered(pkt);
                    delivered += 1;
                }
                Some(FabricOutput::HostTxReady { host }) => {
                    let s = host.0 as usize;
                    if s < 8 && sent[s] < per_sender && fabric.host_tx_idle(host) {
                        send(&mut fabric, &mut q, now, host.0, 8, 1000, sent[s]);
                        sent[s] += 1;
                    }
                }
                Some(FabricOutput::Dropped { .. }) | None => {}
            }
        }
        assert_eq!(fabric.pkt_pool_live(), 0);
        let stats = fabric.stats();
        assert_eq!(stats.buffer_drops, 0, "PFC must be lossless");
        assert!(stats.pauses > 0, "fan-in past tiny buffers must pause");
        assert_eq!(stats.resumes, stats.pauses, "every pause must resume");
        assert_eq!(delivered, 8 * per_sender as u64);
    }

    #[test]
    fn drops_without_pfc_under_same_fan_in() {
        let topo = Topology::single_switch(9);
        let mut cfg = small_cfg();
        cfg.buffer_bytes = 10_000; // tiny: 10 packets
        let mut fabric = Fabric::new(&topo, cfg);
        let mut q = Scheduler::new();
        let mut sent = [0u32; 8];
        for s in 0..8u32 {
            send(&mut fabric, &mut q, Time::ZERO, s, 8, 1000, 0);
            sent[s as usize] = 1;
        }
        let per_sender = 60u32;
        let mut delivered = 0u64;
        while let Some((now, ev)) = q.pop() {
            let out = fabric.handle(now, ev, &mut q);
            match out {
                Some(FabricOutput::Deliver { pkt, .. }) => {
                    fabric.take_delivered(pkt);
                    delivered += 1;
                }
                Some(FabricOutput::HostTxReady { host }) => {
                    let s = host.0 as usize;
                    if s < 8 && sent[s] < per_sender && fabric.host_tx_idle(host) {
                        send(&mut fabric, &mut q, now, host.0, 8, 1000, sent[s]);
                        sent[s] += 1;
                    }
                }
                Some(FabricOutput::Dropped { .. }) | None => {}
            }
        }
        // Dropped packets were released by the fabric itself: the arena
        // still drains to empty.
        assert_eq!(fabric.pkt_pool_live(), 0);
        let stats = fabric.stats();
        assert!(stats.buffer_drops > 0, "tail-drop expected without PFC");
        assert_eq!(stats.pauses, 0);
        assert_eq!(delivered + stats.buffer_drops, 8 * per_sender as u64);
    }

    #[test]
    fn pfc_pause_reaches_host_uplink() {
        // One sender saturates a 2-host dumbbell whose second switch
        // port is congested... simpler: tiny buffer on single switch,
        // one fast sender, verify host uplink sees a pause.
        // Headroom must absorb 2·prop·BW + in-flight frames ≈ 21 KB at
        // 40 Gbps / 2 µs; give 30 KB below a 60 KB buffer.
        let topo = Topology::single_switch(3);
        let buffer = 60_000u64;
        let mut cfg = small_cfg();
        cfg.buffer_bytes = buffer;
        cfg.pfc = Some(PfcConfig {
            xoff_bytes: 30_000,
            xon_bytes: 26_000,
        });
        let mut fabric = Fabric::new(&topo, cfg);
        let mut q = Scheduler::new();
        // Two senders to one host: downlink drains at 1 pkt per 200 ns
        // while 2 pkt per 200 ns arrive; occupancy builds, pause fires.
        let mut sent = [0u32; 2];
        for s in 0..2u32 {
            send(&mut fabric, &mut q, Time::ZERO, s, 2, 1000, 0);
            sent[s as usize] = 1;
        }
        let mut saw_pause = false;
        let mut budget = 400u32;
        while let Some((now, ev)) = q.pop() {
            let out = fabric.handle(now, ev, &mut q);
            // Single switch: links 0 and 2 are the uplinks of hosts 0 and 1.
            saw_pause |= fabric.links[0].paused || fabric.links[2].paused;
            match out {
                Some(FabricOutput::Deliver { pkt, .. }) => {
                    fabric.take_delivered(pkt);
                }
                Some(FabricOutput::HostTxReady { host }) => {
                    let s = host.0 as usize;
                    if s < 2 && budget > 0 && fabric.host_tx_idle(host) {
                        send(&mut fabric, &mut q, now, host.0, 2, 1000, sent[s]);
                        sent[s] += 1;
                        budget -= 1;
                    }
                }
                Some(FabricOutput::Dropped { .. }) | None => {}
            }
        }
        assert!(saw_pause, "host uplinks should have been paused");
        assert_eq!(fabric.stats().buffer_drops, 0);
    }

    #[test]
    fn start_tx_schedules_tx_done_then_arrive_after_any_xon() {
        // Thresholds below one frame: the first packet to reach the
        // switch pauses its input, and its dequeue owes the X-ON.
        let topo = Topology::single_switch(2);
        let mut cfg = small_cfg();
        cfg.pfc = Some(PfcConfig {
            xoff_bytes: 500,
            xon_bytes: 400,
        });
        let mut fabric = Fabric::new(&topo, cfg);
        let (ser, prop) = (Duration::nanos(200), Duration::micros(2));

        // Host uplink (link 0 = host 0 → switch).
        let mut port: Vec<(Time, FabricEvent)> = Vec::new();
        let data = Packet::data(FlowId(0), HostId(0), HostId(1), 0, 1000);
        fabric.host_start_tx(Time::ZERO, HostId(0), data, &mut port);
        let (t, FabricEvent::Arrive { link: 0, pkt }) = port[1] else {
            panic!("second event must be the arrival on link 0: {port:?}");
        };
        assert_eq!(
            port,
            vec![
                (Time::ZERO + ser, FabricEvent::TxDone { link: 0 }),
                (
                    Time::ZERO + ser + prop,
                    FabricEvent::Arrive { link: 0, pkt }
                ),
            ]
        );

        // Switch port (link 3 = switch → host 1).
        port.clear();
        assert_eq!(
            fabric.handle(t, FabricEvent::Arrive { link: 0, pkt }, &mut port),
            None
        );
        let pfc = |xoff| FabricEvent::PfcArrive { link: 0, xoff };
        assert_eq!(
            port,
            vec![
                (t + prop, pfc(true)),
                (t + prop, pfc(false)),
                (t + ser, FabricEvent::TxDone { link: 3 }),
                (t + ser + prop, FabricEvent::Arrive { link: 3, pkt }),
            ]
        );
    }

    #[test]
    fn ecmp_flows_use_distinct_paths_in_fat_tree() {
        // Cross-pod traffic in a k=4 fat-tree: different seeds must be
        // able to take different core paths (we check routing is actually
        // consulted per flow by sending two flows and completing).
        let topo = Topology::fat_tree(4);
        let mut fabric = Fabric::new(&topo, small_cfg());
        let mut q = Scheduler::new();
        let far = (topo.hosts - 1) as u32;
        for f in 0..4u32 {
            let mut pkt = Packet::data(FlowId(f), HostId(0), HostId(far), 0, 1000);
            pkt.ecmp_seed = f;
            // Inject sequentially: wait for uplink to free between sends.
            if fabric.host_tx_idle(HostId(0)) {
                fabric.host_start_tx(q.now(), HostId(0), pkt, &mut q);
            }
            // Drain fully before next (keeps the test simple).
            let (d, _) = run(&mut fabric, &mut q);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].1, HostId(far));
        }
    }

    #[test]
    fn fault_injection_drops_data() {
        let topo = Topology::single_switch(2);
        let mut cfg = small_cfg();
        cfg.loss_injection = 1.0; // drop everything at the switch hop
        let mut fabric = Fabric::new(&topo, cfg);
        let mut q = Scheduler::new();
        send(&mut fabric, &mut q, Time::ZERO, 0, 1, 1000, 0);
        let (delivered, _) = run(&mut fabric, &mut q);
        assert!(delivered.is_empty());
        assert_eq!(fabric.stats().injected_drops, 1);
    }

    #[test]
    fn fault_injection_spares_control_packets() {
        let topo = Topology::single_switch(2);
        let mut cfg = small_cfg();
        cfg.loss_injection = 1.0;
        let mut fabric = Fabric::new(&topo, cfg);
        let mut q = Scheduler::new();
        let ack = Packet::control(PacketKind::Ack, FlowId(0), HostId(0), HostId(1), 3, 64);
        fabric.host_start_tx(Time::ZERO, HostId(0), ack, &mut q);
        let (delivered, _) = run(&mut fabric, &mut q);
        assert_eq!(delivered.len(), 1, "ACKs bypass fault injection");
    }

    #[test]
    fn zero_byte_frames_flow_through() {
        // The RoCE baseline's signalling-only ACKs must traverse the
        // fabric in pure propagation time.
        let topo = Topology::single_switch(2);
        let mut fabric = Fabric::new(&topo, small_cfg());
        let mut q = Scheduler::new();
        let ack = Packet::control(PacketKind::Ack, FlowId(0), HostId(0), HostId(1), 3, 0);
        fabric.host_start_tx(Time::ZERO, HostId(0), ack, &mut q);
        let (delivered, _) = run(&mut fabric, &mut q);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].0, Time::from_nanos(4_000)); // 2 × 2 µs
    }

    #[test]
    fn path_hops_match_topology() {
        let topo = Topology::fat_tree(4);
        let fabric = Fabric::new(&topo, small_cfg());
        // Same edge switch: 2 hops. Cross-pod: 6 hops.
        assert_eq!(fabric.path_hops(HostId(0), HostId(1)), 2);
        assert_eq!(
            fabric.path_hops(HostId(0), HostId((topo.hosts - 1) as u32)),
            6
        );
        assert_eq!(fabric.diameter_hops(), 6);
    }
}
