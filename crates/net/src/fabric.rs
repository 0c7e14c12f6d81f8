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

/// Where the `TxDone` of the frame a link sent last stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Completion {
    /// It fired, or no frame was ever sent: the transmitter is idle.
    #[default]
    Fired,
    /// Only its sequence number is held. The frame left a switch port
    /// that had nothing else queued, so at [`LinkState::until`] the
    /// event would clear a flag, find the VOQs empty and return: it is
    /// not scheduled unless traffic turns up while the frame is on the
    /// wire. Through `until` the transmitter is busy; after it, idle.
    Reserved,
    /// It is in the queue: the transmitter is busy until it fires.
    Scheduled,
}

/// Run state of one directed link; its two ends are wiring, in
/// [`NetTables`].
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    completion: Completion,
    /// Transmitter held paused by the receiver (PFC X-OFF).
    paused: bool,
    /// When the frame sent last finishes serializing: the time of its
    /// `TxDone`.
    until: Time,
    /// The sequence number reserved for that `TxDone` when the frame
    /// went out, so that scheduling it late changes no pop order.
    seq: u64,
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
    /// Wiring and routes (see [`NetTables`]), built for this fabric.
    tables: NetTables,
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
    /// Instantiate the fabric for `topo` under `cfg`, building its
    /// wiring and routing tables ([`NetTables::build`]).
    pub fn new(topo: &Topology, cfg: FabricConfig) -> Fabric {
        let tables = NetTables::build(topo);
        let switches = tables
            .ports
            .radix
            .iter()
            .map(|&r| SwitchState::new(r as usize, cfg.buffer_bytes, cfg.pfc, cfg.ecn))
            .collect();
        Fabric {
            links: vec![LinkState::default(); tables.ports.links.len()],
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
        // A host uplink's `TxDone` is always scheduled (see `start_tx`),
        // so this needs no clock.
        let l = &self.links[self.tables.ports.host_uplink[host.idx()] as usize];
        l.completion == Completion::Fired && !l.paused
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
        let uplink = self.tables.ports.host_uplink[host.idx()];
        self.start_tx(now, uplink, id, true, port);
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
        debug_assert_eq!(
            (link.completion, link.until),
            (Completion::Scheduled, now),
            "TxDone on link {link_id} that owed none"
        );
        link.completion = Completion::Fired;
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
        debug_assert!(
            !self.waits_unscheduled(now, link_id),
            "traffic waits behind a frame on link {link_id} whose TxDone is not scheduled"
        );
        let link = &mut self.links[link_id as usize];
        link.paused = xoff;
        // Resume: restart the transmitter if it has gone idle while
        // paused (if a TxDone is scheduled, it will pick up from here;
        // one that is only reserved has no traffic to pick up).
        if xoff || link.completion == Completion::Scheduled {
            return None;
        }
        self.kick(now, link_id, port)
    }

    /// Does traffic wait behind a frame that is on `link_id`'s wire
    /// with its `TxDone` only reserved? Never: `try_switch_tx` runs on
    /// every enqueue and schedules it (and a host uplink's is
    /// scheduled from the start).
    fn waits_unscheduled(&self, now: Time, link_id: u32) -> bool {
        let link = &self.links[link_id as usize];
        let on_wire = link.completion == Completion::Reserved && now <= link.until;
        match self.tables.ports.links[link_id as usize].src {
            Endpoint::SwitchPort { sw, port } => {
                on_wire && self.switches[sw as usize].has_traffic(port)
            }
            Endpoint::Host(_) => on_wire,
        }
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
        let link = self.links[out_link_id as usize];
        match link.completion {
            Completion::Scheduled => return,
            // The frame is still on the wire (a tie counts: the event
            // then pops next, before anything else can run), so the
            // `TxDone` skipped when it left is owed after all.
            Completion::Reserved if now <= link.until => {
                if self.switches[sw].has_traffic(out_port) {
                    self.arm_tx_done(out_link_id, port);
                }
                return;
            }
            Completion::Reserved | Completion::Fired => {}
        }
        if link.paused {
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
        let more = self.switches[sw].has_traffic(out_port);
        self.start_tx(now, out_link_id, pkt, more, port);
    }

    /// Put `pkt` on the wire of idle `link`: the transmitter is busy
    /// for the frame's serialization time, and its last bit lands one
    /// propagation delay after that.
    ///
    /// The `TxDone` always takes its sequence number here, ahead of the
    /// `Arrive`'s. It is scheduled only if `eager`: for a switch port
    /// with more queued, which it will serve, and for every host
    /// uplink, because [`Fabric::host_tx_idle`] is asked without a
    /// clock and so cannot tell a reserved completion that has passed
    /// from one that has not. Otherwise `try_switch_tx` schedules it if
    /// traffic arrives in time, and if none does it never exists.
    #[inline]
    fn start_tx(
        &mut self,
        now: Time,
        link: u32,
        pkt: PktId,
        eager: bool,
        port: &mut impl SchedulePort<FabricEvent>,
    ) {
        let ser = self.serialize_wire(self.arena.get(pkt).wire_bytes as u64);
        let state = &mut self.links[link as usize];
        state.completion = Completion::Reserved;
        state.until = now + ser;
        state.seq = port.reserve();
        if eager {
            self.arm_tx_done(link, port);
        }
        port.schedule(
            now + ser + self.cfg.prop_delay,
            FabricEvent::Arrive { link, pkt },
        );
    }

    /// Schedule the reserved `TxDone` of the frame on `link`'s wire.
    #[inline]
    fn arm_tx_done(&mut self, link: u32, port: &mut impl SchedulePort<FabricEvent>) {
        let state = &mut self.links[link as usize];
        state.completion = Completion::Scheduled;
        port.schedule_reserved(state.until, state.seq, FabricEvent::TxDone { link });
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

    // -----------------------------------------------------------------
    // The lazy `TxDone`. One switch; host `h`'s uplink is link `2h`,
    // its downlink (the switch port toward it) link `2h + 1`. At
    // 40 Gbps a 1000-byte frame serializes in 200 ns.
    // -----------------------------------------------------------------

    const SER: Duration = Duration::nanos(200);
    const PROP: Duration = Duration::micros(2);

    fn at(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    fn tx_done(link: u32) -> FabricEvent {
        FabricEvent::TxDone { link }
    }

    fn pfc(link: u32, xoff: bool) -> FabricEvent {
        FabricEvent::PfcArrive { link, xoff }
    }

    /// Send a 1000-byte frame `src` → `dst` up `src`'s uplink, complete
    /// the uplink, and hand back the frame's `Arrive` at the switch for
    /// the test to feed at a time of its choosing.
    fn uplink(fabric: &mut Fabric, src: u32, dst: u32) -> FabricEvent {
        let mut port: Vec<(Time, FabricEvent)> = Vec::new();
        let data = Packet::data(FlowId(src), HostId(src), HostId(dst), 0, 1000);
        fabric.host_start_tx(Time::ZERO, HostId(src), data, &mut port);
        let [(done_at, done), (_, arrive)] = port[..] else {
            panic!("a host uplink schedules TxDone, then Arrive: {port:?}");
        };
        assert_eq!(done, tx_done(2 * src));
        let ready = fabric.handle(done_at, done, &mut port);
        assert_eq!(ready, Some(FabricOutput::HostTxReady { host: HostId(src) }));
        arrive
    }

    /// What handling `ev` at `now` schedules; nothing may be output.
    fn emits(fabric: &mut Fabric, now: Time, ev: FabricEvent) -> Vec<(Time, FabricEvent)> {
        let mut port = Vec::new();
        assert_eq!(fabric.handle(now, ev, &mut port), None);
        port
    }

    /// The forwarded copy of `arrive` landing at the far end of `link`.
    fn forwarded(t: Time, link: u32, arrive: FabricEvent) -> (Time, FabricEvent) {
        let FabricEvent::Arrive { pkt, .. } = arrive else {
            panic!("not an arrival: {arrive:?}");
        };
        (t + PROP, FabricEvent::Arrive { link, pkt })
    }

    #[test]
    fn link_state_stays_within_three_words() {
        assert!(std::mem::size_of::<LinkState>() <= 24);
    }

    #[test]
    fn start_tx_schedules_tx_done_then_arrive_after_any_xon() {
        // Thresholds below one frame: every packet that reaches the
        // switch pauses its input, and its dequeue owes the X-ON.
        let topo = Topology::single_switch(3);
        let mut cfg = small_cfg();
        cfg.pfc = Some(PfcConfig {
            xoff_bytes: 500,
            xon_bytes: 400,
        });
        let mut fabric = Fabric::new(&topo, cfg);

        // A host uplink (link 0) schedules its TxDone, then the Arrive.
        let mut port: Vec<(Time, FabricEvent)> = Vec::new();
        let data = Packet::data(FlowId(0), HostId(0), HostId(2), 0, 1000);
        fabric.host_start_tx(Time::ZERO, HostId(0), data, &mut port);
        let (t, a) = port[1];
        assert_eq!(port[0], (Time::ZERO + SER, tx_done(0)));
        assert_eq!((t, a), forwarded(Time::ZERO + SER, 0, a));
        fabric.handle(Time::ZERO + SER, tx_done(0), &mut port);

        // An idle switch port (link 5) with nothing else queued: the
        // X-ON first, then the Arrive, and no TxDone.
        assert_eq!(
            emits(&mut fabric, t, a),
            vec![
                (t + PROP, pfc(0, true)),
                (t + PROP, pfc(0, false)),
                forwarded(t + SER, 5, a),
            ]
        );

        // Two more queue behind that frame, from inputs 1 and 0: the
        // first schedules the skipped TxDone, the second finds it there.
        let (b, c) = (uplink(&mut fabric, 1, 2), uplink(&mut fabric, 0, 2));
        let mid = t + Duration::nanos(50);
        assert_eq!(
            emits(&mut fabric, mid, b),
            vec![(mid + PROP, pfc(2, true)), (t + SER, tx_done(5))]
        );
        assert_eq!(emits(&mut fabric, mid, c), vec![(mid + PROP, pfc(0, true))]);

        // Serving `b` with `c` still queued: X-ON, TxDone, Arrive.
        let t = t + SER;
        assert_eq!(
            emits(&mut fabric, t, tx_done(5)),
            vec![
                (t + PROP, pfc(2, false)),
                (t + SER, tx_done(5)),
                forwarded(t + SER, 5, b),
            ]
        );
        // Serving `c` empties the port: no TxDone again.
        let t = t + SER;
        assert_eq!(
            emits(&mut fabric, t, tx_done(5)),
            vec![(t + PROP, pfc(0, false)), forwarded(t + SER, 5, c)]
        );
    }

    #[test]
    fn mid_frame_arrivals_schedule_one_tx_done_at_the_end_of_the_frame() {
        let topo = Topology::single_switch(4);
        let mut fabric = Fabric::new(&topo, small_cfg());
        let [a, b, c] = [0, 1, 2].map(|src| uplink(&mut fabric, src, 3));
        let t = at(10_000);
        assert_eq!(emits(&mut fabric, t, a), vec![forwarded(t + SER, 7, a)]);
        // On the frame's last nanosecond it is still on the wire.
        assert_eq!(emits(&mut fabric, t + SER, b), vec![(t + SER, tx_done(7))]);
        assert_eq!(emits(&mut fabric, t + SER, c), vec![]);
        // One nanosecond past its frame a port is idle, though no
        // TxDone ever fired on it: the next arrival starts at once.
        let [d, e] = [3, 3].map(|src| uplink(&mut fabric, src, 0));
        let t = t + SER;
        assert_eq!(emits(&mut fabric, t, d), vec![forwarded(t + SER, 1, d)]);
        let t = t + SER + Duration::nanos(1);
        assert_eq!(emits(&mut fabric, t, e), vec![forwarded(t + SER, 1, e)]);
    }

    /// Every event a run handled, with its time, in pop order.
    type Handled = Vec<(Time, FabricEvent)>;

    /// Frames for [`tie_at_the_end_of_a_frame`]: `(send time, src, dst,
    /// bytes)`, sorted by time.
    type Sends = [(u64, u32, u32, u32)];

    /// Drive `sends` through one switch with 100 ns links the way the
    /// engine drives flow arrivals (a send due at or before the next
    /// queue event goes first) and return every event handled and
    /// every delivery, in order.
    fn drive(sends: &Sends) -> (Handled, Vec<(Time, HostId)>) {
        let mut cfg = small_cfg();
        cfg.prop_delay = Duration::nanos(100);
        let mut fabric = Fabric::new(&Topology::single_switch(5), cfg);
        let mut q: Scheduler<FabricEvent> = Scheduler::new();
        let (mut handled, mut delivered) = (Vec::new(), Vec::new());
        let mut next = 0;
        loop {
            let send_at = sends.get(next).map(|s| at(s.0));
            let send = match (send_at, q.peek_time()) {
                (Some(s), Some(e)) => s <= e,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if send {
                let (_, src, dst, bytes) = sends[next];
                next += 1;
                let now = send_at.expect("a send is due");
                q.advance_to(now);
                let data = Packet::data(FlowId(src), HostId(src), HostId(dst), 0, bytes);
                fabric.host_start_tx(now, HostId(src), data, &mut q);
            } else {
                let (now, ev) = q.pop().expect("peeked");
                handled.push((now, ev));
                if let Some(FabricOutput::Deliver { host, pkt }) = fabric.handle(now, ev, &mut q) {
                    fabric.take_delivered(pkt);
                    delivered.push((now, host));
                }
            }
        }
        assert_eq!(fabric.pkt_pool_live(), 0);
        assert_eq!(q.stats().past_clamps, 0);
        (handled, delivered)
    }

    #[test]
    fn tie_at_the_end_of_a_frame() {
        // Frame F (0 → 2) reaches the switch at 300 and is on port 5's
        // wire through 500 with its TxDone reserved. G (1 → 2) and H
        // (3 → 4, an idle port) reach the switch at 500 exactly, G
        // first. Had the TxDone been scheduled at 300, it would pop at
        // 500 after every arrival sent before 300 and before every one
        // sent after.
        // The links of what was handled at 500: G's and H's arrivals
        // at the switch (links 2 and 6) and port 5's TxDone.
        let at_500 = |handled: &Handled| -> Vec<u32> {
            handled
                .iter()
                .filter(|(t, _)| *t == at(500))
                .filter_map(|&(_, ev)| match ev {
                    FabricEvent::Arrive { link, .. } if link == 2 || link == 6 => Some(link),
                    FabricEvent::TxDone { link: 5 } => Some(5),
                    _ => None,
                })
                .collect()
        };

        // G and H sent at 200, before F's frame left: their arrivals
        // hold lower numbers than the reserved one. G finds the port
        // busy, H's port starts at once, and the TxDone then serves G:
        // H's copy is scheduled first and is delivered first.
        let early = [(0, 0, 2, 1000), (200, 1, 2, 1000), (200, 3, 4, 1000)];
        let (handled, delivered) = drive(&early);
        assert_eq!(at_500(&handled), vec![2, 6, 5]);
        assert_eq!(
            delivered[1..],
            [(at(800), HostId(4)), (at(800), HostId(2))],
            "{handled:?}"
        );

        // G and H sent at 350, after: higher numbers. The TxDone G
        // schedules holds a number below G's own and still pops next,
        // ahead of H — G's copy goes out where an eager TxDone popped
        // before G would have let G itself send it, before H's.
        let late = [(0, 0, 2, 1000), (350, 1, 2, 250), (350, 3, 4, 250)];
        let (handled, delivered) = drive(&late);
        assert_eq!(at_500(&handled), vec![2, 5, 6]);
        assert_eq!(
            delivered[1..],
            [(at(650), HostId(2)), (at(650), HostId(4))],
            "{handled:?}"
        );
    }

    #[test]
    fn pause_and_resume_around_a_reserved_tx_done() {
        let t = at(10_000);
        let [early, end, late] = [50, 200, 300].map(|ns| t + Duration::nanos(ns));
        // Port 7's frame `a` is on the wire through `end`, its TxDone
        // reserved, when an X-OFF lands; `b` is to follow it.
        let paused = || {
            let mut fabric = Fabric::new(&Topology::single_switch(4), small_cfg());
            let [a, b] = [0, 1].map(|src| uplink(&mut fabric, src, 3));
            assert_eq!(emits(&mut fabric, t, a), vec![forwarded(t + SER, 7, a)]);
            assert_eq!(emits(&mut fabric, early, pfc(7, true)), vec![]);
            (fabric, b)
        };

        // X-ON before the end of the frame, nothing queued: nothing to
        // do; `b` then schedules the TxDone as if no pause had been.
        let (mut fabric, b) = paused();
        assert_eq!(emits(&mut fabric, early, pfc(7, false)), vec![]);
        assert_eq!(emits(&mut fabric, early, b), vec![(end, tx_done(7))]);
        assert_eq!(
            emits(&mut fabric, end, tx_done(7)),
            vec![forwarded(end + SER, 7, b)]
        );

        // `b` queues mid-frame under the pause: the TxDone is scheduled
        // all the same, fires into the pause, and the X-ON sends `b`.
        let (mut fabric, b) = paused();
        assert_eq!(emits(&mut fabric, early, b), vec![(end, tx_done(7))]);
        assert_eq!(emits(&mut fabric, end, tx_done(7)), vec![]);
        assert_eq!(
            emits(&mut fabric, late, pfc(7, false)),
            vec![forwarded(late + SER, 7, b)]
        );

        // The same with the X-ON in the frame's last nanosecond, ahead
        // of the TxDone: the TxDone sends `b`.
        let (mut fabric, b) = paused();
        assert_eq!(emits(&mut fabric, early, b), vec![(end, tx_done(7))]);
        assert_eq!(emits(&mut fabric, end, pfc(7, false)), vec![]);
        assert_eq!(
            emits(&mut fabric, end, tx_done(7)),
            vec![forwarded(end + SER, 7, b)]
        );

        // X-ON in the last nanosecond with nothing queued, then `b` in
        // the same nanosecond: still a tie, still through the TxDone.
        let (mut fabric, b) = paused();
        assert_eq!(emits(&mut fabric, end, pfc(7, false)), vec![]);
        assert_eq!(emits(&mut fabric, end, b), vec![(end, tx_done(7))]);

        // `b` arrives after the frame has left, under the pause: no
        // TxDone is owed, and the X-ON sends `b`.
        let (mut fabric, b) = paused();
        assert_eq!(emits(&mut fabric, late, b), vec![]);
        assert_eq!(
            emits(&mut fabric, late, pfc(7, false)),
            vec![forwarded(late + SER, 7, b)]
        );
    }

    #[test]
    fn recorded_calls_replay_into_a_port_that_only_schedules() {
        /// The benchmark's replay port: `schedule` alone, and it keeps
        /// nothing — the fabric must decide from `now` and its links.
        struct Discard;
        impl SchedulePort<FabricEvent> for Discard {
            fn schedule(&mut self, _at: Time, _ev: FabricEvent) {}
        }
        enum Op {
            Tx(Time, Packet),
            Event(Time, FabricEvent),
        }
        struct Recorder {
            fabric: Fabric,
            q: Scheduler<FabricEvent>,
            left: [u32; 8],
            log: Vec<Op>,
        }
        impl Recorder {
            /// Keep sender `s`'s uplink busy while it has frames left.
            fn pump(&mut self, now: Time, s: usize) {
                let host = HostId(s as u32);
                if s < 8 && self.left[s] > 0 && self.fabric.host_tx_idle(host) {
                    self.left[s] -= 1;
                    let data = Packet::data(FlowId(host.0), host, HostId(8), self.left[s], 1000);
                    self.log.push(Op::Tx(now, data));
                    self.fabric.host_start_tx(now, host, data, &mut self.q);
                }
            }
        }

        // Eight saturating senders into one receiver through buffers
        // that pause them, under the real scheduler.
        let topo = Topology::single_switch(9);
        let mut cfg = small_cfg();
        cfg.buffer_bytes = 30_000;
        cfg.pfc = Some(PfcConfig::for_buffer(
            cfg.buffer_bytes,
            cfg.bandwidth,
            cfg.prop_delay,
            1_048,
        ));
        let mut rec = Recorder {
            fabric: Fabric::new(&topo, cfg.clone()),
            q: Scheduler::new(),
            left: [40; 8],
            log: Vec::new(),
        };
        for s in 0..8 {
            rec.pump(Time::ZERO, s);
        }
        while let Some((now, ev)) = rec.q.pop() {
            rec.log.push(Op::Event(now, ev));
            match rec.fabric.handle(now, ev, &mut rec.q) {
                Some(FabricOutput::Deliver { pkt, .. }) => {
                    rec.fabric.take_delivered(pkt);
                }
                Some(FabricOutput::HostTxReady { host }) => rec.pump(now, host.idx()),
                Some(FabricOutput::Dropped { .. }) | None => {}
            }
        }
        let recorded = rec.fabric.stats();
        assert!(recorded.pauses > 0 && recorded.delivered_pkts == 320);

        let mut replay = Fabric::new(&topo, cfg);
        for op in rec.log {
            match op {
                Op::Tx(now, pkt) => replay.host_start_tx(now, pkt.src, pkt, &mut Discard),
                Op::Event(now, ev) => {
                    if let Some(FabricOutput::Deliver { pkt, .. }) =
                        replay.handle(now, ev, &mut Discard)
                    {
                        replay.take_delivered(pkt);
                    }
                }
            }
        }
        assert_eq!(replay.pkt_pool_live(), 0, "replay left packets in flight");
        assert_eq!(replay.stats(), recorded);
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
