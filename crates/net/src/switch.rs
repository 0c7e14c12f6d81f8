//! The input-queued switch model (§4.1 of the paper).
//!
//! "All switches in our simulation are input-queued with virtual output
//! ports, that are scheduled using round-robin. The switches can be
//! configured to generate PFC frames by setting appropriate buffer
//! thresholds."
//!
//! * Every input port owns a byte-budgeted buffer; packets are stored in
//!   **virtual output queues** (one per output) so one blocked output
//!   cannot head-of-line-block a different output *inside* the switch.
//!   (HoL blocking in the paper comes from PFC pauses, not the fabric.)
//! * Each output port arbitrates **round-robin across input ports**.
//! * **PFC** (802.1Qbb): when an input port's occupancy crosses the X-OFF
//!   threshold, an X-OFF is owed to the upstream transmitter; when it
//!   drains to the X-ON threshold the pause is lifted. One traffic class
//!   is modelled (the class RDMA rides on).
//! * **ECN**: data packets are marked Congestion-Experienced with a
//!   RED-style probability driven by the egress occupancy (total bytes
//!   queued for the packet's output port), the signal DCQCN \[37\] and
//!   DCTCP \[15\] react to.
//!
//! This module is pure state — no event scheduling — so every branch is
//! unit-testable; the event plumbing lives in [`crate::fabric`].
//!
//! Queue state is struct-of-arrays: packets live in the caller's
//! [`PacketArena`] and each VOQ is an intrusive [`PktQueue`] id chain —
//! a switch never copies a packet, only 4-byte handles.

use irn_sim::{Duration, SimRng};

use crate::arena::{PacketArena, PktId, PktQueue};
use crate::units::Bandwidth;

/// Priority Flow Control thresholds for one input port, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcConfig {
    /// Send X-OFF when input-port occupancy exceeds this.
    pub xoff_bytes: u64,
    /// Send X-ON when occupancy drains to or below this. Must be
    /// ≤ `xoff_bytes`; a gap adds hysteresis against pause-frame storms.
    pub xon_bytes: u64,
}

impl PfcConfig {
    /// The bytes an input port must keep free above X-OFF (§4.1): the
    /// upstream link's bandwidth-delay product over the pause's round
    /// trip, `upstream_bw × 2 × prop_delay`, which absorbs everything in
    /// flight while the pause propagates, plus two maximum-size frames of
    /// slop for the frame that may be mid-serialization when the pause
    /// lands and the one crossing the wire — the standard 802.1Qbb
    /// worst-case provisioning — so PFC is genuinely lossless (asserted
    /// by tests). A buffer must exceed it.
    pub fn headroom(upstream_bw: Bandwidth, prop_delay: Duration, max_frame_bytes: u64) -> u64 {
        upstream_bw.bytes_in(prop_delay * 2) + 2 * max_frame_bytes
    }

    /// The paper's provisioning rule (§4.1): threshold = buffer −
    /// [`PfcConfig::headroom`].
    pub fn for_buffer(
        buffer_bytes: u64,
        upstream_bw: Bandwidth,
        prop_delay: Duration,
        max_frame_bytes: u64,
    ) -> PfcConfig {
        let headroom = PfcConfig::headroom(upstream_bw, prop_delay, max_frame_bytes);
        assert!(
            buffer_bytes > headroom,
            "buffer ({buffer_bytes} B) must exceed PFC headroom ({headroom} B)"
        );
        let xoff = buffer_bytes - headroom;
        PfcConfig {
            xoff_bytes: xoff,
            // Resume two frames below X-OFF: hysteresis without
            // sacrificing utilization.
            xon_bytes: xoff.saturating_sub(2 * max_frame_bytes),
        }
    }
}

/// RED-style ECN marking parameters (the DCQCN switch configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcnConfig {
    /// No marking below this egress occupancy.
    pub kmin_bytes: u64,
    /// Always mark above this occupancy.
    pub kmax_bytes: u64,
    /// Marking probability at `kmax` (ramps linearly from 0 at `kmin`).
    pub pmax: f64,
}

impl EcnConfig {
    /// Parameters from the DCQCN paper \[37\] as used for 10–40 Gbps links.
    pub fn dcqcn_default() -> EcnConfig {
        EcnConfig {
            kmin_bytes: 40_000,  // ~5 packets at 8 KB MTU in [37]; 40 KB here
            kmax_bytes: 200_000, // 200 KB
            pmax: 0.01,
        }
    }

    /// DCTCP-style step marking at threshold `k` (mark everything above).
    pub fn step(k_bytes: u64) -> EcnConfig {
        EcnConfig {
            kmin_bytes: k_bytes,
            kmax_bytes: k_bytes,
            pmax: 1.0,
        }
    }

    /// Marking probability at egress occupancy `occ`.
    pub fn mark_probability(&self, occ: u64) -> f64 {
        if occ <= self.kmin_bytes {
            0.0
        } else if occ >= self.kmax_bytes {
            1.0
        } else {
            self.pmax * (occ - self.kmin_bytes) as f64 / (self.kmax_bytes - self.kmin_bytes) as f64
        }
    }
}

/// Outcome of offering a packet to an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Packet queued. `send_xoff` means this arrival crossed the PFC
    /// threshold and an X-OFF is now owed to the upstream transmitter.
    Queued {
        /// Owe an X-OFF pause frame upstream.
        send_xoff: bool,
        /// The packet was ECN-marked on this enqueue (telemetry; the
        /// mark itself already lives in the queued packet's `ecn_ce`).
        marked: bool,
    },
    /// Buffer overflow: packet dropped (only possible without PFC, or
    /// with misconfigured headroom).
    Dropped,
}

/// Outcome of dequeuing a packet for an output port.
#[derive(Debug, Clone, Copy)]
pub struct Dequeue {
    /// Handle of the packet to transmit (still owned by the arena).
    pub pkt: PktId,
    /// Input port it came from (pause bookkeeping).
    pub in_port: u16,
    /// This departure drained the input port to its X-ON threshold: owe
    /// a resume frame upstream.
    pub send_xon: bool,
}

/// Counters exported by each switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets dropped to buffer overflow.
    pub buffer_drops: u64,
    /// X-OFF pause frames generated.
    pub pauses_sent: u64,
    /// X-ON resume frames generated.
    pub resumes_sent: u64,
    /// Data packets ECN-marked.
    pub ecn_marked: u64,
    /// Packets forwarded.
    pub forwarded: u64,
}

/// Run-time state of one input-queued switch.
#[derive(Debug)]
pub struct SwitchState {
    radix: usize,
    buffer_bytes: u64,
    pfc: Option<PfcConfig>,
    ecn: Option<EcnConfig>,
    /// Bytes buffered per input port.
    input_occ: Vec<u64>,
    /// `voq[out * radix + inp]`: ids of packets from `inp` waiting for
    /// `out`, chained through the shared arena's `next` array.
    voq: Vec<PktQueue>,
    /// Total bytes queued for each output port (ECN signal).
    egress_bytes: Vec<u64>,
    /// Packets queued for each output port (O(1) `has_traffic`; bytes
    /// alone cannot tell — zero-byte control frames carry no bytes).
    egress_pkts: Vec<u32>,
    /// Round-robin position per output port.
    rr_cursor: Vec<usize>,
    /// Whether we currently hold the upstream of each input port paused.
    xoff_active: Vec<bool>,
    /// Counters.
    pub stats: SwitchStats,
}

impl SwitchState {
    /// A switch with `radix` ports, `buffer_bytes` per input port.
    pub fn new(
        radix: usize,
        buffer_bytes: u64,
        pfc: Option<PfcConfig>,
        ecn: Option<EcnConfig>,
    ) -> SwitchState {
        assert!(radix > 0);
        if let Some(p) = pfc {
            assert!(p.xon_bytes <= p.xoff_bytes, "X-ON must not exceed X-OFF");
            assert!(
                p.xoff_bytes < buffer_bytes,
                "X-OFF threshold must leave headroom below the buffer size"
            );
        }
        SwitchState {
            radix,
            buffer_bytes,
            pfc,
            ecn,
            input_occ: vec![0; radix],
            voq: vec![PktQueue::EMPTY; radix * radix],
            egress_bytes: vec![0; radix],
            egress_pkts: vec![0; radix],
            rr_cursor: vec![0; radix],
            xoff_active: vec![false; radix],
            stats: SwitchStats::default(),
        }
    }

    /// Offer a packet arriving on `in_port` destined for `out_port`.
    ///
    /// On success the id lands in the VOQ (the packet possibly
    /// ECN-marked in place); the caller must then try to start the
    /// output port if it is idle, and deliver an X-OFF upstream if
    /// requested. On [`Enqueue::Dropped`] the id stays with the caller,
    /// who releases it back to the arena.
    #[inline]
    pub fn enqueue(
        &mut self,
        in_port: u16,
        out_port: u16,
        pkt: PktId,
        arena: &mut PacketArena,
        rng: &mut SimRng,
    ) -> Enqueue {
        let (inp, out) = (in_port as usize, out_port as usize);
        assert!(inp < self.radix && out < self.radix, "port out of range");
        let (size, is_data) = {
            let p = arena.get(pkt);
            (p.wire_bytes as u64, p.is_data())
        };

        if self.input_occ[inp] + size > self.buffer_bytes {
            self.stats.buffer_drops += 1;
            return Enqueue::Dropped;
        }

        // ECN: mark data packets against the *egress* occupancy they join
        // (DCQCN marks on egress enqueue).
        let mut marked = false;
        if let Some(ecn) = &self.ecn {
            if is_data {
                let p = ecn.mark_probability(self.egress_bytes[out] + size);
                if rng.chance(p) {
                    arena.get_mut(pkt).ecn_ce = true;
                    self.stats.ecn_marked += 1;
                    marked = true;
                }
            }
        }

        self.input_occ[inp] += size;
        self.egress_bytes[out] += size;
        self.egress_pkts[out] += 1;
        self.voq[out * self.radix + inp].push(arena, pkt);

        let mut send_xoff = false;
        if let Some(pfc) = &self.pfc {
            if !self.xoff_active[inp] && self.input_occ[inp] > pfc.xoff_bytes {
                self.xoff_active[inp] = true;
                self.stats.pauses_sent += 1;
                send_xoff = true;
            }
        }
        Enqueue::Queued { send_xoff, marked }
    }

    /// Pick the next packet for `out_port`, round-robin across input
    /// ports. Returns `None` when no VOQ for this output has traffic.
    #[inline]
    pub fn dequeue(&mut self, out_port: u16, arena: &mut PacketArena) -> Option<Dequeue> {
        let out = out_port as usize;
        assert!(out < self.radix, "port out of range");
        if self.egress_pkts[out] == 0 {
            return None;
        }
        // Branchy wraparound instead of `% radix`: the modulo costs an
        // integer division per probed VOQ, and this scan runs once per
        // forwarded packet.
        let mut inp = self.rr_cursor[out];
        for _ in 0..self.radix {
            if inp >= self.radix {
                inp -= self.radix;
            }
            if let Some(pkt) = self.voq[out * self.radix + inp].pop(arena) {
                // Advance past the input we just served.
                self.rr_cursor[out] = if inp + 1 == self.radix { 0 } else { inp + 1 };
                let size = arena.get(pkt).wire_bytes as u64;
                self.input_occ[inp] -= size;
                self.egress_bytes[out] -= size;
                self.egress_pkts[out] -= 1;
                self.stats.forwarded += 1;

                let mut send_xon = false;
                if let Some(pfc) = &self.pfc {
                    if self.xoff_active[inp] && self.input_occ[inp] <= pfc.xon_bytes {
                        self.xoff_active[inp] = false;
                        self.stats.resumes_sent += 1;
                        send_xon = true;
                    }
                }
                return Some(Dequeue {
                    pkt,
                    in_port: inp as u16,
                    send_xon,
                });
            }
            inp += 1;
        }
        None
    }

    /// True if any packet is waiting for `out_port`.
    #[inline]
    pub fn has_traffic(&self, out_port: u16) -> bool {
        self.egress_pkts[out_port as usize] > 0
    }

    /// Occupancy of input port `p`, bytes.
    pub fn input_occupancy(&self, p: u16) -> u64 {
        self.input_occ[p as usize]
    }

    /// Bytes queued toward output port `p`.
    pub fn egress_occupancy(&self, p: u16) -> u64 {
        self.egress_bytes[p as usize]
    }

    /// Whether this switch currently holds input port `p`'s upstream
    /// paused.
    pub fn holds_paused(&self, p: u16) -> bool {
        self.xoff_active[p as usize]
    }

    /// Port count.
    pub fn radix(&self) -> usize {
        self.radix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, HostId, Packet};

    fn pkt(bytes: u32) -> Packet {
        Packet::data(FlowId(0), HostId(0), HostId(1), 0, bytes)
    }

    fn rng() -> SimRng {
        SimRng::new(1)
    }

    /// Enqueue `p`, allocating it into `a`.
    fn offer(
        sw: &mut SwitchState,
        a: &mut PacketArena,
        inp: u16,
        out: u16,
        p: Packet,
        r: &mut SimRng,
    ) -> Enqueue {
        let id = a.alloc(p);
        let e = sw.enqueue(inp, out, id, a, r);
        if e == Enqueue::Dropped {
            a.release(id); // the fabric does this in production
        }
        e
    }

    /// Dequeue from `out`, copying the packet out of the arena.
    fn take(sw: &mut SwitchState, a: &mut PacketArena, out: u16) -> Option<(Packet, u16, bool)> {
        sw.dequeue(out, a).map(|d| {
            let p = *a.get(d.pkt);
            a.release(d.pkt);
            (p, d.in_port, d.send_xon)
        })
    }

    #[test]
    fn fifo_within_one_voq() {
        let mut sw = SwitchState::new(2, 10_000, None, None);
        let mut a = PacketArena::new();
        let mut r = rng();
        for psn in 0..3 {
            let mut p = pkt(100);
            p.psn = psn;
            assert!(matches!(
                offer(&mut sw, &mut a, 0, 1, p, &mut r),
                Enqueue::Queued { .. }
            ));
        }
        for psn in 0..3 {
            assert_eq!(take(&mut sw, &mut a, 1).unwrap().0.psn, psn);
        }
        assert!(take(&mut sw, &mut a, 1).is_none());
        assert_eq!(a.live(), 0, "arena empty at quiescence");
    }

    #[test]
    fn round_robin_across_inputs() {
        let mut sw = SwitchState::new(3, 10_000, None, None);
        let mut a = PacketArena::new();
        let mut r = rng();
        // Two packets from each of inputs 0 and 1, all to output 2.
        for inp in [0u16, 1] {
            for psn in 0..2 {
                let mut p = pkt(100);
                p.psn = psn;
                p.sack = inp as u32; // tag origin for the assertion
                offer(&mut sw, &mut a, inp, 2, p, &mut r);
            }
        }
        let order: Vec<u32> = (0..4)
            .map(|_| take(&mut sw, &mut a, 2).unwrap().0.sack)
            .collect();
        assert_eq!(order, vec![0, 1, 0, 1], "must alternate between inputs");
    }

    #[test]
    fn buffer_overflow_drops_without_pfc() {
        let mut sw = SwitchState::new(2, 250, None, None);
        let mut a = PacketArena::new();
        let mut r = rng();
        assert!(matches!(
            offer(&mut sw, &mut a, 0, 1, pkt(200), &mut r),
            Enqueue::Queued { .. }
        ));
        assert_eq!(
            offer(&mut sw, &mut a, 0, 1, pkt(100), &mut r),
            Enqueue::Dropped
        );
        assert_eq!(sw.stats.buffer_drops, 1);
        // Zero-byte control frames always fit.
        assert!(matches!(
            offer(&mut sw, &mut a, 0, 1, pkt(0), &mut r),
            Enqueue::Queued { .. }
        ));
    }

    #[test]
    fn pfc_xoff_fires_once_on_threshold_crossing() {
        let pfc = PfcConfig {
            xoff_bytes: 250,
            xon_bytes: 100,
        };
        let mut sw = SwitchState::new(2, 1000, Some(pfc), None);
        let mut a = PacketArena::new();
        let mut r = rng();
        assert_eq!(
            offer(&mut sw, &mut a, 0, 1, pkt(200), &mut r),
            Enqueue::Queued {
                send_xoff: false,
                marked: false
            }
        );
        // Crosses 250 B: X-OFF owed.
        assert_eq!(
            offer(&mut sw, &mut a, 0, 1, pkt(100), &mut r),
            Enqueue::Queued {
                send_xoff: true,
                marked: false
            }
        );
        // Already paused: no duplicate X-OFF.
        assert_eq!(
            offer(&mut sw, &mut a, 0, 1, pkt(100), &mut r),
            Enqueue::Queued {
                send_xoff: false,
                marked: false
            }
        );
        assert_eq!(sw.stats.pauses_sent, 1);
        assert!(sw.holds_paused(0));
    }

    #[test]
    fn pfc_xon_fires_when_drained_to_threshold() {
        let pfc = PfcConfig {
            xoff_bytes: 250,
            xon_bytes: 100,
        };
        let mut sw = SwitchState::new(2, 1000, Some(pfc), None);
        let mut a = PacketArena::new();
        let mut r = rng();
        for _ in 0..3 {
            offer(&mut sw, &mut a, 0, 1, pkt(100), &mut r);
        }
        assert!(sw.holds_paused(0));
        // 300 → 200: still above X-ON (100).
        assert!(!take(&mut sw, &mut a, 1).unwrap().2);
        // 200 → 100: at X-ON, resume.
        assert!(take(&mut sw, &mut a, 1).unwrap().2);
        assert!(!sw.holds_paused(0));
        assert_eq!(sw.stats.resumes_sent, 1);
    }

    #[test]
    fn pfc_is_per_input_port() {
        let pfc = PfcConfig {
            xoff_bytes: 150,
            xon_bytes: 50,
        };
        let mut sw = SwitchState::new(3, 1000, Some(pfc), None);
        let mut a = PacketArena::new();
        let mut r = rng();
        // Fill input 0 past the threshold; input 1 stays quiet.
        offer(&mut sw, &mut a, 0, 2, pkt(200), &mut r);
        assert!(sw.holds_paused(0));
        assert!(!sw.holds_paused(1));
        assert!(matches!(
            offer(&mut sw, &mut a, 1, 2, pkt(100), &mut r),
            Enqueue::Queued {
                send_xoff: false,
                marked: false
            }
        ));
    }

    #[test]
    fn ecn_marks_above_kmax_never_below_kmin() {
        let ecn = EcnConfig {
            kmin_bytes: 500,
            kmax_bytes: 1000,
            pmax: 1.0,
        };
        let mut sw = SwitchState::new(2, 1_000_000, None, Some(ecn));
        let mut a = PacketArena::new();
        let mut r = rng();
        // First packet joins an empty egress queue: occupancy 400 < kmin.
        offer(&mut sw, &mut a, 0, 1, pkt(400), &mut r);
        // Keep filling: once occupancy ≥ kmax every data packet is marked.
        for _ in 0..5 {
            offer(&mut sw, &mut a, 0, 1, pkt(400), &mut r);
        }
        let mut marked = Vec::new();
        while let Some((p, _, _)) = take(&mut sw, &mut a, 1) {
            marked.push(p.ecn_ce);
        }
        assert!(!marked[0], "below kmin must not be marked");
        assert!(
            marked[2..].iter().all(|&m| m),
            "above kmax every packet must be marked, got {marked:?}"
        );
    }

    #[test]
    fn ecn_ignores_control_packets() {
        let ecn = EcnConfig::step(0); // mark everything
        let mut sw = SwitchState::new(2, 1_000_000, None, Some(ecn));
        let mut a = PacketArena::new();
        let mut r = rng();
        let ack = Packet::control(
            crate::packet::PacketKind::Ack,
            FlowId(0),
            HostId(1),
            HostId(0),
            5,
            64,
        );
        offer(&mut sw, &mut a, 0, 1, ack, &mut r);
        assert!(!take(&mut sw, &mut a, 1).unwrap().0.ecn_ce);
    }

    #[test]
    fn mark_probability_ramp() {
        let ecn = EcnConfig {
            kmin_bytes: 100,
            kmax_bytes: 300,
            pmax: 0.5,
        };
        assert_eq!(ecn.mark_probability(50), 0.0);
        assert_eq!(ecn.mark_probability(100), 0.0);
        assert!((ecn.mark_probability(200) - 0.25).abs() < 1e-12);
        assert_eq!(ecn.mark_probability(300), 1.0); // note: ≥kmax ⇒ 1.0
        assert_eq!(ecn.mark_probability(400), 1.0);
    }

    #[test]
    fn for_buffer_matches_paper_provisioning() {
        // §4.1 defaults: 240 KB buffer, 40 Gbps, 2 µs ⇒ headroom 20 KB
        // (+ 2 max frames of slop), threshold ≈ 220 KB.
        let pfc = PfcConfig::for_buffer(
            240_000,
            Bandwidth::from_gbps(40),
            Duration::micros(2),
            1_048,
        );
        assert_eq!(pfc.xoff_bytes, 240_000 - 20_000 - 2 * 1_048);
        assert!(pfc.xon_bytes < pfc.xoff_bytes);
    }

    #[test]
    fn egress_accounting_balances() {
        let mut sw = SwitchState::new(2, 100_000, None, None);
        let mut a = PacketArena::new();
        let mut r = rng();
        for _ in 0..10 {
            offer(&mut sw, &mut a, 0, 1, pkt(1000), &mut r);
        }
        assert_eq!(sw.egress_occupancy(1), 10_000);
        assert_eq!(sw.input_occupancy(0), 10_000);
        for _ in 0..10 {
            take(&mut sw, &mut a, 1);
        }
        assert_eq!(sw.egress_occupancy(1), 0);
        assert_eq!(sw.input_occupancy(0), 0);
        assert!(!sw.has_traffic(1));
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn zero_byte_frames_count_as_traffic() {
        // `has_traffic` must see queued zero-byte control frames even
        // though they add no egress bytes.
        let mut sw = SwitchState::new(2, 100_000, None, None);
        let mut a = PacketArena::new();
        let mut r = rng();
        offer(&mut sw, &mut a, 0, 1, pkt(0), &mut r);
        assert_eq!(sw.egress_occupancy(1), 0);
        assert!(sw.has_traffic(1));
        assert!(take(&mut sw, &mut a, 1).is_some());
        assert!(!sw.has_traffic(1));
    }
}
