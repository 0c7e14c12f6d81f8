//! The zero-copy packet path, pinned against its pre-refactor
//! semantics.
//!
//! The switch refactor moved packets out of per-VOQ `VecDeque<Packet>`s
//! into one `PacketArena` with intrusive `PktId` queues. Nothing about
//! the *model* was allowed to change — same ECN draws, same RR
//! arbitration, same PFC edges, same drop decisions — so this suite
//! keeps a by-value copy of the old switch ([`RefSwitch`], frozen at
//! the pre-arena commit) and drives random operation sequences through
//! both implementations in lockstep, asserting every observable agrees.
//!
//! Alongside the differential, the arena's own contract is property
//! tested (every id retired exactly once, pool empty at quiescence) and
//! checked end-to-end through lossy engine runs, where fault-injection
//! and buffer drops release ids on paths the happy path never takes.

use std::collections::VecDeque;

use irn_core::net::switch::{Enqueue, SwitchState};
use irn_core::net::{EcnConfig, FlowId, HostId, Packet, PacketArena, PacketKind, PfcConfig};
use irn_core::sim::SimRng;
use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, TopologySpec, TrafficModel};
use irn_integration::run;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference switch: the pre-refactor by-value implementation, verbatim
// modulo the fields the differential does not observe. Do not "improve"
// this code — its whole value is being the old semantics.
// ---------------------------------------------------------------------

struct RefSwitch {
    radix: usize,
    buffer_bytes: u64,
    pfc: Option<PfcConfig>,
    ecn: Option<EcnConfig>,
    input_occ: Vec<u64>,
    voq: Vec<VecDeque<Packet>>,
    egress_bytes: Vec<u64>,
    rr_cursor: Vec<usize>,
    xoff_active: Vec<bool>,
    buffer_drops: u64,
    ecn_marked: u64,
    forwarded: u64,
}

impl RefSwitch {
    fn new(
        radix: usize,
        buffer_bytes: u64,
        pfc: Option<PfcConfig>,
        ecn: Option<EcnConfig>,
    ) -> Self {
        RefSwitch {
            radix,
            buffer_bytes,
            pfc,
            ecn,
            input_occ: vec![0; radix],
            voq: (0..radix * radix).map(|_| VecDeque::new()).collect(),
            egress_bytes: vec![0; radix],
            rr_cursor: vec![0; radix],
            xoff_active: vec![false; radix],
            buffer_drops: 0,
            ecn_marked: 0,
            forwarded: 0,
        }
    }

    fn enqueue(
        &mut self,
        in_port: u16,
        out_port: u16,
        mut pkt: Packet,
        rng: &mut SimRng,
    ) -> Enqueue {
        let (inp, out) = (in_port as usize, out_port as usize);
        let size = pkt.wire_bytes as u64;
        if self.input_occ[inp] + size > self.buffer_bytes {
            self.buffer_drops += 1;
            return Enqueue::Dropped;
        }
        let mut marked = false;
        if let Some(ecn) = &self.ecn {
            if pkt.is_data() {
                let p = ecn.mark_probability(self.egress_bytes[out] + size);
                if rng.chance(p) {
                    pkt.ecn_ce = true;
                    self.ecn_marked += 1;
                    marked = true;
                }
            }
        }
        self.input_occ[inp] += size;
        self.egress_bytes[out] += size;
        self.voq[out * self.radix + inp].push_back(pkt);
        let mut send_xoff = false;
        if let Some(pfc) = &self.pfc {
            if !self.xoff_active[inp] && self.input_occ[inp] > pfc.xoff_bytes {
                self.xoff_active[inp] = true;
                send_xoff = true;
            }
        }
        Enqueue::Queued { send_xoff, marked }
    }

    fn dequeue(&mut self, out_port: u16) -> Option<(Packet, u16, bool)> {
        let out = out_port as usize;
        let start = self.rr_cursor[out];
        for off in 0..self.radix {
            let inp = (start + off) % self.radix;
            if let Some(pkt) = self.voq[out * self.radix + inp].pop_front() {
                self.rr_cursor[out] = (inp + 1) % self.radix;
                let size = pkt.wire_bytes as u64;
                self.input_occ[inp] -= size;
                self.egress_bytes[out] -= size;
                self.forwarded += 1;
                let mut send_xon = false;
                if let Some(pfc) = &self.pfc {
                    if self.xoff_active[inp] && self.input_occ[inp] <= pfc.xon_bytes {
                        self.xoff_active[inp] = false;
                        send_xon = true;
                    }
                }
                return Some((pkt, inp as u16, send_xon));
            }
        }
        None
    }

    fn has_traffic(&self, out_port: u16) -> bool {
        let out = out_port as usize;
        self.egress_bytes[out] > 0
            || (0..self.radix).any(|inp| !self.voq[out * self.radix + inp].is_empty())
    }
}

// ---------------------------------------------------------------------
// Differential driver
// ---------------------------------------------------------------------

/// One raw op tuple: `(kind, in, out, bytes, data?)`. `kind % 5 < 3`
/// means enqueue, else dequeue on `out` — a 3:2 mix keeps queues
/// populated while still draining often. `bytes % 9` of 0 means a
/// zero-byte control frame (legal: RoCE pure-signalling ACKs).
type RawOp = (u16, u16, u16, u32, bool);

fn mk_pkt(seq: u32, bytes: u32, data: bool) -> Packet {
    let mut p = Packet::data(FlowId(7), HostId(1), HostId(2), seq, bytes);
    if !data {
        p.kind = PacketKind::Ack;
    }
    p
}

/// Wire bytes for a raw op: mostly 40..9000, zero one time in nine.
fn op_bytes(raw: u32) -> u32 {
    if raw % 9 == 0 {
        0
    } else {
        40 + raw % 8960
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op schedules through the arena/SoA switch and the frozen
    /// by-value reference, with identically seeded RNGs: every outcome,
    /// packet field, occupancy, flag, and counter must agree at every
    /// step, and the arena must drain to empty once both switches do.
    #[test]
    fn arena_switch_matches_by_value_reference(
        radix in 2u16..6,
        pfc_on in prop::bool::ANY,
        ecn_on in prop::bool::ANY,
        seed in 1u64..100_000,
        ops in proptest::collection::vec((0u16..5, 0u16..8, 0u16..8, 0u32..1_000_000, prop::bool::ANY), 1..400),
    ) {
        let buffer = 60_000u64;
        let pfc = if pfc_on {
            Some(PfcConfig { xoff_bytes: 40_000, xon_bytes: 30_000 })
        } else {
            None
        };
        let ecn = if ecn_on {
            Some(EcnConfig { kmin_bytes: 4_000, kmax_bytes: 30_000, pmax: 0.8 })
        } else {
            None
        };
        let r = radix as usize;
        let mut new_sw = SwitchState::new(r, buffer, pfc, ecn);
        let mut old_sw = RefSwitch::new(r, buffer, pfc, ecn);
        let mut arena = PacketArena::new();
        let mut rng_new = SimRng::new(seed);
        let mut rng_old = SimRng::new(seed);

        for (seq, &(kind, i, o, raw, data)) in ops.iter().enumerate() {
            let op: RawOp = (kind, i, o, raw, data);
            if op.0 % 5 < 3 {
                let (inp, out) = (op.1 % radix, op.2 % radix);
                let pkt = mk_pkt(seq as u32, op_bytes(op.3), op.4);
                let id = arena.alloc(pkt);
                let got = new_sw.enqueue(inp, out, id, &mut arena, &mut rng_new);
                let want = old_sw.enqueue(inp, out, pkt, &mut rng_old);
                prop_assert_eq!(got, want, "enqueue outcome diverged at op {}: {:?} vs {:?}", seq, got, want);
                if got == Enqueue::Dropped {
                    // Ownership stays with the caller on a drop.
                    arena.release(id);
                }
            } else {
                let out = op.2 % radix;
                let got = new_sw.dequeue(out, &mut arena);
                let want = old_sw.dequeue(out);
                match (got, want) {
                    (None, None) => {}
                    (Some(d), Some((pkt, inp, xon))) => {
                        let got_pkt = *arena.get(d.pkt);
                        arena.release(d.pkt);
                        prop_assert_eq!(got_pkt, pkt, "packet diverged at op {}", seq);
                        prop_assert_eq!(d.in_port, inp);
                        prop_assert_eq!(d.send_xon, xon);
                    }
                    (g, w) => {
                        panic!(
                            "dequeue divergence at op {seq}: new={:?} old={:?}",
                            g.is_some(),
                            w.is_some()
                        );
                    }
                }
            }
            // Observable state agrees after every step.
            for p in 0..radix {
                prop_assert_eq!(new_sw.input_occupancy(p), old_sw.input_occ[p as usize]);
                prop_assert_eq!(new_sw.egress_occupancy(p), old_sw.egress_bytes[p as usize]);
                prop_assert_eq!(new_sw.holds_paused(p), old_sw.xoff_active[p as usize]);
                prop_assert_eq!(new_sw.has_traffic(p), old_sw.has_traffic(p));
            }
            prop_assert_eq!(new_sw.stats.buffer_drops, old_sw.buffer_drops);
            prop_assert_eq!(new_sw.stats.ecn_marked, old_sw.ecn_marked);
            prop_assert_eq!(new_sw.stats.forwarded, old_sw.forwarded);
        }

        // Drain both switches; the arena must end empty with every id
        // retired exactly once (release panics on a double retire).
        for p in 0..radix {
            loop {
                match (new_sw.dequeue(p, &mut arena), old_sw.dequeue(p)) {
                    (Some(d), Some((pkt, _, _))) => {
                        prop_assert_eq!(*arena.get(d.pkt), pkt);
                        arena.release(d.pkt);
                    }
                    (None, None) => break,
                    _ => panic!("drain divergence on port {p}"),
                }
            }
        }
        prop_assert_eq!(arena.live(), 0, "arena must be empty at quiescence, {} live", arena.live());
        prop_assert_eq!(arena.allocated(), arena.released());
    }

    /// The arena against a model set: `live()` always matches, ids
    /// never alias while live, and full release drains to zero.
    #[test]
    fn arena_matches_model_set(
        ops in proptest::collection::vec(prop::bool::ANY, 1..300),
        seed in 1u64..10_000,
    ) {
        let mut arena = PacketArena::new();
        let mut live = Vec::new();
        let mut rng = SimRng::new(seed);
        for (i, alloc) in ops.iter().enumerate() {
            if *alloc || live.is_empty() {
                let id = arena.alloc(mk_pkt(i as u32, 1000, true));
                prop_assert!(!live.contains(&id), "alloc returned a live id");
                live.push(id);
            } else {
                let k = (rng.uniform() * live.len() as f64) as usize % live.len();
                let id = live.swap_remove(k);
                prop_assert_eq!(arena.get(id).wire_bytes, 1000);
                arena.release(id);
            }
            prop_assert_eq!(arena.live() as usize, live.len());
        }
        for id in live.drain(..) {
            arena.release(id);
        }
        prop_assert_eq!(arena.live(), 0);
        prop_assert_eq!(arena.allocated(), arena.released());
    }
}

// ---------------------------------------------------------------------
// End-to-end arena hygiene: lossy engine runs
// ---------------------------------------------------------------------

fn lossy_cfg(seed: u64, loss: f64) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologySpec::FatTree(4),
        traffic: TrafficModel::Poisson {
            load: 0.8,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 80,
        },
        seed,
        loss_injection: loss,
        ..ExperimentConfig::paper_default(80)
    }
    .with_transport(TransportKind::Irn)
    .with_pfc(false)
}

/// Fault-injection and buffer drops release packet ids on the fabric's
/// internal paths; flow retirement must still leave the pool empty
/// (the fabric panics on a leaked or double-released id, so completing
/// at all is the quiescence proof). The gauge must also be
/// deterministic: same config, same peak occupancy.
#[test]
fn lossy_runs_report_deterministic_pool_peaks() {
    let a = run(lossy_cfg(11, 0.02));
    let b = run(lossy_cfg(11, 0.02));
    assert_eq!(a.summary.flows, 80, "every flow completes despite loss");
    assert!(a.fabric.injected_drops > 0, "loss injection must trigger");
    assert!(a.transport.retransmitted > 0, "drops force retransmissions");
    assert!(a.memory.pkt_pool_pkts > 0, "pool peak must be recorded");
    assert!(a.memory.pkt_pool_bytes > 0, "pool bytes must be recorded");
    assert_eq!(a.memory.pkt_pool_pkts, b.memory.pkt_pool_pkts);
    assert_eq!(a.memory.pkt_pool_bytes, b.memory.pkt_pool_bytes);
    assert_eq!(a.events, b.events, "lossy runs stay deterministic");
}

/// The pool peak is bounded by what the workload can keep in flight —
/// a leak (ids allocated but never retired) would push the peak toward
/// the cumulative allocation count instead.
#[test]
fn pool_peak_is_bounded_not_cumulative() {
    let r = run(lossy_cfg(5, 0.0));
    assert!(
        r.transport.sent > r.memory.pkt_pool_pkts * 4,
        "peak {} should be far below total sent {}",
        r.memory.pkt_pool_pkts,
        r.transport.sent
    );
}
