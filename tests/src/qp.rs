//! Queue-pair state machines: requester and responder (§5).
//!
//! These implement the *semantic* half of IRN — how RDMA operations keep
//! their InfiniBand-specified behaviour when packets arrive out of order:
//!
//! * data is DMA'd straight to application memory on arrival, even out
//!   of order, tracked by BDP-sized bitmaps instead of NIC buffering
//!   (§5.3's implementation strategy);
//! * WQE matching uses explicit `recv_WQE_SN` / `read_WQE_SN` carried in
//!   packets (§5.3.2);
//! * "last packet" actions — MSN update, Receive-WQE expiry, CQE
//!   generation — are deferred via the 2-bitmap until all preceding
//!   packets arrive; CQEs created early are *premature CQEs* parked in
//!   main memory (§5.3.3);
//! * Read/Atomic requests wait in the Read WQE buffer and execute only
//!   in order (§5.3.2); read responses flow on the separate rPSN space
//!   and are acknowledged per-packet by the requester (§5.2, §5.4);
//! * completions are delivered to the application in WQE posting order
//!   (InfiniBand ordered-QP semantics), which the premature-CQE
//!   machinery preserves under arbitrary loss and reordering — the
//!   property the integration tests hammer on.
//!
//! Timing, pacing and loss recovery live in `irn-transport`; this module
//! is deliberately clock-free so the semantics can be tested under
//! adversarial packet schedules.

use std::collections::{BTreeMap, HashMap, VecDeque};

use irn_rdma::bitmap::TwoBitmap;
use irn_rdma::modules::{self, AckEmit, QpContext, ReceiverMode, SenderContext};

use crate::verbs::{
    Cqe, CqeKind, PacketOp, RdmaOp, ReadResponsePacket, ReceiveWqe, RequestPacket, RequestWqe,
};

/// Static QP parameters.
#[derive(Debug, Clone, Copy)]
pub struct QpConfig {
    /// Path MTU in bytes (RoCE default 1 KB, §3.2).
    pub mtu: u32,
    /// BDP cap in packets — bounds outstanding data and sizes every
    /// bitmap (§3.2: ~110 for the default network).
    pub bdp_cap: u32,
}

impl Default for QpConfig {
    fn default() -> Self {
        QpConfig {
            mtu: 1000,
            bdp_cap: 110,
        }
    }
}

/// A write into responder memory, recorded for verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemWrite {
    /// Target virtual address.
    pub addr: u64,
    /// Bytes written.
    pub len: u32,
    /// Message that produced the write.
    pub msg_id: u64,
    /// Global placement order (DMA order, *not* message order — OOO
    /// placement is the point).
    pub seq: u64,
}

/// The responder's application memory, modelled as a write log.
///
/// Real NICs DMA payloads; the reproduction records *which message wrote
/// which range in which order* so tests can verify placement and the
/// §5.3.4 overwrite semantics.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    writes: Vec<MemWrite>,
}

impl Memory {
    fn place(&mut self, addr: u64, len: u32, msg_id: u64) {
        let seq = self.writes.len() as u64;
        self.writes.push(MemWrite {
            addr,
            len,
            msg_id,
            seq,
        });
    }

    /// All recorded writes, in DMA order.
    pub fn writes(&self) -> &[MemWrite] {
        &self.writes
    }

    /// The message that last wrote the byte at `addr`, if any.
    pub fn last_writer(&self, addr: u64) -> Option<u64> {
        self.writes
            .iter()
            .rev()
            .find(|w| addr >= w.addr && addr < w.addr + w.len as u64)
            .map(|w| w.msg_id)
    }

    /// Total bytes covered by writes of message `msg_id`.
    pub fn bytes_of(&self, msg_id: u64) -> u64 {
        self.writes
            .iter()
            .filter(|w| w.msg_id == msg_id)
            .map(|w| w.len as u64)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Requester
// ---------------------------------------------------------------------------

/// Span of sequence numbers occupied by one posted message.
#[derive(Debug, Clone, Copy)]
struct MsgSpan {
    wqe: RequestWqe,
    msg_id: u64,
    first_psn: u32,
    packets: u32,
    /// MSN the responder will report once this message completes there.
    expected_msn: u32,
    /// SendInval fencing (Appendix B.5): transmission held until every
    /// earlier message has completed.
    fenced: bool,
}

/// Read-side completion tracking for a Read/Atomic WQE.
#[derive(Debug, Clone)]
struct PendingRead {
    total_packets: u32,
    received: u32,
}

/// The requester half of a queue pair.
///
/// Owns the sPSN space for requests, consumes ACK/NACK/read-response
/// packets, and surfaces CQEs in posting order. Packet *scheduling*
/// (when to transmit, what is lost) is the caller's concern: the
/// requester hands out fresh packets via [`Requester::next_new_packet`]
/// and regenerates any unacknowledged packet via
/// [`Requester::packet_for_psn`] (NICs re-fetch retransmissions over
/// PCIe, §6.3 — there is no retransmission buffer).
#[derive(Debug)]
pub struct Requester {
    cfg: QpConfig,
    /// Sender-side transport context (shared logic with `irn-transport`).
    pub ctx: SenderContext,
    msgs: Vec<MsgSpan>,
    /// Index of the first not-fully-transmitted message + packet offset.
    tx_msg: usize,
    tx_pkt: u32,
    next_msg_id: u64,
    next_recv_wqe_sn: u32,
    next_read_wqe_sn: u32,
    /// Completed-MSN high-water mark from ACKs.
    peer_msn: u32,
    /// Completion cursor: messages `< done_msgs` have delivered CQEs.
    done_msgs: usize,
    /// Read/Atomic completion state keyed by message id.
    pending_reads: HashMap<u64, PendingRead>,
    /// rPSN receive tracking (read responses arrive out of order too).
    read_resp: TwoBitmap,
    read_expected_rpsn: u32,
    cqes: VecDeque<Cqe>,
}

/// Acknowledgement emitted by the requester for read-response packets
/// (§5.2: "IRN introduces packets for read (N)ACKs").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAckEmit {
    /// Cumulative read-ACK (expected rPSN).
    Ack {
        /// Expected rPSN after this arrival.
        cum: u32,
    },
    /// Read-NACK: cumulative + triggering rPSN.
    Nack {
        /// Expected rPSN.
        cum: u32,
        /// The out-of-order response that triggered the NACK.
        sack: u32,
    },
}

impl Requester {
    /// New requester with fresh sequence spaces.
    pub fn new(cfg: QpConfig) -> Requester {
        Requester {
            cfg,
            ctx: SenderContext::new(cfg.bdp_cap as usize),
            msgs: Vec::new(),
            tx_msg: 0,
            tx_pkt: 0,
            next_msg_id: 0,
            next_recv_wqe_sn: 0,
            next_read_wqe_sn: 0,
            peer_msn: 0,
            done_msgs: 0,
            pending_reads: HashMap::new(),
            read_resp: TwoBitmap::new(cfg.bdp_cap as usize),
            read_expected_rpsn: 0,
            cqes: VecDeque::new(),
        }
    }

    /// Post a Request WQE. The driver assigns `recv_WQE_SN` /
    /// `read_WQE_SN` counters here (§5.3.2, §6.1 "counters for assigning
    /// WQE sequence numbers … stored directly in the main memory").
    pub fn post(&mut self, mut wqe: RequestWqe) -> u64 {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;

        if wqe.op.consumes_receive_wqe() {
            wqe.recv_wqe_sn = Some(self.next_recv_wqe_sn);
            self.next_recv_wqe_sn += 1;
        }
        if wqe.op.is_read_like() {
            wqe.read_wqe_sn = Some(self.next_read_wqe_sn);
            self.next_read_wqe_sn += 1;
        }

        let packets = wqe.op.request_packets(self.cfg.mtu);
        let first_psn = self
            .msgs
            .last()
            .map(|m| m.first_psn + m.packets)
            .unwrap_or(0);
        let expected_msn = self.msgs.len() as u32 + 1;
        let fenced = matches!(wqe.op, RdmaOp::SendInval { .. });
        self.msgs.push(MsgSpan {
            wqe,
            msg_id,
            first_psn,
            packets,
            expected_msn,
            fenced,
        });
        if wqe.op.is_read_like() {
            let resp_packets = match wqe.op {
                RdmaOp::Read { len } => len.max(1).div_ceil(self.cfg.mtu),
                _ => 1, // Atomic: single response packet
            };
            self.pending_reads.insert(
                msg_id,
                PendingRead {
                    total_packets: resp_packets,
                    received: 0,
                },
            );
        }
        msg_id
    }

    /// Packets in flight (sPSN space).
    pub fn in_flight(&self) -> u32 {
        self.ctx.in_flight()
    }

    /// Next expected read-response sequence number (rPSN space); the
    /// value a read NACK or responder read-timeout replays from (§5.2).
    pub fn read_expected_rpsn(&self) -> u32 {
        self.read_expected_rpsn
    }

    /// True when at least one Read/Atomic response is still incomplete.
    pub fn reads_pending(&self) -> bool {
        self.pending_reads
            .values()
            .any(|p| p.received < p.total_packets)
    }

    /// True when every posted WQE has completed.
    pub fn idle(&self) -> bool {
        self.done_msgs == self.msgs.len()
    }

    /// Hand out the next *new* packet, honouring BDP-FC (§3.2) and
    /// SendInval fences (Appendix B.5). Returns `None` when the window
    /// is full, everything is transmitted, or a fence blocks.
    pub fn next_new_packet(&mut self) -> Option<RequestPacket> {
        if self.ctx.in_flight() >= self.cfg.bdp_cap {
            return None; // BDP-FC gate
        }
        let span = *self.msgs.get(self.tx_msg)?;
        if span.fenced && self.done_msgs < self.tx_msg {
            // Fence: hold Send-with-Invalidate until prior work completes.
            return None;
        }
        let pkt = self.build_packet(&span, self.tx_pkt);
        debug_assert_eq!(pkt.psn, self.ctx.next_to_send);
        self.ctx.next_to_send += 1;
        self.tx_pkt += 1;
        if self.tx_pkt == span.packets {
            self.tx_msg += 1;
            self.tx_pkt = 0;
        }
        Some(pkt)
    }

    /// Regenerate the packet bearing `psn` for retransmission. Panics if
    /// `psn` was never assigned.
    pub fn packet_for_psn(&self, psn: u32) -> RequestPacket {
        let idx = self
            .msgs
            .partition_point(|m| m.first_psn + m.packets <= psn);
        let span = self
            .msgs
            .get(idx)
            .unwrap_or_else(|| panic!("psn {psn} beyond posted messages"));
        assert!(psn >= span.first_psn, "psn {psn} not assigned");
        self.build_packet(span, psn - span.first_psn)
    }

    fn build_packet(&self, span: &MsgSpan, pkt_idx: u32) -> RequestPacket {
        let psn = span.first_psn + pkt_idx;
        let last = pkt_idx + 1 == span.packets;
        let mtu = self.cfg.mtu;
        let msg_len = span.wqe.op.len();
        let offset = pkt_idx * mtu;
        let payload = match span.wqe.op {
            RdmaOp::Read { .. } => 0,
            RdmaOp::Atomic => 8,
            _ => msg_len.saturating_sub(offset).min(mtu),
        };
        let (op, reth_addr, recv_sn, read_sn, imm, read_len) = match span.wqe.op {
            RdmaOp::Write { .. } => (
                PacketOp::WriteData,
                // IRN adds the RETH to *every* packet (§5.3.1), pointing
                // at this packet's slice of the target buffer.
                Some(span.wqe.remote_addr + offset as u64),
                None,
                None,
                None,
                0,
            ),
            RdmaOp::WriteImm { imm, .. } => (
                PacketOp::WriteData,
                Some(span.wqe.remote_addr + offset as u64),
                // recv_WQE_SN travels in the *last* packet only (§5.3.2).
                last.then_some(span.wqe.recv_wqe_sn.expect("assigned at post")),
                None,
                last.then_some(imm),
                0,
            ),
            RdmaOp::Send { .. } | RdmaOp::SendInval { .. } => (
                PacketOp::SendData,
                None,
                // Every Send packet carries the recv_WQE_SN and its
                // relative offset (§5.3.2).
                Some(span.wqe.recv_wqe_sn.expect("assigned at post")),
                None,
                None,
                0,
            ),
            RdmaOp::Read { len } => (
                PacketOp::ReadRequest,
                Some(span.wqe.remote_addr),
                None,
                Some(span.wqe.read_wqe_sn.expect("assigned at post")),
                None,
                len,
            ),
            RdmaOp::Atomic => (
                PacketOp::AtomicRequest,
                Some(span.wqe.remote_addr),
                None,
                Some(span.wqe.read_wqe_sn.expect("assigned at post")),
                None,
                0,
            ),
        };
        RequestPacket {
            psn,
            op,
            msg_id: span.msg_id,
            reth_addr,
            recv_wqe_sn: recv_sn,
            read_wqe_sn: read_sn,
            msg_offset: offset,
            payload_len: payload,
            read_len,
            imm,
            last,
        }
    }

    /// Consume an ACK/NACK for the request direction. Returns how many
    /// packets were newly acknowledged (callers feed this to congestion
    /// control).
    pub fn on_ack(&mut self, cum: u32, sack: Option<u32>, is_nack: bool, msn: u32) -> u32 {
        let out = modules::receive_ack(&mut self.ctx, cum, sack, is_nack);
        if msn > self.peer_msn {
            self.peer_msn = msn;
        }
        self.pump_completions();
        out.newly_acked
    }

    /// Consume a read-response / atomic-response packet. Returns the
    /// read (N)ACK to send back (§5.2: per-packet, rPSN space).
    pub fn on_read_response(&mut self, pkt: ReadResponsePacket) -> ReadAckEmit {
        let emit = if pkt.rpsn < self.read_expected_rpsn {
            // Duplicate of an already-delivered response.
            ReadAckEmit::Ack {
                cum: self.read_expected_rpsn,
            }
        } else {
            let off = (pkt.rpsn - self.read_expected_rpsn) as usize;
            assert!(
                off < self.read_resp.capacity(),
                "read responses exceed BDP cap — responder ignored flow control"
            );
            let fresh = !self.read_resp.has(off);
            self.read_resp.record(off, pkt.last);
            if fresh {
                if let Some(pr) = self.pending_reads.get_mut(&pkt.wqe_id_key()) {
                    pr.received += 1;
                }
            }
            if off == 0 {
                let (advanced, _) = self.read_resp.slide();
                self.read_expected_rpsn += advanced as u32;
                ReadAckEmit::Ack {
                    cum: self.read_expected_rpsn,
                }
            } else {
                ReadAckEmit::Nack {
                    cum: self.read_expected_rpsn,
                    sack: pkt.rpsn,
                }
            }
        };
        self.pump_completions();
        emit
    }

    /// Deliver any CQEs whose turn has come (posting order).
    fn pump_completions(&mut self) {
        while self.done_msgs < self.msgs.len() {
            let span = &self.msgs[self.done_msgs];
            let complete = if span.wqe.op.is_read_like() {
                let pr = &self.pending_reads[&span.msg_id];
                pr.received >= pr.total_packets
            } else {
                self.peer_msn >= span.expected_msn
            };
            if !complete {
                break;
            }
            self.cqes.push_back(Cqe {
                wqe_id: span.wqe.id,
                kind: CqeKind::Request,
                msn: span.expected_msn,
                imm: None,
            });
            self.done_msgs += 1;
        }
    }

    /// Drain delivered completions.
    pub fn poll_cq(&mut self) -> Vec<Cqe> {
        self.cqes.drain(..).collect()
    }
}

impl ReadResponsePacket {
    /// The message-id key used by the requester to track this response.
    /// (`wqe_id` doubles as the key because the responder echoes the
    /// request's msg id there.)
    fn wqe_id_key(&self) -> u64 {
        self.wqe_id
    }
}

// ---------------------------------------------------------------------------
// Responder
// ---------------------------------------------------------------------------

/// Completion-relevant metadata parked until the window slides past a
/// message's last packet (§5.3.3's premature CQE, "stored in the main
/// memory, until it gets delivered to the application").
#[derive(Debug, Clone, Copy)]
struct HeldLast {
    msg_id: u64,
    recv_wqe_sn: Option<u32>,
    imm: Option<u32>,
    consumes_recv_wqe: bool,
}

/// A Read/Atomic request parked in the Read WQE buffer (§5.3.2).
#[derive(Debug, Clone, Copy)]
struct BufferedRead {
    psn: u32,
    msg_id: u64,
    addr: u64,
    read_len: u32,
    atomic: bool,
}

/// Actions the responder asks its NIC to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponderAction {
    /// Send an ACK (cumulative `cum`, current MSN piggy-backed).
    Ack {
        /// Expected sequence number.
        cum: u32,
        /// Responder MSN after this packet.
        msn: u32,
    },
    /// Send an IRN NACK (cumulative + SACK trigger).
    Nack {
        /// Expected sequence number.
        cum: u32,
        /// Out-of-order arrival that triggered the NACK.
        sack: u32,
        /// Responder MSN.
        msn: u32,
    },
    /// Emit a read/atomic response packet (rPSN space).
    ReadResponse(ReadResponsePacket),
    /// Deliver a CQE to the responder application.
    Completion(Cqe),
}

/// The responder half of a queue pair.
#[derive(Debug)]
pub struct Responder {
    cfg: QpConfig,
    mode: ReceiverMode,
    /// Receive-direction transport context (2-bitmap lives here).
    pub ctx: QpContext,
    /// Application memory (write log).
    pub memory: Memory,
    /// Posted Receive WQEs by recv_WQE_SN.
    recv_wqes: BTreeMap<u32, ReceiveWqe>,
    next_recv_wqe_sn: u32,
    /// Held last-packet metadata by absolute PSN.
    held: HashMap<u32, HeldLast>,
    /// Read WQE buffer indexed by read_WQE_SN (§5.3.2).
    read_buffer: BTreeMap<u32, BufferedRead>,
    /// Next read_WQE_SN to execute (in-order execution point).
    next_read_exec: u32,
    /// rPSN allocator for read responses.
    next_rpsn: u32,
    /// Emitted read-response packets by rPSN, for NACK-driven replay
    /// (regenerated from memory on a real NIC; kept here for fidelity of
    /// the replay protocol).
    read_log: Vec<ReadResponsePacket>,
    /// Count of read responses replayed due to read NACKs.
    pub read_retransmissions: u64,
}

impl Responder {
    /// New responder in IRN mode (buffers OOO packets).
    pub fn new(cfg: QpConfig) -> Responder {
        Responder::with_mode(cfg, ReceiverMode::Irn)
    }

    /// New responder with an explicit receiver mode (RoCE go-back-N
    /// responders discard OOO packets, §2.1).
    pub fn with_mode(cfg: QpConfig, mode: ReceiverMode) -> Responder {
        Responder {
            cfg,
            mode,
            ctx: QpContext::new(cfg.bdp_cap as usize),
            memory: Memory::default(),
            recv_wqes: BTreeMap::new(),
            next_recv_wqe_sn: 0,
            held: HashMap::new(),
            read_buffer: BTreeMap::new(),
            next_read_exec: 0,
            next_rpsn: 0,
            read_log: Vec::new(),
            read_retransmissions: 0,
        }
    }

    /// Post a Receive WQE; the driver assigns its `recv_WQE_SN` in
    /// posting order (§5.3.2).
    pub fn post_receive(&mut self, id: u64, sink_addr: u64) -> u32 {
        let sn = self.next_recv_wqe_sn;
        self.next_recv_wqe_sn += 1;
        self.recv_wqes.insert(
            sn,
            ReceiveWqe {
                id,
                recv_wqe_sn: sn,
                sink_addr,
            },
        );
        sn
    }

    /// Current MSN.
    pub fn msn(&self) -> u32 {
        self.ctx.msn
    }

    /// Number of packets currently buffered out of order.
    pub fn out_of_order_packets(&self) -> usize {
        self.ctx.recv.out_of_order_count()
    }

    /// Process one request-direction packet.
    pub fn on_packet(&mut self, pkt: RequestPacket) -> Vec<ResponderAction> {
        let mut actions = Vec::new();
        let expected_before = self.ctx.expected_seq;

        let out = modules::receive_data(&mut self.ctx, pkt.psn, pkt.last, self.mode);

        if out.beyond_window {
            return actions; // discarded defensively; no NACK (§B.4 spirit)
        }

        let fresh_arrival = !out.duplicate
            && (out.advanced > 0
                || out.buffered_ooo
                || self.mode == ReceiverMode::Irn && pkt.psn >= expected_before);
        let accepted = match self.mode {
            ReceiverMode::Irn => fresh_arrival,
            // RoCE discards OOO arrivals entirely.
            ReceiverMode::RoceGoBackN => out.advanced > 0,
        };

        if accepted && !out.duplicate {
            self.accept_packet(&pkt);
        }

        // Window slid: release held completions and execute ready reads.
        if out.advanced > 0 {
            self.release_range(expected_before, self.ctx.expected_seq, &mut actions);
            self.execute_ready_reads(&mut actions);
        }

        // The transport-level (N)ACK, stamped with the (possibly updated)
        // MSN so the requester can expire Request WQEs (§5.3.3).
        match out.ack {
            AckEmit::Ack { cum } => actions.push(ResponderAction::Ack {
                cum,
                msn: self.ctx.msn,
            }),
            AckEmit::Nack { cum, sack } => actions.push(ResponderAction::Nack {
                cum,
                sack,
                msn: self.ctx.msn,
            }),
            AckEmit::None => {}
        }
        actions
    }

    /// DMA placement + bookkeeping for a freshly-arrived packet.
    fn accept_packet(&mut self, pkt: &RequestPacket) {
        match pkt.op {
            PacketOp::WriteData => {
                // RETH on every packet → place immediately (§5.3.1).
                let addr = pkt.reth_addr.expect("IRN Write packets carry RETH");
                if pkt.payload_len > 0 {
                    self.memory.place(addr, pkt.payload_len, pkt.msg_id);
                }
                if pkt.last {
                    self.held.insert(
                        pkt.psn,
                        HeldLast {
                            msg_id: pkt.msg_id,
                            recv_wqe_sn: pkt.recv_wqe_sn,
                            imm: pkt.imm,
                            consumes_recv_wqe: pkt.recv_wqe_sn.is_some(),
                        },
                    );
                }
            }
            PacketOp::SendData => {
                // recv_WQE_SN + offset identify the sink (§5.3.2).
                let sn = pkt.recv_wqe_sn.expect("Send packets carry recv_WQE_SN");
                let wqe = self
                    .recv_wqes
                    .get(&sn)
                    .unwrap_or_else(|| panic!("no Receive WQE with SN {sn} (RNR; see credits)"));
                if pkt.payload_len > 0 {
                    self.memory.place(
                        wqe.sink_addr + pkt.msg_offset as u64,
                        pkt.payload_len,
                        pkt.msg_id,
                    );
                }
                if pkt.last {
                    self.held.insert(
                        pkt.psn,
                        HeldLast {
                            msg_id: pkt.msg_id,
                            recv_wqe_sn: Some(sn),
                            imm: pkt.imm,
                            consumes_recv_wqe: true,
                        },
                    );
                }
            }
            PacketOp::ReadRequest | PacketOp::AtomicRequest => {
                // Park in the Read WQE buffer until in order (§5.3.2).
                let sn = pkt
                    .read_wqe_sn
                    .expect("Read/Atomic packets carry read_WQE_SN");
                self.read_buffer.insert(
                    sn,
                    BufferedRead {
                        psn: pkt.psn,
                        msg_id: pkt.msg_id,
                        addr: pkt.reth_addr.expect("Read carries the source address"),
                        read_len: if pkt.op == PacketOp::ReadRequest {
                            pkt.read_len
                        } else {
                            8
                        },
                        atomic: pkt.op == PacketOp::AtomicRequest,
                    },
                );
            }
        }
    }

    /// Deliver held completions for every PSN the window slid past.
    fn release_range(&mut self, from: u32, to: u32, actions: &mut Vec<ResponderAction>) {
        for psn in from..to {
            let Some(h) = self.held.remove(&psn) else {
                continue;
            };
            if h.consumes_recv_wqe {
                let sn = h.recv_wqe_sn.expect("consuming completion carries SN");
                let wqe = self
                    .recv_wqes
                    .remove(&sn)
                    .unwrap_or_else(|| panic!("Receive WQE {sn} double-consumed"));
                actions.push(ResponderAction::Completion(Cqe {
                    wqe_id: wqe.id,
                    kind: CqeKind::Receive,
                    msn: self.ctx.msn,
                    imm: h.imm,
                }));
            }
            let _ = h.msg_id;
        }
    }

    /// Execute buffered Read/Atomic requests whose PSN the window has
    /// passed, in read_WQE_SN order.
    fn execute_ready_reads(&mut self, actions: &mut Vec<ResponderAction>) {
        while let Some(br) = self.read_buffer.get(&self.next_read_exec).copied() {
            if br.psn >= self.ctx.expected_seq {
                break; // not yet in order
            }
            self.read_buffer.remove(&self.next_read_exec);
            self.next_read_exec += 1;

            if br.atomic {
                // Atomics read-modify-write the target (§5.1).
                self.memory.place(br.addr, 8, br.msg_id);
            }
            let packets = br.read_len.max(1).div_ceil(self.cfg.mtu).max(1);
            for i in 0..packets {
                let rpsn = self.next_rpsn;
                self.next_rpsn += 1;
                let payload = if br.atomic {
                    8
                } else {
                    br.read_len
                        .saturating_sub(i * self.cfg.mtu)
                        .min(self.cfg.mtu)
                };
                let rp = ReadResponsePacket {
                    rpsn,
                    wqe_id: br.msg_id,
                    msg_offset: i * self.cfg.mtu,
                    payload_len: payload,
                    last: i + 1 == packets,
                };
                self.read_log.push(rp);
                actions.push(ResponderAction::ReadResponse(rp));
            }
        }
    }

    /// Handle a read NACK from the requester: replay the lost response
    /// (the responder is the data source for reads, so it runs the
    /// sender side of loss recovery on the rPSN space — §5.2 notes it
    /// must also implement timeouts).
    pub fn on_read_nack(&mut self, cum_rpsn: u32, _sack: u32) -> Vec<ResponderAction> {
        self.read_retransmissions += 1;
        self.read_log
            .get(cum_rpsn as usize)
            .map(|rp| vec![ResponderAction::ReadResponse(*rp)])
            .unwrap_or_default()
    }

    /// Read-timeout replay of the response at `cum_rpsn` (driven by the
    /// responder's read timer, §5.2/§6.1).
    pub fn on_read_timeout(&mut self, cum_rpsn: u32) -> Vec<ResponderAction> {
        self.on_read_nack(cum_rpsn, cum_rpsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QpConfig {
        QpConfig {
            mtu: 1000,
            bdp_cap: 110,
        }
    }

    fn write_wqe(id: u64, len: u32, addr: u64) -> RequestWqe {
        RequestWqe {
            id,
            op: RdmaOp::Write { len },
            remote_addr: addr,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        }
    }

    /// Deliver every packet of the requester in order; feed acks back.
    fn run_in_order(req: &mut Requester, resp: &mut Responder) -> Vec<ResponderAction> {
        let mut all = Vec::new();
        while let Some(pkt) = req.next_new_packet() {
            for a in resp.on_packet(pkt) {
                match a {
                    ResponderAction::Ack { cum, msn } => {
                        req.on_ack(cum, None, false, msn);
                    }
                    ResponderAction::Nack { cum, sack, msn } => {
                        req.on_ack(cum, Some(sack), true, msn);
                    }
                    ResponderAction::ReadResponse(rp) => {
                        req.on_read_response(rp);
                        all.push(ResponderAction::ReadResponse(rp));
                    }
                    other => all.push(other),
                }
            }
        }
        all
    }

    #[test]
    fn write_completes_and_places_data() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(write_wqe(7, 2500, 0x1000));
        run_in_order(&mut req, &mut resp);
        let cqes = req.poll_cq();
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wqe_id, 7);
        assert_eq!(resp.memory.bytes_of(0), 2500);
        assert_eq!(resp.msn(), 1);
        assert!(req.idle());
    }

    #[test]
    fn write_packets_all_carry_reth() {
        // §5.3.1: IRN adds the RETH to every packet, offset-adjusted.
        let mut req = Requester::new(cfg());
        req.post(write_wqe(1, 3000, 0x4000));
        let mut addrs = Vec::new();
        while let Some(p) = req.next_new_packet() {
            addrs.push(p.reth_addr.expect("every Write packet carries RETH"));
        }
        assert_eq!(addrs, vec![0x4000, 0x4000 + 1000, 0x4000 + 2000]);
    }

    #[test]
    fn ooo_write_places_data_immediately_but_holds_msn() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(write_wqe(1, 3000, 0x0));
        let p0 = req.next_new_packet().unwrap();
        let p1 = req.next_new_packet().unwrap();
        let p2 = req.next_new_packet().unwrap();
        // Deliver 2 (last) first: data placed, MSN unchanged, NACK sent.
        let acts = resp.on_packet(p2);
        assert_eq!(resp.memory.bytes_of(0), 1000, "OOO data DMA'd directly");
        assert_eq!(resp.msn(), 0, "completion held until in-order");
        assert!(matches!(
            acts[0],
            ResponderAction::Nack {
                cum: 0,
                sack: 2,
                ..
            }
        ));
        resp.on_packet(p1);
        let acts = resp.on_packet(p0);
        assert_eq!(resp.msn(), 1, "hole filled → MSN advances");
        assert!(matches!(
            acts.last().unwrap(),
            ResponderAction::Ack { cum: 3, msn: 1 }
        ));
    }

    #[test]
    fn send_requires_receive_wqe_and_completes_it() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        resp.post_receive(100, 0x9000);
        req.post(RequestWqe {
            id: 2,
            op: RdmaOp::Send { len: 1500 },
            remote_addr: 0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        let actions = run_in_order(&mut req, &mut resp);
        // Responder-side CQE for the consumed Receive WQE.
        let recv_cqes: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                ResponderAction::Completion(c) => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(recv_cqes.len(), 1);
        assert_eq!(recv_cqes[0].wqe_id, 100);
        assert_eq!(recv_cqes[0].kind, CqeKind::Receive);
        // Data landed at the Receive WQE's sink.
        assert_eq!(resp.memory.last_writer(0x9000), Some(0));
        assert_eq!(resp.memory.last_writer(0x9000 + 1400), Some(0));
        assert_eq!(req.poll_cq().len(), 1);
    }

    #[test]
    fn send_ooo_packets_place_via_offset() {
        // §5.3.2: Send packets carry recv_WQE_SN + offset so an OOO
        // packet lands at the right sink address.
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        resp.post_receive(5, 0x2000);
        req.post(RequestWqe {
            id: 1,
            op: RdmaOp::Send { len: 2000 },
            remote_addr: 0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        let p0 = req.next_new_packet().unwrap();
        let p1 = req.next_new_packet().unwrap();
        resp.on_packet(p1); // second packet first
        let w = resp.memory.writes().last().unwrap();
        assert_eq!(w.addr, 0x2000 + 1000);
        resp.on_packet(p0);
        assert_eq!(resp.memory.last_writer(0x2000), Some(0));
    }

    #[test]
    fn write_imm_consumes_receive_wqe_with_imm() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        resp.post_receive(42, 0);
        req.post(RequestWqe {
            id: 3,
            op: RdmaOp::WriteImm {
                len: 500,
                imm: 0xBEEF,
            },
            remote_addr: 0x100,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        let actions = run_in_order(&mut req, &mut resp);
        let cqe = actions
            .iter()
            .find_map(|a| match a {
                ResponderAction::Completion(c) => Some(*c),
                _ => None,
            })
            .expect("WriteImm must expire the Receive WQE");
        assert_eq!(cqe.imm, Some(0xBEEF));
        assert_eq!(cqe.wqe_id, 42);
    }

    #[test]
    fn plain_write_does_not_touch_receive_wqes() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        resp.post_receive(9, 0);
        req.post(write_wqe(1, 800, 0));
        let actions = run_in_order(&mut req, &mut resp);
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ResponderAction::Completion(_))),
            "a plain Write must not consume a Receive WQE (§5.1)"
        );
    }

    #[test]
    fn read_roundtrip_completes() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(RequestWqe {
            id: 11,
            op: RdmaOp::Read { len: 2500 },
            remote_addr: 0x7000,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        let actions = run_in_order(&mut req, &mut resp);
        let responses = actions
            .iter()
            .filter(|a| matches!(a, ResponderAction::ReadResponse(_)))
            .count();
        assert_eq!(responses, 3, "2500 B at 1 KB MTU = 3 response packets");
        let cqes = req.poll_cq();
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wqe_id, 11);
        assert_eq!(resp.msn(), 1, "MSN bumps when the Read executes");
    }

    #[test]
    fn ooo_read_request_waits_for_predecessors() {
        // §5.3.2: "The responder cannot begin processing a Read/Atomic
        // request R, until all packets expected to arrive before R have
        // been received."
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(write_wqe(1, 1000, 0)); // psn 0
        req.post(RequestWqe {
            id: 2,
            op: RdmaOp::Read { len: 500 },
            remote_addr: 0x500,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        }); // psn 1
        let w = req.next_new_packet().unwrap();
        let r = req.next_new_packet().unwrap();
        // Read request arrives before the write.
        let acts = resp.on_packet(r);
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, ResponderAction::ReadResponse(_))),
            "read must wait in the Read WQE buffer"
        );
        let acts = resp.on_packet(w);
        assert!(
            acts.iter()
                .any(|a| matches!(a, ResponderAction::ReadResponse(_))),
            "read executes once in order"
        );
        assert_eq!(resp.msn(), 2);
    }

    #[test]
    fn atomic_is_single_packet_and_ordered() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(RequestWqe {
            id: 1,
            op: RdmaOp::Atomic,
            remote_addr: 0xA0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        run_in_order(&mut req, &mut resp);
        assert_eq!(resp.memory.last_writer(0xA0), Some(0));
        assert_eq!(req.poll_cq().len(), 1);
    }

    #[test]
    fn read_responses_acked_per_packet_ooo_nacked() {
        // §5.2: the requester acknowledges every read-response packet.
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(RequestWqe {
            id: 1,
            op: RdmaOp::Read { len: 3000 },
            remote_addr: 0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        let rq = req.next_new_packet().unwrap();
        let acts = resp.on_packet(rq);
        let rps: Vec<ReadResponsePacket> = acts
            .iter()
            .filter_map(|a| match a {
                ResponderAction::ReadResponse(rp) => Some(*rp),
                _ => None,
            })
            .collect();
        assert_eq!(rps.len(), 3);
        // Deliver rpsn 1 first: read NACK with cum 0.
        assert_eq!(
            req.on_read_response(rps[1]),
            ReadAckEmit::Nack { cum: 0, sack: 1 }
        );
        // rpsn 0 fills the hole: cumulative read ACK for 0..2.
        assert_eq!(req.on_read_response(rps[0]), ReadAckEmit::Ack { cum: 2 });
        assert_eq!(req.on_read_response(rps[2]), ReadAckEmit::Ack { cum: 3 });
        assert_eq!(req.poll_cq().len(), 1);
    }

    #[test]
    fn read_nack_replays_lost_response() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(RequestWqe {
            id: 1,
            op: RdmaOp::Read { len: 2000 },
            remote_addr: 0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        let rq = req.next_new_packet().unwrap();
        let acts = resp.on_packet(rq);
        let rps: Vec<ReadResponsePacket> = acts
            .iter()
            .filter_map(|a| match a {
                ResponderAction::ReadResponse(rp) => Some(*rp),
                _ => None,
            })
            .collect();
        // Lose rps[0]; deliver rps[1] → NACK → replay of rpsn 0.
        let emit = req.on_read_response(rps[1]);
        let ReadAckEmit::Nack { cum, sack } = emit else {
            panic!("expected read NACK");
        };
        let replay = resp.on_read_nack(cum, sack);
        assert_eq!(replay.len(), 1);
        let ResponderAction::ReadResponse(rp) = replay[0] else {
            panic!();
        };
        assert_eq!(rp.rpsn, 0);
        req.on_read_response(rp);
        assert_eq!(req.poll_cq().len(), 1);
        assert_eq!(resp.read_retransmissions, 1);
    }

    #[test]
    fn completions_delivered_in_posting_order() {
        // A Write posted after a Read must not complete before it, even
        // though its ACK arrives first.
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(RequestWqe {
            id: 1,
            op: RdmaOp::Read { len: 1000 },
            remote_addr: 0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        req.post(write_wqe(2, 1000, 0x100));
        let read_rq = req.next_new_packet().unwrap();
        let write_p = req.next_new_packet().unwrap();

        // Write's packet is processed (and acked) before the read resp.
        let acts = resp.on_packet(read_rq);
        let rp = acts
            .iter()
            .find_map(|a| match a {
                ResponderAction::ReadResponse(rp) => Some(*rp),
                _ => None,
            })
            .unwrap();
        for a in resp.on_packet(write_p) {
            if let ResponderAction::Ack { cum, msn } = a {
                req.on_ack(cum, None, false, msn);
            }
        }
        assert!(
            req.poll_cq().is_empty(),
            "write CQE must wait for the read (ordered QP)"
        );
        req.on_read_response(rp);
        let cqes = req.poll_cq();
        assert_eq!(
            cqes.iter().map(|c| c.wqe_id).collect::<Vec<_>>(),
            vec![1, 2],
            "posting order"
        );
    }

    #[test]
    fn send_inval_fenced_behind_writes() {
        // Appendix B.5: Send-with-Invalidate must not bypass earlier
        // Writes to the region it invalidates.
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        resp.post_receive(50, 0x8000);
        req.post(write_wqe(1, 1000, 0x3000));
        req.post(RequestWqe {
            id: 2,
            op: RdmaOp::SendInval { len: 100, rkey: 9 },
            remote_addr: 0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        let w = req.next_new_packet().unwrap();
        assert!(
            req.next_new_packet().is_none(),
            "fence holds SendInval until the Write completes"
        );
        for a in resp.on_packet(w) {
            if let ResponderAction::Ack { cum, msn } = a {
                req.on_ack(cum, None, false, msn);
            }
        }
        assert!(req.next_new_packet().is_some(), "fence lifted");
    }

    #[test]
    fn bdp_fc_blocks_the_window() {
        let small = QpConfig {
            mtu: 1000,
            bdp_cap: 4,
        };
        let mut req = Requester::new(small);
        req.post(write_wqe(1, 10_000, 0));
        let mut got = 0;
        while req.next_new_packet().is_some() {
            got += 1;
        }
        assert_eq!(got, 4, "BDP-FC caps in-flight packets (§3.2)");
        // An ack opens the window again.
        req.on_ack(2, None, false, 0);
        assert!(req.next_new_packet().is_some());
    }

    #[test]
    fn retransmission_regenerates_identical_packet() {
        let mut req = Requester::new(cfg());
        req.post(write_wqe(1, 5000, 0x100));
        let mut originals = Vec::new();
        while let Some(p) = req.next_new_packet() {
            originals.push(p);
        }
        for p in &originals {
            assert_eq!(req.packet_for_psn(p.psn), *p);
        }
    }

    #[test]
    fn overwrite_semantics_last_dma_wins() {
        // §5.3.4: OOO placement can overwrite newer data with an old
        // retransmission; applications use fences. We verify the model
        // records DMA order so the test suite can observe the hazard.
        let mut resp = Responder::new(cfg());
        let mut req = Requester::new(cfg());
        req.post(write_wqe(1, 1000, 0x100)); // msg 0
        req.post(write_wqe(2, 1000, 0x100)); // msg 1 overwrites
        let p0 = req.next_new_packet().unwrap();
        let p1 = req.next_new_packet().unwrap();
        resp.on_packet(p0);
        resp.on_packet(p1);
        assert_eq!(resp.memory.last_writer(0x100), Some(1));
        // A retransmitted stale packet placed after message 1 would win
        // the race — exactly the hazard §5.3.4 describes:
        resp.on_packet(p0);
        // (duplicate is not re-placed: receive_data flags it)
        assert_eq!(resp.memory.last_writer(0x100), Some(1));
    }

    #[test]
    #[should_panic(expected = "no Receive WQE")]
    fn send_without_receive_wqe_panics_like_rnr() {
        let mut req = Requester::new(cfg());
        let mut resp = Responder::new(cfg());
        req.post(RequestWqe {
            id: 1,
            op: RdmaOp::Send { len: 100 },
            remote_addr: 0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        });
        let p = req.next_new_packet().unwrap();
        resp.on_packet(p); // credits module handles this gracefully
    }
}
