//! RDMA operations, work queue elements, and completions (§5.1).
//!
//! "The interface between the user application and the RDMA NIC is
//! provided by Work Queue Elements or WQEs. … Expiration of a WQE upon
//! message completion is followed by the creation of a Completion Queue
//! Element or a CQE."
//!
//! Four message-transfer types exist (§5.1): Write (optionally with
//! immediate data), Read, Send, and Atomic. IRN additionally tags WQEs
//! with explicit sequence numbers (`recv_WQE_SN`, `read_WQE_SN`, §5.3.2)
//! so that out-of-order packets can be matched to the right WQE, and
//! extends packet headers (the RETH remote address on *every* Write
//! packet, §5.3.1; message offsets on Send packets, §5.3.2).

/// The RDMA operation carried by one Request WQE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaOp {
    /// Write `len` bytes into the responder's memory. No Receive WQE is
    /// consumed.
    Write {
        /// Message length, bytes.
        len: u32,
    },
    /// Write with immediate: like Write, but consumes a Receive WQE at
    /// the responder on completion and delivers `imm` in its CQE.
    WriteImm {
        /// Message length, bytes.
        len: u32,
        /// Immediate data delivered to the responder application.
        imm: u32,
    },
    /// Read `len` bytes from the responder's memory; data flows back as
    /// Read Response packets on the rPSN space.
    Read {
        /// Message length, bytes.
        len: u32,
    },
    /// Send `len` bytes; the sink location comes from the responder's
    /// Receive WQE.
    Send {
        /// Message length, bytes.
        len: u32,
    },
    /// Send with Invalidate (Appendix B.5): a Send that also invalidates
    /// a remote memory region; IRN fences it behind outstanding Writes.
    SendInval {
        /// Message length, bytes.
        len: u32,
        /// The rkey of the region being invalidated.
        rkey: u32,
    },
    /// Atomic read-modify-write; restricted to single-packet messages
    /// (§5.1) and ordered like a Read at the responder.
    Atomic,
}

impl RdmaOp {
    /// Whether the operation moves no payload (zero-length messages are
    /// legal verbs; they still consume one packet and one MSN).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Message length in bytes (Atomics move 8).
    pub fn len(&self) -> u32 {
        match *self {
            RdmaOp::Write { len }
            | RdmaOp::WriteImm { len, .. }
            | RdmaOp::Read { len }
            | RdmaOp::Send { len }
            | RdmaOp::SendInval { len, .. } => len,
            RdmaOp::Atomic => 8,
        }
    }

    /// Number of request-direction packets at the given MTU. Reads and
    /// Atomics are single request packets regardless of length.
    pub fn request_packets(&self, mtu: u32) -> u32 {
        match self {
            RdmaOp::Read { .. } | RdmaOp::Atomic => 1,
            _ => self.len().max(1).div_ceil(mtu),
        }
    }

    /// Does this operation consume a Receive WQE at the responder?
    /// (§5.1: Sends always; Writes only with immediate.)
    pub fn consumes_receive_wqe(&self) -> bool {
        matches!(
            self,
            RdmaOp::WriteImm { .. } | RdmaOp::Send { .. } | RdmaOp::SendInval { .. }
        )
    }

    /// Is this operation queued in the responder's Read WQE buffer and
    /// executed only in order (§5.3.2)?
    pub fn is_read_like(&self) -> bool {
        matches!(self, RdmaOp::Read { .. } | RdmaOp::Atomic)
    }
}

/// A Request WQE: posted by the requester application, one per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestWqe {
    /// Application-chosen identifier, surfaced in the completion.
    pub id: u64,
    /// The operation.
    pub op: RdmaOp,
    /// Remote virtual address (Write/Read/Atomic target).
    pub remote_addr: u64,
    /// `recv_WQE_SN` assigned by the IRN driver for operations that
    /// consume a Receive WQE (§5.3.2); assigned at post time on the
    /// requester and carried in packets.
    pub recv_wqe_sn: Option<u32>,
    /// `read_WQE_SN` assigned for Read/Atomic operations (§5.3.2).
    pub read_wqe_sn: Option<u32>,
}

/// A Receive WQE: posted by the responder application to sink Sends (and
/// expire on Write-with-Immediate completions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiveWqe {
    /// Application-chosen identifier, surfaced in the completion.
    pub id: u64,
    /// Posting-order sequence number (`recv_WQE_SN`, §5.3.2). For SRQs
    /// this is allotted at dequeue time instead (Appendix B.2).
    pub recv_wqe_sn: u32,
    /// Where Send payloads land in responder memory.
    pub sink_addr: u64,
}

/// Which queue a completion belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeKind {
    /// Completion of a Request WQE (requester side).
    Request,
    /// Completion of a Receive WQE (responder side).
    Receive,
}

/// A Completion Queue Element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// The WQE that expired.
    pub wqe_id: u64,
    /// Which side completed.
    pub kind: CqeKind,
    /// Responder's message sequence number at completion.
    pub msn: u32,
    /// Immediate data (Write-with-Immediate / Send with solicited data).
    pub imm: Option<u32>,
}

/// Request-direction packet opcodes at the verbs level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOp {
    /// A Write payload packet.
    WriteData,
    /// A Send payload packet.
    SendData,
    /// A Read request (single packet; `read_wqe_sn` set).
    ReadRequest,
    /// An Atomic request (single packet; ordered like a Read).
    AtomicRequest,
}

/// A verbs-level packet in the request direction (requester → responder).
///
/// This deliberately carries IRN's header extensions explicitly so tests
/// can assert on them:
/// * `reth_addr` on **every** Write packet (RoCE carries it on the first
///   only — §5.3.1's "first packet issue");
/// * `msg_offset` on Send packets (§5.3.2, to place data without the
///   preceding packets);
/// * `recv_wqe_sn` / `read_wqe_sn` for WQE matching (§5.3.2);
/// * `last` marking message boundaries for the 2-bitmap (§5.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestPacket {
    /// Sequence number in the requester's send space (sPSN, §5.4).
    pub psn: u32,
    /// Opcode.
    pub op: PacketOp,
    /// Message this packet belongs to (internal bookkeeping/verification;
    /// a real NIC derives it from PSN ranges).
    pub msg_id: u64,
    /// Remote address for this packet's payload (Write packets; IRN
    /// carries it in every packet).
    pub reth_addr: Option<u64>,
    /// Receive-WQE match key (Send packets: all; WriteImm: last packet).
    pub recv_wqe_sn: Option<u32>,
    /// Read-WQE buffer index (Read/Atomic requests).
    pub read_wqe_sn: Option<u32>,
    /// Payload offset within the message (Send packets, §5.3.2).
    pub msg_offset: u32,
    /// Payload bytes in this packet.
    pub payload_len: u32,
    /// Read length (ReadRequest only).
    pub read_len: u32,
    /// Immediate data (carried on the last packet of WriteImm / Send).
    pub imm: Option<u32>,
    /// Last packet of its message.
    pub last: bool,
}

/// A Read Response packet (responder → requester, rPSN space §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResponsePacket {
    /// Sequence number in the response space (rPSN).
    pub rpsn: u32,
    /// Which Read WQE this answers (requester-side matching).
    pub wqe_id: u64,
    /// Offset of this packet's payload within the read.
    pub msg_offset: u32,
    /// Payload bytes.
    pub payload_len: u32,
    /// Last packet of the response.
    pub last: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lengths() {
        assert_eq!(RdmaOp::Write { len: 4096 }.len(), 4096);
        assert_eq!(RdmaOp::Atomic.len(), 8);
    }

    #[test]
    fn request_packet_counts() {
        let mtu = 1000;
        assert_eq!(RdmaOp::Write { len: 1 }.request_packets(mtu), 1);
        assert_eq!(RdmaOp::Write { len: 1000 }.request_packets(mtu), 1);
        assert_eq!(RdmaOp::Write { len: 1001 }.request_packets(mtu), 2);
        assert_eq!(RdmaOp::Send { len: 2500 }.request_packets(mtu), 3);
        // Reads are one request packet no matter the length.
        assert_eq!(RdmaOp::Read { len: 1 << 20 }.request_packets(mtu), 1);
        assert_eq!(RdmaOp::Atomic.request_packets(mtu), 1);
        // Zero-length operations still need one packet.
        assert_eq!(RdmaOp::Write { len: 0 }.request_packets(mtu), 1);
    }

    #[test]
    fn receive_wqe_consumers() {
        assert!(!RdmaOp::Write { len: 10 }.consumes_receive_wqe());
        assert!(RdmaOp::WriteImm { len: 10, imm: 1 }.consumes_receive_wqe());
        assert!(RdmaOp::Send { len: 10 }.consumes_receive_wqe());
        assert!(RdmaOp::SendInval { len: 10, rkey: 2 }.consumes_receive_wqe());
        assert!(!RdmaOp::Read { len: 10 }.consumes_receive_wqe());
        assert!(!RdmaOp::Atomic.consumes_receive_wqe());
    }

    #[test]
    fn read_like_ops() {
        assert!(RdmaOp::Read { len: 1 }.is_read_like());
        assert!(RdmaOp::Atomic.is_read_like());
        assert!(!RdmaOp::Send { len: 1 }.is_read_like());
    }
}
