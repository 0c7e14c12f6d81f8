//! Transport configuration: everything §4.1 fixes for the experiments.

use irn_net::Bandwidth;
use irn_sim::Duration;

use crate::cc::CcKind;

/// Header bytes on every data packet: the RoCEv2 stack
/// (Eth+IP+UDP+BTH+ICRC ≈ 48 B in our accounting).
pub const DATA_HEADER_BYTES: u32 = 48;

/// Loss-recovery scheme of a sender/receiver pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossRecovery {
    /// IRN's SACK-based selective retransmission (§3.1).
    SelectiveRepeat,
    /// Go-back-N: the receiver discards out-of-order packets; the sender
    /// rewinds to the NACKed sequence (current RoCE NICs, §2.1).
    GoBackN,
}

/// Wire size of a per-packet ACK/NACK frame.
pub const ACK_WIRE_BYTES: u32 = 64;

/// Named transport presets from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// IRN: selective repeat + BDP-FC + RTO_low/high (§3).
    Irn,
    /// Current RoCE NICs: go-back-N, no BDP-FC (§2.1).
    Roce,
    /// IRN with go-back-N instead of SACKs (Figure 7's first ablation).
    IrnGoBackN,
    /// IRN without BDP-FC (Figure 7's second ablation).
    IrnNoBdpFc,
    /// iWARP-style full TCP stack (§4.6); see [`crate::tcp`].
    IwarpTcp,
}

/// Full transport-layer configuration for one experiment.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Loss recovery scheme.
    pub recovery: LossRecovery,
    /// Cap in-flight packets at the network BDP (§3.2). `None` disables
    /// (RoCE; Fig 7 ablation).
    pub bdp_cap: Option<u32>,
    /// MTU payload bytes per data packet (§3.2: typically 1 KB).
    pub mtu: u32,
    /// Extra per-packet header for IRN's OOO support (Fig 12: worst case
    /// +16 B RETH on every Write packet; 0 in the no-overhead model).
    pub extra_header: u32,
    /// Wire bytes of one acknowledgement frame. IRN pays for per-packet
    /// ACKs ([`ACK_WIRE_BYTES`]; §5.2: "our results take into account
    /// the overhead of per-packet ACKs in IRN"); the paper's RoCE
    /// baseline signals for free (0: "did not use ACKs … modelling the
    /// extreme case of all Reads") — loss-recovery state still flows.
    pub ack_bytes: u32,
    /// Retransmission timeout when many packets are in flight, and the
    /// only timeout for RoCE (§4.1: ≈320 µs default).
    pub rto_high: Duration,
    /// Short timeout for ≤ N in-flight packets (§3.1: 100 µs).
    pub rto_low: Duration,
    /// The N threshold for RTO_low (§3.1: 3).
    pub rto_low_n: u32,
    /// Master switch: §4.1 disables timeouts entirely for RoCE-with-PFC
    /// to avoid spurious retransmissions.
    pub timeouts_enabled: bool,
    /// Congestion control algorithm.
    pub cc: CcKind,
    /// Line rate (pacing ceiling; flows start at line rate, §4.1).
    pub line_rate: Bandwidth,
    /// Delay between detecting a loss and the retransmission being
    /// available, modelling the PCIe fetch (§6.3: worst case 2 µs;
    /// zero in the no-overhead model).
    pub retx_fetch_delay: Duration,
    /// §7 reordering robustness: enter loss recovery only after this
    /// many NACKs arrive outside recovery. 1 reproduces the paper's
    /// default (every NACK signals loss); raise it when the fabric
    /// sprays packets over multiple paths and reorders benignly.
    pub nack_threshold: u32,
}

impl TransportConfig {
    /// IRN at the paper's default parameters (§4.1) for a 40 Gbps
    /// network with a 120 KB BDP.
    pub fn irn_default() -> TransportConfig {
        TransportConfig {
            recovery: LossRecovery::SelectiveRepeat,
            bdp_cap: Some(110),
            mtu: 1000,
            extra_header: 0,
            ack_bytes: ACK_WIRE_BYTES,
            rto_high: Duration::micros(320),
            rto_low: Duration::micros(100),
            rto_low_n: 3,
            timeouts_enabled: true,
            cc: CcKind::None,
            line_rate: Bandwidth::from_gbps(40),
            retx_fetch_delay: Duration::ZERO,
            nack_threshold: 1,
        }
    }

    /// Current-RoCE-NIC transport at the paper's defaults. `with_pfc`
    /// selects the §4.1 timeout policy (timeouts off with PFC, RTO_high
    /// without).
    pub fn roce_default(with_pfc: bool) -> TransportConfig {
        TransportConfig {
            recovery: LossRecovery::GoBackN,
            bdp_cap: None,
            ack_bytes: 0,
            timeouts_enabled: !with_pfc,
            ..TransportConfig::irn_default()
        }
    }

    /// Apply a named preset on top of IRN/RoCE defaults.
    pub fn preset(kind: TransportKind, with_pfc: bool) -> TransportConfig {
        match kind {
            TransportKind::Irn => TransportConfig::irn_default(),
            TransportKind::Roce => TransportConfig::roce_default(with_pfc),
            TransportKind::IrnGoBackN => TransportConfig {
                recovery: LossRecovery::GoBackN,
                ..TransportConfig::irn_default()
            },
            TransportKind::IrnNoBdpFc => TransportConfig {
                bdp_cap: None,
                ..TransportConfig::irn_default()
            },
            // The TCP stack has its own state machine; the shared fields
            // (MTU, headers, acks, line rate) still come from here.
            TransportKind::IwarpTcp => TransportConfig {
                bdp_cap: None,
                ..TransportConfig::irn_default()
            },
        }
    }

    /// Wire bytes of the data packet carrying `payload` bytes.
    pub fn data_wire_bytes(&self, payload: u32) -> u32 {
        payload + DATA_HEADER_BYTES + self.extra_header
    }

    /// Number of data packets for a flow of `bytes`.
    pub fn packets_for(&self, bytes: u64) -> u32 {
        (bytes.max(1)).div_ceil(self.mtu as u64) as u32
    }

    /// Payload carried by packet `psn` of a flow of `bytes` (the last
    /// packet may be partial).
    pub fn payload_of(&self, bytes: u64, psn: u32) -> u32 {
        let total = self.packets_for(bytes);
        debug_assert!(psn < total);
        if psn + 1 < total {
            self.mtu
        } else {
            (bytes - (total as u64 - 1) * self.mtu as u64).max(1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irn_default_matches_paper() {
        let c = TransportConfig::irn_default();
        assert_eq!(c.bdp_cap, Some(110));
        assert_eq!(c.rto_high, Duration::micros(320));
        assert_eq!(c.rto_low, Duration::micros(100));
        assert_eq!(c.rto_low_n, 3);
        assert_eq!(c.ack_bytes, 64);
        assert_eq!(c.recovery, LossRecovery::SelectiveRepeat);
    }

    #[test]
    fn roce_default_matches_paper() {
        let with_pfc = TransportConfig::roce_default(true);
        assert!(!with_pfc.timeouts_enabled, "§4.1: timeouts off with PFC");
        assert_eq!(with_pfc.ack_bytes, 0, "§5.2: no ACK overhead");
        assert_eq!(with_pfc.bdp_cap, None);
        let without = TransportConfig::roce_default(false);
        assert!(without.timeouts_enabled, "§4.1: RTO_high without PFC");
    }

    #[test]
    fn packet_math() {
        let c = TransportConfig::irn_default();
        assert_eq!(c.packets_for(1), 1);
        assert_eq!(c.packets_for(1000), 1);
        assert_eq!(c.packets_for(1001), 2);
        assert_eq!(c.packets_for(3_000_000), 3000);
        assert_eq!(c.payload_of(1500, 0), 1000);
        assert_eq!(c.payload_of(1500, 1), 500);
        assert_eq!(c.data_wire_bytes(1000), 1048);
    }

    #[test]
    fn fig7_presets() {
        let gbn = TransportConfig::preset(TransportKind::IrnGoBackN, false);
        assert_eq!(gbn.recovery, LossRecovery::GoBackN);
        assert_eq!(gbn.bdp_cap, Some(110), "ablation keeps BDP-FC");
        assert_eq!(gbn.ack_bytes, 64, "ablations keep IRN's acks");
        let nofc = TransportConfig::preset(TransportKind::IrnNoBdpFc, false);
        assert_eq!(nofc.bdp_cap, None);
        assert_eq!(nofc.recovery, LossRecovery::SelectiveRepeat);
    }

    #[test]
    fn fig12_overhead_knobs() {
        let mut c = TransportConfig::irn_default();
        c.extra_header = 16;
        c.retx_fetch_delay = Duration::micros(2);
        assert_eq!(c.data_wire_bytes(1000), 1064);
    }
}
