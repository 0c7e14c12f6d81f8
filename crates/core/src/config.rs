//! Experiment configuration: one struct that pins down everything §4.1
//! fixes, with the paper's default scenario as the starting point.

use irn_net::switch::EcnConfig;
use irn_net::{Bandwidth, PfcConfig};
use irn_sim::Duration;
use irn_transport::cc::CcKind;
use irn_transport::config::{TransportConfig, TransportKind, DATA_HEADER_BYTES};
use irn_workload::{SizeDistribution, TrafficModel};

/// Which network to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// k-ary three-tier fat-tree (§4.1: k=6 → 54 servers; Table 5 scales
    /// to k=8 and k=10).
    FatTree(usize),
    /// All hosts on one switch (tests, incast microbenchmarks).
    SingleSwitch(usize),
    /// `left` + `right` hosts joined by one inter-switch link.
    Dumbbell(usize, usize),
}

impl TopologySpec {
    /// Materialize the topology description.
    pub fn build(self) -> irn_net::Topology {
        match self {
            TopologySpec::FatTree(k) => irn_net::Topology::fat_tree(k),
            TopologySpec::SingleSwitch(n) => irn_net::Topology::single_switch(n),
            TopologySpec::Dumbbell(l, r) => irn_net::Topology::dumbbell(l, r),
        }
    }

    /// Host count without building. Derived from the same definitions
    /// the builders use ([`irn_net::fat_tree_hosts`] for fat-trees), so
    /// the prediction cannot drift from `build().hosts`.
    pub fn hosts(self) -> usize {
        match self {
            TopologySpec::FatTree(k) => irn_net::fat_tree_hosts(k),
            TopologySpec::SingleSwitch(n) => n,
            TopologySpec::Dumbbell(l, r) => l + r,
        }
    }
}

/// Everything needed to run one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Network shape.
    pub topology: TopologySpec,
    /// Link rate (uniform).
    pub bandwidth: Bandwidth,
    /// Per-link propagation delay.
    pub prop_delay: Duration,
    /// Per-input-port switch buffer.
    pub buffer_bytes: u64,
    /// Run PFC (lossless) or allow drops.
    pub pfc: bool,
    /// Transport under test.
    pub transport: TransportKind,
    /// Congestion control.
    pub cc: CcKind,
    /// Traffic model (see [`irn_workload::model`]).
    pub traffic: TrafficModel,
    /// Master seed (workload, ECN coins, ECMP salt).
    pub seed: u64,
    /// MTU payload bytes.
    pub mtu: u32,
    /// RTO_high override (`None` ⇒ computed per §4.1: propagation of the
    /// longest path plus a full-buffer drain time, ≈320 µs by default).
    pub rto_high: Option<Duration>,
    /// RTO_low (§3.1: 100 µs).
    pub rto_low: Duration,
    /// N threshold for RTO_low (§3.1: 3).
    pub rto_low_n: u32,
    /// Extra per-packet header (Fig 12 worst case: 16 B).
    pub extra_header: u32,
    /// Retransmission PCIe-fetch delay (Fig 12 worst case: 2 µs).
    pub retx_fetch_delay: Duration,
    /// Random per-hop data-packet loss (fault injection; 0 in the paper).
    pub loss_injection: f64,
    /// Equal-cost path policy: per-flow ECMP (paper default) or §7's
    /// per-packet spraying (reorders within flows).
    pub load_balancing: irn_net::LoadBalancing,
    /// §7's NACK threshold before entering loss recovery (1 = paper
    /// default; raise alongside packet spraying).
    pub nack_threshold: u32,
    /// Safety valve: abort if the event loop exceeds this many events
    /// (catches accidental livelocks in misconfigured experiments).
    pub max_events: u64,
}

impl ExperimentConfig {
    /// The §4.1 default scenario: k=6 fat-tree, 40 Gbps, 2 µs links,
    /// 240 KB buffers (2×BDP), heavy-tailed workload at 70 % load, IRN
    /// without PFC, no congestion control.
    pub fn paper_default(flow_count: usize) -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologySpec::FatTree(6),
            bandwidth: Bandwidth::from_gbps(40),
            prop_delay: Duration::micros(2),
            buffer_bytes: 240_000,
            pfc: false,
            transport: TransportKind::Irn,
            cc: CcKind::None,
            traffic: TrafficModel::Poisson {
                load: 0.7,
                sizes: SizeDistribution::HeavyTailed,
                flow_count,
            },
            seed: 1,
            mtu: 1000,
            rto_high: None,
            rto_low: Duration::micros(100),
            rto_low_n: 3,
            extra_header: 0,
            retx_fetch_delay: Duration::ZERO,
            loss_injection: 0.0,
            load_balancing: irn_net::LoadBalancing::EcmpPerFlow,
            nack_threshold: 1,
            max_events: 5_000_000_000,
        }
    }

    /// A scaled-down variant for tests: k=4
    /// fat-tree (16 hosts), same relative parameters.
    pub fn quick(flow_count: usize) -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologySpec::FatTree(4),
            ..ExperimentConfig::paper_default(flow_count)
        }
    }

    /// Select the transport preset.
    pub fn with_transport(mut self, t: TransportKind) -> ExperimentConfig {
        self.transport = t;
        self
    }

    /// Enable/disable PFC.
    pub fn with_pfc(mut self, pfc: bool) -> ExperimentConfig {
        self.pfc = pfc;
        self
    }

    /// Select congestion control.
    pub fn with_cc(mut self, cc: CcKind) -> ExperimentConfig {
        self.cc = cc;
        self
    }

    /// Replace the traffic model.
    pub fn with_traffic(mut self, t: TrafficModel) -> ExperimentConfig {
        self.traffic = t;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> ExperimentConfig {
        self.seed = seed;
        self
    }

    // ---- derived quantities (§4.1 arithmetic) ----

    /// Network round-trip propagation time over the longest path.
    pub fn max_rtt(&self, diameter_hops: usize) -> Duration {
        self.prop_delay * (2 * diameter_hops) as u64
    }

    /// Bandwidth-delay product of the longest path, bytes (§4.1: 120 KB
    /// for the default).
    pub fn bdp_bytes(&self, diameter_hops: usize) -> u64 {
        self.bandwidth.bytes_in(self.max_rtt(diameter_hops))
    }

    /// BDP cap in MTU-sized packets (§3.2/§4.1: ≈110 for the default).
    pub fn bdp_cap_packets(&self, diameter_hops: usize) -> u32 {
        (self.bdp_bytes(diameter_hops) / (self.mtu as u64 + DATA_HEADER_BYTES as u64)) as u32
    }

    /// RTO_high per §4.1: "the sum of the propagation delay on the
    /// longest path and the maximum queuing delay a packet would see if
    /// the switch buffer on a congested link is completely full"
    /// (≈320 µs for the default).
    pub fn rto_high(&self, diameter_hops: usize) -> Duration {
        if let Some(d) = self.rto_high {
            return d;
        }
        let prop = self.prop_delay * diameter_hops as u64;
        let drain = Duration::from_secs_f64(
            self.buffer_bytes as f64 * 8.0 / self.bandwidth.as_bps_f64()
                * (diameter_hops as f64 - 1.0).max(1.0),
        );
        // Round up to a clean 10 µs grain (the paper quotes ~320 µs).
        let ns = (prop + drain).as_nanos();
        Duration::nanos(ns.div_ceil(10_000) * 10_000)
    }

    /// Build the transport configuration for this experiment.
    pub fn transport_config(&self, diameter_hops: usize) -> TransportConfig {
        let mut t = TransportConfig::preset(self.transport, self.pfc);
        t.mtu = self.mtu;
        t.line_rate = self.bandwidth;
        t.rto_high = self.rto_high(diameter_hops);
        t.rto_low = self.rto_low;
        t.rto_low_n = self.rto_low_n;
        t.extra_header = self.extra_header;
        t.retx_fetch_delay = self.retx_fetch_delay;
        t.nack_threshold = self.nack_threshold;
        t.cc = self.cc;
        if t.bdp_cap.is_some() {
            t.bdp_cap = Some(self.bdp_cap_packets(diameter_hops).max(1));
        }
        t
    }

    /// Wire bytes of one maximum-size data frame: a full MTU payload
    /// plus its headers.
    pub(crate) fn max_frame_bytes(&self) -> u64 {
        self.mtu as u64 + DATA_HEADER_BYTES as u64 + self.extra_header as u64
    }

    /// Build the fabric configuration.
    pub fn fabric_config(&self) -> irn_net::FabricConfig {
        let max_frame = self.max_frame_bytes();
        irn_net::FabricConfig {
            bandwidth: self.bandwidth,
            prop_delay: self.prop_delay,
            buffer_bytes: self.buffer_bytes,
            pfc: self.pfc.then(|| {
                PfcConfig::for_buffer(
                    self.buffer_bytes,
                    self.bandwidth,
                    self.prop_delay,
                    max_frame,
                )
            }),
            ecn: self.cc.needs_ecn().then(EcnConfig::dcqcn_default),
            loss_injection: self.loss_injection,
            load_balancing: self.load_balancing,
            seed: self.seed ^ 0xFAB0_CAFE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_arithmetic() {
        let c = ExperimentConfig::paper_default(100);
        // §4.1: 6-hop diameter ⇒ 24 µs RTT ⇒ 120 KB BDP ⇒ ~110 packets.
        assert_eq!(c.max_rtt(6), Duration::micros(24));
        assert_eq!(c.bdp_bytes(6), 120_000);
        assert_eq!(c.bdp_cap_packets(6), 114); // 120000 / 1048
                                               // RTO_high ≈ 320 µs ("approximately 320 µs for our default").
        let rto = c.rto_high(6);
        assert!(
            (Duration::micros(250)..=Duration::micros(400)).contains(&rto),
            "computed RTO_high {rto} should be ≈320 µs"
        );
    }

    #[test]
    fn topology_host_counts() {
        assert_eq!(TopologySpec::FatTree(6).hosts(), 54);
        assert_eq!(TopologySpec::FatTree(8).hosts(), 128);
        assert_eq!(TopologySpec::FatTree(10).hosts(), 250);
        assert_eq!(TopologySpec::SingleSwitch(9).hosts(), 9);
        assert_eq!(TopologySpec::Dumbbell(3, 4).hosts(), 7);
    }

    /// The predicted host count and the built topology's host count
    /// come from one definition; pin the agreement across the whole
    /// sweep range (paper k=6, Table 5 k=8/10, beyond-paper k=12).
    #[test]
    fn fat_tree_hosts_prediction_matches_build() {
        for k in [4usize, 6, 8, 10, 12] {
            let spec = TopologySpec::FatTree(k);
            assert_eq!(
                spec.hosts(),
                spec.build().hosts,
                "hosts() must equal build().hosts for k={k}"
            );
        }
        for spec in [TopologySpec::SingleSwitch(5), TopologySpec::Dumbbell(2, 6)] {
            assert_eq!(spec.hosts(), spec.build().hosts);
        }
    }

    #[test]
    fn transport_config_respects_pfc_for_roce() {
        let c = ExperimentConfig::paper_default(10)
            .with_transport(TransportKind::Roce)
            .with_pfc(true);
        let t = c.transport_config(6);
        assert!(!t.timeouts_enabled);
        assert_eq!(t.bdp_cap, None);
        let c2 = c.with_pfc(false);
        assert!(c2.transport_config(6).timeouts_enabled);
    }

    #[test]
    fn ecn_enabled_only_for_marking_cc() {
        let base = ExperimentConfig::paper_default(10);
        assert!(base.fabric_config().ecn.is_none());
        assert!(base
            .clone()
            .with_cc(CcKind::Dcqcn)
            .fabric_config()
            .ecn
            .is_some());
        assert!(base
            .clone()
            .with_cc(CcKind::Timely)
            .fabric_config()
            .ecn
            .is_none());
    }

    #[test]
    fn pfc_threshold_below_buffer() {
        let c = ExperimentConfig::paper_default(10).with_pfc(true);
        let f = c.fabric_config();
        let pfc = f.pfc.unwrap();
        assert!(pfc.xoff_bytes < c.buffer_bytes);
        assert!(pfc.xoff_bytes > c.buffer_bytes - 25_000, "≈220 KB per §4.1");
    }
}
