//! Property-based tests over the fabric + engine: conservation,
//! losslessness, and monotonicity properties that must hold for *any*
//! topology/seed/load combination.

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, TopologySpec, TrafficModel};
use irn_integration::run;
use proptest::prelude::*;

fn cfg_for(k_idx: usize, flows: usize, load: f64, seed: u64) -> ExperimentConfig {
    let topology = match k_idx {
        0 => TopologySpec::SingleSwitch(6),
        1 => TopologySpec::Dumbbell(4, 4),
        _ => TopologySpec::FatTree(4),
    };
    ExperimentConfig {
        topology,
        traffic: TrafficModel::Poisson {
            load,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: flows,
        },
        seed,
        ..ExperimentConfig::paper_default(flows)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the topology, seed and load: every flow completes, the
    /// summary is sane, and PFC runs lossless while no-PFC accounts all
    /// losses as buffer drops matched by retransmissions.
    #[test]
    fn engine_invariants_hold_everywhere(
        k_idx in 0usize..3,
        flows in 30usize..120,
        load in 0.2f64..0.95,
        seed in 1u64..10_000,
        pfc in prop::bool::ANY,
    ) {
        let cfg = cfg_for(k_idx, flows, load, seed)
            .with_transport(TransportKind::Irn)
            .with_pfc(pfc);
        let r = run(cfg);
        prop_assert_eq!(r.summary.flows, flows);
        prop_assert!(r.summary.avg_slowdown >= 0.999);
        prop_assert!(r.summary.p99_fct >= r.summary.avg_fct || r.summary.flows < 100);
        if pfc {
            prop_assert_eq!(r.fabric.buffer_drops, 0, "PFC must be lossless");
            prop_assert_eq!(r.fabric.pauses, r.fabric.resumes);
        } else if r.fabric.buffer_drops > 0 {
            prop_assert!(r.transport.retransmitted > 0,
                "drops without retransmissions would mean lost data");
        }
    }

    /// Go-back-N never retransmits less than selective repeat for the
    /// same scenario (the §4.3 inefficiency, as an inequality).
    #[test]
    fn gbn_retransmits_at_least_as_much(
        seed in 1u64..5_000,
        load in 0.5f64..0.9,
    ) {
        let base = cfg_for(2, 150, load, seed).with_pfc(false);
        let irn = run(base.clone().with_transport(TransportKind::Irn));
        let gbn = run(base.with_transport(TransportKind::IrnGoBackN));
        prop_assert_eq!(irn.summary.flows, 150);
        prop_assert_eq!(gbn.summary.flows, 150);
        prop_assert!(
            gbn.transport.retransmitted + 5 >= irn.transport.retransmitted,
            "GBN {} vs SACK {} (GBN must not retransmit materially less)",
            gbn.transport.retransmitted, irn.transport.retransmitted
        );
    }

    /// Determinism as a property: any config is a pure function of its
    /// inputs.
    #[test]
    fn any_config_is_deterministic(
        k_idx in 0usize..3,
        seed in 1u64..10_000,
        cc_idx in 0usize..3,
    ) {
        let cc = [CcKind::None, CcKind::Dcqcn, CcKind::Timely][cc_idx];
        let mk = || cfg_for(k_idx, 60, 0.7, seed).with_cc(cc);
        let a = run(mk());
        let b = run(mk());
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.summary.avg_fct, b.summary.avg_fct);
    }
}
