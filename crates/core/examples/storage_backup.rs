//! Storage/backup traffic — Table 6's uniform 500 KB–5 MB workload.
//!
//! The paper's robustness study includes a pure storage-style pattern:
//! every flow 500 KB–5 MB, uniformly distributed, "representing a
//! scenario where RDMA is used only for storage or background tasks".
//! Throughput-sensitive flows stress loss recovery differently from
//! RPCs: a single go-back-N rewind resends megabytes.
//!
//! ```text
//! cargo run --release --example storage_backup
//! ```

use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, Simulation, TrafficModel};

fn main() {
    let base = ExperimentConfig::quick(80).with_traffic(TrafficModel::Poisson {
        load: 0.7,
        sizes: SizeDistribution::Uniform500KbTo5Mb,
        flow_count: 80,
    });

    println!("Storage traffic: uniform 500KB-5MB flows at 70% load (Table 6 pattern)\n");
    println!(
        "{:<14} {:>13} {:>12} {:>12} {:>8} {:>14}",
        "config", "avg slowdown", "avg FCT", "p99 FCT", "drops", "retransmitted"
    );

    for (name, transport, pfc) in [
        ("IRN", TransportKind::Irn, false),
        ("IRN+PFC", TransportKind::Irn, true),
        ("RoCE+PFC", TransportKind::Roce, true),
        ("RoCE no PFC", TransportKind::Roce, false),
    ] {
        let r = Simulation::new(base.clone().with_transport(transport).with_pfc(pfc)).run();
        println!(
            "{:<14} {:>13.2} {:>12} {:>12} {:>8} {:>14}",
            name,
            r.summary.avg_slowdown,
            r.summary.avg_fct,
            r.summary.p99_fct,
            r.fabric.buffer_drops,
            r.transport.retransmitted,
        );
    }
    println!("\nSelective retransmission pays off most for big flows: a RoCE rewind");
    println!("resends the whole window, an IRN recovery resends only the holes (§4.3).");
}
