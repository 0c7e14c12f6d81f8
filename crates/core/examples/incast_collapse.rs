//! Incast — the partition-aggregate pattern of §4.4.3.
//!
//! M servers answer one aggregator simultaneously (striped response).
//! This is PFC's *best case*: every paused flow really is causing
//! congestion, so there is no innocent-bystander HoL blocking. The
//! paper's finding: IRN without PFC still matches RoCE with PFC to
//! within a few percent, and with cross-traffic IRN wins outright.
//!
//! ```text
//! cargo run --release --example incast_collapse
//! ```

use irn_core::transport::config::TransportKind;
use irn_core::{ExperimentConfig, Simulation, TrafficModel};

fn main() {
    println!("Incast: striped response to one aggregator (§4.4.3)\n");
    println!(
        "{:<4} {:>16} {:>16} {:>9}",
        "M", "IRN RCT", "RoCE+PFC RCT", "ratio"
    );
    for m in [4usize, 8, 12] {
        let workload = TrafficModel::Incast {
            m,
            total_bytes: 15_000_000, // 15 MB striped (quick-scale 150 MB)
        };
        let irn = Simulation::new(
            ExperimentConfig::quick(m)
                .with_traffic(workload.clone())
                .with_transport(TransportKind::Irn)
                .with_pfc(false),
        )
        .run();
        let roce = Simulation::new(
            ExperimentConfig::quick(m)
                .with_traffic(workload)
                .with_transport(TransportKind::Roce)
                .with_pfc(true),
        )
        .run();
        let (i, r) = (irn.rct(), roce.rct());
        println!(
            "{:<4} {:>16} {:>16} {:>9.3}",
            m,
            i,
            r,
            i.as_nanos() as f64 / r.as_nanos() as f64
        );
    }
    println!("\nLosing PFC costs almost nothing even in PFC's best-case scenario —");
    println!("BDP-FC caps each sender and SACK recovery absorbs the burst losses.");
}
