//! Quickstart: the paper's headline comparison in ~40 lines.
//!
//! Runs IRN (without PFC) and RoCE (with PFC) over a small fat-tree with
//! the §4.1 heavy-tailed workload and prints the three §4.1 metrics —
//! a miniature Figure 1.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use irn_core::transport::config::TransportKind;
use irn_core::{ExperimentConfig, Simulation};

fn main() {
    // 16-host fat-tree, 400 Poisson flows at 70% load (quick scale;
    // swap in `ExperimentConfig::paper_default` for the 54-host setup).
    let flows = 400;

    println!("Running IRN (no PFC) ...");
    let irn = Simulation::new(
        ExperimentConfig::quick(flows)
            .with_transport(TransportKind::Irn)
            .with_pfc(false),
    )
    .run();

    println!("Running RoCE (with PFC) ...");
    let roce = Simulation::new(
        ExperimentConfig::quick(flows)
            .with_transport(TransportKind::Roce)
            .with_pfc(true),
    )
    .run();

    println!();
    println!(
        "{:<14} {:>13} {:>12} {:>12}",
        "config", "avg slowdown", "avg FCT", "p99 FCT"
    );
    for (name, r) in [("IRN", &irn), ("RoCE + PFC", &roce)] {
        println!(
            "{:<14} {:>13.2} {:>12} {:>12}",
            name, r.summary.avg_slowdown, r.summary.avg_fct, r.summary.p99_fct
        );
    }
    println!();
    println!(
        "IRN is {:.1}x better on slowdown without needing a lossless fabric",
        roce.summary.avg_slowdown / irn.summary.avg_slowdown
    );
    println!(
        "  (IRN recovered {} lost packets via SACK; RoCE paused the fabric {} times)",
        irn.transport.retransmitted, roce.fabric.pauses
    );
}
