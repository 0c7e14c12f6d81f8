//! Key-value-store RPC tail latency — the workload that motivates §4.4.2.
//!
//! RDMA key-value stores (FaRM [21], HERD [25]) issue single-packet
//! requests whose *tail* latency is the product metric. This example
//! floods a fat-tree with the paper's heavy-tailed mix — where 50 % of
//! flows are single-packet RPCs racing past multi-MB storage flows — and
//! compares the RPC tail under three designs:
//!
//! * RoCE + PFC: RPCs wait behind PFC-paused queues (HoL blocking);
//! * IRN + PFC: the pauses still bite;
//! * IRN without PFC: an RPC loss costs one RTO_low (100 µs), not a
//!   fabric-wide pause.
//!
//! ```text
//! cargo run --release --example kv_store_rpc
//! ```

use irn_core::transport::config::TransportKind;
use irn_core::{ExperimentConfig, Simulation};

fn main() {
    let flows = 600;
    println!("RPC tail latency under background storage traffic (quick fat-tree, 70% load)\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>12}",
        "config", "p90", "p99", "p99.9", "completed"
    );

    for (name, transport, pfc) in [
        ("RoCE+PFC", TransportKind::Roce, true),
        ("IRN+PFC", TransportKind::Irn, true),
        ("IRN", TransportKind::Irn, false),
    ] {
        let r = Simulation::new(
            ExperimentConfig::quick(flows)
                .with_transport(transport)
                .with_pfc(pfc),
        )
        .run();
        // Figure 8's population: single-packet messages only.
        let rpcs = r.metrics.single_packet_messages();
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>12}",
            name,
            rpcs.percentile(0.90),
            rpcs.percentile(0.99),
            rpcs.percentile(0.999),
            rpcs.len(),
        );
    }
    println!(
        "\nIRN's RTO_low recovery keeps the RPC tail short without a lossless fabric (§4.4.2)."
    );
}
