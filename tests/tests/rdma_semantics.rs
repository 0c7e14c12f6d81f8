//! §5 semantics under adversarial channels: the verbs layer (WQEs, CQEs,
//! MSN, out-of-order placement) driven through lossy, reordering
//! delivery with the full requester/responder recovery protocol.

use irn_core::sim::SimRng;
use irn_integration::qp::{QpConfig, ReadAckEmit, Requester, Responder, ResponderAction};
use irn_integration::verbs::{RdmaOp, RequestWqe};
use proptest::prelude::*;

/// Drive requester → responder over a channel that drops each
/// first-transmission packet with probability `loss`, and shuffles
/// delivery within a bounded window. Retransmissions are driven by the
/// requester's knowledge (NACK-style feedback is immediate here — the
/// network-timing side is exercised by the simulation tests; this one
/// targets the *semantic* machinery).
fn run_session(
    wqes: Vec<RequestWqe>,
    receive_posts: usize,
    loss: f64,
    reorder_window: usize,
    seed: u64,
) -> (Requester, Responder) {
    let cfg = QpConfig::default();
    let mut req = Requester::new(cfg);
    let mut resp = Responder::new(cfg);
    let mut rng = SimRng::new(seed);

    for i in 0..receive_posts {
        resp.post_receive(1000 + i as u64, 0x10_0000 + (i as u64) * 0x1_0000);
    }
    for w in wqes {
        req.post(w);
    }

    // The in-flight "wire": packets awaiting delivery (reordered).
    let mut wire: Vec<irn_integration::verbs::RequestPacket> = Vec::new();
    let mut read_wire: Vec<irn_integration::verbs::ReadResponsePacket> = Vec::new();
    let mut rounds = 0;

    loop {
        rounds += 1;
        assert!(rounds < 10_000, "session failed to converge");

        // Generate fresh packets (BDP-FC-capped).
        while let Some(pkt) = req.next_new_packet() {
            if !rng.chance(loss) {
                wire.push(pkt);
            }
        }

        // Deliver a shuffled prefix of the wire.
        if wire.is_empty() && read_wire.is_empty() {
            if req.idle() {
                break;
            }
            // Loss recovery: replay every unacked packet (the transport
            // layer would do this selectively; semantics are identical).
            let cum = req.ctx.cum_acked;
            let next = req.ctx.next_to_send;
            for psn in cum..next {
                wire.push(req.packet_for_psn(psn));
            }
            // Lost read responses recover via the responder's read
            // timeout (§5.2): replay from the requester's expected rPSN.
            if req.reads_pending() {
                for a in resp.on_read_timeout(req.read_expected_rpsn()) {
                    if let ResponderAction::ReadResponse(rp) = a {
                        read_wire.push(rp);
                    }
                }
            }
            continue;
        }
        // Bounded reordering: pick a random packet within the window.
        while !wire.is_empty() {
            let k = rng.index(wire.len().min(reorder_window));
            let pkt = wire.remove(k);
            for action in resp.on_packet(pkt) {
                match action {
                    ResponderAction::Ack { cum, msn } => {
                        req.on_ack(cum, None, false, msn);
                    }
                    ResponderAction::Nack { cum, sack, msn } => {
                        req.on_ack(cum, Some(sack), true, msn);
                    }
                    ResponderAction::ReadResponse(rp) => {
                        if !rng.chance(loss) {
                            read_wire.push(rp);
                        }
                    }
                    ResponderAction::Completion(_) => {}
                }
            }
        }
        while !read_wire.is_empty() {
            let k = rng.index(read_wire.len().min(reorder_window));
            let rp = read_wire.remove(k);
            match req.on_read_response(rp) {
                ReadAckEmit::Nack { cum, sack } => {
                    for a in resp.on_read_nack(cum, sack) {
                        if let ResponderAction::ReadResponse(rp) = a {
                            read_wire.push(rp);
                        }
                    }
                }
                ReadAckEmit::Ack { .. } => {}
            }
        }
    }
    (req, resp)
}

#[test]
fn mixed_ops_complete_in_posting_order_under_loss_and_reorder() {
    let wqes = vec![
        RequestWqe {
            id: 1,
            op: RdmaOp::Write { len: 5_000 },
            remote_addr: 0x1000,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        },
        RequestWqe {
            id: 2,
            op: RdmaOp::Send { len: 2_500 },
            remote_addr: 0,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        },
        RequestWqe {
            id: 3,
            op: RdmaOp::Read { len: 4_000 },
            remote_addr: 0x9000,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        },
        RequestWqe {
            id: 4,
            op: RdmaOp::WriteImm {
                len: 1_200,
                imm: 0xAB,
            },
            remote_addr: 0x2000,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        },
        RequestWqe {
            id: 5,
            op: RdmaOp::Atomic,
            remote_addr: 0x3000,
            recv_wqe_sn: None,
            read_wqe_sn: None,
        },
    ];
    let (mut req, resp) = run_session(wqes, 4, 0.2, 8, 42);
    let cqes = req.poll_cq();
    let ids: Vec<u64> = cqes.iter().map(|c| c.wqe_id).collect();
    assert_eq!(ids, vec![1, 2, 3, 4, 5], "CQEs in posting order");
    assert_eq!(resp.msn(), 5, "one MSN increment per message");
    // Data integrity: every write's bytes placed.
    assert_eq!(resp.memory.bytes_of(0), 5_000);
    assert_eq!(resp.memory.bytes_of(1), 2_500);
    assert_eq!(resp.memory.bytes_of(3), 1_200);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any mix of Writes/Sends/Reads completes with ordered CQEs, a
    /// correct final MSN, and fully-placed memory, under arbitrary loss
    /// probability and reorder windows.
    #[test]
    fn semantics_hold_for_arbitrary_sessions(
        ops in proptest::collection::vec(0u8..4, 1..12),
        loss in 0.0f64..0.4,
        window in 1usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let mut wqes = Vec::new();
        let mut sends = 0usize;
        for (i, kind) in ops.iter().enumerate() {
            let id = i as u64 + 1;
            let op = match kind {
                0 => RdmaOp::Write { len: 1 + (i as u32 * 997) % 6000 },
                1 => { sends += 1; RdmaOp::Send { len: 1 + (i as u32 * 331) % 3000 } }
                2 => RdmaOp::Read { len: 1 + (i as u32 * 613) % 4000 },
                _ => { sends += 1; RdmaOp::WriteImm { len: 1 + (i as u32 * 17) % 2000, imm: i as u32 } }
            };
            wqes.push(RequestWqe { id, op, remote_addr: 0x1000 * id, recv_wqe_sn: None, read_wqe_sn: None });
        }
        let n = wqes.len();
        let (mut req, resp) = run_session(wqes, sends, loss, window, seed);
        let cqes = req.poll_cq();
        prop_assert_eq!(cqes.len(), n, "every WQE must complete exactly once");
        let ids: Vec<u64> = cqes.iter().map(|c| c.wqe_id).collect();
        let expect: Vec<u64> = (1..=n as u64).collect();
        prop_assert_eq!(ids, expect, "completion order == posting order");
        prop_assert_eq!(resp.msn() as usize, n);
        prop_assert_eq!(resp.out_of_order_packets(), 0, "no stragglers in the 2-bitmap");
    }
}

#[test]
fn srq_and_credit_machinery_compose() {
    // SRQ allotment + credits: exercise the B.2/B.3 paths side by side.
    use irn_integration::credits::{ProbeOutcome, ResponderCredits};
    use irn_integration::srq::SharedReceiveQueue;

    let mut srq = SharedReceiveQueue::new();
    let mut credits = ResponderCredits::new();
    for i in 0..3 {
        srq.post(i, i * 0x100);
        credits.post_receive();
    }
    // Three in-sequence consumers succeed, the fourth RNR-NACKs.
    for sn in 0..3u32 {
        assert_eq!(credits.on_consume_attempt(true), ProbeOutcome::Execute);
        assert!(srq.wqe_for_sn(sn).is_some());
        assert!(srq.consume(sn).is_some());
    }
    assert_eq!(credits.on_consume_attempt(true), ProbeOutcome::RnrNack);
    assert!(srq.wqe_for_sn(3).is_none());
    // Out-of-sequence probe with no credits: silent drop (B.3).
    assert_eq!(credits.on_consume_attempt(false), ProbeOutcome::Drop);
}
