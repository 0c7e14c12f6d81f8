//! Shared Receive Queues under IRN (Appendix B.2).
//!
//! With an SRQ, Receive WQEs are shared by many QPs, so their
//! `recv_WQE_SN` cannot be assigned at post time. The paper's rule:
//! "rather than allotting it as soon as a new receive WQE is posted …
//! we allot it when new recv WQEs are dequeued from SRQ", and a packet
//! carrying `recv_WQE_SN = k` forces dequeuing every SN up to `k` (its
//! predecessors were consumed by in-flight messages whose packets may
//! still be missing).

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::verbs::ReceiveWqe;

/// A shared receive queue for one QP's view (the allotment state is
/// per-QP; the backing pool may be shared — the paper's example walks a
/// single QP, which is what we model).
#[derive(Debug, Default)]
pub struct SharedReceiveQueue {
    /// Un-allotted WQEs in posting order.
    pool: VecDeque<(u64, u64)>, // (id, sink_addr)
    /// WQEs already bound to a recv_WQE_SN, awaiting consumption.
    allotted: BTreeMap<u32, ReceiveWqe>,
    /// Next SN to allot ("running total of allotted recv_WQE_SN").
    next_sn: u32,
}

impl SharedReceiveQueue {
    /// An empty SRQ.
    pub fn new() -> SharedReceiveQueue {
        SharedReceiveQueue::default()
    }

    /// Post a Receive WQE into the shared pool (no SN yet).
    pub fn post(&mut self, id: u64, sink_addr: u64) {
        self.pool.push_back((id, sink_addr));
    }

    /// Highest SN allotted so far (i.e. next to be handed out).
    pub fn next_sn(&self) -> u32 {
        self.next_sn
    }

    /// Resolve the WQE for `sn`, dequeuing (and allotting SNs to) as many
    /// pool entries as needed — the paper's example: a packet with
    /// `recv_WQE_SN = 4` arriving when only SN 0 was allotted dequeues
    /// four more WQEs and uses the fourth.
    ///
    /// Returns `None` if the pool runs dry first (an RNR situation —
    /// see [`crate::credits`]).
    pub fn wqe_for_sn(&mut self, sn: u32) -> Option<&ReceiveWqe> {
        while self.next_sn <= sn {
            let (id, sink_addr) = self.pool.pop_front()?;
            self.allotted.insert(
                self.next_sn,
                ReceiveWqe {
                    id,
                    recv_wqe_sn: self.next_sn,
                    sink_addr,
                },
            );
            self.next_sn += 1;
        }
        self.allotted.get(&sn)
    }

    /// Consume (expire) the WQE bound to `sn` — message complete, CQE
    /// fired. Returns the WQE.
    pub fn consume(&mut self, sn: u32) -> Option<ReceiveWqe> {
        self.allotted.remove(&sn)
    }

    /// For Write-with-Immediate on an SRQ the paper expires "the first
    /// available WQE": the lowest outstanding allotted SN, else a fresh
    /// dequeue from the pool.
    pub fn consume_first_available(&mut self) -> Option<ReceiveWqe> {
        if let Some((&sn, _)) = self.allotted.iter().next() {
            return self.allotted.remove(&sn);
        }
        let (id, sink_addr) = self.pool.pop_front()?;
        let sn = self.next_sn;
        self.next_sn += 1;
        Some(ReceiveWqe {
            id,
            recv_wqe_sn: sn,
            sink_addr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allots_on_dequeue_not_post() {
        let mut srq = SharedReceiveQueue::new();
        srq.post(10, 0x100);
        srq.post(11, 0x200);
        assert_eq!(srq.next_sn(), 0, "posting must not allot SNs");
        let w = srq.wqe_for_sn(0).copied().unwrap();
        assert_eq!((w.id, w.recv_wqe_sn), (10, 0));
        assert_eq!(srq.next_sn(), 1);
    }

    #[test]
    fn paper_example_sn4_dequeues_intermediates() {
        // Appendix B.2's walkthrough: after consuming SN 0, a packet
        // with recv_WQE_SN 4 arrives; SNs 1–4 are allotted and the 4th
        // WQE processes the packet.
        let mut srq = SharedReceiveQueue::new();
        for i in 0..6 {
            srq.post(100 + i, i * 0x10);
        }
        srq.wqe_for_sn(0);
        srq.consume(0);
        let w = srq.wqe_for_sn(4).copied().unwrap();
        assert_eq!(w.id, 104);
        assert_eq!(srq.next_sn(), 5);
        // SNs 1..3 are allotted and outstanding (their messages' packets
        // are presumably in flight).
        assert!(srq.consume(1).is_some());
        assert!(srq.consume(2).is_some());
        assert!(srq.consume(3).is_some());
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut srq = SharedReceiveQueue::new();
        srq.post(1, 0);
        assert!(srq.wqe_for_sn(0).is_some());
        assert!(srq.wqe_for_sn(1).is_none(), "RNR: pool dry");
    }

    #[test]
    fn consume_first_available_prefers_lowest_outstanding() {
        let mut srq = SharedReceiveQueue::new();
        for i in 0..3 {
            srq.post(i, 0);
        }
        srq.wqe_for_sn(1); // allots 0 and 1
        let w = srq.consume_first_available().unwrap();
        assert_eq!(w.recv_wqe_sn, 0, "lowest outstanding SN expires first");
        // Next: SN 1 (still allotted), then a fresh dequeue (SN 2).
        assert_eq!(srq.consume_first_available().unwrap().recv_wqe_sn, 1);
        assert_eq!(srq.consume_first_available().unwrap().recv_wqe_sn, 2);
        assert!(srq.consume_first_available().is_none());
    }

    #[test]
    fn same_sn_resolves_to_same_wqe() {
        let mut srq = SharedReceiveQueue::new();
        srq.post(7, 0xAA);
        let first = srq.wqe_for_sn(0).copied().unwrap();
        let second = srq.wqe_for_sn(0).copied().unwrap();
        assert_eq!(first, second, "all packets of a Send match one WQE");
    }
}
