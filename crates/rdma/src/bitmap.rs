//! BDP-sized ring bitmaps in 32-bit chunks.
//!
//! §6.2 of the paper: "Each bitmap was implemented as a ring buffer …
//! with the head corresponding to the expected sequence number at the
//! receiver (or the cumulative acknowledgement number at the sender). The
//! key bitmap manipulations required by IRN can be reduced to the
//! following three categories of known operations: (i) finding first
//! zero … (ii) popcount … (iii) bit shifts … We optimized the first two
//! operations by dividing the bitmap variables into chunks of 32 bits and
//! operating on these chunks in parallel."
//!
//! [`RingBitmap`] follows that design literally: a fixed-capacity bit
//! ring over `u32` chunks, head-relative indexing, and the three
//! operation families as chunk-parallel algorithms. BDP-FC guarantees
//! the window of interesting sequence numbers never exceeds the BDP cap
//! (§3.2), which is what lets the bitmap be small (128 bits for the
//! paper's default 40 Gbps network).

/// A fixed-capacity ring of bits indexed relative to a moving head.
///
/// Bit `i` refers to sequence number `head + i`; advancing the head by
/// `n` (when the cumulative sequence moves) discards the first `n` bits
/// and appends `n` zero bits at the tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingBitmap {
    chunks: Vec<u32>,
    /// Physical bit index of the logical head.
    head: usize,
    /// Capacity in bits (multiple of 32).
    cap: usize,
}

impl RingBitmap {
    /// A bitmap of at least `bits` capacity (rounded up to 32).
    ///
    /// The paper sizes these to the BDP cap: 128 bits covers the default
    /// 40 Gbps / 24 µs network (110 packets); 100 Gbps needs ~256–320.
    pub fn new(bits: usize) -> RingBitmap {
        assert!(bits > 0, "bitmap capacity must be positive");
        let cap = bits.div_ceil(32) * 32;
        RingBitmap {
            chunks: vec![0; cap / 32],
            head: 0,
            cap,
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn phys(&self, offset: usize) -> (usize, u32) {
        debug_assert!(offset < self.cap, "offset {offset} beyond cap {}", self.cap);
        let bit = (self.head + offset) % self.cap;
        (bit / 32, 1u32 << (bit % 32))
    }

    /// Set the bit at head-relative `offset`. Returns the previous value.
    pub fn set(&mut self, offset: usize) -> bool {
        let (c, m) = self.phys(offset);
        let was = self.chunks[c] & m != 0;
        self.chunks[c] |= m;
        was
    }

    /// Read the bit at head-relative `offset`.
    pub fn get(&self, offset: usize) -> bool {
        let (c, m) = self.phys(offset);
        self.chunks[c] & m != 0
    }

    /// Find the head-relative offset of the first zero bit — the next
    /// expected sequence number at a receiver, or the next retransmission
    /// candidate at a sender. Returns `None` if every bit is set.
    ///
    /// Chunk-parallel: scans whole `u32`s, then uses `trailing_ones` on
    /// the first non-full chunk (the "finding first zero" operation of
    /// §6.2).
    pub fn find_first_zero(&self) -> Option<usize> {
        let head_chunk = self.head / 32;
        let head_bit = self.head % 32;
        let n = self.chunks.len();

        // First (possibly partial) chunk: examine bits ≥ head_bit.
        let first = self.chunks[head_chunk] >> head_bit;
        let first_span = 32 - head_bit;
        let to = first.trailing_ones() as usize;
        if to < first_span {
            return Some(to);
        }

        // Whole chunks after the head chunk, wrapping around.
        let mut offset = first_span;
        for i in 1..n {
            let c = self.chunks[(head_chunk + i) % n];
            let to = c.trailing_ones() as usize;
            if to < 32 {
                let found = offset + to;
                // The tail of the ring overlaps the head chunk's low bits;
                // offsets ≥ cap do not exist.
                return (found < self.cap).then_some(found);
            }
            offset += 32;
        }

        // Wrapped back into the low bits of the head chunk.
        if head_bit > 0 {
            let tail = self.chunks[head_chunk] & ((1u32 << head_bit) - 1);
            let to = tail.trailing_ones() as usize;
            if to < head_bit {
                let found = offset + to;
                return (found < self.cap).then_some(found);
            }
        }
        None
    }

    /// Number of set bits in the window (the popcount of §6.2, used to
    /// compute MSN increments and Receive-WQE expirations).
    pub fn popcount(&self) -> usize {
        self.chunks.iter().map(|c| c.count_ones() as usize).sum()
    }

    /// Length of the run of set bits starting at the head (how far the
    /// cumulative sequence may advance).
    pub fn leading_ones(&self) -> usize {
        self.find_first_zero().unwrap_or(self.cap)
    }

    /// Advance the head by `n` bits, clearing the bits passed over (the
    /// "bit shift" of §6.2). The freed positions become the new tail.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.cap, "advance {n} beyond capacity {}", self.cap);
        for i in 0..n {
            // Clear as we pass: freed tail slots must read as zero.
            let (c, m) = self.phys(i);
            self.chunks[c] &= !m;
        }
        self.head = (self.head + n) % self.cap;
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(|&c| c == 0)
    }
}

/// The responder's 2-bitmap (§5.3.3): per sequence slot it tracks both
/// arrival and whether that packet was a message's *last* packet whose
/// completion actions (MSN update, possibly Receive-WQE expiry + CQE)
/// are pending until all predecessors arrive.
#[derive(Debug, Clone)]
pub struct TwoBitmap {
    /// Packet arrived.
    arrived: RingBitmap,
    /// Packet is the last of a message (triggers MSN update / completion
    /// when the window slides past it).
    is_last: RingBitmap,
}

impl TwoBitmap {
    /// Capacity per plane in bits; sized to the BDP cap like all IRN
    /// bitmaps.
    pub fn new(bits: usize) -> TwoBitmap {
        TwoBitmap {
            arrived: RingBitmap::new(bits),
            is_last: RingBitmap::new(bits),
        }
    }

    /// Record the arrival of the packet at `offset`; `last` marks it as a
    /// message boundary. Idempotent (retransmitted duplicates are fine).
    pub fn record(&mut self, offset: usize, last: bool) {
        self.arrived.set(offset);
        if last {
            self.is_last.set(offset);
        }
    }

    /// Has the packet at `offset` arrived?
    pub fn has(&self, offset: usize) -> bool {
        self.arrived.get(offset)
    }

    /// Slide the window past every contiguously-arrived packet.
    ///
    /// Returns `(advanced, completions)`: how many slots the head moved,
    /// and how many of those were message boundaries — i.e. the MSN
    /// increment (§5.3.3's "popcount to compute the increment in MSN").
    pub fn slide(&mut self) -> (usize, usize) {
        let n = self.arrived.leading_ones();
        if n == 0 {
            return (0, 0);
        }
        let mut completions = 0;
        for i in 0..n {
            if self.is_last.get(i) {
                completions += 1;
            }
        }
        self.arrived.advance(n);
        self.is_last.advance(n);
        (n, completions)
    }

    /// Capacity in bits of each plane.
    pub fn capacity(&self) -> usize {
        self.arrived.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let b = RingBitmap::new(128);
        assert_eq!(b.capacity(), 128);
        assert!(b.is_empty());
        assert_eq!(b.find_first_zero(), Some(0));
        assert_eq!(b.popcount(), 0);
    }

    #[test]
    fn capacity_rounds_up_to_chunks() {
        assert_eq!(RingBitmap::new(1).capacity(), 32);
        assert_eq!(RingBitmap::new(33).capacity(), 64);
        assert_eq!(RingBitmap::new(110).capacity(), 128); // paper's BDP cap
    }

    #[test]
    fn set_get_clear() {
        let mut b = RingBitmap::new(64);
        assert!(!b.set(5));
        assert!(b.get(5));
        assert!(b.set(5), "second set reports previous value");
    }

    #[test]
    fn find_first_zero_skips_leading_ones() {
        let mut b = RingBitmap::new(128);
        for i in 0..40 {
            b.set(i);
        }
        assert_eq!(b.find_first_zero(), Some(40));
        b.set(41); // hole at 40
        assert_eq!(b.find_first_zero(), Some(40));
        assert_eq!(b.leading_ones(), 40);
    }

    #[test]
    fn find_first_zero_none_when_full() {
        let mut b = RingBitmap::new(32);
        for i in 0..32 {
            b.set(i);
        }
        assert_eq!(b.find_first_zero(), None);
        assert_eq!(b.leading_ones(), 32);
    }

    #[test]
    fn advance_clears_and_wraps() {
        let mut b = RingBitmap::new(64);
        for i in 0..10 {
            b.set(i);
        }
        b.set(12);
        b.advance(10);
        // Former bit 12 is now at offset 2; bits 0..10 discarded.
        assert_eq!(b.find_first_zero(), Some(0));
        assert!(b.get(2));
        assert_eq!(b.popcount(), 1);
        // Pass the stray bit, then churn set/advance cycles through the
        // wrap point: freed tail slots must always read zero.
        b.advance(3);
        assert!(b.is_empty());
        for _ in 0..80 {
            b.set(0);
            b.advance(1);
        }
        assert!(b.is_empty(), "freed slots must be cleared after wrap");
    }

    #[test]
    fn wraparound_find_first_zero() {
        let mut b = RingBitmap::new(32);
        b.advance(30); // head at physical bit 30
        for i in 0..20 {
            b.set(i); // crosses the physical wrap point
        }
        assert_eq!(b.find_first_zero(), Some(20));
        b.advance(20);
        assert!(b.is_empty());
    }

    #[test]
    fn set_and_count_ready_reports_run() {
        // The receiver's set-then-slide step: set, then count the run
        // of ready bits at the head.
        let mut b = RingBitmap::new(64);
        b.set(1);
        assert_eq!(b.leading_ones(), 0); // hole at 0
        b.set(0);
        assert_eq!(b.leading_ones(), 2); // run of two
    }

    #[test]
    fn iter_ones_matches_gets() {
        let mut b = RingBitmap::new(64);
        for &i in &[3usize, 17, 40, 63] {
            b.set(i);
        }
        let ones: Vec<usize> = (0..b.capacity()).filter(|&i| b.get(i)).collect();
        assert_eq!(ones, vec![3, 17, 40, 63]);
    }

    // The bounds check is a debug_assert, so it only fires without
    // optimizations; release builds skip this test.
    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn offset_beyond_capacity_panics_in_debug() {
        let b = RingBitmap::new(32);
        let _ = b.get(32);
    }

    // ---- TwoBitmap ----

    #[test]
    fn two_bitmap_in_order_messages() {
        let mut t = TwoBitmap::new(128);
        // Message A = packets 0,1 (1 = last); message B = packet 2 (last).
        t.record(0, false);
        assert_eq!(t.slide(), (1, 0));
        t.record(0, true); // old offset 1, now at head
        assert_eq!(t.slide(), (1, 1));
        t.record(0, true);
        assert_eq!(t.slide(), (1, 1));
    }

    #[test]
    fn two_bitmap_out_of_order_holds_completions() {
        let mut t = TwoBitmap::new(128);
        // Packets 1 and 2 arrive first (2 is a message boundary).
        t.record(1, false);
        t.record(2, true);
        assert_eq!(t.slide(), (0, 0), "hole at 0 blocks everything");
        // Packet 0 (its own message) fills the hole: everything releases.
        t.record(0, true);
        assert_eq!(t.slide(), (3, 2), "two message boundaries release");
    }

    #[test]
    fn two_bitmap_duplicate_arrivals_are_idempotent() {
        let mut t = TwoBitmap::new(128);
        t.record(0, true);
        t.record(0, true);
        assert_eq!(t.slide(), (1, 1));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The ring bitmap must agree with a naive VecDeque<bool>
            /// model under arbitrary interleavings of set/advance.
            #[test]
            fn matches_naive_model(ops in proptest::collection::vec((0usize..128, prop::bool::ANY), 1..200)) {
                let cap = 128;
                let mut ring = RingBitmap::new(cap);
                let mut model = std::collections::VecDeque::from(vec![false; cap]);
                for (off, do_advance) in ops {
                    if do_advance {
                        let n = ring.leading_ones();
                        let model_n = model.iter().take_while(|&&b| b).count();
                        prop_assert_eq!(n, model_n);
                        ring.advance(n);
                        for _ in 0..n { model.pop_front(); model.push_back(false); }
                    } else {
                        ring.set(off);
                        model[off] = true;
                    }
                    // Invariants after every op.
                    let ffz = ring.find_first_zero();
                    let model_ffz = model.iter().position(|&b| !b);
                    prop_assert_eq!(ffz, model_ffz);
                    prop_assert_eq!(ring.popcount(), model.iter().filter(|&&b| b).count());
                }
            }

            /// Popcount never exceeds capacity and advance(leading_ones)
            /// always leaves a zero at the head (or an empty map).
            #[test]
            fn head_invariant(offsets in proptest::collection::vec(0usize..110, 0..110)) {
                let mut b = RingBitmap::new(110);
                for off in offsets {
                    b.set(off);
                    let n = b.leading_ones();
                    b.advance(n);
                    if let Some(z) = b.find_first_zero() {
                        prop_assert_eq!(z, 0, "after sliding, head bit must be zero");
                    }
                }
            }
        }
    }
}
