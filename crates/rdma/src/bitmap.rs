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
//! paper's default 40 Gbps network) — small enough to live in the QP
//! context itself: up to 256 bits are stored in place, and only a
//! larger bitmap takes one heap block.

/// Words a bitmap keeps in place: 256 bits, the receiver's default
/// capacity and every sender of at most 256 packets. A larger bitmap
/// spills to one boxed slice.
const INLINE_WORDS: usize = 8;

/// Largest capacity in bits (head and capacity are kept as `u32`).
const MAX_BITS: usize = 1 << 31;

/// A bitmap's words: in place up to [`INLINE_WORDS`], else one boxed
/// slice. Only where they live differs; every operation matches the
/// storage once and runs the one [`Ring`] algorithm on the slice.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline([u32; INLINE_WORDS]),
    Spilled(Box<[u32]>),
}

impl Words {
    /// `n` zeroed words.
    fn zeroed(n: usize) -> Words {
        if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Spilled(vec![0; n].into_boxed_slice())
        }
    }

    /// The first `n` words: the bitmap's whole ring.
    #[inline]
    fn ring(&self, n: usize) -> &[u32] {
        match self {
            Words::Inline(w) => &w[..n],
            Words::Spilled(w) => w,
        }
    }

    #[inline]
    fn ring_mut(&mut self, n: usize) -> &mut [u32] {
        match self {
            Words::Inline(w) => &mut w[..n],
            Words::Spilled(w) => w,
        }
    }
}

/// A ring's geometry: the physical bit of its logical head and its
/// capacity. The algorithms of §6.2 are methods here, over the word
/// slice of whichever storage holds the bits; both planes of a
/// [`TwoBitmap`] share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ring {
    /// Physical bit index of the logical head.
    head: u32,
    /// Capacity in bits (multiple of 32).
    cap: u32,
}

impl Ring {
    fn new(bits: usize) -> Ring {
        assert!(
            bits > 0 && bits <= MAX_BITS,
            "bitmap capacity must be in 1..=2^31, got {bits}"
        );
        Ring {
            head: 0,
            cap: (bits.div_ceil(32) * 32) as u32,
        }
    }

    /// Capacity in bits.
    #[inline]
    fn cap(self) -> usize {
        self.cap as usize
    }

    /// Words in the ring.
    #[inline]
    fn words(self) -> usize {
        self.cap() / 32
    }

    #[inline]
    fn phys(self, offset: usize) -> (usize, u32) {
        debug_assert!(
            offset < self.cap(),
            "offset {offset} beyond cap {}",
            self.cap
        );
        // head < cap and offset < cap: one conditional subtraction wraps.
        let mut bit = self.head as usize + offset;
        if bit >= self.cap() {
            bit -= self.cap();
        }
        (bit / 32, 1u32 << (bit % 32))
    }

    #[inline]
    fn set(self, words: &mut [u32], offset: usize) -> bool {
        let (c, m) = self.phys(offset);
        let was = words[c] & m != 0;
        words[c] |= m;
        was
    }

    #[inline]
    fn get(self, words: &[u32], offset: usize) -> bool {
        let (c, m) = self.phys(offset);
        words[c] & m != 0
    }

    fn find_first_zero(self, words: &[u32]) -> Option<usize> {
        let cap = self.cap();
        let head_chunk = self.head as usize / 32;
        let head_bit = self.head as usize % 32;
        let n = words.len();

        // First (possibly partial) chunk: examine bits ≥ head_bit.
        let first = words[head_chunk] >> head_bit;
        let first_span = 32 - head_bit;
        let to = first.trailing_ones() as usize;
        if to < first_span {
            return Some(to);
        }

        // Whole chunks after the head chunk, wrapping around.
        let mut offset = first_span;
        for i in 1..n {
            let c = words[(head_chunk + i) % n];
            let to = c.trailing_ones() as usize;
            if to < 32 {
                let found = offset + to;
                // The tail of the ring overlaps the head chunk's low bits;
                // offsets ≥ cap do not exist.
                return (found < cap).then_some(found);
            }
            offset += 32;
        }

        // Wrapped back into the low bits of the head chunk.
        if head_bit > 0 {
            let tail = words[head_chunk] & ((1u32 << head_bit) - 1);
            let to = tail.trailing_ones() as usize;
            if to < head_bit {
                let found = offset + to;
                return (found < cap).then_some(found);
            }
        }
        None
    }

    /// Clear the first `n` logical bits of `words` (the freed positions
    /// become the new tail and must read zero).
    #[inline]
    fn clear_head(self, words: &mut [u32], n: usize) {
        for i in 0..n {
            let (c, m) = self.phys(i);
            words[c] &= !m;
        }
    }

    /// Move the head `n` bits on. The caller clears the bits passed
    /// over, with the geometry from before the move.
    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.cap(), "advance {n} beyond capacity {}", self.cap);
        self.head = ((self.head as usize + n) % self.cap()) as u32;
    }
}

/// A fixed-capacity ring of bits indexed relative to a moving head.
///
/// Bit `i` refers to sequence number `head + i`; advancing the head by
/// `n` (when the cumulative sequence moves) discards the first `n` bits
/// and appends `n` zero bits at the tail. Up to 256 bits live in the
/// value itself, so a bitmap at the default BDP cap costs no heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingBitmap {
    words: Words,
    ring: Ring,
}

impl RingBitmap {
    /// A bitmap of at least `bits` capacity (rounded up to 32).
    ///
    /// The paper sizes these to the BDP cap: 128 bits covers the default
    /// 40 Gbps / 24 µs network (110 packets); 100 Gbps needs ~256–320.
    pub fn new(bits: usize) -> RingBitmap {
        let ring = Ring::new(bits);
        RingBitmap {
            words: Words::zeroed(ring.words()),
            ring,
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.ring.cap()
    }

    /// Set the bit at head-relative `offset`. Returns the previous value.
    #[inline]
    pub fn set(&mut self, offset: usize) -> bool {
        let ring = self.ring;
        ring.set(self.words.ring_mut(ring.words()), offset)
    }

    /// Read the bit at head-relative `offset`.
    #[inline]
    pub fn get(&self, offset: usize) -> bool {
        self.ring.get(self.words.ring(self.ring.words()), offset)
    }

    /// Find the head-relative offset of the first zero bit — the next
    /// expected sequence number at a receiver, or the next retransmission
    /// candidate at a sender. Returns `None` if every bit is set.
    ///
    /// Chunk-parallel: scans whole `u32`s, then uses `trailing_ones` on
    /// the first non-full chunk (the "finding first zero" operation of
    /// §6.2).
    pub fn find_first_zero(&self) -> Option<usize> {
        self.ring
            .find_first_zero(self.words.ring(self.ring.words()))
    }

    /// Number of set bits in the window (the popcount of §6.2, used to
    /// compute MSN increments and Receive-WQE expirations).
    pub fn popcount(&self) -> usize {
        let words = self.words.ring(self.ring.words());
        words.iter().map(|c| c.count_ones() as usize).sum()
    }

    /// Length of the run of set bits starting at the head (how far the
    /// cumulative sequence may advance).
    pub fn leading_ones(&self) -> usize {
        self.find_first_zero().unwrap_or(self.capacity())
    }

    /// Advance the head by `n` bits, clearing the bits passed over (the
    /// "bit shift" of §6.2). The freed positions become the new tail.
    pub fn advance(&mut self, n: usize) {
        let ring = self.ring;
        self.ring.advance(n);
        ring.clear_head(self.words.ring_mut(ring.words()), n);
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.ring(self.ring.words()).iter().all(|&c| c == 0)
    }
}

/// The responder's 2-bitmap (§5.3.3): per sequence slot it tracks both
/// arrival and whether that packet was a message's *last* packet whose
/// completion actions (MSN update, possibly Receive-WQE expiry + CQE)
/// are pending until all predecessors arrive. The two planes move
/// together, so they share one head and capacity.
#[derive(Debug, Clone)]
pub struct TwoBitmap {
    /// Packet arrived.
    arrived: Words,
    /// Packet is the last of a message (triggers MSN update / completion
    /// when the window slides past it).
    is_last: Words,
    ring: Ring,
}

impl TwoBitmap {
    /// Capacity per plane in bits; sized to the BDP cap like all IRN
    /// bitmaps.
    pub fn new(bits: usize) -> TwoBitmap {
        let ring = Ring::new(bits);
        TwoBitmap {
            arrived: Words::zeroed(ring.words()),
            is_last: Words::zeroed(ring.words()),
            ring,
        }
    }

    /// Record the arrival of the packet at `offset`; `last` marks it as a
    /// message boundary. Idempotent (retransmitted duplicates are fine).
    #[inline]
    pub fn record(&mut self, offset: usize, last: bool) {
        let (ring, n) = (self.ring, self.ring.words());
        ring.set(self.arrived.ring_mut(n), offset);
        if last {
            ring.set(self.is_last.ring_mut(n), offset);
        }
    }

    /// Has the packet at `offset` arrived?
    #[inline]
    pub fn has(&self, offset: usize) -> bool {
        self.ring.get(self.arrived.ring(self.ring.words()), offset)
    }

    /// Slide the window past every contiguously-arrived packet.
    ///
    /// Returns `(advanced, completions)`: how many slots the head moved,
    /// and how many of those were message boundaries — i.e. the MSN
    /// increment (§5.3.3's "popcount to compute the increment in MSN").
    #[inline]
    pub fn slide(&mut self) -> (usize, usize) {
        let (ring, words) = (self.ring, self.ring.words());
        let arrived = self.arrived.ring_mut(words);
        let n = ring.find_first_zero(arrived).unwrap_or(ring.cap());
        if n == 0 {
            return (0, 0);
        }
        self.ring.advance(n);
        ring.clear_head(arrived, n);
        let is_last = self.is_last.ring_mut(words);
        let completions = (0..n).filter(|&i| ring.get(is_last, i)).count();
        ring.clear_head(is_last, n);
        (n, completions)
    }

    /// Capacity in bits of each plane.
    pub fn capacity(&self) -> usize {
        self.ring.cap()
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

    #[test]
    fn up_to_256_bits_live_in_place() {
        for bits in [1, 128, 256] {
            assert!(matches!(RingBitmap::new(bits).words, Words::Inline(_)));
            assert!(matches!(TwoBitmap::new(bits).is_last, Words::Inline(_)));
        }
        let spilled = RingBitmap::new(257);
        assert_eq!(spilled.capacity(), 288);
        assert!(matches!(&spilled.words, Words::Spilled(w) if w.len() == 9));
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

        /// Capacities around the inline/spill boundary (256 bits).
        const CAPS: [usize; 4] = [32, 256, 288, 4096];

        proptest! {
            /// The ring bitmap must agree with a naive VecDeque<bool>
            /// model under arbitrary interleavings of set/advance, at
            /// capacities on both sides of the inline/spill boundary.
            #[test]
            fn matches_naive_model(
                cap in 0usize..CAPS.len(),
                ops in proptest::collection::vec((0u8..4, 0usize..4097), 1..200),
            ) {
                let cap = CAPS[cap];
                let mut ring = RingBitmap::new(cap);
                let mut model = std::collections::VecDeque::from(vec![false; cap]);
                for (kind, x) in ops {
                    match kind {
                        // Anywhere in the window, or near the head so
                        // that runs form at large capacities too.
                        0 | 1 => {
                            let off = if kind == 0 { x % cap } else { x % cap.min(40) };
                            prop_assert_eq!(ring.set(off), model[off]);
                            model[off] = true;
                        }
                        // The receiver's slide, or any shift at all.
                        _ => {
                            let n = if kind == 2 {
                                let n = ring.leading_ones();
                                prop_assert_eq!(n, model.iter().take_while(|&&b| b).count());
                                n
                            } else {
                                x % (cap + 1)
                            };
                            ring.advance(n);
                            for _ in 0..n { model.pop_front(); model.push_back(false); }
                        }
                    }
                    // Invariants after every op.
                    let ffz = ring.find_first_zero();
                    let model_ffz = model.iter().position(|&b| !b);
                    prop_assert_eq!(ffz, model_ffz);
                    prop_assert_eq!(ring.popcount(), model.iter().filter(|&&b| b).count());
                    prop_assert_eq!(ring.is_empty(), !model.contains(&true));
                }
                for (i, &bit) in model.iter().enumerate() {
                    prop_assert_eq!(ring.get(i), bit, "bit {}", i);
                }
            }

            /// The 2-bitmap's slide agrees with a model of both planes:
            /// it moves past the arrived run and counts the boundaries
            /// in it, on both sides of the inline/spill boundary.
            #[test]
            fn two_bitmap_matches_naive_model(
                cap in 0usize..CAPS.len(),
                ops in proptest::collection::vec((0usize..64, prop::bool::ANY, prop::bool::ANY), 1..300),
            ) {
                let cap = CAPS[cap];
                let mut two = TwoBitmap::new(cap);
                let mut model = std::collections::VecDeque::from(vec![(false, false); cap]);
                for (off, last, do_slide) in ops {
                    let off = off % cap;
                    if do_slide {
                        let n = model.iter().take_while(|&&(a, _)| a).count();
                        let completions = model.iter().take(n).filter(|&&(_, l)| l).count();
                        prop_assert_eq!(two.slide(), (n, completions));
                        for _ in 0..n { model.pop_front(); model.push_back((false, false)); }
                    } else {
                        two.record(off, last);
                        model[off].0 = true;
                        model[off].1 |= last;
                    }
                    prop_assert_eq!(two.has(off), model[off].0);
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
