//! The production event scheduler: a calendar/ladder queue with
//! amortized O(1) push/pop and first-class cancellable timers.
//!
//! A binary-heap event queue (the reference `EventQueue` kept in
//! `irn-integration`, `tests/src/event_queue.rs`) costs O(log n) per
//! operation and has no random-access removal, which forces the layers
//! above to *filter* stale timer expiries at pop time (the reference
//! `TimerSlot` generation trick, `tests/src/timer.rs`): every re-armed
//! retransmission timer leaves a dead event in the heap that is
//! scheduled, sifted, popped, and discarded. At packet-simulation rates
//! that is a measurable slice of the event budget. [`Scheduler`]
//! replaces both halves:
//!
//! * **Ladder buckets.** Events land in a ring of 32 768 time buckets
//!   of 32 ns each ([`RING_SPAN`], 1 048 576 ns). Pushing links the
//!   entry into its bucket's list in one pooled entry store; popping
//!   sorts one small bucket at a time as the cursor reaches it and
//!   frees its entries for reuse, so memory follows the entries
//!   pending, not the virtual time a run covers. Events beyond the
//!   ring's horizon wait in an unsorted overflow level and
//!   cascade into the ring when the clock approaches them — the classic
//!   calendar/ladder-queue design, amortized O(1) per operation for the
//!   dense event populations a packet simulation produces.
//! * **First-class timers.** [`Scheduler::timer_arm`] /
//!   [`Scheduler::timer_cancel`] invalidate a cancelled or superseded
//!   deadline immediately, and it **never surfaces from
//!   [`Scheduler::pop`]** — the owner no longer sees (or has to filter)
//!   stale expiries. A timer remembers the ring link of its armed
//!   entry, so a dead deadline still waiting in the ring is spliced
//!   out of its bucket's list and its pool slot freed at once (a walk
//!   of that one bucket, past 1.5 entries on average on
//!   `mice-flood-k8`): the ring and its pool hold only live events. Only a
//!   deadline that dies after its bucket opened, or while it waits in
//!   the overflow, is left behind, as a tombstone its generation
//!   stamp gives away. Every dead deadline is counted once, when it is
//!   removed, in [`SchedStats::stale_skips`].
//!
//! ## Determinism contract
//!
//! The scheduler preserves the reference `EventQueue`'s contract
//! *exactly*: pops are nondecreasing in time, and events scheduled for
//! the same instant pop in order of their sequence numbers (every push
//! — including a timer arm — is stamped with the next number of one
//! monotonically increasing counter; internal layout never
//! participates in ordering). A caller may also take a number with
//! [`Scheduler::reserve`] and decide later whether the event it stands
//! for is needed: [`Scheduler::push_reserved`] enters it under that
//! number, so it pops exactly where a push made at reservation time
//! would have — next, if every pending entry at its instant is younger
//! — and a number never pushed leaves no trace. The differential
//! property suite in `tests/tests/scheduler.rs` pins this against the
//! binary-heap reference over random push/pop/arm/cancel/reserve
//! interleavings.
//!
//! ## Bucket width
//!
//! Opening a bucket sorts it into the `due` run, and a push that lands
//! in a bucket already open is inserted into that run, shifting every
//! entry behind its place. Both costs grow with how many entries one
//! bucket holds, so the width is set by the densest stream the
//! simulator runs: a k=8 fat-tree carrying traffic on every link,
//! about 2.5 events per ns. At 32 ns an opened bucket holds tens of
//! entries there. Per pass of the benchmark's input set 0 of seed 1,
//! 256 ns → 32 ns buckets (counts are deterministic):
//!
//! | workload | entries per opened bucket | due-run inserts × mean entries shifted |
//! |---|---|---|
//! | `paper-default-k8` | 97 → 15.5 | 809 k × 84.8 → 532 k × 8.4 |
//! | `fabric-shuffle-k8` | 467 → 65.3 | 836 k × 152.4 → 441 k × 33.1 |
//! | `incast-pfc-k8` | 26 → 3.9 | 1 044 k × 29.0 → 802 k × 0.9 |
//! | `mice-flood-k8` | 663 → 92.4 | 319 k × 164.7 → 137 k × 35.0 |
//! | `rpc-lossy-k4` | 47 → 6.3 | 1 410 k × 8.5 → 1 069 k × 1.0 |
//!
//! An empty bucket costs only its 4-byte list head. The 128 KB ring is
//! allocated by the first push into it, not by [`Scheduler::new`], and
//! comes zeroed from the allocator (an empty head is `0`) instead of
//! being filled, so building a scheduler costs no more than with the
//! 16 KB ring it replaced. The horizon stayed at 1 048 576 ns: long
//! timers still overflow, and traffic still fits in the ring.

use crate::{Duration, Time};

/// Number of buckets in the ring (power of two).
const NUM_BUCKETS: usize = 32_768;
/// Bucket width in nanoseconds is `2^BUCKET_SHIFT`: 32 ns, so an opened
/// bucket holds tens of entries even on a k=8 fabric running flat out
/// (see the module docs' density table).
const BUCKET_SHIFT: u32 = 5;

/// Virtual time one revolution of the ring covers, 1 048 576 ns: wider
/// than an RTT, narrower than RTO_high, so traffic events stay in the
/// ring and only long timers overflow. Code outside this file reads
/// the ring's geometry through this constant alone.
pub const RING_SPAN: Duration = Duration::nanos((NUM_BUCKETS as u64) << BUCKET_SHIFT);

/// Handle to one logical, cancellable timer owned by a [`Scheduler`].
///
/// Created with [`Scheduler::timer_create`]; valid for the scheduler's
/// lifetime. Arming twice replaces the previous deadline; cancelling
/// guarantees the pending expiry never pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(u32);

/// Internal per-timer state: the live generation, the deadline mirror
/// and where the armed entry waits.
#[derive(Debug, Clone, Copy)]
struct TimerState {
    /// Bumped (wrapping) on every arm/cancel; an entry whose stamped
    /// generation differs is a tombstone. 32 bits keep the stamp to one
    /// word in [`Entry`]; a false "live" match would need one timer to
    /// be re-armed exactly 2^32 times while a single entry waits in a
    /// bucket — orders of magnitude beyond what any pending window
    /// (≤ RTO horizon) can produce.
    generation: u32,
    /// Ring link of the armed entry while it waits in the ring (its
    /// bucket is the deadline's); [`NIL`] while it is in `due` or the
    /// overflow, or when nothing is armed.
    link: u32,
    /// Deadline of the live entry, if armed.
    deadline: Option<Time>,
}

/// Operation counters, exposed for instrumentation and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events pushed (including timer arms).
    pub pushes: u64,
    /// Live events popped.
    pub pops: u64,
    /// Timer arms (each is also a push).
    pub timer_arms: u64,
    /// Timer cancellations that invalidated a live deadline.
    pub timer_cancels: u64,
    /// Dead (cancelled / superseded) timer entries removed, each
    /// counted once when it goes: unlinked from the ring by the cancel
    /// or re-arm itself, or, for the residue, dropped from the open
    /// `due` run, by a cascade or when nothing live is left. These
    /// never surface from [`Scheduler::pop`].
    pub stale_skips: u64,
    /// Past-scheduled events clamped to "now". A nonzero count means a
    /// model scheduled backwards in time — a logic error that release
    /// builds would otherwise hide (debug builds panic).
    pub past_clamps: u64,
    /// Overflow-level cascades (bucket opened from the overflow).
    pub cascades: u64,
}

/// A destination for scheduled events.
///
/// Layers that *emit* events without owning the queue (the fabric emits
/// `FabricEvent`s from inside its handlers) take
/// `&mut impl SchedulePort<F>` instead of a closure. A [`Scheduler<E>`]
/// is a port for any event type `F` that its own `E` has a `From` impl
/// for, so an embedding simulation with
/// `enum Event { Fabric(FabricEvent), .. }` passes its scheduler
/// straight through — no closure threading, no intermediate buffer.
///
/// `reserve` / `schedule_reserved` let an emitter hold the place of an
/// event it may never need (see [`Scheduler::reserve`]). They have
/// default bodies because only a port that *orders* events has places
/// to hold: a sink that records or discards emissions keeps
/// implementing `schedule` alone, and sees a reserved event when (and
/// if) it is scheduled. An emitter must therefore treat the number as
/// opaque and never branch on it.
pub trait SchedulePort<F> {
    /// Schedule `ev` to fire at absolute time `at`.
    fn schedule(&mut self, at: Time, ev: F);

    /// Take the sequence number a `schedule` made now would get.
    fn reserve(&mut self) -> u64 {
        0
    }

    /// Schedule `ev` at `at` under a number from [`SchedulePort::reserve`].
    fn schedule_reserved(&mut self, at: Time, seq: u64, ev: F) {
        let _ = seq;
        self.schedule(at, ev);
    }
}

impl<F, E: Copy + From<F>> SchedulePort<F> for Scheduler<E> {
    fn schedule(&mut self, at: Time, ev: F) {
        self.push(at, E::from(ev));
    }

    fn reserve(&mut self) -> u64 {
        Scheduler::reserve(self)
    }

    fn schedule_reserved(&mut self, at: Time, seq: u64, ev: F) {
        self.push_reserved(at, seq, E::from(ev));
    }
}

/// Collection sink for tests: records `(time, event)` pairs in emission
/// order.
impl<F> SchedulePort<F> for Vec<(Time, F)> {
    fn schedule(&mut self, at: Time, ev: F) {
        self.push((at, ev));
    }
}

/// Sentinel for [`Entry::timer_id`]: the entry is a plain event, not a
/// timer expiry.
const NO_TIMER: u32 = u32::MAX;

/// One scheduled occurrence. The timer stamp is two packed `u32`s
/// rather than `Option<(TimerId, u64)>`: entries are what every bucket
/// sort and memmove shuffles, so 8 bytes of stamp instead of 24 is a
/// measurable slice of hot-path traffic.
#[derive(Clone, Copy)]
struct Entry<E> {
    time: Time,
    seq: u64,
    /// Owning timer index, or [`NO_TIMER`].
    timer_id: u32,
    /// Generation stamped at arm time; live only while it matches the
    /// timer's current generation.
    timer_gen: u32,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

/// End of a ring list or of the free list. A link is a `pool` index
/// plus one, so an empty ring is all zeroes and comes zeroed from the
/// allocator instead of being filled.
const NIL: u32 = 0;

/// A deterministic future-event list with amortized O(1) operations and
/// cancellable timers. See the module docs for the design and the
/// determinism contract.
pub struct Scheduler<E> {
    /// Sorted *descending* by `(time, seq)`; `pop` takes from the back.
    /// Holds the contents of every bucket the cursor has opened.
    due: Vec<Entry<E>>,
    /// The ring: slot `b % NUM_BUCKETS` heads the list of absolute
    /// bucket `b` for `cursor < b < cursor + NUM_BUCKETS` (unsorted;
    /// [`NIL`] when empty). The lists link into `pool`, one-based.
    /// Allocated by the first push into the ring, so building a
    /// scheduler touches none of its 128 KB.
    ring: Vec<u32>,
    /// Every entry the ring holds, one store for all buckets, so its
    /// length is the peak number pending in the ring at once.
    pool: Vec<Entry<E>>,
    /// `next[i]` is the link after `pool[i]` in its bucket's list, or
    /// in the free list once the bucket is opened.
    next: Vec<u32>,
    /// Head of the LIFO list of reusable `pool` slots.
    free: u32,
    /// Entries currently in the ring, every one of them live.
    ring_len: usize,
    /// Unsorted events at or beyond the ring horizon (tombstones
    /// included).
    overflow: Vec<Entry<E>>,
    /// Minimum timestamp present in `overflow` (tombstones included).
    overflow_min: Option<Time>,
    /// Absolute index of the most recently opened bucket. Everything at
    /// bucket ≤ cursor lives in `due`.
    cursor: u64,
    next_seq: u64,
    /// Live (non-tombstoned) pending events.
    live: usize,
    /// The time of the most recent pop (or external advance).
    now: Time,
    timers: Vec<TimerState>,
    stats: SchedStats,
}

impl<E: Copy> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> Scheduler<E> {
    /// An empty scheduler positioned at `Time::ZERO`.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            due: Vec::new(),
            ring: Vec::new(),
            pool: Vec::new(),
            next: Vec::new(),
            free: NIL,
            ring_len: 0,
            overflow: Vec::new(),
            overflow_min: None,
            cursor: 0,
            next_seq: 0,
            live: 0,
            now: Time::ZERO,
            timers: Vec::new(),
            stats: SchedStats::default(),
        }
    }

    /// Absolute bucket index covering `t`.
    fn bucket_of(t: Time) -> u64 {
        t.as_nanos() >> BUCKET_SHIFT
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The scheduler's "now": the latest pop or [`Scheduler::advance_to`].
    pub fn now(&self) -> Time {
        self.now
    }

    /// Operation counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Entries held, live or dead: the ring's, the `due` run's and the
    /// overflow's. Every entry pushed was popped, was removed dead
    /// ([`SchedStats::stale_skips`]) or is one of these.
    pub fn held(&self) -> usize {
        self.ring_len + self.due.len() + self.overflow.len()
    }

    /// Advance the clock without popping (the embedding loop consumed
    /// an event from outside the queue, e.g. a lazily streamed flow
    /// arrival). Time never runs backwards; an earlier `t` is a no-op.
    pub fn advance_to(&mut self, t: Time) {
        self.now = self.now.max(t);
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past (before "now") is a logic error in the
    /// caller: debug builds panic; release builds clamp the event to
    /// "now" **and count the clamp** in [`SchedStats::past_clamps`] so
    /// the violation stays observable (`RunResult` surfaces it).
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.reserve();
        self.insert(at, seq, event, NO_TIMER, 0);
    }

    /// Take the sequence number the next push would be stamped with,
    /// without scheduling anything. Pass it to
    /// [`Scheduler::push_reserved`] to enter the event later in the
    /// place a push made now would have had, or drop it: an unused
    /// number costs nothing and is never seen again.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under `seq`, a number from
    /// [`Scheduler::reserve`] not used before. Among events at `at` it
    /// pops in `seq` order — ahead of every pending one pushed since
    /// the reservation, so at the current instant it may pop next even
    /// though younger events of that instant already have. A past `at`
    /// is clamped and counted exactly as in [`Scheduler::push`].
    pub fn push_reserved(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        self.insert(at, seq, event, NO_TIMER, 0);
    }

    /// Create a fresh, unarmed timer.
    pub fn timer_create(&mut self) -> TimerId {
        assert!(self.timers.len() < NO_TIMER as usize);
        let id = TimerId(self.timers.len() as u32);
        self.timers.push(TimerState {
            generation: 0,
            link: NIL,
            deadline: None,
        });
        id
    }

    /// Arm (or re-arm) `timer` to deliver `event` at `deadline`. A
    /// previously armed deadline is cancelled as by
    /// [`Scheduler::timer_cancel`] — its entry will never pop.
    pub fn timer_arm(&mut self, timer: TimerId, deadline: Time, event: E) {
        self.disarm(timer);
        let idx = timer.0 as usize;
        // Mirror the deadline the entry will actually fire at: a past
        // deadline is clamped (and counted) by `insert`, and the mirror
        // must agree or deadline-based dedup would compare against a
        // phantom time that never pops. The unlink reads its bucket
        // from the mirror, too.
        self.timers[idx].deadline = Some(deadline.max(self.now));
        let generation = self.timers[idx].generation;
        self.stats.timer_arms += 1;
        let seq = self.reserve();
        self.timers[idx].link = self.insert(deadline, seq, event, timer.0, generation);
    }

    /// Cancel whatever is armed on `timer`. A no-op (beyond the
    /// generation bump) if the timer is not armed.
    pub fn timer_cancel(&mut self, timer: TimerId) {
        if self.disarm(timer) {
            self.stats.timer_cancels += 1;
        }
    }

    /// Bump `timer`'s generation and kill its armed entry, if any: one
    /// waiting in the ring is unlinked and freed now, one in `due` or
    /// the overflow stays behind as a tombstone. True if a live
    /// deadline died.
    fn disarm(&mut self, timer: TimerId) -> bool {
        let state = &mut self.timers[timer.0 as usize];
        state.generation = state.generation.wrapping_add(1);
        let Some(deadline) = state.deadline.take() else {
            return false;
        };
        let link = std::mem::replace(&mut state.link, NIL);
        self.live -= 1;
        if link != NIL {
            self.unlink(Self::bucket_of(deadline), link);
        }
        true
    }

    /// Splice `link` out of absolute bucket `bucket`'s ring list, free
    /// its pool slot and count the dead entry reclaimed. The list is
    /// walked from its head: buckets are 32 ns wide, so it is short.
    fn unlink(&mut self, bucket: u64, link: u32) {
        let i = (link - 1) as usize;
        let after = self.next[i];
        let head = &mut self.ring[(bucket as usize) & (NUM_BUCKETS - 1)];
        if *head == link {
            *head = after;
        } else {
            let mut prev = (*head - 1) as usize;
            while self.next[prev] != link {
                prev = (self.next[prev] - 1) as usize;
            }
            self.next[prev] = after;
        }
        self.next[i] = self.free;
        self.free = link;
        self.ring_len -= 1;
        self.stats.stale_skips += 1;
    }

    /// The live deadline of `timer`, if armed.
    pub fn timer_deadline(&self, timer: TimerId) -> Option<Time> {
        self.timers[timer.0 as usize].deadline
    }

    /// Enter an entry where its bucket says. Returns its ring link if
    /// it went into the ring, else [`NIL`].
    fn insert(&mut self, at: Time, seq: u64, event: E, timer_id: u32, timer_gen: u32) -> u32 {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let at = if at < self.now {
            self.stats.past_clamps += 1;
            self.now
        } else {
            at
        };
        self.stats.pushes += 1;
        self.live += 1;
        let entry = Entry {
            time: at,
            seq,
            timer_id,
            timer_gen,
            event,
        };
        let bucket = Self::bucket_of(at);
        if bucket <= self.cursor {
            // The cursor already opened this bucket: merge into the
            // sorted due run (descending, so the back pops first).
            let key = entry.key();
            let idx = self.due.partition_point(|e| e.key() > key);
            self.due.insert(idx, entry);
            NIL
        } else if bucket - self.cursor < NUM_BUCKETS as u64 {
            self.ring_push(bucket, entry)
        } else {
            self.overflow_min = Some(self.overflow_min.map_or(at, |m| m.min(at)));
            self.overflow.push(entry);
            NIL
        }
    }

    /// Link `entry` at the head of absolute bucket `bucket`'s ring list,
    /// in a freed pool slot if there is one, and return its link.
    fn ring_push(&mut self, bucket: u64, entry: Entry<E>) -> u32 {
        if self.ring.is_empty() {
            self.ring = vec![NIL; NUM_BUCKETS]; // zeroed memory, no fill
        }
        let slot = &mut self.ring[(bucket as usize) & (NUM_BUCKETS - 1)];
        let link = if self.free == NIL {
            self.pool.push(entry);
            self.next.push(*slot);
            self.pool.len() as u32
        } else {
            let link = self.free;
            let i = (link - 1) as usize;
            self.free = self.next[i];
            self.pool[i] = entry;
            self.next[i] = *slot;
            link
        };
        *slot = link;
        self.ring_len += 1;
        link
    }

    /// True if `entry` is a cancelled/superseded timer expiry.
    fn is_stale(&self, entry: &Entry<E>) -> bool {
        entry.timer_id != NO_TIMER
            && self.timers[entry.timer_id as usize].generation != entry.timer_gen
    }

    /// Drop tombstones at the head and refill `due` from the ring /
    /// overflow until a live entry is at the back. Returns `false` when
    /// no live events remain.
    fn settle(&mut self) -> bool {
        loop {
            match self.due.last() {
                Some(e) if self.is_stale(e) => {
                    self.due.pop();
                    self.stats.stale_skips += 1;
                    continue;
                }
                Some(_) => return true,
                None => {}
            }
            if self.live == 0 {
                // The ring holds only live entries, so any tombstones
                // left wait in the overflow; reclaim them in bulk.
                debug_assert_eq!(self.ring_len, 0, "a dead entry in the ring");
                self.stats.stale_skips += self.overflow.len() as u64;
                self.overflow.clear();
                self.overflow_min = None;
                return false;
            }
            self.open_next_bucket();
        }
    }

    /// Open the earliest occupied bucket into `due`: the nearest
    /// occupied ring slot or the overflow minimum, whichever holds the
    /// earlier bucket (ties merge both sources so FIFO order is global).
    fn open_next_bucket(&mut self) {
        const MASK: usize = NUM_BUCKETS - 1;
        let b_ring: Option<u64> = if self.ring_len > 0 {
            // Scan to the next occupied slot. Each slot is crossed once
            // per ring revolution, so the scan amortizes over the
            // revolution's events.
            let mut b = self.cursor + 1;
            while self.ring[(b as usize) & MASK] == NIL {
                b += 1;
            }
            Some(b)
        } else {
            None
        };
        let b_over: Option<u64> = self.overflow_min.map(Self::bucket_of);
        let (bucket, cascade) = match (b_ring, b_over) {
            (Some(r), Some(o)) if o <= r => (o, true),
            (Some(r), _) => (r, false),
            (None, Some(o)) => (o, true),
            (None, None) => unreachable!("live events exist but no bucket holds them"),
        };

        // Take the ring slot only when it is exactly this bucket (a
        // cascade can target a bucket at or behind the cursor, whose
        // slot — if any — belongs to a future ring revolution). Its
        // list is copied into the drained `due` buffer, which keeps its
        // capacity, and its pool slots go back on the free list. A
        // timer whose entry leaves the ring forgets its link: from here
        // on a cancel leaves it in `due` as a tombstone.
        debug_assert!(self.due.is_empty());
        let mut batch = std::mem::take(&mut self.due);
        if b_ring == Some(bucket) {
            let mut link = std::mem::replace(&mut self.ring[(bucket as usize) & MASK], NIL);
            while link != NIL {
                let i = (link - 1) as usize;
                let entry = self.pool[i];
                if entry.timer_id != NO_TIMER {
                    self.timers[entry.timer_id as usize].link = NIL;
                }
                batch.push(entry);
                let after = std::mem::replace(&mut self.next[i], self.free);
                self.free = link;
                link = after;
                self.ring_len -= 1;
            }
        }
        self.cursor = self.cursor.max(bucket);

        if cascade {
            self.stats.cascades += 1;
            irn_telemetry::trace!(
                "sched.cascade",
                t = bucket << BUCKET_SHIFT,
                overflow = self.overflow.len()
            );
            self.overflow_min = None;
            let mut rest = Vec::new();
            for entry in std::mem::take(&mut self.overflow) {
                let eb = Self::bucket_of(entry.time);
                if eb > bucket && eb - self.cursor >= NUM_BUCKETS as u64 {
                    // Still beyond the horizon: it waits, dead or
                    // alive, so the overflow's minimum, and with it
                    // when each cascade runs (a `sched.cascade` trace
                    // line), does not depend on what was cancelled.
                    self.overflow_min =
                        Some(self.overflow_min.map_or(entry.time, |m| m.min(entry.time)));
                    rest.push(entry);
                } else if self.is_stale(&entry) {
                    // Due now or reachable: a dead entry goes here, not
                    // into `due` or the ring.
                    self.stats.stale_skips += 1;
                } else if eb <= bucket {
                    batch.push(entry);
                } else {
                    // Spill the newly reachable window into the ring so
                    // the next cascades shrink; a timer's entry records
                    // its link there.
                    let link = self.ring_push(eb, entry);
                    if entry.timer_id != NO_TIMER {
                        self.timers[entry.timer_id as usize].link = link;
                    }
                }
            }
            self.overflow = rest;
        }

        batch.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        self.due = batch;
    }

    /// The timestamp of the next **live** event without popping it.
    ///
    /// Takes `&mut self` because tombstoned entries ahead of the live
    /// head are reclaimed on the way (they must not be reported — a
    /// cancelled deadline is gone).
    pub fn peek_time(&mut self) -> Option<Time> {
        if self.settle() {
            self.due.last().map(|e| e.time)
        } else {
            None
        }
    }

    /// Remove and return the earliest live event, advancing "now".
    /// Cancelled timer deadlines never surface here.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if !self.settle() {
            return None;
        }
        let entry = self.due.pop()?;
        self.now = entry.time;
        self.live -= 1;
        self.stats.pops += 1;
        if entry.timer_id != NO_TIMER {
            // A live expiry consumes its arming.
            self.timers[entry.timer_id as usize].deadline = None;
        }
        Some((entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E: Copy>(s: &mut Scheduler<E>) -> Vec<(Time, E)> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.push(Time::from_nanos(30), "c");
        s.push(Time::from_nanos(10), "a");
        s.push(Time::from_nanos(20), "b");
        let order: Vec<_> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut s = Scheduler::new();
        let t = Time::from_nanos(5);
        for i in 0..100 {
            s.push(t, i);
        }
        let order: Vec<_> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_holds_across_bucket_boundaries_and_overflow() {
        // Same instant, pushed at very different structural positions:
        // into the far overflow, then into the ring after the horizon
        // moved, then into the due run after a cascade.
        let mut s = Scheduler::new();
        let far = Time::from_nanos((NUM_BUCKETS as u64) << (BUCKET_SHIFT + 2));
        s.push(far, 0);
        s.push(Time::from_nanos(1), 100);
        s.push(far, 1);
        assert_eq!(s.pop().unwrap().1, 100);
        assert_eq!(s.peek_time(), Some(far));
        s.push(far, 2);
        let order: Vec<_> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut s = Scheduler::new();
        s.push(Time::from_nanos(10), 1);
        s.push(Time::from_nanos(20), 2);
        assert_eq!(s.pop().unwrap().1, 1);
        s.push(Time::from_nanos(20), 3);
        assert_eq!(s.pop().unwrap().1, 2);
        assert_eq!(s.pop().unwrap().1, 3);
        assert!(s.pop().is_none());
    }

    #[test]
    fn overflow_never_overtaken_by_ring_traffic() {
        // Regression shape: a far event parks in the overflow, then the
        // ring window creeps past it via a chain of nearer events. The
        // overflow event must still pop in time order.
        let mut s = Scheduler::new();
        let width = 1u64 << BUCKET_SHIFT;
        let far = (NUM_BUCKETS as u64 + 10) * width + 7; // just past horizon
        s.push(Time::from_nanos(far), u64::MAX);
        // March the window forward one bucket at a time past `far`,
        // interleaving pushes with pops so the horizon creeps.
        let mut next = width;
        s.push(Time::from_nanos(next), 0);
        let mut last = Time::ZERO;
        let mut saw_overflow_at = None;
        while let Some((t, e)) = s.pop() {
            assert!(t >= last, "time went backwards: {t} after {last}");
            last = t;
            if e == u64::MAX {
                saw_overflow_at = Some(t);
            } else if next < far + 20 * width {
                next += width;
                s.push(Time::from_nanos(next), e + 1);
            }
        }
        assert_eq!(saw_overflow_at, Some(Time::from_nanos(far)));
    }

    #[test]
    fn cancelled_timer_never_surfaces() {
        let mut s = Scheduler::new();
        let t = s.timer_create();
        s.timer_arm(t, Time::from_nanos(100), "expiry");
        s.push(Time::from_nanos(100), "data");
        s.timer_cancel(t);
        assert_eq!(s.len(), 1);
        assert_eq!(s.peek_time(), Some(Time::from_nanos(100)));
        let all = drain(&mut s);
        assert_eq!(all, vec![(Time::from_nanos(100), "data")]);
        assert_eq!(s.stats().stale_skips, 1);
        assert_eq!(s.stats().timer_cancels, 1);
    }

    #[test]
    fn rearm_supersedes_previous_deadline() {
        let mut s = Scheduler::new();
        let t = s.timer_create();
        s.timer_arm(t, Time::from_nanos(100), 1);
        s.timer_arm(t, Time::from_nanos(50), 2);
        assert_eq!(s.timer_deadline(t), Some(Time::from_nanos(50)));
        assert_eq!(s.len(), 1);
        let all: Vec<_> = drain(&mut s);
        assert_eq!(all, vec![(Time::from_nanos(50), 2)]);
        assert_eq!(
            s.timer_deadline(t),
            None,
            "a popped expiry consumes the arm"
        );
    }

    #[test]
    fn fired_timer_can_rearm() {
        let mut s = Scheduler::new();
        let t = s.timer_create();
        s.timer_arm(t, Time::from_nanos(10), 1);
        assert_eq!(s.pop().unwrap().1, 1);
        s.timer_arm(t, Time::from_nanos(20), 2);
        assert_eq!(s.pop().unwrap().1, 2);
        assert_eq!(s.stats().stale_skips, 0, "no tombstones were created");
    }

    #[test]
    fn cancel_after_fire_is_harmless() {
        let mut s = Scheduler::new();
        let t = s.timer_create();
        s.timer_arm(t, Time::from_nanos(10), 1);
        assert!(s.pop().is_some());
        s.timer_cancel(t);
        assert_eq!(s.stats().timer_cancels, 0, "nothing live was cancelled");
        assert!(s.pop().is_none());
    }

    #[test]
    fn peek_skips_cancelled_head() {
        // The cancelled earliest deadline must not be reported by peek:
        // an embedding loop uses peek to order queue events against
        // externally streamed ones.
        let mut s = Scheduler::new();
        let t = s.timer_create();
        s.timer_arm(t, Time::from_nanos(10), "dead");
        s.push(Time::from_nanos(500), "live");
        s.timer_cancel(t);
        assert_eq!(s.peek_time(), Some(Time::from_nanos(500)));
        assert_eq!(s.pop().unwrap().1, "live");
    }

    #[test]
    fn now_tracks_pops_and_external_advance() {
        let mut s = Scheduler::new();
        assert_eq!(s.now(), Time::ZERO);
        s.push(Time::from_nanos(42), ());
        s.pop();
        assert_eq!(s.now(), Time::from_nanos(42));
        s.advance_to(Time::from_nanos(100));
        assert_eq!(s.now(), Time::from_nanos(100));
        s.advance_to(Time::from_nanos(7)); // never backwards
        assert_eq!(s.now(), Time::from_nanos(100));
    }

    #[test]
    fn past_push_clamps_and_counts_in_release() {
        // The debug build panics (covered by the should_panic test); in
        // release the clamp must be counted, not silent.
        if cfg!(debug_assertions) {
            return;
        }
        let mut s = Scheduler::new();
        s.push(Time::from_nanos(100), 1);
        s.pop();
        s.push(Time::from_nanos(50), 2);
        assert_eq!(s.stats().past_clamps, 1);
        let (t, e) = s.pop().unwrap();
        assert_eq!((t, e), (Time::from_nanos(100), 2), "clamped to now");
    }

    #[test]
    fn reserved_push_pops_where_a_push_at_reservation_would_have() {
        // The same instant reached through the due run, the ring and
        // the overflow: a reserved entry sorts by its number in each.
        let far = Time::from_nanos((NUM_BUCKETS as u64) << (BUCKET_SHIFT + 2));
        for t in [Time::from_nanos(5), Time::from_nanos(5_000), far] {
            let mut s = Scheduler::new();
            s.push(t, 0);
            let held = s.reserve();
            s.push(t, 2);
            s.push_reserved(t, held, 1);
            let order: Vec<_> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
            assert_eq!(order, vec![0, 1, 2], "at {t}");
        }
    }

    #[test]
    fn reserved_push_at_now_below_the_last_popped_key_pops_next() {
        let mut s = Scheduler::new();
        let t = Time::from_nanos(700);
        let held = s.reserve();
        for i in 1..=3 {
            s.push(t, i);
        }
        assert_eq!(s.pop(), Some((t, 1)));
        assert_eq!(s.pop(), Some((t, 2)));
        s.push_reserved(t, held, 0);
        assert_eq!(s.peek_time(), Some(t));
        assert_eq!(s.pop(), Some((t, 0)), "ahead of the younger pending 3");
        assert_eq!(s.now(), t);
        assert_eq!(s.pop(), Some((t, 3)));
    }

    #[test]
    fn unused_reservation_leaves_no_trace() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let _ = s.reserve();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        assert_eq!(s.pop(), None);
        assert_eq!(s.stats(), SchedStats::default());
    }

    #[test]
    fn past_reserved_push_clamps_and_counts_in_release() {
        if cfg!(debug_assertions) {
            return;
        }
        let mut s = Scheduler::new();
        let held = s.reserve();
        s.push(Time::from_nanos(100), 1);
        s.pop();
        s.push_reserved(Time::from_nanos(50), held, 2);
        assert_eq!(s.stats().past_clamps, 1);
        assert_eq!(s.pop(), Some((Time::from_nanos(100), 2)), "clamped to now");
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut s = Scheduler::new();
        s.push(Time::from_nanos(100), ());
        s.pop();
        s.push(Time::from_nanos(50), ());
    }

    #[test]
    fn sparse_far_future_events_cascade_correctly() {
        let mut s = Scheduler::new();
        // Widely separated events, each far beyond the ring horizon of
        // the previous: every pop needs a cascade.
        let times: Vec<Time> = (1..6u64)
            .map(|i| Time::ZERO + Duration::millis(i * 50))
            .collect();
        for (i, &t) in times.iter().enumerate().rev() {
            s.push(t, i);
        }
        let got = drain(&mut s);
        let want: Vec<_> = times.iter().copied().zip(0..5).collect();
        assert_eq!(got, want);
        assert!(s.stats().cascades >= 1);
    }

    #[test]
    fn len_counts_live_only() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        let t = s.timer_create();
        s.timer_arm(t, Time::from_nanos(10), ());
        s.push(Time::from_nanos(20), ());
        assert_eq!(s.len(), 2);
        s.timer_cancel(t);
        assert_eq!(s.len(), 1);
        s.pop();
        assert!(s.is_empty());
        assert!(s.pop().is_none());
    }

    #[test]
    fn port_trait_routes_through_from_impl() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Wrapped(u32);
        impl From<u32> for Wrapped {
            fn from(v: u32) -> Wrapped {
                Wrapped(v)
            }
        }
        fn emit(port: &mut impl SchedulePort<u32>) {
            port.schedule(Time::from_nanos(5), 7);
        }
        let mut s: Scheduler<Wrapped> = Scheduler::new();
        emit(&mut s);
        assert_eq!(s.pop(), Some((Time::from_nanos(5), Wrapped(7))));
        let mut sink: Vec<(Time, u32)> = Vec::new();
        emit(&mut sink);
        assert_eq!(sink, vec![(Time::from_nanos(5), 7)]);
    }

    #[test]
    fn reserving_through_the_port_orders_a_scheduler_and_passes_through_a_sink() {
        fn emit(port: &mut impl SchedulePort<u32>) {
            let held = port.reserve();
            port.schedule(Time::from_nanos(5), 2);
            port.schedule_reserved(Time::from_nanos(5), held, 1);
        }
        let mut s: Scheduler<u32> = Scheduler::new();
        emit(&mut s);
        let order: Vec<_> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2], "a scheduler honours the reservation");
        // A sink implements `schedule` alone: emission order.
        let mut sink: Vec<(Time, u32)> = Vec::new();
        emit(&mut sink);
        assert_eq!(
            sink,
            vec![(Time::from_nanos(5), 2), (Time::from_nanos(5), 1)]
        );
    }

    #[test]
    fn the_due_run_stays_short_at_k8_fabric_density() {
        // `fabric-shuffle-k8`'s density: 256 ports each finish a
        // 1 048 B frame every 210 ns (40 Gbps) and schedule its
        // arrival one serialization and a 2 µs propagation delay
        // ahead, about 2.4 events per ns. The `due` run holds an opened
        // bucket and whatever is pushed into it while it is open; every
        // insert into it shifts up to its length. It peaks at 79
        // entries in 32 ns buckets, 157 in 64 ns and 569 in 256 ns.
        const PORTS: u64 = 256;
        const SERIALIZATION: u64 = 210;
        const PROPAGATION: u64 = 2_000;
        const END: u64 = 100_000;
        const ARRIVAL: u64 = u64::MAX;
        let mut s: Scheduler<u64> = Scheduler::new();
        for port in 0..PORTS {
            s.push(Time::from_nanos(port * SERIALIZATION / PORTS), port);
        }
        let (mut peak, mut pops) = (0, 0u64);
        while let Some((t, e)) = s.pop() {
            pops += 1;
            // Before the pop the run was one longer.
            peak = peak.max(s.due.len() + 1);
            if e == ARRIVAL || t.as_nanos() >= END {
                continue;
            }
            s.push(t + Duration::nanos(SERIALIZATION), e);
            s.push(t + Duration::nanos(SERIALIZATION + PROPAGATION), ARRIVAL);
            peak = peak.max(s.due.len());
        }
        let per_ns = pops as f64 / END as f64;
        assert!((2.3..2.6).contains(&per_ns), "{per_ns} events per ns");
        assert!(peak <= 128, "the due run peaked at {peak} entries");
    }

    /// Walk every ring list: `ring_len` counts exactly the entries
    /// found, and all of them are live.
    fn assert_ring_live<E: Copy>(s: &Scheduler<E>) {
        let mut found = 0;
        for &head in &s.ring {
            let mut link = head;
            while link != NIL {
                let i = (link - 1) as usize;
                assert!(!s.is_stale(&s.pool[i]), "a dead entry waits in the ring");
                found += 1;
                link = s.next[i];
            }
        }
        assert_eq!(s.ring_len, found, "ring_len against a walk of the ring");
    }

    #[test]
    fn a_cancel_unlinks_its_entry_at_the_head_middle_or_tail_of_a_bucket() {
        // Three deadlines in one 32 ns bucket: the list is pushed at its
        // head, so it reads c → b → a. Cancel each position in turn.
        for (victim, name) in [(2, "head"), (1, "middle"), (0, "tail")] {
            let mut s: Scheduler<usize> = Scheduler::new();
            let timers: Vec<TimerId> = (0..3).map(|_| s.timer_create()).collect();
            for (k, &t) in timers.iter().enumerate() {
                s.timer_arm(t, Time::from_nanos(1_000 + k as u64), k);
                assert_ring_live(&s);
            }
            s.push(Time::from_nanos(5_000), 9);
            assert_eq!((s.ring_len, s.pool.len()), (4, 4));
            s.timer_cancel(timers[victim]);
            assert_ring_live(&s);
            assert_eq!(s.ring_len, 3, "{name}");
            assert_eq!(s.stats().stale_skips, 1, "{name}: counted when removed");
            assert_eq!(s.free, victim as u32 + 1, "{name}: its slot is free");
            // The freed slot is the next one taken.
            s.push(Time::from_nanos(6_000), 10);
            assert_eq!(s.pool.len(), 4, "{name}: the pool did not grow");
            assert_ring_live(&s);
            let order: Vec<_> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
            let mut want: Vec<usize> = (0..3).filter(|&k| k != victim).collect();
            want.extend([9, 10]);
            assert_eq!(order, want, "{name}");
            let stats = s.stats();
            assert_eq!(stats.pushes, stats.pops + stats.stale_skips, "{name}");
        }
    }

    #[test]
    fn a_rearm_into_the_same_bucket_replaces_the_entry_in_place() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = s.timer_create();
        s.timer_arm(t, Time::from_nanos(1_000), 1);
        s.timer_arm(t, Time::from_nanos(1_010), 2);
        assert_ring_live(&s);
        assert_eq!((s.ring_len, s.pool.len(), s.len()), (1, 1, 1));
        assert_eq!(s.stats().stale_skips, 1);
        assert_eq!(drain(&mut s), vec![(Time::from_nanos(1_010), 2)]);
        assert_eq!(s.held(), 0);
    }

    #[test]
    fn a_deadline_that_dies_in_due_or_the_overflow_is_removed_later_and_counted_once() {
        let far = Time::from_nanos((NUM_BUCKETS as u64) << (BUCKET_SHIFT + 2));
        for rearm in [false, true] {
            // In `due`: the timer's bucket opens under an earlier event.
            let mut s: Scheduler<u32> = Scheduler::new();
            let t = s.timer_create();
            s.timer_arm(t, Time::from_nanos(100), 1);
            s.push(Time::from_nanos(96), 0);
            assert_eq!(s.pop(), Some((Time::from_nanos(96), 0)));
            assert_eq!((s.ring_len, s.due.len()), (0, 1), "the timer waits in due");
            if rearm {
                s.timer_arm(t, Time::from_nanos(5_000), 2);
            } else {
                s.timer_cancel(t);
            }
            assert_ring_live(&s);
            assert_eq!(s.stats().stale_skips, 0, "the residue waits in due");
            let want = if rearm {
                vec![(Time::from_nanos(5_000), 2)]
            } else {
                vec![]
            };
            assert_eq!(drain(&mut s), want);
            assert_eq!(s.stats().stale_skips, 1, "dropped from due, once");

            // In the overflow: dropped by the cascade that reaches it.
            let mut s: Scheduler<u32> = Scheduler::new();
            let t = s.timer_create();
            s.timer_arm(t, far, 1);
            s.push(far + Duration::nanos(1), 0);
            if rearm {
                s.timer_arm(t, far + Duration::nanos(2), 2);
            } else {
                s.timer_cancel(t);
            }
            let waiting = if rearm { 3 } else { 2 };
            assert_eq!((s.ring_len, s.overflow.len()), (0, waiting));
            assert_eq!(
                s.stats().stale_skips,
                0,
                "the residue waits in the overflow"
            );
            let (_, first) = s.pop().unwrap();
            assert_eq!(first, 0);
            assert_eq!(s.stats().cascades, 1);
            assert_eq!(s.stats().stale_skips, 1, "the cascade dropped it");
            assert_ring_live(&s);
            drain(&mut s);
            let stats = s.stats();
            assert_eq!(stats.pushes, stats.pops + stats.stale_skips);
        }
    }

    #[test]
    fn a_cascade_hands_a_spilled_timer_its_link() {
        // A timer armed past the horizon spills into the ring when the
        // clock nears it; a cancel there unlinks it like any ring entry.
        let span = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = s.timer_create();
        s.push(Time::from_nanos(span + 10), 0);
        s.timer_arm(t, Time::from_nanos(span + span / 2), 1);
        assert_eq!(s.overflow.len(), 2);
        assert_eq!(s.pop(), Some((Time::from_nanos(span + 10), 0)));
        assert_eq!(s.ring_len, 1, "the timer spilled into the ring");
        assert_ring_live(&s);
        s.timer_cancel(t);
        assert_eq!((s.ring_len, s.stats().stale_skips), (0, 1));
        assert_ring_live(&s);
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn pool_never_outgrows_the_pending_peak_and_reuses_indices() {
        // A steady population: 256 self-rescheduling events and 32
        // timers armed 100–200 µs out on every pop, one in five of them
        // cancelled instead. A far timer sits in the overflow until the
        // clock nears it. The run covers four revolutions. A dead
        // deadline leaves the ring with the call that killed it, so the
        // pool holds no slack for the dead: its length never exceeds the
        // peak of live ring entries, read after every call.
        let revolution = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        const FAR: u32 = u32::MAX;
        const EXPIRY: u32 = u32::MAX - 1;
        let mut s: Scheduler<u32> = Scheduler::new();
        let timers: Vec<TimerId> = (0..32).map(|_| s.timer_create()).collect();
        let far = s.timer_create();
        s.timer_arm(far, Time::from_nanos(2 * revolution + 5), FAR);
        for i in 0..256 {
            s.push(Time::from_nanos(i * 7), i as u32);
        }
        // Live entries in the ring: every live one not in `due` or the
        // overflow (both hold only what a walk of them finds live).
        let live_in_ring = |s: &Scheduler<u32>| {
            let outside = s.due.iter().chain(&s.overflow);
            s.len() - outside.filter(|e| !s.is_stale(e)).count()
        };
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut peak = 0;
        let mut check = |s: &Scheduler<u32>| {
            peak = peak.max(live_in_ring(s));
            assert!(
                s.pool.len() <= peak,
                "pool {} > live peak {peak}",
                s.pool.len()
            );
            peak
        };
        let mut calls = 0u64;
        while s.now().as_nanos() < 4 * revolution {
            let (t, e) = s.pop().unwrap();
            check(&s);
            if e == FAR || e == EXPIRY {
                continue;
            }
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = rng >> 33;
            s.push(t + Duration::nanos(256 + r % 2_000), e);
            check(&s);
            let timer = timers[r as usize % timers.len()];
            if r % 5 == 0 {
                s.timer_cancel(timer);
            } else {
                s.timer_arm(timer, t + Duration::micros(100 + r % 100), EXPIRY);
            }
            check(&s);
            calls += 1;
            if calls % 4_096 == 0 {
                assert_ring_live(&s);
            }
        }
        let peak = check(&s);
        let stats = s.stats();
        assert_eq!(stats.cascades, 1, "the far timer cascaded");
        assert!(stats.stale_skips > calls / 2, "the dead were counted");
        assert!(
            s.pool.len() * 50 < stats.pushes as usize,
            "pool {} for {} pushes",
            s.pool.len(),
            stats.pushes
        );

        // Drain, then fill the ring back to its peak: every entry takes
        // an index, or capacity, that the first run left behind.
        while s.pop().is_some() {}
        assert_eq!(s.held(), 0);
        let capacity = s.pool.capacity();
        let now = s.now();
        for i in 0..peak as u64 {
            s.push(now + Duration::nanos(256 + i % 100_000), 0);
        }
        assert_eq!(s.ring_len, peak);
        assert!(s.pool.len() <= peak);
        assert_eq!(s.pool.capacity(), capacity, "the refill grew the pool");
        assert_eq!(drain(&mut s).len(), peak);
    }
}
