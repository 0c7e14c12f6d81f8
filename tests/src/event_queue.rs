//! The reference event queue: a binary heap over virtual time with
//! deterministic FIFO ordering of simultaneous events.
//!
//! The production event loop runs on the ladder-queue
//! [`Scheduler`](irn_sim::Scheduler) (amortized O(1) per op,
//! cancellable timers); this heap is the obviously-correct O(log n)
//! model it is differentially tested against
//! (`tests/tests/scheduler.rs`), which is why it lives here with the
//! other shared test helpers and not in `irn-sim`.
//!
//! Determinism matters: the paper's results hinge on packet-level races
//! (which VOQ a round-robin arbiter visits first, whether a PAUSE frame
//! beats a data packet). A plain `BinaryHeap<(Time, E)>` would order
//! simultaneous events by `E`'s `Ord`, which is arbitrary and fragile;
//! instead every push is stamped with a monotonically increasing sequence
//! number so ties break strictly in insertion order — or, for an event
//! whose number was reserved ahead of its push, in reservation order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use irn_sim::{SchedulePort, Time};

/// Heap entry: ordered by `(time, seq)` ascending. The payload never
/// participates in ordering.
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest entry first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events of type `E` are scheduled at absolute virtual times and popped
/// in nondecreasing time order; events scheduled for the same instant pop
/// in the order they were pushed.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `Time::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: Time::ZERO,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past (before the last popped event) is a logic
    /// error in the caller and panics in debug builds; in release builds
    /// the event fires "now" (time never runs backwards).
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.reserve();
        self.push_reserved(at, seq, event);
    }

    /// Take the sequence number the next push would get, to push under
    /// it later ([`EventQueue::push_reserved`]) or never.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a reserved `seq`: it pops where a
    /// push made at reservation time would have. The heap orders by
    /// `(time, seq)` whatever order entries enter in. The past is
    /// handled as in [`EventQueue::push`].
    pub fn push_reserved(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(
            at >= self.last_popped,
            "scheduled event in the past: {at} < {}",
            self.last_popped
        );
        self.heap.push(Entry {
            time: at.max(self.last_popped),
            seq,
            event,
        });
    }

    /// Remove and return the earliest event, advancing the queue's notion
    /// of "now". Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.heap.pop()?;
        self.last_popped = entry.time;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// The next event (time and payload) without popping it.
    pub fn peek(&self) -> Option<(Time, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event (the queue's "now").
    pub fn now(&self) -> Time {
        self.last_popped
    }
}

/// The reference queue is a [`SchedulePort`] on the same terms as the
/// scheduler, so a layer that emits events (the fabric) can be driven
/// through either.
impl<F, E: From<F>> SchedulePort<F> for EventQueue<E> {
    fn schedule(&mut self, at: Time, ev: F) {
        self.push(at, E::from(ev));
    }

    fn reserve(&mut self) -> u64 {
        EventQueue::reserve(self)
    }

    fn schedule_reserved(&mut self, at: Time, seq: u64, ev: F) {
        self.push_reserved(at, seq, E::from(ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_sim::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(30), "c");
        q.push(Time::from_nanos(10), "a");
        q.push(Time::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(10), 1);
        q.push(Time::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // Schedule another event at the same time as a pending one: the
        // pending (earlier-pushed) one must still pop first.
        q.push(Time::from_nanos(20), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.push(Time::from_nanos(42), ());
        q.pop();
        assert_eq!(q.now(), Time::from_nanos(42));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO + Duration::nanos(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_port_converts_and_keeps_push_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = Time::from_nanos(7);
        SchedulePort::schedule(&mut q, t, 1u32);
        SchedulePort::schedule(&mut q, t, 2u32);
        q.push(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(t, 1), (t, 2), (t, 3)]);
    }

    #[test]
    fn reserved_push_pops_in_its_reserved_place() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = Time::from_nanos(7);
        q.push(t, 1);
        let held = SchedulePort::<u32>::reserve(&mut q);
        let _never_pushed = q.reserve();
        q.push(t, 3);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 3)));
        // Entered late, at the instant of the last pop, under a number
        // below that pop's: next out, the clock where it was.
        q.push(t, 4);
        SchedulePort::schedule_reserved(&mut q, t, held, 2u32);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(t, 2), (t, 4)]);
        assert_eq!(q.now(), t);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(100), ());
        q.pop();
        q.push(Time::from_nanos(50), ());
    }
}
