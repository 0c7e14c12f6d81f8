//! Lazily-cancellable timers (the reference model).
//!
//! Production code uses the [`Scheduler`](irn_sim::Scheduler)'s
//! first-class timers ([`Scheduler::timer_arm`](irn_sim::Scheduler) /
//! `timer_cancel`), which remove cancelled deadlines in O(1) instead of
//! scheduling, popping, and discarding them. `TimerSlot` remains as the
//! simple generation-filtering technique the scheduler is
//! differentially tested against.
//!
//! The event queue has no random-access removal, so cancelling a timer by
//! deleting its event would be O(n). Instead each logical timer owns a
//! [`TimerSlot`] holding a generation counter: re-arming or cancelling
//! bumps the generation, and stale expiry events (carrying an old
//! generation) are recognized and dropped when they fire. This is the
//! standard technique in packet-level simulators, where retransmission
//! timers are re-armed on almost every ACK.

use irn_sim::Time;

/// State for one logical, re-armable timer.
///
/// The owner schedules an expiry event carrying `(slot id, generation)`
/// into the global event queue; on delivery, [`TimerSlot::fires`] decides
/// whether that event is still current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerSlot {
    generation: u64,
    /// Expiry time of the currently armed generation, if armed.
    armed_until: Option<Time>,
}

impl Default for TimerSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerSlot {
    /// A fresh, unarmed timer.
    pub const fn new() -> TimerSlot {
        TimerSlot {
            generation: 0,
            armed_until: None,
        }
    }

    /// Arm (or re-arm) the timer to expire at `deadline`; returns the
    /// generation token the caller must embed in the scheduled event.
    pub fn arm(&mut self, deadline: Time) -> u64 {
        self.generation += 1;
        self.armed_until = Some(deadline);
        self.generation
    }

    /// Cancel whatever is armed. Pending expiry events become stale.
    pub fn cancel(&mut self) {
        self.generation += 1;
        self.armed_until = None;
    }

    /// Called when an expiry event with token `generation` fires. Returns
    /// `true` (and disarms) if this event is the live one; `false` if it
    /// is stale and must be ignored.
    pub fn fires(&mut self, generation: u64) -> bool {
        if self.armed_until.is_some() && generation == self.generation {
            self.armed_until = None;
            true
        } else {
            false
        }
    }

    /// True if a live expiry is pending.
    pub fn is_armed(&self) -> bool {
        self.armed_until.is_some()
    }

    /// Deadline of the live expiry, if armed.
    pub fn deadline(&self) -> Option<Time> {
        self.armed_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_sim::Duration;

    #[test]
    fn arm_then_fire() {
        let mut t = TimerSlot::new();
        let g = t.arm(Time::from_nanos(100));
        assert!(t.is_armed());
        assert!(t.fires(g));
        assert!(!t.is_armed());
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut t = TimerSlot::new();
        let g = t.arm(Time::from_nanos(100));
        t.cancel();
        assert!(!t.fires(g));
    }

    #[test]
    fn rearm_invalidates_previous_generation() {
        let mut t = TimerSlot::new();
        let g1 = t.arm(Time::from_nanos(100));
        let g2 = t.arm(Time::from_nanos(200));
        assert!(!t.fires(g1), "old generation must be stale");
        assert!(t.fires(g2));
    }

    #[test]
    fn fire_is_one_shot() {
        let mut t = TimerSlot::new();
        let g = t.arm(Time::from_nanos(50));
        assert!(t.fires(g));
        assert!(!t.fires(g), "a fired timer must not fire again");
    }

    #[test]
    fn deadline_reports_armed_time() {
        let mut t = TimerSlot::new();
        assert_eq!(t.deadline(), None);
        let when = Time::ZERO + Duration::micros(3);
        t.arm(when);
        assert_eq!(t.deadline(), Some(when));
    }
}
