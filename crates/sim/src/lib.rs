//! # irn-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate every other crate in the workspace builds
//! on: a virtual clock with nanosecond resolution, a ladder-queue
//! [`Scheduler`] with deterministic FIFO tie-breaking and O(1)
//! cancellable timers, and a seeded random-number generator. (The
//! binary-heap queue the scheduler is differentially tested against
//! lives with the tests, in `irn-integration`.)
//!
//! The paper's evaluation ("Revisiting Network Support for RDMA",
//! SIGCOMM 2018) ran on a vendor-internal OMNET++/INET model. This crate
//! reproduces the *kernel* of such a simulator with two properties the
//! reproduction depends on:
//!
//! 1. **Exact determinism.** Two runs with the same seed produce
//!    bit-identical results, on any platform. All randomness flows through
//!    [`SimRng`]; simultaneous events fire in insertion order.
//! 2. **No wall-clock, no I/O, no threads.** Virtual time advances only
//!    when events fire, so million-packet experiments run as fast as the
//!    CPU allows and unit tests can assert on precise timestamps.
//!
//! ## Example
//!
//! ```
//! use irn_sim::{Scheduler, Time, Duration};
//!
//! let mut q: Scheduler<&'static str> = Scheduler::new();
//! q.push(Time::ZERO + Duration::micros(5), "second");
//! q.push(Time::ZERO, "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Time::ZERO, "first"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod scheduler;
mod time;

pub use rng::SimRng;
pub use scheduler::{SchedStats, SchedulePort, Scheduler, TimerId};
pub use time::{Duration, Time};
