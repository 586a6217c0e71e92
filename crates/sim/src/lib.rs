//! # gtt-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the lowest layer of the GT-TSCH reproduction. It provides
//! the building blocks every other crate relies on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulation time,
//! * [`Pcg32`] / [`SplitMix64`] — small, fast, *fully deterministic* PRNGs
//!   whose streams never change between releases (unlike `rand`'s
//!   `SmallRng`), so every experiment in the paper reproduction is exactly
//!   replayable from a seed,
//! * [`EventQueue`] — a stable-ordered future event list,
//! * [`Timer`] — periodic and one-shot timers checked at slot boundaries,
//! * [`trace`] — lightweight structured trace hooks used by the engine and
//!   the test suite.
//!
//! # Example
//!
//! ```
//! use gtt_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(15), "slot 1");
//! q.schedule(SimTime::ZERO, "slot 0");
//! let (t0, e0) = q.pop().unwrap();
//! assert_eq!(t0, SimTime::ZERO);
//! assert_eq!(e0, "slot 0");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod rng;
pub mod time;
pub mod timer;
pub mod trace;

pub use events::EventQueue;
pub use rng::{Pcg32, SplitMix64};
pub use time::{SimDuration, SimTime};
pub use timer::Timer;
