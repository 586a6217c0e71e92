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
//! * [`Timer`] — periodic and one-shot timers checked at slot boundaries.
//!
//! # Example
//!
//! ```
//! use gtt_sim::{Pcg32, SimDuration, SimTime};
//!
//! // Equal seeds replay equal streams.
//! let (mut a, mut b) = (Pcg32::new(7), Pcg32::new(7));
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! // Simulated time advances in whole microseconds.
//! let slot = SimDuration::from_millis(15);
//! let t = SimTime::ZERO + slot + slot;
//! assert_eq!(t.saturating_since(SimTime::ZERO).as_millis_f64(), 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod time;
pub mod timer;

pub use rng::{Pcg32, SplitMix64};
pub use time::{SimDuration, SimTime};
pub use timer::Timer;
