//! # gtt-mac — IEEE 802.15.4e TSCH medium access control
//!
//! A from-scratch model of the TSCH MAC mode used by the GT-TSCH paper:
//!
//! * [`Asn`] — the absolute slot number that synchronizes the network,
//! * [`HoppingSequence`] / [`ChannelOffset`] — TSCH channel hopping
//!   (`channel = sequence[(ASN + offset) % len]`, §6.2.6.3 of the
//!   standard), defaulting to the paper's Table II sequence,
//! * [`Cell`] / [`Slotframe`] / [`Schedule`] — the Channel Distribution
//!   Usage matrix: cells addressed by (slot offset, channel offset) with
//!   TSCH link options (Tx/Rx/Shared) and a scheduler-facing class
//!   (Broadcast / SixP / Data / Shared — the paper's five timeslot types,
//!   with Sleep as the absence of a cell),
//! * [`CyclicUnion`] — the cyclic-union index the event-driven engine
//!   asks for a node's listen and backoff-qualifying slots: exact counts
//!   and next/n-th lookups over several periodic chains in closed form,
//! * [`TschMac`] — the per-node MAC state machine: slot planning, queueing,
//!   acknowledgements, retransmission (up to 4, Table II), exponential
//!   backoff in shared cells, duty-cycle accounting and per-neighbor
//!   [`LinkStats`] feeding the ETX metric of the paper's §VII-B.
//!
//! The MAC is generic over payload type `P`: upper layers (the engine)
//! define what rides inside frames; the MAC never inspects payloads.
//!
//! # Example
//!
//! ```
//! use gtt_mac::{Asn, ChannelOffset, HoppingSequence};
//!
//! let hop = HoppingSequence::paper_default();
//! // Same (slot, offset) maps to different physical channels over time —
//! // that is the "channel hopping" in Time-Slotted Channel Hopping.
//! let a = hop.channel(Asn::new(0), ChannelOffset::new(0));
//! let b = hop.channel(Asn::new(1), ChannelOffset::new(0));
//! assert_ne!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airtime;
pub mod asn;
pub mod backoff;
pub mod cell;
pub mod config;
pub mod hopping;
pub mod mac;
pub mod slotframe;
pub mod stats;
pub mod traffic;

pub use asn::{Asn, SlotOffset};
pub use backoff::SharedCellBackoff;
pub use cell::{Cell, CellClass, CellOptions};
pub use config::MacConfig;
pub use hopping::{ChannelOffset, HoppingSequence};
pub use mac::{MacCounters, SlotAction, SlotResult, TschMac};
pub use slotframe::{CyclicUnion, Schedule, Slotframe, SlotframeHandle};
pub use stats::{EtxEstimator, LinkStats};
pub use traffic::TrafficClass;
