//! Physical radio channels.

use std::fmt;

/// An IEEE 802.15.4 physical channel number (11–26 in the 2.4 GHz band).
///
/// This is the channel a radio is actually tuned to in a given timeslot,
/// *after* TSCH channel hopping has been applied. The MAC layer's
/// `ChannelOffset` is a different concept (an index into the hopping
/// sequence) and lives in `gtt-mac`; collisions are resolved here, on
/// physical channels, which is what makes hash-collided channel offsets
/// in Orchestra produce real interference (paper §III).
///
/// # Example
///
/// ```
/// use gtt_net::PhysicalChannel;
/// let ch = PhysicalChannel::new(17);
/// assert_eq!(ch.number(), 17);
/// assert_eq!(ch.to_string(), "ch17");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysicalChannel(u8);

impl PhysicalChannel {
    /// Creates a physical channel from its IEEE channel number.
    pub const fn new(number: u8) -> Self {
        PhysicalChannel(number)
    }

    /// The IEEE channel number.
    pub const fn number(self) -> u8 {
        self.0
    }

    /// True if this is a valid 2.4 GHz O-QPSK channel (11–26).
    pub const fn is_two_point_four_ghz(self) -> bool {
        self.0 >= 11 && self.0 <= 26
    }
}

impl fmt::Display for PhysicalChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl From<u8> for PhysicalChannel {
    fn from(number: u8) -> Self {
        PhysicalChannel(number)
    }
}

impl From<PhysicalChannel> for u8 {
    fn from(ch: PhysicalChannel) -> Self {
        ch.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let ch = PhysicalChannel::from(21u8);
        assert_eq!(u8::from(ch), 21);
        assert_eq!(ch.number(), 21);
    }

    #[test]
    fn band_check() {
        assert!(PhysicalChannel::new(11).is_two_point_four_ghz());
        assert!(PhysicalChannel::new(26).is_two_point_four_ghz());
        assert!(!PhysicalChannel::new(10).is_two_point_four_ghz());
        assert!(!PhysicalChannel::new(27).is_two_point_four_ghz());
    }
}
