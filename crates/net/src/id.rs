//! Node identifiers.

use std::fmt;

/// Identifier of a simulated IoT node.
///
/// Ids are dense indices assigned by [`TopologyBuilder`](crate::TopologyBuilder)
/// in insertion order, so they double as `Vec` indices throughout the
/// workspace ([`NodeId::index`]). A newtype keeps them from being confused
/// with slot numbers, channel offsets or queue lengths (C-NEWTYPE).
///
/// # Example
///
/// ```
/// use gtt_net::NodeId;
/// let root = NodeId::new(0);
/// assert_eq!(root.index(), 0);
/// assert_eq!(root.to_string(), "n0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(raw: u16) -> Self {
        NodeId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The id as a `Vec` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u16::MAX`.
    pub fn from_index(index: usize) -> Self {
        assert!(
            index <= u16::MAX as usize,
            "node index {index} out of range"
        );
        NodeId(index as u16)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(raw: u16) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u16 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let id = NodeId::new(7);
        assert_eq!(u16::from(id), 7);
        assert_eq!(NodeId::from(7u16), id);
        assert_eq!(NodeId::from_index(7), id);
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_large() {
        let _ = NodeId::from_index(70_000);
    }
}
