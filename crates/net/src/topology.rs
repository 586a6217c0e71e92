//! Node placement, connectivity and link quality.

use std::collections::BTreeMap;

use crate::geometry::Position;
use crate::id::NodeId;
use crate::spatial::SpatialGrid;

/// How per-link packet reception ratio (PRR) is derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModel {
    /// Every in-range link delivers with PRR 1.0.
    Perfect,
    /// PRR is 1.0 out to `plateau · range`, then falls linearly to
    /// `edge_prr` at exactly `range`. This mirrors Cooja's UDGM-with-
    /// distance-loss configuration used in low-power IoT evaluations.
    DistanceFalloff {
        /// Fraction of the range with perfect reception (0..=1).
        plateau: f64,
        /// PRR at the very edge of the communication range (0..=1).
        edge_prr: f64,
    },
    /// Every in-range link has this fixed PRR.
    Fixed(f64),
}

impl Default for LinkModel {
    fn default() -> Self {
        // Matches the "good but not perfect links" regime of the paper's
        // testbed: nodes near their parent see PRR ≈ 1, edge links ~0.8.
        LinkModel::DistanceFalloff {
            plateau: 0.6,
            edge_prr: 0.8,
        }
    }
}

impl LinkModel {
    fn prr_at(&self, distance: f64, range: f64) -> f64 {
        if distance > range {
            return 0.0;
        }
        match *self {
            LinkModel::Perfect => 1.0,
            LinkModel::Fixed(p) => p.clamp(0.0, 1.0),
            LinkModel::DistanceFalloff { plateau, edge_prr } => {
                let knee = plateau.clamp(0.0, 1.0) * range;
                if distance <= knee || range <= knee {
                    1.0
                } else {
                    let t = (distance - knee) / (range - knee);
                    1.0 + t * (edge_prr.clamp(0.0, 1.0) - 1.0)
                }
            }
        }
    }
}

/// Immutable description of node placement and link quality.
///
/// Built with [`TopologyBuilder`]; consumed by the
/// [`RadioMedium`](crate::RadioMedium) for per-slot resolution and by
/// scenario builders for sanity checks.
#[derive(Debug, PartialEq)]
pub struct Topology {
    positions: Vec<Position>,
    range: f64,
    interference_factor: f64,
    link_model: LinkModel,
    prr_overrides: BTreeMap<(NodeId, NodeId), f64>,
    /// Per-node audible peers (within interference range), in id order —
    /// precomputed at build time and updated incrementally on every
    /// [`Topology::set_position`] call (the only way positions change),
    /// so it never goes stale; PRR overrides affect link quality, not
    /// audibility. The event-driven engine walks this to find the
    /// listeners a transmission could reach without scanning all nodes.
    audible_adj: Vec<Vec<NodeId>>,
    /// Per-node in-range peers, in id order — the communication-range
    /// subset of `audible_adj` (interference factor ≥ 1 guarantees
    /// in-range ⊆ audible), maintained by the same incremental updates.
    range_adj: Vec<Vec<NodeId>>,
    /// Grid-bucketed positions (cell side = interference range):
    /// audibility queries enumerate the 3×3 cell block around a node
    /// instead of all pairs, making `build` O(n·k) and `set_position`
    /// output-sensitive.
    grid: SpatialGrid,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        Topology {
            positions: self.positions.clone(),
            range: self.range,
            interference_factor: self.interference_factor,
            link_model: self.link_model,
            prr_overrides: self.prr_overrides.clone(),
            audible_adj: self.audible_adj.clone(),
            range_adj: self.range_adj.clone(),
            grid: self.grid.clone(),
        }
    }

    // Allocation-reusing refresh: the island-parallel engine re-clones
    // the topology into pooled sub-networks on every `run_until` window,
    // and `Vec::clone_from` reuses the adjacency row buffers instead of
    // reallocating ~n vectors per island per window.
    fn clone_from(&mut self, source: &Self) {
        self.positions.clone_from(&source.positions);
        self.range = source.range;
        self.interference_factor = source.interference_factor;
        self.link_model = source.link_model;
        self.prr_overrides.clone_from(&source.prr_overrides);
        self.audible_adj.clone_from(&source.audible_adj);
        self.range_adj.clone_from(&source.range_adj);
        self.grid.clone_from(&source.grid);
    }
}

/// Removes `id` from a sorted row; no-op if absent.
fn remove_sorted(row: &mut Vec<NodeId>, id: NodeId) {
    if let Ok(pos) = row.binary_search(&id) {
        row.remove(pos);
    }
}

/// Inserts `id` into a sorted row at its sorted position; no-op if present.
fn insert_sorted(row: &mut Vec<NodeId>, id: NodeId) {
    if let Err(pos) = row.binary_search(&id) {
        row.insert(pos, id);
    }
}

impl Topology {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterator over all node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len()).map(NodeId::from_index)
    }

    /// Position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Communication range in metres.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Interference range in metres (≥ communication range).
    pub fn interference_range(&self) -> f64 {
        self.range * self.interference_factor
    }

    /// Interference range as a multiple of the communication range (the
    /// value given to [`TopologyBuilder::interference_factor`]).
    pub fn interference_factor(&self) -> f64 {
        self.interference_factor
    }

    /// The link-quality model distances are mapped through.
    pub fn link_model(&self) -> LinkModel {
        self.link_model
    }

    /// All explicit PRR overrides, in `(a, b)` key order.
    pub fn prr_overrides(&self) -> impl Iterator<Item = ((NodeId, NodeId), f64)> + '_ {
        self.prr_overrides.iter().map(|(&k, &v)| (k, v))
    }

    /// Distance between two nodes in metres.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance_to(self.position(b))
    }

    /// True if `a` and `b` are distinct nodes within communication range.
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.distance(a, b) <= self.range
    }

    /// True if a transmission by `tx` is *audible* at `listener` — i.e.
    /// within interference range. Audible-but-not-in-range transmissions
    /// corrupt concurrent receptions without being decodable.
    pub fn audible(&self, tx: NodeId, listener: NodeId) -> bool {
        // Squared-distance compare: this runs per (listener × transmission)
        // in the medium's slot resolution; the sqrt is pure overhead.
        tx != listener
            && self.positions[tx.index()].distance_sq(self.positions[listener.index()])
                <= self.interference_range() * self.interference_range()
    }

    /// Packet reception ratio of the directed link `a → b`.
    ///
    /// Returns 0.0 for out-of-range pairs and for `a == b`. Explicit
    /// overrides installed via [`TopologyBuilder::link_prr`] win over the
    /// distance model.
    pub fn prr(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            return 0.0;
        }
        // Overrides are a fault-injection niche; don't walk the map on
        // every reception draw of an override-free run.
        if !self.prr_overrides.is_empty() {
            if let Some(&p) = self.prr_overrides.get(&(a, b)) {
                return p;
            }
        }
        self.link_model.prr_at(self.distance(a, b), self.range)
    }

    /// Overrides the PRR of the directed link `a → b` at runtime (fault
    /// injection: a wall goes up, a microwave turns on…).
    ///
    /// # Panics
    ///
    /// Panics if `prr` is outside `[0, 1]`.
    pub fn set_link_prr(&mut self, a: NodeId, b: NodeId, prr: f64) {
        assert!(
            (0.0..=1.0).contains(&prr),
            "PRR must be in [0,1], got {prr}"
        );
        self.prr_overrides.insert((a, b), prr);
    }

    /// The explicit runtime override installed on `a → b`, if any
    /// (distinct from [`Topology::prr`], which falls back to the
    /// distance model).
    pub fn link_prr_override(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.prr_overrides.get(&(a, b)).copied()
    }

    /// Removes the runtime override on `a → b`, restoring the distance
    /// model's PRR. Links without an override are ignored. Prefer this
    /// over re-inserting the nominal value when undoing fault injection:
    /// an emptied override map keeps [`Topology::prr`]'s override-free
    /// fast path alive on the reception hot path.
    pub fn clear_link_prr(&mut self, a: NodeId, b: NodeId) {
        self.prr_overrides.remove(&(a, b));
    }

    /// Moves `node` to `to`, updating the audibility adjacency
    /// incrementally.
    ///
    /// Mobility support: link PRRs follow from the new distances
    /// immediately (the link model is evaluated per query), and the
    /// precomputed neighbor lists are patched here so per-slot consumers
    /// keep their O(degree) walks. Only the moved node's neighborhood is
    /// recomputed — its old rows double as the reverse-edge lists
    /// (audibility and range are symmetric), and candidates for the new
    /// rows come from the spatial grid's 3×3 cell block, so a hop costs
    /// O(k log k) for k bucket-local candidates instead of the old O(n²)
    /// full rebuild. Explicit PRR overrides are left untouched — they
    /// are pinned faults, not distance-derived.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_position(&mut self, node: NodeId, to: Position) {
        let i = node.index();
        // Detach: symmetry means the node's own rows list exactly the
        // peer rows that mention it.
        let mut audible_row = std::mem::take(&mut self.audible_adj[i]);
        for &peer in &audible_row {
            remove_sorted(&mut self.audible_adj[peer.index()], node);
        }
        let mut range_row = std::mem::take(&mut self.range_adj[i]);
        for &peer in &range_row {
            remove_sorted(&mut self.range_adj[peer.index()], node);
        }
        self.positions[i] = to;
        self.grid.relocate(node, to);
        // Recompute only the moved node's rows, reusing their buffers.
        audible_row.clear();
        self.grid.for_each_candidate(self.grid.cell(node), |b| {
            if self.audible(node, b) {
                audible_row.push(b);
            }
        });
        audible_row.sort_unstable();
        audible_row.dedup();
        range_row.clear();
        range_row.extend(
            audible_row
                .iter()
                .copied()
                .filter(|&b| self.in_range(node, b)),
        );
        for &peer in &audible_row {
            insert_sorted(&mut self.audible_adj[peer.index()], node);
        }
        for &peer in &range_row {
            insert_sorted(&mut self.range_adj[peer.index()], node);
        }
        self.audible_adj[i] = audible_row;
        self.range_adj[i] = range_row;
    }

    /// Recomputes both adjacency tables from the spatial grid: O(n·k)
    /// for k bucket-local candidates per node, instead of all pairs.
    fn rebuild_adjacency(&mut self) {
        let n = self.positions.len();
        let audible: Vec<Vec<NodeId>> = (0..n)
            .map(|i| {
                let a = NodeId::from_index(i);
                let mut row = Vec::new();
                self.grid.for_each_candidate(self.grid.cell(a), |b| {
                    if self.audible(a, b) {
                        row.push(b);
                    }
                });
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        let range: Vec<Vec<NodeId>> = (0..n)
            .map(|i| {
                let a = NodeId::from_index(i);
                audible[i]
                    .iter()
                    .copied()
                    .filter(|&b| self.in_range(a, b))
                    .collect()
            })
            .collect();
        self.audible_adj = audible;
        self.range_adj = range;
    }

    /// All in-range neighbors of `node`, in id order. Precomputed: the
    /// communication-range subset of [`Topology::audible_neighbors`],
    /// O(degree) to walk, no distance math.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.range_adj[node.index()]
    }

    /// All nodes a transmission by `node` is audible at (interference
    /// range), in id order. Precomputed: O(degree) to walk, no distance
    /// math.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn audible_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.audible_adj[node.index()]
    }

    /// True if the connectivity graph is connected (ignoring link quality).
    ///
    /// Scenario builders assert this before running an experiment so a bad
    /// placement fails fast instead of producing a 0% PDR run.
    pub fn is_connected(&self) -> bool {
        if self.positions.is_empty() {
            return true;
        }
        let n = self.positions.len();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            for &nb in &self.range_adj[i] {
                let j = nb.index();
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == n
    }

    /// Connected components of the *audibility* graph — the partition
    /// islands of the radio medium.
    ///
    /// Two nodes are in the same island iff a chain of
    /// interference-range edges connects them; nodes in different
    /// islands can never exchange energy (not even as interference), so
    /// a slot can be resolved island-by-island in any order — or in
    /// parallel — with identical outcomes.
    ///
    /// Deterministic canonical form: each island is sorted by node id
    /// and islands are ordered by their smallest member, so the result
    /// is a pure function of the audibility graph.
    pub fn audibility_islands(&self) -> Vec<Vec<NodeId>> {
        let n = self.positions.len();
        // Union-find with path halving over the precomputed (bucket-
        // local) audibility edges. NodeId is u16-backed, so u32 parents
        // always fit.
        fn find(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                parent[i as usize] = parent[parent[i as usize] as usize];
                i = parent[i as usize];
            }
            i
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for i in 0..n {
            for &nb in &self.audible_adj[i] {
                let a = find(&mut parent, i as u32);
                let b = find(&mut parent, nb.index() as u32);
                if a != b {
                    // Root at the smaller id: with path halving this
                    // keeps the forest shallow and the final scan cheap.
                    parent[a.max(b) as usize] = a.min(b);
                }
            }
        }
        // Group 0..n by root: the ascending scan yields members in id
        // order and islands ordered by their smallest member — the
        // canonical form — with no sorting pass.
        let mut island_of_root = vec![usize::MAX; n];
        let mut islands: Vec<Vec<NodeId>> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i as u32) as usize;
            let slot = island_of_root[root];
            let slot = if slot == usize::MAX {
                island_of_root[root] = islands.len();
                islands.push(Vec::new());
                islands.len() - 1
            } else {
                slot
            };
            islands[slot].push(NodeId::from_index(i));
        }
        islands
    }
}

/// Builder for [`Topology`] (C-BUILDER).
///
/// # Example
///
/// ```
/// use gtt_net::{LinkModel, NodeId, Position, TopologyBuilder};
///
/// let topo = TopologyBuilder::new(40.0)
///     .link_model(LinkModel::Perfect)
///     .interference_factor(1.5)
///     .node(Position::new(0.0, 0.0))
///     .node(Position::new(30.0, 0.0))
///     .link_prr(NodeId::new(0), NodeId::new(1), 0.9)
///     .build();
/// assert_eq!(topo.len(), 2);
/// assert_eq!(topo.prr(NodeId::new(0), NodeId::new(1)), 0.9);
/// // The override is directional; the reverse uses the model.
/// assert_eq!(topo.prr(NodeId::new(1), NodeId::new(0)), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    positions: Vec<Position>,
    range: f64,
    interference_factor: f64,
    link_model: LinkModel,
    prr_overrides: BTreeMap<(NodeId, NodeId), f64>,
}

impl TopologyBuilder {
    /// Starts a topology with the given communication range (metres).
    ///
    /// # Panics
    ///
    /// Panics if `range` is not finite and positive.
    pub fn new(range: f64) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "communication range must be positive, got {range}"
        );
        TopologyBuilder {
            positions: Vec::new(),
            range,
            interference_factor: 1.0,
            link_model: LinkModel::default(),
            prr_overrides: BTreeMap::new(),
        }
    }

    /// Adds a node at `position`; ids are assigned in insertion order.
    pub fn node(mut self, position: Position) -> Self {
        self.positions.push(position);
        self
    }

    /// Adds several nodes at once.
    pub fn nodes<I: IntoIterator<Item = Position>>(mut self, positions: I) -> Self {
        self.positions.extend(positions);
        self
    }

    /// Sets the link-quality model.
    pub fn link_model(mut self, model: LinkModel) -> Self {
        self.link_model = model;
        self
    }

    /// Sets the interference range as a multiple of the communication
    /// range (must be ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn interference_factor(mut self, factor: f64) -> Self {
        assert!(
            factor >= 1.0,
            "interference range cannot be smaller than communication range"
        );
        self.interference_factor = factor;
        self
    }

    /// Overrides the PRR of the directed link `a → b`.
    ///
    /// # Panics
    ///
    /// Panics if `prr` is outside `[0, 1]`.
    pub fn link_prr(mut self, a: NodeId, b: NodeId, prr: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prr),
            "PRR must be in [0,1], got {prr}"
        );
        self.prr_overrides.insert((a, b), prr);
        self
    }

    /// Overrides the PRR of both directions of the link `a ↔ b`.
    pub fn link_prr_symmetric(self, a: NodeId, b: NodeId, prr: f64) -> Self {
        self.link_prr(a, b, prr).link_prr(b, a, prr)
    }

    /// Finalizes the topology: buckets the positions on the spatial grid
    /// and precomputes both adjacency tables in O(n·k).
    pub fn build(self) -> Topology {
        let grid = SpatialGrid::build(self.range * self.interference_factor, &self.positions);
        let mut topo = Topology {
            positions: self.positions,
            range: self.range,
            interference_factor: self.interference_factor,
            link_model: self.link_model,
            prr_overrides: self.prr_overrides,
            audible_adj: Vec::new(),
            range_adj: Vec::new(),
            grid,
        };
        topo.rebuild_adjacency();
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(spacing: f64, n: usize, range: f64) -> Topology {
        TopologyBuilder::new(range)
            .link_model(LinkModel::Perfect)
            .nodes((0..n).map(|i| Position::new(i as f64 * spacing, 0.0)))
            .build()
    }

    #[test]
    fn in_range_and_neighbors() {
        let t = line(30.0, 4, 35.0);
        let n1 = NodeId::new(1);
        assert_eq!(t.neighbors(n1), [NodeId::new(0), NodeId::new(2)]);
        assert!(!t.in_range(NodeId::new(0), NodeId::new(2)));
        assert!(!t.in_range(n1, n1), "a node is not its own neighbor");
        assert_eq!(t.neighbors(NodeId::new(0)), [n1]);
    }

    #[test]
    fn neighbors_follow_moves_and_stay_in_id_order() {
        let mut t = line(30.0, 4, 35.0);
        let n3 = NodeId::new(3);
        // Walk n3 between n0 and n1: every row it enters stays sorted.
        t.set_position(n3, Position::new(15.0, 0.0));
        assert_eq!(t.neighbors(n3), [NodeId::new(0), NodeId::new(1)]);
        assert_eq!(t.neighbors(NodeId::new(0)), [NodeId::new(1), n3]);
        assert_eq!(
            t.neighbors(NodeId::new(1)),
            [NodeId::new(0), NodeId::new(2), n3]
        );
        assert_eq!(t.neighbors(NodeId::new(2)), [NodeId::new(1)]);
    }

    #[test]
    fn incremental_moves_match_a_fresh_build() {
        // A sequence of moves (cell changes, island splits, returns) must
        // leave the topology byte-equal to one built from the final
        // positions — including the spatial grid's internal state.
        let mut t = TopologyBuilder::new(30.0)
            .interference_factor(1.5)
            .nodes((0..6).map(|i| Position::new(f64::from(i) * 25.0, 0.0)))
            .build();
        let moves = [
            (NodeId::new(2), Position::new(500.0, 500.0)),
            (NodeId::new(0), Position::new(-40.0, 10.0)),
            (NodeId::new(2), Position::new(26.0, 1.0)),
            (NodeId::new(5), Position::new(26.0, -1.0)),
        ];
        for (node, to) in moves {
            t.set_position(node, to);
        }
        let rebuilt = TopologyBuilder::new(30.0)
            .interference_factor(1.5)
            .nodes(t.node_ids().map(|id| t.position(id)).collect::<Vec<_>>())
            .build();
        assert_eq!(t, rebuilt);
    }

    #[test]
    fn audible_neighbors_precomputed_in_id_order() {
        let t = TopologyBuilder::new(30.0)
            .interference_factor(2.0)
            .nodes((0..4).map(|i| Position::new(i as f64 * 35.0, 0.0)))
            .build();
        // Comm range 30 m, interference 60 m: each node "hears" nodes up
        // to one position away (35 m) but not two (70 m).
        assert_eq!(
            t.audible_neighbors(NodeId::new(1)),
            [NodeId::new(0), NodeId::new(2)]
        );
        assert_eq!(t.audible_neighbors(NodeId::new(0)), [NodeId::new(1)]);
        for id in t.node_ids() {
            for &peer in t.audible_neighbors(id) {
                assert!(t.audible(id, peer));
            }
        }
    }

    #[test]
    fn set_position_rebuilds_audibility_and_prr() {
        let mut t = line(30.0, 3, 35.0);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        assert!(!t.in_range(a, c));
        // Walk n2 next to n0: n0↔n2 become audible, n1↔n2 go silent.
        t.set_position(c, Position::new(10.0, 0.0));
        assert_eq!(t.audible_neighbors(a), [b, c]);
        assert_eq!(t.audible_neighbors(c), [a, b]); // n1 is 20 m away
        assert_eq!(t.prr(a, c), 1.0, "perfect link model at 10 m");
        t.set_position(c, Position::new(200.0, 0.0));
        assert_eq!(t.audible_neighbors(c), [] as [NodeId; 0]);
        assert_eq!(t.prr(a, c), 0.0);
    }

    #[test]
    fn accessors_expose_build_inputs() {
        let t = TopologyBuilder::new(25.0)
            .interference_factor(1.5)
            .link_model(LinkModel::Fixed(0.7))
            .node(Position::ORIGIN)
            .node(Position::new(10.0, 0.0))
            .link_prr(NodeId::new(0), NodeId::new(1), 0.25)
            .build();
        assert_eq!(t.interference_factor(), 1.5);
        assert_eq!(t.link_model(), LinkModel::Fixed(0.7));
        let overrides: Vec<_> = t.prr_overrides().collect();
        assert_eq!(overrides, vec![((NodeId::new(0), NodeId::new(1)), 0.25)]);
    }

    #[test]
    fn interference_extends_beyond_range() {
        let t = TopologyBuilder::new(30.0)
            .interference_factor(2.0)
            .node(Position::new(0.0, 0.0))
            .node(Position::new(50.0, 0.0))
            .build();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(!t.in_range(a, b));
        assert!(t.audible(a, b), "50m is inside the 60m interference range");
    }

    #[test]
    fn distance_falloff_shape() {
        let model = LinkModel::DistanceFalloff {
            plateau: 0.5,
            edge_prr: 0.5,
        };
        assert_eq!(model.prr_at(0.0, 100.0), 1.0);
        assert_eq!(model.prr_at(50.0, 100.0), 1.0);
        assert!((model.prr_at(75.0, 100.0) - 0.75).abs() < 1e-12);
        assert!((model.prr_at(100.0, 100.0) - 0.5).abs() < 1e-12);
        assert_eq!(model.prr_at(101.0, 100.0), 0.0);
    }

    #[test]
    fn prr_override_beats_model() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t = TopologyBuilder::new(100.0)
            .link_model(LinkModel::Perfect)
            .node(Position::ORIGIN)
            .node(Position::new(10.0, 0.0))
            .link_prr(a, b, 0.25)
            .build();
        assert_eq!(t.prr(a, b), 0.25);
        assert_eq!(t.prr(b, a), 1.0);
        assert_eq!(t.prr(a, a), 0.0);
    }

    #[test]
    fn out_of_range_prr_is_zero() {
        let t = line(60.0, 2, 50.0);
        assert_eq!(t.prr(NodeId::new(0), NodeId::new(1)), 0.0);
    }

    #[test]
    fn connectivity_detection() {
        assert!(line(30.0, 5, 35.0).is_connected());
        assert!(!line(60.0, 3, 50.0).is_connected());
        assert!(TopologyBuilder::new(10.0).build().is_connected());
    }

    #[test]
    fn audibility_islands_partition_by_component() {
        // Two 3-node clusters 1 km apart: two islands, canonical order.
        let t = TopologyBuilder::new(40.0)
            .nodes((0..3).map(|i| Position::new(f64::from(i) * 30.0, 0.0)))
            .nodes((0..3).map(|i| Position::new(1000.0 + f64::from(i) * 30.0, 0.0)))
            .build();
        let islands = t.audibility_islands();
        assert_eq!(islands.len(), 2);
        assert_eq!(
            islands[0],
            (0..3).map(NodeId::from_index).collect::<Vec<_>>()
        );
        assert_eq!(
            islands[1],
            (3..6).map(NodeId::from_index).collect::<Vec<_>>()
        );
        // A connected line is a single island containing everyone.
        assert_eq!(line(30.0, 5, 35.0).audibility_islands().len(), 1);
        // The empty topology has no islands.
        assert!(TopologyBuilder::new(10.0)
            .build()
            .audibility_islands()
            .is_empty());
    }

    #[test]
    fn audibility_islands_follow_interference_range_and_moves() {
        // 60 m apart with 50 m comm range: two islands — but with
        // interference factor 1.5 the nodes are mutually audible, so one.
        let mut t = TopologyBuilder::new(50.0)
            .interference_factor(1.5)
            .node(Position::ORIGIN)
            .node(Position::new(60.0, 0.0))
            .build();
        assert_eq!(t.audibility_islands().len(), 1);
        // Moving the node out of interference range splits the island.
        t.set_position(NodeId::new(1), Position::new(200.0, 0.0));
        assert_eq!(t.audibility_islands().len(), 2);
        t.set_position(NodeId::new(1), Position::new(40.0, 0.0));
        assert_eq!(t.audibility_islands().len(), 1);
    }

    #[test]
    fn fixed_model_clamps() {
        let m = LinkModel::Fixed(1.5);
        assert_eq!(m.prr_at(1.0, 10.0), 1.0);
        let m = LinkModel::Fixed(-0.5);
        assert_eq!(m.prr_at(1.0, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_range_rejected() {
        let _ = TopologyBuilder::new(0.0);
    }

    #[test]
    #[should_panic(expected = "PRR must be in [0,1]")]
    fn bad_override_rejected() {
        let _ = TopologyBuilder::new(10.0).link_prr(NodeId::new(0), NodeId::new(1), 1.2);
    }
}
