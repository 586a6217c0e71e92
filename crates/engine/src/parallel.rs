//! Island-parallel stepping (the `parallel` feature).
//!
//! Nodes in different connected components of the *audibility* graph
//! ([`Topology::audibility_islands`](gtt_net::Topology::audibility_islands))
//! cannot exchange energy — not even as interference — so a stepping
//! window that contains no topology mutation can be resolved
//! island-by-island in any order, including concurrently. This module
//! exploits that: [`Network::run_until`] with the parallel switch on
//! splits the network into one full-length sub-`Network` per island,
//! runs each on its own scoped thread through the ordinary sequential
//! event core, and merges the results back in canonical island order
//! (islands sorted by smallest member id).
//!
//! # Why the reports are byte-identical
//!
//! Every source of nondeterminism is keyed by node, not by stepping
//! order:
//!
//! * link-error draws come from per-node streams
//!   ([`DrawStreams`](gtt_net::DrawStreams)) keyed by the drawing node,
//! * packet ids are origin-keyed (`origin << 48 | seq`), and
//! * the merge itself copies per-member state and folds the tracker's
//!   member lanes plus integer counter/delay deltas back in canonical
//!   order ([`PacketTracker::absorb_branch`]).
//!
//! Topology mutations (`move_node`, PRR overrides, `kill_node`,
//! `node_mut`) all happen *between* stepping calls, so islands are
//! stable for the whole window and are recomputed fresh on the next
//! call — a mid-run mobility hop that splits or merges islands is
//! handled by construction. `tests/step_equivalence.rs` pins parallel ==
//! sequential == naive-step byte-for-byte, including that case.

use std::collections::BinaryHeap;

use gtt_metrics::TrackerMark;
use gtt_net::NodeId;
use gtt_sim::SimTime;

use crate::network::{Network, ProbeEntry, SlotScratch};
use crate::node::Node;

/// Retained pool of island sub-network shells (ROADMAP carry-over (c)).
///
/// Each `run_until` window needs one full-length sub-`Network` per
/// island. Building them fresh costs n placeholder [`Node`]s plus five
/// O(n) vectors per island per window — fine at 2 islands, ruinous at
/// the hundreds a city-scale scenario produces. The pool keeps the
/// shells alive between windows, keyed by island membership: a shell is
/// only reused for the *exact* member list it was stashed under (hash as
/// fast filter, full member-vector equality as the collision guard), and
/// [`Network::refresh_island_shell`] resets every piece of state a fresh
/// shell would carry, so reuse is pure allocation recycling — reports
/// are byte-identical with and without it.
#[derive(Default)]
pub(crate) struct IslandPool {
    entries: Vec<PoolEntry>,
}

struct PoolEntry {
    key: u64,
    members: Vec<NodeId>,
    sub: Network,
}

/// FNV-1a over the little-endian member ids — a fast filter only;
/// checkout always verifies the full member list before reuse.
fn membership_key(members: &[NodeId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for m in members {
        for b in m.raw().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

impl IslandPool {
    /// A ready-to-run shell for `members`: a pooled one (refreshed in
    /// place) when this exact island was stashed before, a fresh build
    /// otherwise.
    fn checkout(&mut self, parent: &Network, members: &[NodeId]) -> Network {
        let key = membership_key(members);
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.key == key && e.members == members)
        {
            let mut sub = self.entries.swap_remove(pos).sub;
            parent.refresh_island_shell(&mut sub);
            return sub;
        }
        parent.fresh_island_shell()
    }

    /// Returns a merged-out shell to the pool under its membership key.
    ///
    /// The pool is bounded: a mobility-churned partition would otherwise
    /// accumulate one stale shell per historical island. Keeping up to
    /// two generations lets A→B→A island flips still hit; beyond that,
    /// the oldest entries are dropped (deterministic — no clocks).
    fn stash(&mut self, islands_this_window: usize, members: &[NodeId], sub: Network) {
        self.entries.push(PoolEntry {
            key: membership_key(members),
            members: members.to_vec(),
            sub,
        });
        let cap = islands_this_window * 2 + 4;
        if self.entries.len() > cap {
            self.entries.drain(..self.entries.len() - cap);
        }
    }
}

impl Network {
    /// [`Network::run_until`] resolving each partition island on its own
    /// scoped thread. Falls back to the sequential event core when the
    /// audibility graph has fewer than two islands.
    pub(crate) fn run_until_parallel(&mut self, end: SimTime) {
        let islands = self.medium.topology().audibility_islands();
        if islands.len() < 2 {
            self.run_until_event(end);
            return;
        }
        self.ensure_wake_queue();

        let mut island_of = vec![0usize; self.nodes.len()];
        for (k, members) in islands.iter().enumerate() {
            for &m in members {
                island_of[m.index()] = k;
            }
        }

        let mark = self.tracker.mark();
        // Check out one shell per island (pool hits reuse allocations),
        // route pending wake-ups into the owning shell's heap, then move
        // the members in.
        let mut pool = std::mem::take(&mut self.island_pool);
        let mut subs: Vec<Network> = islands
            .iter()
            .map(|members| pool.checkout(self, members))
            .collect();
        for entry in std::mem::take(&mut self.wake) {
            let std::cmp::Reverse((_, i)) = entry;
            subs[island_of[i as usize]].wake.push(entry);
        }
        for (members, sub) in islands.iter().zip(subs.iter_mut()) {
            for &m in members {
                let i = m.index();
                std::mem::swap(&mut sub.nodes[i], &mut self.nodes[i]);
                sub.wake_slot[i] = self.wake_slot[i];
                sub.timer_wake[i] = self.timer_wake[i];
            }
        }

        // The scope joins every island thread and re-raises a panic.
        std::thread::scope(|scope| {
            for sub in subs.iter_mut() {
                scope.spawn(move || sub.run_until_event(end));
            }
        });

        // Merge in canonical island order: islands are disjoint, so the
        // order only decides tracker union tie-breaks on corner cases
        // that disjointness already rules out — but fixing it keeps the
        // whole path a pure function of (seed, experiment). Merged-out
        // shells go back to the pool for the next window.
        for (members, mut sub) in islands.iter().zip(subs) {
            debug_assert_eq!(sub.asn, {
                let slot = self.config.mac.slot_duration;
                gtt_mac::Asn::at_or_after(end, slot)
            });
            self.asn = sub.asn;
            self.merge_island(&mut sub, members, &mark);
            pool.stash(islands.len(), members, sub);
        }
        self.island_pool = pool;
    }

    /// A new full-length sub-network shell: every node a dead
    /// [`Node::placeholder`], no pending wake-ups, all per-node state at
    /// its rest value, ready for members to be swapped in.
    fn fresh_island_shell(&self) -> Network {
        let n = self.nodes.len();
        Network {
            config: self.config.clone(),
            nodes: (0..n)
                .map(|i| Node::placeholder(NodeId::from_index(i), &self.config))
                .collect(),
            // The medium clone carries every node's draw-stream state;
            // the island only advances its own members' streams
            // (listener- and transmitter-keyed draws), which are copied
            // back at merge.
            medium: self.medium.clone(),
            tracker: self.tracker.clone(),
            asn: self.asn,
            measure_start: self.measure_start,
            measure_end: self.measure_end,
            snapshots: Vec::new(),
            wake: BinaryHeap::new(),
            wake_init: true,
            wake_scratch: vec![0; n],
            // All-stale probe entries only cost the island one re-probe
            // per listener; resolution results are unaffected.
            probe_index: vec![ProbeEntry::NEVER; n],
            probe_stale: vec![true; n],
            wake_slot: vec![u64::MAX; n],
            timer_wake: vec![u64::MAX; n],
            scratch: SlotScratch::default(),
            tap: None,
            naive: false,
            parallel: false,
            island_pool: IslandPool::default(),
        }
    }

    /// Resets a pooled shell to exactly the state
    /// [`Network::fresh_island_shell`] would build, reusing its
    /// allocations (`clone_from` on the medium/config/tracker, in-place
    /// fills for the per-node vectors).
    ///
    /// The nodes need no touch-up: a pooled shell holds only
    /// placeholders (members are swapped back at merge), and
    /// placeholders never step — no wake entry ever names them — so they
    /// are still in their as-constructed state. `scratch` is per-slot
    /// working memory the sequential core itself reuses across slots
    /// without resetting, so its carried-over contents are equally
    /// unobservable here.
    fn refresh_island_shell(&self, sub: &mut Network) {
        sub.config.clone_from(&self.config);
        sub.medium.clone_from(&self.medium);
        sub.tracker.clone_from(&self.tracker);
        sub.asn = self.asn;
        sub.measure_start = self.measure_start;
        sub.measure_end = self.measure_end;
        sub.snapshots.clear();
        sub.wake.clear();
        sub.wake_init = true;
        sub.wake_scratch.fill(0);
        sub.probe_index.fill(ProbeEntry::NEVER);
        sub.probe_stale.fill(true);
        sub.wake_slot.fill(u64::MAX);
        sub.timer_wake.fill(u64::MAX);
        sub.naive = false;
        sub.parallel = false;
    }

    /// Folds a stepped island back into `self`: member nodes, wake
    /// state, per-member draw streams, and the tracker delta. Leaves
    /// `sub` holding only placeholders, ready to pool.
    fn merge_island(&mut self, sub: &mut Network, members: &[NodeId], mark: &TrackerMark) {
        for &m in members {
            let i = m.index();
            std::mem::swap(&mut self.nodes[i], &mut sub.nodes[i]);
            self.wake_slot[i] = sub.wake_slot[i];
            self.timer_wake[i] = sub.timer_wake[i];
            // The island's probe entries were built against its own
            // wake heap; re-derive lazily in the parent.
            self.probe_stale[i] = true;
        }
        // Island heaps only ever contain member entries, so the union
        // of the merged heaps is exactly the parent's pending wake set.
        // Draining (rather than moving) keeps the heap's capacity with
        // the pooled shell.
        self.wake.extend(sub.wake.drain());
        self.medium.adopt_draws(&sub.medium, members);
        // Member lanes swap into the parent; the stale prefix buffers the
        // shell receives back are recycled by the next refresh.
        self.tracker.absorb_branch(&mut sub.tracker, mark, members);
    }
}

#[cfg(test)]
mod tests {
    use gtt_net::{LinkModel, Position, TopologyBuilder};
    use gtt_sim::SimDuration;

    use crate::config::EngineConfig;
    use crate::minimal::MinimalSchedule;
    use crate::network::Network;

    /// Two 4-node stars 1 km apart: two islands.
    fn two_star_network(parallel: bool) -> Network {
        let topo = TopologyBuilder::new(40.0)
            .link_model(LinkModel::default())
            .nodes((0..4).map(|i| Position::new(f64::from(i) * 25.0, 0.0)))
            .nodes((0..4).map(|i| Position::new(1000.0 + f64::from(i) * 25.0, 0.0)))
            .build();
        let mut builder = Network::builder(topo, EngineConfig::default())
            .root(gtt_net::NodeId::new(0))
            .root(gtt_net::NodeId::new(4))
            .traffic_ppm(30.0)
            .scheduler_factory(|_, _| Box::new(MinimalSchedule::new(8)));
        if parallel {
            builder = builder.parallel_stepping();
        }
        builder.build()
    }

    #[test]
    fn parallel_run_matches_sequential_byte_for_byte() {
        let mut seq = two_star_network(false);
        let mut par = two_star_network(true);
        for net in [&mut seq, &mut par] {
            net.run_for(SimDuration::from_secs(30));
            net.start_measurement();
            net.run_for(SimDuration::from_secs(30));
            net.finish_measurement();
        }
        assert_eq!(seq.asn(), par.asn());
        assert_eq!(seq.report(), par.report());
    }

    #[test]
    fn set_parallel_toggles_at_runtime() {
        let mut seq = two_star_network(false);
        let mut par = two_star_network(false);
        par.set_parallel(true);
        assert!(par.parallel_enabled());
        seq.run_for(SimDuration::from_secs(20));
        par.run_for(SimDuration::from_secs(20));
        // Toggling back mid-run keeps the trajectory identical: the
        // switch changes wall-clock behavior only.
        par.set_parallel(false);
        for net in [&mut seq, &mut par] {
            net.start_measurement();
            net.run_for(SimDuration::from_secs(20));
            net.finish_measurement();
        }
        assert_eq!(seq.report(), par.report());
    }

    #[test]
    fn pooled_shells_survive_island_churn_byte_for_byte() {
        let mut seq = two_star_network(false);
        let mut par = two_star_network(true);
        for net in [&mut seq, &mut par] {
            net.run_for(SimDuration::from_secs(10));
            // n3 walks over to the far star: both islands change
            // membership, so the next window misses the pool and stashes
            // a second generation of shells.
            net.move_node(gtt_net::NodeId::new(3), Position::new(1000.0, 25.0));
            net.run_for(SimDuration::from_secs(10));
            // ...and walks back: the first-generation shells get hit
            // again (the pool keeps two generations before evicting).
            net.move_node(gtt_net::NodeId::new(3), Position::new(75.0, 0.0));
            net.start_measurement();
            net.run_for(SimDuration::from_secs(20));
            net.finish_measurement();
        }
        assert_eq!(seq.asn(), par.asn());
        assert_eq!(seq.report(), par.report());
    }

    #[test]
    fn single_island_falls_back_to_sequential() {
        let topo = TopologyBuilder::new(40.0)
            .link_model(LinkModel::default())
            .nodes((0..5).map(|i| Position::new(f64::from(i) * 25.0, 0.0)))
            .build();
        let mut net = Network::builder(topo, EngineConfig::default())
            .root(gtt_net::NodeId::new(0))
            .scheduler_factory(|_, _| Box::new(MinimalSchedule::new(8)))
            .parallel_stepping()
            .build();
        net.run_for(SimDuration::from_secs(10));
        assert!(net.asn().raw() > 0);
    }
}
