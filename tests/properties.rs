//! Property-based tests (proptest) over the core data structures and
//! algorithms: the game's optimality claim, the 6P codec, the channel
//! allocator, queues, slotframes, the cyclic-union index and the MAC's
//! backoff settling, and the packet tracker.

use proptest::prelude::*;

use gt_tsch::game::{GameInputs, GameWeights};
use gt_tsch::ChannelAllocator;
use gtt_mac::{
    Asn, Cell, CellClass, CellOptions, ChannelOffset, CyclicUnion, HoppingSequence, MacConfig,
    Schedule, SlotAction, SlotOffset, SlotResult, Slotframe, SlotframeHandle, TrafficClass,
    TschMac,
};
use gtt_metrics::PacketTracker;
use gtt_net::{
    Dest, DrawStreams, Frame, LinkModel, Listener, NodeId, PacketId, PacketQueue, PhysicalChannel,
    Position, RadioMedium, RxOutcome, SlotOutcomes, Topology, TopologyBuilder, Transmission,
};
use gtt_sim::{Pcg32, SimTime};
use gtt_sixtop::{CellSpec, ReturnCode, SixpBody, SixpCellKind, SixpMessage};

// ---------------------------------------------------------------- game

fn arb_weights() -> impl Strategy<Value = GameWeights> {
    (0.1f64..4.0, 0.0f64..3.0, 0.0f64..3.0).prop_map(|(alpha, beta, gamma)| GameWeights {
        alpha,
        beta,
        gamma,
    })
}

fn arb_inputs() -> impl Strategy<Value = GameInputs> {
    (
        0.05f64..1.0, // rank weight (hop 1..20)
        1.0f64..6.0,  // ETX
        0.0f64..8.0,  // queue average
        1u16..6,      // l_tx_min
        1u16..16,     // l_rx_parent
    )
        .prop_map(
            |(rank_weight, etx, queue_avg, l_tx_min, l_rx_parent)| GameInputs {
                rank_weight,
                etx,
                queue_avg,
                queue_max: 8.0,
                l_tx_min,
                l_rx_parent,
            },
        )
}

proptest! {
    /// eq. 15's closed form really is the argmax over the whole feasible
    /// integer strategy set, for arbitrary weights and inputs.
    #[test]
    fn best_response_dominates_all_feasible_strategies(
        inputs in arb_inputs(),
        weights in arb_weights(),
    ) {
        let br = inputs.best_response(&weights);
        if inputs.l_rx_parent <= inputs.l_tx_min {
            prop_assert_eq!(br.cells, inputs.l_rx_parent);
        } else {
            prop_assert!(br.cells >= inputs.l_tx_min);
            prop_assert!(br.cells <= inputs.l_rx_parent);
            let v_star = inputs.payoff(&weights, br.cells as f64);
            for l in inputs.l_tx_min..=inputs.l_rx_parent {
                prop_assert!(
                    inputs.payoff(&weights, l as f64) <= v_star + 1e-9,
                    "l={} beats l*={}", l, br.cells
                );
            }
        }
    }

    /// Theorem 1, fuzzed: the payoff is strictly concave everywhere on
    /// the strategy space.
    #[test]
    fn payoff_curvature_is_negative(
        inputs in arb_inputs(),
        weights in arb_weights(),
        l in 0u16..32,
    ) {
        prop_assert!(inputs.payoff_curvature(&weights, l as f64) < 0.0);
    }
}

// ------------------------------------------------------------- sixtop

fn arb_cells() -> impl Strategy<Value = Vec<CellSpec>> {
    prop::collection::vec((0u16..128, 0u8..16), 0..8)
        .prop_map(|v| v.into_iter().map(|(s, c)| CellSpec::new(s, c)).collect())
}

fn arb_kind() -> impl Strategy<Value = SixpCellKind> {
    prop_oneof![Just(SixpCellKind::Data), Just(SixpCellKind::SixP)]
}

fn arb_code() -> impl Strategy<Value = ReturnCode> {
    prop_oneof![
        Just(ReturnCode::Success),
        Just(ReturnCode::Err),
        Just(ReturnCode::ErrSeqnum),
        Just(ReturnCode::ErrBusy),
        Just(ReturnCode::ErrNoCells),
    ]
}

fn arb_body() -> impl Strategy<Value = SixpBody> {
    prop_oneof![
        (arb_kind(), 0u16..32, arb_cells()).prop_map(|(kind, num_cells, cells)| {
            SixpBody::AddRequest {
                kind,
                num_cells,
                cells,
            }
        }),
        (arb_code(), arb_cells()).prop_map(|(code, cells)| SixpBody::AddResponse { code, cells }),
        (arb_kind(), arb_cells()).prop_map(|(kind, cells)| SixpBody::DeleteRequest { kind, cells }),
        (arb_code(), arb_cells())
            .prop_map(|(code, cells)| SixpBody::DeleteResponse { code, cells }),
        Just(SixpBody::ClearRequest),
        arb_code().prop_map(|code| SixpBody::ClearResponse { code }),
        Just(SixpBody::AskChannelRequest),
        (arb_code(), 0u8..16).prop_map(|(code, channel_offset)| {
            SixpBody::AskChannelResponse {
                code,
                channel_offset,
            }
        }),
    ]
}

proptest! {
    /// Any well-formed 6P message survives encode → decode unchanged.
    #[test]
    fn sixp_codec_round_trips(seqnum in any::<u8>(), body in arb_body()) {
        let msg = SixpMessage::new(seqnum, body);
        let decoded = SixpMessage::decode(&msg.encode()).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    /// Arbitrary byte soup never panics the decoder — it errors.
    #[test]
    fn sixp_decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = SixpMessage::decode(&bytes);
    }
}

// ------------------------------------------------------------ channels

proptest! {
    /// Whatever the allocate/release interleaving, the allocator never
    /// hands out a reserved channel and keeps live siblings distinct
    /// while distinct offsets remain.
    #[test]
    fn channel_allocator_invariants(
        ops in prop::collection::vec((0u16..6, any::<bool>()), 1..40),
        f_parent in 1u8..8,
        f_children in 1u8..8,
    ) {
        prop_assume!(f_parent != f_children);
        let mut alloc = ChannelAllocator::new(8, 0);
        // Distinctness is guaranteed only while the fan-out has *never*
        // exceeded max_children (the paper bounds it; beyond that the
        // allocator reuses channels gracefully and on purpose).
        let mut ever_overflowed = false;
        for (child, is_alloc) in ops {
            let child = NodeId::new(child);
            if is_alloc {
                let ch = alloc.allocate(child, Some(f_parent), Some(f_children))
                    .expect("8 offsets with 3 reserved can always serve");
                prop_assert_ne!(ch, 0);
                prop_assert_ne!(ch, f_parent);
                prop_assert_ne!(ch, f_children);
            } else {
                alloc.release(child);
            }
            ever_overflowed |= alloc.allocated() > alloc.max_children() as usize;
            if !ever_overflowed {
                let mut live: Vec<u8> = (0..6u16)
                    .filter_map(|c| alloc.channel_of(NodeId::new(c)))
                    .collect();
                let n = live.len();
                live.sort_unstable();
                live.dedup();
                prop_assert_eq!(live.len(), n, "sibling channels must differ");
            }
        }
    }
}

// ------------------------------------------------------------- queues

proptest! {
    /// A bounded queue conserves packets: enqueued = dequeued + still
    /// inside, and drops only happen at capacity.
    #[test]
    fn packet_queue_conservation(
        cap in 1usize..16,
        ops in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q: PacketQueue<u32> = PacketQueue::new(cap);
        let mut pushed = 0u64;
        for (i, push) in ops.into_iter().enumerate() {
            if push {
                if q.push(i as u32).is_ok() {
                    pushed += 1;
                }
            } else {
                q.pop();
            }
            prop_assert!(q.len() <= cap);
        }
        let stats = q.stats();
        prop_assert_eq!(stats.enqueued, pushed);
        prop_assert_eq!(stats.enqueued, stats.dequeued + q.len() as u64);
    }
}

// ------------------------------------------------------------ tracker

proptest! {
    /// PDR stays within [0, 100] and deliveries never exceed
    /// generations, whatever the event interleaving.
    #[test]
    fn tracker_invariants(events in prop::collection::vec((any::<bool>(), 0u64..30), 1..150)) {
        let mut t = PacketTracker::new();
        for (i, (deliver, id)) in events.into_iter().enumerate() {
            let now = SimTime::from_millis(i as u64 * 10);
            if deliver {
                t.record_delivered(PacketId::new(id), now, 1);
            } else {
                t.record_generated(PacketId::new(id), NodeId::new(0), now);
            }
        }
        prop_assert!(t.delivered() <= t.generated());
        prop_assert!((0.0..=100.0).contains(&t.pdr_percent()));
        prop_assert_eq!(t.generated(), t.delivered() + t.lost());
    }
}

/// The pre-SoA `PacketTracker`: two `BTreeMap<PacketId, …>`s, kept
/// verbatim as a behavioral reference for `tracker_matches_reference`.
#[derive(Default)]
struct ReferenceTracker {
    window: Option<(SimTime, SimTime)>,
    generated: std::collections::BTreeMap<PacketId, (NodeId, SimTime)>,
    delivered: std::collections::BTreeMap<PacketId, (SimTime, u8)>,
    duplicates: u64,
    stray_deliveries: u64,
}

impl ReferenceTracker {
    fn set_window(&mut self, start: SimTime, end: SimTime) {
        assert!(end > start);
        self.window = Some((start, end));
        self.generated.retain(|_, (_, t)| *t >= start && *t < end);
        let generated = &self.generated;
        self.delivered.retain(|id, _| generated.contains_key(id));
    }

    fn in_window(&self, t: SimTime) -> bool {
        match self.window {
            Some((s, e)) => t >= s && t < e,
            None => true,
        }
    }

    fn record_generated(&mut self, id: PacketId, origin: NodeId, now: SimTime) {
        if self.in_window(now) {
            self.generated.insert(id, (origin, now));
        }
    }

    // Verbatim port of the old implementation — keep its shape.
    #[allow(clippy::map_entry)]
    fn record_delivered(&mut self, id: PacketId, now: SimTime, hops: u8) {
        if !self.generated.contains_key(&id) {
            self.stray_deliveries += 1;
        } else if self.delivered.contains_key(&id) {
            self.duplicates += 1;
        } else {
            self.delivered.insert(id, (now, hops));
        }
    }

    fn pdr_percent(&self) -> f64 {
        if self.generated.is_empty() {
            return 100.0;
        }
        100.0 * self.delivered.len() as f64 / self.generated.len() as f64
    }

    fn mean_delay_ms(&self) -> f64 {
        if self.delivered.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .delivered
            .iter()
            .map(|(id, (t_rx, _))| t_rx.saturating_since(self.generated[id].1).as_millis_f64())
            .sum();
        sum / self.delivered.len() as f64
    }

    fn mean_hops(&self) -> f64 {
        if self.delivered.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.delivered.values().map(|(_, h)| u64::from(*h)).sum();
        sum as f64 / self.delivered.len() as f64
    }

    fn by_origin(&self, delivered_only: bool) -> std::collections::BTreeMap<NodeId, u64> {
        let mut map = std::collections::BTreeMap::new();
        for (id, (origin, _)) in &self.generated {
            if !delivered_only || self.delivered.contains_key(id) {
                *map.entry(*origin).or_insert(0) += 1;
            }
        }
        map
    }
}

/// One tracker event: origin lane, per-origin sequence, and what happens.
/// `Stray` delivers a sequence number far past anything generated.
fn arb_tracker_op() -> impl Strategy<Value = (u8, u16, u64, u8)> {
    (0u8..6, 1u16..4, 0u64..20, 1u8..5)
}

fn tracker_id(origin: u16, seq: u64) -> PacketId {
    PacketId::new((u64::from(origin) << 48) | seq)
}

proptest! {
    /// The SoA tracker is behaviorally identical to the old BTreeMap
    /// implementation over random generate / deliver / duplicate / stray
    /// sequences with the engine's warm-up → window → measure → close
    /// window discipline: same counts, PDR, delay, hops and per-origin
    /// maps.
    #[test]
    fn tracker_matches_reference(
        warmup in prop::collection::vec(arb_tracker_op(), 0..60),
        measured in prop::collection::vec(arb_tracker_op(), 0..120),
    ) {
        let window_start = SimTime::from_secs(10);
        let mut t = PacketTracker::new();
        let mut r = ReferenceTracker::default();
        let apply = |t: &mut PacketTracker, r: &mut ReferenceTracker,
                         op: &(u8, u16, u64, u8), now: SimTime| {
            let (kind, origin, seq, hops) = *op;
            match kind {
                // Weight generation highest so deliveries usually land.
                // The engine never reuses a packet id, so re-generating
                // an id that was already *delivered* is out of model
                // (the old map impl would retroactively rewrite that
                // packet's delay; the streaming stats cannot) —
                // re-generating an undelivered id stays covered.
                0..=2 => {
                    let id = tracker_id(origin, seq);
                    if !r.delivered.contains_key(&id) {
                        t.record_generated(id, NodeId::new(origin), now);
                        r.record_generated(id, NodeId::new(origin), now);
                    }
                }
                3..=4 => {
                    let id = tracker_id(origin, seq);
                    t.record_delivered(id, now, hops);
                    r.record_delivered(id, now, hops);
                }
                _ => {
                    let id = tracker_id(origin, seq + 40); // never generated
                    t.record_delivered(id, now, hops);
                    r.record_delivered(id, now, hops);
                }
            }
        };
        // Warm-up: both trackers see formation traffic before any window.
        for (i, op) in warmup.iter().enumerate() {
            apply(&mut t, &mut r, op, SimTime::from_millis(i as u64 * 7));
        }
        // start_measurement: purge warm-up state.
        t.set_window(window_start, SimTime::MAX);
        r.set_window(window_start, SimTime::MAX);
        prop_assert_eq!(t.generated(), r.generated.len() as u64);
        prop_assert_eq!(t.delivered(), r.delivered.len() as u64);
        // Measured phase.
        let mut last = window_start;
        for (i, op) in measured.iter().enumerate() {
            last = window_start + gtt_sim::SimDuration::from_millis((i as u64 + 1) * 7);
            apply(&mut t, &mut r, op, last);
        }
        // finish_measurement: close the window just past the last event.
        let window_end = last + gtt_sim::SimDuration::from_millis(1);
        t.set_window(window_start, window_end);
        r.set_window(window_start, window_end);

        prop_assert_eq!(t.generated(), r.generated.len() as u64);
        prop_assert_eq!(t.delivered(), r.delivered.len() as u64);
        prop_assert_eq!(t.duplicates(), r.duplicates);
        prop_assert_eq!(t.stray_deliveries(), r.stray_deliveries);
        prop_assert_eq!(t.pdr_percent(), r.pdr_percent());
        prop_assert_eq!(t.mean_hops(), r.mean_hops());
        // Integer-nanosecond sum vs the old f64 running sum: equal up to
        // summation-order rounding.
        let (a, b) = (t.mean_delay_ms(), r.mean_delay_ms());
        prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{} vs {}", a, b);
        prop_assert_eq!(t.generated_by_origin(), r.by_origin(false));
        prop_assert_eq!(t.delivered_by_origin(), r.by_origin(true));
    }
}

// ----------------------------------------------------------------- sim

proptest! {
    /// PCG outputs respect requested ranges for arbitrary bounds.
    #[test]
    fn pcg_range_respected(seed in any::<u64>(), lo in 0u32..1000, span in 1u32..1000) {
        let mut rng = Pcg32::new(seed);
        for _ in 0..50 {
            let v = rng.gen_range_u32(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
        }
    }

    /// Channel hopping is periodic in the sequence length and never
    /// leaves the sequence.
    #[test]
    fn hopping_stays_in_sequence(asn in any::<u32>(), offset in 0u8..8) {
        let hop = HoppingSequence::paper_default();
        let ch = hop.channel(Asn::new(asn as u64), ChannelOffset::new(offset));
        prop_assert!(hop.channels().contains(&ch));
        let again = hop.channel(Asn::new(asn as u64 + 8), ChannelOffset::new(offset));
        prop_assert_eq!(ch, again, "period 8");
    }
}

// --------------------------------------------------------- radio medium

/// The brute-force O(listeners × transmissions) slot resolution the
/// medium's per-channel index replaced, reimplemented over the public
/// topology API with its own (identically-derived) per-node draw
/// streams. Forward draws are keyed by the listening node and ACK draws
/// by the transmitting node, exactly as the production path keys them,
/// so the streams stay aligned without depending on any cross-node
/// iteration order.
#[allow(clippy::type_complexity)]
fn reference_resolve(
    topology: &Topology,
    draws: &mut DrawStreams,
    transmissions: &[Transmission<u8>],
    listeners: &[Listener],
) -> (Vec<(NodeId, RxOutcome<u8>)>, Vec<Option<bool>>) {
    let mut rx = Vec::new();
    let mut decoded: Vec<Vec<NodeId>> = vec![Vec::new(); transmissions.len()];
    for listener in listeners {
        if transmissions.iter().any(|t| t.frame.src == listener.node) {
            rx.push((listener.node, RxOutcome::Idle));
            continue;
        }
        let mut audible = 0usize;
        let mut first = usize::MAX;
        for (i, t) in transmissions.iter().enumerate() {
            if t.channel == listener.channel && topology.audible(t.frame.src, listener.node) {
                audible += 1;
                if audible == 1 {
                    first = i;
                }
            }
        }
        let outcome = match audible {
            0 => RxOutcome::Idle,
            1 => {
                let tx = &transmissions[first];
                let prr = topology.prr(tx.frame.src, listener.node);
                if prr > 0.0 && draws.gen_bool(listener.node, prr) {
                    decoded[first].push(listener.node);
                    RxOutcome::Received(tx.frame.clone())
                } else {
                    RxOutcome::Faded
                }
            }
            n => RxOutcome::Collision(n),
        };
        rx.push((listener.node, outcome));
    }
    let acked = transmissions
        .iter()
        .enumerate()
        .map(|(i, t)| match t.frame.dst {
            Dest::Broadcast => None,
            Dest::Unicast(dst) => {
                if !decoded[i].contains(&dst) {
                    Some(false)
                } else {
                    let reverse = topology.prr(dst, t.frame.src);
                    Some(reverse > 0.0 && draws.gen_bool(t.frame.src, reverse))
                }
            }
        })
        .collect();
    (rx, acked)
}

proptest! {
    /// The per-channel-grouped, zero-alloc `resolve_slot_into` is
    /// observationally identical to the brute-force scan it replaced:
    /// same outcomes, same ACKs, same RNG draw order — across random
    /// topologies, channel assignments (collisions included) and
    /// multi-slot sequences through one reused outcome buffer.
    #[test]
    fn medium_resolve_matches_brute_force_reference(
        seed in 0u64..1_000_000,
        n in 4usize..12,
        slots in 1usize..8,
    ) {
        let mut layout = Pcg32::new(seed ^ 0x9e37_79b9);
        let side = 60.0 + layout.gen_f64() * 60.0;
        let topology = TopologyBuilder::new(45.0)
            .link_model(LinkModel::DistanceFalloff { plateau: 0.4, edge_prr: 0.6 })
            .interference_factor(1.0 + layout.gen_f64())
            .nodes((0..n).map(|_| {
                Position::new(layout.gen_f64() * side, layout.gen_f64() * side)
            }))
            .build();
        // Three channels force same-channel collisions regularly.
        let channels = [17u8, 23, 15].map(PhysicalChannel::new);

        let mut medium = RadioMedium::new(topology.clone(), Pcg32::new(seed));
        let mut reference_draws = DrawStreams::new(Pcg32::new(seed), topology.len());
        let mut out = SlotOutcomes::default();

        for slot in 0..slots {
            // Random slot inputs: each node transmits (p = 1/3), with a
            // random channel and destination; every non-transmitter
            // listens (p = 3/4) on a random channel. Half-duplex holds
            // by construction, as in the engine.
            let mut transmissions = Vec::new();
            let mut listeners = Vec::new();
            for i in 0..n {
                let id = NodeId::from_index(i);
                if layout.gen_f64() < 1.0 / 3.0 {
                    let dst = if layout.gen_f64() < 0.5 {
                        Dest::Broadcast
                    } else {
                        let mut peer = layout.gen_range_u32(0, n as u32 - 1) as usize;
                        if peer >= i {
                            peer += 1;
                        }
                        Dest::Unicast(NodeId::from_index(peer))
                    };
                    transmissions.push(Transmission {
                        channel: channels[layout.gen_range_u32(0, 3) as usize],
                        frame: Frame::new(
                            PacketId::new(slot as u64),
                            id,
                            dst,
                            SimTime::ZERO,
                            i as u8,
                        ),
                    });
                } else if layout.gen_f64() < 0.75 {
                    listeners.push(Listener {
                        node: id,
                        channel: channels[layout.gen_range_u32(0, 3) as usize],
                    });
                }
            }

            let (expected_rx, expected_acked) =
                reference_resolve(&topology, &mut reference_draws, &transmissions, &listeners);
            medium.resolve_slot_into(&transmissions, &listeners, &mut out);
            prop_assert_eq!(&out.rx, &expected_rx, "slot {} rx diverged", slot);
            prop_assert_eq!(&out.acked, &expected_acked, "slot {} acks diverged", slot);
        }
    }
}

// ------------------------------------------- spatial audibility index

/// The brute-force O(n²) adjacency the grid-bucketed spatial index
/// replaced, recomputed over the public pairwise geometry API (which is
/// independent of the index): per-node audible peers and in-range
/// peers, both in id order.
fn reference_adjacency(topo: &Topology) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
    let audible = topo
        .node_ids()
        .map(|a| topo.node_ids().filter(|&b| topo.audible(a, b)).collect())
        .collect();
    let in_range = topo
        .node_ids()
        .map(|a| topo.node_ids().filter(|&b| topo.in_range(a, b)).collect())
        .collect();
    (audible, in_range)
}

/// DFS connected components over the reference audible adjacency — the
/// pre-union-find islands algorithm, in the same canonical form
/// (members sorted, islands ordered by smallest member).
fn reference_islands(audible: &[Vec<NodeId>]) -> Vec<Vec<NodeId>> {
    let n = audible.len();
    let mut seen = vec![false; n];
    let mut islands = Vec::new();
    let mut stack = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut members = Vec::new();
        seen[start] = true;
        stack.push(start);
        while let Some(i) = stack.pop() {
            members.push(NodeId::from_index(i));
            for &nb in &audible[i] {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    stack.push(nb.index());
                }
            }
        }
        members.sort_unstable();
        islands.push(members);
    }
    islands
}

/// Every index-backed query must match the brute-force reference
/// byte-for-byte (`Vec<NodeId>` equality is byte equality for u16 ids).
fn assert_matches_reference(topo: &Topology) -> Result<(), TestCaseError> {
    let (audible, in_range) = reference_adjacency(topo);
    for (i, id) in topo.node_ids().enumerate() {
        prop_assert_eq!(
            topo.audible_neighbors(id),
            audible[i].as_slice(),
            "audible row of n{} diverged",
            i
        );
        prop_assert_eq!(
            topo.neighbors(id),
            in_range[i].as_slice(),
            "in-range row of n{} diverged",
            i
        );
    }
    prop_assert_eq!(topo.audibility_islands(), reference_islands(&audible));
    Ok(())
}

proptest! {
    /// The spatial index is invisible: audibility rows, in-range rows
    /// and islands equal the brute-force O(n²) reference over random
    /// topologies and random `set_position` sequences (local rewalks
    /// and island-splitting teleports alike), and the incrementally-
    /// maintained topology stays fully equal — grid internals included —
    /// to one built from scratch at the final positions.
    #[test]
    fn spatial_index_matches_brute_force_adjacency(
        seed in 0u64..1_000_000,
        n in 1usize..20,
        moves in 0usize..12,
    ) {
        let mut layout = Pcg32::new(seed ^ 0x51ce_b00c);
        // Sides from ~1 to ~9 grid cells: exercises everything from
        // "all nodes in one bucket" to sparse multi-island spreads.
        let side = 50.0 + layout.gen_f64() * 350.0;
        let mut topo = TopologyBuilder::new(45.0)
            .interference_factor(1.0 + layout.gen_f64())
            .nodes((0..n).map(|_| {
                Position::new(layout.gen_f64() * side, layout.gen_f64() * side)
            }))
            .build();
        assert_matches_reference(&topo)?;
        for _ in 0..moves {
            let node = NodeId::from_index(layout.gen_range_u32(0, n as u32) as usize);
            let to = if layout.gen_f64() < 0.2 {
                // Teleport far off the populated grid: forces island
                // splits and empty-bucket erasure.
                Position::new(side * 4.0 + layout.gen_f64() * side, side * 4.0)
            } else {
                Position::new(layout.gen_f64() * side, layout.gen_f64() * side)
            };
            topo.set_position(node, to);
            assert_matches_reference(&topo)?;
        }
        let rebuilt = TopologyBuilder::new(topo.range())
            .interference_factor(topo.interference_factor())
            .nodes(topo.node_ids().map(|id| topo.position(id)).collect::<Vec<_>>())
            .build();
        prop_assert_eq!(&topo, &rebuilt, "incremental state diverged from a fresh build");
    }
}

// ------------------------------------------------- cyclic-union index

/// Random chain periods for the cyclic-union legs: 1–4 lengths in
/// 2..=101, drawn either around a shared factor (non-coprime by
/// construction) or freely, with every draw kept only while the
/// hyperperiod stays small enough to enumerate several times over.
fn arb_chain_lengths(rng: &mut Pcg32) -> Vec<u64> {
    const MAX_HYPERPERIOD: u64 = 12_000;
    fn lcm(a: u64, b: u64) -> u64 {
        let (mut x, mut y) = (a, b);
        while y != 0 {
            (x, y) = (y, x % y);
        }
        a / x * b
    }
    let frames = 1 + rng.gen_index(4);
    let factor = if rng.gen_bool(0.5) {
        2 + u64::from(rng.gen_range_u32(0, 11))
    } else {
        1
    };
    let mut lengths: Vec<u64> = Vec::new();
    let mut hyper = 1;
    while lengths.len() < frames {
        let len = (1..20)
            .map(|_| factor * u64::from(rng.gen_range_u32(1, 101 / factor as u32 + 1)))
            .find(|&l| (2..=101).contains(&l) && lcm(hyper, l) <= MAX_HYPERPERIOD)
            // No fitting draw: repeat a length (equal periods are a case
            // of their own).
            .unwrap_or_else(|| lengths.first().copied().unwrap_or(2 * factor.min(50)));
        hyper = lcm(hyper, len);
        lengths.push(len);
    }
    lengths
}

proptest! {
    /// The cyclic-union index answers counts, next, n-th and listen
    /// channel lookups exactly like brute-force slot enumeration, over
    /// random chain sets (1–4 frames, non-coprime lengths 2–101, 1–6
    /// offsets per frame including duplicates) and ranges spanning
    /// several hyperperiods — solved (closed form) and unsolved
    /// (occurrence walk) alike.
    #[test]
    fn cyclic_union_matches_brute_force(seed in 0u64..1_000_000) {
        let mut rng = Pcg32::new(seed ^ 0xc1c1_0000);
        let lengths = arb_chain_lengths(&mut rng);
        let chains: Vec<(u64, Vec<(u64, ChannelOffset)>)> = lengths
            .iter()
            .map(|&len| {
                let k = 1 + rng.gen_index(6);
                let slots = (0..k)
                    .map(|_| {
                        let offset = u64::from(rng.gen_range_u32(0, len as u32));
                        (offset, ChannelOffset::new(rng.gen_range_u32(0, 16) as u8))
                    })
                    .collect();
                (len, slots)
            })
            .collect();
        let mut listen = CyclicUnion::new();
        let mut plain = CyclicUnion::new();
        for (len, slots) in &chains {
            listen.push_listen_chain(*len, slots.iter().copied());
            plain.push_chain(*len, slots.iter().map(|&(o, _)| o));
        }
        // `plain` is never solved: its counts walk occurrences.
        prop_assert!(listen.solve(), "four chains of ≤ 6 offsets are within the caps");

        // Brute force: first chain (in push order) listing an offset
        // first wins the channel, as in `plan_slot`.
        let channel_at = |at: u64| {
            chains.iter().find_map(|(len, slots)| {
                slots.iter().find(|&&(o, _)| o == at % len).map(|&(_, c)| c)
            })
        };
        let hyper = lengths.iter().fold(1u64, |h, &l| {
            let (mut x, mut y) = (h, l);
            while y != 0 {
                (x, y) = (y, x % y);
            }
            h / x * l
        });
        // Room for every queried range (`from` < 2 hyperperiods, spans
        // < 3 hyperperiods or < 200 slots) and for 12 occurrences past
        // the furthest `from` (at least one per hyperperiod).
        let horizon = 15 * hyper + 200;
        let covered: Vec<u64> = (0..horizon).filter(|&a| channel_at(a).is_some()).collect();
        let count_below = |x: u64| covered.partition_point(|&c| c < x) as u64;
        for a in 0..(2 * hyper).min(5_000) {
            prop_assert_eq!(listen.channel_offset_at(a), channel_at(a), "channel at {}", a);
            prop_assert_eq!(plain.contains(a), channel_at(a).is_some());
        }
        for _ in 0..60 {
            let from = u64::from(rng.gen_range_u32(0, (2 * hyper) as u32));
            let span = match rng.gen_index(4) {
                0 => u64::from(rng.gen_range_u32(0, 3)),
                1 => u64::from(rng.gen_range_u32(0, 200)),
                _ => u64::from(rng.gen_range_u32(0, (3 * hyper + 1) as u32)),
            };
            let to = from + span;
            let expected = count_below(to) - count_below(from);
            prop_assert_eq!(listen.count_in(from, to), expected, "count [{}, {})", from, to);
            prop_assert_eq!(plain.count_in(from, to), expected, "walked count [{}, {})", from, to);

            let first = count_below(from) as usize;
            prop_assert_eq!(listen.next_at_or_after(from), Some(covered[first]));
            prop_assert_eq!(
                listen.next_with_channel_offset(from),
                Some((covered[first], channel_at(covered[first]).unwrap()))
            );
            let n = 1 + rng.gen_index(12) as u64;
            let nth = covered[first + n as usize - 1];
            prop_assert_eq!(listen.nth_at_or_after(from, n), Some(nth), "{}-th from {}", n, from);
            prop_assert_eq!(plain.nth_at_or_after(from, n), Some(nth));
        }
        // A single chain's n-th lookup is closed form; pin it on the
        // first chain alone, far past the first cycle.
        let mut single = CyclicUnion::new();
        single.push_chain(chains[0].0, chains[0].1.iter().map(|&(o, _)| o));
        single.solve();
        let own: Vec<u64> = (0..horizon)
            .filter(|a| chains[0].1.iter().any(|&(o, _)| o == a % chains[0].0))
            .collect();
        for n in [1u64, 2, 7, 40] {
            let from = u64::from(rng.gen_range_u32(0, hyper as u32));
            let first = own.partition_point(|&c| c < from);
            if let Some(&expected) = own.get(first + n as usize - 1) {
                prop_assert_eq!(single.nth_at_or_after(from, n), Some(expected));
            }
        }
    }
}

/// A random shared-cell schedule for the backoff-settling leg: 1–3
/// slotframes mixing shared Tx|Rx cells, shared Tx-only cells, the
/// broadcast control cell, dedicated data Tx/Rx cells and co-located
/// cells (several in one slot).
fn arb_backoff_schedule(rng: &mut Pcg32) -> Schedule {
    let mut schedule = Schedule::new();
    for handle in 0..1 + rng.gen_index(3) {
        let len = 3 + rng.gen_range_u32(0, 22) as u16;
        let mut frame = Slotframe::new(len);
        for _ in 0..1 + rng.gen_index(5) {
            let slot = SlotOffset::new(rng.gen_range_u32(0, u32::from(len)) as u16);
            let co = ChannelOffset::new(rng.gen_range_u32(0, 4) as u8);
            let shared_tx_only = CellOptions {
                tx: true,
                rx: false,
                shared: true,
            };
            frame.add(match rng.gen_index(5) {
                0 => Cell::new(
                    slot,
                    co,
                    CellOptions::TX_RX_SHARED,
                    Dest::Broadcast,
                    CellClass::Shared,
                ),
                1 => Cell::new(slot, co, shared_tx_only, Dest::Broadcast, CellClass::Shared),
                2 => Cell::broadcast(slot, co),
                3 => Cell::data_tx(slot, co, NodeId::new(0)),
                _ => Cell::data_rx(slot, co, NodeId::new(2)),
            });
        }
        schedule.add_slotframe(SlotframeHandle::new(handle as u8), frame);
    }
    schedule
}

proptest! {
    /// The event-driven MAC path — wake only at `next_radio_wake`,
    /// account skipped slots in bulk, let `plan_slot` settle the
    /// shared-cell backoff over the skipped range — transmits in exactly
    /// the slots, with exactly the backoff state and counters, of a
    /// slot-by-slot `plan_slot` loop. Random shared-cell schedules with
    /// queued unicast data and control frames, and acknowledgements
    /// that fail often enough to keep backoff windows pending.
    #[test]
    fn settled_backoff_matches_slot_by_slot_plan(seed in 0u64..1_000_000) {
        const HORIZON: u64 = 3_000;
        let mut rng = Pcg32::new(seed ^ 0xbac0_ff00);
        let mut mac: TschMac<u32> = TschMac::new(
            NodeId::new(1),
            MacConfig::paper_default(),
            HoppingSequence::paper_default(),
            Pcg32::new(seed),
        );
        *mac.schedule_mut() = arb_backoff_schedule(&mut rng);
        let parent = Dest::Unicast(NodeId::new(0));
        for p in 0..1 + rng.gen_range_u32(0, 8) {
            let frame = Frame::new(PacketId::new(u64::from(p)), NodeId::new(1), parent, SimTime::ZERO, p);
            mac.enqueue_data(frame).unwrap();
        }
        for p in 100..100 + rng.gen_range_u32(0, 3) {
            let frame = Frame::new(PacketId::new(u64::from(p)), NodeId::new(1), parent, SimTime::ZERO, p);
            mac.enqueue_control(frame, TrafficClass::ControlUnicast).unwrap();
        }
        if rng.gen_bool(0.5) {
            let frame = Frame::new(PacketId::new(200), NodeId::new(1), Dest::Broadcast, SimTime::ZERO, 200);
            mac.enqueue_control(frame, TrafficClass::Broadcast).unwrap();
        }
        let fail_p = 0.3 + 0.5 * rng.gen_f64();
        // Acknowledgement of the k-th unicast attempt: a pure function of
        // (seed, k), so both loops see the same channel.
        let acked = |k: u64| !Pcg32::with_stream(seed, k).gen_bool(fail_p);
        let finish = |mac: &mut TschMac<u32>, action: SlotAction<u32>, asn: u64, log: &mut Vec<(u64, u32)>| {
            let result = match action {
                SlotAction::Transmit { frame, .. } => {
                    let k = log.len() as u64;
                    log.push((asn, frame.payload));
                    SlotResult::Transmitted {
                        acked: (!frame.dst.is_broadcast()).then(|| acked(k)),
                    }
                }
                SlotAction::Listen { .. } => SlotResult::Listened(RxOutcome::Idle),
                SlotAction::Sleep => SlotResult::Slept,
            };
            mac.finish_slot(result);
        };

        let mut event = mac.clone();
        let mut oracle = mac;
        let mut oracle_log = Vec::new();
        for asn in 0..HORIZON {
            let action = oracle.plan_slot(Asn::new(asn));
            finish(&mut oracle, action, asn, &mut oracle_log);
        }

        prop_assert!(event.is_passive_listener(), "≤ 3 frames are within the caps");
        let mut event_log = Vec::new();
        let mut next = 0;
        while let Some(wake) = event.next_radio_wake(Asn::new(next)).map(Asn::raw) {
            prop_assert!(wake >= next, "wake {} before {}", wake, next);
            if wake >= HORIZON {
                break;
            }
            let listens = event.count_listen_slots(Asn::new(next), Asn::new(wake));
            event.account_skipped(wake - next, listens);
            let action = event.plan_slot(Asn::new(wake));
            finish(&mut event, action, wake, &mut event_log);
            next = wake + 1;
        }
        let listens = event.count_listen_slots(Asn::new(next), Asn::new(HORIZON));
        event.account_skipped(HORIZON - next, listens);
        event.settle_backoff_to(HORIZON);

        prop_assert_eq!(&event_log, &oracle_log, "transmission slots diverge");
        prop_assert_eq!(event.backoff(), oracle.backoff());
        prop_assert_eq!(event.counters(), oracle.counters());
        prop_assert_eq!(event.data_queue_len(), oracle.data_queue_len());
        prop_assert_eq!(event.control_queue_len(), oracle.control_queue_len());
    }
}
