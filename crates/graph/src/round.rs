//! The unified round-execution kernel: one holder-order step routine and
//! one walker-order sweep behind both engines.
//!
//! The *update stream* of a round (which topology, which availability mask,
//! which RNG stream) is described by a [`RoundPlan`], and a single pair of
//! phase routines executes a holder-order round over one holder range —
//! one shard of [`crate::sharded_engine::ShardedMixingEngine`], or the
//! whole graph under a single-shard partition:
//!
//! * [`decide_holder_moves`] — the **decide phase**: sweep a holder range in
//!   id order, each holder's bucket in insertion order, drawing every
//!   walker's move through the one sampling rule (`sample_move_masked`).
//!   Survivors (lazy stays *and* masked bounces) are appended to the
//!   caller's [`RoundArena`], and every delivery is appended to the arena's
//!   delivery buffers in send order, from which the sharded engine routes
//!   them into per-destination-shard outboxes.
//! * [`merge_round_buckets`] — the **merge phase**: one counting sort that
//!   rebuilds the next round's holder buckets from survivors (first, in
//!   previous bucket order) and an ordered arrival stream (second, in the
//!   order the caller replays it).  The sharded engine replays arrivals
//!   grouped by source shard in ascending id — which is exactly what makes
//!   its exchange phase execution-order-free, and under one shard is the
//!   global send order of a message-passing simulation.
//!
//! [`sweep_walker_order`] is the degenerate walker-order form (no buckets,
//! no statistics) behind [`crate::mixing_engine::MixingEngine::step`] /
//! `step_masked`.
//!
//! # The `RoundPlan` contract
//!
//! A plan is a *view*: the topology may be a static CSR [`Graph`], a
//! [`crate::dynamic::DynamicGraph`] snapshot (engines re-read their graph
//! reference every round, so `retarget` composes with every plan), or the
//! shared global CSR that a shard samples its local holder range against.
//! The mask, when present, must cover every node of that topology.  The
//! kernel guarantees:
//!
//! * **One sampling rule per draw mode.**  In [`DrawMode::Compat`] every
//!   walker consumes the stream identically — one lazy `f64` (only when
//!   `laziness > 0`), then one uniform neighbour index — regardless of
//!   masking or sharding, bit-for-bit the historical loops.  In
//!   [`DrawMode::Fast`] every walker consumes exactly **one `u64`** pulled
//!   through the RNG's bulk lane-buffer path ([`rand::RngCore::fill_u64`],
//!   whole ChaCha8 blocks): the low 32 bits decide laziness by integer
//!   threshold, the high 32 bits pick the neighbour by the multiply-shift
//!   reduction `(hi * deg) >> 32` — no division, no rejection loop, and
//!   the same consumption masked or unmasked.  The two modes sample the
//!   same walk distribution (neighbour bias ≤ `deg / 2^32`) but different
//!   realizations; each has its own golden traces.  A plan with
//!   `available: None` is bit-for-bit a plan with an all-available mask in
//!   both modes.
//! * **Exact compositions.**  Masked × static, masked × dynamic
//!   (retarget), and masked × sharded rounds are all executions of this one
//!   routine, so their degeneracies are exact: all-available masks
//!   reproduce the unmasked round bitwise (RNG stream included), and a
//!   1-shard plan reproduces the historical holder-order loop bitwise.
//!   Multi-shard plans split the RNG into per-shard streams, so *across*
//!   shard counts the walk is statistically equivalent, never bitwise —
//!   the one composition that is statistical rather than exact.
//! * **Conservation.**  In debug builds the merge asserts that the
//!   counting-sort cursors land exactly on their bucket boundaries (the
//!   two arrival replays agree), and each engine asserts after the merge
//!   that survivors + arrivals (bounced walkers are survivors) equal its
//!   walker count — one shared discipline instead of per-engine ad hoc
//!   checks.
//! * **No steady-state allocation.**  All counting-sort scratch lives in
//!   the caller's [`RoundArena`] and is reused; after warm-up, rounds
//!   allocate nothing (measured in `crates/bench/benches/sharded_mixing.rs`).

use crate::graph::{Graph, NodeId};
use rand::Rng;

/// How a round draws randomness for each walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrawMode {
    /// The historical draw-for-draw stream: one `f64` for the lazy decision
    /// (only when `laziness > 0`), then one rejection-sampled uniform index.
    /// Bitwise identical to the pre-refactor engines; gated by the
    /// `golden_round_traces` suite.
    #[default]
    Compat,
    /// The lane-buffered stream: exactly one `u64` per walker, filled in
    /// whole ChaCha8 blocks, decided branchlessly.  Statistically
    /// equivalent to `Compat`, bitwise gated by its own golden traces.
    Fast,
}

/// Walkers per lane-buffer refill in [`DrawMode::Fast`] — 32 KiB of draws,
/// small enough to stay L1-resident while the decide loop consumes it.
const LANE_CHUNK: usize = 1 << 12;

/// The lazy-stay threshold of the fast draw: a walker stays when the low
/// 32 bits of its draw fall below `floor(laziness * 2^32)`.
#[inline]
fn lazy_threshold(laziness: f64) -> u64 {
    (laziness.clamp(0.0, 1.0) * 4_294_967_296.0) as u64
}

/// Software-prefetches the cache line holding `data[idx]` (no-op off
/// x86_64, and for out-of-range `idx`).  The round kernel's gathers are
/// data-dependent random accesses over arrays far larger than cache at the
/// scales that matter, so issuing the loads a few iterations ahead hides
/// most of the DRAM latency the sweep otherwise stalls on.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch_read<T>(data: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < data.len() {
        // Safety: the index is bounds-checked above, and prefetch has no
        // architectural effect — it only warms the cache.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(data.as_ptr().add(idx) as *const i8, _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, idx);
    }
}

/// Samples one walker's move at node `at`: `None` to stay (lazy draw), else
/// the uniformly chosen neighbour.
///
/// This is the single definition of the per-walker sampling rule.  Every
/// round form (walker order, holder order, sharded, data-parallel) draws
/// through it, in the same order — one `f64` for the lazy decision (only
/// when `laziness > 0`), then one uniform index — which is what keeps the
/// draw-for-draw parity contract with the historical loops in one place.
#[inline]
pub(crate) fn sample_move<R: Rng + ?Sized>(
    graph: &Graph,
    at: NodeId,
    laziness: f64,
    rng: &mut R,
) -> Option<NodeId> {
    if laziness > 0.0 && rng.gen::<f64>() < laziness {
        return None;
    }
    let nbrs = graph.neighbors(at);
    debug_assert!(
        !nbrs.is_empty(),
        "isolated nodes are rejected at construction"
    );
    Some(nbrs[rng.gen_range(0..nbrs.len())] as NodeId)
}

/// [`sample_move`] under an optional availability mask: the draw sequence
/// is identical (one lazy `f64`, then one uniform index), but a chosen
/// recipient that is unavailable turns the move into a stay — the report
/// could not be delivered this round.  With `None` (or an all-available
/// mask) this is exactly [`sample_move`], so masked rounds degenerate to
/// the static forms bit for bit, RNG stream included.
#[inline]
pub(crate) fn sample_move_masked<R: Rng + ?Sized>(
    graph: &Graph,
    at: NodeId,
    laziness: f64,
    available: Option<&[bool]>,
    rng: &mut R,
) -> Option<NodeId> {
    let dest = sample_move(graph, at, laziness, rng)?;
    match available {
        Some(mask) if !mask[dest] => None,
        _ => Some(dest),
    }
}

/// One round's execution inputs: the topology view, the walk's laziness and
/// an optional availability mask.  See the [module docs](self) for the
/// contract.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan<'a> {
    /// The topology walkers move on this round — a static CSR, a
    /// [`crate::dynamic::DynamicGraph`] snapshot, or the shared global CSR
    /// a shard samples against.
    pub graph: &'a Graph,
    /// Per-round stay probability of the lazy walk.
    pub laziness: f64,
    /// Availability mask (`available[u]` = can node `u` receive this
    /// round?); `None` is bit-for-bit an all-available mask.
    pub available: Option<&'a [bool]>,
}

impl<'a> RoundPlan<'a> {
    /// The fully-available plan.
    pub fn new(graph: &'a Graph, laziness: f64) -> Self {
        RoundPlan {
            graph,
            laziness,
            available: None,
        }
    }

    /// A plan under an availability mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the node count — the one
    /// shape error the kernel cannot express as a stay.
    pub fn masked(graph: &'a Graph, laziness: f64, available: &'a [bool]) -> Self {
        assert_eq!(
            available.len(),
            graph.node_count(),
            "availability mask has the wrong length"
        );
        RoundPlan {
            graph,
            laziness,
            available: Some(available),
        }
    }
}

/// Reusable counting-sort scratch owned by a plan executor — one per
/// shard.  Buffers grow to their steady-state
/// capacity during the first rounds and are only ever cleared afterwards,
/// so warm rounds perform no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct RoundArena {
    /// Survivors of the decide phase: local holder node of each kept
    /// walker, grouped by holder in ascending sweep order.
    pub(crate) kept_nodes: Vec<u32>,
    /// Walker ids parallel to `kept_nodes`.
    pub(crate) kept_walkers: Vec<u32>,
    /// Next-round bucket array under construction (swapped with the live
    /// buckets at the end of the merge).
    pub(crate) next_walkers: Vec<u32>,
    /// Per-node scatter cursors of the counting sort.
    pub(crate) cursor: Vec<usize>,
    /// This round's deliveries in send order: destination (global node,
    /// u32-compressed) of each delivered walker.  The sharded engine routes
    /// them into per-destination-shard outboxes.
    pub(crate) deliver_dests: Vec<u32>,
    /// Walker ids parallel to `deliver_dests`.
    pub(crate) deliver_walkers: Vec<u32>,
    /// Lane buffer of bulk RNG draws ([`DrawMode::Fast`]), refilled in
    /// `LANE_CHUNK`-sized blocks.
    pub(crate) lane: Vec<u64>,
    /// Mask bounces of the last decide phase: walkers whose drawn move
    /// chose an unavailable recipient and therefore stayed.  A lazy stay
    /// is not a bounce (no delivery was attempted); under `None` or an
    /// all-available mask this is always 0.
    pub(crate) bounced: u64,
}

impl RoundArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decide phase's deliveries in send order, as parallel
    /// `(destinations, walkers)` slices — valid until the next decide.
    pub fn deliveries(&self) -> (&[u32], &[u32]) {
        (&self.deliver_dests, &self.deliver_walkers)
    }

    /// Mask bounces of the last decide phase (0 when unmasked) — the
    /// telemetry layer's mask-bounce count, derived from accounting the
    /// kernel already performs, never from extra draws.
    pub fn bounced(&self) -> u64 {
        self.bounced
    }
}

/// A borrowed view of one holder range's CSR buckets: the walkers held by
/// local node `lu` are `walkers[starts[lu]..starts[lu + 1]]`, in insertion
/// order.
#[derive(Debug, Clone, Copy)]
pub struct HolderBuckets<'a> {
    /// CSR offsets, one entry per local node plus the terminator.
    pub starts: &'a [usize],
    /// Walker ids, bucketed by local node.
    pub walkers: &'a [u32],
}

/// The decide phase of one holder-order round over one holder range, in
/// [`DrawMode::Compat`].
///
/// `holders` enumerates `(local index, global node)` pairs in the order the
/// range is swept — the shard's `(local id, global id)` table (`(u, u)`
/// under a single-shard partition).  Each holder's walkers (its
/// [`HolderBuckets`] slice) are visited in insertion order and each draws
/// one move from `rng` through the plan's sampling rule.  Survivors — lazy
/// stays *and* masked bounces — are appended to `arena`; every delivery is
/// appended to the arena's delivery buffers (see
/// [`RoundArena::deliveries`]) in send order, and the holder's slot in
/// `sent_local` is incremented (bounces are *not* sent: the delivery never
/// happened).
pub fn decide_holder_moves<R: Rng + ?Sized>(
    plan: &RoundPlan<'_>,
    holders: impl Iterator<Item = (usize, NodeId)>,
    buckets: HolderBuckets<'_>,
    sent_local: &mut [u32],
    arena: &mut RoundArena,
    rng: &mut R,
) {
    arena.kept_nodes.clear();
    arena.kept_walkers.clear();
    arena.deliver_dests.clear();
    arena.deliver_walkers.clear();
    arena.bounced = 0;
    sent_local.fill(0);
    for (lu, u) in holders {
        let held = &buckets.walkers[buckets.starts[lu]..buckets.starts[lu + 1]];
        for &w in held {
            // Same draw sequence as `sample_move_masked`; unrolled so a
            // bounce (move drawn, recipient dark) is distinguishable from
            // a lazy stay (no move drawn) for the arena's bounce count.
            match sample_move(plan.graph, u, plan.laziness, rng) {
                Some(dest) if plan.available.is_none_or(|mask| mask[dest]) => {
                    sent_local[lu] += 1;
                    arena.deliver_dests.push(dest as u32);
                    arena.deliver_walkers.push(w);
                }
                stay => {
                    arena.bounced += stay.is_some() as u64;
                    arena.kept_nodes.push(lu as u32);
                    arena.kept_walkers.push(w);
                }
            }
        }
    }
}

/// The decide phase in [`DrawMode::Fast`]: lane-buffered draws, branchless
/// select.
///
/// The sweep order and the survivor/delivery grouping are identical to
/// [`decide_holder_moves`]; only the per-walker draw differs.  Each walker
/// consumes one `u64` from the lane buffer (refilled from `rng` in whole
/// ChaCha8 blocks, `LANE_CHUNK` draws at a time): laziness is an integer
/// compare on the low 32 bits, the neighbour is the multiply-shift
/// reduction of the high 32 bits over the holder's degree, and the
/// stay/deliver choice is an arithmetic select — both outcome slots are
/// written unconditionally and the matching cursor advances by the flag, so
/// the loop carries no data-dependent branch.  `holders` must cover the
/// bucket range exactly (every walker in `buckets.walkers` is visited
/// once); total stream consumption is `buckets.walkers.len()` draws,
/// masked or not.
pub fn decide_holder_moves_fast<R: Rng + ?Sized>(
    plan: &RoundPlan<'_>,
    holders: impl Iterator<Item = (usize, NodeId)>,
    buckets: HolderBuckets<'_>,
    sent_local: &mut [u32],
    arena: &mut RoundArena,
    rng: &mut R,
) {
    let total = buckets.walkers.len();
    arena.kept_nodes.resize(total, 0);
    arena.kept_walkers.resize(total, 0);
    arena.deliver_dests.resize(total, 0);
    arena.deliver_walkers.resize(total, 0);
    if arena.lane.len() < LANE_CHUNK.min(total) {
        arena.lane.resize(LANE_CHUNK.min(total), 0);
    }
    sent_local.fill(0);
    let (offsets, neighbors) = plan.graph.csr_parts();
    let threshold = lazy_threshold(plan.laziness);
    let mut kept_len = 0usize;
    let mut sent_len = 0usize;
    let mut drawn = 0usize;
    let mut lane_pos = 0usize;
    let mut lane_len = 0usize;
    let mut bounced = 0u64;
    for (lu, u) in holders {
        let row = &neighbors[offsets[u]..offsets[u + 1]];
        let deg = row.len() as u64;
        debug_assert!(deg > 0, "isolated nodes are rejected at construction");
        let held = &buckets.walkers[buckets.starts[lu]..buckets.starts[lu + 1]];
        let mut kept_in_bucket = 0u32;
        for &w in held {
            if lane_pos == lane_len {
                lane_len = LANE_CHUNK.min(total - drawn);
                rng.fill_u64(&mut arena.lane[..lane_len]);
                drawn += lane_len;
                lane_pos = 0;
            }
            let r = arena.lane[lane_pos];
            lane_pos += 1;
            let dest = row[(((r >> 32) * deg) >> 32) as usize];
            let lazy = (r as u32 as u64) < threshold;
            let dark = plan.available.is_some_and(|mask| !mask[dest as usize]);
            let stay = lazy | dark;
            bounced += (!lazy & dark) as u64;
            arena.kept_nodes[kept_len] = lu as u32;
            arena.kept_walkers[kept_len] = w;
            kept_len += stay as usize;
            arena.deliver_dests[sent_len] = dest;
            arena.deliver_walkers[sent_len] = w;
            sent_len += !stay as usize;
            kept_in_bucket += stay as u32;
        }
        sent_local[lu] = held.len() as u32 - kept_in_bucket;
    }
    debug_assert_eq!(
        kept_len + sent_len,
        total,
        "round conservation violated: every walker must survive or be delivered"
    );
    arena.kept_nodes.truncate(kept_len);
    arena.kept_walkers.truncate(kept_len);
    arena.deliver_dests.truncate(sent_len);
    arena.deliver_walkers.truncate(sent_len);
    arena.bounced = bounced;
}

/// The merge phase of one holder-order round over one holder range: a
/// counting sort that rebuilds `bucket_walkers` (and its `bucket_starts`
/// offsets and `load_local` histogram) for the next round from the arena's
/// survivors and an ordered arrival stream.
///
/// `for_each_arrival` must replay the round's arrivals — as
/// `(local destination node, walker)` — in the *canonical* order, and is
/// called exactly twice (once to count, once to scatter); both passes must
/// produce the same sequence.  Survivors land first in each bucket (they
/// are already grouped by node in ascending order, a decide-phase
/// invariant), then arrivals in replay order — exactly the order in which
/// a message-passing simulation would have appended them.
///
/// Debug builds assert that the two arrival replays agree — every
/// counting-sort cursor must land exactly on its bucket boundary — and the
/// engines assert full conservation (survivors + arrivals + bounces =
/// walkers) against their walker counts after the merge.
pub fn merge_round_buckets(
    local_n: usize,
    arena: &mut RoundArena,
    load_local: &mut [u32],
    bucket_starts: &mut [usize],
    bucket_walkers: &mut Vec<u32>,
    mut for_each_arrival: impl FnMut(&mut dyn FnMut(usize, u32)),
) {
    debug_assert_eq!(load_local.len(), local_n);
    debug_assert_eq!(bucket_starts.len(), local_n + 1);
    // Next-round load: survivors plus arrivals.
    load_local.fill(0);
    for &lu in &arena.kept_nodes {
        load_local[lu as usize] += 1;
    }
    for_each_arrival(&mut |lu, _w| {
        load_local[lu] += 1;
    });
    bucket_starts[0] = 0;
    for lu in 0..local_n {
        bucket_starts[lu + 1] = bucket_starts[lu] + load_local[lu] as usize;
    }
    let total = bucket_starts[local_n];
    // Scatter: survivors first, then arrivals in replay order.
    arena.cursor.clear();
    arena.cursor.extend_from_slice(&bucket_starts[..local_n]);
    arena.next_walkers.resize(total, 0);
    for (&lu, &w) in arena.kept_nodes.iter().zip(&arena.kept_walkers) {
        arena.next_walkers[arena.cursor[lu as usize]] = w;
        arena.cursor[lu as usize] += 1;
    }
    {
        let RoundArena {
            next_walkers,
            cursor,
            ..
        } = arena;
        for_each_arrival(&mut |lu, w| {
            next_walkers[cursor[lu]] = w;
            cursor[lu] += 1;
        });
    }
    debug_assert!(
        arena
            .cursor
            .iter()
            .zip(&bucket_starts[1..])
            .all(|(c, s)| c == s),
        "round conservation violated: a counting-sort cursor missed its bucket boundary"
    );
    std::mem::swap(bucket_walkers, &mut arena.next_walkers);
}

/// The walker-order round in [`DrawMode::Compat`]: sweep `positions` once,
/// moving every walker through the plan's sampling rule (an unavailable
/// chosen recipient means the walker stays).  No buckets, no statistics —
/// the cheapest round form.
pub fn sweep_walker_order<R: Rng + ?Sized>(
    plan: &RoundPlan<'_>,
    positions: &mut [u32],
    rng: &mut R,
) {
    for pos in positions.iter_mut() {
        if let Some(dest) = sample_move_masked(
            plan.graph,
            *pos as NodeId,
            plan.laziness,
            plan.available,
            rng,
        ) {
            *pos = dest as u32;
        }
    }
}

/// How many iterations ahead the fast sweep prefetches the CSR offset pair
/// of an upcoming position (stage 1 of the software pipeline).
const PF_FAR: usize = 16;
/// How many iterations ahead the fast sweep prefetches the neighbour row an
/// upcoming position gathers from (stage 2 — its offset was prefetched
/// `PF_FAR`` - ``PF_NEAR` iterations earlier, so reading it here is a
/// likely hit).
const PF_NEAR: usize = 8;

/// The walker-order round in [`DrawMode::Fast`]: lane-buffered draws and a
/// two-stage software-prefetched CSR gather.
///
/// Positions are swept in `LANE_CHUNK`-sized chunks; each chunk's draws
/// are filled into `lane` in whole ChaCha8 blocks, then consumed by a loop
/// that prefetches the offset pair of the position `PF_FAR` iterations
/// ahead and the neighbour row of the position `PF_NEAR` iterations ahead
/// — the two dependent random loads of the gather, each issued early enough
/// to overlap DRAM latency with useful work.  Per-walker consumption is one
/// `u64`, identical to the fast holder decide.
pub fn sweep_walker_order_fast<R: Rng + ?Sized>(
    plan: &RoundPlan<'_>,
    positions: &mut [u32],
    lane: &mut Vec<u64>,
    rng: &mut R,
) {
    let total = positions.len();
    if lane.len() < LANE_CHUNK.min(total) {
        lane.resize(LANE_CHUNK.min(total), 0);
    }
    let (offsets, neighbors) = plan.graph.csr_parts();
    let threshold = lazy_threshold(plan.laziness);
    let mut done = 0usize;
    while done < total {
        let chunk_len = LANE_CHUNK.min(total - done);
        rng.fill_u64(&mut lane[..chunk_len]);
        let chunk = &mut positions[done..done + chunk_len];
        for i in 0..chunk_len {
            if i + PF_FAR < chunk_len {
                prefetch_read(offsets, chunk[i + PF_FAR] as usize);
            }
            if i + PF_NEAR < chunk_len {
                prefetch_read(neighbors, offsets[chunk[i + PF_NEAR] as usize]);
            }
            let pos = chunk[i] as usize;
            let r = lane[i];
            let off = offsets[pos];
            let deg = (offsets[pos + 1] - off) as u64;
            let dest = neighbors[off + (((r >> 32) * deg) >> 32) as usize];
            let stay = ((r as u32 as u64) < threshold)
                | plan.available.is_some_and(|mask| !mask[dest as usize]);
            chunk[i] = if stay { chunk[i] } else { dest };
        }
        done += chunk_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::seeded_rng;

    #[test]
    fn masked_plan_rejects_wrong_mask_length() {
        let g = generators::cycle(6).unwrap();
        let mask = vec![true; 5];
        let result = std::panic::catch_unwind(|| RoundPlan::masked(&g, 0.0, &mask));
        assert!(result.is_err());
    }

    #[test]
    fn decide_and_merge_compose_into_one_round() {
        // A hand-driven single-shard round: decide into a flat arrival
        // list, merge, and check positions/buckets agree with a naive
        // re-derivation.
        let g = generators::random_regular(24, 4, &mut seeded_rng(1)).unwrap();
        let n = g.node_count();
        let plan = RoundPlan::new(&g, 0.2);
        let mut arena = RoundArena::new();
        // Initial buckets: walker i at node i.
        let mut bucket_starts: Vec<usize> = (0..=n).collect();
        let mut bucket_walkers: Vec<u32> = (0..n as u32).collect();
        let mut positions: Vec<usize> = (0..n).collect();
        let mut sent = vec![0u32; n];
        let mut load = vec![0u32; n];
        let mut rng = seeded_rng(2);
        decide_holder_moves(
            &plan,
            (0..n).map(|u| (u, u)),
            HolderBuckets {
                starts: &bucket_starts,
                walkers: &bucket_walkers,
            },
            &mut sent,
            &mut arena,
            &mut rng,
        );
        let arrivals: Vec<(u32, u32)> = {
            let (dests, walkers) = arena.deliveries();
            dests.iter().copied().zip(walkers.iter().copied()).collect()
        };
        for &(d, w) in &arrivals {
            positions[w as usize] = d as usize;
        }
        assert_eq!(arena.kept_nodes.len() + arrivals.len(), n);
        assert_eq!(
            sent.iter().map(|&s| s as usize).sum::<usize>(),
            arrivals.len()
        );
        merge_round_buckets(
            n,
            &mut arena,
            &mut load,
            &mut bucket_starts,
            &mut bucket_walkers,
            |sink| {
                for &(d, w) in &arrivals {
                    sink(d as usize, w);
                }
            },
        );
        assert_eq!(load.iter().map(|&l| l as usize).sum::<usize>(), n);
        for u in 0..n {
            for &w in &bucket_walkers[bucket_starts[u]..bucket_starts[u + 1]] {
                assert_eq!(positions[w as usize], u);
            }
        }
    }

    #[test]
    fn all_available_mask_is_bitwise_the_unmasked_plan() {
        let g = generators::random_regular(40, 4, &mut seeded_rng(3)).unwrap();
        let mask = vec![true; 40];
        let mut a: Vec<u32> = (0..40).collect();
        let mut b = a.clone();
        let mut rng_a = seeded_rng(4);
        let mut rng_b = seeded_rng(4);
        for _ in 0..10 {
            sweep_walker_order(&RoundPlan::new(&g, 0.3), &mut a, &mut rng_a);
            sweep_walker_order(&RoundPlan::masked(&g, 0.3, &mask), &mut b, &mut rng_b);
        }
        assert_eq!(a, b);
        use rand::Rng;
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn fast_mode_masked_degeneracy_and_consumption_match_unmasked() {
        // All-available mask ≡ unmasked, bitwise, in fast mode too — and
        // both consume exactly one u64 per walker per round.
        let g = generators::random_regular(48, 4, &mut seeded_rng(5)).unwrap();
        let mask = vec![true; 48];
        let mut a: Vec<u32> = (0..48).collect();
        let mut b = a.clone();
        let mut rng_a = seeded_rng(6);
        let mut rng_b = seeded_rng(6);
        let mut reference = seeded_rng(6);
        let mut lane_a = Vec::new();
        let mut lane_b = Vec::new();
        for _ in 0..8 {
            sweep_walker_order_fast(&RoundPlan::new(&g, 0.3), &mut a, &mut lane_a, &mut rng_a);
            sweep_walker_order_fast(
                &RoundPlan::masked(&g, 0.3, &mask),
                &mut b,
                &mut lane_b,
                &mut rng_b,
            );
        }
        assert_eq!(a, b);
        use rand::Rng;
        for _ in 0..8 * 48 {
            reference.gen::<u64>();
        }
        let expect = reference.gen::<u64>();
        assert_eq!(rng_a.gen::<u64>(), expect, "fast sweep over/under-consumed");
        assert_eq!(rng_b.gen::<u64>(), expect, "masked fast sweep diverged");
    }

    #[test]
    fn fast_decide_agrees_with_fast_sweep_on_destinations() {
        // Holder-order fast decide and walker-order fast sweep share the
        // per-walker draw rule; with one walker per node and the holder
        // sweep visiting walkers in node order, round 1 must move walker w
        // to the same destination the sweep computes from the same stream.
        let g = generators::random_regular(32, 4, &mut seeded_rng(7)).unwrap();
        let n = g.node_count();
        let plan = RoundPlan::new(&g, 0.25);
        let mut arena = RoundArena::new();
        let bucket_starts: Vec<usize> = (0..=n).collect();
        let bucket_walkers: Vec<u32> = (0..n as u32).collect();
        let mut sent = vec![0u32; n];
        let mut rng = seeded_rng(8);
        decide_holder_moves_fast(
            &plan,
            (0..n).map(|u| (u, u)),
            HolderBuckets {
                starts: &bucket_starts,
                walkers: &bucket_walkers,
            },
            &mut sent,
            &mut arena,
            &mut rng,
        );
        let mut positions: Vec<u32> = (0..n as u32).collect();
        let mut lane = Vec::new();
        let mut sweep_rng = seeded_rng(8);
        sweep_walker_order_fast(&plan, &mut positions, &mut lane, &mut sweep_rng);
        let (dests, walkers) = arena.deliveries();
        assert_eq!(
            dests.len() + arena.kept_nodes.len(),
            n,
            "every walker survives or is delivered"
        );
        for (&d, &w) in dests.iter().zip(walkers) {
            assert_eq!(positions[w as usize], d);
        }
        for (&lu, &w) in arena.kept_nodes.iter().zip(&arena.kept_walkers) {
            assert_eq!(positions[w as usize], lu, "survivor moved");
            let _ = w;
        }
        assert_eq!(sent.iter().map(|&s| s as usize).sum::<usize>(), dests.len());
    }
}
