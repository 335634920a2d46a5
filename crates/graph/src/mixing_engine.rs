//! Walker-order execution of exchange rounds: independent Monte-Carlo
//! walkers over struct-of-arrays state.
//!
//! Every round, each report held at node `u` moves to a uniformly random
//! neighbour of `u` (staying put with probability `laziness`) — the
//! exchange step of Algorithms 1 and 2.  [`MixingEngine`] keeps one flat
//! array, `positions[w]` = the node holding walker `w`, and sweeps it once
//! per round in walker-id order ([`MixingEngine::step`] /
//! [`MixingEngine::step_masked`], the kernel's
//! [`crate::round::sweep_walker_order`]).  That is the cheapest round form
//! and all that Monte-Carlo estimates of walk statistics need (empty-holder
//! counts, empirical position distributions, return rates).
//!
//! Protocol runs need more: per-holder buckets in the order a
//! message-passing simulation would have built them, per-round traffic
//! statistics and a finalize step that reads each holder's reports.  That
//! **holder order** lives in one place,
//! [`ShardedMixingEngine`](crate::sharded_engine::ShardedMixingEngine) —
//! for any shard count, including the single-shard protocol runs of
//! `network_shuffle::simulation`.  Its per-round statistics stream through
//! the [`RoundObserver`] hook defined here.
//!
//! With the `parallel` cargo feature, `MixingEngine::run_parallel` executes
//! walker-order rounds across threads in fixed-size chunks with per-chunk
//! deterministic RNG streams (results depend only on the seed, never on the
//! number of threads).

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::round::{self, DrawMode, RoundPlan};
use crate::telemetry::EngineTelemetry;
use crate::walk::WalkConfig;
use rand::Rng;

/// Per-round measurements streamed to a [`RoundObserver`].
#[derive(Debug)]
pub struct RoundStats<'a> {
    /// 1-based index of the round that just finished.
    pub round: usize,
    /// Messages sent by each node this round (walkers that moved away).
    pub sent: &'a [u32],
    /// Walkers held by each node after the round.
    pub load: &'a [u32],
}

/// Streaming consumer of per-round statistics.
///
/// Implementations accumulate whatever they need (total traffic, peak load,
/// mixing diagnostics) while the engine runs, so no per-client post-hoc pass
/// over the population is required.
pub trait RoundObserver {
    /// Called once per executed round, after all moves of the round.
    fn on_round(&mut self, stats: &RoundStats<'_>);
}

/// The no-op observer: rounds are executed without collecting statistics.
impl RoundObserver for () {
    fn on_round(&mut self, _stats: &RoundStats<'_>) {}
}

impl<O: RoundObserver + ?Sized> RoundObserver for &mut O {
    fn on_round(&mut self, stats: &RoundStats<'_>) {
        (**self).on_round(stats);
    }
}

/// Walker-order executor of exchange rounds over a flat position array.
///
/// Walker `w` is identified by its index in the position array; callers
/// attach meaning (e.g. "report produced by user `w`") externally.
#[derive(Debug, Clone)]
pub struct MixingEngine<'g> {
    graph: &'g Graph,
    /// `positions[w]` is the node currently holding walker `w`,
    /// u32-compressed (node ids fit by the graph's `n < 2^32` bound) so the
    /// position sweep moves half the bytes.
    positions: Vec<u32>,
    /// How rounds draw randomness (see [`DrawMode`]); `Compat` by default.
    draw_mode: DrawMode,
    /// Rounds executed so far.
    round: usize,
    /// The fast draw mode's RNG lane buffer, reused across rounds (no
    /// steady-state allocation).
    lane: Vec<u64>,
    /// Attached telemetry (`None` = the no-op path).  Inert by
    /// construction: recording never draws randomness or touches round
    /// state, so instrumented rounds are bitwise the bare rounds.
    telemetry: Option<EngineTelemetry>,
}

impl<'g> MixingEngine<'g> {
    /// Creates an engine with one walker per node, walker `i` starting at
    /// node `i` — the initial condition of network shuffling, where every
    /// user holds exactly her own randomized report.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] / [`GraphError::IsolatedNode`] for graphs
    /// the walk cannot run on.
    pub fn one_walker_per_node(graph: &'g Graph) -> Result<Self> {
        let starts: Vec<NodeId> = graph.nodes().collect();
        Self::with_starts(graph, starts)
    }

    /// Creates an engine with walkers at the given starting nodes.
    ///
    /// # Errors
    ///
    /// Same as [`MixingEngine::one_walker_per_node`], plus
    /// [`GraphError::NodeOutOfRange`] if a start is out of range and
    /// [`GraphError::InvalidParameters`] if the walker or node count exceeds
    /// the engine's `u32` id space.
    pub fn with_starts(graph: &'g Graph, starts: Vec<NodeId>) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        if let Some(&bad) = starts.iter().find(|&&s| s >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                node_count: n,
            });
        }
        if starts.len() > u32::MAX as usize || n > u32::MAX as usize {
            return Err(GraphError::InvalidParameters(format!(
                "mixing engine supports at most 2^32 - 1 walkers and nodes, got {} walkers on {n} nodes",
                starts.len()
            )));
        }
        Ok(MixingEngine {
            graph,
            positions: starts.iter().map(|&s| s as u32).collect(),
            draw_mode: DrawMode::Compat,
            round: 0,
            lane: Vec::new(),
            telemetry: None,
        })
    }

    /// Attaches (or with `None` detaches) the phase-timing telemetry
    /// bundle.  Registration happened when the bundle was built; from
    /// here on every recording is a preregistered atomic slot write, so
    /// steady-state rounds stay allocation-free and — because telemetry
    /// never draws randomness or touches state — bitwise identical to
    /// uninstrumented rounds.
    pub fn set_telemetry(&mut self, telemetry: Option<EngineTelemetry>) {
        self.telemetry = telemetry;
    }

    /// The engine's current draw mode.
    pub fn draw_mode(&self) -> DrawMode {
        self.draw_mode
    }

    /// Selects how subsequent rounds draw randomness.  Switching modes
    /// changes the realization of the walk (fast rounds consume one `u64`
    /// per walker, compat rounds the historical draw sequence) but not its
    /// distribution.
    pub fn set_draw_mode(&mut self, mode: DrawMode) {
        self.draw_mode = mode;
    }

    /// The graph the walkers move on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Swaps in a new topology for subsequent rounds — the per-round
    /// topology hook of the churn runtime.  Walker positions and the round
    /// counter carry over unchanged; only where walkers can move *next*
    /// changes.  The new graph must have the same node count (users are
    /// stable; churn removes availability, not identity) and no isolated
    /// nodes.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] on a node-count mismatch,
    /// [`GraphError::IsolatedNode`] if the new topology has one.
    pub fn retarget(&mut self, graph: &'g Graph) -> Result<()> {
        if graph.node_count() != self.graph.node_count() {
            return Err(GraphError::InvalidParameters(format!(
                "cannot retarget an engine on {} nodes to a graph with {}",
                self.graph.node_count(),
                graph.node_count()
            )));
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        self.graph = graph;
        Ok(())
    }

    /// Number of walkers being tracked.
    pub fn walker_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current position of walker `w`.
    pub fn position(&self, walker: usize) -> NodeId {
        self.positions[walker] as NodeId
    }

    /// Current positions of all walkers (`positions[w] = holder of w`),
    /// u32-compressed; widen with `as usize` where a [`NodeId`] is needed.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Histogram of walkers per node: entry `L_i` of Lemma 5.1.
    pub fn load_vector(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.graph.node_count()];
        for &node in &self.positions {
            load[node as usize] += 1;
        }
        load
    }

    /// Groups walkers by their current holder, in walker-id order:
    /// `holders[u]` lists the walker ids currently at node `u` — the
    /// multiset `{s_j}ᵢ` of reports held by each user at the end of the
    /// exchange phase (Figure 2).
    pub fn walkers_by_holder(&self) -> Vec<Vec<usize>> {
        let mut holders = vec![Vec::new(); self.graph.node_count()];
        for (walker, &node) in self.positions.iter().enumerate() {
            holders[node as usize].push(walker);
        }
        holders
    }

    /// Executes one walker-order round: sweep the position array once, moving
    /// every walker to a uniformly random neighbour of its current node
    /// (staying put with probability `laziness`).
    pub fn step<R: Rng + ?Sized>(&mut self, laziness: f64, rng: &mut R) {
        self.step_inner(laziness, None, rng);
    }

    /// Executes one walker-order round under an availability mask: a walker
    /// whose chosen recipient is unavailable stays put for the round (the
    /// send never happens).  With an all-available mask this consumes the
    /// RNG and moves walkers exactly like [`MixingEngine::step`].
    ///
    /// # Panics
    ///
    /// Panics if `available.len()` differs from the node count.
    pub fn step_masked<R: Rng + ?Sized>(&mut self, laziness: f64, available: &[bool], rng: &mut R) {
        assert_eq!(
            available.len(),
            self.graph.node_count(),
            "availability mask has the wrong length"
        );
        self.step_inner(laziness, Some(available), rng);
    }

    fn step_inner<R: Rng + ?Sized>(
        &mut self,
        laziness: f64,
        available: Option<&[bool]>,
        rng: &mut R,
    ) {
        let plan = RoundPlan {
            graph: self.graph,
            laziness,
            available,
        };
        {
            // Walker-order rounds fuse decide and position update into
            // one sweep; the whole sweep is the decide phase.
            let _span = self.telemetry.as_ref().map(|t| t.decide_ns.span(&t.clock));
            match self.draw_mode {
                DrawMode::Compat => round::sweep_walker_order(&plan, &mut self.positions, rng),
                DrawMode::Fast => {
                    round::sweep_walker_order_fast(&plan, &mut self.positions, &mut self.lane, rng)
                }
            }
        }
        self.round += 1;
        if let Some(t) = &self.telemetry {
            t.rounds.inc();
        }
    }

    /// Runs a full walk in walker order.
    ///
    /// # Errors
    ///
    /// Propagates [`WalkConfig::validate`] errors.
    pub fn run<R: Rng + ?Sized>(&mut self, config: WalkConfig, rng: &mut R) -> Result<()> {
        config.validate()?;
        for _ in 0..config.rounds {
            self.step(config.laziness, rng);
        }
        Ok(())
    }
}

/// Data-parallel walker-order rounds (enabled by the `parallel` feature).
///
/// Rayon is not available in this build environment, so parallelism is
/// implemented directly on `std::thread::scope`: the position array is split
/// into fixed-size chunks, each chunk is stepped with its own ChaCha8 stream
/// derived from `(seed, round, chunk index)`, and chunks are dealt to threads
/// round-robin.  Because the chunk size and the per-chunk streams are fixed,
/// the result depends only on the seed — never on how many threads ran.
#[cfg(feature = "parallel")]
mod parallel {
    use super::MixingEngine;
    use crate::rng::{mix64, SimRng};
    use crate::round::{self, DrawMode, RoundPlan};
    use crate::walk::WalkConfig;
    use rand::SeedableRng;

    /// Walkers per deterministic RNG chunk.
    pub const CHUNK_WALKERS: usize = 1 << 16;

    fn chunk_rng(seed: u64, round: usize, chunk: usize) -> SimRng {
        SimRng::seed_from_u64(mix64(mix64(seed ^ round as u64) ^ chunk as u64))
    }

    impl MixingEngine<'_> {
        /// Runs a full walk with parallel rounds.
        ///
        /// Deterministic in `seed` and the starting round index;
        /// independent of thread count.  The sampled trajectories differ
        /// from the serial [`MixingEngine::run`] for the same seed (each
        /// chunk draws from its own stream), but are equally distributed.
        ///
        /// Workers are spawned once for the whole walk, not once per round:
        /// walkers never interact within walker-order rounds, so each thread
        /// advances its chunks through all rounds independently — same
        /// result as round-by-round execution, without per-round thread
        /// churn.
        ///
        /// # Errors
        ///
        /// Propagates [`WalkConfig::validate`] errors.
        pub fn run_parallel(&mut self, config: WalkConfig, seed: u64) -> crate::error::Result<()> {
            config.validate()?;
            let rounds = config.rounds;
            if rounds == 0 {
                return Ok(());
            }
            let base_round = self.round;
            let draw_mode = self.draw_mode;
            let plan = RoundPlan::new(self.graph, config.laziness);
            let threads = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            let chunks: Vec<(usize, &mut [u32])> = self
                .positions
                .chunks_mut(CHUNK_WALKERS)
                .enumerate()
                .collect();
            let threads = threads.min(chunks.len()).max(1);
            let mut per_thread: Vec<Vec<(usize, &mut [u32])>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (index, chunk) in chunks {
                per_thread[index % threads].push((index, chunk));
            }
            std::thread::scope(|scope| {
                for assignment in per_thread {
                    let plan = &plan;
                    scope.spawn(move || {
                        let mut lane = Vec::new();
                        for (chunk_index, chunk) in assignment {
                            for round in base_round..base_round + rounds {
                                let mut rng = chunk_rng(seed, round, chunk_index);
                                match draw_mode {
                                    DrawMode::Compat => {
                                        round::sweep_walker_order(plan, chunk, &mut rng)
                                    }
                                    DrawMode::Fast => round::sweep_walker_order_fast(
                                        plan, chunk, &mut lane, &mut rng,
                                    ),
                                }
                            }
                        }
                    });
                }
            });
            self.round += rounds;
            Ok(())
        }
    }
}

#[cfg(feature = "parallel")]
pub use parallel::CHUNK_WALKERS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::seeded_rng;

    /// The historical per-walker loop, kept verbatim as a reference.
    fn naive_step<R: Rng + ?Sized>(
        graph: &Graph,
        positions: &mut [NodeId],
        laziness: f64,
        rng: &mut R,
    ) {
        for pos in positions.iter_mut() {
            if laziness > 0.0 && rng.gen::<f64>() < laziness {
                continue;
            }
            let nbrs = graph.neighbors(*pos);
            *pos = nbrs[rng.gen_range(0..nbrs.len())] as usize;
        }
    }

    #[test]
    fn walker_order_matches_naive_loop_exactly() {
        let g = generators::random_regular(200, 6, &mut seeded_rng(1)).unwrap();
        for laziness in [0.0, 0.35] {
            let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
            let mut engine_rng = seeded_rng(99);
            let mut naive: Vec<NodeId> = g.nodes().collect();
            let mut naive_rng = seeded_rng(99);
            for _ in 0..25 {
                engine.step(laziness, &mut engine_rng);
                naive_step(&g, &mut naive, laziness, &mut naive_rng);
            }
            let widened: Vec<NodeId> = engine.positions().iter().map(|&p| p as NodeId).collect();
            assert_eq!(widened, naive);
        }
    }

    #[test]
    fn walkers_start_at_their_own_node_and_step_to_neighbours() {
        let g = generators::cycle(6).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        assert_eq!(engine.walker_count(), 6);
        assert_eq!(engine.round(), 0);
        for w in 0..6 {
            assert_eq!(engine.position(w), w);
        }
        let mut rng = seeded_rng(1);
        engine.step(0.0, &mut rng);
        for (w, &a) in engine.positions().iter().enumerate() {
            assert!(
                g.neighbors(w).contains(&a),
                "walker {w} moved from {w} to non-neighbor {a}"
            );
        }
        assert_eq!(engine.round(), 1);
    }

    #[test]
    fn lazy_step_can_keep_walkers_in_place() {
        let g = generators::cycle(6).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        let mut rng = seeded_rng(2);
        engine.step(0.95, &mut rng);
        let stayed = engine
            .positions()
            .iter()
            .enumerate()
            .filter(|(w, &p)| p as usize == *w)
            .count();
        assert!(
            stayed >= 4,
            "expected most walkers to stay, {stayed} stayed"
        );
    }

    #[test]
    fn load_vector_and_holders_count_every_walker_exactly_once() {
        let g = generators::complete(8).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        let mut rng = seeded_rng(3);
        engine.run(WalkConfig::simple(10), &mut rng).unwrap();
        let load = engine.load_vector();
        assert_eq!(load.iter().sum::<usize>(), 8);
        let holders = engine.walkers_by_holder();
        for (u, h) in holders.iter().enumerate() {
            assert_eq!(h.len(), load[u]);
            assert!(h.windows(2).all(|w| w[0] < w[1]), "walker-id order");
            assert!(h.iter().all(|&w| engine.position(w) == u));
        }
    }

    #[test]
    fn empirical_distribution_matches_uniform_limit_on_complete_graph() {
        let g = generators::complete(10).unwrap();
        let mut rng = seeded_rng(4);
        let mut counts = vec![0usize; 10];
        // Many independent walks of walker 0; final position should be ~uniform.
        for _ in 0..3_000 {
            let mut engine = MixingEngine::with_starts(&g, vec![0]).unwrap();
            engine.run(WalkConfig::simple(6), &mut rng).unwrap();
            counts[engine.position(0)] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / 3_000.0;
            assert!((freq - 0.1).abs() < 0.03, "frequency {freq} far from 0.1");
        }
    }

    #[test]
    fn run_validates_laziness_and_runs_lazy_walks() {
        let g = generators::cycle(4).unwrap(); // bipartite; lazy walk still fine
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        let mut rng = seeded_rng(5);
        engine.run(WalkConfig::lazy(20, 0.4), &mut rng).unwrap();
        assert_eq!(engine.round(), 20);
        assert!(engine.positions().iter().all(|&p| p < 4));
        assert!(engine.run(WalkConfig::lazy(20, 1.2), &mut rng).is_err());
        assert_eq!(engine.round(), 20, "a rejected config runs no round");
    }

    #[test]
    fn fast_mode_is_statistically_sane_and_deterministic() {
        // Fast rounds must be seed-deterministic, stay on the graph, and
        // differ from compat rounds only in realization.
        let g = generators::random_regular(300, 6, &mut seeded_rng(21)).unwrap();
        let run = |mode: crate::round::DrawMode, seed: u64| {
            let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
            engine.set_draw_mode(mode);
            let mut rng = seeded_rng(seed);
            for _ in 0..12 {
                engine.step(0.2, &mut rng);
            }
            engine.positions().to_vec()
        };
        let fast_a = run(crate::round::DrawMode::Fast, 5);
        let fast_b = run(crate::round::DrawMode::Fast, 5);
        assert_eq!(fast_a, fast_b, "fast mode must be seed-deterministic");
        assert_ne!(
            fast_a,
            run(crate::round::DrawMode::Fast, 6),
            "fast mode must depend on the seed"
        );
        assert_ne!(fast_a, run(crate::round::DrawMode::Compat, 5));
        assert!(fast_a.iter().all(|&p| (p as usize) < 300));
    }

    #[test]
    fn masked_rounds_with_everyone_available_are_bitwise_static() {
        let g = generators::random_regular(150, 6, &mut seeded_rng(9)).unwrap();
        let mask = vec![true; 150];
        for laziness in [0.0, 0.25] {
            let mut plain = MixingEngine::one_walker_per_node(&g).unwrap();
            let mut masked = MixingEngine::one_walker_per_node(&g).unwrap();
            let mut rng_a = seeded_rng(77);
            let mut rng_b = seeded_rng(77);
            for _ in 0..20 {
                plain.step(laziness, &mut rng_a);
                masked.step_masked(laziness, &mask, &mut rng_b);
            }
            assert_eq!(plain.positions(), masked.positions());
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }

    #[test]
    fn unavailable_recipients_keep_reports_in_place() {
        let g = generators::random_regular(100, 4, &mut seeded_rng(10)).unwrap();
        // Blackout: only node 0..10 available; walkers can never land on an
        // unavailable node, and walkers already there can only leave toward
        // available nodes (or stay).
        let mut mask = vec![false; 100];
        for slot in mask.iter_mut().take(10) {
            *slot = true;
        }
        let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
        let before = engine.positions().to_vec();
        let mut rng = seeded_rng(11);
        engine.step_masked(0.0, &mask, &mut rng);
        for (walker, (&now, &was)) in engine.positions().iter().zip(&before).enumerate() {
            assert!(
                mask[now as usize] || now == was,
                "walker {walker} was delivered to unavailable node {now}"
            );
        }
        // The totally-dark network freezes everyone.
        let dark = vec![false; 100];
        let frozen = engine.positions().to_vec();
        engine.step_masked(0.3, &dark, &mut rng);
        assert_eq!(engine.positions(), frozen.as_slice());
    }

    #[test]
    fn retarget_switches_topology_between_rounds() {
        let ring = generators::cycle(12).unwrap();
        let full = generators::complete(12).unwrap();
        let mut engine = MixingEngine::one_walker_per_node(&ring).unwrap();
        let mut rng = seeded_rng(12);
        engine.step(0.0, &mut rng);
        // On the ring every walker is adjacent to its origin.
        for (walker, &pos) in engine.positions().iter().enumerate() {
            assert!(ring.neighbors(walker).contains(&pos));
        }
        engine.retarget(&full).unwrap();
        assert_eq!(engine.round(), 1);
        engine.step(0.0, &mut rng);
        assert_eq!(engine.round(), 2);
        assert!(engine.positions().iter().all(|&p| p < 12));
        // Mismatched node counts and isolated nodes are rejected.
        let small = generators::cycle(5).unwrap();
        assert!(engine.retarget(&small).is_err());
        let isolated = Graph::from_edges(12, &[(0, 1)]).unwrap();
        assert!(engine.retarget(&isolated).is_err());
    }

    #[test]
    fn construction_validates_inputs() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(MixingEngine::one_walker_per_node(&empty).is_err());
        let isolated = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(MixingEngine::one_walker_per_node(&isolated).is_err());
        let g = generators::cycle(4).unwrap();
        assert!(MixingEngine::with_starts(&g, vec![0, 9]).is_err());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_rounds_are_deterministic_and_conserve_walkers() {
        let g = generators::random_regular(5_000, 8, &mut seeded_rng(7)).unwrap();
        let run = |seed: u64| {
            let mut engine = MixingEngine::one_walker_per_node(&g).unwrap();
            engine
                .run_parallel(WalkConfig::lazy(10, 0.2), seed)
                .unwrap();
            assert_eq!(engine.round(), 10);
            engine.positions().to_vec()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&p| p < 5_000));
    }
}
