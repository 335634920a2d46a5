//! Holder-order execution of exchange rounds, for any shard count, with
//! deterministic RNG splitting.
//!
//! [`ShardedMixingEngine`] is the one engine that runs the protocol's
//! exchange step in **holder order**: nodes are visited in id order, each
//! node's held reports in bucket order, and every report either stays
//! (probability `laziness`) or is sent to a uniformly random neighbour.  It
//! runs the unified round kernel ([`crate::round`]) independently per shard
//! of a [`crate::partition::Partition`], then routes deliveries through
//! per-shard outboxes with one counting-sort exchange phase per round.
//! Protocol runs that need no sharding use
//! [`Partition::single_shard`](crate::partition::Partition::single_shard).
//! Independent Monte-Carlo walkers with no holder buckets run in
//! [`MixingEngine`](crate::mixing_engine::MixingEngine) instead.
//!
//! Sharding, masking and the shard schedule are inputs to one round, not
//! separate code paths: [`ShardedMixingEngine::step`] and
//! [`ShardedMixingEngine::step_masked`] (a delivery to an unavailable
//! recipient bounces back through the return exchange and rejoins its
//! holder as a survivor) run the same loop, live topology churn
//! ([`ShardedMixingEngine::retarget_owned`]) and online repartitioning
//! ([`ShardedMixingEngine::migrate_owned`]) swap the inputs between rounds.
//! The design contracts:
//!
//! * **Seed-only determinism.**  Shard `s` draws from its own ChaCha8 stream
//!   ([`shard_stream`]), and a round's result depends only on
//!   `(seed, partition, starts)` — never on the order shards were executed
//!   in ([`ShardedMixingEngine::step_in_order`] is the audit hook) nor, under
//!   the `parallel` feature where `step` samples shards on scoped threads,
//!   on how many threads ran them.
//! * **Canonical merge order.**  After the per-shard sampling phase, each
//!   node's next-round bucket lists its survivors first (in previous bucket
//!   order) and then its arrivals grouped by *source shard id* in ascending
//!   order, each group in that shard's send order.  This is a fixed function
//!   of the per-shard draws, which is what makes the exchange phase
//!   execution-order-free.
//! * **1-shard degeneracy.**  Under a single-shard partition the round is
//!   the historical holder-order loop draw for draw:
//!   [`shard_stream`]`(seed, 0)` is exactly `SimRng::seed_from_u64(seed)`,
//!   the sweep visits nodes and walkers in id and insertion order, and the
//!   merge lists survivors first, then arrivals in global send order —
//!   positions, bucket orders, per-round sent/load statistics and the RNG
//!   stream itself are pinned by the golden round traces
//!   (`tests/golden/round_traces.txt`).  For `k > 1` the split streams are
//!   a *different but equally distributed* realization of the same walk.
//!
//! Shards share the one immutable global CSR for neighbour sampling — this
//! is a single-box, multi-core runtime; the per-shard CSRs and frontier
//! tables carried by the [`Partition`] describe what each shard would have
//! to hold in a distributed deployment.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::mixing_engine::{RoundObserver, RoundStats};
use crate::partition::Partition;
use crate::rng::{mix64, SimRng};
use crate::round::{self, DrawMode, RoundArena, RoundPlan};
use crate::telemetry::EngineTelemetry;
use rand_chacha::rand_core::SeedableRng;

/// The deterministic RNG stream of shard `shard` under `seed`.
///
/// Shard 0 inherits the base stream `SimRng::seed_from_u64(seed)` — so the
/// 1-shard engine consumes exactly the stream of
/// `SimRng::seed_from_u64(seed)` — and every further shard gets a SplitMix64-decorrelated
/// stream of its own.
pub fn shard_stream(seed: u64, shard: usize) -> SimRng {
    if shard == 0 {
        SimRng::seed_from_u64(seed)
    } else {
        SimRng::seed_from_u64(mix64(mix64(seed) ^ shard as u64))
    }
}

/// Per-shard mutable state: the shard's walker buckets, RNG stream and
/// round scratch.  Walker ids are global; node ids inside the buckets are
/// shard-local.
#[derive(Debug, Clone)]
struct ShardState {
    rng: SimRng,
    /// CSR buckets over local nodes: walkers held by local node `lu` are
    /// `bucket_walkers[bucket_starts[lu]..bucket_starts[lu + 1]]`.
    bucket_starts: Vec<usize>,
    bucket_walkers: Vec<u32>,
    /// The kernel's counting-sort scratch, reused across rounds.
    arena: RoundArena,
    sent_local: Vec<u32>,
    load_local: Vec<u32>,
}

/// One shard's captured state inside an [`EngineCheckpoint`]: the exact
/// ChaCha8 stream position plus the shard's walker buckets.
///
/// Bucket CSRs must be captured, not rebuilt: a running engine's bucket
/// order is history-dependent (survivors first, then arrivals grouped by
/// source shard), whereas [`ShardedMixingEngine::migrate_owned`]'s deterministic
/// rebuild produces walker-id order.  Restoring via a rebuild would be a
/// *distribution-identical but not bitwise* continuation — exactly what the
/// durable runtime's recovery proof forbids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// ChaCha8 key words of the shard stream.
    pub rng_key: [u32; 8],
    /// Next block index of the shard stream.
    pub rng_counter: u64,
    /// Next unread word of the current block (16 = exhausted).
    pub rng_cursor: u32,
    /// CSR starts over the shard's local nodes (`local_n + 1` entries).
    pub bucket_starts: Vec<usize>,
    /// Walkers in bucket order.
    pub bucket_walkers: Vec<u32>,
}

/// A complete, self-contained capture of a [`ShardedMixingEngine`]'s
/// round-boundary state: restoring it against the same `(graph, partition)`
/// continues the run **bit for bit** — positions, bucket orders, RNG
/// streams and per-round statistics of every subsequent round coincide
/// with the uninterrupted engine
/// ([`ShardedMixingEngine::restore_checkpoint`]).
///
/// Not captured (and provably not needed at a round boundary): the round
/// arenas and outboxes (cleared at the start of every sampling phase), the
/// global/local sent and load vectors (fully overwritten every round), and
/// the fast-mode RNG lane buffer (refilled fresh inside every decide call).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// `positions[w]` = global node holding walker `w`.
    pub positions: Vec<u32>,
    /// Rounds executed so far.
    pub round: usize,
    /// The draw mode subsequent rounds will use.
    pub draw_mode: DrawMode,
    /// Per-shard stream and bucket state, indexed by shard id.
    pub shards: Vec<ShardCheckpoint>,
}

/// The engine's topology slot: borrowed for the classic static-lifetime
/// setup, owned for the incremental churn runtime where each round's
/// snapshot is produced on the fly and has no home to outlive the engine
/// ([`ShardedMixingEngine::retarget_owned`]).
#[derive(Debug, Clone)]
enum GraphRef<'g> {
    Borrowed(&'g Graph),
    Owned(Box<Graph>),
}

impl GraphRef<'_> {
    fn get(&self) -> &Graph {
        match self {
            GraphRef::Borrowed(g) => g,
            GraphRef::Owned(g) => g,
        }
    }
}

/// The engine's partition slot, mirroring [`GraphRef`] for online
/// repartitioning ([`ShardedMixingEngine::migrate_owned`]).
#[derive(Debug, Clone)]
enum PartitionRef<'g> {
    Borrowed(&'g Partition),
    Owned(Box<Partition>),
}

impl PartitionRef<'_> {
    fn get(&self) -> &Partition {
        match self {
            PartitionRef::Borrowed(p) => p,
            PartitionRef::Owned(p) => p,
        }
    }
}

/// Multi-shard executor of holder-order exchange rounds.
///
/// See the [module docs](self) for the determinism and degeneracy contracts.
#[derive(Debug, Clone)]
pub struct ShardedMixingEngine<'g> {
    graph: GraphRef<'g>,
    partition: PartitionRef<'g>,
    /// `positions[w]` is the global node currently holding walker `w`,
    /// u32-compressed like the graph's CSR.
    positions: Vec<u32>,
    /// How rounds draw randomness (see [`DrawMode`]); `Compat` by default.
    draw_mode: DrawMode,
    round: usize,
    shards: Vec<ShardState>,
    /// `outboxes[s][d]` holds shard `s`'s cross-(and intra-)shard sends to
    /// shard `d` this round, as `(destination global node, walker)` in send
    /// order.
    outboxes: Vec<Vec<Vec<(u32, u32)>>>,
    /// Whole-population per-round statistics (global node order).
    sent: Vec<u32>,
    load: Vec<u32>,
    /// Attached telemetry (`None` = the no-op path).  Inert by
    /// construction — recording never draws randomness or touches round
    /// state — and shared across the threaded sampling workers (`Sync`
    /// handles).
    telemetry: Option<EngineTelemetry>,
}

impl<'g> ShardedMixingEngine<'g> {
    /// Creates a sharded engine with one walker per node, walker `i`
    /// starting at node `i` — the initial condition of network shuffling.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedMixingEngine::with_starts`].
    pub fn one_walker_per_node(
        graph: &'g Graph,
        partition: &'g Partition,
        seed: u64,
    ) -> Result<Self> {
        let starts: Vec<NodeId> = graph.nodes().collect();
        Self::with_starts(graph, partition, starts, seed)
    }

    /// Creates a sharded engine with walkers at the given starting nodes.
    ///
    /// Initial buckets group walkers by holder in walker-id order.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] / [`GraphError::IsolatedNode`] for graphs
    /// the walk cannot run on, [`GraphError::InvalidParameters`] if the
    /// partition does not cover the graph or the id space overflows `u32`,
    /// [`GraphError::NodeOutOfRange`] for a bad start.
    pub fn with_starts(
        graph: &'g Graph,
        partition: &'g Partition,
        starts: Vec<NodeId>,
        seed: u64,
    ) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if partition.node_count() != n {
            return Err(GraphError::InvalidParameters(format!(
                "partition covers {} nodes but the graph has {n}",
                partition.node_count()
            )));
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
                "sharded engine supports at most 2^32 - 1 walkers and nodes, got {} walkers on {n} nodes",
                starts.len()
            )));
        }
        let k = partition.shard_count();
        let mut shards: Vec<ShardState> = (0..k)
            .map(|s| {
                let local_n = partition.shard(s).len();
                ShardState {
                    rng: shard_stream(seed, s),
                    bucket_starts: vec![0; local_n + 1],
                    bucket_walkers: Vec::new(),
                    arena: RoundArena::new(),
                    sent_local: vec![0; local_n],
                    load_local: vec![0; local_n],
                }
            })
            .collect();
        // Initial buckets: route each walker to its shard once, then run
        // the kernel's counting-sort merge per shard with no survivors and
        // the shard's arrivals (in walker-id order) as the stream.
        let mut initial_arrivals: Vec<Vec<(usize, u32)>> = vec![Vec::new(); k];
        for (walker, &node) in starts.iter().enumerate() {
            initial_arrivals[partition.shard_of(node)]
                .push((partition.local_of(node), walker as u32));
        }
        for (s, state) in shards.iter_mut().enumerate() {
            let local_n = partition.shard(s).len();
            round::merge_round_buckets(
                local_n,
                &mut state.arena,
                &mut state.load_local,
                &mut state.bucket_starts,
                &mut state.bucket_walkers,
                |sink| {
                    for &(lu, w) in &initial_arrivals[s] {
                        sink(lu, w);
                    }
                },
            );
        }
        Ok(ShardedMixingEngine {
            graph: GraphRef::Borrowed(graph),
            partition: PartitionRef::Borrowed(partition),
            positions: starts.iter().map(|&s| s as u32).collect(),
            draw_mode: DrawMode::Compat,
            round: 0,
            shards,
            outboxes: vec![vec![Vec::new(); k]; k],
            sent: vec![0; n],
            load: vec![0; n],
            telemetry: None,
        })
    }

    /// Attaches (or with `None` detaches) the phase-timing telemetry
    /// bundle.  All recording from here on writes preregistered atomic
    /// slots — steady-state rounds stay allocation-free, and because
    /// telemetry never draws randomness or touches state, instrumented
    /// rounds are bitwise identical to bare ones.
    pub fn set_telemetry(&mut self, telemetry: Option<EngineTelemetry>) {
        self.telemetry = telemetry;
    }

    /// The engine's current draw mode.
    pub fn draw_mode(&self) -> DrawMode {
        self.draw_mode
    }

    /// Selects how subsequent rounds draw randomness.  Switching modes
    /// changes the realization of the walk but not its distribution; all
    /// determinism contracts (seed-only, shard-order-free, thread-count
    /// invariance) hold in both modes.
    pub fn set_draw_mode(&mut self, mode: DrawMode) {
        self.draw_mode = mode;
    }

    /// The graph the walkers move on.
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// The partition the engine shards by.
    pub fn partition(&self) -> &Partition {
        self.partition.get()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of walkers being tracked.
    pub fn walker_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current position (global node) of walker `w`.
    pub fn position(&self, walker: usize) -> NodeId {
        self.positions[walker] as NodeId
    }

    /// Current positions of all walkers (`positions[w] = holder of w`),
    /// u32-compressed; widen with `as usize` where a [`NodeId`] is needed.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Per-node relay messages sent in the latest completed round
    /// (`sent[u]` for global node `u`; all zeros before the first round).
    pub fn sent_counts(&self) -> &[u32] {
        &self.sent
    }

    /// Histogram of walkers per global node.
    pub fn load_vector(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.graph.get().node_count()];
        for &node in &self.positions {
            load[node as usize] += 1;
        }
        load
    }

    /// The walkers currently held by global node `u`, in bucket order
    /// (survivors first, then arrivals grouped by source shard).
    pub fn held_by(&self, u: NodeId) -> &[u32] {
        let partition = self.partition.get();
        let state = &self.shards[partition.shard_of(u)];
        let lu = partition.local_of(u);
        &state.bucket_walkers[state.bucket_starts[lu]..state.bucket_starts[lu + 1]]
    }

    /// Groups walkers by their current holder, in bucket order.
    pub fn walkers_by_holder(&self) -> Vec<Vec<usize>> {
        self.graph
            .get()
            .nodes()
            .map(|u| self.held_by(u).iter().map(|&w| w as usize).collect())
            .collect()
    }

    /// Mutable access to shard `shard`'s RNG stream.
    ///
    /// The protocol's final-round submission choices are drawn from the
    /// submitter's shard stream, so a 1-shard run consumes the walk *and*
    /// finalization draws from the one stream `SimRng::seed_from_u64(seed)`
    /// — which is what makes `simulation::run_protocol` and a 1-shard
    /// coordinator bitwise interchangeable.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_rng_mut(&mut self, shard: usize) -> &mut SimRng {
        &mut self.shards[shard].rng
    }

    /// The `(next block, next word)` clock of shard `shard`'s RNG stream —
    /// a cheap consistency fingerprint the durable runtime logs with every
    /// round record: on replay, a clock mismatch means the recovered engine
    /// is *not* re-living the logged history and recovery must abort rather
    /// than silently diverge.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn rng_clock(&self, shard: usize) -> (u64, u32) {
        let (_, counter, cursor) = self.shards[shard].rng.state();
        (counter, cursor)
    }

    /// Captures the engine's complete round-boundary state.  See
    /// [`EngineCheckpoint`] for what is (and deliberately isn't) included.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            positions: self.positions.clone(),
            round: self.round,
            draw_mode: self.draw_mode,
            shards: self
                .shards
                .iter()
                .map(|state| {
                    let (rng_key, rng_counter, rng_cursor) = state.rng.state();
                    ShardCheckpoint {
                        rng_key,
                        rng_counter,
                        rng_cursor,
                        bucket_starts: state.bucket_starts.clone(),
                        bucket_walkers: state.bucket_walkers.clone(),
                    }
                })
                .collect(),
        }
    }

    /// Reconstructs an engine from an [`EngineCheckpoint`] against the same
    /// `(graph, partition)` the checkpointed engine ran on.  The restored
    /// engine continues **bit for bit**: every subsequent round's
    /// positions, bucket orders, statistics and RNG draws equal the
    /// uninterrupted engine's.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the checkpoint's shape is
    /// inconsistent with `(graph, partition)` — wrong shard count, bucket
    /// CSRs that don't cover the shard's local nodes, walkers missing or
    /// duplicated, a walker bucketed at a node other than its recorded
    /// position, or an RNG clock no stream can reach (a cursor past the
    /// 16-word block, or a mid-block cursor before the first block was
    /// generated).  Also the usual topology errors from
    /// [`ShardedMixingEngine::with_starts`] validation.
    pub fn restore_checkpoint(
        graph: &'g Graph,
        partition: &'g Partition,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if partition.node_count() != n {
            return Err(GraphError::InvalidParameters(format!(
                "partition covers {} nodes but the graph has {n}",
                partition.node_count()
            )));
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        let k = partition.shard_count();
        if checkpoint.shards.len() != k {
            return Err(GraphError::InvalidParameters(format!(
                "checkpoint has {} shards but the partition has {k}",
                checkpoint.shards.len()
            )));
        }
        if let Some(&bad) = checkpoint.positions.iter().find(|&&p| p as usize >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad as NodeId,
                node_count: n,
            });
        }
        // Cross-check buckets against positions: every walker must appear in
        // exactly one bucket, at the local node its position maps to.
        let mut seen = vec![false; checkpoint.positions.len()];
        for (s, shard_cp) in checkpoint.shards.iter().enumerate() {
            // A fresh stream sits at (counter 0, cursor 16); every draw
            // leaves cursor in 1..=16 with counter >= 1.  `from_state` would
            // silently clamp or wrap anything else into a different stream.
            if shard_cp.rng_cursor > 16 || (shard_cp.rng_cursor < 16 && shard_cp.rng_counter == 0) {
                return Err(GraphError::InvalidParameters(format!(
                    "shard {s} checkpoint RNG clock (counter {}, cursor {}) is unreachable",
                    shard_cp.rng_counter, shard_cp.rng_cursor
                )));
            }
            let local_n = partition.shard(s).len();
            if shard_cp.bucket_starts.len() != local_n + 1
                || shard_cp.bucket_starts[0] != 0
                || shard_cp.bucket_starts.windows(2).any(|w| w[0] > w[1])
                || shard_cp.bucket_starts[local_n] != shard_cp.bucket_walkers.len()
            {
                return Err(GraphError::InvalidParameters(format!(
                    "shard {s} checkpoint buckets do not form a CSR over {local_n} local nodes"
                )));
            }
            for lu in 0..local_n {
                let global = partition.shard(s).global_of(lu);
                let bucket = &shard_cp.bucket_walkers
                    [shard_cp.bucket_starts[lu]..shard_cp.bucket_starts[lu + 1]];
                for &w in bucket {
                    let valid = (w as usize) < seen.len()
                        && !seen[w as usize]
                        && checkpoint.positions[w as usize] as usize == global;
                    if !valid {
                        return Err(GraphError::InvalidParameters(format!(
                            "shard {s} checkpoint bucket at node {global} holds walker {w}, \
                             which is out of range, duplicated, or positioned elsewhere"
                        )));
                    }
                    seen[w as usize] = true;
                }
            }
        }
        if let Some(w) = seen.iter().position(|&s| !s) {
            return Err(GraphError::InvalidParameters(format!(
                "walker {w} has a position but no bucket slot in the checkpoint"
            )));
        }
        let shards: Vec<ShardState> = checkpoint
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard_cp)| {
                let local_n = partition.shard(s).len();
                ShardState {
                    rng: SimRng::from_state(
                        shard_cp.rng_key,
                        shard_cp.rng_counter,
                        shard_cp.rng_cursor,
                    ),
                    bucket_starts: shard_cp.bucket_starts.clone(),
                    bucket_walkers: shard_cp.bucket_walkers.clone(),
                    arena: RoundArena::new(),
                    sent_local: vec![0; local_n],
                    load_local: vec![0; local_n],
                }
            })
            .collect();
        Ok(ShardedMixingEngine {
            graph: GraphRef::Borrowed(graph),
            partition: PartitionRef::Borrowed(partition),
            positions: checkpoint.positions.clone(),
            draw_mode: checkpoint.draw_mode,
            round: checkpoint.round,
            shards,
            outboxes: vec![vec![Vec::new(); k]; k],
            sent: vec![0; n],
            load: vec![0; n],
            telemetry: None,
        })
    }

    /// Swaps in a new topology for subsequent rounds — the churn runtime's
    /// retarget/delta-apply hook.  The engine takes ownership, so each
    /// round's [`crate::dynamic::DynamicGraph::snapshot`] clone can be
    /// handed straight over with no stable home to borrow from.  Walker
    /// positions, per-shard buckets, RNG streams and the round counter
    /// carry over unchanged; only where walkers can move *next* changes.
    /// The node count must match (the partition's shard assignment stays
    /// valid: users are stable, churn rewires edges and availability, not
    /// identity) and the new topology must have no isolated nodes.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] on a node-count mismatch,
    /// [`GraphError::IsolatedNode`] if the new topology has one.
    pub fn retarget_owned(&mut self, graph: Graph) -> Result<()> {
        if graph.node_count() != self.graph.get().node_count() {
            return Err(GraphError::InvalidParameters(format!(
                "cannot retarget an engine on {} nodes to a graph with {}",
                self.graph.get().node_count(),
                graph.node_count()
            )));
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        self.graph = GraphRef::Owned(Box::new(graph));
        Ok(())
    }

    /// Migrates the engine to a new shard assignment mid-run — the online
    /// repartitioning exchange, taking ownership of the new partition (the
    /// hook for partitions refined online from a live
    /// [`crate::dynamic::DynamicGraph`] via
    /// [`crate::partition::Partition::refined_assignment`], which have no
    /// stable home to borrow from).  Walker positions, per-shard RNG
    /// streams, the draw mode and the round counter carry over unchanged;
    /// every shard's buckets are rebuilt deterministically under the new
    /// partition by one counting-sort pass fed with the shard's walkers in
    /// walker-id order (the [`ShardedMixingEngine::with_starts`]
    /// initial-bucket rule), so the result is a fixed function of
    /// `(positions, partition)` — independent of the old bucket orders and
    /// of how many rounds ran before.
    ///
    /// Returns the **movers**: the ascending list of global nodes whose
    /// shard assignment changed.  In a distributed deployment these are the
    /// users whose report queues are in flight between shards for one
    /// round; mask them for the round after migrating
    /// ([`ShardedMixingEngine::step_masked`]) and the accountant prices the
    /// migration through the ordinary masked-operator path.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the new partition's node count
    /// or shard count differs from the engine's (shard RNG streams are
    /// per-shard state; changing the shard count mid-run would forfeit
    /// seed-only determinism).
    pub fn migrate_owned(&mut self, partition: Partition) -> Result<Vec<NodeId>> {
        let mut movers = Vec::new();
        self.migrate_ref(PartitionRef::Owned(Box::new(partition)), &mut movers)?;
        Ok(movers)
    }

    /// [`ShardedMixingEngine::migrate_owned`] borrowing the new partition
    /// and reusing the caller's `movers` buffer (cleared and refilled).
    /// Once the per-shard buffers have reached their high-water marks for
    /// every partition shape in rotation, a migration through this entry
    /// point performs **zero** heap allocations — the property the
    /// `sharded_mixing` steady-state audit pins.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedMixingEngine::migrate_owned`].
    pub fn migrate_borrowed_into(
        &mut self,
        partition: &'g Partition,
        movers: &mut Vec<NodeId>,
    ) -> Result<()> {
        self.migrate_ref(PartitionRef::Borrowed(partition), movers)
    }

    fn migrate_ref(&mut self, new: PartitionRef<'g>, movers: &mut Vec<NodeId>) -> Result<()> {
        let next = new.get();
        let n = self.partition.get().node_count();
        if next.node_count() != n {
            return Err(GraphError::InvalidParameters(format!(
                "cannot migrate an engine over {n} nodes to a partition over {}",
                next.node_count()
            )));
        }
        if next.shard_count() != self.shards.len() {
            return Err(GraphError::InvalidParameters(format!(
                "cannot migrate {} shard streams to a {}-shard partition",
                self.shards.len(),
                next.shard_count()
            )));
        }
        movers.clear();
        {
            let old = self.partition.get();
            for u in 0..n {
                if old.shard_of(u) != next.shard_of(u) {
                    movers.push(u);
                }
            }
        }
        // Route every walker to its new shard in walker-id order, reusing
        // shard 0's outbox rows as the per-destination scratch (cleared at
        // the start of every sampling phase anyway).
        let routes = &mut self.outboxes[0];
        for row in routes.iter_mut() {
            row.clear();
        }
        for (w, &pos) in self.positions.iter().enumerate() {
            routes[next.shard_of(pos as usize)].push((pos, w as u32));
        }
        // Rebuild each shard's buckets with the kernel's counting sort: no
        // survivors, the routed walkers as the canonical arrival stream.
        for (d, state) in self.shards.iter_mut().enumerate() {
            let local_n = next.shard(d).len();
            state.bucket_starts.resize(local_n + 1, 0);
            state.sent_local.resize(local_n, 0);
            state.sent_local.fill(0);
            state.load_local.resize(local_n, 0);
            state.arena.kept_nodes.clear();
            state.arena.kept_walkers.clear();
            let row = &self.outboxes[0][d];
            round::merge_round_buckets(
                local_n,
                &mut state.arena,
                &mut state.load_local,
                &mut state.bucket_starts,
                &mut state.bucket_walkers,
                |sink| {
                    for &(dest, w) in row {
                        sink(next.local_of(dest as usize), w);
                    }
                },
            );
        }
        // Positions are untouched, so the global per-node sent/load
        // statistics still describe the last executed round.
        self.partition = new;
        Ok(())
    }

    /// Executes one holder-order round across all shards, streaming
    /// whole-population statistics to `observer` (pass `&mut ()` to skip).
    ///
    /// Without the `parallel` feature the shards sample in ascending shard
    /// order; with it, a multi-shard engine samples its shards on scoped
    /// threads.  By the determinism contract both schedules — and any other
    /// ([`ShardedMixingEngine::step_in_order`]) — yield bitwise the same
    /// round.
    pub fn step<O: RoundObserver>(&mut self, laziness: f64, observer: &mut O) {
        self.sample_all(laziness, None);
        self.merge_round(observer);
    }

    /// [`ShardedMixingEngine::step`] under an availability mask (global
    /// node ids): a walker whose chosen recipient is unavailable stays put
    /// for the round — in a distributed deployment, a cross-shard delivery
    /// to a dark recipient bounces back to its source shard through the
    /// return leg of the exchange and rejoins the holder's bucket as a
    /// survivor, which is exactly how the kernel accounts it (not sent, not
    /// an arrival).  With an all-available mask the round is bit-for-bit
    /// [`ShardedMixingEngine::step`], RNG streams, bucket orders and
    /// statistics included.
    ///
    /// # Panics
    ///
    /// Panics if `available.len()` differs from the node count.
    pub fn step_masked<O: RoundObserver>(
        &mut self,
        laziness: f64,
        available: &[bool],
        observer: &mut O,
    ) {
        self.check_mask(Some(available));
        self.sample_all(laziness, Some(available));
        self.merge_round(observer);
    }

    /// One round (masked when `available` is `Some`) with the per-shard
    /// sampling phase run sequentially in an explicit shard order — the
    /// determinism audit hook: any permutation of `0..shard_count` must
    /// produce bitwise the [`ShardedMixingEngine::step`] /
    /// [`ShardedMixingEngine::step_masked`] round, because shards only touch
    /// their own stream and outboxes and the merge order is canonical.  It
    /// never spawns threads, so it is also the sequential schedule under
    /// the `parallel` feature.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..shard_count` or the
    /// mask length differs from the node count.
    pub fn step_in_order<O: RoundObserver>(
        &mut self,
        laziness: f64,
        available: Option<&[bool]>,
        order: &[usize],
        observer: &mut O,
    ) {
        let k = self.shards.len();
        assert_eq!(order.len(), k, "order must cover every shard exactly once");
        for (i, &s) in order.iter().enumerate() {
            assert!(
                s < k && !order[..i].contains(&s),
                "order must be a permutation of 0..{k}"
            );
        }
        self.check_mask(available);
        self.sample_in_order(laziness, available, order.iter().copied());
        self.merge_round(observer);
    }

    fn check_mask(&self, available: Option<&[bool]>) {
        if let Some(mask) = available {
            assert_eq!(
                mask.len(),
                self.graph.get().node_count(),
                "availability mask has the wrong length"
            );
        }
    }

    /// The sampling phase of a [`ShardedMixingEngine::step`] round: every
    /// shard in ascending order, or — under the `parallel` feature, with
    /// more than one shard — on scoped threads.
    fn sample_all(&mut self, laziness: f64, available: Option<&[bool]>) {
        #[cfg(feature = "parallel")]
        if self.shards.len() > 1 {
            self.sample_threaded(laziness, available);
            return;
        }
        self.sample_in_order(laziness, available, 0..self.shards.len());
    }

    /// The sequential sampling phase: each shard of `order` runs the
    /// kernel's decide sweep into its own outbox row.
    fn sample_in_order(
        &mut self,
        laziness: f64,
        available: Option<&[bool]>,
        order: impl Iterator<Item = usize>,
    ) {
        let graph = self.graph.get();
        let partition = self.partition.get();
        let mode = self.draw_mode;
        let telemetry = self.telemetry.as_ref();
        for s in order {
            let _span = telemetry.map(|t| t.decide_ns.span(&t.clock));
            sample_shard_round(
                graph,
                partition,
                s,
                &mut self.shards[s],
                &mut self.outboxes[s],
                laziness,
                available,
                mode,
            );
        }
    }

    /// The canonical exchange phase: folds the finished sampling phase's
    /// per-shard accounting (mask bounces, outbox row depths) into the
    /// attached telemetry, merges survivors and (per source shard, in
    /// ascending shard order) deliveries into each shard's next-round
    /// buckets via one counting sort per shard, updates walker positions,
    /// folds the per-shard statistics into the global vectors and reports
    /// the round.
    fn merge_round<O: RoundObserver>(&mut self, observer: &mut O) {
        let partition = self.partition.get();
        let k = self.shards.len();
        let telemetry = self.telemetry.as_ref();
        if let Some(t) = telemetry {
            for state in &self.shards {
                t.mask_bounces.add(state.arena.bounced());
            }
            for source in &self.outboxes {
                for row in source {
                    t.outbox_depth.record(row.len() as u64);
                }
            }
        }
        for d in 0..k {
            let nodes = partition.shard(d).nodes();
            let local_n = nodes.len();
            // Record delivered walkers' new positions (send order within a
            // source row; final values are order-independent — each walker
            // appears in exactly one outbox entry).  The walker ids index
            // the position array essentially at random, so prefetch a few
            // entries ahead.
            {
                let _span = telemetry.map(|t| t.exchange_ns.span(&t.clock));
                for source in self.outboxes.iter() {
                    let row = &source[d];
                    for (i, &(dest, w)) in row.iter().enumerate() {
                        if let Some(&(_, wf)) = row.get(i + 8) {
                            round::prefetch_read(&self.positions, wf as usize);
                        }
                        self.positions[w as usize] = dest;
                    }
                }
            }
            // The kernel's counting-sort merge: survivors first (grouped by
            // local node, a decide-phase invariant), then arrivals by
            // source shard in ascending id, each row in send order — the
            // canonical order that makes the exchange execution-order-free.
            let state = &mut self.shards[d];
            let outboxes = &self.outboxes;
            {
                let _span = telemetry.map(|t| t.merge_ns.span(&t.clock));
                if k == 1 {
                    // One shard's local ids are the global ids (`Partition`
                    // numbers locals in global order), so its single row
                    // replays without a lookup per arrival.
                    let row = &outboxes[0][0];
                    round::merge_round_buckets(
                        local_n,
                        &mut state.arena,
                        &mut state.load_local,
                        &mut state.bucket_starts,
                        &mut state.bucket_walkers,
                        |sink| {
                            for &(dest, w) in row {
                                sink(dest as usize, w);
                            }
                        },
                    );
                } else {
                    round::merge_round_buckets(
                        local_n,
                        &mut state.arena,
                        &mut state.load_local,
                        &mut state.bucket_starts,
                        &mut state.bucket_walkers,
                        |sink| {
                            for source in outboxes.iter() {
                                for &(dest, w) in &source[d] {
                                    sink(partition.local_of(dest as usize), w);
                                }
                            }
                        },
                    );
                }
            }
            // Fold this shard's statistics into the global vectors.
            for (lu, &u) in nodes.iter().enumerate() {
                self.sent[u] = state.sent_local[lu];
                self.load[u] = state.load_local[lu];
            }
        }
        debug_assert_eq!(
            self.load.iter().map(|&l| l as usize).sum::<usize>(),
            self.positions.len(),
            "round conservation violated: survivors + arrivals + bounces must equal the walkers"
        );
        self.round += 1;
        if let Some(t) = telemetry {
            t.rounds.inc();
        }
        observer.on_round(&RoundStats {
            round: self.round,
            sent: &self.sent,
            load: &self.load,
        });
    }
}

/// Phase 1 for one shard: the kernel's decide sweep over the shard's nodes
/// in ascending local (= global) order, drawing every move from the shard's
/// own stream through the engine-wide sampling rule (compat or fast).
/// Survivors — lazy stays *and* masked bounces — stay in the shard's arena;
/// every delivery, intra- or cross-shard, is then routed from the arena's
/// delivery buffers to the outbox row of its destination shard, preserving
/// send order.
#[allow(clippy::too_many_arguments)]
fn sample_shard_round(
    graph: &Graph,
    partition: &Partition,
    shard: usize,
    state: &mut ShardState,
    outbox: &mut [Vec<(u32, u32)>],
    laziness: f64,
    available: Option<&[bool]>,
    mode: DrawMode,
) {
    for row in outbox.iter_mut() {
        row.clear();
    }
    let plan = RoundPlan {
        graph,
        laziness,
        available,
    };
    let nodes = partition.shard(shard).nodes();
    let ShardState {
        rng,
        bucket_starts,
        bucket_walkers,
        arena,
        sent_local,
        ..
    } = state;
    let holders = nodes.iter().copied().enumerate();
    let buckets = round::HolderBuckets {
        starts: bucket_starts,
        walkers: bucket_walkers,
    };
    match mode {
        DrawMode::Compat => {
            round::decide_holder_moves(&plan, holders, buckets, sent_local, arena, rng)
        }
        DrawMode::Fast => {
            round::decide_holder_moves_fast(&plan, holders, buckets, sent_local, arena, rng)
        }
    }
    let (dests, walkers) = arena.deliveries();
    if let [row] = outbox {
        // One shard: every delivery lands in the one row, no lookup needed.
        row.extend(dests.iter().copied().zip(walkers.iter().copied()));
    } else {
        for (&dest, &w) in dests.iter().zip(walkers) {
            outbox[partition.shard_of(dest as usize)].push((dest, w));
        }
    }
}

/// Data-parallel shard sampling (enabled by the `parallel` feature).
///
/// As elsewhere in the workspace, rayon is unavailable, so shards are dealt
/// round-robin to `std::thread::scope` workers.  Each shard samples from its
/// own stream into its own outbox row, and the merge phase is a fixed
/// function of those outputs, so threaded rounds are **bitwise equal** to
/// sequential ones for any thread count.
#[cfg(feature = "parallel")]
mod parallel {
    use super::{sample_shard_round, ShardState, ShardedMixingEngine};

    /// One shard's sampling-phase work item: shard id, state and outbox row.
    type ShardWork<'a> = (usize, (&'a mut ShardState, &'a mut Vec<Vec<(u32, u32)>>));

    impl ShardedMixingEngine<'_> {
        /// The threaded sampling phase behind [`ShardedMixingEngine::step`]
        /// and [`ShardedMixingEngine::step_masked`].
        pub(super) fn sample_threaded(&mut self, laziness: f64, available: Option<&[bool]>) {
            let graph = self.graph.get();
            let partition = self.partition.get();
            let mode = self.draw_mode;
            let work: Vec<ShardWork<'_>> = self
                .shards
                .iter_mut()
                .zip(self.outboxes.iter_mut())
                .enumerate()
                .collect();
            let threads = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(work.len())
                .max(1);
            let mut per_thread: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
            for (index, item) in work.into_iter().enumerate() {
                per_thread[index % threads].push(item);
            }
            let telemetry = self.telemetry.as_ref();
            std::thread::scope(|scope| {
                for assignment in per_thread {
                    scope.spawn(move || {
                        for (s, (state, outbox)) in assignment {
                            let _span = telemetry.map(|t| t.decide_ns.span(&t.clock));
                            sample_shard_round(
                                graph, partition, s, state, outbox, laziness, available, mode,
                            );
                        }
                    });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn graph(n: usize, k: usize, seed: u64) -> Graph {
        generators::random_regular(n, k, &mut seeded_rng(seed)).unwrap()
    }

    fn partition(g: &Graph, k: usize) -> Partition {
        if k == 1 {
            Partition::single_shard(g).unwrap()
        } else {
            Partition::new(g, k).unwrap()
        }
    }

    #[test]
    fn construction_validates_inputs() {
        let g = graph(40, 4, 1);
        let p = Partition::new(&g, 4).unwrap();
        let other = graph(30, 4, 2);
        assert!(ShardedMixingEngine::one_walker_per_node(&other, &p, 7).is_err());
        assert!(ShardedMixingEngine::with_starts(&g, &p, vec![0, 41], 7).is_err());
        let empty = Graph::from_edges(0, &[]).unwrap();
        let p1 = Partition::single_shard(&g).unwrap();
        assert!(ShardedMixingEngine::one_walker_per_node(&empty, &p1, 7).is_err());
        let isolated = Graph::from_edges(40, &[(0, 1)]).unwrap();
        let pi = Partition::single_shard(&isolated).unwrap();
        assert!(ShardedMixingEngine::one_walker_per_node(&isolated, &pi, 7).is_err());
    }

    /// `step` / `step_masked` (threaded under the `parallel` feature) land
    /// bitwise where the sequential `step_in_order(0..k)` schedule lands —
    /// positions, bucket orders, statistics and every shard's stream — in
    /// both draw modes, masked and unmasked.
    #[test]
    fn step_is_bitwise_the_sequential_in_order_schedule() {
        let g = graph(160, 6, 3);
        let mask: Vec<bool> = (0..160).map(|u| u % 4 != 0).collect();
        for k in [2usize, 5] {
            let p = partition(&g, k);
            let order: Vec<usize> = (0..k).collect();
            for mode in [DrawMode::Compat, DrawMode::Fast] {
                for masked in [false, true] {
                    let available = masked.then_some(mask.as_slice());
                    let mut stepped = ShardedMixingEngine::one_walker_per_node(&g, &p, 99).unwrap();
                    let mut ordered = ShardedMixingEngine::one_walker_per_node(&g, &p, 99).unwrap();
                    stepped.set_draw_mode(mode);
                    ordered.set_draw_mode(mode);
                    for _ in 0..12 {
                        match available {
                            Some(m) => stepped.step_masked(0.3, m, &mut ()),
                            None => stepped.step(0.3, &mut ()),
                        }
                        ordered.step_in_order(0.3, available, &order, &mut ());
                        assert_eq!(stepped.sent_counts(), ordered.sent_counts());
                    }
                    assert_eq!(stepped.positions(), ordered.positions());
                    assert_eq!(stepped.walkers_by_holder(), ordered.walkers_by_holder());
                    for s in 0..k {
                        let a: u64 = stepped.shard_rng_mut(s).gen();
                        let b: u64 = ordered.shard_rng_mut(s).gen();
                        assert_eq!(a, b, "k={k} {mode:?} masked={masked}: shard {s} diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn walkers_are_conserved_and_buckets_track_positions() {
        let g = graph(120, 4, 4);
        let mask: Vec<bool> = (0..120).map(|u| u % 5 != 0).collect();
        for k in [1usize, 3] {
            let p = partition(&g, k);
            for mode in [DrawMode::Compat, DrawMode::Fast] {
                let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 5).unwrap();
                engine.set_draw_mode(mode);
                for round in 0..25 {
                    if round % 2 == 0 {
                        engine.step(0.2, &mut ());
                    } else {
                        engine.step_masked(0.2, &mask, &mut ());
                    }
                }
                assert_eq!(engine.round(), 25);
                let load = engine.load_vector();
                assert_eq!(load.iter().sum::<usize>(), 120);
                for u in g.nodes() {
                    assert_eq!(engine.held_by(u).len(), load[u]);
                    for &w in engine.held_by(u) {
                        assert_eq!(engine.position(w as usize), u);
                    }
                }
            }
        }
    }

    #[test]
    fn holder_buckets_keep_survivors_before_arrivals() {
        // With laziness ~1 nothing moves, so buckets must be stable across
        // rounds (survivors keep their relative order).
        let g = generators::complete(10).unwrap();
        let p = Partition::single_shard(&g).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 3).unwrap();
        let before = engine.walkers_by_holder();
        engine.step(0.999_999, &mut ());
        assert_eq!(engine.walkers_by_holder(), before);
    }

    #[test]
    fn shard_sampling_order_does_not_change_the_result() {
        let g = graph(90, 6, 5);
        let p = Partition::new(&g, 4).unwrap();
        let mask: Vec<bool> = (0..90).map(|u| u % 5 != 2).collect();
        for available in [None, Some(mask.as_slice())] {
            let mut forward = ShardedMixingEngine::one_walker_per_node(&g, &p, 11).unwrap();
            let mut backward = ShardedMixingEngine::one_walker_per_node(&g, &p, 11).unwrap();
            let mut rotated = ShardedMixingEngine::one_walker_per_node(&g, &p, 11).unwrap();
            for _ in 0..15 {
                match available {
                    Some(m) => forward.step_masked(0.1, m, &mut ()),
                    None => forward.step(0.1, &mut ()),
                }
                backward.step_in_order(0.1, available, &[3, 2, 1, 0], &mut ());
                rotated.step_in_order(0.1, available, &[2, 3, 0, 1], &mut ());
            }
            assert_eq!(forward.positions(), backward.positions());
            assert_eq!(forward.positions(), rotated.positions());
            assert_eq!(forward.walkers_by_holder(), backward.walkers_by_holder());
            assert_eq!(forward.walkers_by_holder(), rotated.walkers_by_holder());
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn step_in_order_rejects_non_permutations() {
        let g = graph(30, 4, 6);
        let p = Partition::new(&g, 2).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 1).unwrap();
        engine.step_in_order(0.0, None, &[0, 0], &mut ());
    }

    #[test]
    #[should_panic(expected = "mask has the wrong length")]
    fn step_in_order_rejects_wrong_mask_length() {
        let g = graph(30, 4, 6);
        let p = Partition::new(&g, 2).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 1).unwrap();
        engine.step_in_order(0.0, Some(&[true; 29]), &[1, 0], &mut ());
    }

    #[test]
    fn runs_depend_on_seed_but_not_on_anything_else() {
        let g = graph(100, 6, 7);
        let p = Partition::new(&g, 5).unwrap();
        let run = |seed: u64| {
            let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, seed).unwrap();
            for _ in 0..12 {
                engine.step(0.15, &mut ());
            }
            engine.positions().to_vec()
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn observer_sees_conserved_load_and_round_indices() {
        struct Checker {
            walkers: usize,
            rounds_seen: usize,
        }
        impl RoundObserver for Checker {
            fn on_round(&mut self, stats: &RoundStats<'_>) {
                self.rounds_seen += 1;
                assert_eq!(stats.round, self.rounds_seen);
                let total: u64 = stats.load.iter().map(|&l| l as u64).sum();
                assert_eq!(total as usize, self.walkers);
                let sent: u64 = stats.sent.iter().map(|&s| s as u64).sum();
                assert!(sent as usize <= self.walkers);
            }
        }
        let g = graph(80, 4, 8);
        for k in [1usize, 3] {
            let p = partition(&g, k);
            let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 9).unwrap();
            let mut checker = Checker {
                walkers: 80,
                rounds_seen: 0,
            };
            for _ in 0..10 {
                engine.step(0.1, &mut checker);
            }
            assert_eq!(checker.rounds_seen, 10);
        }
    }

    #[test]
    fn all_available_mask_is_bitwise_the_unmasked_sharded_round() {
        let g = graph(120, 4, 11);
        let mask = vec![true; 120];
        for k in [1usize, 4] {
            let p = partition(&g, k);
            let mut masked = ShardedMixingEngine::one_walker_per_node(&g, &p, 77).unwrap();
            let mut plain = ShardedMixingEngine::one_walker_per_node(&g, &p, 77).unwrap();
            for _ in 0..15 {
                masked.step_masked(0.2, &mask, &mut ());
                plain.step(0.2, &mut ());
            }
            assert_eq!(masked.positions(), plain.positions());
            assert_eq!(masked.walkers_by_holder(), plain.walkers_by_holder());
            for s in 0..k {
                let a: u64 = masked.shard_rng_mut(s).gen();
                let b: u64 = plain.shard_rng_mut(s).gen();
                assert_eq!(a, b, "RNG stream diverged under the mask");
            }
        }
    }

    #[test]
    fn masked_rounds_never_deliver_to_dark_nodes_and_bounces_are_not_sent() {
        let g = graph(100, 4, 12);
        let mut mask = vec![true; 100];
        for slot in mask.iter_mut().skip(10) {
            *slot = false;
        }
        for k in [1usize, 3] {
            let p = partition(&g, k);
            let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 21).unwrap();
            let before = engine.positions().to_vec();
            engine.step_masked(0.0, &mask, &mut ());
            for (walker, (&now, &was)) in engine.positions().iter().zip(&before).enumerate() {
                assert!(
                    mask[now as usize] || now == was,
                    "walker {walker} was delivered to dark node {now}"
                );
            }
            // The totally-dark network freezes everyone, and no bounced
            // walker is counted as traffic.
            let dark = vec![false; 100];
            let frozen = engine.positions().to_vec();
            struct NoTraffic;
            impl RoundObserver for NoTraffic {
                fn on_round(&mut self, stats: &RoundStats<'_>) {
                    assert_eq!(stats.sent.iter().sum::<u32>(), 0);
                }
            }
            engine.step_masked(0.3, &dark, &mut NoTraffic);
            assert_eq!(engine.positions(), frozen.as_slice());
        }
    }

    #[test]
    fn checkpoint_restore_continues_bitwise_in_both_draw_modes() {
        let g = graph(130, 6, 17);
        for k in [1usize, 4] {
            let p = partition(&g, k);
            let mask: Vec<bool> = (0..130).map(|u| u % 7 != 3).collect();
            for mode in [DrawMode::Compat, DrawMode::Fast] {
                let mut reference = ShardedMixingEngine::one_walker_per_node(&g, &p, 404).unwrap();
                reference.set_draw_mode(mode);
                for _ in 0..9 {
                    reference.step(0.2, &mut ());
                }
                let cp = reference.checkpoint();
                assert_eq!(cp.round, 9);
                assert_eq!(cp.draw_mode, mode);
                let mut restored = ShardedMixingEngine::restore_checkpoint(&g, &p, &cp).unwrap();
                assert_eq!(restored.round(), 9);
                // Mix plain and masked rounds after the restore point.
                for r in 0..10 {
                    if r % 3 == 0 {
                        reference.step_masked(0.2, &mask, &mut ());
                        restored.step_masked(0.2, &mask, &mut ());
                    } else {
                        reference.step(0.2, &mut ());
                        restored.step(0.2, &mut ());
                    }
                    assert_eq!(reference.positions(), restored.positions());
                }
                assert_eq!(reference.walkers_by_holder(), restored.walkers_by_holder());
                for s in 0..k {
                    assert_eq!(reference.rng_clock(s), restored.rng_clock(s));
                    let a: u64 = reference.shard_rng_mut(s).gen();
                    let b: u64 = restored.shard_rng_mut(s).gen();
                    assert_eq!(a, b, "shard {s} RNG stream diverged after restore");
                }
            }
        }
    }

    #[test]
    fn restore_checkpoint_rejects_inconsistent_state() {
        let g = graph(60, 4, 18);
        let p = Partition::new(&g, 3).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&g, &p, 5).unwrap();
        engine.step(0.1, &mut ());
        let cp = engine.checkpoint();
        // Wrong shard count.
        let p1 = Partition::single_shard(&g).unwrap();
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p1, &cp).is_err());
        // Position out of range.
        let mut bad = cp.clone();
        bad.positions[0] = 60;
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // A walker moved without its bucket slot moving: position/bucket
        // cross-check must catch it.
        let mut bad = cp.clone();
        let w = bad.shards[0].bucket_walkers[0] as usize;
        let old = bad.positions[w];
        bad.positions[w] = if old == 0 { 1 } else { 0 };
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // Duplicated walker.
        let mut bad = cp.clone();
        let first = bad.shards[0].bucket_walkers[0];
        *bad.shards[0].bucket_walkers.last_mut().unwrap() = first;
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // Broken CSR.
        let mut bad = cp.clone();
        bad.shards[1].bucket_starts[0] = 1;
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // RNG cursor past the 16-word block (would be clamped to 16).
        let mut bad = cp.clone();
        bad.shards[2].rng_cursor = 17;
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // Mid-block cursor before any block was generated (would wrap the
        // counter to u64::MAX).
        let mut bad = cp.clone();
        bad.shards[0].rng_counter = 0;
        bad.shards[0].rng_cursor = 3;
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &bad).is_err());
        // A fresh stream's clock (counter 0, cursor 16) is reachable.
        let fresh = ShardedMixingEngine::one_walker_per_node(&g, &p, 5).unwrap();
        assert_eq!(fresh.rng_clock(0), (0, 16));
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &fresh.checkpoint()).is_ok());
        // The untouched checkpoint still restores.
        assert!(ShardedMixingEngine::restore_checkpoint(&g, &p, &cp).is_ok());
    }

    #[test]
    fn retarget_switches_topology_between_rounds() {
        let ring = generators::cycle(24).unwrap();
        let full = generators::complete(24).unwrap();
        let p = Partition::new(&ring, 3).unwrap();
        let mut engine = ShardedMixingEngine::one_walker_per_node(&ring, &p, 41).unwrap();
        engine.step(0.0, &mut ());
        for (walker, &pos) in engine.positions().iter().enumerate() {
            assert!(ring.neighbors(walker).contains(&pos));
        }
        engine.retarget_owned(full).unwrap();
        assert_eq!(engine.round(), 1);
        assert_eq!(engine.graph().edge_count(), 24 * 23 / 2);
        engine.step(0.0, &mut ());
        assert_eq!(engine.round(), 2);
        assert!(engine.positions().iter().all(|&pos| pos < 24));
        // Mismatched node counts and isolated nodes are rejected.
        let small = generators::cycle(5).unwrap();
        assert!(engine.retarget_owned(small).is_err());
        let isolated = Graph::from_edges(24, &[(0, 1)]).unwrap();
        assert!(engine.retarget_owned(isolated).is_err());
    }
}
