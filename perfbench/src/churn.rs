//! `topology_churn`: the incremental churn runtime (`ns_graph::dynamic` /
//! `delta`, online repartitioning and engine migration), driven the way
//! the `churn_soak` bench's incremental arm drives it.  Each round:
//! `speculate_round` → churn edits → every `REFINE_EVERY` rounds
//! `refined_assignment` + `migrate_owned` → `commit_round` on the affected
//! columns → `step_masked`, then a quote read.

use crate::common::{derive, Calls, EndState, WORKLOAD_SEED};
use crate::spans::Tracer;
use network_shuffle::prelude::{AccountantParams, ProtocolKind};
use network_shuffle::service::StreamingAccountant;
use network_shuffle::telemetry::AccountantTelemetry;
use ns_graph::delta::affected_columns;
use ns_graph::dynamic::{DynTransition, DynamicGraph, TimeVaryingModel};
use ns_graph::partition::Partition;
use ns_graph::rng::{seeded_rng, SimRng};
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::telemetry::EngineTelemetry;
use ns_graph::{Graph, NodeId};
use ns_obs::MetricsRegistry;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

pub const USERS: usize = 20_000;
pub const SHARDS: usize = 8;
/// 256 tracked rows in all, as many as `social_gate` tracks.  At 4 per
/// shard (32 rows) the rounds ran in a fast or a slow mode from run to
/// run, 1.5–1.7× apart at every population tried (1,000 to 160,000
/// users); at 256 rows the run-to-run spread fell to about half.
pub const TRACKED_PER_SHARD: usize = 32;
pub const LAZINESS: f64 = 0.2;
/// Movers per 1000 users per round.
pub const CHURN_PERMILLE: usize = 2;
/// Rounds per epoch: one refinement (at round `REFINE_EVERY`) and the
/// masked movers' return, in ~7 s.  A run's three epochs give over 100
/// round samples, so `round_ms_p90` has at least ten beyond it.
pub const ROUNDS: usize = 35;
pub const REFINE_EVERY: usize = 25;

/// The run's inputs: the planted topology and its communities.
pub struct World {
    pub seed: u64,
    pub graph: Graph,
    pub communities: Vec<usize>,
    /// The round-0 partition: one shard per planted community.
    pub partition: Partition,
    pub partition_s: f64,
    pub params: AccountantParams,
}

/// Planted `SHARDS`-community topology in O(n·d): every node draws ~3
/// partners from its own community and 1 from another, plus a ring edge
/// inside its community so no node is isolated (the generator of the
/// `churn_soak` bench).
pub fn build_world(seed: u64) -> Result<World, String> {
    let n = USERS;
    let communities: Vec<usize> = (0..n).map(|u| u * SHARDS / n).collect();
    let mut rng = seeded_rng(WORKLOAD_SEED);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); SHARDS];
    for (u, &c) in communities.iter().enumerate() {
        members[c].push(u);
    }
    let mut edges: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut push = |u: NodeId, v: NodeId| {
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    };
    for c in 0..SHARDS {
        let m = &members[c];
        for (i, &u) in m.iter().enumerate() {
            push(u, m[(i + 1) % m.len()]);
            for _ in 0..3 {
                push(u, m[rng.gen_range(0..m.len())]);
            }
            let other = &members[(c + 1 + rng.gen_range(0..SHARDS - 1)) % SHARDS];
            push(u, other[rng.gen_range(0..other.len())]);
        }
    }
    // Sorted, so the edge order (and the CSR) does not depend on the
    // process's hash seed.
    let mut list: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
    list.sort_unstable();
    let graph = Graph::from_edges(n, &list).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let assignment: Vec<u32> = communities.iter().map(|&c| c as u32).collect();
    let partition =
        Partition::from_assignment(&graph, SHARDS, assignment).map_err(|e| e.to_string())?;
    let partition_s = start.elapsed().as_secs_f64();
    let params = AccountantParams::new(
        n,
        crate::coord::EPSILON_0,
        crate::coord::DELTA,
        crate::coord::DELTA,
    )
    .map_err(|e| e.to_string())?;
    Ok(World {
        seed,
        graph,
        communities,
        partition,
        partition_s,
        params,
    })
}

/// One churn wave: `movers` users relocate to a fresh community — their
/// edges outside it drop (degree-guarded) and four edges wire into it.
/// Returns the dirty nodes the wave created.
fn churn_wave(
    dg: &mut DynamicGraph,
    communities: &mut [usize],
    members: &mut [Vec<NodeId>],
    rng: &mut SimRng,
    movers: usize,
) -> Result<Vec<NodeId>, String> {
    let n = dg.node_count();
    for _ in 0..movers {
        let u = rng.gen_range(0..n);
        let old = communities[u];
        let new = (old + 1 + rng.gen_range(0..SHARDS - 1)) % SHARDS;
        let outside: Vec<NodeId> = dg
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&v| communities[v] != new)
            .collect();
        for v in outside {
            if dg.degree(u) > 2 && dg.degree(v) > 2 {
                dg.remove_edge(u, v).map_err(|e| e.to_string())?;
            }
        }
        for _ in 0..4 {
            let m = &members[new];
            let v = m[rng.gen_range(0..m.len())];
            if u != v {
                dg.add_edge(u, v).map_err(|e| e.to_string())?;
            }
        }
        let slot = members[old]
            .iter()
            .position(|&x| x == u)
            .ok_or("mover missing from its community")?;
        members[old].swap_remove(slot);
        members[new].push(u);
        communities[u] = new;
    }
    Ok(dg.dirty_list().to_vec())
}

/// Everything one epoch mutates, built fresh per epoch.
pub struct State<'w> {
    communities: Vec<usize>,
    members: Vec<Vec<NodeId>>,
    partition: Partition,
    dg: DynamicGraph,
    engine: ShardedMixingEngine<'w>,
    accountant: StreamingAccountant,
    churn_rng: SimRng,
}

/// Builds the epoch's runtime: dynamic graph, an engine that owns its
/// topology and partition (so both can follow the churn), and the
/// accountant over the round-0 operator.
pub fn fresh(world: &World) -> Result<State<'_>, String> {
    let graph = &world.graph;
    let mut dg = DynamicGraph::from_graph(graph).map_err(|e| e.to_string())?;
    let mut engine =
        ShardedMixingEngine::one_walker_per_node(graph, &world.partition, derive(world.seed, 0xE0))
            .map_err(|e| e.to_string())?;
    engine.set_draw_mode(DrawMode::Fast);
    engine
        .retarget_owned(graph.clone())
        .map_err(|e| e.to_string())?;
    engine
        .migrate_owned(world.partition.clone())
        .map_err(|e| e.to_string())?;
    let op0: DynTransition = Arc::new(dg.masked_operator(LAZINESS).map_err(|e| e.to_string())?);
    let schedule = TimeVaryingModel::constant(op0).map_err(|e| e.to_string())?;
    let accountant =
        StreamingAccountant::with_schedule(graph, &world.partition, schedule, TRACKED_PER_SHARD)
            .map_err(|e| e.to_string())?;
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); SHARDS];
    for (u, &c) in world.communities.iter().enumerate() {
        members[c].push(u);
    }
    Ok(State {
        communities: world.communities.clone(),
        members,
        partition: world.partition.clone(),
        dg,
        engine,
        accountant,
        churn_rng: seeded_rng(derive(WORKLOAD_SEED, 0xC4)),
    })
}

/// How an epoch of the churn runtime is executed.
pub enum Mode<'a> {
    Bare,
    Traced(&'a mut Tracer),
    /// Engine and accountant telemetry attached to `registry`.
    Telemetry(&'a MetricsRegistry),
    /// The dense-advance twin: the same churn, refinements and masks, but
    /// no speculation and no engine — every commit is a dense advance.
    DenseTwin,
}

/// Work counts an epoch observed.
#[derive(Default, Clone)]
pub struct Counters {
    pub affected_columns: u64,
    pub dense_fallbacks: u64,
    pub migrations: u64,
    pub movers: u64,
    pub moves: u64,
    pub cross_shard_moves: u64,
    /// Live edge-cut fraction of the final partition.
    pub cut_fraction: f64,
}

impl Counters {
    /// Accumulates another epoch's counts (the cut is the latest epoch's).
    pub fn add(&mut self, other: &Counters) {
        self.affected_columns += other.affected_columns;
        self.dense_fallbacks += other.dense_fallbacks;
        self.migrations += other.migrations;
        self.movers += other.movers;
        self.moves += other.moves;
        self.cross_shard_moves += other.cross_shard_moves;
        self.cut_fraction = other.cut_fraction;
    }
}

/// What one churn epoch measured and where it ended.
pub struct Epoch {
    pub epoch_s: f64,
    pub round_ms: Vec<f64>,
    pub quote_ms: Vec<f64>,
    pub walkers: usize,
    pub epsilon: f64,
    pub end: EndState,
    /// Bits of the final tracked moments: worst Σ P², worst ρ*, then each
    /// shard's worst ε.
    pub moments: Vec<u64>,
    pub counters: Counters,
}

fn span<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tr) => tr.time(name, f),
        None => f(),
    }
}

fn probe(tracer: &mut Option<&mut Tracer>, f: impl FnOnce()) {
    if let Some(tr) = tracer {
        tr.probe("bench.probe", f);
    }
}

/// Runs one epoch of `ROUNDS` churn rounds on fresh runtime state.
pub fn run_epoch(world: &World, mode: Mode<'_>, calls: &mut Calls) -> Result<Epoch, String> {
    let twin = matches!(mode, Mode::DenseTwin);
    let mut st = calls.call("churn runtime set-up", fresh(world))?;
    let mut tracer = None;
    match mode {
        Mode::Traced(tr) => tracer = Some(tr),
        Mode::Telemetry(registry) => {
            st.engine
                .set_telemetry(Some(EngineTelemetry::register(registry)));
            st.accountant
                .set_telemetry(Some(AccountantTelemetry::register(registry)));
        }
        Mode::Bare | Mode::DenseTwin => {}
    }
    let n = world.graph.node_count();
    let movers_per_round = (n * CHURN_PERMILLE / 1000).max(1);
    let mut mask = vec![true; n];
    let mut pending: Vec<NodeId> = Vec::new();
    let mut epoch_seeds: Vec<NodeId> = Vec::new();
    let mut prev: Vec<u32> = Vec::new();
    let mut counters = Counters::default();
    let mut round_ms = Vec::with_capacity(ROUNDS);
    let mut quote_ms = Vec::with_capacity(ROUNDS);

    let root = tracer.as_mut().map(|tr| tr.enter("bench.epoch"));
    let epoch_start = Instant::now();
    for round in 0..ROUNDS {
        let round_span = tracer.as_mut().map(|tr| tr.enter("bench.round"));
        let round_start = Instant::now();
        // Off the critical path in a deployment: advance under the operator
        // the accountant holds, before this round's churn lands.
        if !twin {
            span(&mut tracer, "delta.speculate", || {
                st.accountant.speculate_round()
            });
        }

        // Movers masked last round come back, then this round's churn wave.
        let mut touched = std::mem::take(&mut pending);
        let wave = span(&mut tracer, "dynamic.edit", || {
            for &u in &touched {
                st.dg.set_available(u, true).map_err(|e| e.to_string())?;
                mask[u] = true;
            }
            churn_wave(
                &mut st.dg,
                &mut st.communities,
                &mut st.members,
                &mut st.churn_rng,
                movers_per_round,
            )
        });
        touched.extend(calls.call("churn wave", wave)?);
        epoch_seeds.extend_from_slice(&touched);

        // Refine the partition online and migrate the engine; the movers go
        // dark for one round so the accountant prices the exchange.
        if round > 0 && round % REFINE_EVERY == 0 {
            epoch_seeds.sort_unstable();
            epoch_seeds.dedup();
            let budget = movers_per_round * REFINE_EVERY * 2;
            let (refined, moved) = calls.call(
                "refined_assignment",
                span(&mut tracer, "partition.refine", || {
                    st.partition
                        .refined_assignment(&st.dg, &epoch_seeds, budget)
                }),
            )?;
            epoch_seeds.clear();
            if !moved.is_empty() {
                let next = calls.call(
                    "Partition::from_assignment",
                    span(&mut tracer, "partition.assign", || {
                        Partition::from_assignment(st.dg.snapshot(), SHARDS, refined)
                    }),
                )?;
                let movers: Vec<NodeId> = if twin {
                    (0..n)
                        .filter(|&u| st.partition.shard_of(u) != next.shard_of(u))
                        .collect()
                } else {
                    calls.call(
                        "migrate_owned",
                        span(&mut tracer, "migrate.engine", || {
                            st.engine.migrate_owned(next.clone())
                        }),
                    )?
                };
                st.partition = next;
                counters.migrations += 1;
                counters.movers += movers.len() as u64;
                let masked = span(&mut tracer, "dynamic.edit", || {
                    for &u in &movers {
                        st.dg.set_available(u, false).map_err(|e| e.to_string())?;
                        mask[u] = false;
                        touched.push(u);
                    }
                    Ok::<(), String>(())
                });
                calls.call("mask movers", masked)?;
                pending = movers;
            }
        }

        // Realize this round's operator, commit the accountant on it, and
        // move the walkers over the live topology.
        let realized: DynTransition = Arc::new(calls.call(
            "masked_operator",
            span(&mut tracer, "dynamic.operator_build", || {
                st.dg.masked_operator(LAZINESS)
            }),
        )?);
        if twin {
            st.accountant.commit_round(realized, &[]);
        } else {
            let snapshot = span(&mut tracer, "dynamic.snapshot", || st.dg.snapshot().clone());
            let columns = span(&mut tracer, "delta.affected", || {
                affected_columns(&snapshot, &touched)
            });
            counters.affected_columns += columns.len() as u64;
            counters.dense_fallbacks +=
                (columns.len() as f64 > st.accountant.delta_dense_fraction() * n as f64) as u64;
            span(&mut tracer, "delta.commit", || {
                st.accountant.commit_round(realized, &columns)
            });
            calls.call(
                "retarget_owned",
                span(&mut tracer, "kernel.retarget", || {
                    st.engine.retarget_owned(snapshot)
                }),
            )?;
            probe(&mut tracer, || {
                prev.clear();
                prev.extend_from_slice(st.engine.positions());
            });
            span(&mut tracer, "kernel.step", || {
                st.engine.step_masked(LAZINESS, &mask, &mut ())
            });
            probe(&mut tracer, || {
                for (&before, &after) in prev.iter().zip(st.engine.positions()) {
                    if before != after {
                        counters.moves += 1;
                        counters.cross_shard_moves += (st.partition.shard_of(before as usize)
                            != st.partition.shard_of(after as usize))
                            as u64;
                    }
                }
            });
        }
        if let (Some(tr), Some(id)) = (tracer.as_mut(), round_span) {
            tr.exit(id);
        }
        round_ms.push(round_start.elapsed().as_secs_f64() * 1e3);
        if !twin {
            let start = Instant::now();
            calls.call(
                "worst_quote",
                span(&mut tracer, "acct.quote", || {
                    st.accountant.worst_quote(ProtocolKind::All, &world.params)
                }),
            )?;
            quote_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let epoch_s = epoch_start.elapsed().as_secs_f64();
    if let (Some(tr), Some(id)) = (tracer.as_mut(), root) {
        tr.exit(id);
    }

    let (_, quote) = calls.call(
        "worst_quote",
        st.accountant.worst_quote(ProtocolKind::All, &world.params),
    )?;
    let stats = st.accountant.worst_stats();
    let mut moments = vec![
        stats.sum_of_squares.to_bits(),
        stats.support_ratio.to_bits(),
    ];
    let shards = calls.call(
        "shard_quotes",
        st.accountant.shard_quotes(ProtocolKind::All, &world.params),
    )?;
    moments.extend(shards.iter().map(|(_, q)| q.epsilon.to_bits()));
    counters.cut_fraction = calls.call(
        "live_edge_cut_fraction",
        st.partition.live_edge_cut_fraction(&st.dg),
    )?;
    let end = EndState::capture(&st.engine, &quote);
    Ok(Epoch {
        epoch_s,
        round_ms,
        quote_ms,
        walkers: st.engine.walker_count(),
        epsilon: quote.epsilon,
        end,
        moments,
        counters,
    })
}
