//! Shard-count sweep of the sharded mixing engine at fixed population,
//! plus a steady-state allocation audit of the unified round kernel.
//!
//! Measures the cost of one exchange-round budget (engine construction plus
//! `ROUNDS` holder-order rounds) as the shard count grows at `n = 100_000`:
//! the sequential sweep isolates the overhead of the per-shard sampling
//! phase plus the counting-sort exchange versus the single-shard engine
//! (`k = 1`, the protocol simulation's configuration).  With
//! `--features parallel`, `step` samples multi-shard rounds on scoped
//! threads, so the same sweep exercises the threaded sampling phase.
//!
//! Before the criterion sweep, a counting global allocator audits the
//! kernel's arena contract: after a short warm-up, single-shard, sharded
//! and masked-sharded rounds must perform **zero** heap allocations per
//! round — all counting-sort and outbox scratch lives in reusable arenas
//! owned by the plan executors.  The audit runs the sequential schedule:
//! under `parallel`, multi-shard rounds go through `step_in_order(0..k)`,
//! because `step` spawns scoped worker threads there (thread stacks are
//! runtime plumbing, not per-round engine allocations).  (The audit runs
//! on the benchmark binary only; the engines themselves are
//! allocator-agnostic.)

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use ns_graph::generators::random_regular;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::telemetry::EngineTelemetry;
use ns_obs::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const USERS: usize = 100_000;
const DEGREE: usize = 8;
const ROUNDS: usize = 10;

/// A pass-through allocator that counts allocations, for the steady-state
/// audit.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// Audited pass-through to the system allocator: the only added behaviour
// is the relaxed counter bump.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Warms an engine until a whole block of rounds allocates nothing, then
/// returns the allocation count of a final audited block (which the caller
/// asserts is zero).  The kernel's arenas and the exchange outboxes grow
/// monotonically to their high-water marks — bounded by the walker count,
/// so the number of growth events is finite — and a later round can only
/// allocate if it breaks a high-water mark; warm-up length is therefore
/// workload-dependent, and the audit warms adaptively instead of guessing.
fn settle_then_audit(label: &str, mut round: impl FnMut()) -> usize {
    const BLOCK: usize = 10;
    const MAX_BLOCKS: usize = 50;
    for _ in 0..MAX_BLOCKS {
        let during_warmup = allocations_during(|| {
            for _ in 0..BLOCK {
                round();
            }
        });
        if during_warmup == 0 {
            break;
        }
    }
    let audited = allocations_during(|| {
        for _ in 0..BLOCK {
            round();
        }
    });
    println!("steady-state allocations over {BLOCK} rounds [{label}]: {audited}");
    audited
}

/// One multi-shard round on the sequential schedule (see the module docs):
/// `step` / `step_masked` without the `parallel` feature, the equivalent
/// `step_in_order(0..k)` with it.
fn sequential_round(engine: &mut ShardedMixingEngine<'_>, order: &[usize], mask: Option<&[bool]>) {
    #[cfg(feature = "parallel")]
    engine.step_in_order(0.2, mask, order, &mut ());
    #[cfg(not(feature = "parallel"))]
    {
        let _ = order;
        match mask {
            Some(mask) => engine.step_masked(0.2, mask, &mut ()),
            None => engine.step(0.2, &mut ()),
        }
    }
}

/// Steady-state rounds must allocate nothing — in *both* draw modes: the
/// `fast` lane buffer is arena scratch like everything else, growing once
/// to its high-water mark and then recycled.
fn audit_steady_state_allocations() {
    let n = 20_000;
    let graph = random_regular(n, DEGREE, &mut seeded_rng(3)).expect("graph");
    let single_shard = Partition::single_shard(&graph).expect("partition");
    let partition = Partition::new(&graph, 4).expect("partition");
    let order: Vec<usize> = (0..partition.shard_count()).collect();
    let mask: Vec<bool> = (0..n).map(|u| u % 5 != 0).collect();

    for mode in [DrawMode::Compat, DrawMode::Fast] {
        let tag = match mode {
            DrawMode::Compat => "compat",
            DrawMode::Fast => "fast",
        };
        // A single-shard engine never spawns threads, so `step` is the
        // sequential schedule in both feature configs.
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(&graph, &single_shard, 4).expect("engine");
        engine.set_draw_mode(mode);
        let single = settle_then_audit(&format!("single-shard {tag}"), || {
            engine.step(0.2, &mut ());
        });

        let mut sharded =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, 5).expect("engine");
        sharded.set_draw_mode(mode);
        let multi = settle_then_audit(&format!("sharded k=4 {tag}"), || {
            sequential_round(&mut sharded, &order, None);
        });

        let masked = settle_then_audit(&format!("sharded k=4 + mask {tag}"), || {
            sequential_round(&mut sharded, &order, Some(&mask));
        });

        // The telemetry layer rides the same contract: span timers,
        // counters and histograms record into preregistered slots, so
        // re-auditing the settled engines with a live registry attached
        // must stay at zero too.
        let registry = MetricsRegistry::new();
        engine.set_telemetry(Some(EngineTelemetry::register(&registry)));
        let single_obs = settle_then_audit(&format!("single-shard {tag} + telemetry"), || {
            engine.step(0.2, &mut ());
        });
        sharded.set_telemetry(Some(EngineTelemetry::register(&registry)));
        let multi_obs = settle_then_audit(&format!("sharded k=4 {tag} + telemetry"), || {
            sequential_round(&mut sharded, &order, None);
        });
        let masked_obs =
            settle_then_audit(&format!("sharded k=4 + mask {tag} + telemetry"), || {
                sequential_round(&mut sharded, &order, Some(&mask));
            });

        // The arena contract of ns_graph::round: settled rounds allocate
        // nothing.
        assert_eq!(
            single, 0,
            "single-shard {tag} steady-state rounds must not allocate"
        );
        assert_eq!(
            multi, 0,
            "sharded {tag} steady-state rounds must not allocate"
        );
        assert_eq!(
            masked, 0,
            "masked sharded {tag} steady-state rounds must not allocate"
        );
        assert_eq!(
            single_obs, 0,
            "instrumented single-shard {tag} steady-state rounds must not allocate"
        );
        assert_eq!(
            multi_obs, 0,
            "instrumented sharded {tag} steady-state rounds must not allocate"
        );
        assert_eq!(
            masked_obs, 0,
            "instrumented masked sharded {tag} steady-state rounds must not allocate"
        );
        // The registry really saw the audited rounds (render is off-audit).
        assert!(registry.render().contains("counter ns_rounds_total"));
        black_box(sharded.position(0));
    }

    audit_migration_allocations(&graph, &partition);
    audit_delta_allocations(&graph);
    audit_durable_allocations(&graph, &partition);
}

/// The online-repartitioning exchange is arena scratch too: once the
/// per-shard buffers have hit their high-water marks for every partition
/// shape in rotation, a `migrate_borrowed_into` + round cycle allocates
/// nothing.  (The owned entry points box the incoming partition by design —
/// that box is the caller's hand-off, not per-migration engine scratch.)
fn audit_migration_allocations(graph: &ns_graph::Graph, partition: &Partition) {
    let n = graph.node_count();
    // A second shape: rotate a band of nodes one shard over.
    let shifted: Vec<u32> = (0..n)
        .map(|u| {
            let s = partition.shard_of(u);
            if u % 7 == 0 {
                ((s + 1) % partition.shard_count()) as u32
            } else {
                s as u32
            }
        })
        .collect();
    let other =
        Partition::from_assignment(graph, partition.shard_count(), shifted).expect("partition");
    let mut engine = ShardedMixingEngine::one_walker_per_node(graph, partition, 8).expect("engine");
    let order: Vec<usize> = (0..partition.shard_count()).collect();
    let mut movers = Vec::new();
    let mut flip = false;
    // Pre-warm past the high-water ratchet: per-shard bucket sizes keep
    // setting records while the walk redistributes, so a lucky early
    // zero-allocation block does not yet mean the buffers are settled.
    for _ in 0..100 {
        flip = !flip;
        let next = if flip { &other } else { partition };
        engine
            .migrate_borrowed_into(next, &mut movers)
            .expect("migrate");
        sequential_round(&mut engine, &order, None);
    }
    let audited = settle_then_audit("migrate + round k=4", || {
        flip = !flip;
        let next = if flip { &other } else { partition };
        engine
            .migrate_borrowed_into(next, &mut movers)
            .expect("migrate");
        sequential_round(&mut engine, &order, None);
    });
    assert_eq!(
        audited, 0,
        "steady-state migrations must not allocate once buffers are warm"
    );
    black_box(engine.position(0));
}

/// The delta runtime's critical path — affected-column derivation plus the
/// per-column ensemble correction — is allocation-free once its buffers are
/// warm.  (The speculative advance runs off the critical path and uses the
/// dense kernel's per-call scratch, so it is not part of this audit.)
fn audit_delta_allocations(graph: &ns_graph::Graph) {
    use ns_graph::delta::affected_columns_into;
    use ns_graph::dynamic::DynamicGraph;
    use ns_graph::ensemble::DistributionEnsemble;

    let n = graph.node_count();
    let mut dg = DynamicGraph::from_graph(graph).expect("dynamic");
    let operator = dg.masked_operator(0.2).expect("operator");
    let origins: Vec<usize> = (0..32).map(|r| r * (n / 32)).collect();
    let mut ensemble = DistributionEnsemble::point_masses(n, &origins).expect("ensemble");
    let mut prev = Vec::new();
    let mut prev_il = Vec::new();
    ensemble.speculate_interleaved(&operator, &mut prev, &mut prev_il);
    let touched: Vec<usize> = (0..n).step_by(97).collect();
    let mut stamp = vec![false; n];
    let mut columns = Vec::new();
    let snapshot = dg.snapshot().clone();
    let audited = settle_then_audit("delta correction 32 rows", || {
        affected_columns_into(&snapshot, &touched, &mut stamp, &mut columns);
        ensemble.correct_columns_interleaved(&operator, &columns, &prev_il);
        ensemble.correct_columns(&operator, &columns, &prev);
    });
    assert_eq!(
        audited, 0,
        "the delta critical path must not allocate once buffers are warm"
    );
    black_box(ensemble.row(0)[0]);
}

/// The durable wrapper's append path honors the arena contract too: with
/// snapshots disabled, a settled [`DurableCoordinator`] adds **zero**
/// steady-state allocations per round over the plain coordinator it wraps —
/// the round record encodes into a reused scratch buffer, the RNG clocks
/// stage into a reused vector, and the WAL writes through a fixed tail
/// page.  The coordinator itself pays a small per-round cost (the
/// accountant's dense advance uses per-call scratch, deliberately off this
/// contract), so the audit is *marginal*: identical twin runs, one plain
/// and one durable, must allocate exactly the same.  (Snapshot boundaries
/// allocate by design — a full checkpoint is materialized and written
/// atomically — so the audit excludes them with `snapshot_every: 0`,
/// exactly the boundary the contract carves out.)
///
/// The durable twin runs **fully instrumented** — WAL latency spans, phase
/// counters, per-round trace events into the preallocated ring, the live
/// (ε, δ) quote per round — so this is also the telemetry-on audit of the
/// durable path: the whole observability layer must stay inside the
/// zero-marginal-allocation envelope.
fn audit_durable_allocations(graph: &ns_graph::Graph, partition: &Partition) {
    use network_shuffle::prelude::{AccountantParams, CoordinatorConfig, ShuffleCoordinator};
    use ns_store::prelude::{DurableConfig, DurableCoordinator};

    const BLOCK: usize = 10;
    const WARMUP: usize = 30;
    let dir = std::env::temp_dir().join("ns_sharded_mixing_durable_audit");
    let _ = std::fs::remove_dir_all(&dir);
    let n = graph.node_count();
    let config = CoordinatorConfig::all(17, 8);
    let payloads = || (0..n).map(|i| vec![i as u8, (i >> 8) as u8]).collect();

    let mut plain: ShuffleCoordinator<'_, Vec<u8>> =
        ShuffleCoordinator::new(graph, partition, config).expect("coordinator");
    plain.admit_population(payloads()).expect("admit");
    plain.begin_exchange().expect("begin");

    let durable = DurableConfig {
        group_commit: 4,
        snapshot_every: 0,
    };
    let mut store =
        DurableCoordinator::create(graph, partition, config, durable, &dir).expect("store");
    let registry = MetricsRegistry::new();
    let params = AccountantParams::new(n, 1.0, 1e-6, 1e-6).expect("params");
    store.attach_telemetry(&registry, Some(params));
    store.admit_population(payloads()).expect("admit");
    store.begin_exchange().expect("begin");

    // Both twins run the identical deterministic trajectory; settle their
    // arenas and the WAL tail page to the high-water marks.
    for _ in 0..WARMUP {
        plain.run_rounds(1).expect("round");
        store.run_rounds(1).expect("round");
    }
    let plain_cost = allocations_during(|| {
        for _ in 0..BLOCK {
            plain.run_rounds(1).expect("round");
        }
    });
    let durable_cost = allocations_during(|| {
        for _ in 0..BLOCK {
            store.run_rounds(1).expect("round");
        }
    });
    println!(
        "steady-state allocations over {BLOCK} rounds [plain k=4]: {plain_cost}, \
         [durable k=4 + telemetry]: {durable_cost}"
    );
    assert_eq!(
        durable_cost, plain_cost,
        "the instrumented durable wrapper must add zero steady-state allocations \
         per round outside snapshot boundaries"
    );
    black_box((plain.round(), store.round()));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_shard_count_sweep(c: &mut Criterion) {
    let graph = random_regular(USERS, DEGREE, &mut seeded_rng(1)).expect("graph");
    let mut group = c.benchmark_group("sharded_mixing_100k");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let partition = Partition::new(&graph, shards).expect("partition");
        group.bench_with_input(
            BenchmarkId::new("rounds", shards),
            &partition,
            |b, partition| {
                b.iter(|| {
                    let mut engine = ShardedMixingEngine::one_walker_per_node(&graph, partition, 7)
                        .expect("engine");
                    for _ in 0..ROUNDS {
                        engine.step(0.0, &mut ());
                    }
                    black_box(engine.position(0))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_shard_count_sweep);

fn main() {
    audit_steady_state_allocations();
    benches();
}
