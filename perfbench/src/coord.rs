//! The three coordinator workloads: whole collection epochs through
//! `DurableCoordinator` → `ShuffleCoordinator` → `ShardedMixingEngine` →
//! `StreamingAccountant` → WAL/snapshots → `finalize`.

use crate::common::{check_conservation, derive, payload, Calls, Digest, EndState, WORKLOAD_SEED};
use network_shuffle::prelude::{
    AccountantParams, CoordinatorConfig, OutageModel, OutageSchedule, ProtocolKind,
    ShuffleCoordinator,
};
use ns_datasets::Dataset;
use ns_dp::prelude::PrivacyGuarantee;
use ns_graph::prelude::{Graph, NodeId, Partition};
use ns_graph::rng::SimRng;
use ns_graph::round::DrawMode;
use ns_obs::MetricsRegistry;
use ns_store::{DurableConfig, DurableCoordinator};
use rand::Rng;
use std::path::Path;
use std::time::Instant;

/// Local-randomiser ε₀ and the δ, δ₂ of every quote.
pub const EPSILON_0: f64 = 1.0;
pub const DELTA: f64 = 1e-6;

/// How an epoch decides it is done exchanging.
#[derive(Clone, Copy)]
pub enum Stop {
    /// A fixed number of rounds.
    Rounds(usize),
    /// The upload gate: until the live quote meets `epsilon`; reaching
    /// `max_rounds` first fails the run.
    Target { epsilon: f64, max_rounds: usize },
}

/// The graph a workload runs on.
#[derive(Clone, Copy)]
pub enum GraphSpec {
    WattsStrogatz { n: usize, k: usize, beta: f64 },
    Dataset { dataset: Dataset, divisor: usize },
}

/// One coordinator workload's generator parameters.
#[derive(Clone)]
pub struct Spec {
    pub graph: GraphSpec,
    pub shards: usize,
    pub protocol: ProtocolKind,
    pub tracked_per_shard: usize,
    pub outages: Option<OutageModel>,
    /// Admission batch size; `None` admits the population in one batch.
    pub batch: Option<usize>,
    pub durable: DurableConfig,
    pub ledger: bool,
    pub stop: Stop,
    /// Drop the coordinator after this round and recover it from its store.
    pub crash_after: Option<usize>,
}

impl Spec {
    pub fn sensor_mesh() -> Spec {
        Spec {
            graph: GraphSpec::WattsStrogatz {
                n: 1_000_000,
                k: 4,
                beta: 0.2,
            },
            shards: 2,
            protocol: ProtocolKind::All,
            tracked_per_shard: 1,
            outages: None,
            batch: None,
            durable: DurableConfig::default(),
            ledger: false,
            stop: Stop::Rounds(20),
            crash_after: None,
        }
    }

    pub fn social_gate() -> Spec {
        Spec {
            graph: GraphSpec::Dataset {
                dataset: Dataset::Facebook,
                divisor: 1,
            },
            shards: 4,
            protocol: ProtocolKind::Single,
            tracked_per_shard: 64,
            outages: Some(OutageModel::MarkovOnOff {
                fail: 0.05,
                recover: 0.3,
            }),
            batch: None,
            // No snapshots: a 46 MB one at round 16 would put the store in
            // the accountant's workload and its round in the p90.
            durable: DurableConfig {
                snapshot_every: 0,
                ..DurableConfig::default()
            },
            ledger: false,
            stop: Stop::Target {
                epsilon: 0.5,
                max_rounds: 64,
            },
            crash_after: None,
        }
    }

    pub fn durable_tight() -> Spec {
        Spec {
            graph: GraphSpec::Dataset {
                dataset: Dataset::Google,
                divisor: 8,
            },
            shards: 4,
            protocol: ProtocolKind::Single,
            tracked_per_shard: 1,
            outages: None,
            batch: Some(256),
            // Every 3, not every 2: with half the rounds snapshotting, the
            // median round falls in the gap between the plain and the
            // snapshot cluster and jumps from run to run.
            durable: DurableConfig {
                group_commit: 1,
                snapshot_every: 3,
            },
            ledger: true,
            stop: Stop::Rounds(24),
            crash_after: Some(13),
        }
    }

    /// Rounds the outage schedule must cover.
    pub fn max_rounds(&self) -> usize {
        match self.stop {
            Stop::Rounds(r) => r,
            Stop::Target { max_rounds, .. } => max_rounds,
        }
    }
}

/// The inputs of a run: the workload's topology, partition and outage
/// schedule, and everything derived from `--seed`.
pub struct World {
    pub seed: u64,
    pub graph: Graph,
    pub partition: Partition,
    pub config: CoordinatorConfig,
    pub params: AccountantParams,
    /// Admission batch size.
    pub batch: usize,
    pub partition_s: f64,
}

impl World {
    pub fn n(&self) -> usize {
        self.graph.node_count()
    }

    pub fn budget() -> PrivacyGuarantee {
        PrivacyGuarantee::new(1e9, 0.5).expect("valid budget")
    }

    pub fn schedule(&self, spec: &Spec) -> Option<Result<OutageSchedule, String>> {
        spec.outages.as_ref().map(|model| {
            model
                .sample_schedule(self.n(), spec.max_rounds(), WORKLOAD_SEED)
                .map_err(|e| e.to_string())
        })
    }

    /// The epoch's admission batches of `(origin, payload)`: every user
    /// once, in id order.
    pub fn batches(&self) -> Vec<Vec<(NodeId, Vec<u8>)>> {
        let origins: Vec<NodeId> = (0..self.n()).collect();
        origins
            .chunks(self.batch)
            .map(|chunk| chunk.iter().map(|&u| (u, payload(self.seed, u))).collect())
            .collect()
    }
}

/// Builds the graph and partition (the timed part of set-up before
/// `DurableCoordinator::create`).
pub fn build_world(spec: &Spec, seed: u64) -> Result<World, String> {
    let graph = match spec.graph {
        GraphSpec::WattsStrogatz { n, k, beta } => {
            let mut rng = ns_graph::rng::seeded_rng(WORKLOAD_SEED);
            ns_graph::generators::watts_strogatz(n, k, beta, &mut rng).map_err(|e| e.to_string())?
        }
        GraphSpec::Dataset { dataset, divisor } => {
            dataset
                .generate_scaled(divisor, WORKLOAD_SEED)
                .map_err(|e| e.to_string())?
                .graph
        }
    };
    let start = Instant::now();
    let partition = Partition::new(&graph, spec.shards).map_err(|e| e.to_string())?;
    let partition_s = start.elapsed().as_secs_f64();
    let n = graph.node_count();
    let mut config = match spec.protocol {
        ProtocolKind::All => CoordinatorConfig::all(derive(seed, 0xC0), spec.tracked_per_shard),
        ProtocolKind::Single => {
            CoordinatorConfig::single(derive(seed, 0xC0), spec.tracked_per_shard)
        }
    };
    config.draw_mode = DrawMode::Fast;
    let params = AccountantParams::new(n, EPSILON_0, DELTA, DELTA).map_err(|e| e.to_string())?;
    Ok(World {
        seed,
        graph,
        partition,
        config,
        params,
        batch: spec.batch.unwrap_or(n).max(1),
        partition_s,
    })
}

/// Creates the durable store for one epoch (the other timed part of
/// set-up), attaching the budget ledger when the workload has one.
pub fn create<'g>(
    spec: &Spec,
    world: &'g World,
    dir: &Path,
    calls: &mut Calls,
) -> Result<DurableCoordinator<'g>, String> {
    let mut store = calls.call(
        "DurableCoordinator::create",
        DurableCoordinator::create(
            &world.graph,
            &world.partition,
            world.config,
            spec.durable,
            dir,
        ),
    )?;
    if spec.ledger {
        calls.call(
            "attach_ledger",
            store.attach_ledger(&dir.join("ledger.bin"), World::budget()),
        )?;
    }
    Ok(store)
}

/// What one epoch measured and where it ended.
pub struct Epoch {
    pub epoch_s: f64,
    pub admit_s: f64,
    pub reports: usize,
    pub exchange_s: f64,
    pub rounds: usize,
    pub round_ms: Vec<f64>,
    pub quote_ms: Vec<f64>,
    pub finalize_s: f64,
    pub recover_s: Option<f64>,
    pub time_to_target_s: Option<f64>,
    pub epsilon: f64,
    pub end: EndState,
    pub digest: Digest,
}

pub fn make_dummy(rng: &mut SimRng) -> Vec<u8> {
    rng.gen::<u64>().to_le_bytes().to_vec()
}

/// Runs one untraced epoch on a freshly created store: first `admit` →
/// outage schedule → `begin_exchange` → durable rounds with a quote read
/// after each (and the crash/recovery, if the workload has one) →
/// `finalize`.  With `telemetry`, the full ns-obs stack is attached to the
/// store (and re-attached after recovery).
pub fn run_epoch(
    spec: &Spec,
    world: &World,
    dir: &Path,
    calls: &mut Calls,
    telemetry: Option<&MetricsRegistry>,
) -> Result<Epoch, String> {
    let mut store = create(spec, world, dir, calls)?;
    if let Some(registry) = telemetry {
        store.attach_telemetry(registry, None);
    }
    let batches = world.batches();
    let reports: usize = batches.iter().map(Vec::len).sum();

    let epoch_start = Instant::now();
    for batch in batches {
        calls.call("admit", store.admit(batch))?;
    }
    let admit_s = epoch_start.elapsed().as_secs_f64();
    if let Some(schedule) = world.schedule(spec) {
        let schedule = calls.call("sample_schedule", schedule)?;
        calls.call("with_outages", store.with_outages(schedule))?;
    }

    let exchange_start = Instant::now();
    let mut recovery_s = 0.0;
    calls.call("begin_exchange", store.begin_exchange())?;
    let mut round_ms = Vec::new();
    let mut quote_ms = Vec::new();
    let mut time_to_target_s = None;
    let mut recover_s = None;
    let quote = loop {
        let start = Instant::now();
        calls.call("run_rounds", store.run_rounds(1))?;
        round_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let (_, quote) = calls.call("live_quote", store.live_quote(&world.params))?;
        quote_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let round = store.round();
        let done = match spec.stop {
            Stop::Rounds(r) => round >= r,
            Stop::Target {
                epsilon,
                max_rounds,
            } => {
                if quote.epsilon <= epsilon {
                    time_to_target_s = Some(exchange_start.elapsed().as_secs_f64() - recovery_s);
                    true
                } else {
                    round >= max_rounds
                }
            }
        };
        if done {
            break quote;
        }
        if spec.crash_after == Some(round) {
            drop(store);
            let start = Instant::now();
            store = calls.call(
                "DurableCoordinator::recover",
                DurableCoordinator::recover(&world.graph, &world.partition, spec.durable, dir),
            )?;
            if spec.ledger {
                calls.call(
                    "attach_ledger",
                    store.attach_ledger(&dir.join("ledger.bin"), World::budget()),
                )?;
            }
            if let Some(registry) = telemetry {
                store.attach_telemetry(registry, None);
            }
            let secs = start.elapsed().as_secs_f64();
            recovery_s += secs;
            recover_s = Some(secs);
        }
    };
    let exchange_s = exchange_start.elapsed().as_secs_f64() - recovery_s;
    let end = EndState::capture(
        store.coordinator().engine().expect("exchange started"),
        &quote,
    );

    let start = Instant::now();
    let (outcome, charged) = calls.call("finalize", store.finalize(&world.params, make_dummy))?;
    let finalize_s = start.elapsed().as_secs_f64();
    let epoch_s = epoch_start.elapsed().as_secs_f64();

    calls.check(
        "finalize charges the last live quote",
        charged.epsilon.to_bits() == end.epsilon_bits,
    );
    if let Stop::Target { epsilon, .. } = spec.stop {
        calls.check(
            "the final quote meets the gate's target",
            quote.epsilon <= epsilon,
        );
    }
    let digest = match check_conservation(spec.protocol, world.n(), world.seed, &outcome.collected)
    {
        Ok(digest) => {
            calls.check("report conservation", true);
            digest
        }
        Err(msg) => {
            calls.check(&format!("report conservation ({msg})"), false);
            Digest::default()
        }
    };
    Ok(Epoch {
        epoch_s,
        admit_s,
        reports,
        exchange_s,
        rounds: end.round,
        round_ms,
        quote_ms,
        finalize_s,
        recover_s,
        time_to_target_s,
        epsilon: quote.epsilon,
        end,
        digest,
    })
}

/// The uninterrupted, untimed twin of an epoch: the plain in-memory
/// coordinator on the same inputs for `rounds` rounds.  Returns where it
/// ended and what it collected.
pub fn twin(spec: &Spec, world: &World, rounds: usize) -> Result<(EndState, Digest), String> {
    let mut coordinator: ShuffleCoordinator<'_, Vec<u8>> =
        ShuffleCoordinator::new(&world.graph, &world.partition, world.config)
            .map_err(|e| e.to_string())?;
    for batch in world.batches() {
        coordinator.admit(batch).map_err(|e| e.to_string())?;
    }
    if let Some(schedule) = world.schedule(spec) {
        coordinator
            .with_outages(schedule?)
            .map_err(|e| e.to_string())?;
    }
    coordinator.begin_exchange().map_err(|e| e.to_string())?;
    coordinator.run_rounds(rounds).map_err(|e| e.to_string())?;
    let (_, quote) = coordinator
        .live_quote(&world.params)
        .map_err(|e| e.to_string())?;
    let engine = coordinator.engine().expect("exchange started");
    let end = EndState::capture(engine, &quote);
    let outcome = coordinator
        .finalize(make_dummy)
        .map_err(|e| e.to_string())?;
    let digest = check_conservation(spec.protocol, world.n(), world.seed, &outcome.collected)?;
    Ok((end, digest))
}
