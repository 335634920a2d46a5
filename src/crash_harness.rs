//! Shared plumbing of the crash-injection recovery tests.
//!
//! The recovery property needs a process that *actually dies* — mid-round,
//! or mid-append with a torn WAL frame — and a second process that recovers
//! the store and keeps going.  `src/bin/crash_child.rs` is that process;
//! this module is the code it shares with `tests/crash_recovery.rs`: the
//! environment-variable scenario contract, the deterministic inputs
//! (payloads, outage masks, accountant parameters) and the canonical state
//! summary both sides compare byte for byte.

use network_shuffle::prelude::{
    AccountantParams, CoordinatorConfig, OutageSchedule, ProtocolKind, ShuffleCoordinator,
    SimulationOutcome,
};
use ns_graph::prelude::{Graph, Partition};
use ns_graph::round::DrawMode;
use ns_store::prelude::{DurableConfig, DurableCoordinator};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Everything a crash-child run needs, passed through the environment.
#[derive(Debug, Clone)]
pub struct CrashScenario {
    /// Store directory (`NS_CRASH_DIR`).
    pub store_dir: PathBuf,
    /// Edge-list file of the graph (`NS_CRASH_GRAPH`).
    pub graph_path: PathBuf,
    /// Shard count (`NS_CRASH_SHARDS`).
    pub shards: usize,
    /// Coordinator seed (`NS_CRASH_SEED`).
    pub seed: u64,
    /// Walk laziness (`NS_CRASH_LAZINESS`).
    pub laziness: f64,
    /// `A_single` instead of `A_all` (`NS_CRASH_SINGLE=1`).
    pub single: bool,
    /// Fast draw mode instead of compat (`NS_CRASH_FAST=1`).
    pub fast: bool,
    /// Rounds of deterministic outage schedule, 0 for none
    /// (`NS_CRASH_OUTAGE_ROUNDS`).
    pub outage_rounds: usize,
    /// Total rounds the run should reach (`NS_CRASH_TOTAL_ROUNDS`).
    pub total_rounds: usize,
    /// Abort when the engine reaches this round (`NS_CRASH_AT_ROUND`).
    pub crash_at_round: Option<usize>,
    /// Before aborting, append this many bytes of a torn round frame
    /// (`NS_CRASH_MIDWRITE_KEEP`).
    pub midwrite_keep: Option<usize>,
    /// Sleep this long per round, for the wall-clock SIGKILL smoke
    /// (`NS_CRASH_SLEEP_MS`).
    pub sleep_ms: u64,
    /// Where the child writes its final state summary (`NS_CRASH_OUT`).
    pub out_path: Option<PathBuf>,
}

impl CrashScenario {
    /// Reads the scenario from the environment (the child side).
    ///
    /// # Panics
    ///
    /// On missing or malformed required variables — a harness bug, not a
    /// runtime condition.
    pub fn from_env() -> Self {
        let var = |key: &str| std::env::var(key).ok();
        let req = |key: &str| {
            std::env::var(key).unwrap_or_else(|_| panic!("crash_child: {key} must be set"))
        };
        CrashScenario {
            store_dir: PathBuf::from(req("NS_CRASH_DIR")),
            graph_path: PathBuf::from(req("NS_CRASH_GRAPH")),
            shards: req("NS_CRASH_SHARDS").parse().expect("NS_CRASH_SHARDS"),
            seed: req("NS_CRASH_SEED").parse().expect("NS_CRASH_SEED"),
            laziness: var("NS_CRASH_LAZINESS")
                .map_or(0.0, |v| v.parse().expect("NS_CRASH_LAZINESS")),
            single: var("NS_CRASH_SINGLE").as_deref() == Some("1"),
            fast: var("NS_CRASH_FAST").as_deref() == Some("1"),
            outage_rounds: var("NS_CRASH_OUTAGE_ROUNDS")
                .map_or(0, |v| v.parse().expect("NS_CRASH_OUTAGE_ROUNDS")),
            total_rounds: req("NS_CRASH_TOTAL_ROUNDS")
                .parse()
                .expect("NS_CRASH_TOTAL_ROUNDS"),
            crash_at_round: var("NS_CRASH_AT_ROUND").map(|v| v.parse().expect("NS_CRASH_AT_ROUND")),
            midwrite_keep: var("NS_CRASH_MIDWRITE_KEEP")
                .map(|v| v.parse().expect("NS_CRASH_MIDWRITE_KEEP")),
            sleep_ms: var("NS_CRASH_SLEEP_MS").map_or(0, |v| v.parse().expect("NS_CRASH_SLEEP_MS")),
            out_path: var("NS_CRASH_OUT").map(PathBuf::from),
        }
    }

    /// The scenario as `(key, value)` environment pairs (the parent side).
    pub fn to_env(&self) -> Vec<(String, String)> {
        let mut env = vec![
            ("NS_CRASH_DIR".into(), self.store_dir.display().to_string()),
            (
                "NS_CRASH_GRAPH".into(),
                self.graph_path.display().to_string(),
            ),
            ("NS_CRASH_SHARDS".into(), self.shards.to_string()),
            ("NS_CRASH_SEED".into(), self.seed.to_string()),
            ("NS_CRASH_LAZINESS".into(), self.laziness.to_string()),
            (
                "NS_CRASH_OUTAGE_ROUNDS".into(),
                self.outage_rounds.to_string(),
            ),
            (
                "NS_CRASH_TOTAL_ROUNDS".into(),
                self.total_rounds.to_string(),
            ),
            ("NS_CRASH_SLEEP_MS".into(), self.sleep_ms.to_string()),
        ];
        if self.single {
            env.push(("NS_CRASH_SINGLE".into(), "1".into()));
        }
        if self.fast {
            env.push(("NS_CRASH_FAST".into(), "1".into()));
        }
        if let Some(round) = self.crash_at_round {
            env.push(("NS_CRASH_AT_ROUND".into(), round.to_string()));
        }
        if let Some(keep) = self.midwrite_keep {
            env.push(("NS_CRASH_MIDWRITE_KEEP".into(), keep.to_string()));
        }
        if let Some(out) = &self.out_path {
            env.push(("NS_CRASH_OUT".into(), out.display().to_string()));
        }
        env
    }

    /// The coordinator configuration this scenario runs.
    pub fn coordinator_config(&self) -> CoordinatorConfig {
        CoordinatorConfig {
            seed: self.seed,
            laziness: self.laziness,
            protocol: if self.single {
                ProtocolKind::Single
            } else {
                ProtocolKind::All
            },
            tracked_per_shard: usize::MAX,
            draw_mode: if self.fast {
                DrawMode::Fast
            } else {
                DrawMode::Compat
            },
        }
    }
}

/// The canonical full-population payloads: user `i` reports two derived
/// bytes, so payload identity survives shuffling and re-sealing.
pub fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| vec![i as u8, (i >> 8) as u8, (i.wrapping_mul(31)) as u8])
        .collect()
}

/// Deterministic outage schedule: roughly one user in five is dark each
/// round, the dark set rotating with the round index.
pub fn outage_masks(n: usize, rounds: usize) -> Vec<Vec<bool>> {
    (0..rounds)
        .map(|t| (0..n).map(|u| !(u * 7 + t * 3).is_multiple_of(5)).collect())
        .collect()
}

/// The accountant parameters every crash scenario quotes under.
///
/// # Panics
///
/// Never for `n >= 2` (validated construction with fixed legal constants).
pub fn accountant_params(n: usize) -> AccountantParams {
    AccountantParams::new(n, 1.0, 1e-6, 1e-6).expect("fixed parameters are valid")
}

/// Builds the scenario's partition over `graph`.
///
/// # Errors
///
/// Partition construction errors (propagated as strings for the child).
pub fn build_partition(graph: &Graph, shards: usize) -> Result<Partition, String> {
    let partition = if shards <= 1 {
        Partition::single_shard(graph)
    } else {
        Partition::new(graph, shards)
    };
    partition.map_err(|e| format!("partition: {e}"))
}

/// Renders the mid-run observable state of `coordinator` — round, walker
/// positions, per-shard RNG clocks, live quote bits — as the canonical
/// comparison text.
///
/// # Panics
///
/// If the exchange phase has not started (harness bug).
pub fn summarize_live(coordinator: &ShuffleCoordinator<'_, Vec<u8>>, n: usize) -> String {
    let engine = coordinator.engine().expect("exchange started");
    let mut out = String::new();
    writeln!(out, "round {}", engine.round()).unwrap();
    let checkpoint = engine.checkpoint();
    write!(out, "positions").unwrap();
    for &p in &checkpoint.positions {
        write!(out, " {p}").unwrap();
    }
    out.push('\n');
    for (shard, _) in checkpoint.shards.iter().enumerate() {
        let (counter, cursor) = engine.rng_clock(shard);
        writeln!(out, "clock {shard} {counter} {cursor}").unwrap();
    }
    let (worst, quote) = coordinator
        .live_quote(&accountant_params(n))
        .expect("live quote");
    writeln!(
        out,
        "quote {worst} {:016x} {:016x}",
        quote.epsilon.to_bits(),
        quote.delta.to_bits()
    )
    .unwrap();
    out
}

/// Appends the finalized outcome — metrics vectors and a CRC-32 digest of
/// the canonical collected-report serialization — to a summary produced by
/// [`summarize_live`].
pub fn summarize_outcome(out: &mut String, outcome: &SimulationOutcome<Vec<u8>>) {
    let m = &outcome.metrics;
    writeln!(
        out,
        "metrics users {} rounds {} server_reports {}",
        m.user_count, m.rounds, m.server_reports
    )
    .unwrap();
    write!(out, "messages").unwrap();
    for &v in &m.messages_per_user {
        write!(out, " {v}").unwrap();
    }
    out.push('\n');
    write!(out, "peaks").unwrap();
    for &v in &m.peak_reports_per_user {
        write!(out, " {v}").unwrap();
    }
    out.push('\n');
    let mut canon: Vec<u8> = Vec::new();
    for submission in outcome.collected.submissions() {
        canon.extend_from_slice(&(submission.submitter as u64).to_le_bytes());
        canon.extend_from_slice(&(submission.reports.len() as u64).to_le_bytes());
        for report in &submission.reports {
            canon.extend_from_slice(&(report.origin as u64).to_le_bytes());
            canon.push(report.is_dummy as u8);
            canon.extend_from_slice(&(report.payload.len() as u64).to_le_bytes());
            canon.extend_from_slice(&report.payload);
        }
    }
    writeln!(
        out,
        "collected crc32 {:08x} reports {} dummies {} nulls {}",
        ns_store::checksum::crc32(&canon),
        outcome.collected.report_count(),
        outcome.collected.dummy_count(),
        outcome.collected.null_response_count()
    )
    .unwrap();
}

/// The uninterrupted in-process reference: runs the plain (non-durable)
/// coordinator through the scenario and returns the canonical summary.
///
/// # Panics
///
/// On any protocol error — the scenario inputs are valid by construction.
pub fn reference_summary(graph: &Graph, partition: &Partition, scenario: &CrashScenario) -> String {
    let n = graph.node_count();
    let mut coordinator: ShuffleCoordinator<'_, Vec<u8>> =
        ShuffleCoordinator::new(graph, partition, scenario.coordinator_config())
            .expect("reference coordinator");
    coordinator
        .admit_population(payloads(n))
        .expect("reference admission");
    if scenario.outage_rounds > 0 {
        let schedule = OutageSchedule::from_masks(outage_masks(n, scenario.outage_rounds))
            .expect("reference schedule");
        coordinator
            .with_outages(schedule)
            .expect("reference outages");
    }
    coordinator.begin_exchange().expect("reference exchange");
    coordinator
        .run_rounds(scenario.total_rounds)
        .expect("reference rounds");
    let mut summary = summarize_live(&coordinator, n);
    let outcome = coordinator
        .finalize(|_| vec![0xD0])
        .expect("reference finalize");
    summarize_outcome(&mut summary, &outcome);
    summary
}

/// The child process body: create or recover the durable store, drive it to
/// `total_rounds` (crashing on the way if told to), then finalize and write
/// the canonical summary.  Returns an error string for `main` to print.
///
/// # Errors
///
/// Any store/protocol error, stringified.
pub fn run_child(scenario: &CrashScenario) -> Result<(), String> {
    let (graph, _) = ns_graph::io::read_edge_list_file(&scenario.graph_path)
        .map_err(|e| format!("graph: {e}"))?;
    let n = graph.node_count();
    let partition = build_partition(&graph, scenario.shards)?;
    let durable_config = DurableConfig::from_env()?;
    let mut store = if scenario.store_dir.join("meta.bin").exists() {
        DurableCoordinator::recover(&graph, &partition, durable_config, &scenario.store_dir)
            .map_err(|e| format!("recover: {e}"))?
    } else {
        let mut store = DurableCoordinator::create(
            &graph,
            &partition,
            scenario.coordinator_config(),
            durable_config,
            &scenario.store_dir,
        )
        .map_err(|e| format!("create: {e}"))?;
        store
            .admit_population(payloads(n))
            .map_err(|e| format!("admit: {e}"))?;
        if scenario.outage_rounds > 0 {
            let schedule = OutageSchedule::from_masks(outage_masks(n, scenario.outage_rounds))
                .map_err(|e| format!("schedule: {e}"))?;
            store
                .with_outages(schedule)
                .map_err(|e| format!("outages: {e}"))?;
        }
        store.begin_exchange().map_err(|e| format!("begin: {e}"))?;
        store
    };
    while store.round() < scenario.total_rounds {
        if scenario.crash_at_round == Some(store.round()) {
            if let Some(keep) = scenario.midwrite_keep {
                store
                    .simulate_torn_round_append(keep)
                    .map_err(|e| format!("torn append: {e}"))?;
            }
            // The crash: no unwinding, no Drop glue, no flushes.
            std::process::abort();
        }
        store.run_rounds(1).map_err(|e| format!("round: {e}"))?;
        if scenario.sleep_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(scenario.sleep_ms));
        }
    }
    let mut summary = summarize_live(store.coordinator(), n);
    let (outcome, _) = store
        .finalize(&accountant_params(n), |_| vec![0xD0])
        .map_err(|e| format!("finalize: {e}"))?;
    summarize_outcome(&mut summary, &outcome);
    if let Some(out_path) = &scenario.out_path {
        std::fs::write(out_path, &summary).map_err(|e| format!("summary write: {e}"))?;
    }
    Ok(())
}
