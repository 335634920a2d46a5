//! A crash-recoverable deployment: the durable runtime end to end.
//!
//! ```text
//! cargo run --release --example durable_deployment
//! # CI smoke run / scaling probe at a custom population:
//! NS_DURABLE_N=120 cargo run --release --example durable_deployment
//! ```
//!
//! A 400-user collection (`NS_DURABLE_N` overrides the population) runs
//! under the durable coordinator: every input — admitted batches, the
//! realized outage schedule, the phase change, one record per round — is
//! appended to a checksummed WAL *before* it is applied, fsynced in groups
//! of `NS_WAL_GROUP_COMMIT` round records, with a full snapshot every
//! `NS_SNAPSHOT_EVERY` rounds and a persisted per-user (ε, δ) budget
//! ledger.
//!
//! Halfway through the epoch the example simply *drops* the coordinator —
//! no finalize, no flush, the moral equivalent of `kill -9` — then calls
//! [`DurableCoordinator::recover`], which loads the newest valid snapshot
//! and replays the logged round tail, landing **bit for bit** where the
//! lost process would have been (the example proves it against an
//! uninterrupted twin: positions, per-shard RNG clocks and the live-quote
//! bits all match).  The recovered run then finishes the epoch, charges the
//! ledger and prints where the budget stands.

use network_shuffle::prelude::*;
use ns_dp::prelude::PrivacyGuarantee;
use ns_graph::generators::random_regular;
use ns_graph::prelude::Partition;
use ns_graph::rng::seeded_rng;
use ns_obs::{say, MetricsRegistry};
use ns_store::prelude::{DurableConfig, DurableCoordinator, TRACE_FILE};

const TOPIC: &str = "durable_deployment";

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::var("NS_DURABLE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let seed = 20220408;
    let rounds = 24;
    let crash_at = 13;

    let graph = random_regular(n, 6, &mut seeded_rng(seed))?;
    let partition = Partition::new(&graph, 4)?;
    let config = CoordinatorConfig::all(seed, usize::MAX);
    let durable = DurableConfig::from_env()?; // NS_WAL_GROUP_COMMIT / NS_SNAPSHOT_EVERY
    let params = AccountantParams::new(n, 1.0, 1e-6, 1e-6)?;
    let payloads: Vec<Vec<u8>> = (0..n).map(|i| (i as u32).to_le_bytes().to_vec()).collect();

    let base = std::env::temp_dir().join("ns_durable_deployment");
    let _ = std::fs::remove_dir_all(&base);
    let store_dir = base.join("store");
    let ledger_path = base.join("ledger.bin");

    say!(TOPIC, "== durable epoch: n={n}, k=4, {rounds} rounds ==");
    say!(
        TOPIC,
        "group commit every {} round records, snapshot every {} rounds",
        durable.group_commit,
        durable.snapshot_every
    );

    // NS_OBS=1 runs the whole epoch fully instrumented (provably inert —
    // the bitwise twin comparison below holds either way) and exports the
    // structured trace at the end.
    let observe = ns_obs::env_enabled();
    let registry = MetricsRegistry::new();

    // Phase 1: run half the epoch, then lose the process.
    {
        let mut store =
            DurableCoordinator::create(&graph, &partition, config, durable, &store_dir)?;
        if observe {
            store.attach_telemetry(&registry, Some(params));
        }
        store.attach_ledger(&ledger_path, PrivacyGuarantee::new(2048.0, 1e-3)?)?;
        store.admit_population(payloads.clone())?;
        store.begin_exchange()?;
        store.run_rounds(crash_at)?;
        let (worst, quote) = store.live_quote(&params)?;
        say!(TOPIC,
            "round {crash_at:>2}: live quote ε = {:.3} (worst user {worst}) — and now the process dies",
            quote.epsilon
        );
        // Dropped here: no finalize, no flush.  The WAL has everything.
    }

    // Phase 2: recover and prove the state is bitwise the uninterrupted one.
    let mut store = DurableCoordinator::recover(&graph, &partition, durable, &store_dir)?;
    if observe {
        store.attach_telemetry(&registry, Some(params));
    }
    store.attach_ledger(&ledger_path, PrivacyGuarantee::new(2048.0, 1e-3)?)?;
    say!(
        TOPIC,
        "recovered at round {} (WAL tail: {:?})",
        store.round(),
        store.recovered_tail().expect("recovered store")
    );

    let mut twin: ShuffleCoordinator<'_, Vec<u8>> =
        ShuffleCoordinator::new(&graph, &partition, config)?;
    twin.admit_population(payloads)?;
    twin.begin_exchange()?;
    twin.run_rounds(store.round())?;
    let recovered_engine = store.coordinator().engine().expect("engine");
    let twin_engine = twin.engine().expect("engine");
    assert_eq!(
        recovered_engine.checkpoint().positions,
        twin_engine.checkpoint().positions,
        "recovered positions must be bitwise the uninterrupted ones"
    );
    for shard in 0..recovered_engine.shard_count() {
        assert_eq!(
            recovered_engine.rng_clock(shard),
            twin_engine.rng_clock(shard),
            "shard {shard} RNG stream must resume at the exact draw"
        );
    }
    let (_, recovered_quote) = store.live_quote(&params)?;
    let (_, twin_quote) = twin.live_quote(&params)?;
    assert_eq!(
        recovered_quote.epsilon.to_bits(),
        twin_quote.epsilon.to_bits(),
        "recovered quote must match to the last bit"
    );
    say!(
        TOPIC,
        "positions, RNG clocks and quote bits all match the uninterrupted twin"
    );

    // Phase 3: finish the epoch and settle the ledger.
    store.run_rounds(rounds - store.round())?;
    let (outcome, charged) = store.finalize(&params, |_| vec![0xD0])?;
    say!(
        TOPIC,
        "finalized after {rounds} rounds: {} reports collected, charged ε = {:.3} per user",
        outcome.collected.report_count(),
        charged.epsilon
    );
    let ledger = ns_store::prelude::load_ledger(&ledger_path)?;
    let (remaining_eps, _) = ledger.remaining(0);
    say!(
        TOPIC,
        "budget ledger: user 0 has ε = {remaining_eps:.3} of 2048 left; \
         {} users exhausted",
        ledger.exhausted_users().len()
    );

    if observe {
        // finalize() flushed the trace + metrics next to the WAL; validate
        // and (optionally) export before the demo directory is cleaned up.
        let trace = std::fs::read_to_string(store_dir.join(TRACE_FILE))?;
        let events = ns_obs::schema::validate_jsonl(&trace)?;
        say!(TOPIC, "telemetry: {events} trace events, schema ok");
        if let Some(path) = ns_obs::env_trace_path() {
            std::fs::write(&path, &trace)?;
            say!(TOPIC, "trace exported to {}", path.display());
        }
    }

    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}
