//! The traced coordinator epoch: the same epoch `coord::run_epoch` drives
//! through `DurableCoordinator`, executed call by call through the layers'
//! public entry points in the order the durable coordinator uses them, with
//! a span around every call.  It writes a real store (meta, WAL, snapshots,
//! ledger) in the durable coordinator's format, so `DurableCoordinator::
//! recover` can read it back, and it must end bitwise where the untraced
//! epoch ended.

use crate::common::{check_conservation, Calls, Digest, EndState};
use crate::coord::{make_dummy, Epoch, Spec, Stop, World};
use crate::spans::Tracer;
use network_shuffle::crypto::Envelope;
use network_shuffle::metrics::TrafficRecorder;
use network_shuffle::prelude::{Curator, Report};
use network_shuffle::protocol::client::{FinalizeChoice, FinalizePolicy, SealedSubmission};
use network_shuffle::service::{CoordinatorCheckpoint, StreamingAccountant};
use ns_dp::prelude::BudgetLedger;
use ns_graph::mixing_engine::{RoundObserver, RoundStats};
use ns_graph::prelude::NodeId;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_store::durable::WAL_FILE;
use ns_store::records::{encode_round, WalRecord};
use ns_store::snapshot::{
    encode_checkpoint, load_snapshot, save_ledger, save_meta, snapshot_path, write_atomic,
    StoreMeta, SNAPSHOT_MAGIC,
};
use ns_store::wal::{scan_wal, WalWriter};
use ns_store::DurableCoordinator;
use std::path::Path;
use std::time::Instant;

/// Work counts the traced epochs observed beside their spans, accumulated
/// over every traced epoch of a run.
#[derive(Default, Clone)]
pub struct Counters {
    pub walkers: u64,
    pub steps: u64,
    pub moves: u64,
    pub cross_shard_moves: u64,
    pub admit_batches: u64,
    pub wal_round_bytes: u64,
    pub snapshot_bytes: Vec<u64>,
    pub replay_rounds: u64,
    pub tracked_rows: u64,
}

/// Feeds `TrafficRecorder::on_round` from inside the engine's step as its
/// own child span.
struct TimedRecorder<'a> {
    recorder: &'a mut TrafficRecorder,
    tracer: &'a mut Tracer,
}

impl RoundObserver for TimedRecorder<'_> {
    fn on_round(&mut self, stats: &RoundStats<'_>) {
        let recorder = &mut *self.recorder;
        self.tracer
            .time("recorder.on_round", || recorder.on_round(stats));
    }
}

/// Appends one record: encode, append and (when `sync`) fsync, each its own
/// span.
fn log(
    tr: &mut Tracer,
    calls: &mut Calls,
    wal: &mut WalWriter,
    scratch: &mut Vec<u8>,
    record: impl FnOnce(&mut Vec<u8>),
    sync: bool,
) -> Result<(), String> {
    tr.time("wal.encode", || record(scratch));
    calls.call(
        "WalWriter::append",
        tr.time("wal.append", || wal.append(scratch)),
    )?;
    if sync {
        calls.call("WalWriter::sync", tr.time("wal.fsync", || wal.sync()))?;
    }
    Ok(())
}

/// Runs one traced epoch in the empty directory `dir`, adding its work
/// counts to `counters`.
pub fn run_epoch(
    spec: &Spec,
    world: &World,
    dir: &Path,
    calls: &mut Calls,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> Result<Epoch, String> {
    let (graph, partition, config) = (&world.graph, &world.partition, world.config);
    let n = world.n();
    let laziness = config.laziness;

    // What `DurableCoordinator::create` (+ `attach_ledger`) does: set-up,
    // outside the epoch.
    calls.call("create_dir_all", std::fs::create_dir_all(dir))?;
    let meta = StoreMeta {
        config,
        node_count: n,
        shard_count: partition.shard_count(),
    };
    calls.call("save_meta", save_meta(dir, &meta))?;
    let mut wal = calls.call("WalWriter::open", WalWriter::open(dir.join(WAL_FILE), 0))?;
    let mut accountant = calls.call(
        "StreamingAccountant::new",
        StreamingAccountant::new(graph, partition, laziness, config.tracked_per_shard),
    )?;
    let ledger_path = dir.join("ledger.bin");
    let mut ledger = if spec.ledger {
        let ledger = calls.call(
            "BudgetLedger::uniform",
            BudgetLedger::uniform(n, World::budget()),
        )?;
        calls.call("save_ledger", save_ledger(&ledger_path, &ledger))?;
        Some(ledger)
    } else {
        None
    };
    let curator = Curator::new();
    let batches = world.batches();
    let mut scratch = Vec::new();
    counters.tracked_rows = accountant.tracked_count() as u64;

    let root = tr.enter("bench.epoch");
    let epoch_start = Instant::now();

    // Admission: validate, log the batch WAL-first, then seal and stage.
    let mut arena: Vec<Option<Envelope<Report<Vec<u8>>>>> = Vec::new();
    let mut origins: Vec<NodeId> = Vec::new();
    let mut charged: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; n];
    let mut reports = 0;
    for batch in batches {
        let span = tr.enter("bench.admit");
        let admissible = tr.time("admit.check", || {
            batch.iter().all(|&(origin, _)| {
                origin < n && ledger.as_ref().is_none_or(|l| l.can_admit(origin))
            })
        });
        calls.check("admission batch is admissible", admissible);
        log(
            tr,
            calls,
            &mut wal,
            &mut scratch,
            |out| {
                WalRecord::AdmittedBatch {
                    entries: batch.iter().map(|(o, p)| (*o as u64, p.clone())).collect(),
                }
                .encode(out)
            },
            true,
        )?;
        reports += batch.len();
        tr.time("admit.seal", || {
            for (origin, payload) in batch {
                arena.push(Some(Envelope::seal(
                    curator.public_key(),
                    Report::genuine(origin, payload),
                )));
                origins.push(origin);
                if !seen[origin] {
                    seen[origin] = true;
                    charged.push(origin);
                }
            }
        });
        counters.admit_batches += 1;
        tr.exit(span);
    }
    let admit_s = epoch_start.elapsed().as_secs_f64();

    // The realized outage schedule: sampled, logged, and the accountant
    // moved onto its per-round operators.
    let schedule = match spec.outages {
        Some(_) => {
            let sampled = tr.time("outage.sample", || world.schedule(spec).expect("outages"));
            let schedule = calls.call("sample_schedule", sampled)?;
            log(
                tr,
                calls,
                &mut wal,
                &mut scratch,
                |out| {
                    WalRecord::ScheduleAttached {
                        masks: schedule.masks().to_vec(),
                    }
                    .encode(out)
                },
                true,
            )?;
            let model = calls.call(
                "time_varying_model",
                tr.time("outage.model_build", || {
                    schedule.time_varying_model(graph, laziness)
                }),
            )?;
            // The coordinator swaps the operator of its round-0 accountant
            // in place (a private call); rebuilding it is the closest
            // public equivalent and costs more, so it is a probe.
            accountant = calls.call(
                "StreamingAccountant::with_schedule",
                tr.probe("acct.build", || {
                    StreamingAccountant::with_schedule(
                        graph,
                        partition,
                        model,
                        config.tracked_per_shard,
                    )
                }),
            )?;
            Some(schedule)
        }
        None => None,
    };

    // Begin the exchange: log the phase change, build recorder and engine.
    let exchange_start = Instant::now();
    log(
        tr,
        calls,
        &mut wal,
        &mut scratch,
        |out| WalRecord::BeginExchange.encode(out),
        true,
    )?;
    let mut recorder = tr.time("recorder.build", || {
        let mut initial_load = vec![0usize; n];
        for &origin in &origins {
            initial_load[origin] += 1;
        }
        TrafficRecorder::with_initial_load(&initial_load)
    });
    let mut engine = calls.call(
        "ShardedMixingEngine::with_starts",
        tr.time("kernel.build", || {
            ShardedMixingEngine::with_starts(graph, partition, origins.clone(), config.seed)
        }),
    )?;
    engine.set_draw_mode(config.draw_mode);
    counters.walkers = origins.len() as u64;

    let mut clocks: Vec<(u64, u32)> = Vec::new();
    let mut prev: Vec<u32> = Vec::new();
    let mut unsynced = 0usize;
    let mut recovery_s = 0.0;
    let mut round_ms = Vec::new();
    let mut quote_ms = Vec::new();
    let mut time_to_target_s = None;
    let mut recover_s = None;
    let quote = loop {
        let round_span = tr.enter("bench.round");
        let round_start = Instant::now();
        let round = engine.round();
        let mask = schedule.as_ref().map(|s| s.mask(round));
        tr.time("wal.encode", || {
            clocks.clear();
            clocks.extend((0..engine.shard_count()).map(|s| engine.rng_clock(s)));
            encode_round(&mut scratch, round as u64, config.draw_mode, &clocks, mask);
        });
        let before = wal.len();
        calls.call(
            "WalWriter::append",
            tr.time("wal.append", || wal.append(&scratch)),
        )?;
        counters.wal_round_bytes += wal.len() - before;
        unsynced += 1;
        if unsynced >= spec.durable.group_commit.max(1) {
            calls.call("WalWriter::sync", tr.time("wal.fsync", || wal.sync()))?;
            unsynced = 0;
        }

        tr.probe("bench.probe", || {
            prev.clear();
            prev.extend_from_slice(engine.positions());
        });
        let step = tr.enter("kernel.step");
        let mut observer = TimedRecorder {
            recorder: &mut recorder,
            tracer: tr,
        };
        match mask {
            None => engine.step(laziness, &mut observer),
            Some(mask) => engine.step_masked(laziness, mask, &mut observer),
        }
        tr.exit(step);
        tr.probe("bench.probe", || {
            for (&before, &after) in prev.iter().zip(engine.positions()) {
                if before != after {
                    counters.moves += 1;
                    counters.cross_shard_moves += (partition.shard_of(before as usize)
                        != partition.shard_of(after as usize))
                        as u64;
                }
            }
        });
        counters.steps += 1;
        tr.time("acct.advance", || accountant.advance_round());

        let completed = engine.round();
        let every = spec.durable.snapshot_every;
        if every > 0 && completed.is_multiple_of(every) {
            calls.call("WalWriter::sync", tr.time("wal.fsync", || wal.sync()))?;
            unsynced = 0;
            let checkpoint = calls.call(
                "checkpoint",
                tr.time("snapshot.capture", || {
                    accountant.checkpoint().map(|acct| CoordinatorCheckpoint {
                        engine: engine.checkpoint(),
                        accountant: acct,
                        recorder_rounds: recorder.rounds(),
                        recorder_messages: recorder.messages_per_user().to_vec(),
                        recorder_peaks: recorder.peak_reports_per_user().to_vec(),
                    })
                }),
            )?;
            let mut body = Vec::new();
            tr.time("snapshot.encode", || {
                encode_checkpoint(&checkpoint, &mut body)
            });
            counters.snapshot_bytes.push(body.len() as u64);
            calls.call(
                "write_atomic",
                tr.time("snapshot.write", || {
                    write_atomic(&snapshot_path(dir, completed), SNAPSHOT_MAGIC, &body)
                }),
            )?;
            log(
                tr,
                calls,
                &mut wal,
                &mut scratch,
                |out| {
                    WalRecord::SnapshotMarker {
                        round: completed as u64,
                    }
                    .encode(out)
                },
                true,
            )?;
        }
        tr.exit(round_span);
        round_ms.push(round_start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let (_, quote) = calls.call(
            "worst_quote",
            tr.time("acct.quote", || {
                accountant.worst_quote(config.protocol, &world.params)
            }),
        )?;
        quote_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let done = match spec.stop {
            Stop::Rounds(r) => completed >= r,
            Stop::Target {
                epsilon,
                max_rounds,
            } => {
                if quote.epsilon <= epsilon {
                    time_to_target_s = Some(exchange_start.elapsed().as_secs_f64() - recovery_s);
                    true
                } else {
                    completed >= max_rounds
                }
            }
        };
        if done {
            break quote;
        }
        if spec.crash_after == Some(completed) {
            // The crash: everything up to here is durable (the last fsync
            // ran this round).  Read the store back the way recovery does —
            // the scan and snapshot load are probes, `recover` scans and
            // loads again itself — and check the recovered coordinator is
            // bitwise the state this run holds.
            let span = tr.enter("bench.recovery");
            let start = Instant::now();
            let scan = calls.call(
                "scan_wal",
                tr.probe("recovery.scan", || scan_wal(dir.join(WAL_FILE))),
            )?;
            let marker = scan
                .records
                .iter()
                .filter_map(|payload| match WalRecord::decode(payload) {
                    Ok(WalRecord::SnapshotMarker { round }) => Some(round as usize),
                    _ => None,
                })
                .filter(|&round| round <= completed)
                .max();
            if let Some(marker) = marker {
                let loaded = calls.call(
                    "load_snapshot",
                    tr.probe("recovery.snapshot_load", || load_snapshot(dir, marker)),
                )?;
                calls.check("snapshot holds its round", loaded.engine.round == marker);
                counters.replay_rounds += (completed - marker) as u64;
            } else {
                counters.replay_rounds += completed as u64;
            }
            let recovered = calls.call(
                "DurableCoordinator::recover",
                tr.time("recovery.recover", || {
                    DurableCoordinator::recover(graph, partition, spec.durable, dir)
                }),
            )?;
            let live = recovered
                .coordinator()
                .engine()
                .expect("recovered mid-exchange");
            let (_, recovered_quote) =
                calls.call("live_quote", recovered.live_quote(&world.params))?;
            calls.check(
                "recovery lands bitwise on the traced state",
                live.positions() == engine.positions()
                    && (0..engine.shard_count()).all(|s| live.rng_clock(s) == engine.rng_clock(s))
                    && recovered_quote.epsilon.to_bits() == quote.epsilon.to_bits(),
            );
            drop(recovered);
            let secs = start.elapsed().as_secs_f64();
            recovery_s += secs;
            recover_s = Some(secs);
            tr.exit(span);
        }
    };
    let exchange_s = exchange_start.elapsed().as_secs_f64() - recovery_s;
    let end = EndState::capture(&engine, &quote);

    // Finalize: quote, log, charge and persist the ledger, apply the
    // submission rule, collect.
    let finalize_start = Instant::now();
    let span = tr.enter("bench.finalize");
    let (_, charge) = calls.call(
        "worst_quote",
        tr.time("acct.quote", || {
            accountant.worst_quote(config.protocol, &world.params)
        }),
    )?;
    let round = engine.round() as u64;
    log(
        tr,
        calls,
        &mut wal,
        &mut scratch,
        |out| WalRecord::Finalized { round }.encode(out),
        true,
    )?;
    if let Some(ledger) = ledger.as_mut() {
        let charged_ok = tr.time("ledger.charge", || {
            charged
                .iter()
                .try_for_each(|&origin| ledger.charge(origin, &charge))
        });
        calls.call("BudgetLedger::charge", charged_ok)?;
        calls.call(
            "save_ledger",
            tr.time("ledger.save", || save_ledger(&ledger_path, ledger)),
        )?;
    }
    let submissions = tr.time("finalize.submit", || {
        let policy: FinalizePolicy = config.protocol.into();
        let mut submissions = Vec::with_capacity(n);
        for submitter in 0..n {
            let held: Vec<u32> = engine.held_by(submitter).to_vec();
            let rng = engine.shard_rng_mut(partition.shard_of(submitter));
            let reports = match policy.choose(held.len(), rng) {
                FinalizeChoice::All => held
                    .iter()
                    .map(|&r| {
                        arena[r as usize]
                            .take()
                            .expect("a report is submitted once")
                    })
                    .collect(),
                FinalizeChoice::Dummy => vec![Envelope::seal(
                    curator.public_key(),
                    Report::dummy(submitter, make_dummy(rng)),
                )],
                FinalizeChoice::Pick(i) => vec![arena[held[i] as usize]
                    .take()
                    .expect("a report is submitted once")],
            };
            submissions.push(SealedSubmission { submitter, reports });
        }
        submissions
    });
    let collected = calls.call(
        "Curator::collect",
        tr.time("finalize.collect", || curator.collect(submissions)),
    )?;
    tr.exit(span);
    let finalize_s = finalize_start.elapsed().as_secs_f64();
    let epoch_s = epoch_start.elapsed().as_secs_f64();
    tr.exit(root);

    let digest = match check_conservation(spec.protocol, n, world.seed, &collected) {
        Ok(digest) => {
            calls.check("report conservation (traced)", true);
            digest
        }
        Err(msg) => {
            calls.check(&format!("report conservation, traced ({msg})"), false);
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
