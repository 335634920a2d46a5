//! End-to-end benchmark of the durable network-shuffling coordinator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sensor_mesh|social_gate|durable_tight|topology_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One thread calls the system and waits for every call to return (a closed
//! loop).  Admission is batched and an epoch is a batch job, so a run
//! reports time to result and throughput at the workload's population.  A
//! run times set-ups before and after it runs whole epochs for `--seconds`
//! and checks every epoch's output.  `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates bare, traced and telemetry-attached
//! epochs and prints the per-layer metrics.  The last stdout line is one
//! JSON object; the exit code is non-zero when any call or check failed.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod churn;
mod common;
mod coord;
mod spans;
mod stats;
mod traced;

use common::Calls;
use coord::Spec;
use spans::{self_by_name, Span, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per batch: at least `SETUP_MIN_REPS`, more while the batch took
/// less than `SETUP_SECONDS`, at most `SETUP_MAX_REPS`.  A run times one
/// batch before its epochs and one after them, and `setup_s` is the median
/// of both: the machine's speed drifts over seconds to minutes, and one
/// burst of set-ups would sample a single moment of it.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 12;
const SETUP_SECONDS: f64 = 1.0;
/// Epochs per run (per arm in the traced run) even when one outlasts
/// `--seconds`.
const MIN_EPOCHS: usize = 3;
/// Round samples an end-to-end run pools at least, even past `--seconds`,
/// so that `round_ms_p90` has at least ten samples beyond it.
const MIN_ROUND_SAMPLES: usize = 100;
/// Above this share of untraced `epoch_s` outside every layer span, the
/// traced run names the uncovered calls.
const UNATTRIBUTED_LIMIT: f64 = 0.05;

/// Computed bytes one walker-move touches in the fast round kernel
/// (`ns_graph::round`): decide reads the walker id (4), one lane draw (8)
/// and the neighbour id (4) and writes both outcome slots (16); the
/// exchange writes and reads one `(dest, walker)` outbox entry (16); the
/// merge's counting sort reads each arrival twice (16), updates the load
/// counter (8) and writes the bucket entry (4) and the position (4).  A
/// masked round also reads one availability byte.
const BYTES_PER_MOVE: f64 = 80.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sensor_mesh|social_gate|durable_tight|topology_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench");
    let dir = work.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut calls = Calls::default();
    let spec = match args.workload.as_str() {
        "sensor_mesh" => Some(Spec::sensor_mesh()),
        "social_gate" => Some(Spec::social_gate()),
        "durable_tight" => Some(Spec::durable_tight()),
        "topology_churn" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let result = match (&spec, args.trace) {
        (Some(spec), false) => coord_run(spec, &args, &dir, &mut calls),
        (Some(spec), true) => coord_trace(spec, &args, &dir, &work, &mut calls),
        (None, false) => churn_run(&args, &mut calls),
        (None, true) => churn_trace(&args, &work, &mut calls),
    };
    remove_stores(&dir);
    let _ = std::fs::remove_dir(&work);
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: run abandoned: {e}");
            Vec::new()
        }
    };
    let mut fields = Vec::new();
    for (name, value, unit) in &metrics {
        // A non-finite value is a measurement bug; JSON spells it null.
        // `{:?}` always writes a fraction or an exponent (577.0, 2.6e21),
        // so every parser reads a float, however large the value.
        calls.check(&format!("{name} is a finite number"), value.is_finite());
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for failure in &calls.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let correct = calls.failed == 0 && !metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        calls.attempted.max(1),
        calls.failed,
        fields.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Deletes the run's stores, which are kept until the run has measured,
/// and waits until the file system has committed the deletion: freeing
/// their blocks costs this run, after its measurement, not the next run.
fn remove_stores(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Syncing a new file commits the file system's running transaction,
    // deletions included.
    let marker = dir.with_extension("sync");
    if let Ok(file) = std::fs::File::create(&marker) {
        let _ = file.sync_all();
    }
    let _ = std::fs::remove_file(&marker);
}

/// Prints one human-readable metric line.
fn show(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<28} {value:>16.6} {unit:<6} {note}");
}

/// Prints the end-to-end metrics with their sample counts.
fn print_end_to_end(metrics: &Metrics, setups: usize, rounds: usize, quotes: usize, epochs: usize) {
    for (name, value, unit) in metrics {
        let note = match *name {
            "round_ms_p50" | "round_ms_p90" => format!("({rounds} rounds sampled)"),
            "quote_ms_p50" => format!("({quotes} quotes sampled)"),
            "setup_s" => format!("(median of {setups})"),
            "epoch_s" | "report_moves_per_s" => format!("(median of {epochs} epochs)"),
            _ => String::new(),
        };
        show(name, *value, unit, &note);
    }
}

fn show_error_rate(calls: &Calls) {
    show(
        "error_rate",
        calls.failed as f64 / calls.attempted.max(1) as f64,
        "ratio",
        &format!(
            "({} of {} calls and checks failed)",
            calls.failed, calls.attempted
        ),
    );
}

fn rss() -> f64 {
    stats::peak_rss_mb().unwrap_or(f64::NAN)
}

/// Runs epochs through `epoch` until `seconds` of measurement are used up,
/// never starting one the last epoch's duration says would overrun, but
/// always at least `MIN_EPOCHS` epochs and, counting each epoch's rounds
/// with `rounds`, at least `min_rounds` rounds.
fn for_seconds<T>(
    seconds: f64,
    min_rounds: usize,
    rounds: impl Fn(&T) -> usize,
    mut epoch: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut sampled = 0;
    let mut last = 0.0;
    loop {
        let t = Instant::now();
        out.push(epoch(out.len())?);
        last = f64::max(last, t.elapsed().as_secs_f64());
        sampled += rounds(out.last().expect("just pushed"));
        if out.len() >= MIN_EPOCHS
            && sampled >= min_rounds
            && start.elapsed().as_secs_f64() + last > seconds
        {
            return Ok(out);
        }
    }
}

/// One batch of timed set-ups (see `SETUP_MIN_REPS`), appended to `times`;
/// returns the last set-up's world.
fn set_up<W>(
    times: &mut Vec<f64>,
    mut build: impl FnMut(usize) -> Result<W, String>,
) -> Result<W, String> {
    let first = times.len();
    let mut world = None;
    while times.len() - first < SETUP_MIN_REPS
        || (times.len() - first < SETUP_MAX_REPS
            && times[first..].iter().sum::<f64>() < SETUP_SECONDS)
    {
        let start = Instant::now();
        let built = build(times.len())?;
        times.push(start.elapsed().as_secs_f64());
        world = Some(built);
    }
    Ok(world.expect("at least one set-up"))
}

// ---------------------------------------------------------------------------
// Coordinator workloads
// ---------------------------------------------------------------------------

fn coord_setup(
    spec: &Spec,
    args: &Args,
    dir: &Path,
    calls: &mut Calls,
    times: &mut Vec<f64>,
) -> Result<coord::World, String> {
    set_up(times, |rep| {
        let world = coord::build_world(spec, args.seed)?;
        let store_dir = dir.join(format!("setup-{rep}"));
        drop(coord::create(spec, &world, &store_dir, calls)?);
        Ok(world)
    })
}

/// The bitwise and output checks every coordinator run makes on its
/// epochs: all epochs end identically, and a workload that crashes
/// matches its uninterrupted twin.
fn coord_checks(spec: &Spec, world: &coord::World, epochs: &[&coord::Epoch], calls: &mut Calls) {
    let first = epochs[0];
    for epoch in &epochs[1..] {
        calls.check(
            "every epoch of a run ends bitwise identically",
            epoch.end == first.end && epoch.digest == first.digest,
        );
    }
    if spec.crash_after.is_some() {
        match coord::twin(spec, world, first.rounds) {
            Ok((end, digest)) => {
                calls.check(
                    "recovered epoch finalizes to the uninterrupted twin's quote bits",
                    first.end.epsilon_bits == end.epsilon_bits
                        && first.end.delta_bits == end.delta_bits
                        && first.end.positions == end.positions
                        && first.end.clocks == end.clocks,
                );
                calls.check(
                    "recovered epoch collects the twin's payload multiset",
                    first.digest == digest,
                );
            }
            Err(e) => calls.check(&format!("uninterrupted twin ran ({e})"), false),
        }
    }
}

fn coord_run(spec: &Spec, args: &Args, dir: &Path, calls: &mut Calls) -> Result<Metrics, String> {
    let mut setup_times = Vec::new();
    let world = coord_setup(spec, args, dir, calls, &mut setup_times)?;
    let epochs = for_seconds(
        args.seconds,
        MIN_ROUND_SAMPLES,
        |e: &coord::Epoch| e.round_ms.len(),
        |i| coord::run_epoch(spec, &world, &dir.join(format!("epoch-{i}")), calls, None),
    )?;
    // Peak memory of set-up and epochs, before the second set-up batch and
    // the checks' twins run.
    let peak_rss_mb = rss();
    drop(coord_setup(spec, args, dir, calls, &mut setup_times)?);
    let refs: Vec<&coord::Epoch> = epochs.iter().collect();
    coord_checks(spec, &world, &refs, calls);

    let rounds: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.round_ms.iter().copied())
        .collect();
    let quotes: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.quote_ms.iter().copied())
        .collect();
    let med =
        |f: &dyn Fn(&coord::Epoch) -> f64| stats::median(&epochs.iter().map(f).collect::<Vec<_>>());
    let metrics: Metrics = vec![
        ("setup_s", stats::median(&setup_times), "s"),
        ("epoch_s", med(&|e| e.epoch_s), "s"),
        (
            "report_moves_per_s",
            med(&|e| (e.reports * e.rounds) as f64 / e.exchange_s),
            "1/s",
        ),
        ("round_ms_p50", stats::median(&rounds), "ms"),
        ("round_ms_p90", stats::quantile(&rounds, 0.9), "ms"),
        ("quote_ms_p50", stats::median(&quotes), "ms"),
        ("epsilon_final", epochs[0].epsilon, "eps"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    println!(
        "perfbench {} seed {}: n = {}, {} epochs of {} rounds",
        args.workload,
        args.seed,
        world.n(),
        epochs.len(),
        epochs[0].rounds
    );
    print_end_to_end(
        &metrics,
        setup_times.len(),
        rounds.len(),
        quotes.len(),
        epochs.len(),
    );
    // Operations only some workloads perform: printed, not gated (see
    // README, "End-to-end metrics").
    show(
        "admit_reports_per_s",
        med(&|e| e.reports as f64 / e.admit_s),
        "1/s",
        "(median of epochs)",
    );
    show(
        "finalize_s",
        med(&|e| e.finalize_s),
        "s",
        "(median of epochs)",
    );
    if epochs[0].time_to_target_s.is_some() {
        show(
            "time_to_target_s",
            med(&|e| e.time_to_target_s.unwrap_or(f64::NAN)),
            "s",
            "(median of epochs)",
        );
    }
    if epochs[0].recover_s.is_some() {
        show(
            "recover_s",
            med(&|e| e.recover_s.unwrap_or(f64::NAN)),
            "s",
            "(median of epochs)",
        );
    }
    show_error_rate(calls);
    Ok(metrics)
}

/// Span totals of the traced epochs, with helpers for the per-layer
/// metrics.
struct SpanStats<'a> {
    spans: Vec<(&'a Span, u64)>,
    epochs: f64,
}

impl SpanStats<'_> {
    fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect()
    }
    fn median_ms(&self, name: &str) -> f64 {
        stats::median(&self.self_ms(name))
    }
    fn mean_ms(&self, name: &str) -> f64 {
        stats::mean(&self.self_ms(name))
    }
    fn total_ms(&self, name: &str) -> f64 {
        self.self_ms(name).iter().fold(0.0, |a, b| a + b)
    }
    fn per_epoch_ms(&self, name: &str) -> f64 {
        self.total_ms(name) / self.epochs
    }
    fn count_per_epoch(&self, name: &str) -> f64 {
        self.self_ms(name).len() as f64 / self.epochs
    }
}

/// Share of `bare_epoch_s` no layer span explains, for the traced epoch
/// whose spans lie between the marks `from` and `to`: the self time of the
/// benchmark's own glue spans, which together with the layer spans (and
/// the probes) tile the traced epoch.  Above the limit it names the glue
/// spans holding the uncovered calls.
fn unattributed(tracer: &Tracer, (from, to): (usize, usize), bare_epoch_s: f64) -> f64 {
    let spans = tracer.between(from, to);
    let glue: Vec<(&Span, u64)> = spans
        .into_iter()
        .filter(|(span, _)| span.is_glue() && !span.probe)
        .collect();
    let glue = self_by_name(&glue);
    let glue_s: f64 = glue.values().map(|(_, ns)| *ns as f64 / 1e9).sum();
    let share = glue_s / bare_epoch_s;
    if share > UNATTRIBUTED_LIMIT {
        println!(
            "  unattributed {:.1}% of epoch_s exceeds {:.0}%; uncovered calls sit in:",
            share * 100.0,
            UNATTRIBUTED_LIMIT * 100.0
        );
        for (name, (count, ns)) in glue {
            println!(
                "    {name:<20} {:>10.3} ms self over {count} spans",
                ns as f64 / 1e6
            );
        }
    }
    share
}

/// The ns-obs histogram sums of the telemetry arm beside the traced run's
/// outside spans for the same layer, per epoch.  Report only.
fn print_obs_beside_spans(
    registry: &ns_obs::MetricsRegistry,
    telemetry_epochs: usize,
    spans: &SpanStats<'_>,
    rows: &[(&str, &[&'static str], &[&str])],
) {
    println!("  ns-obs histogram sums (telemetry arm) beside traced spans, ms per epoch:");
    for (layer, histograms, span_names) in rows {
        let obs: f64 = histograms
            .iter()
            .map(|h| registry.histogram(h).sum() as f64 / 1e6)
            .sum::<f64>()
            / telemetry_epochs.max(1) as f64;
        let traced: f64 = span_names.iter().map(|s| spans.per_epoch_ms(s)).sum();
        println!(
            "    {layer:<10} ns-obs {:>12.3} [{}]   spans {:>12.3} [{}]",
            obs,
            histograms.join("+"),
            traced,
            span_names.join("+")
        );
    }
}

fn coord_trace(
    spec: &Spec,
    args: &Args,
    dir: &Path,
    work: &Path,
    calls: &mut Calls,
) -> Result<Metrics, String> {
    let world = coord::build_world(spec, args.seed)?;
    let copy_gbps = stats::copy_gbps();
    println!("  {}", stats::copy_probe_note());
    let mut tracer = Tracer::new();
    let registry = ns_obs::MetricsRegistry::new();
    let mut c = traced::Counters::default();
    let mut bare = Vec::new();
    let mut traced_runs = Vec::new();
    let mut telemetry = Vec::new();
    // Arms alternate so drift over the run hits all three alike.
    for_seconds(
        args.seconds,
        0,
        |_| 0,
        |i| {
            let epoch_dir = dir.join(format!("epoch-{i}"));
            bare.push(coord::run_epoch(
                spec,
                &world,
                &epoch_dir.join("bare"),
                calls,
                None,
            )?);
            let from = tracer.mark();
            let traced_dir = epoch_dir.join("traced");
            let epoch = traced::run_epoch(spec, &world, &traced_dir, calls, &mut tracer, &mut c)?;
            traced_runs.push(((from, tracer.mark()), epoch));
            let obs_dir = epoch_dir.join("obs");
            telemetry.push(coord::run_epoch(
                spec,
                &world,
                &obs_dir,
                calls,
                Some(&registry),
            )?);
            Ok(())
        },
    )?;
    let mut all: Vec<&coord::Epoch> = bare.iter().collect();
    all.extend(traced_runs.iter().map(|(_, e)| e));
    all.extend(telemetry.iter());
    // Traced and telemetry epochs must end where the bare ones ended.
    coord_checks(spec, &world, &all, calls);

    let arms = Arms::new(
        &tracer,
        traced_runs.iter().map(|(marks, _)| *marks).collect(),
        bare.iter().map(|e| e.epoch_s).collect(),
        telemetry.iter().map(|e| e.epoch_s).collect(),
    );
    let spans = &arms.spans;
    let walker_rounds = (c.walkers * c.steps) as f64;
    let telemetry_rounds: usize = telemetry.iter().map(|e| e.rounds).sum();
    let reports: usize = traced_runs.iter().map(|(_, e)| e.reports).sum();
    let recover_ms = spans.mean_ms("recovery.recover");
    let scan_ms = spans.mean_ms("recovery.scan");
    let load_ms = spans.mean_ms("recovery.snapshot_load");
    let snapshot_bytes: Vec<f64> = c.snapshot_bytes.iter().map(|&b| b as f64).collect();
    let mut values = arms.common(
        walker_rounds,
        (c.moves, c.cross_shard_moves),
        c.walkers as f64 * telemetry_rounds as f64,
        &registry,
        copy_gbps,
    );
    values.extend([
        ("acct.advance_ms", spans.median_ms("acct.advance")),
        ("acct.rows", c.tracked_rows as f64),
        (
            "acct.row_nnz_per_s",
            c.tracked_rows as f64 * world.n() as f64 * c.steps as f64
                / (spans.total_ms("acct.advance") / 1e3),
        ),
        ("outage.sample_ms", spans.per_epoch_ms("outage.sample")),
        (
            "outage.model_build_ms",
            spans.per_epoch_ms("outage.model_build"),
        ),
        (
            "admit.seal_us_per_report",
            spans.total_ms("admit.seal") * 1e3 / reports as f64,
        ),
        ("admit.batches", c.admit_batches as f64 / spans.epochs),
        ("finalize.submit_ms", spans.per_epoch_ms("finalize.submit")),
        (
            "finalize.collect_ms",
            spans.per_epoch_ms("finalize.collect"),
        ),
        ("wal.append_us", spans.mean_ms("wal.append") * 1e3),
        ("wal.fsync_ms", spans.mean_ms("wal.fsync")),
        ("wal.fsyncs", spans.count_per_epoch("wal.fsync")),
        (
            "wal.bytes_per_round",
            c.wal_round_bytes as f64 / c.steps as f64,
        ),
        ("snapshot.encode_ms", spans.mean_ms("snapshot.encode")),
        ("snapshot.write_ms", spans.mean_ms("snapshot.write")),
        ("snapshot.bytes", stats::mean(&snapshot_bytes)),
        ("recovery.scan_ms", scan_ms),
        ("recovery.snapshot_load_ms", load_ms),
        (
            "recovery.replay_rounds",
            c.replay_rounds as f64 / spans.epochs,
        ),
        (
            "recovery.replay_ms",
            (recover_ms - scan_ms - load_ms).max(0.0),
        ),
        ("ledger.charge_ms", spans.per_epoch_ms("ledger.charge")),
        ("ledger.save_ms", spans.per_epoch_ms("ledger.save")),
        ("partition.build_s", world.partition_s),
        (
            "partition.cut_fraction",
            world.partition.edge_cut_fraction(),
        ),
    ]);
    arms.print(&args.workload, args.seed);
    print_obs_beside_spans(
        &registry,
        telemetry.len(),
        spans,
        &[
            (
                "kernel",
                &["ns_round_decide_ns", "ns_round_merge_ns"],
                &["kernel.step"],
            ),
            ("acct", &["ns_acct_advance_ns"], &["acct.advance"]),
            ("wal", &["ns_wal_append_ns"], &["wal.append"]),
            ("fsync", &["ns_wal_fsync_ns"], &["wal.fsync"]),
            (
                "snapshot",
                &["ns_snapshot_write_ns"],
                &["snapshot.capture", "snapshot.encode", "snapshot.write"],
            ),
            ("recovery", &["ns_replay_ns"], &["recovery.recover"]),
        ],
    );
    finish_trace(&tracer, work, args, per_layer(&values))
}

/// Every per-layer metric in print order, with its unit.  A layer a
/// workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.step_ms", "ms"),
    ("kernel.moves_per_s", "1/s"),
    ("kernel.cross_shard_share", "ratio"),
    ("kernel.mask_bounce_share", "ratio"),
    ("kernel.bytes_per_move", "B"),
    ("kernel.gbps", "GB/s"),
    ("mem.copy_gbps", "GB/s"),
    ("recorder.on_round_ms", "ms"),
    ("acct.advance_ms", "ms"),
    ("acct.rows", "count"),
    ("acct.row_nnz_per_s", "1/s"),
    ("acct.quote_ms", "ms"),
    ("outage.sample_ms", "ms"),
    ("outage.model_build_ms", "ms"),
    ("admit.seal_us_per_report", "us"),
    ("admit.batches", "count"),
    ("finalize.submit_ms", "ms"),
    ("finalize.collect_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.fsync_ms", "ms"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_round", "B"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("recovery.scan_ms", "ms"),
    ("recovery.snapshot_load_ms", "ms"),
    ("recovery.replay_rounds", "count"),
    ("recovery.replay_ms", "ms"),
    ("ledger.charge_ms", "ms"),
    ("ledger.save_ms", "ms"),
    ("delta.speculate_ms", "ms"),
    ("delta.commit_ms", "ms"),
    ("delta.affected_share", "ratio"),
    ("delta.dense_fallbacks", "count"),
    ("dynamic.operator_build_ms", "ms"),
    ("dynamic.edit_ms", "ms"),
    ("partition.build_s", "s"),
    ("partition.refine_ms", "ms"),
    ("migrate.ms", "ms"),
    ("migrate.movers", "count"),
    ("partition.cut_fraction", "ratio"),
    ("obs.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
];

/// Orders a workload's per-layer `values` as [`PER_LAYER`], with 0 for the
/// layers it does not exercise.
fn per_layer(values: &[(&'static str, f64)]) -> Metrics {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, value, unit)
        })
        .collect()
}

/// The three arms of a traced run, summarised: the traced epochs' spans
/// and the bare and telemetry arms' epoch times.
struct Arms<'a> {
    spans: SpanStats<'a>,
    bare_epoch_s: f64,
    obs_epoch_s: f64,
    shares: Vec<f64>,
    counts: (usize, usize, usize),
}

impl<'a> Arms<'a> {
    /// `marks` delimit each traced epoch's spans.
    fn new(
        tracer: &'a Tracer,
        marks: Vec<(usize, usize)>,
        bare: Vec<f64>,
        telemetry: Vec<f64>,
    ) -> Self {
        let bare_epoch_s = stats::median(&bare);
        Arms {
            spans: SpanStats {
                spans: tracer.between(marks[0].0, marks[marks.len() - 1].1),
                epochs: marks.len() as f64,
            },
            bare_epoch_s,
            obs_epoch_s: stats::median(&telemetry),
            shares: marks
                .iter()
                .map(|&m| unattributed(tracer, m, bare_epoch_s))
                .collect(),
            counts: (bare.len(), marks.len(), telemetry.len()),
        }
    }

    /// The per-layer values every workload shares: kernel, recorder,
    /// quote, roofline and telemetry.  `walker_rounds` is walkers × traced
    /// steps, `moves` the (moved, cross-shard) walkers the traced probes
    /// counted, `bounce_base` the telemetry arm's walker-rounds.
    fn common(
        &self,
        walker_rounds: f64,
        (moved, cross_shard): (u64, u64),
        bounce_base: f64,
        registry: &ns_obs::MetricsRegistry,
        copy_gbps: f64,
    ) -> Vec<(&'static str, f64)> {
        let spans = &self.spans;
        let moves_per_s = walker_rounds / (spans.total_ms("kernel.step") / 1e3);
        let bounces = registry
            .counter(ns_graph::telemetry::names::MASK_BOUNCES)
            .get();
        vec![
            ("kernel.step_ms", spans.median_ms("kernel.step")),
            ("kernel.moves_per_s", moves_per_s),
            (
                "kernel.cross_shard_share",
                cross_shard as f64 / moved.max(1) as f64,
            ),
            ("kernel.mask_bounce_share", bounces as f64 / bounce_base),
            ("kernel.bytes_per_move", BYTES_PER_MOVE),
            ("kernel.gbps", BYTES_PER_MOVE * moves_per_s / 1e9),
            ("mem.copy_gbps", copy_gbps),
            ("recorder.on_round_ms", spans.median_ms("recorder.on_round")),
            ("acct.quote_ms", spans.median_ms("acct.quote")),
            (
                "obs.overhead_pct",
                (self.obs_epoch_s / self.bare_epoch_s - 1.0) * 100.0,
            ),
            ("trace.unattributed_share", stats::median(&self.shares)),
        ]
    }

    fn print(&self, workload: &str, seed: u64) {
        let (bare, traced, telemetry) = self.counts;
        println!(
            "perfbench {workload} seed {seed} (traced): {bare} bare, {traced} traced, \
             {telemetry} telemetry epochs; bare epoch_s {:.4}, telemetry epoch_s {:.4}",
            self.bare_epoch_s, self.obs_epoch_s
        );
    }
}

/// Writes the traced run's spans to `.perfbench/trace-<workload>-<seed>.jsonl`
/// and prints the per-layer metrics.
fn finish_trace(
    tracer: &Tracer,
    work: &Path,
    args: &Args,
    metrics: Metrics,
) -> Result<Metrics, String> {
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
    println!("  spans written to {}", path.display());
    for (name, value, unit) in &metrics {
        show(name, *value, unit, "");
    }
    Ok(metrics)
}

// ---------------------------------------------------------------------------
// topology_churn
// ---------------------------------------------------------------------------

fn churn_setup(
    args: &Args,
    calls: &mut Calls,
    times: &mut Vec<f64>,
) -> Result<churn::World, String> {
    set_up(times, |_| {
        let world = churn::build_world(args.seed)?;
        drop(calls.call("churn runtime set-up", churn::fresh(&world))?);
        Ok(world)
    })
}

/// The churn run's checks: all epochs end identically, and the final
/// tracked moments equal the dense-advance twin's bit for bit.
fn churn_checks(world: &churn::World, epochs: &[&churn::Epoch], calls: &mut Calls) {
    let first = epochs[0];
    for epoch in &epochs[1..] {
        calls.check(
            "every churn epoch ends bitwise identically",
            epoch.end == first.end && epoch.moments == first.moments,
        );
    }
    match churn::run_epoch(world, churn::Mode::DenseTwin, calls) {
        Ok(twin) => calls.check(
            "final tracked moments equal the dense-advance twin's bit for bit",
            twin.moments == first.moments && twin.end.epsilon_bits == first.end.epsilon_bits,
        ),
        Err(e) => calls.check(&format!("dense-advance twin ran ({e})"), false),
    }
}

fn churn_run(args: &Args, calls: &mut Calls) -> Result<Metrics, String> {
    let mut setup_times = Vec::new();
    let world = churn_setup(args, calls, &mut setup_times)?;
    let epochs = for_seconds(
        args.seconds,
        MIN_ROUND_SAMPLES,
        |e: &churn::Epoch| e.round_ms.len(),
        |_| churn::run_epoch(&world, churn::Mode::Bare, calls),
    )?;
    // Peak memory of set-up and epochs, before the second set-up batch and
    // the checks' twins run.
    let peak_rss_mb = rss();
    drop(churn_setup(args, calls, &mut setup_times)?);
    let refs: Vec<&churn::Epoch> = epochs.iter().collect();
    churn_checks(&world, &refs, calls);

    let rounds: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.round_ms.iter().copied())
        .collect();
    let quotes: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.quote_ms.iter().copied())
        .collect();
    let epoch_s: Vec<f64> = epochs.iter().map(|e| e.epoch_s).collect();
    let moves: Vec<f64> = epochs
        .iter()
        .map(|e| (e.walkers * churn::ROUNDS) as f64 / e.epoch_s)
        .collect();
    let metrics: Metrics = vec![
        ("setup_s", stats::median(&setup_times), "s"),
        ("epoch_s", stats::median(&epoch_s), "s"),
        ("report_moves_per_s", stats::median(&moves), "1/s"),
        ("round_ms_p50", stats::median(&rounds), "ms"),
        ("round_ms_p90", stats::quantile(&rounds, 0.9), "ms"),
        ("quote_ms_p50", stats::median(&quotes), "ms"),
        ("epsilon_final", epochs[0].epsilon, "eps"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    println!(
        "perfbench topology_churn seed {}: n = {}, {} epochs of {} rounds",
        args.seed,
        world.graph.node_count(),
        epochs.len(),
        churn::ROUNDS
    );
    print_end_to_end(
        &metrics,
        setup_times.len(),
        rounds.len(),
        quotes.len(),
        epochs.len(),
    );
    show_error_rate(calls);
    Ok(metrics)
}

fn churn_trace(args: &Args, work: &Path, calls: &mut Calls) -> Result<Metrics, String> {
    let world = churn::build_world(args.seed)?;
    let copy_gbps = stats::copy_gbps();
    println!("  {}", stats::copy_probe_note());
    let mut tracer = Tracer::new();
    let registry = ns_obs::MetricsRegistry::new();
    let mut bare = Vec::new();
    let mut traced_runs = Vec::new();
    let mut telemetry = Vec::new();
    for_seconds(
        args.seconds,
        0,
        |_| 0,
        |_| {
            bare.push(churn::run_epoch(&world, churn::Mode::Bare, calls)?);
            let from = tracer.mark();
            let epoch = churn::run_epoch(&world, churn::Mode::Traced(&mut tracer), calls)?;
            traced_runs.push(((from, tracer.mark()), epoch));
            let mode = churn::Mode::Telemetry(&registry);
            telemetry.push(churn::run_epoch(&world, mode, calls)?);
            Ok(())
        },
    )?;
    let mut all: Vec<&churn::Epoch> = bare.iter().collect();
    all.extend(traced_runs.iter().map(|(_, e)| e));
    all.extend(telemetry.iter());
    churn_checks(&world, &all, calls);

    let arms = Arms::new(
        &tracer,
        traced_runs.iter().map(|(marks, _)| *marks).collect(),
        bare.iter().map(|e| e.epoch_s).collect(),
        telemetry.iter().map(|e| e.epoch_s).collect(),
    );
    let spans = &arms.spans;
    let mut c = churn::Counters::default();
    for (_, epoch) in &traced_runs {
        c.add(&epoch.counters);
    }
    let n = world.graph.node_count() as f64;
    let steps = churn::ROUNDS as f64 * spans.epochs;
    // The delta path's per-round accountant advance is speculate + commit.
    let advance_ms: Vec<f64> = spans
        .self_ms("delta.speculate")
        .iter()
        .zip(spans.self_ms("delta.commit"))
        .map(|(s, c)| s + c)
        .collect();
    let rows = (churn::SHARDS * churn::TRACKED_PER_SHARD) as f64;
    // A refinement computes the assignment and, when nodes move,
    // materialises the partition.
    let refine_ms = (spans.total_ms("partition.refine") + spans.total_ms("partition.assign"))
        / spans.self_ms("partition.refine").len().max(1) as f64;
    let mut values = arms.common(
        n * steps,
        (c.moves, c.cross_shard_moves),
        n * (churn::ROUNDS * telemetry.len()) as f64,
        &registry,
        copy_gbps,
    );
    values.extend([
        ("acct.advance_ms", stats::median(&advance_ms)),
        ("acct.rows", rows),
        (
            "acct.row_nnz_per_s",
            rows * n * steps / (advance_ms.iter().sum::<f64>() / 1e3),
        ),
        ("delta.speculate_ms", spans.median_ms("delta.speculate")),
        ("delta.commit_ms", spans.median_ms("delta.commit")),
        (
            "delta.affected_share",
            c.affected_columns as f64 / (n * steps),
        ),
        (
            "delta.dense_fallbacks",
            c.dense_fallbacks as f64 / spans.epochs,
        ),
        (
            "dynamic.operator_build_ms",
            spans.median_ms("dynamic.operator_build"),
        ),
        ("dynamic.edit_ms", spans.total_ms("dynamic.edit") / steps),
        ("partition.build_s", world.partition_s),
        ("partition.refine_ms", refine_ms),
        ("migrate.ms", spans.mean_ms("migrate.engine")),
        (
            "migrate.movers",
            c.movers as f64 / c.migrations.max(1) as f64,
        ),
        ("partition.cut_fraction", c.cut_fraction),
    ]);
    arms.print(&args.workload, args.seed);
    print_obs_beside_spans(
        &registry,
        telemetry.len(),
        spans,
        &[
            (
                "kernel",
                &["ns_round_decide_ns", "ns_round_merge_ns"],
                &["kernel.step"],
            ),
            ("speculate", &["ns_acct_speculate_ns"], &["delta.speculate"]),
            ("commit", &["ns_acct_commit_ns"], &["delta.commit"]),
        ],
    );
    finish_trace(&tracer, work, args, per_layer(&values))
}
