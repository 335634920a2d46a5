//! Pieces every workload shares: call/check accounting, seeded inputs, the
//! bitwise end state two runs of one epoch are compared on, and the output
//! checks on the curator's collection.

use network_shuffle::prelude::{CollectedReports, ProtocolKind};
use ns_dp::prelude::PrivacyGuarantee;
use ns_graph::sharded_engine::ShardedMixingEngine;
use std::fmt::Display;

/// Counts the operations a run attempted and the ones that failed: every
/// call into the system that can return `Err`, and every output check.
#[derive(Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Calls {
    /// Counts one call; an `Err` is recorded as a failure and returned as a
    /// message so the caller can abandon the epoch with `?`.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            let msg = format!("{what}: {e}");
            self.failed += 1;
            self.failures.push(msg.clone());
            msg
        })
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("check failed: {what}"));
        }
    }
}

/// SplitMix64 finaliser: the benchmark's input and digest hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed of every workload's fixed inputs: its topology, realized outage
/// schedule and churn stream, which belong to the workload like a
/// deployment's network and its recorded availability and membership
/// traces.  `--seed` varies an epoch's randomness (coordinator and engine
/// streams, payloads), so runs on different seeds do the same amount of
/// work.
pub const WORKLOAD_SEED: u64 = 0x6A;

/// A seed for one input stream of a run, derived from `--seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}

/// User `origin`'s locally randomised report for the run seeded `seed`.
pub fn payload(seed: u64, origin: usize) -> Vec<u8> {
    mix(derive(seed, 0xDA7A) ^ origin as u64)
        .to_le_bytes()
        .to_vec()
}

/// Where one epoch ended: walker positions, per-shard RNG clocks and the
/// final quote's bits.  Two executions of the same epoch must agree on all
/// of it bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndState {
    pub round: usize,
    pub positions: Vec<u32>,
    pub clocks: Vec<(u64, u32)>,
    pub epsilon_bits: u64,
    pub delta_bits: u64,
}

impl EndState {
    pub fn capture(engine: &ShardedMixingEngine<'_>, quote: &PrivacyGuarantee) -> Self {
        EndState {
            round: engine.round(),
            positions: engine.positions().to_vec(),
            clocks: (0..engine.shard_count())
                .map(|s| engine.rng_clock(s))
                .collect(),
            epsilon_bits: quote.epsilon.to_bits(),
            delta_bits: quote.delta.to_bits(),
        }
    }
}

/// Order-independent digest of the collected payload multiset (dummies
/// included, tagged), so two collections can be compared without sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub reports: u64,
    pub sum: u64,
}

fn digest_of(collected: &CollectedReports<Vec<u8>>) -> Digest {
    let mut digest = Digest::default();
    for (_, report) in collected.reports_with_submitter() {
        let mut h = report.is_dummy as u64;
        for chunk in report.payload.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix(h ^ u64::from_le_bytes(word));
        }
        digest.reports += 1;
        digest.sum = digest.sum.wrapping_add(mix(h));
    }
    digest
}

/// Report conservation on a finished epoch where every one of the `n`
/// users was admitted once with [`payload`].  `A_all`: every admitted
/// report is collected exactly once, unaltered, and nothing else is.
/// `A_single`: exactly one submission per user carrying one report, and no
/// genuine report collected twice or altered.  Returns the collection's
/// digest.
pub fn check_conservation(
    protocol: ProtocolKind,
    n: usize,
    seed: u64,
    collected: &CollectedReports<Vec<u8>>,
) -> Result<Digest, String> {
    let mut seen = vec![false; n];
    for (_, report) in collected.reports_with_submitter() {
        if report.is_dummy {
            if protocol == ProtocolKind::All {
                return Err("A_all collected a dummy report".into());
            }
            continue;
        }
        let origin = report.origin;
        if origin >= n || seen[origin] {
            return Err(format!(
                "report of user {origin} collected twice or out of range"
            ));
        }
        seen[origin] = true;
        if report.payload != payload(seed, origin) {
            return Err(format!("report of user {origin} was altered"));
        }
    }
    match protocol {
        ProtocolKind::All => {
            if let Some(missing) = seen.iter().position(|&s| !s) {
                return Err(format!("report of user {missing} was never collected"));
            }
        }
        ProtocolKind::Single => {
            let submissions = collected.submissions();
            if submissions.len() != n || submissions.iter().any(|s| s.len() != 1) {
                return Err("A_single needs exactly one single-report submission per user".into());
            }
        }
    }
    Ok(digest_of(collected))
}
