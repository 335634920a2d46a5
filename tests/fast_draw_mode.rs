//! Contracts of the `fast` draw mode and of the sharded exchange schedules.
//!
//! Fast mode replaces compat's rejection-sampled two-draw rule (one `f64`
//! laziness coin, one `gen_range` neighbour index) with exactly one `u64`
//! per walker, split into a 32-bit threshold coin and a 32-bit Lemire
//! neighbour draw.  The streams necessarily differ, so the contract is not
//! bitwise parity with compat but:
//!
//! * **same distribution** — Monte-Carlo return-rate and empty-fraction
//!   statistics on the shared graph zoo must agree between modes within
//!   sampling error;
//! * **same composition laws** — the 1-shard engine is draw-for-draw an
//!   independent reference holder loop *in fast mode too*, and threaded
//!   sampling is bitwise the sequential `step_in_order` schedule in both
//!   modes, masked or not;
//! * **seed determinism** — same seed, same trajectories; different seed,
//!   different trajectories.
//!
//! Bitwise stream pinning for fast mode itself lives in
//! `tests/golden_round_traces.rs` (`round_traces_fast.txt`).

mod common;

use common::strategies;
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::{shard_stream, ShardedMixingEngine};
use ns_graph::Graph;
use proptest::prelude::*;
use rand::Rng;

/// The fast holder-order round written out directly: nodes in id order,
/// each bucket in insertion order, one `u64` per walker — the low 32 bits
/// against the lazy threshold, the high 32 bits reduced onto the
/// neighbour row by multiply-shift — then survivors first and arrivals in
/// send order.
fn reference_fast_round(
    graph: &Graph,
    buckets: &mut Vec<Vec<u32>>,
    laziness: f64,
    rng: &mut impl Rng,
) {
    let threshold = (laziness * 4_294_967_296.0) as u64;
    let mut next: Vec<Vec<u32>> = vec![Vec::new(); buckets.len()];
    let mut moved = Vec::new();
    for (u, bucket) in buckets.iter().enumerate() {
        let row = graph.neighbors(u);
        for &w in bucket {
            let r: u64 = rng.gen();
            if (r as u32 as u64) < threshold {
                next[u].push(w);
            } else {
                moved.push((row[(((r >> 32) * row.len() as u64) >> 32) as usize], w));
            }
        }
    }
    for (dest, w) in moved {
        next[dest as usize].push(w);
    }
    *buckets = next;
}

/// Mean return-rate (walkers back at their origin) and empty-fraction
/// (nodes holding no walker) over `trials` independent runs of `rounds`
/// holder-order rounds in the given draw mode.
fn monte_carlo_stats(
    graph: &Graph,
    mode: DrawMode,
    laziness: f64,
    rounds: usize,
    trials: u64,
) -> (f64, f64) {
    let n = graph.node_count();
    let (mut returned, mut empty) = (0usize, 0usize);
    let partition = Partition::single_shard(graph).unwrap();
    for trial in 0..trials {
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(graph, &partition, 0x5EED_0000 + trial)
                .unwrap();
        engine.set_draw_mode(mode);
        for _ in 0..rounds {
            engine.step(laziness, &mut ());
        }
        returned += engine
            .positions()
            .iter()
            .enumerate()
            .filter(|&(w, &p)| w == p as usize)
            .count();
        empty += graph
            .nodes()
            .filter(|&u| engine.held_by(u).is_empty())
            .count();
    }
    let scale = (trials as f64) * n as f64;
    (returned as f64 / scale, empty as f64 / scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fast and compat draws realize the same walk distribution: on any zoo
    /// graph, the Monte-Carlo return-rate and empty-fraction agree within
    /// sampling error (40 trials of 6 rounds; the tolerance is ~5 standard
    /// errors of the trial means at these sizes).
    #[test]
    fn fast_mode_matches_compat_statistics_on_the_zoo(
        graph in strategies::graph_zoo(60..140),
        laziness_pct in 0usize..50,
    ) {
        prop_assume!(graph.node_count() >= 40);
        let laziness = laziness_pct as f64 / 100.0;
        let (ret_compat, empty_compat) =
            monte_carlo_stats(&graph, DrawMode::Compat, laziness, 6, 40);
        let (ret_fast, empty_fast) =
            monte_carlo_stats(&graph, DrawMode::Fast, laziness, 6, 40);
        prop_assert!(
            (ret_compat - ret_fast).abs() < 0.05,
            "return-rate diverged: compat={ret_compat} fast={ret_fast}"
        );
        prop_assert!(
            (empty_compat - empty_fast).abs() < 0.05,
            "empty-fraction diverged: compat={empty_compat} fast={empty_fast}"
        );
    }

    /// The 1-shard degeneracy holds in fast mode: the engine under a
    /// single-shard partition is draw-for-draw the reference fast holder
    /// loop drawing from `shard_stream(seed, 0)`.
    #[test]
    fn fast_one_shard_is_bitwise_the_reference_fast_loop(
        graph in strategies::graph_zoo(30..120),
        laziness_pct in 0usize..50,
        rounds in 1usize..8,
        seed in 0u64..1000,
    ) {
        prop_assume!(graph.node_count() >= 10);
        let laziness = laziness_pct as f64 / 100.0;
        let partition = Partition::single_shard(&graph).unwrap();
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        engine.set_draw_mode(DrawMode::Fast);
        let mut buckets: Vec<Vec<u32>> = graph.nodes().map(|u| vec![u as u32]).collect();
        let mut rng = shard_stream(seed, 0);
        for _ in 0..rounds {
            engine.step(laziness, &mut ());
            reference_fast_round(&graph, &mut buckets, laziness, &mut rng);
        }
        let holders: Vec<Vec<usize>> = buckets
            .iter()
            .map(|b| b.iter().map(|&w| w as usize).collect())
            .collect();
        prop_assert_eq!(engine.walkers_by_holder(), holders);
        let a: u64 = engine.shard_rng_mut(0).gen();
        let b: u64 = rng.gen();
        prop_assert_eq!(a, b, "RNG streams diverged");
    }

    /// Threading is a *schedule*, not a semantic: for any shard count,
    /// draw mode and mask, `step` / `step_masked` (threaded sampling under
    /// the `parallel` feature) land bitwise where the sequential
    /// `step_in_order(0..k)` schedule lands — positions, bucket orders,
    /// round counters, loads and every shard's RNG stream position.
    #[test]
    fn threaded_rounds_are_bitwise_the_in_order_schedule(
        graph in strategies::graph_zoo(40..160),
        shards in 2usize..6,
        laziness_pct in 0usize..50,
        rounds in 1usize..7,
        mode_sel in 0usize..2,
        masked_sel in 0usize..2,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 20);
        let laziness = laziness_pct as f64 / 100.0;
        let mode = if mode_sel == 0 { DrawMode::Compat } else { DrawMode::Fast };
        let partition = Partition::new(&graph, shards).unwrap();
        let order: Vec<usize> = (0..shards).collect();
        let mask: Vec<bool> = (0..n).map(|u| !(u * 3 + 1).is_multiple_of(5)).collect();
        let available = (masked_sel == 1).then_some(mask.as_slice());

        let mut sequential =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, 77).unwrap();
        sequential.set_draw_mode(mode);
        let mut threaded =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, 77).unwrap();
        threaded.set_draw_mode(mode);
        for _ in 0..rounds {
            sequential.step_in_order(laziness, available, &order, &mut ());
            match available {
                Some(m) => threaded.step_masked(laziness, m, &mut ()),
                None => threaded.step(laziness, &mut ()),
            }
        }

        prop_assert_eq!(sequential.positions(), threaded.positions());
        prop_assert_eq!(sequential.walkers_by_holder(), threaded.walkers_by_holder());
        prop_assert_eq!(sequential.round(), threaded.round());
        prop_assert_eq!(sequential.load_vector(), threaded.load_vector());
        for s in 0..shards {
            let a: u64 = sequential.shard_rng_mut(s).gen();
            let b: u64 = threaded.shard_rng_mut(s).gen();
            prop_assert_eq!(a, b, "shard {} stream position diverged", s);
        }
    }

    /// Threaded sampling in fast mode is bitwise the sequential fast round
    /// in reversed shard order, for any shard count (thread-count and
    /// order invariance are inherited: workers only ever touch their own
    /// shard's stream and outbox row).
    #[test]
    fn fast_threaded_rounds_match_sequential(
        graph in strategies::graph_zoo(40..140),
        shards in 1usize..5,
        rounds in 1usize..6,
    ) {
        prop_assume!(graph.node_count() >= 20);
        let partition = if shards == 1 {
            Partition::single_shard(&graph).unwrap()
        } else {
            Partition::new(&graph, shards).unwrap()
        };
        let mut sequential =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, 9).unwrap();
        sequential.set_draw_mode(DrawMode::Fast);
        let mut threaded =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, 9).unwrap();
        threaded.set_draw_mode(DrawMode::Fast);
        let reversed: Vec<usize> = (0..partition.shard_count()).rev().collect();
        for _ in 0..rounds {
            sequential.step_in_order(0.2, None, &reversed, &mut ());
            threaded.step(0.2, &mut ());
        }
        prop_assert_eq!(sequential.positions(), threaded.positions());
        prop_assert_eq!(sequential.walkers_by_holder(), threaded.walkers_by_holder());
    }
}

/// Seed determinism of fast mode outside proptest (fixed sizes, cheap).
#[test]
fn fast_mode_is_deterministic_in_the_seed() {
    let graph = ns_graph::generators::random_regular(200, 6, &mut seeded_rng(5)).unwrap();
    let partition = Partition::single_shard(&graph).unwrap();
    let run = |seed: u64| {
        let mut engine =
            ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed).unwrap();
        engine.set_draw_mode(DrawMode::Fast);
        for _ in 0..12 {
            engine.step(0.1, &mut ());
        }
        engine.positions().to_vec()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}
