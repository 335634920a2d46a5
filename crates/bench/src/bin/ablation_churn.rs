//! Churn ablation — what the static dropout reduction gets wrong.
//!
//! On the Twitch stand-in, the worst user's **exact** central ε (`A_single`)
//! is swept over rounds for three realized outage processes with the *same*
//! 20% average unavailability:
//!
//! * i.i.d. dropout (the paper's model — laziness-equivalent by design),
//! * bursty Markov on-off churn (outages persist across rounds),
//! * an adversarial region blackout (40% of the network dark for the first
//!   half of the budget).
//!
//! Each realized schedule is attached to the exact accountant
//! ([`NetworkShuffleAccountant::with_schedule`]), so every origin's
//! distribution evolves through the actual product of per-round masked
//! operators.  Reference columns: the exact static walk (no churn) and the
//! lazy-walk *stationary bound* at laziness 0.2 — the scalar summary a
//! static analysis would quote for all three processes.
//!
//! ```text
//! cargo run --release -p ns-bench --bin ablation_churn
//! ```

use network_shuffle::prelude::*;
use ns_bench::{exit_with_error, fmt, print_table, scale_divisor, write_csv, DELTA, SEED};
use ns_datasets::Dataset;

fn main() {
    let epsilon_0 = 2.0;
    // Exact all-origin accounting is O(n · t · m): run the ablation on a
    // quarter-scale Twitch stand-in (~2.4k users) so the full sweep stays
    // interactive on one core.
    let divisor = scale_divisor(Dataset::Twitch)
        .unwrap_or_else(|e| exit_with_error(&e))
        .max(4);
    let generated = Dataset::Twitch
        .generate_scaled(divisor, SEED)
        .expect("twitch stand-in");
    let graph = &generated.graph;
    let n = graph.node_count();

    let accountant = NetworkShuffleAccountant::new(graph).expect("ergodic graph");
    let t_mix = accountant.mixing_time();
    let rounds = (2 * t_mix).max(10);
    let params =
        AccountantParams::new(n, epsilon_0, DELTA, DELTA).expect("valid accountant params");
    println!(
        "Twitch stand-in: n = {n}, m = {} edges, mixing time = {t_mix}, sweeping t = 1..={rounds}",
        graph.edge_count()
    );

    let mean_down = 0.2;
    let scenarios: Vec<(&str, OutageModel)> = vec![
        (
            "iid",
            OutageModel::Iid {
                dropout_probability: mean_down,
            },
        ),
        (
            "markov",
            // Stationary unavailability fail/(fail+recover) = 0.2, with
            // mean outage length 1/recover = 8 rounds: same average as the
            // i.i.d. column, very different correlation structure.
            OutageModel::MarkovOnOff {
                fail: 0.03125,
                recover: 0.125,
            },
        ),
        (
            "blackout",
            // 40% of the network dark for the first half of the budget:
            // region_fraction x window_fraction = 0.2, the same mean
            // unavailability as the other two columns.
            OutageModel::RegionBlackout {
                region: (0..2 * n / 5).collect(),
                from_round: 0,
                until_round: rounds / 2,
            },
        ),
    ];

    // Reference sweeps: exact static, and the lazy stationary bound the
    // static reduction would quote for every scenario.
    let exact_static = accountant
        .epsilon_vs_rounds(ProtocolKind::Single, Scenario::Exact, &params, rounds)
        .expect("static exact sweep");
    let lazy_bound = NetworkShuffleAccountant::with_laziness(graph, mean_down)
        .expect("lazy accountant")
        .epsilon_vs_rounds(ProtocolKind::Single, Scenario::Stationary, &params, rounds)
        .expect("lazy bound sweep");

    let mut columns: Vec<(String, Vec<(usize, f64)>)> = vec![
        ("exact static".to_string(), exact_static),
        (format!("lazy bound q={mean_down}"), lazy_bound),
    ];
    for (name, model) in &scenarios {
        let schedule = model
            .sample_schedule(n, rounds, SEED)
            .expect("outage schedule");
        let realized_down: f64 = (0..rounds)
            .map(|t| 1.0 - schedule.available_fraction(t))
            .sum::<f64>()
            / rounds as f64;
        println!(
            "{name}: mean unavailability target {:.3}, realized {realized_down:.3}",
            model.mean_unavailability(n, rounds)
        );
        let scheduled = accountant
            .clone()
            .with_schedule(
                schedule
                    .time_varying_model(graph, 0.0)
                    .expect("schedule lifts onto the graph"),
            )
            .expect("schedule attaches");
        let sweep = scheduled
            .epsilon_vs_rounds(ProtocolKind::Single, Scenario::Exact, &params, rounds)
            .expect("scheduled exact sweep");
        columns.push((format!("exact {name}"), sweep));
    }

    let headers: Vec<String> = std::iter::once("rounds t".to_string())
        .chain(columns.iter().map(|(name, _)| name.clone()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let checkpoints: Vec<usize> = {
        let mut t = 1usize;
        let mut out = Vec::new();
        while t <= rounds {
            out.push(t);
            t = ((t as f64) * 1.5).ceil() as usize;
        }
        out.push(rounds);
        out.dedup();
        out
    };
    let rows: Vec<Vec<String>> = checkpoints
        .iter()
        .map(|&t| {
            std::iter::once(t.to_string())
                .chain(columns.iter().map(|(_, sweep)| fmt(sweep[t - 1].1)))
                .collect()
        })
        .collect();

    print_table(
        "Churn ablation: worst-user exact epsilon (A_single) vs rounds, 20% mean unavailability",
        &header_refs,
        &rows,
    );
    write_csv("ablation_churn", &header_refs, &rows);

    // How far off is the scalar reduction at the static stopping time?
    let at = t_mix.min(rounds);
    let bound_eps = columns[1].1[at - 1].1;
    println!(
        "\nat the static stopping time t = {at} (lazy-bound quote: eps = {}):",
        fmt(bound_eps)
    );
    for (name, sweep) in columns.iter().skip(2) {
        let eps = sweep[at - 1].1;
        let ratio = eps / bound_eps;
        println!(
            "  {name}: exact worst-user eps = {} — the static quote {}-states the realized loss {:.1}x",
            fmt(eps),
            if eps > bound_eps { "under" } else { "over" },
            if ratio >= 1.0 { ratio } else { 1.0 / ratio }
        );
    }
    println!(
        "\nshape check: the i.i.d. column tracks the static exact curve (the paper's reduction is\n\
         exact there), the bursty Markov column lags it, and the blackout column stays worst —\n\
         correlated churn mixes slower than its average unavailability suggests."
    );
}
