//! Table 4 — dataset statistics (`n`, `Γ_G`) of the stand-in graphs.
//!
//! Generates every dataset stand-in (largest connected component) and prints
//! the achieved node count and irregularity next to the paper's targets,
//! plus the spectral gap and mixing time the later figures rely on.
//!
//! ```text
//! cargo run --release -p ns-bench --bin table4
//! ```

use ns_bench::{dataset_graph, exit_with_error, fmt, print_table, scale_divisor, write_csv};
use ns_datasets::Dataset;
use ns_graph::mixing::MixingProfile;
use ns_graph::spectral::SpectralOptions;

fn main() {
    let headers = vec![
        "dataset",
        "category",
        "scale",
        "n (paper)",
        "n (ours)",
        "Gamma (paper)",
        "Gamma (ours)",
        "spectral gap",
        "mixing time",
    ];
    let mut rows = Vec::new();

    for dataset in Dataset::ALL {
        let divisor = scale_divisor(dataset).unwrap_or_else(|e| exit_with_error(&e));
        let generated = dataset_graph(dataset);
        let profile = MixingProfile::compute(&generated.graph, SpectralOptions::default())
            .expect("ergodic stand-in");
        rows.push(vec![
            generated.spec.name.to_string(),
            generated.spec.category.to_string(),
            format!("1/{divisor}"),
            generated.spec.node_count.to_string(),
            generated.achieved.node_count.to_string(),
            fmt(generated.spec.irregularity),
            fmt(generated.achieved.irregularity),
            fmt(profile.spectral_gap),
            profile.mixing_time.to_string(),
        ]);
    }

    print_table(
        "Table 4: dataset stand-ins (largest connected component)",
        &headers,
        &rows,
    );
    write_csv("table4", &headers, &rows);
    println!(
        "\nnote: stand-ins are Chung-Lu graphs calibrated to the paper's (n, Gamma_G); the Google\n\
         graph is scaled 1/10 by default (set NS_BENCH_SCALE=full for the full 855,802 nodes)."
    );
}
