//! Fig. 4: the percentage of cachelines compressible to ≤30 bytes, per
//! workload — measured by running the real BDI/FPC engines over the
//! synthesized memory images.
//!
//! Paper: 50% of cachelines compress to 30B on average.

use attache_bench::{parallel_map, ExperimentConfig};
use attache_compress::CompressionEngine;
use attache_workloads::{all_rate_profiles, DataSynthesizer};

fn main() {
    let cfg = ExperimentConfig::from_env();
    let samples = 40_000u64;

    println!("Fig. 4 — cachelines compressible to 30 bytes");
    println!("{:<12} {:>10} {:>10}", "workload", "target", "measured");
    let profiles = all_rate_profiles();
    // Each workload's measurement is independent; fan out across cores.
    let measured = parallel_map(cfg.workers(), &profiles, |_, p| {
        let engine = CompressionEngine::new();
        let synth = DataSynthesizer::new(42);
        (0..samples)
            .filter(|&i| {
                // Sample lines spread through the footprint.
                let line = (i * 2_654_435_761) % p.footprint_lines;
                engine.fits_subrank(&synth.block_for(&p.data, line))
            })
            .count() as f64
            / samples as f64
    });
    let mut acc = 0.0;
    for (p, compressible) in profiles.iter().zip(&measured) {
        acc += compressible;
        println!(
            "{:<12} {:>9.1}% {:>9.1}%",
            p.name,
            100.0 * p.data.expected_compressible(),
            100.0 * compressible
        );
    }
    println!();
    println!("paper   : 50% average");
    println!(
        "measured: {:.1}% average",
        100.0 * acc / profiles.len() as f64
    );
}
