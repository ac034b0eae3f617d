//! Design-space exploration: use the library to answer "what if?"
//! questions the paper leaves open — here, how sensitive Attaché is to the
//! COPR SRAM budget (shrinking PaPR/LiPR well below the paper's 368KB).
//!
//! Run with:
//! ```text
//! cargo run --release --example design_space
//! ```

use attache::core::copr::CoprConfig;
use attache::sim::{MetadataStrategyKind, SimConfig, System};
use attache::workloads::Profile;

fn main() {
    let profile = Profile::by_name("mcf").expect("catalog profile");
    let base_cfg = SimConfig::table2_baseline().with_instructions(120_000, 25_000);
    let baseline = System::run_rate_mode(&base_cfg, profile.clone(), 3);

    let total_lines = profile.footprint_lines * 8;
    println!("COPR budget sensitivity on {} (8 cores)", profile.name);
    println!("{:>12} {:>10} {:>10}", "PaPR/LiPR", "accuracy", "speedup");
    for (label, papr_sets, lipr_sets) in [
        ("1/16 size", 512usize, 128usize),
        ("1/4 size", 2048, 512),
        ("paper", 8192, 2048),
        ("4x size", 32768, 8192),
    ] {
        let mut cfg = base_cfg
            .clone()
            .with_strategy(MetadataStrategyKind::Attache);
        cfg.copr = Some(CoprConfig {
            papr_sets,
            lipr_sets,
            ..CoprConfig::paper_default(total_lines)
        });
        let r = System::run_rate_mode(&cfg, profile.clone(), 3);
        println!(
            "{:>12} {:>9.1}% {:>9.3}x",
            label,
            100.0 * r.copr.expect("attache run").accuracy(),
            r.speedup_vs(&baseline)
        );
    }
    println!();
    println!(
        "The predictor degrades gracefully: page-level reuse keeps accuracy\n\
         useful even at a fraction of the paper's 368KB budget."
    );
}
