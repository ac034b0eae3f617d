//! Fig. 11: COPR prediction accuracy per workload.
//!
//! Paper: 88% average accuracy — 8 points above the 1MB Metadata-Cache's
//! hit rate, using 368KB instead of 1MB of SRAM.

use attache_bench::{ExperimentConfig, ResultSet};
use attache_sim::MetadataStrategyKind;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let set = ResultSet::ensure(&cfg);

    println!("Fig. 11 — COPR prediction accuracy");
    println!(
        "{:<12} {:>10} {:>14}",
        "workload", "accuracy", "mc hit-rate"
    );
    let mut acc = Vec::new();
    let mut hit = Vec::new();
    for w in ResultSet::workload_names() {
        let att = set
            .get(&w, MetadataStrategyKind::Attache)
            .expect("attache row");
        let mc = set
            .get(&w, MetadataStrategyKind::MetadataCache)
            .expect("mc row");
        acc.push(att.copr_accuracy);
        hit.push(mc.metadata_cache_hit_rate);
        println!(
            "{:<12} {:>9.1}% {:>13.1}%",
            w,
            100.0 * att.copr_accuracy,
            100.0 * mc.metadata_cache_hit_rate
        );
    }
    println!();
    let avg_acc = acc.iter().sum::<f64>() / acc.len() as f64;
    let avg_hit = hit.iter().sum::<f64>() / hit.len() as f64;
    println!("paper   : COPR 88% accuracy vs Metadata-Cache 77% hit rate");
    println!(
        "measured: COPR {:.0}% accuracy vs Metadata-Cache {:.0}% hit rate",
        100.0 * avg_acc,
        100.0 * avg_hit
    );
}
