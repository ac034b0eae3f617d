//! Fig. 13: DRAM energy of Metadata-Cache / Attaché / Ideal, normalized to
//! the no-compression baseline.
//!
//! Paper: Attaché saves 22% (ideal 23%); the Metadata-Cache saves only 10%
//! and *costs* 40% extra on RAND.

use attache_bench::{geo_mean, ExperimentConfig, ResultSet};
use attache_sim::MetadataStrategyKind;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let set = ResultSet::ensure(&cfg);

    println!("Fig. 13 — energy relative to the no-compression baseline (lower is better)");
    println!(
        "{:<12} {:>14} {:>10} {:>8}",
        "workload", "MetadataCache", "Attache", "Ideal"
    );
    let mut per_strategy: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for w in ResultSet::workload_names() {
        let base = set
            .get(&w, MetadataStrategyKind::Baseline)
            .expect("baseline row");
        let mut cells = Vec::new();
        for (i, s) in [
            MetadataStrategyKind::MetadataCache,
            MetadataStrategyKind::Attache,
            MetadataStrategyKind::Oracle,
        ]
        .into_iter()
        .enumerate()
        {
            let r = set.get(&w, s).expect("strategy row");
            let ratio = r.energy_ratio_vs(base);
            per_strategy[i].push(ratio);
            cells.push(ratio);
        }
        println!(
            "{:<12} {:>13.1}% {:>9.1}% {:>7.1}%",
            w,
            100.0 * cells[0],
            100.0 * cells[1],
            100.0 * cells[2]
        );
    }
    println!();
    let gm: Vec<f64> = per_strategy.iter().map(|v| geo_mean(v)).collect();
    println!(
        "geo-mean     {:>13.1}% {:>9.1}% {:>7.1}%",
        100.0 * gm[0],
        100.0 * gm[1],
        100.0 * gm[2]
    );
    println!();
    println!("paper (average): MetadataCache 90% | Attache 78% | Ideal 77%");
    println!(
        "measured       : MetadataCache {:.0}% | Attache {:.0}% | Ideal {:.0}%",
        100.0 * gm[0],
        100.0 * gm[1],
        100.0 * gm[2]
    );
}
