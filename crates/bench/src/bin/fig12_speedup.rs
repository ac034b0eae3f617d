//! Fig. 12: performance of Metadata-Cache / Attaché / Ideal, normalized to
//! the no-compression baseline.
//!
//! Paper: Attaché 15.3% average speedup (ideal 17%), Metadata-Cache only
//! 8%, with a 17% *slowdown* on RAND.

use attache_bench::{geo_mean, ExperimentConfig, ResultSet};
use attache_sim::MetadataStrategyKind;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let set = ResultSet::ensure(&cfg);

    println!("Fig. 12 — speedup over the no-compression baseline");
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
            let speedup = r.speedup_vs(base);
            per_strategy[i].push(speedup);
            cells.push(speedup);
        }
        println!(
            "{:<12} {:>13.3}x {:>9.3}x {:>7.3}x",
            w, cells[0], cells[1], cells[2]
        );
    }
    println!();
    let gm: Vec<f64> = per_strategy.iter().map(|v| geo_mean(v)).collect();
    println!(
        "geo-mean     {:>13.3}x {:>9.3}x {:>7.3}x",
        gm[0], gm[1], gm[2]
    );
    println!();
    println!("paper (average): MetadataCache 1.08x | Attache 1.153x | Ideal 1.17x");
    println!(
        "measured       : MetadataCache {:.3}x | Attache {:.3}x | Ideal {:.3}x",
        gm[0], gm[1], gm[2]
    );
}
