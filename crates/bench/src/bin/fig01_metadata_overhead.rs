//! Fig. 1: the motivation — extra memory traffic caused by metadata
//! accesses under a (large, 1MB) Metadata-Cache, alongside the fraction of
//! compressed blocks.
//!
//! Paper: metadata can add up to 85% extra traffic even with the cache.

use attache_bench::{ExperimentConfig, ResultSet};
use attache_sim::MetadataStrategyKind;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let set = ResultSet::ensure(&cfg);

    println!("Fig. 1 — compressed blocks and metadata traffic overhead (1MB Metadata-Cache)");
    println!(
        "{:<12} {:>18} {:>18}",
        "workload", "compressed blocks", "metadata overhead"
    );
    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    let names = ResultSet::workload_names();
    for w in &names {
        let mc = set
            .get(w, MetadataStrategyKind::MetadataCache)
            .expect("row");
        let ovh = mc.metadata_traffic_overhead();
        worst = worst.max(ovh);
        sum += ovh;
        println!(
            "{:<12} {:>17.1}% {:>17.1}%",
            w,
            100.0 * mc.compressed_read_fraction,
            100.0 * ovh
        );
    }
    println!();
    println!("paper   : metadata adds up to 85% extra traffic");
    println!(
        "measured: worst-case {:.1}% extra traffic, average {:.1}%",
        100.0 * worst,
        100.0 * sum / names.len() as f64
    );
}
