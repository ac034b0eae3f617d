//! Fig. 15: normalized number of memory requests in the Metadata-Cache
//! system, split into data and metadata traffic.
//!
//! Paper: even a 1MB Metadata-Cache adds ~25% extra requests on average,
//! and the extra requests are predominantly *reads* (installs), because
//! block compressibility rarely changes and metadata lines stay clean.

use attache_bench::{ExperimentConfig, ResultSet};
use attache_sim::MetadataStrategyKind;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let set = ResultSet::ensure(&cfg);

    println!("Fig. 15 — normalized requests with a 1MB Metadata-Cache");
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>10}",
        "workload", "total", "meta-reads", "meta-writes", "read-share"
    );
    let mut totals = Vec::new();
    let mut read_share_acc = Vec::new();
    for w in ResultSet::workload_names() {
        let base = set
            .get(&w, MetadataStrategyKind::Baseline)
            .expect("baseline");
        let mc = set
            .get(&w, MetadataStrategyKind::MetadataCache)
            .expect("mc");
        let base_requests = (base.demand_reads + base.data_writes) as f64;
        let normalized = mc.total_requests() as f64 / base_requests;
        let meta_reads = mc.metadata_reads as f64 / base_requests;
        let meta_writes = mc.metadata_writes as f64 / base_requests;
        let read_share = if mc.metadata_reads + mc.metadata_writes > 0 {
            mc.metadata_reads as f64 / (mc.metadata_reads + mc.metadata_writes) as f64
        } else {
            f64::NAN
        };
        totals.push(normalized);
        if read_share.is_finite() {
            read_share_acc.push(read_share);
        }
        println!(
            "{:<12} {:>7.3}x {:>11.3}x {:>11.3}x {:>9.1}%",
            w,
            normalized,
            meta_reads,
            meta_writes,
            100.0 * read_share
        );
    }
    println!();
    let avg_total = totals.iter().sum::<f64>() / totals.len() as f64;
    let avg_share = read_share_acc.iter().sum::<f64>() / read_share_acc.len() as f64;
    println!("paper   : ~1.25x total requests; extra requests are mostly reads (installs)");
    println!(
        "measured: {:.2}x total requests; {:.0}% of metadata traffic is reads",
        avg_total,
        100.0 * avg_share
    );
}
