//! Fig. 14: (a) memory bandwidth usage and (b) average memory latency for
//! Attaché, relative to the baseline.
//!
//! Paper: Attaché enables 16% higher bandwidth and 14% lower average
//! memory latency.
//!
//! Note on (a): with compression the same work moves *fewer bytes*, so the
//! figure's "bandwidth improvement" is about throughput per unit time —
//! here reported as demand requests served per microsecond.

use attache_bench::{geo_mean, ExperimentConfig, ResultSet};
use attache_sim::{MetadataStrategyKind, BUS_CYCLE_NS};

fn main() {
    let cfg = ExperimentConfig::from_env();
    let set = ResultSet::ensure(&cfg);

    println!("Fig. 14 — Attaché memory bandwidth and latency vs baseline");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "req/us", "base req/us", "latency", "base latency"
    );
    let mut bw_gain = Vec::new();
    let mut lat_ratio = Vec::new();
    for w in ResultSet::workload_names() {
        let base = set
            .get(&w, MetadataStrategyKind::Baseline)
            .expect("baseline");
        let att = set.get(&w, MetadataStrategyKind::Attache).expect("attache");
        let thr = |r: &attache_bench::ResultRow| {
            (r.demand_reads + r.data_writes) as f64 / (r.bus_cycles as f64 * BUS_CYCLE_NS / 1000.0)
        };
        let (t_a, t_b) = (thr(att), thr(base));
        bw_gain.push(t_a / t_b);
        lat_ratio.push(att.avg_read_latency_ns() / base.avg_read_latency_ns());
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>10.1}ns {:>10.1}ns",
            w,
            t_a,
            t_b,
            att.avg_read_latency_ns(),
            base.avg_read_latency_ns()
        );
    }
    println!();
    let bw = geo_mean(&bw_gain);
    let lat = geo_mean(&lat_ratio);
    println!("paper   : +16% effective bandwidth, -14% average memory latency");
    println!(
        "measured: {:+.1}% effective bandwidth, {:+.1}% average memory latency",
        100.0 * (bw - 1.0),
        100.0 * (lat - 1.0)
    );
}
