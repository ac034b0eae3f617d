//! Fig. 18: rival-strategy head-to-head — Metadata-Cache, Attaché, Ideal
//! and CRAM-style implicit markers, all normalized to the no-compression
//! baseline, across speedup, energy and metadata-traffic overhead.
//!
//! CRAM (the implicit-metadata rival) stores no metadata at all: the
//! compression state is inferred from an in-line marker word, with an
//! exception region absorbing the rare incompressible lines whose natural
//! content collides with the marker. Its cost structure is the inverse of
//! the Metadata-Cache's: zero metadata reads, but a corrective second
//! half-fetch on *every* uncompressed read (there is no predictor and no
//! cached metadata to consult first).

use attache_bench::{geo_mean, ExperimentConfig, ResultSet};
use attache_sim::MetadataStrategyKind;

/// The rivals, in figure order (everything but the normalization target).
const RIVALS: [MetadataStrategyKind; 4] = [
    MetadataStrategyKind::MetadataCache,
    MetadataStrategyKind::Attache,
    MetadataStrategyKind::Oracle,
    MetadataStrategyKind::Cram,
];

fn main() {
    let cfg = ExperimentConfig::from_env();
    let set = ResultSet::ensure(&cfg);

    println!("Fig. 18 — rival strategies head-to-head, normalized to Baseline");
    println!();
    println!("speedup over the no-compression baseline:");
    println!(
        "{:<12} {:>14} {:>10} {:>8} {:>8}",
        "workload", "MetadataCache", "Attache", "Ideal", "Cram"
    );
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); RIVALS.len()];
    let mut energies: Vec<Vec<f64>> = vec![Vec::new(); RIVALS.len()];
    let mut overheads: Vec<Vec<f64>> = vec![Vec::new(); RIVALS.len()];
    let mut correctives: Vec<Vec<f64>> = vec![Vec::new(); RIVALS.len()];
    for w in ResultSet::workload_names() {
        let base = set
            .get(&w, MetadataStrategyKind::Baseline)
            .expect("baseline row");
        let mut cells = Vec::new();
        for (i, s) in RIVALS.into_iter().enumerate() {
            let r = set.get(&w, s).expect("strategy row");
            speedups[i].push(r.speedup_vs(base));
            energies[i].push(r.energy_ratio_vs(base));
            overheads[i].push(r.metadata_traffic_overhead());
            correctives[i].push(r.corrective_reads as f64 / r.demand_reads.max(1) as f64);
            cells.push(r.speedup_vs(base));
        }
        println!(
            "{:<12} {:>13.3}x {:>9.3}x {:>7.3}x {:>7.3}x",
            w, cells[0], cells[1], cells[2], cells[3]
        );
    }
    let gm_speed: Vec<f64> = speedups.iter().map(|v| geo_mean(v)).collect();
    println!(
        "geo-mean     {:>13.3}x {:>9.3}x {:>7.3}x {:>7.3}x",
        gm_speed[0], gm_speed[1], gm_speed[2], gm_speed[3]
    );

    println!();
    println!("head-to-head summary (geo-mean over all 22 workloads):");
    println!(
        "{:<15} {:>9} {:>9} {:>14} {:>11}",
        "strategy", "speedup", "energy", "extra-traffic", "corrective"
    );
    for (i, s) in RIVALS.into_iter().enumerate() {
        let mean_ovh = overheads[i].iter().sum::<f64>() / overheads[i].len().max(1) as f64;
        let mean_corr = correctives[i].iter().sum::<f64>() / correctives[i].len().max(1) as f64;
        println!(
            "{:<15} {:>8.3}x {:>8.1}% {:>13.2}% {:>10.2}%",
            s.to_string(),
            gm_speed[i],
            100.0 * geo_mean(&energies[i]),
            100.0 * mean_ovh,
            100.0 * mean_corr
        );
    }
    println!();
    println!("extra-traffic = (metadata + replacement/exception region) / demand requests");
    println!("corrective    = second-half fetches / demand reads (CRAM pays one on every");
    println!("                uncompressed read; Attache only on COPR overpredictions)");
    println!(
        "paper context: Attache ~1.153x / Ideal ~1.17x / MetadataCache ~1.08x; \
         CRAM trades all metadata traffic for per-read corrective fetches"
    );
}
