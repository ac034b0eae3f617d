//! Fig. 17: contribution of COPR's components — PaPR alone, PaPR+GI, and
//! the full predictor with LiPR.
//!
//! Paper: PaPR alone buys 11.5% speedup, adding GI reaches 15.3%, and
//! LiPR matters mainly for the mixed workloads.

use attache_bench::{
    geo_mean, CoprVariant, ExperimentConfig, Grid, JobSpec, ResultSet, WorkloadRef,
};
use attache_sim::MetadataStrategyKind;
use attache_workloads::mixes;

const VARIANTS: [(&str, CoprVariant); 3] = [
    ("PaPR", CoprVariant::PaprOnly),
    ("PaPR+GI", CoprVariant::PaprGi),
    ("PaPR+GI+LiPR", CoprVariant::Full),
];

fn main() {
    let cfg = ExperimentConfig::from_env();
    let set = ResultSet::ensure(&cfg);

    // A representative subset (full-suite ablation would triple the sweep):
    // two streaming, one pointer-chasing, one graph, plus both mixes.
    let mut names: Vec<String> = ["lbm", "STREAM", "mcf", "bc.kron"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    names.extend(mixes().iter().map(|m| m.name.to_string()));

    // One Attaché job per (workload, COPR variant); the grid sizes each
    // job's GI regions to its own occupied footprint (the paper splits the
    // occupied memory, not a fixed budget, into eight regions).
    let mut grid = Grid::new();
    for name in &names {
        for (_, variant) in VARIANTS {
            let mut job = JobSpec::new(WorkloadRef::by_name(name), MetadataStrategyKind::Attache);
            job.overrides.copr = Some(variant);
            grid.push(job);
        }
    }
    let reports = grid.run(&cfg);

    println!("Fig. 17 — speedup by COPR component (subset incl. both mixes)");
    println!(
        "{:<10} {:>10} {:>10} {:>14}",
        "workload", "PaPR", "PaPR+GI", "PaPR+GI+LiPR"
    );

    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); VARIANTS.len()];
    for (w, name) in names.iter().enumerate() {
        let base = set
            .get(name, MetadataStrategyKind::Baseline)
            .expect("baseline row");
        let mut cells = Vec::new();
        for v in 0..VARIANTS.len() {
            let report = &reports[w * VARIANTS.len() + v];
            let s = base.bus_cycles as f64 / report.bus_cycles as f64;
            columns[v].push(s);
            cells.push(s);
        }
        println!(
            "{:<10} {:>9.3}x {:>9.3}x {:>13.3}x",
            name, cells[0], cells[1], cells[2]
        );
    }
    println!();
    let gm: Vec<f64> = columns.iter().map(|c| geo_mean(c)).collect();
    println!(
        "geo-mean   {:>9.3}x {:>9.3}x {:>13.3}x",
        gm[0], gm[1], gm[2]
    );
    println!();
    println!("paper   : PaPR 1.115x | PaPR+GI 1.153x | LiPR helps mainly the mixes");
    println!(
        "measured: PaPR {:.3}x | PaPR+GI {:.3}x | full {:.3}x",
        gm[0], gm[1], gm[2]
    );
}
