//! The full result sweep: 20 rate-mode workloads + 2 mixes, each under
//! all five metadata strategies.
//!
//! The sweep powers Figs. 1, 11, 12, 13, 14 and 15. It executes through
//! the [`Grid`] engine, so its grid points land in the per-job report
//! cache (`results/cache/`) and every figure binary reuses the same runs.
//! A TSV summary is still written under `results/` as a human-readable
//! artifact, but it is write-only: the per-job cache is the source of
//! truth, so a stale TSV can never feed wrong numbers into a figure.

use attache_sim::{MetadataStrategyKind, RunReport, BUS_CYCLE_NS};
use attache_workloads::{all_rate_profiles, mixes};
use std::io::Write;
use std::path::PathBuf;

use crate::grid::{Grid, WorkloadRef};
use crate::runner::ExperimentConfig;

/// The strategies in sweep (and figure) order. Tracks
/// [`MetadataStrategyKind::ALL`]: the strategy is part of each job's
/// cache key, so appending a strategy leaves every existing
/// `results/cache/` entry valid.
pub const STRATEGIES: [MetadataStrategyKind; MetadataStrategyKind::ALL.len()] =
    MetadataStrategyKind::ALL;

/// One (workload, strategy) result distilled from a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Workload name.
    pub workload: String,
    /// Strategy name (Display form of [`MetadataStrategyKind`]).
    pub strategy: String,
    /// Measured bus cycles.
    pub bus_cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Demand reads.
    pub demand_reads: u64,
    /// Corrective reads.
    pub corrective_reads: u64,
    /// Metadata install reads.
    pub metadata_reads: u64,
    /// Replacement-Area reads.
    pub ra_reads: u64,
    /// Data writebacks.
    pub data_writes: u64,
    /// Metadata eviction writes.
    pub metadata_writes: u64,
    /// Replacement-Area writes.
    pub ra_writes: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Average demand-read latency in bus cycles.
    pub avg_read_latency: f64,
    /// Total DRAM energy in pJ.
    pub energy_pj: f64,
    /// COPR accuracy (NaN when not applicable).
    pub copr_accuracy: f64,
    /// Metadata-Cache hit rate (NaN when not applicable).
    pub metadata_cache_hit_rate: f64,
    /// Fraction of demand reads that found a compressed line.
    pub compressed_read_fraction: f64,
}

impl ResultRow {
    /// Distills a run report.
    pub fn from_report(r: &RunReport) -> Self {
        Self {
            workload: r.name.clone(),
            strategy: r.strategy.to_string(),
            bus_cycles: r.bus_cycles,
            instructions: r.instructions,
            demand_reads: r.mem.demand_reads,
            corrective_reads: r.mem.corrective_reads,
            metadata_reads: r.mem.metadata_reads,
            ra_reads: r.mem.replacement_area_reads,
            data_writes: r.mem.data_writes,
            metadata_writes: r.mem.metadata_writes,
            ra_writes: r.mem.replacement_area_writes,
            bytes: r.mem.bytes,
            avg_read_latency: r.mem.avg_read_latency(),
            energy_pj: r.energy.total_pj(),
            copr_accuracy: r.copr.map(|c| c.accuracy()).unwrap_or(f64::NAN),
            metadata_cache_hit_rate: r
                .metadata_cache
                .as_ref()
                .map(|(s, _)| s.hit_rate())
                .unwrap_or(f64::NAN),
            compressed_read_fraction: r.compressed_read_fraction(),
        }
    }

    /// Speedup of this row over its baseline row (cycle ratio).
    pub fn speedup_vs(&self, baseline: &ResultRow) -> f64 {
        baseline.bus_cycles as f64 / self.bus_cycles as f64
    }

    /// Energy relative to the baseline row.
    pub fn energy_ratio_vs(&self, baseline: &ResultRow) -> f64 {
        self.energy_pj / baseline.energy_pj
    }

    /// Extra metadata-related requests as a fraction of demand requests.
    pub fn metadata_traffic_overhead(&self) -> f64 {
        let demand = self.demand_reads + self.corrective_reads + self.data_writes;
        let meta = self.metadata_reads + self.metadata_writes + self.ra_reads + self.ra_writes;
        if demand == 0 {
            0.0
        } else {
            meta as f64 / demand as f64
        }
    }

    /// Total requests (reads + writes, all origins).
    pub fn total_requests(&self) -> u64 {
        self.demand_reads
            + self.corrective_reads
            + self.metadata_reads
            + self.ra_reads
            + self.data_writes
            + self.metadata_writes
            + self.ra_writes
    }

    /// Consumed bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bytes as f64 / (self.bus_cycles as f64 * BUS_CYCLE_NS)
    }

    /// Average demand-read latency in ns.
    pub fn avg_read_latency_ns(&self) -> f64 {
        self.avg_read_latency * BUS_CYCLE_NS
    }

    #[cfg(test)]
    const FIELDS: usize = 17;

    fn to_tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.workload,
            self.strategy,
            self.bus_cycles,
            self.instructions,
            self.demand_reads,
            self.corrective_reads,
            self.metadata_reads,
            self.ra_reads,
            self.data_writes,
            self.metadata_writes,
            self.ra_writes,
            self.bytes,
            self.avg_read_latency,
            self.energy_pj,
            self.copr_accuracy,
            self.metadata_cache_hit_rate,
            self.compressed_read_fraction,
        )
    }

    /// Parses one TSV row (the inverse of `to_tsv`; exercised by tests to
    /// keep the artifact format stable for external consumers).
    #[cfg(test)]
    fn from_tsv(line: &str) -> Option<Self> {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != Self::FIELDS {
            return None;
        }
        Some(Self {
            workload: f[0].to_string(),
            strategy: f[1].to_string(),
            bus_cycles: f[2].parse().ok()?,
            instructions: f[3].parse().ok()?,
            demand_reads: f[4].parse().ok()?,
            corrective_reads: f[5].parse().ok()?,
            metadata_reads: f[6].parse().ok()?,
            ra_reads: f[7].parse().ok()?,
            data_writes: f[8].parse().ok()?,
            metadata_writes: f[9].parse().ok()?,
            ra_writes: f[10].parse().ok()?,
            bytes: f[11].parse().ok()?,
            avg_read_latency: f[12].parse().ok()?,
            energy_pj: f[13].parse().ok()?,
            copr_accuracy: f[14].parse().ok()?,
            metadata_cache_hit_rate: f[15].parse().ok()?,
            compressed_read_fraction: f[16].parse().ok()?,
        })
    }
}

/// The full sweep, with lookup helpers.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    rows: Vec<ResultRow>,
}

impl ResultSet {
    /// All workload names in sweep order (20 rate profiles + 2 mixes).
    pub fn workload_names() -> Vec<String> {
        let mut names: Vec<String> = all_rate_profiles()
            .iter()
            .map(|p| p.name.to_string())
            .collect();
        names.extend(mixes().iter().map(|m| m.name.to_string()));
        names
    }

    fn tsv_path(cfg: &ExperimentConfig) -> PathBuf {
        cfg.results_dir().join(format!("sweep_{}.tsv", cfg.tag()))
    }

    /// Runs the sweep through the grid engine — pulling every grid point
    /// already simulated from the per-job report cache — and refreshes the
    /// TSV summary artifact.
    pub fn ensure(cfg: &ExperimentConfig) -> ResultSet {
        let set = Self::run_sweep(cfg);
        set.save(&Self::tsv_path(cfg));
        set
    }

    fn save(&self, path: &PathBuf) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut out = String::from(
            "workload\tstrategy\tbus_cycles\tinstructions\tdemand_reads\tcorrective_reads\t\
             metadata_reads\tra_reads\tdata_writes\tmetadata_writes\tra_writes\tbytes\t\
             avg_read_latency\tenergy_pj\tcopr_accuracy\tmetadata_cache_hit_rate\t\
             compressed_read_fraction\n",
        );
        for r in &self.rows {
            out.push_str(&r.to_tsv());
            out.push('\n');
        }
        match std::fs::File::create(path).and_then(|mut f| f.write_all(out.as_bytes())) {
            Ok(()) => eprintln!("[attache-bench] wrote sweep summary to {}", path.display()),
            Err(e) => eprintln!("[attache-bench] could not write sweep summary: {e}"),
        }
    }

    /// The sweep's (workload × strategy) grid: 22 workloads × 5 strategies,
    /// workloads-major per strategy.
    pub fn grid() -> Grid {
        let mut workloads: Vec<WorkloadRef> = all_rate_profiles()
            .iter()
            .map(|p| WorkloadRef::Rate(p.name.to_string()))
            .collect();
        workloads.extend(mixes().iter().map(|m| WorkloadRef::Mix(m.name.to_string())));
        Grid::cross(&workloads, &STRATEGIES)
    }

    /// Runs the full sweep (22 workloads × 5 strategies) on the grid
    /// engine: parallel across `cfg.workers()` threads, memoized per job.
    pub fn run_sweep(cfg: &ExperimentConfig) -> ResultSet {
        let reports = Self::grid().run(cfg);
        ResultSet {
            rows: reports.iter().map(ResultRow::from_report).collect(),
        }
    }

    /// All rows.
    pub fn rows(&self) -> &[ResultRow] {
        &self.rows
    }

    /// The row for `(workload, strategy)`.
    pub fn get(&self, workload: &str, strategy: MetadataStrategyKind) -> Option<&ResultRow> {
        let s = strategy.to_string();
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.strategy == s)
    }

    /// `(row, baseline_row)` pairs for one strategy across all workloads.
    pub fn with_baseline(&self, strategy: MetadataStrategyKind) -> Vec<(&ResultRow, &ResultRow)> {
        Self::workload_names()
            .iter()
            .filter_map(|w| {
                let r = self.get(w, strategy)?;
                let b = self.get(w, MetadataStrategyKind::Baseline)?;
                Some((r, b))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> ResultRow {
        ResultRow {
            workload: "mcf".into(),
            strategy: "Attache".into(),
            bus_cycles: 1000,
            instructions: 80_000,
            demand_reads: 500,
            corrective_reads: 10,
            metadata_reads: 0,
            ra_reads: 1,
            data_writes: 100,
            metadata_writes: 0,
            ra_writes: 2,
            bytes: 64_000,
            avg_read_latency: 123.5,
            energy_pj: 9.5e6,
            copr_accuracy: 0.87,
            metadata_cache_hit_rate: f64::NAN,
            compressed_read_fraction: 0.6,
        }
    }

    #[test]
    fn tsv_roundtrip() {
        let row = sample_row();
        let back = ResultRow::from_tsv(&row.to_tsv()).expect("parses");
        assert_eq!(back.workload, row.workload);
        assert_eq!(back.bus_cycles, row.bus_cycles);
        assert!((back.copr_accuracy - row.copr_accuracy).abs() < 1e-12);
        assert!(back.metadata_cache_hit_rate.is_nan());
    }

    #[test]
    fn overhead_fraction() {
        let mut row = sample_row();
        row.metadata_reads = 122; // (122 + 1 + 2) / (500 + 10 + 100)
        let ovh = row.metadata_traffic_overhead();
        assert!((ovh - 125.0 / 610.0).abs() < 1e-12);
    }

    #[test]
    fn workload_catalog_is_complete() {
        let names = ResultSet::workload_names();
        assert_eq!(names.len(), 22);
        assert!(names.contains(&"mix1".to_string()));
        assert!(names.contains(&"RAND".to_string()));
    }

    #[test]
    fn malformed_tsv_is_rejected() {
        assert!(ResultRow::from_tsv("too\tfew\tfields").is_none());
    }
}
