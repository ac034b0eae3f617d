//! The experiment harness for the Attaché reproduction.
//!
//! Every table and figure in the paper's evaluation has a binary under
//! `src/bin/` that regenerates it (see DESIGN.md §4 for the index). Each
//! binary declares its experiments as a [`grid::Grid`] — a (workload ×
//! strategy × override) matrix — and [`grid::Grid::run`] executes the
//! jobs on a worker pool with per-job [`RunReport`](attache_sim::RunReport)
//! memoization under `results/cache/`. Grid points shared between figures
//! (the 22-workload × 5-strategy sweep feeds Figs. 1, 12-15 and 18) are
//! simulated once, ever, per configuration.
//!
//! Knobs (environment variables; see EXPERIMENTS.md for details):
//!
//! * `ATTACHE_INSTR` — measured instructions per core (default 600000).
//! * `ATTACHE_WARMUP` — warm-up instructions per core (default 100000).
//! * `ATTACHE_SEED` — the base seed (default 42); per-job seeds derive
//!   from it.
//! * `ATTACHE_WORKERS` — worker threads (default: all cores). Results
//!   are bit-identical for any worker count.
//! * `ATTACHE_RESULTS` — results directory (default `results`).
//! * `ATTACHE_NO_CACHE` — bypass the report cache (`--no-cache` works
//!   too).
//! * `ATTACHE_QUICK` — a fast smoke configuration (40k/8k).
//!
//! The two switches are on when set, non-empty and not `0`.

#![warn(missing_docs)]

pub mod grid;
pub mod results;
pub mod runner;

pub use grid::{parallel_map, CoprVariant, Grid, JobSpec, Overrides, WorkloadRef};
pub use results::{ResultRow, ResultSet};
pub use runner::{geo_mean, ExperimentConfig};
