//! The full-system simulator for the Attaché reproduction.
//!
//! Ties together the substrates: trace-driven OoO [cores](core_model), the
//! shared [LLC](attache_cache::Llc), a [metadata strategy](strategy)
//! (Baseline / Metadata-Cache / Attaché / Oracle / Cram) and the cycle-level
//! [DRAM model](attache_dram). One [`System::run_rate_mode`] call
//! reproduces one bar of one figure.
//!
//! # Example
//!
//! ```
//! use attache_sim::{MetadataStrategyKind, SimConfig, System};
//! use attache_workloads::Profile;
//!
//! let cfg = SimConfig::table2_baseline()
//!     .with_strategy(MetadataStrategyKind::Attache)
//!     .with_instructions(20_000, 2_000);
//! let report = System::run_rate_mode(&cfg, Profile::stream(), 42);
//! assert!(report.ipc() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod core_model;
pub mod env;
pub mod faults;
pub mod inline;
pub mod integrity;
pub mod mirror;
pub mod observe;
pub mod report_io;
pub mod stats;
pub mod strategy;
pub mod system;

pub use attache_dram::BackendKind;
pub use config::{
    backend_from_env, backend_from_env_value, CoreConfig, EngineKind, MetadataStrategyKind,
    SimConfig,
};
pub use env::{env_u64, env_u64_opt, unknown_knobs, KNOWN_KNOBS};
pub use faults::{FaultClass, FaultCounters, FaultPlan, FaultStats, TickBudgetExceeded};
pub use inline::InlineVec;
pub use integrity::{EccVerdict, IntegrityEngine, IntegrityStats};
pub use mirror::{MirrorGlobalStats, MirrorMismatch, MirrorOracle, MirrorStats};
pub use observe::Observation;
pub use stats::{RunReport, BUS_CYCLE_NS};
pub use strategy::{ReadPlan, ReqSpec, Strategy, StrategyStats, WritePlan};
pub use system::System;
