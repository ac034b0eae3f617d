//! Memory-model selection.
//!
//! The cycle-level [`MemorySystem`] is the simulator's only timing model;
//! its contract (determinism, event-horizon soundness, completion
//! exactness, accounting and the derate hook) is the rustdoc on
//! [`MemorySystem`]. [`BackendKind`] and [`new_backend`] remain as a
//! one-variant selector and constructor for callers that name them.

use crate::config::DramConfig;
use crate::power::PowerParams;
use crate::MemorySystem;

/// Which timing model backs the memory system. The cycle-level DDR4
/// model is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The cycle-level DDR4 model ([`MemorySystem`]).
    #[default]
    Cycle,
}

/// Constructs the memory system selected by `kind`.
pub fn new_backend(kind: BackendKind, cfg: DramConfig, power: PowerParams) -> MemorySystem {
    match kind {
        BackendKind::Cycle => MemorySystem::new(cfg, power),
    }
}
