//! Guards that every strategy-generic test battery enumerates
//! [`MetadataStrategyKind::ALL`] rather than a hand-maintained list.
//!
//! The compile-time side lives next to the enum (`config.rs` has a
//! `const` exhaustive-match assertion that `ALL` names every variant);
//! this suite closes the other half of the loop: a new variant added to
//! `ALL` automatically flows into every suite below, and a suite that
//! regresses to a hard-coded subset fails here before it silently stops
//! covering a strategy.

use attache_sim::MetadataStrategyKind;
use std::path::Path;

/// The strategy-generic suites, relative to this crate's manifest dir.
/// Each must iterate `MetadataStrategyKind::ALL` (directly or through a
/// `STRATEGIES` constant bound to it).
const GENERIC_SUITES: [&str; 6] = [
    "tests/mirror_oracle.rs",
    "tests/golden_stats.rs",
    "tests/differential.rs",
    "tests/observability.rs",
    "../../tests/determinism.rs",
    "../../examples/graph_analytics.rs",
];

#[test]
fn every_generic_suite_enumerates_all_strategies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for suite in GENERIC_SUITES {
        let path = root.join(suite);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            src.contains("MetadataStrategyKind::ALL"),
            "{suite} does not iterate MetadataStrategyKind::ALL — \
             strategy-generic suites must not hand-maintain the list"
        );
    }
}

#[test]
fn bench_grid_enumerates_all_strategies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("../bench/src/results.rs"))
        .expect("read bench results.rs");
    assert!(
        src.contains("MetadataStrategyKind::ALL"),
        "the bench sweep grid must cover every strategy"
    );
}

#[test]
fn goldens_cover_every_strategy() {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    for kind in MetadataStrategyKind::ALL {
        let path = goldens.join(format!("{kind}.json"));
        assert!(
            path.is_file(),
            "missing golden for {kind}: bless with \
             ATTACHE_BLESS=1 cargo test -p attache-sim --test golden_stats"
        );
    }
}
