//! The grid engine's two load-bearing guarantees, end to end:
//!
//! * parallel execution is bit-identical to serial execution, and
//! * the on-disk report cache round-trips reports exactly and never serves
//!   an entry for a different configuration.
//!
//! Run lengths are tiny (a few thousand instructions) — these tests
//! exercise the engine, not the paper's numbers.

use attache_bench::{Grid, JobSpec, Overrides, WorkloadRef};
use attache_sim::{report_io, MetadataStrategyKind, RunReport};

/// A small but non-trivial grid: two workloads (one of each kind) under
/// two strategies, plus one overridden job.
fn small_grid() -> Grid {
    let workloads = [
        WorkloadRef::Rate("mcf".to_string()),
        WorkloadRef::Mix("mix1".to_string()),
    ];
    let strategies = [
        MetadataStrategyKind::Baseline,
        MetadataStrategyKind::Attache,
    ];
    let mut grid = Grid::cross(&workloads, &strategies);
    grid.push(JobSpec {
        workload: WorkloadRef::Rate("lbm".to_string()),
        strategy: MetadataStrategyKind::Attache,
        overrides: Overrides {
            cid_bits: Some(10),
            ..Overrides::default()
        },
    });
    grid
}

/// Runs the grid at the given worker count in a throwaway results
/// directory, with the report cache disabled so every job recomputes.
fn run_uncached(workers: usize) -> Vec<RunReport> {
    // The env knobs below are process-global, so serialize the tests that
    // touch them.
    let _guard = env_lock().lock().unwrap();
    let dir = temp_dir(&format!("uncached-w{workers}"));
    std::env::set_var("ATTACHE_QUICK", "1");
    std::env::set_var("ATTACHE_INSTR", "4000");
    std::env::set_var("ATTACHE_WARMUP", "800");
    std::env::set_var("ATTACHE_WORKERS", workers.to_string());
    std::env::set_var("ATTACHE_NO_CACHE", "1");
    std::env::set_var("ATTACHE_RESULTS", &dir);
    let cfg = attache_bench::ExperimentConfig::from_env();
    let reports = small_grid().run(&cfg);
    cleanup_env();
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

fn env_lock() -> &'static std::sync::Mutex<()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    &LOCK
}

fn cleanup_env() {
    for k in [
        "ATTACHE_QUICK",
        "ATTACHE_INSTR",
        "ATTACHE_WARMUP",
        "ATTACHE_WORKERS",
        "ATTACHE_NO_CACHE",
        "ATTACHE_RESULTS",
    ] {
        std::env::remove_var(k);
    }
}

fn temp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("attache-grid-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

#[test]
fn parallel_grid_matches_serial_bit_for_bit() {
    let serial = run_uncached(1);
    let parallel = run_uncached(2);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // RunReport derives PartialEq over every counter and f64, so this
        // is a full bit-level comparison of the simulation outcome.
        assert_eq!(s, p, "parallel run diverged for {}/{}", s.name, s.strategy);
    }
}

#[test]
fn cache_round_trips_and_misses_on_config_change() {
    let _guard = env_lock().lock().unwrap();
    let dir = temp_dir("cache");
    std::env::set_var("ATTACHE_QUICK", "1");
    std::env::set_var("ATTACHE_INSTR", "3000");
    std::env::set_var("ATTACHE_WARMUP", "600");
    std::env::set_var("ATTACHE_WORKERS", "2");
    std::env::remove_var("ATTACHE_NO_CACHE");
    std::env::set_var("ATTACHE_RESULTS", &dir);
    let cfg = attache_bench::ExperimentConfig::from_env();

    let grid = small_grid();
    let first = grid.run(&cfg);

    // Every job must now have a cache file...
    let cache_dir = cfg.cache_dir();
    let mut entries: Vec<_> = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists after a cached run")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "report"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), grid.jobs().len(), "one cache file per job");

    // ...and a second run must reproduce the first from cache, exactly.
    let second = grid.run(&cfg);
    assert_eq!(first, second, "cache round-trip changed a report");

    // A garbage entry reads as a miss: the job re-runs to the same report
    // and overwrites the file with the entry it would have written.
    let victim = &entries[0];
    let good = std::fs::read(victim).unwrap();
    std::fs::write(victim, b"}} definitely not a report {{").unwrap();
    let healed = grid.run(&cfg);
    assert_eq!(
        first, healed,
        "a corrupt cache entry must re-run to the same report"
    );
    assert_eq!(
        std::fs::read(victim).unwrap(),
        good,
        "the re-run must overwrite the corrupt entry"
    );

    // A direct file-level round-trip is also exact.
    let job = &grid.jobs()[0];
    let key = job.cache_key(&cfg);
    let report = &first[0];
    let text = report_io::to_text(report, &key);
    let back = report_io::from_text(&text, Some(&key)).expect("parses");
    assert_eq!(*report, back);

    // A changed configuration must not hit stale entries: same cache dir,
    // different run length, so every job recomputes under new keys.
    std::env::set_var("ATTACHE_INSTR", "4000");
    let longer = attache_bench::ExperimentConfig::from_env();
    assert_ne!(
        grid.jobs()[0].cache_key(&cfg),
        grid.jobs()[0].cache_key(&longer),
        "run length must be part of the cache key"
    );
    let third = grid.run(&longer);
    assert_ne!(
        first[0].bus_cycles, third[0].bus_cycles,
        "longer run served from stale cache entry"
    );

    // And a key mismatch at the file level reads as a miss, not as data.
    assert!(report_io::from_text(&text, Some("some-other-key")).is_none());

    cleanup_env();
    let _ = std::fs::remove_dir_all(&dir);
}
