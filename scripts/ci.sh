#!/usr/bin/env bash
# The full CI gate: release build, the whole test suite, the per-engine
# correctness passes, the figure smoke, the lint stage (format check,
# clippy and rustdoc with warnings promoted to errors) and the
# repository benchmark's smoke. Nothing here writes to a tracked file: every smoke
# writes under a throwaway directory, so `git status` is clean after a
# green run.
#
# Which stage covers which contract:
#
#   contract             | stage(s)
#   ---------------------+--------------------------------------------------
#   engine identity      | engines (differential suite + every suite's own
#                        |   cross-engine asserts, once per ambient engine)
#   mirror oracle        | engines (ATTACHE_MIRROR=1 over attache-sim)
#   DRAM conformance     | engines (ATTACHE_CONFORMANCE=1 over sim + dram)
#   goldens              | engines (golden_stats per ambient engine);
#                        |   goldens with knobs off
#   faults               | engines (faults suite per ambient engine)
#   integrity            | engines (integrity suite + dram ecc/soft_error
#                        |   units); figure smoke (fig_integrity preamble)
#   memo purity          | goldens with knobs off (ATTACHE_COMPRESS_MEMO=0);
#                        |   workspace tests (compress kernel equivalence)
#   knob audit           | workspace tests; engines (env_knobs per engine)
#   core-model skips     | engines (sim differential suite in a debug build,
#                        |   where the stall-snapshot asserts are live)
#   formatting, rustdoc  | lint stage (cargo fmt --all --check; cargo doc
#                        |   -D warnings on attache-dram)
#   scheduler decision   | workspace tests (dram scheduler_golden: both tick
#     identity           |   paths against FNV literals); engines (the same
#                        |   suite in a debug build, where the event path's
#                        |   cached-bound and served-index asserts are live)
#   benchmark simulated  | repository benchmark (--smoke sim_fingerprint
#     results            |   lines against tests/goldens/benchmark_smoke.fingerprints)
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "=== workspace: release build + every test (ATTACHE_QUICK=1) ==="
cargo build --release --workspace
ATTACHE_QUICK=1 cargo test -q --workspace --release

# Every integration test must hold under whichever engine the
# environment selects. The first pass runs the sim and dram crates with
# the mirror-memory oracle (byte-checks every decoded read against a
# shadow copy) and the DRAM conformance auditor (re-validates every
# issued command against the JEDEC timings) attached; both are pure
# observers, so a green pass is a zero-mismatch, zero-violation
# certification. The second pass re-runs the golden, observability,
# fault, integrity and CRAM suites without the observers, at their
# own run lengths, so the ambient-engine paths stay covered as shipped.
for engine in cycle event; do
    echo "=== engines: ATTACHE_ENGINE=$engine (mirror + conformance, then contract suites) ==="
    ATTACHE_QUICK=1 ATTACHE_ENGINE=$engine ATTACHE_MIRROR=1 ATTACHE_CONFORMANCE=1 \
        cargo test -q -p attache-sim -p attache-dram --release
    ATTACHE_ENGINE=$engine cargo test -q -p attache-sim --release \
        --test golden_stats --test observability --test env_knobs --test faults \
        --test integrity --test cram_collision --test strategy_exhaustiveness
done
# Every pass above is a release build, where debug assertions compile
# out: among them the checks that a cached scheduling bound never skips
# a command (`tick_retire_only`, `advance_noop`) and that no pass or bound
# reads a deferred candidate index. The DRAM crate's own tests, run once
# in a debug build, drive those asserts on both tick paths. The sim
# crate's differential suite, in a debug build, drives the core model's:
# every slot an incremental issue pass skips is a known miss that would
# stall, the full walk never issues a slot the stall snapshot predicted
# to stall, and a wake probe the snapshot answers finds nothing to issue.
cargo test -q -p attache-dram
cargo test -q -p attache-sim --test differential

# With every integrity knob explicitly disarmed no integrity engine is
# constructed, and with the content-keyed compression memo off every
# outcome is recomputed; either way the pinned goldens must pass
# byte-identical, so a knobs-off drift fails here and not downstream.
echo "=== goldens with knobs off (integrity disarmed; compression memo off) ==="
ATTACHE_BER=0 ATTACHE_ECC=0 ATTACHE_SCRUB=0 \
    cargo test -q -p attache-sim --release --test golden_stats
ATTACHE_COMPRESS_MEMO=0 cargo test -q -p attache-sim --release --test golden_stats

# Figure smoke, two real figure binaries end to end. The first runs
# with epoch sampling and the trace ring enabled, checking the series
# export lands on disk. The second is fig_integrity, whose preamble
# asserts the armed integrity configuration is bit-identical across the
# cycle and event engines before it writes BENCH_integrity.json.
echo "=== figure smoke (observability knobs; fig_integrity engine preamble) ==="
ATTACHE_QUICK=1 ATTACHE_NO_CACHE=1 ATTACHE_RESULTS="$SMOKE_DIR" \
    ATTACHE_EPOCH=50000 ATTACHE_TRACE_RING=256 \
    ./target/release/ablation_cid_width
ls "$SMOKE_DIR"/series/*.series.csv > /dev/null \
    || { echo "figure smoke: no series export found"; exit 1; }
ATTACHE_QUICK=1 ATTACHE_RESULTS="$SMOKE_DIR" ./target/release/fig_integrity

# Every suite above runs at the default libtest parallelism: tests that
# touch engine knobs do so through builders, never by mutating the
# ambient environment. Serializing libtest would mask a reintroduced
# env mutation, so any test-threads override in scripts/ is a CI error
# (the bracket class keeps this check from matching itself).
if grep -rEn -- "--test-threads[= ][0-9]" scripts/; then
    echo "ci.sh: scripts must stay parallel-safe (no test-threads override)"; exit 1
fi

# The memory model's contract (determinism, event-horizon soundness,
# acceptance generations, the derate hook) is written in the rustdoc on
# `attache_dram::MemorySystem`, so broken intra-doc links or malformed
# rustdoc on the dram crate are CI failures, not warnings.
echo "=== lints: cargo fmt --check; clippy -D warnings; rustdoc -D warnings (attache-dram) ==="
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p attache-dram --quiet

# The repository benchmark is its own package (attache_benchmark/, with
# an empty [workspace] table), so the workspace passes above never build
# or test it: run its unit and integration tests, then one --smoke pass
# of every workload in both modes into the throwaway directory. Its
# simulated results are pinned: the smoke's fingerprints must match the
# tracked literals.
echo "=== repository benchmark: tests + --smoke + pinned fingerprints ==="
cargo test -q --release --offline --manifest-path attache_benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path attache_benchmark/Cargo.toml -- \
    --smoke --out-dir "$SMOKE_DIR/benchmark" | tee "$SMOKE_DIR/benchmark.out"
grep '^sim_fingerprint ' "$SMOKE_DIR/benchmark.out" | LC_ALL=C sort -u \
    | diff <(grep -v '^#' tests/goldens/benchmark_smoke.fingerprints) - \
    || { echo "benchmark smoke: sim_fingerprint differs from tests/goldens/benchmark_smoke.fingerprints"; exit 1; }

echo "CI OK"
