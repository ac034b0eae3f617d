#!/usr/bin/env bash
# The full CI gate: release build, the whole test suite, the per-engine
# correctness passes, clippy with warnings promoted to errors, the
# rustdoc gate, and the benchmark smokes. Nothing here writes to a
# tracked file: every smoke writes under a throwaway directory, so
# `git status` is clean after a green run.
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
#                        |   units); bench smoke (fig_integrity preamble)
#   memo purity          | goldens with knobs off (ATTACHE_COMPRESS_MEMO=0);
#                        |   workspace tests (compress kernel equivalence)
#   backend referee      | workspace tests; engines (dram referee under the
#                        |   auditor, sim backends suite per engine)
#   resilient executor   | resilient grid
#   knob audit           | workspace tests; engines (env_knobs per engine)
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

# With every integrity knob explicitly disarmed no integrity engine is
# constructed, and with the content-keyed compression memo off every
# outcome is recomputed; either way the pinned goldens must pass
# byte-identical, so a knobs-off drift fails here and not downstream.
echo "=== goldens with knobs off (integrity disarmed; compression memo off) ==="
ATTACHE_BER=0 ATTACHE_ECC=0 ATTACHE_SCRUB=0 \
    cargo test -q -p attache-sim --release --test golden_stats
ATTACHE_COMPRESS_MEMO=0 cargo test -q -p attache-sim --release --test golden_stats

# Knobs-on smoke: one real figure binary with epoch sampling and the
# trace ring enabled end-to-end, checking the series export lands on
# disk.
echo "=== observability smoke (ATTACHE_EPOCH + ATTACHE_TRACE_RING) ==="
ATTACHE_QUICK=1 ATTACHE_NO_CACHE=1 ATTACHE_RESULTS="$SMOKE_DIR" \
    ATTACHE_EPOCH=50000 ATTACHE_TRACE_RING=256 \
    ./target/release/ablation_cid_width
ls "$SMOKE_DIR"/series/*.series.csv > /dev/null \
    || { echo "observability smoke: no series export found"; exit 1; }

# The resilient executor: a poisoned grid job is quarantined with its
# trace dump while siblings complete, a tick-budgeted job times out
# structurally, and a sweep killed mid-way (ATTACHE_JOB_LIMIT) resumes
# via ATTACHE_RESUME to byte-identical results.
echo "=== resilient grid executor (quarantine / checkpoint-resume) ==="
cargo test -q -p attache-bench --release --test resilient

# Every suite above runs at the default libtest parallelism: tests that
# touch engine knobs do so through builders, never by mutating the
# ambient environment. Serializing libtest would mask a reintroduced
# env mutation, so any test-threads override in scripts/ is a CI error
# (the bracket class keeps this check from matching itself).
if grep -rEn -- "--test-threads[= ][0-9]" scripts/; then
    echo "ci.sh: scripts must stay parallel-safe (no test-threads override)"; exit 1
fi

echo "=== cargo clippy -- -D warnings ==="
cargo clippy --workspace --all-targets -- -D warnings

# The backend contract is documentation-first (a third backend is meant
# to be written from docs/BACKENDS.md + the trait rustdoc alone), so
# broken intra-doc links or malformed rustdoc on the dram crate are CI
# failures, not warnings.
echo "=== rustdoc gate (attache-dram, -D warnings) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p attache-dram --quiet

# The repository benchmark is its own package (attache_benchmark/, with
# an empty [workspace] table), so the workspace passes above never build
# or test it: run its unit and integration tests, then one --smoke pass
# of every workload in both modes into the throwaway directory.
echo "=== repository benchmark: tests + --smoke ==="
cargo test -q --release --offline --manifest-path attache_benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path attache_benchmark/Cargo.toml -- \
    --smoke --out-dir "$SMOKE_DIR/benchmark"

# Benchmark smoke: exercises the bench bins end to end (including
# fig_integrity's engine bit-identity preamble). Its outputs go to the
# throwaway directory; the tracked results/BENCH_*.json files hold the
# full-size numbers EXPERIMENTS.md quotes and are refreshed only by a
# full `scripts/bench.sh` run.
echo "=== bench smoke (scripts/bench.sh --smoke) ==="
ATTACHE_RESULTS="$SMOKE_DIR/bench" bash scripts/bench.sh --smoke

echo "CI OK"
