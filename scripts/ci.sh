#!/usr/bin/env bash
# The full CI gate: release build, the whole test suite (at the quick
# smoke configuration so the grid integration tests stay fast), and
# clippy with warnings promoted to errors.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release ==="
cargo build --release --workspace

echo "=== cargo test (ATTACHE_QUICK=1) ==="
ATTACHE_QUICK=1 cargo test -q --workspace --release

# The differential suite compares the engines against each other, which
# is engine-knob-independent — but every *other* integration test should
# hold under whichever engine the environment selects, so run the full
# suite's quick sim tests once per engine.
echo "=== differential + sim tests under ATTACHE_ENGINE=cycle ==="
ATTACHE_QUICK=1 ATTACHE_ENGINE=cycle cargo test -q -p attache-sim --release

echo "=== differential + sim tests under ATTACHE_ENGINE=event ==="
ATTACHE_QUICK=1 ATTACHE_ENGINE=event cargo test -q -p attache-sim --release

# The correctness harness: the mirror-memory oracle byte-checks every
# decoded read against a shadow copy, and the DRAM conformance auditor
# re-validates every issued command against the JEDEC timings. Both are
# pure observers, so running the sim + dram suites under them turns the
# whole randomized/differential workload into a zero-mismatch,
# zero-violation certification — once per engine.
echo "=== mirror oracle + DRAM conformance under ATTACHE_ENGINE=cycle ==="
ATTACHE_QUICK=1 ATTACHE_ENGINE=cycle ATTACHE_MIRROR=1 ATTACHE_CONFORMANCE=1 \
    cargo test -q -p attache-sim -p attache-dram --release

echo "=== mirror oracle + DRAM conformance under ATTACHE_ENGINE=event ==="
ATTACHE_QUICK=1 ATTACHE_ENGINE=event ATTACHE_MIRROR=1 ATTACHE_CONFORMANCE=1 \
    cargo test -q -p attache-sim -p attache-dram --release

# The observability layer: the golden-stats snapshots pin the full
# metric registry (5 strategies, byte-identical across both engines
# by the test's own cross-engine assertion) against tests/goldens/,
# and the purity/ring-dump suite proves the observer never perturbs a
# RunReport. Run once per engine so the ambient-engine paths stay
# covered too.
echo "=== golden stats + observability under ATTACHE_ENGINE=cycle ==="
ATTACHE_ENGINE=cycle cargo test -q -p attache-sim --release \
    --test golden_stats --test observability --test env_knobs

echo "=== golden stats + observability under ATTACHE_ENGINE=event ==="
ATTACHE_ENGINE=event cargo test -q -p attache-sim --release \
    --test golden_stats --test observability --test env_knobs

# Knobs-on smoke: one real figure binary with epoch sampling and the
# trace ring enabled end-to-end, checking the series export lands on
# disk. Uses a throwaway results dir so the CI cache stays clean.
echo "=== observability smoke (ATTACHE_EPOCH + ATTACHE_TRACE_RING) ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
ATTACHE_QUICK=1 ATTACHE_NO_CACHE=1 ATTACHE_RESULTS="$SMOKE_DIR" \
    ATTACHE_EPOCH=50000 ATTACHE_TRACE_RING=256 \
    ./target/release/ablation_cid_width
ls "$SMOKE_DIR"/series/*.series.csv > /dev/null \
    || { echo "observability smoke: no series export found"; exit 1; }

# The chaos harness: the fault-injection suite drives all seven fault
# classes through the recovery paths with the mirror oracle as ground
# truth (zero undetected faults), pins engine-identical schedules and
# per-class accounting, and proves faults-off purity. Run once per
# engine so the ambient-engine fault hooks stay covered.
echo "=== fault injection under ATTACHE_ENGINE=cycle ==="
ATTACHE_ENGINE=cycle cargo test -q -p attache-sim --release --test faults

echo "=== fault injection under ATTACHE_ENGINE=event ==="
ATTACHE_ENGINE=event cargo test -q -p attache-sim --release --test faults

# The CRAM rival strategy (implicit in-line markers, no stored
# metadata): the pinned marker-collision corpus replay proves the
# escape/exception path non-vacuously, and the exhaustiveness guard
# fails if any strategy-generic suite (or the bench grid, or the golden
# set) stops enumerating MetadataStrategyKind::ALL. Run once per engine
# so the marker decode path stays covered under both schedulers.
echo "=== CRAM strategy suites under ATTACHE_ENGINE=cycle ==="
ATTACHE_ENGINE=cycle cargo test -q -p attache-sim --release \
    --test cram_collision --test strategy_exhaustiveness

echo "=== CRAM strategy suites under ATTACHE_ENGINE=event ==="
ATTACHE_ENGINE=event cargo test -q -p attache-sim --release \
    --test cram_collision --test strategy_exhaustiveness

# End-to-end data integrity (docs/FAULTS.md): device soft errors below
# the (72,64) SEC-DED pipeline, poison propagation with per-strategy
# recovery, and the background scrub engine. The suite drives the
# backend and shard axes through builders internally, so one pass per
# ambient engine covers engines x backends; a third pass under
# ATTACHE_SHARDS=2 proves the armed paths hold verbatim on a threaded
# run. The dram crate's ecc/soft_error unit suites ride along.
echo "=== data integrity under ATTACHE_ENGINE=cycle ==="
ATTACHE_ENGINE=cycle cargo test -q -p attache-sim --release --test integrity
ATTACHE_ENGINE=cycle cargo test -q -p attache-dram --release -- ecc soft_error

echo "=== data integrity under ATTACHE_ENGINE=event ==="
ATTACHE_ENGINE=event cargo test -q -p attache-sim --release --test integrity
ATTACHE_ENGINE=event cargo test -q -p attache-dram --release -- ecc soft_error

echo "=== data integrity under ATTACHE_SHARDS=2 ==="
ATTACHE_SHARDS=2 cargo test -q -p attache-sim --release --test integrity

# Golden compatibility: with every integrity knob explicitly disarmed
# the engine is never constructed, so the pinned goldens must pass
# byte-identical — a knobs-off run that drifted would fail here, not in
# a downstream PR.
echo "=== golden stats with integrity knobs explicitly off ==="
ATTACHE_BER=0 ATTACHE_ECC=0 ATTACHE_SCRUB=0 \
    cargo test -q -p attache-sim --release --test golden_stats

# Backend conformance (docs/BACKENDS.md): the dram crate's referee
# replays identical request streams through the cycle and fast backends
# and fails when divergence leaves the documented tolerance envelope;
# the sim-level backend + differential suites then pin end-to-end
# behavior — cycle-backend bit-identity behind the trait, engine
# bit-identity on the fast backend, fault-derate expiry — under both
# engines.
echo "=== backend conformance: cross-model referee ==="
ATTACHE_QUICK=1 cargo test -q -p attache-dram --release referee

echo "=== backend conformance: sim suites under ATTACHE_ENGINE=cycle ==="
ATTACHE_QUICK=1 ATTACHE_ENGINE=cycle cargo test -q -p attache-sim --release \
    --test backends --test differential

echo "=== backend conformance: sim suites under ATTACHE_ENGINE=event ==="
ATTACHE_QUICK=1 ATTACHE_ENGINE=event cargo test -q -p attache-sim --release \
    --test backends --test differential

# Sharded execution (docs/ARCHITECTURE.md "Sharded execution"): the
# determinism battery pins sharded-vs-serial RunReport byte-equality for
# every strategy/engine/backend, sweeps shard counts including
# non-dividing ones, fuzzes adversarial cross-shard schedules, and
# replays the shrunk corpus cases. The battery pins both engines
# internally, so it runs once; the golden/mirror/fault/differential
# suites then re-run under an ambient ATTACHE_SHARDS=2 to prove every
# other contract in CI holds verbatim on a threaded run (the goldens
# are NOT re-blessed — bit-identity is the point).
echo "=== sharded determinism battery ==="
cargo test -q -p attache-sim --release --test sharded
cargo test -q -p attache --release --test determinism

echo "=== golden stats + mirror + faults + differential under ATTACHE_SHARDS=2 ==="
ATTACHE_SHARDS=2 cargo test -q -p attache-sim --release \
    --test golden_stats --test mirror_oracle --test faults --test differential

# Every suite above runs at the default libtest parallelism: tests that
# touch shard or engine knobs do so through builders, never by mutating
# the ambient environment. Serializing libtest would mask a reintroduced
# env mutation, so any test-threads override in scripts/ is a CI error
# (the bracket class keeps this check from matching itself).
if grep -rEn -- "--test-threads[= ][0-9]" scripts/; then
    echo "ci.sh: scripts must stay parallel-safe (no test-threads override)"; exit 1
fi

# The backend contract is documentation-first (a third backend is meant
# to be written from docs/BACKENDS.md + the trait rustdoc alone), so
# broken intra-doc links or malformed rustdoc on the dram crate are CI
# failures, not warnings.
echo "=== rustdoc gate (attache-dram, -D warnings) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p attache-dram --quiet

# The resilient executor: a poisoned grid job is quarantined with its
# trace dump while siblings complete, a tick-budgeted job times out
# structurally, and a sweep killed mid-way (ATTACHE_JOB_LIMIT) resumes
# via ATTACHE_RESUME to byte-identical results.
echo "=== resilient grid executor (quarantine / checkpoint-resume) ==="
cargo test -q -p attache-bench --release --test resilient

# Compression-kernel equivalence: the u64-lane BDI/FPC kernels against
# the scalar reference implementations (property + corpus suites), the
# engine's analysis-only early exits against materializing both images,
# and the content-keyed memo's transparency — goldens pin every counter,
# so a memo that changed any outcome fails here, not in review.
echo "=== compression equivalence: scalar vs vectorized kernels ==="
cargo test -q -p attache-compress --release

echo "=== compression equivalence: goldens with the memo disabled ==="
ATTACHE_COMPRESS_MEMO=0 cargo test -q -p attache-sim --release --test golden_stats

# One workspace-wide clippy pass covers every crate, compress, testkit
# and metrics included.
echo "=== cargo clippy -- -D warnings ==="
cargo clippy --workspace --all-targets -- -D warnings

# The repository benchmark is its own package (attache_benchmark/, with
# an empty [workspace] table), so the workspace passes above never build
# or test it: run its unit and integration tests, then one --smoke pass
# of every workload in both modes into the throwaway directory.
echo "=== repository benchmark: tests ==="
cargo test -q --release --offline --manifest-path attache_benchmark/Cargo.toml

echo "=== repository benchmark: --smoke ==="
cargo run -q --release --offline --manifest-path attache_benchmark/Cargo.toml -- \
    --smoke --out-dir "$SMOKE_DIR/benchmark"

# Benchmark smoke: the reduced-tick bench pass appends a dated row to
# results/BENCH_trajectory.tsv and refreshes BENCH_*.json, so every PR
# leaves a performance/integrity data point behind (and the bench bins
# themselves — including fig_integrity's engine/shard bit-identity
# preamble — are exercised end-to-end).
echo "=== bench smoke (scripts/bench.sh --smoke) ==="
bash scripts/bench.sh --smoke

echo "CI OK"
