#!/usr/bin/env bash
# Simulator benchmark driver: builds the release workspace and runs
#   * the cycle-vs-event engine comparison  -> <results>/BENCH_engine.json
#   * the cycle-vs-fast backend comparison  -> <results>/BENCH_backend.json
#   * the compression hot-path benchmark    -> <results>/BENCH_compress.json
#     (kernel MB/s + end-to-end Mcyc/s, plus a dated line appended to
#     <results>/BENCH_trajectory.tsv so each run's numbers form a series)
#   * the data-integrity figure             -> <results>/BENCH_integrity.json
#     (corrected/uncorrectable/silent-corruption rates and error
#     amplification across all five strategies x a BER sweep, with an
#     engine bit-identity preamble and a trajectory row)
# over the memory-bound profile grid, writing wall times and speedups.
# <results> is ATTACHE_RESULTS (default results/).
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke                reduced-tick mode: forces the quick
#                          configuration with a single repeat and runs
#                          only the compress and integrity benches, in
#                          about a minute. Its 40k-instruction numbers
#                          are not the full-size ones EXPERIMENTS.md
#                          quotes, so point ATTACHE_RESULTS at a scratch
#                          directory (scripts/ci.sh does) rather than
#                          overwrite the tracked results/ files.
#
# Knobs (all optional, same semantics as the experiment harness):
#   ATTACHE_QUICK=1        fast smoke configuration (40k/8k instructions)
#   ATTACHE_INSTR / ATTACHE_WARMUP
#                          explicit run length per core
#   ATTACHE_BENCH_REPEAT   interleaved repeats per engine/backend; the
#                          per-side minimum is reported (default 3 here)
#   ATTACHE_RESULTS        output directory (default results/)
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
    export ATTACHE_QUICK=1
    export ATTACHE_BENCH_REPEAT=1
fi

export ATTACHE_BENCH_REPEAT="${ATTACHE_BENCH_REPEAT:-3}"

cargo build --release -p attache-bench
if [[ "$SMOKE" == "1" ]]; then
    ./target/release/bench_compress
    ./target/release/fig_integrity
else
    ./target/release/bench_engine
    ./target/release/bench_backend
    ./target/release/bench_compress
    ./target/release/fig_integrity
fi
