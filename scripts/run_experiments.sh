#!/usr/bin/env bash
# Regenerates every table and figure of the Attaché paper and stores the
# console output under results/figures/.
#
# Timing simulations run in parallel (ATTACHE_WORKERS, default: all cores)
# and each (workload, strategy, overrides) job is memoized under
# results/cache/, so grid points shared between figures — the 22-workload
# x 5-strategy sweep feeds Figs. 1, 12-15 and 18 — are simulated exactly
# once.
# Set ATTACHE_QUICK=1 for a fast smoke pass; pass --no-cache (or set
# ATTACHE_NO_CACHE=1) to force recomputation.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p attache-bench
outdir=results/figures
mkdir -p "$outdir"

for bin in table1_cid_sizes fig01_metadata_overhead fig04_compressibility \
           fig05_metacache_hitrate fig08_cid_collision fig11_copr_accuracy \
           fig12_speedup fig13_energy fig14_bandwidth_latency \
           fig15_metacache_traffic fig16_replacement_policies \
           fig17_copr_ablation fig18_rivals ablation_cid_width fig_integrity; do
    echo "=== $bin ==="
    ./target/release/$bin | tee "$outdir/$bin.txt"
    echo
done
echo "All experiment outputs stored in $outdir/"
