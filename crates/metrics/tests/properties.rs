//! Property suite for the metrics primitives.
//!
//! The histogram and epoch-series invariants asserted here are exactly
//! the ones the golden-stats snapshots rely on: if buckets were not
//! monotone or deltas did not telescope, the exported JSON/CSV would be
//! internally inconsistent even when byte-stable.

use attache_metrics::{EpochSeries, Histogram, Registry};
use attache_testkit::Gen;

const CASES: usize = 200;

/// Random value spanning the full bucket range: mostly small latencies,
/// occasionally huge outliers, occasionally exact powers of two (the
/// bucket edges themselves).
fn arb_value(g: &mut Gen) -> u64 {
    match g.below(4) {
        0 => g.below(16),
        1 => g.below(1 << 20),
        2 => 1u64 << g.below(63),
        _ => g.next_u64() >> g.below(64),
    }
}

fn arb_hist(g: &mut Gen, max_len: u64) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..g.below(max_len) {
        h.record(arb_value(g));
    }
    h
}

#[test]
fn bucket_lower_bounds_are_strictly_increasing() {
    let mut g = Gen::new(0x0b5e_0001);
    for _ in 0..CASES {
        let h = arb_hist(&mut g, 256);
        let bounds: Vec<u64> = h.buckets().map(|(lb, _)| lb).collect();
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket lower bounds must be strictly increasing: {bounds:?}"
        );
    }
}

#[test]
fn every_value_lands_in_the_bucket_that_covers_it() {
    // For each recorded value v, the histogram's bucket containing it
    // must have lower_bound <= v and (for bucket index i) v < 2^i: the
    // log-2 bucketing never mis-files a sample. Checked by recording one
    // value at a time and reading back the single non-empty bucket.
    let mut g = Gen::new(0x0b5e_0002);
    for _ in 0..CASES {
        let v = arb_value(&mut g);
        let mut h = Histogram::new();
        h.record(v);
        let (lb, n) = h.buckets().next().expect("one sample, one bucket");
        assert_eq!(n, 1);
        assert!(lb <= v, "lower bound {lb} must cover value {v}");
        if lb > 0 {
            assert!(
                v < lb * 2,
                "value {v} escaped its bucket [{lb}, {})",
                lb * 2
            );
        } else {
            assert_eq!(v, 0, "the zero bucket holds only zero");
        }
    }
}

#[test]
fn count_and_sum_are_conserved() {
    let mut g = Gen::new(0x0b5e_0003);
    for _ in 0..CASES {
        let n = g.below(128);
        // Small values so the u64 sum cannot saturate.
        let values: Vec<u64> = (0..n).map(|_| g.below(1 << 32)).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), n, "count must equal the number of records");
        assert_eq!(h.sum(), values.iter().sum::<u64>(), "sum must be exact");
        let bucket_total: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(bucket_total, n, "bucket counts must partition the total");
        assert_eq!(h.min(), values.iter().min().copied());
        assert_eq!(h.max(), values.iter().max().copied());
    }
}

#[test]
fn merge_is_associative_and_conserves_totals() {
    let mut g = Gen::new(0x0b5e_0004);
    for _ in 0..CASES {
        let a = arb_hist(&mut g, 64);
        let b = arb_hist(&mut g, 64);
        let c = arb_hist(&mut g, 64);

        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right, "merge must be associative");
        assert_eq!(left.count(), a.count() + b.count() + c.count());

        // Merging with an empty histogram is the identity.
        let mut id = a.clone();
        id.merge(&Histogram::new());
        assert_eq!(id, a, "merging an empty histogram must be the identity");
    }
}

#[test]
fn epoch_deltas_sum_to_the_final_totals() {
    // The telescoping invariant the series CSV relies on: per-epoch
    // counter deltas across all samples sum to the final cumulative
    // value, for every counter — including ones that appear mid-series.
    let mut g = Gen::new(0x0b5e_0005);
    let keys = ["dram.reads", "dram.writes", "llc.hits", "ra.reads"];
    for _ in 0..CASES {
        let mut series = EpochSeries::new();
        let mut totals = std::collections::BTreeMap::new();
        let samples = 1 + g.below(12);
        let mut tick = 0;
        for _ in 0..samples {
            tick += 1 + g.below(1000);
            // Counters grow monotonically, as registry snapshots do; a
            // key joins the registry only once traffic first touches it.
            for key in keys {
                if g.below(4) == 0 && !totals.contains_key(key) {
                    continue;
                }
                *totals.entry(key).or_insert(0u64) += g.below(100);
            }
            let mut r = Registry::new();
            for (k, v) in &totals {
                r.set_counter(k, *v);
            }
            series.push(tick, r);
        }
        let deltas = series.counter_deltas();
        assert_eq!(deltas.len(), series.len());
        for key in keys {
            let recovered: u64 = deltas
                .iter()
                .map(|(_, d)| d.get(key).copied().unwrap_or(0))
                .sum();
            let expected = totals.get(key).copied().unwrap_or(0);
            assert_eq!(
                recovered, expected,
                "deltas for {key} must telescope to the total"
            );
        }
    }
}
