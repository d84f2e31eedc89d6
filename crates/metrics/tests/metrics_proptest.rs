//! Property tests for `corona-metrics` histograms: quantile
//! soundness, conservation under merge, and monotone snapshot deltas
//! under concurrent recording.

use corona_metrics::{Histogram, HistogramSnapshot, Registry};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

fn recorded(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    /// `record_n(v, n)` is `n` calls of `record(v)`, field for field.
    #[test]
    fn record_n_is_n_records(v in any::<u64>(), n in 0u64..64, before in vec(any::<u64>(), 0..8)) {
        let h = Histogram::new();
        for &b in &before {
            h.record(b);
        }
        h.record_n(v, n);
        let mut each = before.clone();
        each.extend(std::iter::repeat_n(v, n as usize));
        prop_assert_eq!(h.snapshot(), recorded(&each));
    }

    /// Any quantile estimate stays within the recorded [min, max]
    /// range, and the estimates are monotone in q.
    #[test]
    fn quantile_within_recorded_range(samples in vec(any::<u64>(), 1..200)) {
        let s = recorded(&samples);
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        prop_assert_eq!(s.min, lo);
        prop_assert_eq!(s.max, hi);
        let mut prev = 0u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            prop_assert!(est >= lo && est <= hi, "q{} = {} outside [{}, {}]", q, est, lo, hi);
            prop_assert!(est >= prev, "quantiles must be monotone");
            prev = est;
        }
    }

    /// Count, sum and per-bucket totals are conserved under merge,
    /// and merging equals recording the concatenation.
    #[test]
    fn merge_conserves_totals(
        a in vec(any::<u64>(), 0..100),
        b in vec(any::<u64>(), 0..100),
    ) {
        let sa = recorded(&a);
        let sb = recorded(&b);
        let mut merged = sa.clone();
        merged.merge(&sb);
        prop_assert_eq!(merged.count, sa.count + sb.count);
        prop_assert_eq!(merged.sum, sa.sum.wrapping_add(sb.sum));
        for i in 0..corona_metrics::BUCKETS {
            prop_assert_eq!(merged.buckets[i], sa.buckets[i] + sb.buckets[i]);
        }
        let mut both = a.clone();
        both.extend_from_slice(&b);
        let direct = recorded(&both);
        prop_assert_eq!(merged, direct);
    }

    /// delta(later, earlier) recovers exactly the samples recorded in
    /// between (counts, sums, buckets), with min/max bounds that
    /// bracket the window's true extremes.
    #[test]
    fn delta_recovers_window(
        first in vec(any::<u64>(), 0..100),
        second in vec(any::<u64>(), 1..100),
    ) {
        let h = Histogram::new();
        for &v in &first {
            h.record(v);
        }
        let early = h.snapshot();
        for &v in &second {
            h.record(v);
        }
        let late = h.snapshot();
        let d = late.delta(&early);
        let expect = recorded(&second);
        prop_assert_eq!(d.count, expect.count);
        prop_assert_eq!(d.sum, expect.sum);
        for i in 0..corona_metrics::BUCKETS {
            prop_assert_eq!(d.buckets[i], expect.buckets[i]);
        }
        prop_assert!(d.min <= expect.min, "delta min {} must bound true min {}", d.min, expect.min);
        prop_assert!(d.max >= expect.max, "delta max {} must bound true max {}", d.max, expect.max);
    }

    /// Quantile rank semantics at bucket granularity: the
    /// interpolated estimate lands inside the log2 bucket that
    /// contains the rank-th sample, so at least ceil(q * count)
    /// samples are <= the estimate's bucket upper bound and fewer
    /// than that many lie strictly below its lower bound.
    #[test]
    fn quantile_covers_rank(samples in vec(0u64..1_000_000, 1..150), q in 0.0f64..=1.0) {
        let s = recorded(&samples);
        let est = s.quantile(q);
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
        let (lower, upper) = bucket_bounds(est);
        let at_or_below_upper = samples.iter().filter(|&&v| v <= upper).count();
        prop_assert!(
            at_or_below_upper >= rank,
            "q{}: only {} of {} samples <= bucket upper {} (est {})",
            q, at_or_below_upper, samples.len(), upper, est
        );
        let below_lower = samples.iter().filter(|&&v| v < lower).count();
        prop_assert!(
            below_lower < rank,
            "q{}: {} of {} samples below bucket lower {} (est {})",
            q, below_lower, samples.len(), lower, est
        );
    }
}

/// Inclusive bounds of the log2 bucket containing `v` (bucket 0 is
/// exactly zero, bucket i covers [2^(i-1), 2^i - 1]).
fn bucket_bounds(v: u64) -> (u64, u64) {
    if v == 0 {
        return (0, 0);
    }
    let i = (64 - v.leading_zeros()) as usize;
    let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
    (1u64 << (i - 1), upper)
}

/// Four threads hammer one histogram while the main thread snapshots;
/// every successive snapshot must be monotone (count/sum/buckets never
/// shrink) and every delta between successive snapshots well-formed.
#[test]
fn concurrent_snapshot_deltas_are_monotone() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 20_000;

    let registry = Registry::new();
    let h = registry.histogram("stress_us");
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Spread samples over many buckets.
                    h.record((i.wrapping_mul(2654435761).wrapping_add(t as u64)) % 1_000_000);
                }
            })
        })
        .collect();

    let mut prev = h.snapshot();
    let mut observations = 0u32;
    while workers.iter().any(|w| !w.is_finished()) || observations == 0 {
        let cur = h.snapshot();
        assert!(cur.count >= prev.count, "count went backwards");
        assert!(cur.sum >= prev.sum, "sum went backwards");
        for i in 0..corona_metrics::BUCKETS {
            assert!(
                cur.buckets[i] >= prev.buckets[i],
                "bucket {i} went backwards"
            );
        }
        let d = cur.delta(&prev);
        assert_eq!(d.count, cur.count - prev.count);
        assert_eq!(d.sum, cur.sum - prev.sum);
        prev = cur;
        observations += 1;
    }
    for w in workers {
        w.join().unwrap();
    }

    let final_snap = h.snapshot();
    assert_eq!(final_snap.count, (THREADS as u64) * PER_THREAD);
    assert!(observations > 0);
    assert_eq!(
        final_snap.buckets.iter().sum::<u64>(),
        final_snap.count,
        "bucket totals must equal the sample count at quiescence"
    );
}
