//! # corona-metrics
//!
//! Metrics for the Corona stack: lock-free [`Counter`]s, [`Gauge`]s
//! and log₂-bucketed [`Histogram`]s, collected in a [`Registry`] and
//! exported as point-in-time [`MetricsSnapshot`]s with delta, merge,
//! and text/JSON exposition.
//!
//! Design constraints, in order:
//!
//! 1. **Recording is wait-free** — a counter bump or histogram sample
//!    is a handful of relaxed atomic RMWs, safe on any thread
//!    including the server's dispatcher hot path. No locks, no
//!    allocation, no clock reads.
//! 2. **Handles are cheap** — metric handles are `Arc`s resolved once
//!    from the registry (a short mutex critical
//!    section) and then cached by the recording code.
//! 3. **Snapshots are monotone** — a [`Registry::snapshot`] taken
//!    later never reports smaller counter or histogram totals than an
//!    earlier one, so `later.delta(&earlier)` is always meaningful.
//!
//! Metric names are dot-separated paths (`core.broadcasts`,
//! `statelog.fsync_us`). By convention the unit is the final name
//! segment (`_us` microseconds, `_ms` milliseconds, `_bytes`).
//!
//! ## Example
//!
//! ```
//! use corona_metrics::Registry;
//!
//! let registry = Registry::new();
//! let broadcasts = registry.counter("core.broadcasts");
//! let fanout = registry.histogram("server.fanout_us");
//!
//! broadcasts.inc();
//! for us in [120, 80, 95, 4_000] {
//!     fanout.record(us);
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("core.broadcasts"), 1);
//! let h = snap.histogram("server.fanout_us").unwrap();
//! assert_eq!(h.count, 4);
//! assert!(h.quantile(0.5) >= h.min && h.quantile(0.5) <= h.max);
//! println!("{}", snap.render_text());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Number of histogram buckets: one for zero plus one per power of
/// two up to `2^63`.
pub const BUCKETS: usize = 65;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depth, live connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is above the current value — for
    /// high-watermark gauges that must not lose transient peaks
    /// between scrapes.
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Index of the log₂ bucket holding `v`: bucket 0 is exactly zero,
/// bucket `i > 0` covers `[2^(i-1), 2^i - 1]`.
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (used as the quantile
/// representative; clamped to the recorded max by callers).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A log₂-bucketed histogram of `u64` samples (latencies in µs, sizes
/// in bytes). Recording is wait-free; `min`/`max` converge via CAS.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value `v`: what `n` calls of
    /// [`Histogram::record`] would, in one update of each field.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        // Count last: a concurrent snapshot that sees the new count
        // also sees the bucket (monotonicity is per-field anyway; the
        // proptest suite checks sum/count conservation on quiescent
        // histograms).
        self.count.fetch_add(n, Ordering::Release);
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Starts a timer that records elapsed microseconds when dropped.
    pub fn start_timer(self: &Arc<Self>) -> HistogramTimer {
        HistogramTimer {
            histogram: Arc::clone(self),
            started: Instant::now(),
        }
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Acquire);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// RAII timer for a [`Histogram`]; records elapsed µs on drop.
#[derive(Debug)]
pub struct HistogramTimer {
    histogram: Arc<Histogram>,
    started: Instant,
}

impl HistogramTimer {
    /// Stops the timer early, recording the elapsed time now.
    pub fn observe(self) {
        drop(self);
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.histogram.record_duration(self.started.elapsed());
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket counts; bucket 0 is exactly zero, bucket `i`
    /// covers `[2^(i-1), 2^i - 1]`.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the buckets.
    ///
    /// The rank's bucket is located by cumulative count, then the
    /// estimate interpolates linearly between the bucket's bounds by
    /// the rank's position within it, clamped into `[min, max]` so it
    /// never falls outside the recorded range. Interpolation keeps
    /// quantiles monotone in `q` and avoids collapsing every quantile
    /// that lands in one wide log₂ bucket onto the same `2^k - 1`
    /// upper bound. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= rank {
                let lower = bucket_lower(i);
                let upper = bucket_upper(i);
                // Fraction of this bucket's samples at or below the
                // rank; rank > cumulative here so frac is in (0, 1].
                let frac = (rank - cumulative) as f64 / n as f64;
                let est = lower as f64 + frac * (upper - lower) as f64;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            cumulative += n;
        }
        self.max
    }

    /// Merges another snapshot into this one (bucket-wise addition;
    /// counts and sums are conserved).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        // Sample sums are modulo 2^64 (the atomic recording path wraps
        // too); conservation under merge holds in the same ring.
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The samples recorded between `earlier` and `self` (two
    /// snapshots of the *same* histogram, `self` taken later).
    ///
    /// Counts, sums and buckets subtract exactly; `min`/`max` cannot
    /// be recovered for the window and are approximated from the
    /// delta's occupied bucket bounds (clamped into the later
    /// snapshot's recorded range).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i]));
        let count = self.count.saturating_sub(earlier.count);
        let lowest = buckets.iter().position(|&n| n > 0);
        let highest = buckets.iter().rposition(|&n| n > 0);
        let (min, max) = match (count, lowest, highest) {
            (0, _, _) | (_, None, _) | (_, _, None) => (0, 0),
            (_, Some(lo), Some(hi)) => (
                bucket_lower(lo).max(self.min),
                bucket_upper(hi).min(self.max),
            ),
        };
        HistogramSnapshot {
            count,
            sum: self.sum.wrapping_sub(earlier.sum),
            min,
            max,
            buckets,
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics shared by the components of one
/// server (or one process). Cheap to share: wrap it in an [`Arc`] and
/// clone the handle.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Locks past a poisoning: an insert leaves the map valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Creates an empty registry, ready to share.
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = lock(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name} already registered as {}", kind_of(other)),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = lock(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name} already registered as {}", kind_of(other)),
        }
    }

    /// Returns the histogram named `name`, registering it on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = lock(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name} already registered as {}", kind_of(other)),
        }
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = lock(&self.metrics);
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

fn kind_of(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "a counter",
        Metric::Gauge(_) => "a gauge",
        Metric::Histogram(_) => "a histogram",
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// What happened between `earlier` and `self` (two snapshots of
    /// the same registry, `self` taken later). Counters and histogram
    /// totals subtract; gauges keep their later value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (name, &v) in &self.counters {
            out.counters
                .insert(name.clone(), v.saturating_sub(earlier.counter(name)));
        }
        out.gauges = self.gauges.clone();
        for (name, h) in &self.histograms {
            let d = match earlier.histograms.get(name) {
                Some(e) => h.delta(e),
                None => h.clone(),
            };
            out.histograms.insert(name.clone(), d);
        }
        out
    }

    /// Merges another snapshot into this one (e.g. the same metric
    /// set recorded by several servers): counters and histograms add,
    /// gauges add (they count the same kind of resource).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Human-readable one-metric-per-line rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name} count={} sum={} min={} mean={:.1} p50={} p90={} p99={} max={}",
                h.count,
                h.sum,
                h.min,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.max,
            );
        }
        out
    }

    /// Machine-readable JSON rendering (single line, stable key
    /// order; no external dependencies).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
            );
        });
        out.push_str("}}");
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (name, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        json_escape_into(out, name);
        out.push_str("\":");
        write_value(out, value);
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.dec();
        g.add(-4);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_quantiles_within_range() {
        let h = Histogram::new();
        for v in [3u64, 14, 14, 900, 901, 902, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 3 + 14 + 14 + 900 + 901 + 902 + 10_000);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 10_000);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!(est >= s.min && est <= s.max, "q{q}: {est}");
        }
        assert!(s.quantile(0.99) >= s.quantile(0.5));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // All of 40_000..=59_999 lands in bucket [32768, 65535]; the
        // old upper-bound estimate pinned p50 == p90 == p99 == 65535
        // (clamped to max). Interpolation must spread them out and
        // keep them ordered.
        let h = Histogram::new();
        for v in 40_000u64..60_000 {
            h.record(v);
        }
        let s = h.snapshot();
        let (p50, p90, p99) = (s.quantile(0.5), s.quantile(0.9), s.quantile(0.99));
        assert!(p50 < p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
        assert!(p50 >= s.min && p50 <= s.max);
        assert_ne!(p50, 65_535, "p50 must not sit on the bucket bound");
        // The median of a uniform sample over one bucket should land
        // near the middle of the occupied range, not at either edge.
        assert!((40_000..60_000).contains(&p50), "p50={p50}");
    }

    #[test]
    fn quantiles_are_monotone_across_buckets() {
        // Uniform 1..=1000 spans ten log₂ buckets; the quantile
        // estimates must be strictly ordered and track the true
        // order statistics closely.
        let h = Histogram::new();
        for v in 1u64..=1000 {
            h.record(v);
        }
        let s = h.snapshot();
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let ests: Vec<u64> = qs.iter().map(|&q| s.quantile(q)).collect();
        for pair in ests.windows(2) {
            assert!(pair[0] <= pair[1], "non-monotone quantiles: {ests:?}");
        }
        assert!(ests.iter().all(|&e| e >= s.min && e <= s.max));
        let (p50, p90, p99) = (s.quantile(0.5), s.quantile(0.9), s.quantile(0.99));
        assert!(p50 < p90 && p90 < p99, "p50={p50} p90={p90} p99={p99}");
        // Within-bucket interpolation keeps the estimates near the
        // true quantiles (500 / 900 / 990) rather than at 511/1023.
        assert!((450..=550).contains(&p50), "p50={p50}");
        assert!((850..=950).contains(&p90), "p90={p90}");
        assert!(p99 >= 950, "p99={p99}");
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        // Single sample: every quantile is that sample.
        let h = Histogram::new();
        h.record(37);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 37);
        }
        // All zeros stay zero.
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.snapshot().quantile(0.9), 0);
    }

    #[test]
    fn merge_conserves_counts_and_sums() {
        let a = {
            let h = Histogram::new();
            h.record(1);
            h.record(100);
            h.snapshot()
        };
        let b = {
            let h = Histogram::new();
            h.record(7);
            h.snapshot()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 108);
        assert_eq!(m.min, 1);
        assert_eq!(m.max, 100);
    }

    #[test]
    fn delta_subtracts_windows() {
        let h = Histogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(1000);
        h.record(2000);
        let after = h.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 3000);
        assert!(d.min >= 10 && d.min <= 1000);
        assert!(d.max >= 1000 && d.max <= 2048);
    }

    #[test]
    fn registry_round_trip_and_rendering() {
        let r = Registry::new();
        r.counter("a.count").add(3);
        r.gauge("b.depth").set(-2);
        r.histogram("c.lat_us").record(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.count"), 3);
        assert_eq!(snap.gauge("b.depth"), -2);
        assert_eq!(snap.histogram("c.lat_us").unwrap().count, 1);
        let json = snap.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a.count\":3"));
        assert!(json.contains("\"b.depth\":-2"));
        assert!(json.contains("\"count\":1"));
        let text = snap.render_text();
        assert!(text.contains("a.count 3"));
        assert!(text.contains("c.lat_us count=1"));
    }

    #[test]
    fn registry_returns_same_handle() {
        let r = Registry::new();
        let c1 = r.counter("x");
        let c2 = r.counter("x");
        c1.inc();
        c2.inc();
        assert_eq!(r.snapshot().counter("x"), 2);
        assert!(Arc::ptr_eq(&c1, &c2));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("same.name");
        r.histogram("same.name");
    }

    #[test]
    fn timer_records_elapsed() {
        let r = Registry::new();
        let h = r.histogram("t_us");
        {
            let _t = h.start_timer();
            std::thread::sleep(Duration::from_millis(2));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.min >= 1_000, "expected >= 1ms, got {} us", s.min);
    }

    #[test]
    fn counter_sum_by_prefix() {
        let r = Registry::new();
        r.counter("core.group.1.deliveries").add(4);
        r.counter("core.group.2.deliveries").add(6);
        r.counter("core.deliveries").add(10);
        let snap = r.snapshot();
        assert_eq!(snap.counter_sum("core.group."), 10);
    }

    #[test]
    fn snapshot_delta_gauges_keep_latest() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(5);
        let a = r.snapshot();
        g.set(9);
        let b = r.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.gauge("depth"), 9);
    }
}
