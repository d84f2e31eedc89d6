//! SLO tracking: latency budgets and error-budget burn rate.
//!
//! The tracker records end-to-end latency samples (client RTT or
//! delivery latency, in microseconds) into a wait-free
//! [`corona_metrics::Histogram`] for percentiles, and into a small
//! bucketed sliding window for burn-rate: the fraction of in-window
//! requests breaching the budget, divided by the allowed breach
//! fraction. A burn rate of 1.0 means the error budget is being spent
//! exactly as provisioned; above 1.0 it will be exhausted early.

use crate::lock;
use corona_metrics::Histogram;
use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of sub-buckets the sliding window is divided into.
const WINDOW_BUCKETS: u64 = 16;

/// Latency budget configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Latency budget in microseconds; samples above it breach.
    pub budget_us: u64,
    /// Sliding-window span for burn-rate, in milliseconds.
    pub window_ms: u64,
    /// Fraction of requests allowed to breach the budget (the error
    /// budget). Burn rate = observed breach fraction / this.
    pub allowed_breach_fraction: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            budget_us: 5_000,
            window_ms: 60_000,
            allowed_breach_fraction: 0.01,
        }
    }
}

/// One sub-bucket of the sliding window.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    start_ms: u64,
    total: u64,
    breached: u64,
}

/// Tracks latency samples against an [`SloConfig`].
#[derive(Debug)]
pub struct SloTracker {
    config: SloConfig,
    latency: Histogram,
    breaches: AtomicU64,
    window: Mutex<VecDeque<Bucket>>,
}

impl SloTracker {
    /// Creates a tracker for `config`.
    pub fn new(config: SloConfig) -> SloTracker {
        SloTracker {
            config,
            latency: Histogram::new(),
            breaches: AtomicU64::new(0),
            window: Mutex::new(VecDeque::new()),
        }
    }

    /// The configured budget.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Records one latency sample taken at `now_ms`.
    pub fn record(&self, latency_us: u64, now_ms: u64) {
        self.latency.record(latency_us);
        let breached = latency_us > self.config.budget_us;
        if breached {
            self.breaches.fetch_add(1, Ordering::Relaxed);
        }
        let span = (self.config.window_ms / WINDOW_BUCKETS).max(1);
        let start_ms = now_ms - now_ms % span;
        let mut window = lock(&self.window);
        match window.back_mut() {
            Some(b) if b.start_ms == start_ms => {
                b.total += 1;
                b.breached += u64::from(breached);
            }
            _ => window.push_back(Bucket {
                start_ms,
                total: 1,
                breached: u64::from(breached),
            }),
        }
        let horizon = now_ms.saturating_sub(self.config.window_ms);
        while window.front().is_some_and(|b| b.start_ms + span <= horizon) {
            window.pop_front();
        }
    }

    /// Error-budget burn rate over the window ending at `now_ms`:
    /// in-window breach fraction divided by the allowed fraction.
    /// Zero when no in-window samples exist.
    pub fn burn_rate(&self, now_ms: u64) -> f64 {
        let horizon = now_ms.saturating_sub(self.config.window_ms);
        let (mut total, mut breached) = (0u64, 0u64);
        let span = (self.config.window_ms / WINDOW_BUCKETS).max(1);
        for b in lock(&self.window).iter() {
            if b.start_ms + span > horizon {
                total += b.total;
                breached += b.breached;
            }
        }
        if total == 0 || self.config.allowed_breach_fraction <= 0.0 {
            0.0
        } else {
            (breached as f64 / total as f64) / self.config.allowed_breach_fraction
        }
    }

    /// Cuts a point-in-time SLO snapshot at `now_ms`.
    pub fn snapshot(&self, now_ms: u64) -> SloSnapshot {
        let hist = self.latency.snapshot();
        let max = hist.max;
        // Quantiles report log₂-bucket upper bounds; clamp to the true
        // max so p50 ≤ p90 ≤ p99 ≤ max holds exactly.
        let q = |q: f64| hist.quantile(q).min(max);
        SloSnapshot {
            budget_us: self.config.budget_us,
            window_ms: self.config.window_ms,
            count: hist.count,
            breaches: self.breaches.load(Ordering::Relaxed),
            mean_us: hist.mean(),
            p50_us: q(0.50),
            p90_us: q(0.90),
            p99_us: q(0.99),
            max_us: max,
            burn_rate: self.burn_rate(now_ms),
        }
    }
}

/// A point-in-time view of the SLO state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSnapshot {
    /// Configured latency budget, µs.
    pub budget_us: u64,
    /// Configured burn-rate window, ms.
    pub window_ms: u64,
    /// Samples recorded since start.
    pub count: u64,
    /// Samples that breached the budget since start.
    pub breaches: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 90th-percentile latency, µs.
    pub p90_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Maximum latency, µs.
    pub max_us: u64,
    /// Error-budget burn rate over the sliding window.
    pub burn_rate: f64,
}

impl SloSnapshot {
    /// Renders the snapshot as one JSON object with monotone
    /// percentiles (`p50_us ≤ p90_us ≤ p99_us ≤ max_us`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"budget_us\":{},\"window_ms\":{},\"count\":{},\"breaches\":{},\
             \"mean_us\":{:.1},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{},\
             \"burn_rate\":{:.4}}}",
            self.budget_us,
            self.window_ms,
            self.count,
            self.breaches,
            self.mean_us,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
            self.burn_rate
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(budget_us: u64, window_ms: u64, allowed: f64) -> SloConfig {
        SloConfig {
            budget_us,
            window_ms,
            allowed_breach_fraction: allowed,
        }
    }

    #[test]
    fn burn_rate_is_breach_fraction_over_allowance() {
        let slo = SloTracker::new(cfg(100, 1600, 0.1));
        for i in 0..10 {
            // 2 of 10 breach the 100µs budget.
            slo.record(if i < 2 { 500 } else { 50 }, i * 10);
        }
        let rate = slo.burn_rate(100);
        assert!(
            (rate - 2.0).abs() < 1e-9,
            "0.2 breach / 0.1 allowed = {rate}"
        );
        let snap = slo.snapshot(100);
        assert_eq!(snap.count, 10);
        assert_eq!(snap.breaches, 2);
    }

    #[test]
    fn old_samples_age_out_of_the_window() {
        let slo = SloTracker::new(cfg(100, 1600, 0.5));
        slo.record(500, 0); // breach at t=0
        assert!(slo.burn_rate(0) > 0.0);
        slo.record(50, 5_000); // fresh in-budget sample far later
        let rate = slo.burn_rate(5_000);
        assert_eq!(rate, 0.0, "breach aged out: {rate}");
    }

    #[test]
    fn percentiles_are_monotone_and_clamped_to_max() {
        let slo = SloTracker::new(SloConfig::default());
        for v in [10, 20, 30, 1000, 5000] {
            slo.record(v, 0);
        }
        let s = slo.snapshot(0);
        assert!(s.p50_us <= s.p90_us, "{s:?}");
        assert!(s.p90_us <= s.p99_us, "{s:?}");
        assert!(s.p99_us <= s.max_us, "{s:?}");
        assert_eq!(s.max_us, 5000);
    }

    #[test]
    fn empty_tracker_snapshots_cleanly() {
        let slo = SloTracker::new(SloConfig::default());
        let s = slo.snapshot(1234);
        assert_eq!(s.count, 0);
        assert_eq!(s.burn_rate, 0.0);
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }
}
