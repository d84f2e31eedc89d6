//! Capacity model: "how many clients can one replica sustain?"
//!
//! Fed by the simulator's population sweeps (`corona-sim`'s `paper`
//! bin, its FIG3 and TAB2 runs): each sweep point contributes an
//! observed (client count, p99 latency) pair, and the model reports
//! the largest sustainable population whose p99 stays within the
//! latency budget, interpolating linearly between the last passing and
//! first breaching points. `paper --json` writes the rendered JSON into
//! `BENCH_*.json` as a regression baseline.

use std::fmt::Write;

/// One observed sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityPoint {
    /// Concurrent clients per replica at this point.
    pub clients: u64,
    /// Observed 99th-percentile latency, µs.
    pub p99_us: u64,
}

/// Latency-budgeted capacity model over a population sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityModel {
    budget_us: u64,
    points: Vec<CapacityPoint>,
}

impl CapacityModel {
    /// Creates an empty model with the given p99 budget (µs).
    pub fn new(budget_us: u64) -> CapacityModel {
        CapacityModel {
            budget_us,
            points: Vec::new(),
        }
    }

    /// The p99 budget, µs.
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    /// Adds one sweep observation. Points are kept sorted by client
    /// count so sweeps may arrive in any order.
    pub fn push(&mut self, point: CapacityPoint) {
        let at = self.points.partition_point(|p| p.clients <= point.clients);
        self.points.insert(at, point);
    }

    /// The recorded sweep points, sorted by client count.
    pub fn points(&self) -> &[CapacityPoint] {
        &self.points
    }

    /// Maximum sustainable clients per replica at p99 ≤ budget.
    ///
    /// Returns the largest observed passing population; when the next
    /// sweep point breaches, interpolates linearly between the two to
    /// estimate where p99 crosses the budget. Zero when even the
    /// smallest population breaches; when *no* point breaches, the
    /// largest observed population (the sweep never found the knee).
    pub fn max_sustainable(&self) -> u64 {
        let mut last_pass: Option<CapacityPoint> = None;
        for &p in &self.points {
            if p.p99_us <= self.budget_us {
                last_pass = Some(p);
            } else {
                return match last_pass {
                    None => 0,
                    Some(pass) => {
                        let span_p99 = p.p99_us.saturating_sub(pass.p99_us);
                        if span_p99 == 0 || p.clients <= pass.clients {
                            pass.clients
                        } else {
                            let frac = (self.budget_us - pass.p99_us) as f64 / span_p99 as f64;
                            pass.clients + ((p.clients - pass.clients) as f64 * frac).floor() as u64
                        }
                    }
                };
            }
        }
        last_pass.map_or(0, |p| p.clients)
    }

    /// Renders the model as one JSON object for `BENCH_*.json`.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"schema\":{},\"budget_us\":{},\"points\":[",
            crate::SCHEMA_VERSION,
            self.budget_us
        );
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"clients\":{},\"p99_us\":{}}}", p.clients, p.p99_us);
        }
        let _ = write!(
            out,
            "],\"max_sustainable_clients\":{}}}",
            self.max_sustainable()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(clients: u64, p99_us: u64) -> CapacityPoint {
        CapacityPoint { clients, p99_us }
    }

    #[test]
    fn interpolates_between_pass_and_breach() {
        let mut m = CapacityModel::new(1000);
        m.push(pt(10, 400));
        m.push(pt(20, 1600));
        // Crosses 1000µs halfway between 10 and 20 clients.
        assert_eq!(m.max_sustainable(), 15);
    }

    #[test]
    fn all_passing_reports_largest_observed() {
        let mut m = CapacityModel::new(10_000);
        m.push(pt(40, 900));
        m.push(pt(10, 300));
        assert_eq!(m.max_sustainable(), 40);
        assert_eq!(m.points()[0].clients, 10, "points kept sorted");
    }

    #[test]
    fn first_point_breaching_reports_zero() {
        let mut m = CapacityModel::new(100);
        m.push(pt(5, 500));
        assert_eq!(m.max_sustainable(), 0);
    }

    #[test]
    fn empty_model_reports_zero() {
        assert_eq!(CapacityModel::new(100).max_sustainable(), 0);
    }

    #[test]
    fn json_has_schema_points_and_estimate() {
        let mut m = CapacityModel::new(1000);
        m.push(pt(10, 400));
        m.push(pt(20, 1600));
        let json = m.render_json();
        assert!(json.contains("\"schema\":1"), "{json}");
        assert!(json.contains("\"budget_us\":1000"), "{json}");
        assert!(json.contains("{\"clients\":10,\"p99_us\":400}"), "{json}");
        assert!(json.contains("\"max_sustainable_clients\":15"), "{json}");
    }
}
