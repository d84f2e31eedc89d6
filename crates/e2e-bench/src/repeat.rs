//! `--check-repeat`: does the benchmark agree with itself? Two sets of
//! runs of every workload on the same build, compared metric by metric
//! against the bounds `BENCHMARK.json` fixes — the same test a later
//! change has to pass against its parent.

use crate::json::{self, Value};
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The quartiles of `values`, as Python's
/// `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

struct Bound {
    higher_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let mut out = BTreeMap::new();
    for metric in benchmark.get("end_to_end").map_or(&[][..], Value::items) {
        let field = |key: &str| {
            metric
                .get(key)
                .ok_or(format!("end_to_end entry lacks {key}"))
        };
        out.insert(
            field("name")?.as_str().unwrap_or_default().to_string(),
            Bound {
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            },
        );
    }
    Ok(out)
}

/// Runs this executable once and returns its end-to-end metrics.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed}: run failed: {last}"));
    }
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return Err(format!("{workload} seed {seed}: no metrics"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Runs two sets of `n` runs of every workload and prints, per
/// workload and end-to-end metric, both medians and quartile spreads,
/// how much worse the second set is than the first, and PASS or FAIL
/// against the metric's bound. Returns whether everything passed.
///
/// # Errors
///
/// An unreadable `BENCHMARK.json`, or a run that failed.
pub fn check_repeat(n: usize, benchmark_json: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let benchmark = json::parse(&text)?;
    let seconds = benchmark
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json lacks run_seconds")? as u64;
    let bounds = bounds(&benchmark)?;
    let mut all_pass = true;
    println!(
        "{:<16} {:<20} {:>12} {:>7} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "worse", "bound"
    );
    for spec in WORKLOADS {
        // samples[set][metric] = values
        let mut samples = [BTreeMap::new(), BTreeMap::new()];
        for (set, per_metric) in samples.iter_mut().enumerate() {
            for i in 0..n {
                let seed = (set * n + i + 1) as u64;
                eprintln!("check-repeat: {} set {} run {}", spec.name, set + 1, i + 1);
                for (name, value) in one_run(spec.name, seed, seconds)? {
                    per_metric.entry(name).or_insert_with(Vec::new).push(value);
                }
            }
        }
        for (name, limit) in &bounds {
            let stats = |set: &BTreeMap<String, Vec<f64>>| {
                let [q1, q2, q3] = quartiles(set.get(name).map_or(&[][..], Vec::as_slice));
                (q2, (q3 - q1) / q2)
            };
            let (median_a, iqr_a) = stats(&samples[0]);
            let (median_b, iqr_b) = stats(&samples[1]);
            let worse = if limit.higher_is_better {
                (median_a - median_b) / median_a
            } else {
                (median_b - median_a) / median_a
            };
            // set-up time is judged on its median alone.
            let spread_ok = name == "setup_s" || iqr_a.max(iqr_b) <= limit.bound;
            let pass = worse <= limit.bound && spread_ok;
            all_pass &= pass;
            println!(
                "{:<16} {:<20} {:>12.3} {:>6.1}% {:>12.3} {:>6.1}% {:>6.1}% {:>5.0}%  {}",
                spec.name,
                name,
                median_a,
                iqr_a * 100.0,
                median_b,
                iqr_b * 100.0,
                worse * 100.0,
                limit.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 2.0, 9.0, 3.0, 8.0, 4.0, 7.0, 5.0, 6.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
