//! Every workload at 1/20 scale: it finishes quickly, passes its own
//! audit, and reports exactly the metrics `BENCHMARK.json` lists.

use corona_e2e_bench::json::{self, Value};
use corona_e2e_bench::run::{run, Options, Report};
use corona_e2e_bench::workload::{find, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn small(name: &str, trace: bool) -> Report {
    let spec = find(name).expect("known workload");
    let opts = Options {
        seed: 42,
        seconds: 1.0,
        trace,
        scale: 0.05,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    };
    let started = Instant::now();
    let report = run(&spec, &opts).expect("workload runs");
    let limit = Duration::from_secs(if trace { 10 } else { 5 });
    assert!(
        started.elapsed() < limit,
        "{name} took {:?} at 1/20 scale",
        started.elapsed()
    );
    assert_eq!(report.problems, Vec::<String>::new(), "{name} audit");
    assert_eq!(report.failed, 0, "{name} failed operations");
    assert!(report.attempted > 0);
    report
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|(name, _, _)| *name).collect()
}

fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|(name, _)| *name).collect()
}

fn check_end_to_end(name: &str) {
    let report = small(name, false);
    assert_eq!(names(&report), end_to_end_names());
    for (metric, value, _) in &report.metrics {
        assert!(*value > 0.0, "{name}: {metric} is {value}");
    }
}

#[test]
fn fanout_wide_small() {
    check_end_to_end("fanout_wide");
}

#[test]
fn small_groups_small() {
    check_end_to_end("small_groups");
}

#[test]
fn late_join_small() {
    check_end_to_end("late_join");
}

#[test]
fn replicated_star_small() {
    check_end_to_end("replicated_star");
}

#[test]
fn traced_run_reports_every_layer_and_writes_spans() {
    let report = small("small_groups", true);
    let expected: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    assert_eq!(names(&report), expected);
    let value = |name: &str| {
        let metric = report.metrics.iter().find(|(n, _, _)| *n == name);
        metric.unwrap_or_else(|| panic!("{name} missing")).1
    };
    assert_eq!(value("core.fanout_encodes_per_bcast"), 1.0);
    assert_eq!(value("replication.election_rounds"), 0.0);
    assert!(value("types.encode_ns_per_msg") > 0.0);
    assert!(value("trace.hop.sequence_p50_us") >= 0.0);

    let spans = std::fs::read_to_string(report.span_file.expect("span file")).unwrap();
    let spans = json::parse(&spans).expect("span file is JSON");
    let spans = spans.get("spans").expect("spans key").items();
    let has = |name: &str| {
        spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some(name))
    };
    for name in [
        "broadcast",
        "client.encode_write",
        "server.opaque",
        "client.read_decode",
        "probe.statelog.append_ns",
    ] {
        assert!(has(name), "no {name} span");
    }
}

/// `BENCHMARK.json` and the code name the same workloads and metrics,
/// with the same units.
#[test]
fn benchmark_json_is_in_step_with_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let benchmark = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str, field: &str| -> Vec<String> {
        let entries = benchmark.get(key).expect(key).items();
        entries
            .iter()
            .map(|e| {
                e.get(field)
                    .and_then(Value::as_str)
                    .expect(field)
                    .to_string()
            })
            .collect()
    };
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed("workloads", "name"), workloads);
    assert_eq!(listed("end_to_end", "name"), end_to_end_names());
    let units: Vec<&str> = END_TO_END.iter().map(|(_, unit)| *unit).collect();
    assert_eq!(listed("end_to_end", "unit"), units);
    let layer_names: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed("per_layer", "name"), layer_names);
    let layer_units: Vec<&str> = PER_LAYER.iter().map(|(_, unit)| *unit).collect();
    assert_eq!(listed("per_layer", "unit"), layer_units);
    let paths = benchmark.get("paths").expect("paths").items();
    assert_eq!(paths, [Value::String("crates/e2e-bench".into())]);
}
