//! Command line of the benchmark; `run.sh` builds and calls it.
//!
//! ```text
//! corona-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! corona-e2e-bench --trace <workload>          # traced run, defaults
//! corona-e2e-bench --check-repeat [N]          # two sets of N runs each
//! ```
//!
//! The last line of standard output is the result as one JSON object.
//! Exit code 1 means an output was wrong, 2 that the benchmark could
//! not run here.

use corona_e2e_bench::repeat;
use corona_e2e_bench::run::{run, Options, Report};
use corona_e2e_bench::workload::{self, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Generator threads allowed: thread A (main) and thread B.
const GENERATOR_THREADS: usize = 2;
/// Sockets the widest workload holds, with room for the servers' own.
const MIN_OPEN_FILES: u64 = 2048;

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       --check-repeat [N]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn open_files_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|l| l.split_whitespace().next()?.parse().ok())
        .unwrap_or(u64::MAX)
}

fn git_sha() -> String {
    // Only ask git about this directory: outside a work tree it would
    // go looking through the parents.
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".into(), |l| {
            l.trim_start_matches([' ', '\t', ':']).to_string()
        })
}

fn print_result(correct: bool, report: &Report) {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20.0f64, false);
    let mut check_repeat = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--seconds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seconds = v,
                None => return usage(),
            },
            // `--trace 0|1`, or `--trace <workload>` as a shorthand.
            "--trace" => match it.next().map(String::as_str) {
                Some("0") => trace = false,
                Some("1") => trace = true,
                Some(name) => {
                    trace = true;
                    workload = Some(name.to_string());
                }
                None => return usage(),
            },
            "--check-repeat" => {
                check_repeat = Some(
                    it.next_if(|v| !v.starts_with("--"))
                        .map_or(Some(5), |v| v.parse().ok()),
                );
            }
            _ => return usage(),
        }
    }

    let limit = open_files_limit();
    if limit < MIN_OPEN_FILES {
        eprintln!("error: ulimit -n is {limit}; the benchmark needs {MIN_OPEN_FILES}");
        return ExitCode::from(2);
    }
    if let Some(n) = check_repeat {
        let Some(n) = n else { return usage() };
        return match repeat::check_repeat(n, &PathBuf::from("BENCHMARK.json")) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(spec) = workload.as_deref().and_then(workload::find) else {
        return usage();
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    // Flight-recorder dumps (watchdog trips, elections while tracing)
    // default to the system temp directory; keep them in the checkout.
    // Set before any thread exists.
    std::env::set_var("CORONA_TRACE_DIR", target.join("e2e-bench"));
    let opts = Options {
        seed,
        seconds,
        trace,
        scale: 1.0,
        out_dir: target.join("e2e-bench"),
    };
    println!(
        "stamp {{\"git\": \"{}\", \"cpu\": \"{}\", \"nproc\": {}, \"ulimit_n\": {limit}, \
         \"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"groups\": {}, \"members\": {}, \"payload\": {}, \"depth\": {}, \"paced_rate\": {}}}",
        git_sha(),
        cpu_model(),
        std::thread::available_parallelism().map_or(0, usize::from),
        spec.name,
        spec.groups,
        spec.members,
        spec.payload,
        spec.depth,
        spec.paced_rate
    );
    let mut report = match run(&spec, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if report.generator_threads > GENERATOR_THREADS {
        report.problems.push(format!(
            "{} generator threads, {GENERATOR_THREADS} allowed",
            report.generator_threads
        ));
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value:.3} {unit}");
    }
    println!("attempted {} failed {}", report.attempted, report.failed);
    if let Some(path) = &report.span_file {
        println!("spans {}", path.display());
    }
    for problem in &report.problems {
        eprintln!("audit: {problem}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    print_result(correct, &report);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
