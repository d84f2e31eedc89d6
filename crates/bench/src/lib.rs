//! # corona-bench
//!
//! The binaries that regenerate every table and figure of the paper's
//! evaluation (§5.2).
//!
//! | Artefact | Regenerate with |
//! |---|---|
//! | Figure 3 (round-trip vs #clients, stateful vs stateless) | `cargo run -p corona-bench --bin fig3_roundtrip` |
//! | §5.2.1 10 000-byte variant | `cargo run -p corona-bench --bin fig3_roundtrip -- --payload 10000` |
//! | Table 1 (server throughput) | `cargo run -p corona-bench --bin table1_throughput` |
//! | Table 2 (single vs replicated round-trip) | `cargo run -p corona-bench --bin table2_replicated` |
//!
//! Each runs the shipping servers stepped under the DES clock at the
//! 1999 testbed's costs (`corona-sim`), so a 300-client sweep takes
//! about a second and reproduces bit-for-bit. The per-layer costs of
//! today's hardware — codec, sequencing, log append, state transfer —
//! are `crates/e2e-bench`'s probes.

#![warn(missing_docs)]

/// Renders one row of a fixed-width report table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders a header plus separator.
pub fn header(cells: &[&str], widths: &[usize]) -> String {
    let head = row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep = widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("  ");
    format!("{head}\n{sep}")
}

/// Parses a `--flag value` style argument from `std::env::args`.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when `--flag` appears bare in `std::env::args`.
pub fn arg_present(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// This process's live thread count (`Threads:` in
/// `/proc/self/status`); `None` off Linux or if procfs is missing.
pub fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// This process's soft open-file limit (`Max open files` in
/// `/proc/self/limits`); `None` off Linux or if procfs is missing.
pub fn fd_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    let soft = line.split_whitespace().nth(3)?;
    if soft == "unlimited" {
        return Some(u64::MAX);
    }
    soft.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_align() {
        let widths = [6, 10];
        let r = row(&["5".into(), "12.3".into()], &widths);
        assert_eq!(r, "     5        12.3");
        let h = header(&["n", "ms"], &widths);
        assert!(h.contains("------"));
    }
}
