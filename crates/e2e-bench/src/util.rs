//! Small helpers shared by the harness: a seeded generator, order
//! statistics and `/proc` readers for CPU time, memory and threads.

use std::time::Duration;

/// SplitMix64: every input the benchmark generates (payload bytes,
/// object order, join-policy order) comes from one of these, seeded
/// from `--seed`, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform number in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The `q`-quantile of `samples` by linear interpolation between
/// order statistics (0.0 for an empty slice). Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Microseconds in `d`, with the sub-microsecond part kept.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// User + system CPU time of the whole process so far, from
/// `/proc/self/stat` (threads that already exited included). The
/// kernel reports it in clock ticks, 100 per second on Linux.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are
    // counted from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    Duration::from_millis((utime + stime) * 10)
}

/// On-CPU time of the calling thread so far, from
/// `/proc/thread-self/schedstat` (nanosecond resolution).
pub fn thread_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    Duration::from_nanos(ns)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Names of every live thread of the process.
pub fn thread_names() -> Vec<String> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// Whether a thread name belongs to the servers under test (reactor
/// shards, dispatcher, fan-out workers, logger, replication threads)
/// rather than to the load generator.
pub fn is_server_thread(name: &str) -> bool {
    ["corona-", "repl-", "tcp-read-", "tcp-write-"]
        .iter()
        .any(|p| name.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.bytes(100), b.bytes(100));
        assert_ne!(Rng::new(8).bytes(100), a.bytes(100));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!thread_names().is_empty());
        // A thread this young may not have been charged a nanosecond yet.
        let _ = (process_cpu(), thread_cpu());
    }
}
