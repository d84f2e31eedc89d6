//! Per-message causal tracing for the Corona stack.
//!
//! Where [`corona-metrics`](../corona_metrics/index.html) answers "how
//! many / how long in aggregate", this crate answers "where did *this*
//! message spend its time". A traced message carries a compact
//! [`TraceId`] (plus its origin timestamp) across the wire, and every
//! layer it crosses records a [`SpanEvent`] naming the [`Hop`]:
//!
//! > client submit → server ingress → sequencing → statelog append /
//! > fsync → replication forward / ack → fan-out enqueue → client
//! > delivery.
//!
//! Span events go to a process-wide **flight recorder**: one bounded
//! lock-free ring buffer per recording thread, fixed memory, zero heap
//! allocation on the hot path (the ring is allocated once, on a
//! thread's first recorded span). Tracing is off by default; when
//! disabled, [`record`] is a single relaxed atomic load — cheap enough
//! to leave call sites in release builds.
//!
//! The recorded spans can be exported as JSONL or as Chrome
//! `trace_event` JSON ([`to_jsonl`], [`to_chrome_trace`]), aggregated
//! into a per-hop latency breakdown ([`Breakdown`]), or dumped
//! wholesale on a failure ([`flight_dump`] — wired into
//! `corona-replication`'s election path so a failover leaves a
//! post-mortem artifact behind).
//!
//! Timestamps from [`now_us`] are *monotonic microseconds since the
//! first use in this process* — comparable within a process (which is
//! where span chains are assembled), not across machines. There is no
//! virtual-clock variant: `corona-sim` steps the shipping servers and
//! client sessions, which record through these same call sites, so a
//! simulated run's spans carry this process clock too — they say where
//! the host's time went, not where virtual time did.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod breakdown;
mod export;
mod ring;

pub use breakdown::{Breakdown, HopStats};
pub use export::{to_chrome_trace, to_jsonl};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A compact per-message trace identifier.
///
/// `0` ([`TraceId::NONE`]) means "untraced"; infrastructure spans
/// (fsyncs, disconnects, elections) that are not tied to one message
/// use it. Real ids come from [`next_trace_id`] and are unique within
/// a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "no trace" id carried by infrastructure spans.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this id names an actual message trace.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The instrumented hops of a message's path through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Hop {
    /// Client library accepted a broadcast and put it on the wire.
    ClientSubmit = 0,
    /// Server dispatcher decoded the request off the wire.
    ServerIngress = 1,
    /// The sequencer assigned the message its place in the total
    /// order (the `ServerCore` handle stage; on a replicated service,
    /// the coordinator).
    Sequence = 2,
    /// A member server forwarded the message towards the coordinator.
    ReplForward = 3,
    /// The sequenced copy (or outcome) came back from the coordinator.
    ReplAck = 4,
    /// The sequenced update was appended to the state log.
    LogAppend = 5,
    /// The state log was fsynced to stable storage.
    LogFsync = 6,
    /// The multicast copies were enqueued to the receivers'
    /// connections.
    FanoutEnqueue = 7,
    /// A client received its copy of the multicast.
    ClientDeliver = 8,
    /// A transport connection ended (arg: 0 = clean peer disconnect,
    /// 1 = error / torn stream).
    Disconnect = 9,
    /// A coordinator election resolved (arg: the epoch).
    Election = 10,
}

impl Hop {
    /// Every hop, in causal path order.
    pub const ALL: [Hop; 11] = [
        Hop::ClientSubmit,
        Hop::ServerIngress,
        Hop::ReplForward,
        Hop::Sequence,
        Hop::ReplAck,
        Hop::LogAppend,
        Hop::LogFsync,
        Hop::FanoutEnqueue,
        Hop::ClientDeliver,
        Hop::Disconnect,
        Hop::Election,
    ];

    /// Stable snake_case name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Hop::ClientSubmit => "client_submit",
            Hop::ServerIngress => "server_ingress",
            Hop::Sequence => "sequence",
            Hop::ReplForward => "repl_forward",
            Hop::ReplAck => "repl_ack",
            Hop::LogAppend => "log_append",
            Hop::LogFsync => "log_fsync",
            Hop::FanoutEnqueue => "fanout_enqueue",
            Hop::ClientDeliver => "client_deliver",
            Hop::Disconnect => "disconnect",
            Hop::Election => "election",
        }
    }

    /// Inverse of the `repr(u8)` discriminant, for decoding recorder
    /// slots.
    pub fn from_u8(tag: u8) -> Option<Hop> {
        Some(match tag {
            0 => Hop::ClientSubmit,
            1 => Hop::ServerIngress,
            2 => Hop::Sequence,
            3 => Hop::ReplForward,
            4 => Hop::ReplAck,
            5 => Hop::LogAppend,
            6 => Hop::LogFsync,
            7 => Hop::FanoutEnqueue,
            8 => Hop::ClientDeliver,
            9 => Hop::Disconnect,
            10 => Hop::Election,
            _ => return None,
        })
    }
}

/// One recorded span: a hop, when it happened, how long it took, and
/// an uninterpreted argument (receiver count, epoch, error flag, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The message this span belongs to ([`TraceId::NONE`] for
    /// infrastructure spans).
    pub trace: TraceId,
    /// Which hop this is.
    pub hop: Hop,
    /// Timestamp in microseconds ([`now_us`] for live runs, virtual
    /// time for simulated ones).
    pub ts_us: u64,
    /// Duration of the hop's work in microseconds (0 for point
    /// events).
    pub dur_us: u64,
    /// Hop-specific argument.
    pub arg: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns tracing on or off process-wide. Off is the default; while
/// off, [`record`] does nothing (and allocates nothing).
pub fn set_enabled(on: bool) {
    // Touch the clock before the first span so ts 0 predates them.
    if on {
        let _ = now_us();
    }
    ENABLED.store(on, Ordering::Release);
}

/// Whether tracing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Allocates a fresh process-unique trace id.
pub fn next_trace_id() -> TraceId {
    TraceId(NEXT_ID.fetch_add(1, Ordering::Relaxed))
}

/// Monotonic microseconds since this process first touched the trace
/// clock.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Records a span at the current time. No-op (one relaxed load) when
/// tracing is disabled; otherwise writes one fixed-size slot in the
/// calling thread's ring buffer — no locks, no heap allocation.
#[inline]
pub fn record(hop: Hop, trace: TraceId, dur_us: u64, arg: u64) {
    if !enabled() {
        return;
    }
    ring::push(SpanEvent {
        trace,
        hop,
        ts_us: now_us(),
        dur_us,
        arg,
    });
}

/// Records a span with an explicit timestamp (used by the client
/// session, which stamps a frame with the time it read it, and by
/// tests). Gated on [`enabled`] like [`record`].
#[inline]
pub fn record_at(event: SpanEvent) {
    if !enabled() {
        return;
    }
    ring::push(event);
}

/// Snapshots every thread's ring buffer into one list, oldest first
/// by timestamp. Rings are bounded: under sustained load each keeps
/// only its most recent spans (that is the point of a flight
/// recorder).
pub fn drain() -> Vec<SpanEvent> {
    let mut spans = ring::collect();
    spans.sort_by_key(|s| (s.ts_us, s.hop as u8));
    spans
}

/// Empties every ring buffer (test isolation between scenarios).
pub fn clear() {
    ring::clear();
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Dumps the flight recorder to a JSONL file and returns its path.
///
/// Files land in `$CORONA_TRACE_DIR` if set, else the system temp
/// directory, named `corona-flight-<reason>-<pid>-<n>.jsonl`. Returns
/// `None` when tracing is disabled, no spans were recorded, or the
/// write failed (a diagnostics path must never take the service
/// down).
pub fn flight_dump(reason: &str) -> Option<std::path::PathBuf> {
    if !enabled() {
        return None;
    }
    let spans = drain();
    if spans.is_empty() {
        return None;
    }
    let dir = std::env::var_os("CORONA_TRACE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "corona-flight-{reason}-{}-{n}.jsonl",
        std::process::id()
    ));
    match std::fs::write(&path, to_jsonl(&spans)) {
        Ok(()) => {
            eprintln!(
                "corona-trace: dumped {} spans ({reason}) to {}",
                spans.len(),
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!("corona-trace: flight dump failed (continuing): {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The flight recorder is process-global, so the unit tests of this
    // module serialise on a lock and re-enable/clear around each use.
    use std::sync::Mutex;
    static GUARD: Mutex<()> = Mutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        clear();
        out
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        clear();
        record(Hop::ClientSubmit, TraceId(7), 0, 0);
        assert!(drain().is_empty());
    }

    #[test]
    fn recorded_spans_come_back_in_time_order() {
        with_tracing(|| {
            let id = next_trace_id();
            record(Hop::ClientSubmit, id, 0, 0);
            record(Hop::ServerIngress, id, 2, 0);
            record(Hop::ClientDeliver, id, 0, 9);
            let spans = drain();
            let chain: Vec<&SpanEvent> = spans.iter().filter(|s| s.trace == id).collect();
            assert_eq!(chain.len(), 3);
            assert_eq!(chain[0].hop, Hop::ClientSubmit);
            assert_eq!(chain[2].hop, Hop::ClientDeliver);
            assert!(chain.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
            assert_eq!(chain[2].arg, 9);
        });
    }

    #[test]
    fn ring_overflow_keeps_most_recent_spans() {
        with_tracing(|| {
            let total = ring::CAPACITY as u64 + 100;
            for i in 0..total {
                record_at(SpanEvent {
                    trace: TraceId(1),
                    hop: Hop::FanoutEnqueue,
                    ts_us: i,
                    dur_us: 0,
                    arg: i,
                });
            }
            let spans = drain();
            assert_eq!(spans.len(), ring::CAPACITY);
            // The survivors are exactly the newest CAPACITY spans.
            assert_eq!(spans.first().unwrap().arg, 100);
            assert_eq!(spans.last().unwrap().arg, total - 1);
        });
    }

    #[test]
    fn spans_from_multiple_threads_are_all_collected() {
        with_tracing(|| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    std::thread::spawn(move || {
                        for i in 0..50 {
                            record(Hop::LogAppend, TraceId(t + 1), 0, i);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let spans = drain();
            assert_eq!(spans.len(), 200);
            for t in 1..=4u64 {
                assert_eq!(spans.iter().filter(|s| s.trace == TraceId(t)).count(), 50);
            }
        });
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert!(a.is_some() && b.is_some());
        assert!(!TraceId::NONE.is_some());
    }

    #[test]
    fn hop_tags_roundtrip() {
        for hop in Hop::ALL {
            assert_eq!(Hop::from_u8(hop as u8), Some(hop));
            assert!(!hop.name().is_empty());
        }
        assert_eq!(Hop::from_u8(200), None);
    }

    #[test]
    fn flight_dump_writes_jsonl() {
        with_tracing(|| {
            record(Hop::Election, TraceId::NONE, 0, 3);
            let dir =
                std::env::temp_dir().join(format!("corona-trace-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            std::env::set_var("CORONA_TRACE_DIR", &dir);
            let path = flight_dump("unit").expect("dump path");
            std::env::remove_var("CORONA_TRACE_DIR");
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(body.contains("\"hop\":\"election\""));
            std::fs::remove_dir_all(&dir).ok();
        });
    }

    #[test]
    fn flight_dump_is_none_when_disabled_or_empty() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        clear();
        assert!(flight_dump("off").is_none());
        set_enabled(true);
        assert!(flight_dump("empty").is_none());
        set_enabled(false);
    }
}
