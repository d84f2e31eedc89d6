//! The lock-free health registry.
//!
//! Server runtimes publish health facts into the registry from their
//! hot paths (the dispatcher and its fan-out) using relaxed atomics; the
//! registry is only locked to *register* a new group cell or to cut a
//! snapshot — mirroring the design of `corona_metrics::Registry`.

use crate::lock;
use crate::slo::{SloConfig, SloTracker};
use crate::watchdog::OpsEvent;
use corona_types::id::GroupId;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Ops events retained for introspection (the JSONL line is the
/// durable record; this ring only feeds the `Health` snapshot).
const OPS_RING: usize = 64;

/// Per-group health cell. All fields are relaxed atomics: single
/// writers per fact, read by the snapshot path.
#[derive(Debug, Default)]
pub struct GroupHealth {
    /// Broadcasts submitted for sequencing from this replica (counts
    /// retries; used only to detect "submitted but nothing sequenced").
    submitted: AtomicU64,
    /// Count of sequenced updates observed (progress signal).
    sequenced_count: AtomicU64,
    /// Highest sequence number sequenced, as observed here.
    sequenced: AtomicU64,
    /// Highest sequence number handed to a local client's transmit
    /// queue.
    delivered: AtomicU64,
    /// Tail of the hot-standby log copy (replicated runtime only).
    standby_tail: AtomicU64,
    /// Whether a standby copy exists (gives `replication_gap` meaning).
    has_standby: AtomicBool,
    /// Current local membership size.
    members: AtomicU64,
    /// Cumulative joins (churn numerator, with `leaves`).
    joins: AtomicU64,
    /// Cumulative leaves/disconnects.
    leaves: AtomicU64,
}

impl GroupHealth {
    /// Notes one broadcast submitted for sequencing.
    pub fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a sequenced update with sequence number `seq`.
    pub fn note_sequenced(&self, seq: u64) {
        self.sequenced_count.fetch_add(1, Ordering::Relaxed);
        self.sequenced.fetch_max(seq, Ordering::Relaxed);
    }

    /// Notes that `seq` was handed to a local client transmit queue.
    pub fn note_delivered(&self, seq: u64) {
        self.delivered.fetch_max(seq, Ordering::Relaxed);
    }

    /// Publishes the standby log tail.
    pub fn note_standby_tail(&self, seq: u64) {
        self.has_standby.store(true, Ordering::Relaxed);
        self.standby_tail.store(seq, Ordering::Relaxed);
    }

    /// Publishes the current membership size.
    pub fn set_members(&self, n: u64) {
        self.members.store(n, Ordering::Relaxed);
    }

    /// Notes one member joining (churn only; the membership *size* is
    /// published exactly by the runtime via [`GroupHealth::set_members`],
    /// so approximate churn counting can never skew it).
    pub fn note_join(&self) {
        self.joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one member leaving (or being disconnected).
    pub fn note_leave(&self) {
        self.leaves.fetch_add(1, Ordering::Relaxed);
    }

    /// Broadcasts submitted from this replica.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Count of sequenced updates observed.
    pub fn sequenced_count(&self) -> u64 {
        self.sequenced_count.load(Ordering::Relaxed)
    }

    /// Highest sequenced sequence number observed.
    pub fn sequenced(&self) -> u64 {
        self.sequenced.load(Ordering::Relaxed)
    }

    /// Highest locally delivered sequence number.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Sequencer lag: highest sequenced minus highest delivered.
    pub fn lag(&self) -> u64 {
        self.sequenced().saturating_sub(self.delivered())
    }

    /// Replication gap: highest sequenced minus the standby tail, or
    /// zero when no standby copy is tracked.
    pub fn replication_gap(&self) -> u64 {
        if self.has_standby.load(Ordering::Relaxed) {
            self.sequenced()
                .saturating_sub(self.standby_tail.load(Ordering::Relaxed))
        } else {
            0
        }
    }

    /// Current membership size.
    pub fn members(&self) -> u64 {
        self.members.load(Ordering::Relaxed)
    }

    /// Cumulative (joins, leaves).
    pub fn churn(&self) -> (u64, u64) {
        (
            self.joins.load(Ordering::Relaxed),
            self.leaves.load(Ordering::Relaxed),
        )
    }
}

/// Backpressure state of one connection, gathered by the runtime at
/// snapshot time (it owns the connections; the registry does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnPressure {
    /// Runtime connection id.
    pub conn_id: u64,
    /// Outbound frames accepted but not yet handed to the peer.
    pub backlog: u64,
    /// Whether the backlog exceeds the runtime's pressure threshold.
    pub backpressured: bool,
}

/// The health registry: one per server runtime.
pub struct HealthRegistry {
    snapshot_seq: AtomicU64,
    groups: Mutex<BTreeMap<GroupId, Arc<GroupHealth>>>,
    queue_hwm: AtomicU64,
    queue_capacity: AtomicU64,
    elections: AtomicU64,
    reconnects: AtomicU64,
    fenced: AtomicBool,
    last_trace: AtomicU64,
    slo: SloTracker,
    ops: Mutex<VecDeque<OpsEvent>>,
}

impl HealthRegistry {
    /// Creates a registry whose SLO tracker uses `slo`.
    pub fn new(slo: SloConfig) -> Arc<HealthRegistry> {
        Arc::new(HealthRegistry {
            snapshot_seq: AtomicU64::new(0),
            groups: Mutex::new(BTreeMap::new()),
            queue_hwm: AtomicU64::new(0),
            queue_capacity: AtomicU64::new(0),
            elections: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            fenced: AtomicBool::new(false),
            last_trace: AtomicU64::new(0),
            slo: SloTracker::new(slo),
            ops: Mutex::new(VecDeque::new()),
        })
    }

    /// The health cell for `group`, created on first use.
    pub fn group(&self, group: GroupId) -> Arc<GroupHealth> {
        Arc::clone(
            lock(&self.groups)
                .entry(group)
                .or_insert_with(|| Arc::new(GroupHealth::default())),
        )
    }

    /// All registered group cells, in group-id order.
    pub fn groups(&self) -> Vec<(GroupId, Arc<GroupHealth>)> {
        lock(&self.groups)
            .iter()
            .map(|(g, cell)| (*g, Arc::clone(cell)))
            .collect()
    }

    /// Records an observed fan-out transmit-queue depth; keeps the
    /// high-watermark.
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Fan-out transmit-queue high-watermark since start.
    pub fn queue_hwm(&self) -> u64 {
        self.queue_hwm.load(Ordering::Relaxed)
    }

    /// Publishes the configured per-connection transmit-queue bound.
    pub fn set_queue_capacity(&self, cap: u64) {
        self.queue_capacity.store(cap, Ordering::Relaxed);
    }

    /// The configured per-connection transmit-queue bound.
    pub fn queue_capacity(&self) -> u64 {
        self.queue_capacity.load(Ordering::Relaxed)
    }

    /// Notes a resolved election (epoch change observed locally).
    pub fn note_election(&self) {
        self.elections.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolved elections observed since start.
    pub fn elections(&self) -> u64 {
        self.elections.load(Ordering::Relaxed)
    }

    /// Notes a client session resume (reconnect).
    pub fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Session resumes observed since start.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Publishes whether this server is currently write-fenced (it
    /// holds the coordinator role but has lost its quorum lease, or it
    /// is a healed stale coordinator awaiting reconciliation).
    pub fn set_fenced(&self, fenced: bool) {
        self.fenced.store(fenced, Ordering::Relaxed);
    }

    /// Whether the server is currently write-fenced.
    pub fn fenced(&self) -> bool {
        self.fenced.load(Ordering::Relaxed)
    }

    /// Remembers the most recent wire-carried trace id seen by the
    /// runtime, so a watchdog trip can name the traffic that was in
    /// flight when the condition arose.
    pub fn note_trace(&self, id: u64) {
        if id != 0 {
            self.last_trace.store(id, Ordering::Relaxed);
        }
    }

    /// The most recent trace id seen (0 when tracing is off).
    pub fn last_trace(&self) -> u64 {
        self.last_trace.load(Ordering::Relaxed)
    }

    /// The SLO tracker.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Emits an ops event: stamps the latest trace id, dumps the
    /// flight recorder (a no-op unless tracing is enabled), writes one
    /// structured JSONL line to stderr, and retains the event for the
    /// next `Health` snapshot. Returns the enriched event.
    pub fn emit(&self, mut event: OpsEvent) -> OpsEvent {
        if event.trace == 0 {
            event.trace = self.last_trace();
        }
        if event.flight_dump.is_none() {
            event.flight_dump =
                corona_trace::flight_dump(event.kind).map(|p| p.display().to_string());
        }
        eprintln!("corona-ops {}", event.to_json());
        let mut ops = lock(&self.ops);
        if ops.len() == OPS_RING {
            ops.pop_front();
        }
        ops.push_back(event.clone());
        event
    }

    /// The retained ops events, oldest first.
    pub fn ops_events(&self) -> Vec<OpsEvent> {
        lock(&self.ops).iter().cloned().collect()
    }

    /// Renders the versioned health snapshot as one JSON object and
    /// advances the monotonic snapshot sequence number.
    ///
    /// `conns` is the per-connection backpressure view gathered by the
    /// runtime; `stalled` names the groups whose sequencing-stall
    /// watchdog is currently tripped; `uptime_ms` is the runtime's own
    /// clock (the one its SLO samples and ops events are stamped with),
    /// the registry has none.
    pub fn snapshot_json(
        &self,
        uptime_ms: u64,
        conns: &[ConnPressure],
        stalled: &[GroupId],
    ) -> String {
        let seq = self.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema\":{},\"uptime_ms\":{uptime_ms},\"seq\":{seq}",
            crate::SCHEMA_VERSION
        );
        out.push_str(",\"groups\":{");
        let uptime_min = (uptime_ms as f64 / 60_000.0).max(1.0 / 60_000.0);
        for (i, (group, cell)) in self.groups().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (joins, leaves) = cell.churn();
            let _ = write!(
                out,
                "\"{group}\":{{\"submitted\":{},\"sequenced\":{},\"delivered\":{},\"lag\":{},\
                 \"standby_tail\":{},\"replication_gap\":{},\"members\":{},\"joins\":{joins},\
                 \"leaves\":{leaves},\"churn_per_min\":{:.3},\"stalled\":{}}}",
                cell.submitted(),
                cell.sequenced(),
                cell.delivered(),
                cell.lag(),
                cell.standby_tail.load(Ordering::Relaxed),
                cell.replication_gap(),
                cell.members(),
                (joins + leaves) as f64 / uptime_min,
                stalled.contains(group),
            );
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"fanout\":{{\"queue_hwm\":{},\"queue_capacity\":{}}}",
            self.queue_hwm(),
            self.queue_capacity()
        );
        out.push_str(",\"conns\":[");
        for (i, c) in conns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"backlog\":{},\"backpressured\":{}}}",
                c.conn_id, c.backlog, c.backpressured
            );
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"elections\":{},\"reconnects\":{},\"fenced\":{}",
            self.elections.load(Ordering::Relaxed),
            self.reconnects.load(Ordering::Relaxed),
            self.fenced()
        );
        out.push_str(",\"slo\":");
        out.push_str(&self.slo.snapshot(uptime_ms).to_json());
        out.push_str(",\"ops\":[");
        for (i, e) in self.ops_events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Debug for HealthRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthRegistry")
            .field("groups", &lock(&self.groups).len())
            .field("queue_hwm", &self.queue_hwm())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_cells_track_progress_and_gaps() {
        let reg = HealthRegistry::new(SloConfig::default());
        let g = reg.group(GroupId::new(7));
        g.note_submitted();
        g.note_sequenced(3);
        g.note_sequenced(5);
        g.note_delivered(4);
        assert_eq!(g.sequenced(), 5);
        assert_eq!(g.lag(), 1);
        assert_eq!(g.replication_gap(), 0, "no standby copy, no gap");
        g.note_standby_tail(2);
        assert_eq!(g.replication_gap(), 3);
        g.note_standby_tail(5);
        assert_eq!(g.replication_gap(), 0);
    }

    #[test]
    fn membership_size_and_churn_are_independent() {
        let reg = HealthRegistry::new(SloConfig::default());
        let g = reg.group(GroupId::new(1));
        g.note_leave(); // churn before the size is ever published
        g.note_join();
        g.note_join();
        g.note_leave();
        assert_eq!(g.members(), 0, "size only moves via set_members");
        g.set_members(2);
        assert_eq!(g.members(), 2);
        assert_eq!(g.churn(), (2, 2));
    }

    #[test]
    fn snapshot_is_versioned_and_monotonic() {
        let reg = HealthRegistry::new(SloConfig::default());
        reg.group(GroupId::new(1)).note_sequenced(9);
        reg.note_queue_depth(12);
        reg.note_queue_depth(4);
        let a = reg.snapshot_json(7, &[], &[]);
        let b = reg.snapshot_json(
            8,
            &[ConnPressure {
                conn_id: 5,
                backlog: 2,
                backpressured: false,
            }],
            &[GroupId::new(1)],
        );
        assert!(a.contains("\"schema\":1,\"uptime_ms\":7,"), "{a}");
        assert!(a.contains("\"seq\":1"), "{a}");
        assert!(b.contains("\"seq\":2"), "{b}");
        assert!(
            a.contains("\"queue_hwm\":12"),
            "hwm must survive lower observations: {a}"
        );
        assert!(b.contains("\"stalled\":true"), "{b}");
        assert!(b.contains("\"id\":5"), "{b}");
        assert!(a.contains("\"fenced\":false"), "{a}");
        reg.set_fenced(true);
        let c = reg.snapshot_json(7, &[], &[]);
        assert!(c.contains("\"fenced\":true"), "{c}");
        assert!(reg.fenced());
    }

    #[test]
    fn emit_retains_events_for_snapshots() {
        let reg = HealthRegistry::new(SloConfig::default());
        reg.note_trace(42);
        let e = reg.emit(OpsEvent::new(
            10,
            "sequencing_stall",
            Some(GroupId::new(1)),
            3,
        ));
        assert_eq!(e.trace, 42, "emit stamps the in-flight trace id");
        let snap = reg.snapshot_json(7, &[], &[]);
        assert!(snap.contains("sequencing_stall"), "{snap}");
    }
}
