//! The four workloads and the names of every metric the benchmark
//! reports. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

/// What one workload looks like. Populations, depths and paced rates
/// are constants of the benchmark, never derived at run time, so two
/// runs on different commits offer the servers the same load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Groups created.
    pub groups: usize,
    /// Resident members per group; the last one joined is the sender.
    pub members: usize,
    /// Broadcast payload in bytes.
    pub payload: usize,
    /// Objects per group; every broadcast is a `SetState` on the next
    /// one, so state and transfer size stay flat however long the run.
    pub objects: usize,
    /// Closed-loop broadcasts each sender keeps in flight.
    pub depth: usize,
    /// Open-loop rate of the paced slices, broadcasts per second over
    /// all groups: low enough that the serial generator (one
    /// broadcast in flight) runs at about a third of `1 / round trip`,
    /// high enough that the servers' threads stay warm.
    pub paced_rate: f64,
    /// Warm-up broadcasts per group during set-up — a count, so set-up
    /// does the same work every run.
    pub warmup: usize,
    /// Persistent groups on stable storage (`SyncPolicy::OsDefault`).
    pub persistent: bool,
    /// Three `ReplicatedServer`s instead of one `CoronaServer`.
    pub replicated: bool,
    /// `FullState` joins churn during the saturate phase as well.
    pub join_churn: bool,
}

/// The workloads, in the order `--check-repeat` runs them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fanout_wide",
        groups: 1,
        members: 256,
        payload: 1000,
        objects: 16,
        depth: 64,
        paced_rate: 200.0,
        warmup: 1536,
        persistent: false,
        replicated: false,
        join_churn: false,
    },
    Spec {
        name: "small_groups",
        groups: 64,
        members: 4,
        payload: 64,
        objects: 16,
        depth: 16,
        paced_rate: 2000.0,
        warmup: 256,
        persistent: true,
        replicated: false,
        join_churn: false,
    },
    Spec {
        name: "late_join",
        groups: 4,
        members: 8,
        payload: 2048,
        objects: 512,
        depth: 16,
        paced_rate: 200.0,
        warmup: 4096,
        persistent: false,
        replicated: false,
        join_churn: true,
    },
    Spec {
        name: "replicated_star",
        groups: 4,
        members: 12,
        payload: 256,
        objects: 16,
        depth: 16,
        paced_rate: 500.0,
        warmup: 6144,
        persistent: false,
        replicated: true,
        join_churn: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// End-to-end metrics, `(name, unit)`: what a Corona user sees.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("deliveries_per_s", "1/s"),
    ("cpu_us_per_delivery", "us"),
    ("rtt_p50_us", "us"),
    ("connect_p50_us", "us"),
    ("join_full_p50_us", "us"),
    ("join_last64_p50_us", "us"),
    ("join_none_p50_us", "us"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A metric that
/// does not apply to a workload (the replication counters on a single
/// server, say) is reported as 0 there.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("types.encode_ns_per_msg", "ns"),
    ("types.decode_ns_per_msg", "ns"),
    ("types.frame_crc_ns_per_kib", "ns"),
    ("types.transfer_encode_us", "us"),
    ("core.sequence_ns_per_bcast", "ns"),
    ("core.join_full_us", "us"),
    ("core.join_last64_us", "us"),
    ("core.join_none_us", "us"),
    ("core.fanout_encodes_per_bcast", "count"),
    ("core.fanout_queue_depth_max", "count"),
    ("core.shed_count", "count"),
    ("core.dead_conn_count", "count"),
    ("core.hop_residual_us", "us"),
    ("statelog.append_ns", "ns"),
    ("statelog.reduce_us", "us"),
    ("statelog.transfer_full_us", "us"),
    ("statelog.transfer_last64_us", "us"),
    ("statelog.store_append_us_osdefault", "us"),
    ("statelog.store_append_us_every64", "us"),
    ("statelog.store_append_us_everyrecord", "us"),
    ("statelog.fsyncs_per_1k_appends", "count"),
    ("statelog.recover_ms", "ms"),
    ("membership.join_leave_ns", "ns"),
    ("transport.echo_frames_per_s", "1/s"),
    ("transport.echo_rtt_p50_us", "us"),
    ("transport.cpu_us_per_frame", "us"),
    ("transport.accept_us", "us"),
    ("transport.reactor_events_per_poll", "count"),
    ("transport.reactor_wakeups_per_delivery", "count"),
    ("transport.write_blocked_count", "count"),
    ("transport.read_paused_count", "count"),
    ("replication.coordinator_step_ns", "ns"),
    ("replication.replica_step_ns", "ns"),
    ("replication.peer_msgs_per_bcast", "count"),
    ("replication.election_rounds", "count"),
    ("replication.failover_ms", "ms"),
    ("metrics.counter_inc_ns", "ns"),
    ("metrics.histogram_record_ns", "ns"),
    ("trace.record_disabled_ns", "ns"),
    ("trace.record_enabled_ns", "ns"),
    ("health.cell_update_ns", "ns"),
    ("trace.hop.server_ingress_p50_us", "us"),
    ("trace.hop.sequence_p50_us", "us"),
    ("trace.hop.log_append_p50_us", "us"),
    ("trace.hop.fanout_enqueue_p50_us", "us"),
    ("trace.hop.client_deliver_p50_us", "us"),
    ("trace.hop_sum_share", "share"),
    ("trace.overhead_share", "share"),
    ("harness.send_ns_per_bcast", "ns"),
    ("harness.drain_ns_per_frame", "ns"),
    ("harness.cpu_share", "share"),
    ("harness.late_p99_us", "us"),
    ("harness.rtt_p90_us", "us"),
    ("harness.rtt_p99_us", "us"),
    ("process.peak_rss_mb", "MB"),
    ("process.threads", "count"),
];
