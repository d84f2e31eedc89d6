//! Server configuration, and a supervised client's reconnect policy.

use crate::qos::QosPolicy;
use corona_membership::{AllowAll, SessionPolicy};
use corona_metrics::Registry;
use corona_statelog::{ReductionPolicy, SyncPolicy};
use corona_types::id::ServerId;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Whether the server maintains group shared state (the paper's
/// stateful service) or acts as a pure sequencer (the stateless
/// baseline measured in Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Statefulness {
    /// Maintain state: log every multicast in memory (and on stable
    /// storage when configured), serve state transfers on join.
    #[default]
    Stateful,
    /// Sequencer only: assign sequence numbers and fan out, keep no
    /// state, serve empty state transfers.
    Stateless,
}

/// Configuration for a [`CoronaServer`](crate::server::CoronaServer).
#[derive(Clone)]
pub struct ServerConfig {
    /// This server's id (significant in the replicated architecture).
    pub server_id: ServerId,
    /// Stateful service or stateless sequencer baseline.
    pub statefulness: Statefulness,
    /// Directory for stable storage; `None` disables disk logging
    /// (state is kept in memory only).
    pub storage_dir: Option<PathBuf>,
    /// fsync policy for the on-disk log.
    pub sync_policy: SyncPolicy,
    /// Automatic log-reduction policy applied per group.
    pub reduction: ReductionPolicy,
    /// The external workspace session manager (§3.2).
    pub policy: Arc<dyn SessionPolicy>,
    /// QoS-adaptive delivery policy (§5.3 extension): load-shed
    /// expendable event classes to clients that cannot keep up.
    pub qos: QosPolicy,
    /// If set, the dispatcher prints the server's metric registry as one
    /// `corona-metrics <addr> {json}` line to stderr on its first tick
    /// after each interval; no thread of its own does it.
    pub metrics_dump_interval: Option<std::time::Duration>,
    /// Per-connection transmit-queue bound (frames). A send that would
    /// exceed it fails with an explicit `Full` instead of buffering
    /// unboundedly; the dispatcher sheds or disconnects on `Full` per
    /// the QoS class.
    pub send_queue_capacity: usize,
    /// SLO latency budget and burn-rate window for the health plane
    /// (applied to per-request dispatcher handling latency).
    pub slo: corona_health::SloConfig,
    /// Thresholds for the health-plane watchdogs (sequencing stall,
    /// transmit-queue high-watermark, election flap, reconnect storm).
    pub watchdog: corona_health::WatchdogConfig,
    /// Number of reactor shard event loops behind the listener
    /// [`CoronaServer::bind`](crate::server::CoronaServer::bind) binds.
    /// Defaults to the processors this process may run on: a shard
    /// also turns the dispatcher for what it reads, and with more event
    /// loops than processors the thread holding the dispatcher gets
    /// preempted while the others wait for it.
    pub reactor_shards: usize,
}

impl ServerConfig {
    /// A stateful in-memory configuration (no disk).
    pub fn stateful(server_id: ServerId) -> Self {
        ServerConfig {
            server_id,
            statefulness: Statefulness::Stateful,
            storage_dir: None,
            sync_policy: SyncPolicy::OsDefault,
            reduction: ReductionPolicy::Manual,
            policy: Arc::new(AllowAll),
            qos: QosPolicy::default(),
            metrics_dump_interval: None,
            send_queue_capacity: corona_transport::DEFAULT_SEND_CAPACITY,
            slo: corona_health::SloConfig::default(),
            watchdog: corona_health::WatchdogConfig::default(),
            reactor_shards: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// The stateless sequencer baseline.
    pub fn stateless(server_id: ServerId) -> Self {
        ServerConfig {
            statefulness: Statefulness::Stateless,
            ..ServerConfig::stateful(server_id)
        }
    }

    /// Enables stable storage under `dir` (builder-style).
    #[must_use]
    pub fn with_storage(mut self, dir: impl Into<PathBuf>) -> Self {
        self.storage_dir = Some(dir.into());
        self
    }

    /// Sets the fsync policy (builder-style).
    #[must_use]
    pub fn with_sync_policy(mut self, sync: SyncPolicy) -> Self {
        self.sync_policy = sync;
        self
    }

    /// Sets the automatic reduction policy (builder-style).
    #[must_use]
    pub fn with_reduction(mut self, reduction: ReductionPolicy) -> Self {
        self.reduction = reduction;
        self
    }

    /// Sets the session policy (builder-style).
    #[must_use]
    pub fn with_session_policy(mut self, policy: Arc<dyn SessionPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the QoS-adaptive delivery policy (builder-style).
    #[must_use]
    pub fn with_qos(mut self, qos: QosPolicy) -> Self {
        self.qos = qos;
        self
    }

    /// Enables periodic JSON metric dumps to stderr (builder-style).
    #[must_use]
    pub fn with_metrics_dump_interval(mut self, interval: std::time::Duration) -> Self {
        self.metrics_dump_interval = Some(interval);
        self
    }

    /// Sets the per-connection transmit-queue bound in frames
    /// (builder-style). Clamped to at least 1.
    #[must_use]
    pub fn with_send_queue_capacity(mut self, frames: usize) -> Self {
        self.send_queue_capacity = frames.max(1);
        self
    }

    /// Sets the health-plane SLO budget (builder-style).
    #[must_use]
    pub fn with_slo(mut self, slo: corona_health::SloConfig) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the health-plane watchdog thresholds (builder-style).
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: corona_health::WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Sets the number of reactor shard event loops (builder-style).
    /// Clamped to at least 1.
    #[must_use]
    pub fn with_reactor_shards(mut self, shards: usize) -> Self {
        self.reactor_shards = shards.max(1);
        self
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("server_id", &self.server_id)
            .field("statefulness", &self.statefulness)
            .field("storage_dir", &self.storage_dir)
            .field("sync_policy", &self.sync_policy)
            .field("reduction", &self.reduction)
            .field("qos", &self.qos)
            .field("send_queue_capacity", &self.send_queue_capacity)
            .field("reactor_shards", &self.reactor_shards)
            .finish_non_exhaustive()
    }
}

/// Reconnect policy for a supervised client
/// ([`CoronaClient::connect_failover`](crate::CoronaClient::connect_failover)).
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// First-round backoff; later rounds double it.
    pub base_backoff: Duration,
    /// Cap on the exponential component of the backoff.
    pub max_backoff: Duration,
    /// Consecutive reconnect rounds (each walks every candidate
    /// address) before the driver gives up and the client reports
    /// [`CoronaError::Disconnected`](corona_types::error::CoronaError::Disconnected).
    pub max_rounds: u32,
    /// Per-address dial (and handshake-step) timeout.
    pub connect_timeout: Duration,
    /// Seed for the deterministic backoff jitter, so tests (and
    /// coordinated fleets) can fix or spread their retry phase.
    pub jitter_seed: u64,
    /// Metrics sink for `client.reconnects` / `client.backoff_ms`; a
    /// private registry is used when absent.
    pub registry: Option<Arc<Registry>>,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            max_rounds: 10,
            connect_timeout: Duration::from_secs(2),
            jitter_seed: 0x5EED,
            registry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = ServerConfig::stateful(ServerId::new(1))
            .with_storage("/tmp/x")
            .with_sync_policy(SyncPolicy::EveryRecord)
            .with_reduction(ReductionPolicy::default_interactive());
        assert_eq!(cfg.statefulness, Statefulness::Stateful);
        assert_eq!(
            cfg.storage_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(cfg.sync_policy, SyncPolicy::EveryRecord);
    }

    #[test]
    fn stateless_baseline() {
        let cfg = ServerConfig::stateless(ServerId::new(2));
        assert_eq!(cfg.statefulness, Statefulness::Stateless);
        assert!(cfg.storage_dir.is_none());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", ServerConfig::stateful(ServerId::new(1)));
        assert!(s.contains("ServerConfig"));
    }
}
