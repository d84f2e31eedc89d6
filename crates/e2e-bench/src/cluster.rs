//! Brings up the servers under test — one `CoronaServer` on the
//! reactor, or a three-server replicated star over loopback TCP — with
//! every thread count left at the program's defaults.

use crate::workload::Spec;
use corona_core::{CoronaServer, ServerConfig};
use corona_metrics::{MetricsSnapshot, Registry};
use corona_replication::{ReplicatedConfig, ReplicatedServer};
use corona_statelog::{ReductionPolicy, SyncPolicy};
use corona_transport::{Listener, ReactorListener, TcpDialer};
use corona_types::id::ServerId;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPLICAS: u64 = 3;
/// Event loops per listener of a replica. `CoronaServer::bind` picks
/// its own; the replicated runtime takes listeners ready-made.
const REPLICA_LISTENER_SHARDS: usize = 1;

/// The servers of one run.
#[derive(Debug)]
pub enum Cluster {
    /// One stateful server.
    Single(CoronaServer),
    /// A replicated star; server 1 starts as coordinator.
    Replicated {
        /// The replicas, coordinator first.
        servers: Vec<ReplicatedServer>,
        /// Where the replicas' listeners export `server.reactor.*`.
        reactor_metrics: Arc<Registry>,
    },
}

fn server_config(id: u64) -> ServerConfig {
    ServerConfig::stateful(ServerId::new(id)).with_reduction(ReductionPolicy::default_interactive())
}

fn bind_listener(registry: &Registry) -> Result<ReactorListener, String> {
    ReactorListener::bind_with_registry("127.0.0.1:0", REPLICA_LISTENER_SHARDS, Some(registry))
        .map_err(|e| format!("bind: {e}"))
}

impl Cluster {
    /// Starts the servers `spec` asks for on ephemeral loopback ports,
    /// keeping stable storage (if any) under `storage`.
    ///
    /// # Errors
    ///
    /// Bind or start-up failures.
    pub fn start(spec: &Spec, storage: &Path) -> Result<Cluster, String> {
        if !spec.replicated {
            let mut config = server_config(1);
            if spec.persistent {
                config = config
                    .with_storage(storage)
                    .with_sync_policy(SyncPolicy::OsDefault);
            }
            return CoronaServer::bind("127.0.0.1:0", config)
                .map(Cluster::Single)
                .map_err(|e| format!("server start: {e}"));
        }
        let reactor_metrics = Registry::new();
        let mut listeners = Vec::new();
        for _ in 0..REPLICAS {
            listeners.push((
                bind_listener(&reactor_metrics)?,
                bind_listener(&reactor_metrics)?,
            ));
        }
        let ids = (1..=REPLICAS).map(ServerId::new);
        let peers: Vec<(ServerId, String)> = ids
            .clone()
            .zip(listeners.iter().map(|(_, peer)| peer.local_addr()))
            .collect();
        let client_addrs: Vec<(ServerId, String)> = ids
            .zip(listeners.iter().map(|(client, _)| client.local_addr()))
            .collect();
        let mut servers = Vec::new();
        for (id, (client, peer)) in (1..=REPLICAS).zip(listeners) {
            let config = ReplicatedConfig {
                servers: peers.clone(),
                client_addrs: client_addrs.clone(),
                // Slow enough that two saturated cores never miss a
                // heartbeat window and trip an election mid-run.
                heartbeat_ms: 100,
                base_timeout_ms: 2000,
                server_config: server_config(id),
            };
            servers.push(
                ReplicatedServer::start(
                    Box::new(client),
                    Box::new(peer),
                    Arc::new(TcpDialer),
                    config,
                )
                .map_err(|e| format!("replica {id} start: {e}"))?,
            );
        }
        Ok(Cluster::Replicated {
            servers,
            reactor_metrics,
        })
    }

    /// The address the `index`-th client of a group dials. On the star,
    /// residents go round the replicas (4/4/4); `avoid_coordinator`
    /// homes a client on one of the two followers, which is where
    /// senders and joiners sit so every broadcast crosses
    /// forward → sequence → replicate → fan-out.
    pub fn addr(&self, index: usize, avoid_coordinator: bool) -> String {
        match self {
            Cluster::Single(server) => server.local_addr(),
            Cluster::Replicated { servers, .. } => {
                let home = if avoid_coordinator {
                    1 + index % (servers.len() - 1)
                } else {
                    index % servers.len()
                };
                servers[home].client_addr()
            }
        }
    }

    /// Every counter, gauge and histogram of the servers, merged.
    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            Cluster::Single(server) => server
                .metrics()
                .unwrap_or_else(|_| server.metrics_registry().snapshot()),
            Cluster::Replicated {
                servers,
                reactor_metrics,
            } => {
                let mut merged = reactor_metrics.snapshot();
                for server in servers {
                    merged.merge(&server.metrics());
                }
                merged
            }
        }
    }

    /// Shuts the acting coordinator down and returns how long the
    /// survivors took to agree on a successor (`None` on a single
    /// server, or if none emerged within `deadline`).
    pub fn fail_over(&mut self, deadline: Duration) -> Option<Duration> {
        let Cluster::Replicated { servers, .. } = self else {
            return None;
        };
        let started = Instant::now();
        servers.remove(0).shutdown();
        while started.elapsed() < deadline {
            if servers
                .iter()
                .any(|s| s.status().is_ok_and(|st| st.is_coordinator))
            {
                return Some(started.elapsed());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        None
    }

    /// Orderly shutdown of every server.
    pub fn shutdown(self) {
        match self {
            Cluster::Single(server) => server.shutdown(),
            Cluster::Replicated { servers, .. } => {
                for server in servers {
                    server.shutdown();
                }
            }
        }
    }
}
