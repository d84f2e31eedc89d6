//! The one replicated cluster on real sockets: `n` [`ReplicatedServer`]s
//! over loopback TCP — reactor listeners, connections dialled onto the
//! shared dial loop — whose peer mesh and client dialers are wrapped by
//! one [`Nemesis`]. Server `i` is node `s{i}`; every fault a caller
//! injects is a nemesis event naming nodes. Every integration test and
//! tool that needs a live replicated cluster starts this one.

use crate::cluster::{isolation, node};
use corona_core::{CoronaClient, ServerConfig};
use corona_metrics::Registry;
use corona_replication::{ReplicatedConfig, ReplicatedServer};
use corona_transport::{Dialer, Listener, Nemesis, ReactorListener, TcpDialer};
use corona_types::id::ServerId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live servers on loopback TCP behind one fault plane.
pub struct Cluster {
    /// The fault plane.
    pub nem: Nemesis,
    /// Live servers (a killed one is removed).
    servers: Vec<ReplicatedServer>,
    client_addrs: Vec<String>,
    peer_addrs: Vec<String>,
}

impl Cluster {
    /// Starts servers `s1..=sn` (ids in startup order, so `s1` is the
    /// initial coordinator). Each server's configuration — a 30 ms
    /// heartbeat, the default base timeout, a stateful server — is
    /// passed through `tune` first.
    ///
    /// # Panics
    ///
    /// If a listener cannot bind or a server cannot start.
    pub fn start(n: u64, tune: impl Fn(ReplicatedConfig) -> ReplicatedConfig) -> Cluster {
        // Partitions, blocks and severs draw nothing from the seed.
        let nem = Nemesis::new(0, &Registry::new());
        // Bind everything and name every address before any server
        // can dial: a link's remote node is fixed when it is made.
        let bind = || -> Vec<Box<dyn Listener>> {
            let listen = |id| -> Box<dyn Listener> {
                let listener = ReactorListener::bind("127.0.0.1:0", 1).expect("bind loopback");
                nem.register_addr(&listener.local_addr(), &node(id));
                Box::new(listener)
            };
            (1..=n).map(listen).collect()
        };
        let (client_listeners, peer_listeners) = (bind(), bind());
        let addrs = |listeners: &[Box<dyn Listener>]| -> Vec<(ServerId, String)> {
            let ids = (1..).map(ServerId::new);
            ids.zip(listeners.iter().map(|l| l.local_addr())).collect()
        };
        let (client_addrs, peers) = (addrs(&client_listeners), addrs(&peer_listeners));
        let servers = (1..)
            .zip(client_listeners.into_iter().zip(peer_listeners))
            .map(|(id, (client_listener, peer_listener))| {
                let node = node(id);
                let config = ReplicatedConfig {
                    servers: peers.clone(),
                    client_addrs: client_addrs.clone(),
                    heartbeat_ms: 30,
                    base_timeout_ms: 250,
                    server_config: ServerConfig::stateful(ServerId::new(id)),
                };
                // The client plane stays plain: an accepted TCP link
                // could not be told apart from a peer's anyway, and a
                // client's link is faulted by naming the client.
                ReplicatedServer::start(
                    client_listener,
                    nem.wrap_listener(&node, peer_listener),
                    Arc::from(nem.wrap_dialer(&node, Box::new(TcpDialer))),
                    tune(config),
                )
                .expect("start replica")
            })
            .collect();
        let only_addrs = |addrs: Vec<(ServerId, String)>| addrs.into_iter().map(|(_, a)| a);
        Cluster {
            nem,
            servers,
            client_addrs: only_addrs(client_addrs).collect(),
            peer_addrs: only_addrs(peers).collect(),
        }
    }

    /// The address clients dial to reach server `id`.
    pub fn client_addr(&self, id: u64) -> String {
        self.client_addrs[(id - 1) as usize].clone()
    }

    /// The address server `id`'s peers dial.
    pub fn peer_addr(&self, id: u64) -> String {
        self.peer_addrs[(id - 1) as usize].clone()
    }

    /// A dialer for node `name`, through the fault plane (so a caller
    /// can sever or block a client's link by naming the client).
    pub fn dialer(&self, name: &str) -> Arc<dyn Dialer> {
        Arc::from(self.nem.wrap_dialer(name, Box::new(TcpDialer)))
    }

    /// Connects a client named `name` to server `id`, with a 15 s call
    /// timeout.
    ///
    /// # Panics
    ///
    /// If the dial or the handshake fails.
    pub fn client(&self, name: &str, id: u64) -> CoronaClient {
        let conn = self.dialer(name).dial(&self.client_addr(id)).expect("dial");
        let mut c = CoronaClient::connect(conn, name, None).expect("handshake");
        c.set_call_timeout(Duration::from_secs(15));
        c
    }

    /// Server `id`.
    ///
    /// # Panics
    ///
    /// If it was killed.
    pub fn server(&self, id: u64) -> &ReplicatedServer {
        let found = self.servers.iter().find(|s| s.server_id().raw() == id);
        found.unwrap_or_else(|| panic!("s{id} is not running"))
    }

    /// Fail-stop crash of server `id`: no goodbye, every link touching
    /// it closes, nothing can dial it again.
    pub fn kill(&mut self, id: u64) {
        let at = self.servers.iter().position(|s| s.server_id().raw() == id);
        self.servers
            .remove(at.expect("server is running"))
            .shutdown();
        self.nem.crash(&node(id));
    }

    /// Partitions server `id` away from every other server, both
    /// directions. Client links stay up: the interesting case is a
    /// coordinator that keeps its clients but loses its quorum.
    pub fn isolate(&self, id: u64) {
        let servers = self.client_addrs.len() as u64;
        self.nem.apply(isolation(id, servers));
    }

    /// Waits until every server in `ids` names `s{expect}` its
    /// coordinator.
    ///
    /// # Panics
    ///
    /// If they do not within `timeout`.
    pub fn wait_coordinator(&self, ids: &[u64], expect: u64, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let agreed = |id: &u64| {
            let status = self.server(*id).status();
            status.is_ok_and(|st| st.coordinator == Some(ServerId::new(expect)))
        };
        while !ids.iter().all(agreed) {
            assert!(
                Instant::now() < deadline,
                "servers {ids:?} never agreed on coordinator s{expect}"
            );
            std::thread::sleep(Duration::from_millis(15));
        }
    }

    /// Shuts every live server down.
    pub fn shutdown(self) {
        self.servers
            .into_iter()
            .for_each(ReplicatedServer::shutdown);
    }
}
