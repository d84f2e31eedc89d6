//! One replicated-cluster harness for every integration test that
//! injects faults: three replicated servers over loopback TCP — reactor
//! listeners, connections dialled onto the shared dial loop — whose
//! peer mesh and client dialers are wrapped by one [`Nemesis`]. Each
//! server is one node, `s{id}`; every fault a test injects is a nemesis
//! event naming nodes.

#![allow(dead_code)] // each test binary uses its own subset

use corona::prelude::*;
use corona::transport::{Nemesis, ReactorListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Servers per cluster: the smallest roster with a strict majority.
const SERVERS: u64 = 3;

pub struct Cluster {
    /// The fault plane; [`Cluster::injected`] reads its counters.
    pub nem: Nemesis,
    registry: Arc<Registry>,
    /// Live servers (a killed one is removed).
    servers: Vec<ReplicatedServer>,
    client_addrs: Vec<String>,
}

impl Cluster {
    /// Starts servers `s1..=s3` (ids in startup order, so s1 is the
    /// initial coordinator) with the nemesis seeded by `seed` and
    /// every server's configuration passed through `tune`.
    pub fn start(
        seed: u64,
        heartbeat_ms: u64,
        base_timeout_ms: u64,
        tune: impl Fn(ServerConfig) -> ServerConfig,
    ) -> Cluster {
        let registry = Registry::new();
        let nem = Nemesis::new(seed, &registry);
        // Bind everything and name every address before any server
        // can dial: a link's remote node is fixed when it is made.
        let bind = || -> Vec<Box<dyn Listener>> {
            let listen = |id| -> Box<dyn Listener> {
                let listener = ReactorListener::bind("127.0.0.1:0", 1).unwrap();
                nem.register_addr(&listener.local_addr(), &node(id));
                Box::new(listener)
            };
            (1..=SERVERS).map(listen).collect()
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
                    heartbeat_ms,
                    base_timeout_ms,
                    server_config: tune(ServerConfig::stateful(ServerId::new(id))),
                };
                // The client plane stays plain: no test faults it from
                // the server side, and an accepted TCP link could not
                // be told apart from a peer's anyway.
                ReplicatedServer::start(
                    client_listener,
                    nem.wrap_listener(&node, peer_listener),
                    Arc::from(nem.wrap_dialer(&node, Box::new(TcpDialer))),
                    config,
                )
                .unwrap()
            })
            .collect();
        Cluster {
            nem,
            registry,
            servers,
            client_addrs: client_addrs.into_iter().map(|(_, addr)| addr).collect(),
        }
    }

    /// The address clients dial to reach server `id`.
    pub fn client_addr(&self, id: u64) -> String {
        self.client_addrs[(id - 1) as usize].clone()
    }

    /// A dialer for node `name`, through the fault plane (so a test
    /// can sever or block a client's link by naming the client).
    pub fn dialer(&self, name: &str) -> Arc<dyn Dialer> {
        Arc::from(self.nem.wrap_dialer(name, Box::new(TcpDialer)))
    }

    /// Connects a client named `name` to server `id`.
    pub fn client(&self, name: &str, id: u64) -> CoronaClient {
        let conn = self.dialer(name).dial(&self.client_addr(id)).unwrap();
        let mut c = CoronaClient::connect(conn, name, None).unwrap();
        c.set_call_timeout(Duration::from_secs(15));
        c
    }

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
        let rest: Vec<String> = (1..=SERVERS).filter(|o| *o != id).map(node).collect();
        let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
        self.nem.partition(&[&[&node(id)], &rest]);
    }

    /// The coordinator every listed server currently agrees on, if
    /// they all agree.
    pub fn coordinator_agreed(&self, ids: &[u64]) -> Option<ServerId> {
        let mut agreed = None;
        for id in ids {
            let coord = self.server(*id).status().ok()?.coordinator?;
            if *agreed.get_or_insert(coord) != coord {
                return None;
            }
        }
        agreed
    }

    pub fn fenced(&self, id: u64) -> bool {
        self.server(id).health_registry().fenced()
    }

    pub fn has_event(&self, id: u64, kind: &str) -> bool {
        let events = self.server(id).health_registry().ops_events();
        events.iter().any(|e| e.kind == kind)
    }

    /// An injected-fault counter, `server.nemesis.{what}`.
    pub fn injected(&self, what: &str) -> u64 {
        let name = format!("server.nemesis.{what}");
        self.registry.snapshot().counter(&name)
    }

    pub fn wait_coordinator(&self, ids: &[u64], expect: u64, timeout: Duration) {
        wait(
            &format!("servers {ids:?} to agree on coordinator s{expect}"),
            timeout,
            || self.coordinator_agreed(ids) == Some(ServerId::new(expect)),
        );
    }

    pub fn shutdown(self) {
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// The node name of server `id`.
pub fn node(id: u64) -> String {
    format!("s{id}")
}

pub fn wait(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(15));
    }
}
