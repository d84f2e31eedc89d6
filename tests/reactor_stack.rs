//! Full-stack tests of the sharded reactor transport: the regular
//! client library running end-to-end over real TCP against the
//! listener [`CoronaServer::bind`] binds, the C5k smoke test — five
//! thousand concurrent clients on one server whose thread count is
//! shards + 2 — and the same census on the dial side: no thread per
//! dialled connection either, transport's or client's.

use corona::prelude::*;
use corona::sim::loopback::Cluster;
use corona::types::frame::Frame;
use corona_transport::{Dialer, FlushBy, FrameSink, TransportError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const G: GroupId = GroupId(1);
const DOC: ObjectId = ObjectId(1);

/// Three tests here count this process's threads around what they
/// start; every test holds this lock so none starts or stops threads
/// inside another's census.
static THREAD_CENSUS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn census_lock() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means another test failed; its `()` is fine.
    THREAD_CENSUS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tcp_connect(addr: &str, name: &str) -> CoronaClient {
    let conn = TcpDialer
        .dial_timeout(addr, Duration::from_secs(5))
        .unwrap();
    CoronaClient::connect(conn, name, None).unwrap()
}

fn stack_roundtrip(server: &CoronaServer) {
    let addr = server.local_addr();
    let sender = tcp_connect(&addr, "sender");
    sender
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    sender
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    let receivers: Vec<CoronaClient> = (0..8)
        .map(|i| {
            let c = tcp_connect(&addr, &format!("rx{i}"));
            c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
                .unwrap();
            c
        })
        .collect();

    let payload = vec![0x5au8; 2048];
    sender
        .bcast_update(G, DOC, payload.clone(), DeliveryScope::SenderInclusive)
        .unwrap();

    for client in receivers.iter().chain(std::iter::once(&sender)) {
        match client.next_event_timeout(Duration::from_secs(10)).unwrap() {
            ServerEvent::Multicast { logged, .. } => {
                assert_eq!(logged.update.payload.as_ref(), payload.as_slice());
            }
            other => panic!("expected multicast, got {other:?}"),
        }
    }

    // A second round in the other direction exercises the reactor's
    // read path on a different shard than the first sender.
    let reply = vec![0xc3u8; 64];
    receivers[0]
        .bcast_update(G, DOC, reply.clone(), DeliveryScope::SenderExclusive)
        .unwrap();
    for client in receivers[1..].iter().chain(std::iter::once(&sender)) {
        match client.next_event_timeout(Duration::from_secs(10)).unwrap() {
            ServerEvent::Multicast { logged, .. } => {
                assert_eq!(logged.update.payload.as_ref(), reply.as_slice());
            }
            other => panic!("expected multicast, got {other:?}"),
        }
    }

    for c in receivers {
        c.close();
    }
    sender.close();
}

/// `CoronaServer::bind` serves real TCP clients through the sharded
/// reactor, end to end: joins, sequenced multicast in both scopes,
/// clean close.
#[test]
fn full_stack_over_reactor_transport() {
    let _census = census_lock();
    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1))).unwrap();
    stack_roundtrip(&server);
    server.shutdown();
}

/// This process's live threads, read from `/proc/self/task`, leaving
/// out libtest's own: the harness starts the next test's thread the
/// moment one finishes — possibly inside another test's census — and
/// names it after the test (the kernel keeps the first 15 bytes).
fn thread_count() -> usize {
    thread_names().len()
}

fn thread_names() -> Vec<String> {
    const TESTS: [&str; 6] = [
        "full_stack_over_reactor_transport",
        "metrics_dump_runs_on_no_thread_of_its_own",
        "c5k_reactor_sustains_five_thousand_members",
        "dialled_clients_cost_no_thread",
        "replicated_thread_count_is_independent_of_member_count",
        "a_nemesis_wrapped_reactor_cluster_is_pushed_not_pulled",
    ];
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|comm| !TESTS.iter().any(|test| test.starts_with(comm.trim_end())))
        .collect()
}

/// The fault plane does not change who reads: a nemesis-wrapped
/// reactor listener still pushes, and so does a wrapped dialled link —
/// no thread per connection — so a faulted cluster runs the production
/// ingress path, down to who sequences: the shard that read a frame,
/// told the end of its pass through the wrapper.
#[test]
fn a_nemesis_wrapped_reactor_cluster_is_pushed_not_pulled() {
    let _census = census_lock();
    let cluster = Cluster::start(3, |c| c);
    // A member on a follower: its traffic crosses the wrapped peer mesh.
    let alice = cluster.client("alice", 2);
    alice
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    alice
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    alice
        .bcast_update(G, DOC, b"x".to_vec(), DeliveryScope::SenderInclusive)
        .unwrap();
    let echo = alice.next_event_timeout(Duration::from_secs(10)).unwrap();
    assert!(matches!(echo, ServerEvent::Multicast { .. }), "{echo:?}");
    let per_conn: Vec<String> = thread_names()
        .into_iter()
        // The kernel keeps 15 bytes of a name: `repl-s1-dispatc`.
        .filter(|name| name.starts_with("repl-") && !name.contains("-dispatc"))
        .collect();
    assert!(per_conn.is_empty(), "threads of their own: {per_conn:?}");
    // s3 has no client and dials no peer while s1 leads: all it hears
    // comes in on links its wrapped peer listener accepted. Its shard
    // turns its dispatcher only if the wrapper hands on the end of each
    // pass; otherwise everything waits for s3's tick.
    let inline = || {
        let metrics = cluster.server(3).metrics();
        metrics.counter("server.dispatch.turns_inline")
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while inline() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "s3 took no inline turn"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.shutdown();
}

/// The periodic metrics dump rides the dispatcher's tick: a server
/// configured with one runs exactly the threads of a server without.
#[test]
fn metrics_dump_runs_on_no_thread_of_its_own() {
    let _census = census_lock();
    let threads_of = |config: ServerConfig| {
        let baseline = thread_count();
        let server = CoronaServer::bind("127.0.0.1:0", config.with_reactor_shards(1)).unwrap();
        server.stats().unwrap();
        let threads = thread_count() - baseline;
        server.shutdown();
        threads
    };
    let plain = ServerConfig::stateful(ServerId::new(1));
    let dumping = plain
        .clone()
        .with_metrics_dump_interval(Duration::from_secs(3600));
    assert_eq!(threads_of(dumping), threads_of(plain));
}

/// Reads the soft open-file limit from `/proc/self/limits`.
fn fd_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    let soft = line.split_whitespace().nth(3)?;
    if soft == "unlimited" {
        return Some(u64::MAX);
    }
    soft.parse().ok()
}

/// Whether the soft fd limit lets `test` hold `members` connections
/// with both endpoints in this process (~2 fds per member plus generous
/// slack for the harness and the servers); says so when it skips.
fn fd_limit_allows(test: &str, members: usize) -> bool {
    let need = (members as u64) * 2 + 600;
    match fd_soft_limit() {
        Some(limit) if limit >= need => true,
        Some(limit) => {
            eprintln!("SKIP {test}: fd limit {limit} < required {need} (raise `ulimit -n`)");
            false
        }
        None => {
            eprintln!("SKIP {test}: cannot read /proc/self/limits");
            false
        }
    }
}

/// `count` clients of `addrs` (round robin), all joined to `G`, which
/// the first creates. Every join must see one more member.
fn population(addrs: &[String], count: usize) -> Vec<CoronaClient> {
    let mut members: Vec<CoronaClient> = Vec::with_capacity(count);
    for i in 0..count {
        let m = tcp_connect(&addrs[i % addrs.len()], &format!("m{i}"));
        if i == 0 {
            m.create_group(G, Persistence::Transient, SharedState::new())
                .unwrap();
        }
        let (seen, _) = m
            .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
            .unwrap();
        assert_eq!(seen.len(), i + 1, "member {i} saw wrong membership size");
        members.push(m);
    }
    members
}

/// One broadcast of the first member reaches every member.
fn broadcast_reaches_all(members: &[CoronaClient]) {
    let payload = vec![0x42u8; 256];
    members[0]
        .bcast_update(G, DOC, payload.clone(), DeliveryScope::SenderInclusive)
        .unwrap();
    for m in members {
        match m.next_event_timeout(Duration::from_secs(60)).unwrap() {
            ServerEvent::Multicast { logged, .. } => {
                assert_eq!(logged.update.payload.as_ref(), payload.as_slice());
            }
            other => panic!("expected multicast, got {other:?}"),
        }
    }
}

/// C5k smoke test: 5000 concurrent clients against a single reactor
/// server in this process. Every member receives a broadcast, and the
/// thread population is exactly the server's shard loops, dispatcher
/// and accept thread plus the one dial loop every client rides —
/// nowhere near the O(2 × clients) a thread-per-connection transport
/// would need.
#[test]
fn c5k_reactor_sustains_five_thousand_members() {
    const MEMBERS: usize = 5000;
    const SHARDS: usize = 4;
    /// The server's, and the dial loop.
    const THREADS: usize = SHARDS + 2 + 1;

    if !fd_limit_allows("c5k_reactor_sustains_five_thousand_members", MEMBERS) {
        return;
    }
    let _census = census_lock();

    let baseline = thread_count();
    let server = CoronaServer::bind(
        "127.0.0.1:0",
        ServerConfig::stateful(ServerId::new(1)).with_reactor_shards(SHARDS),
    )
    .unwrap();
    let members = population(&[server.local_addr()], MEMBERS);

    // NOT a function of the 5000 connections: with thread-per-
    // connection this process would be past 10_000 threads here.
    let with_load = thread_count();
    let threads = with_load.saturating_sub(baseline);
    assert!(
        threads <= THREADS,
        "{MEMBERS} members and their server run {threads} threads \
         (baseline {baseline}, loaded {with_load}) — expected at most {THREADS}"
    );

    broadcast_reaches_all(&members);
    drop(members);
    server.shutdown();
}

/// The dial side is as flat: every connection [`TcpDialer`] makes runs
/// on the one shared dial loop and pushes into its client's router, so
/// a plain [`CoronaClient`] costs no thread at all — and a supervised
/// one exactly one, its failover driver, until it is closed.
#[test]
fn dialled_clients_cost_no_thread() {
    const CLIENTS: usize = 200;
    const SUPERVISED: usize = 8;
    const SHARDS: usize = 1;
    /// The server as in the C5k census, plus the dial loop — which an
    /// earlier test in this process may already have started.
    const SHARED: usize = SHARDS + 2 + 1;

    let _census = census_lock();
    let baseline = thread_count();
    let server = CoronaServer::bind(
        "127.0.0.1:0",
        ServerConfig::stateful(ServerId::new(1)).with_reactor_shards(SHARDS),
    )
    .unwrap();
    let addr = server.local_addr();
    let clients: Vec<CoronaClient> = (0..CLIENTS)
        .map(|i| tcp_connect(&addr, &format!("c{i}")))
        .collect();

    let threads = thread_count().saturating_sub(baseline);
    assert!(
        threads <= SHARED,
        "{CLIENTS} dialled clients and their server run {threads} threads \
         — expected {SHARED}"
    );

    // A supervised client costs exactly its driver, which close() ends.
    let before = thread_count();
    let supervised: Vec<CoronaClient> = (0..SUPERVISED)
        .map(|i| {
            let dialer = std::sync::Arc::new(TcpDialer);
            let seeds = vec![addr.clone()];
            let config = FailoverConfig::default();
            CoronaClient::connect_failover(dialer, seeds, format!("f{i}"), config).unwrap()
        })
        .collect();
    // (A thread is named by itself, once running: until then it wears
    // this test's name, and the census skips it.)
    let settled = |want: usize| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while thread_count() != want && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        thread_count()
    };
    assert_eq!(
        settled(before + SUPERVISED),
        before + SUPERVISED,
        "one driver each"
    );
    supervised.iter().for_each(CoronaClient::close);
    assert_eq!(settled(before), before, "close() ends each driver");

    for c in clients {
        c.close();
    }
    server.shutdown();
}

/// The replicated runtime rides the same kernel, so a replica's thread
/// population is as flat as the single server's: three replicas on
/// one-shard reactor listeners hold 5000 members (C5k) with a constant
/// number of threads — event loops, accept threads, dispatchers — none
/// per client, and none per peer link either: the links the servers
/// dial each other on, like the clients' own, push their frames from
/// the shared dial loop.
#[test]
fn replicated_thread_count_is_independent_of_member_count() {
    const MEMBERS: usize = 5000;
    const REPLICAS: usize = 3;
    /// Per replica: a client and a peer listener, each one shard loop
    /// plus one accept thread; and the dispatcher.
    const PER_REPLICA: usize = 2 * (1 + 1) + 1;
    /// The process-wide dial loop the peer links and the clients share.
    const DIALER_LOOP: usize = 1;

    if !fd_limit_allows(
        "replicated_thread_count_is_independent_of_member_count",
        MEMBERS,
    ) {
        return;
    }

    let _census = census_lock();
    let baseline = thread_count();
    // Patient failure detection: five thousand joins on a small box can
    // hold a heartbeat past the default 250 ms, and an election (which
    // may drop a forwarded join) is not what is counted here.
    let cluster = Cluster::start(REPLICAS as u64, |c| ReplicatedConfig {
        base_timeout_ms: 5_000,
        ..c
    });

    let addrs: Vec<String> = (1..=REPLICAS as u64)
        .map(|i| cluster.client_addr(i))
        .collect();
    let members = population(&addrs, MEMBERS);
    broadcast_reaches_all(&members);

    let with_load = thread_count();
    let threads = with_load.saturating_sub(baseline);
    let bound = REPLICAS * PER_REPLICA + DIALER_LOOP;
    assert!(
        threads <= bound,
        "{REPLICAS} replicas and their {MEMBERS} members run {threads} threads \
         (baseline {baseline}, loaded {with_load}) — expected at most {bound}"
    );

    drop(members);
    cluster.shutdown();
}

/// A connection that notes the thread queuing each frame on it.
#[derive(Debug)]
struct Noted(Arc<Box<dyn Connection>>, Arc<Mutex<Vec<String>>>);

impl Connection for Noted {
    fn queue_frame(&self, frame: Frame) -> Result<(), TransportError> {
        let thread = std::thread::current().name().unwrap_or_default().to_owned();
        self.1.lock().unwrap().push(thread);
        self.0.queue_frame(frame)
    }
    fn flush(&self, by: FlushBy) {
        self.0.flush(by);
    }
    fn set_send_capacity(&self, cap: usize) {
        self.0.set_send_capacity(cap);
    }
    fn attach_sink(&self, conn_id: u64, sink: Arc<dyn FrameSink>) {
        self.0.attach_sink(conn_id, sink);
    }
    fn backlog(&self) -> usize {
        self.0.backlog()
    }
    fn close(&self) {
        self.0.close();
    }
    fn is_closed(&self) -> bool {
        self.0.is_closed()
    }
    fn peer_label(&self) -> String {
        self.0.peer_label()
    }
}

/// Dials over TCP, noting who sends, and keeps each connection.
#[derive(Default)]
struct NotingDialer {
    senders: Arc<Mutex<Vec<String>>>,
    dialled: Mutex<Vec<Arc<Box<dyn Connection>>>>,
}

impl Dialer for NotingDialer {
    fn dial_timeout(&self, addr: &str, t: Duration) -> Result<Box<dyn Connection>, TransportError> {
        let conn = Arc::new(TcpDialer.dial_timeout(addr, t)?);
        self.dialled.lock().unwrap().push(Arc::clone(&conn));
        Ok(Box::new(Noted(conn, Arc::clone(&self.senders))))
    }
}

/// A supervised client's router runs on the shared dial loop and sends
/// nothing there — a link that sleeps in `send` (a nemesis delay) would
/// stall every dialled connection. The re-join its resume queues when
/// the `Welcome` comes is sent by the client's driver.
#[test]
fn a_supervised_clients_router_sends_nothing() {
    let _census = census_lock();
    let config = ServerConfig::stateful(ServerId::new(1));
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let writer = tcp_connect(&addr, "writer");
    writer
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    let dialer = Arc::new(NotingDialer::default());
    let registry = Registry::new();
    let config = FailoverConfig {
        registry: Some(Arc::clone(&registry)),
        ..FailoverConfig::default()
    };
    let seeds = vec![addr.clone()];
    let client = CoronaClient::connect_failover(dialer.clone(), seeds, "roam", config).unwrap();
    client
        .join_supervised(G, MemberRole::Observer, false)
        .unwrap();

    dialer.dialled.lock().unwrap()[0].close();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while registry.snapshot().counter("client.reconnects") == 0 {
        assert!(std::time::Instant::now() < deadline, "no resume");
        std::thread::sleep(Duration::from_millis(10));
    }
    let senders = dialer.senders.lock().unwrap().clone();
    let driver = senders.iter().filter(|t| *t == "corona-failover").count();
    assert_eq!(driver, 3, "two Hellos and the re-join: {senders:?}");
    assert!(!senders.iter().any(|t| t.starts_with("corona-reactor")));
    client.close();
    writer.close();
    server.shutdown();
}
