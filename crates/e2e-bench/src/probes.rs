//! Per-layer probes of the traced run: each one replays the workload's
//! seeded messages through one layer's public functions in isolation,
//! after the live phases and with the servers gone, so a layer's cost
//! can be read without the others around it. Every probe is one span.

use crate::spans::Recorder;
use crate::util::{self, micros, Rng};
use crate::workload::Spec;
use bytes::Bytes;
use corona_core::{Effect, ServerConfig, ServerCore};
use corona_health::{HealthRegistry, SloConfig};
use corona_membership::GroupRegistry;
use corona_metrics::Registry;
use corona_replication::{CoordEffect, CoordinatorCore, ReplicaCore, ReplicaEffect};
use corona_statelog::{GroupLog, ReductionPolicy, StableStore, SyncPolicy};
use corona_trace::{Hop, TraceId};
use corona_transport::{Connection, FrameSink, Listener, ReactorListener};
use corona_types::frame::{frame_header, write_frame};
use corona_types::id::{ClientId, Epoch, GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, ServerEvent};
use corona_types::policy::{
    DeliveryScope, MemberInfo, MemberRole, Persistence, StateTransferPolicy,
};
use corona_types::state::{LoggedUpdate, SharedState, StateUpdate, Timestamp};
use corona_types::wire::{decode_traced, encode_traced, Encode};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a timing loop runs at full scale. Long enough for the mean
/// to settle, short enough that sixty probes fit a traced run.
const BUDGET: Duration = Duration::from_millis(40);
/// Groups the stable-store probes append to round-robin, whatever the
/// workload: `fsyncs_per_1k_appends` is only comparable at one shape.
const STORE_GROUPS: u64 = 64;
const T0: Timestamp = Timestamp::from_micros(1);

type Layer = BTreeMap<&'static str, f64>;

/// Calls `op` in batches until `budget` is spent; mean nanoseconds per
/// call.
fn per_call(budget: Duration, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while started.elapsed() < budget {
        for _ in 0..16 {
            op();
        }
        calls += 16;
    }
    started.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
}

struct Probe<'a> {
    spec: &'a Spec,
    layer: &'a mut Layer,
    spans: &'a mut Recorder,
    rng: Rng,
    next_op: u64,
    /// [`BUDGET`] times the run's scale.
    budget: Duration,
    scale: f64,
}

impl Probe<'_> {
    /// Runs one probe as one span and keeps what it measured.
    fn measure(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> f64) {
        let started = Instant::now();
        let value = body(self);
        self.next_op += 1;
        self.spans.record(
            &format!("probe.{name}"),
            started,
            Instant::now(),
            None,
            self.next_op,
        );
        self.layer.insert(name, value);
    }

    fn payload(&mut self) -> Bytes {
        Bytes::from(self.rng.bytes(self.spec.payload))
    }

    fn initial_state(&mut self) -> SharedState {
        let payload = self.payload();
        SharedState::from_objects(
            (1..=self.spec.objects as u64).map(|o| (ObjectId::new(o), payload.clone())),
        )
    }

    fn update(&mut self, n: u64) -> StateUpdate {
        StateUpdate::set_state(
            ObjectId::new(1 + n % self.spec.objects as u64),
            self.payload(),
        )
    }

    /// A group log in the state the workload leaves it in: every
    /// object present and a suffix as long as reduction lets it get.
    fn workload_log(&mut self) -> GroupLog {
        let mut log = GroupLog::new(GroupId::new(1), self.initial_state());
        let update = self.update(0);
        for n in 0..self.spec.warmup.min(4096) as u64 {
            let mut u = update.clone();
            u.object = ObjectId::new(1 + n % self.spec.objects as u64);
            log.append(ClientId::new(1), u, T0);
        }
        log
    }

    fn config(&self) -> ServerConfig {
        let config = ServerConfig::stateful(ServerId::new(1))
            .with_reduction(ReductionPolicy::default_interactive());
        if self.spec.persistent {
            // The core only asks whether storage is on (it then emits
            // log effects); nothing is opened here.
            config.with_storage("unused")
        } else {
            config
        }
    }
}

fn members(n: usize) -> Vec<MemberInfo> {
    (1..=n as u64)
        .map(|c| MemberInfo::new(ClientId::new(c), MemberRole::Principal, format!("m{c}")))
        .collect()
}

fn types(p: &mut Probe<'_>) {
    p.measure("types.encode_ns_per_msg", |p| {
        let event = ServerEvent::Multicast {
            group: GroupId::new(1),
            logged: LoggedUpdate {
                seq: SeqNo::new(70_000),
                sender: ClientId::new(7),
                timestamp: Timestamp::now(),
                update: p.update(0),
            },
        };
        per_call(p.budget, || {
            black_box(encode_traced(black_box(&event), None));
        })
    });
    p.measure("types.decode_ns_per_msg", |p| {
        let request = ClientRequest::Broadcast {
            group: GroupId::new(1),
            update: p.update(0),
            scope: DeliveryScope::SenderInclusive,
        };
        let bytes = encode_traced(&request, None);
        per_call(p.budget, || {
            let _ = black_box(decode_traced::<ClientRequest>(black_box(&bytes)));
        })
    });
    p.measure("types.frame_crc_ns_per_kib", |p| {
        let body = p.rng.bytes(64 * 1024);
        per_call(p.budget, || {
            black_box(frame_header(black_box(&body)));
        }) / 64.0
    });
    p.measure("types.transfer_encode_us", |p| {
        let log = p.workload_log();
        let joined = ServerEvent::Joined {
            members: members(p.spec.members),
            transfer: log.transfer(&StateTransferPolicy::FullState),
        };
        per_call(p.budget, || {
            black_box(joined.encode_to_bytes());
        }) / 1e3
    });
}

/// A `ServerCore` with the workload's groups and members; returns the
/// core, the sender of each group and one client in no group.
fn populated_core(p: &mut Probe<'_>) -> (ServerCore, Vec<(GroupId, ClientId)>, ClientId) {
    let mut core = ServerCore::new(&p.config());
    let mut senders = Vec::new();
    let persistence = if p.spec.persistent {
        Persistence::Persistent
    } else {
        Persistence::Transient
    };
    for g in 1..=p.spec.groups as u64 {
        let group = GroupId::new(g);
        let mut last = ClientId::new(0);
        for m in 0..p.spec.members {
            let (client, _) = core.client_hello(format!("g{g}m{m}"), None);
            if m == 0 {
                let initial = p.initial_state();
                core.handle_request(
                    client,
                    ClientRequest::CreateGroup {
                        group,
                        persistence,
                        initial_state: initial,
                    },
                    T0,
                );
            }
            core.handle_request(client, join_request(group, StateTransferPolicy::None), T0);
            last = client;
        }
        senders.push((group, last));
    }
    let (outsider, _) = core.client_hello("outsider".into(), None);
    (core, senders, outsider)
}

fn join_request(group: GroupId, policy: StateTransferPolicy) -> ClientRequest {
    ClientRequest::Join {
        group,
        role: MemberRole::Principal,
        policy,
        notify_membership: false,
    }
}

fn core(p: &mut Probe<'_>) {
    p.measure("core.sequence_ns_per_bcast", |p| {
        let (mut core, senders, _) = populated_core(p);
        let update = p.update(0);
        let mut n = 0u64;
        per_call(p.budget, || {
            let (group, sender) = senders[n as usize % senders.len()];
            let mut update = update.clone();
            update.object = ObjectId::new(1 + n % p.spec.objects as u64);
            n += 1;
            let effects = core.handle_request(
                sender,
                ClientRequest::Broadcast {
                    group,
                    update,
                    scope: DeliveryScope::SenderInclusive,
                },
                T0,
            );
            debug_assert!(effects
                .iter()
                .any(|e| matches!(e, Effect::Multicast { .. })));
            black_box(effects);
        })
    });
    for (name, policy) in [
        ("core.join_full_us", StateTransferPolicy::FullState),
        ("core.join_last64_us", StateTransferPolicy::LastUpdates(64)),
        ("core.join_none_us", StateTransferPolicy::None),
    ] {
        p.measure(name, |p| {
            let (mut core, senders, outsider) = populated_core(p);
            let (group, sender) = senders[0];
            for n in 0..128 {
                let update = p.update(n);
                core.handle_request(
                    sender,
                    ClientRequest::Broadcast {
                        group,
                        update,
                        scope: DeliveryScope::SenderInclusive,
                    },
                    T0,
                );
            }
            let mut joining = Duration::ZERO;
            let mut joins = 0u32;
            let started = Instant::now();
            while started.elapsed() < p.budget {
                let t = Instant::now();
                black_box(core.handle_request(outsider, join_request(group, policy.clone()), T0));
                joining += t.elapsed();
                joins += 1;
                core.handle_request(outsider, ClientRequest::Leave { group }, T0);
            }
            micros(joining) / f64::from(joins)
        });
    }
}

fn statelog(p: &mut Probe<'_>, work_dir: &std::path::Path) -> Result<(), String> {
    p.measure("statelog.append_ns", |p| {
        let mut log = GroupLog::new(GroupId::new(1), p.initial_state());
        let update = p.update(0);
        let mut n = 0u64;
        per_call(p.budget, || {
            let mut u = update.clone();
            u.object = ObjectId::new(1 + n % p.spec.objects as u64);
            n += 1;
            black_box(log.append(ClientId::new(1), u, T0));
            if log.suffix_len() > 4096 {
                log.reduce_all();
            }
        })
    });
    p.measure("statelog.reduce_us", |p| {
        // What `ReductionPolicy::default_interactive` asks for: a full
        // 4097-entry suffix folded down to its newest 1024.
        let update = p.update(0);
        let mut total = Duration::ZERO;
        let rounds = 8;
        for _ in 0..rounds {
            let mut log = GroupLog::new(GroupId::new(1), p.initial_state());
            for n in 0..4097u64 {
                let mut u = update.clone();
                u.object = ObjectId::new(1 + n % p.spec.objects as u64);
                log.append(ClientId::new(1), u, T0);
            }
            let through = ReductionPolicy::default_interactive()
                .due(&log)
                .expect("suffix is over the cap");
            let t = Instant::now();
            black_box(log.reduce(through).expect("valid reduction point"));
            total += t.elapsed();
        }
        micros(total) / f64::from(rounds)
    });
    for (name, policy) in [
        ("statelog.transfer_full_us", StateTransferPolicy::FullState),
        (
            "statelog.transfer_last64_us",
            StateTransferPolicy::LastUpdates(64),
        ),
    ] {
        p.measure(name, |p| {
            let log = p.workload_log();
            per_call(p.budget, || {
                black_box(log.transfer(&policy));
            }) / 1e3
        });
    }

    let mut failure = None;
    for (name, sync, appends) in [
        (
            "statelog.store_append_us_osdefault",
            SyncPolicy::OsDefault,
            4096u64,
        ),
        (
            "statelog.store_append_us_every64",
            SyncPolicy::EveryN(64),
            4096,
        ),
        (
            "statelog.store_append_us_everyrecord",
            SyncPolicy::EveryRecord,
            128,
        ),
    ] {
        let dir = work_dir.join(name);
        let update = p.update(0);
        let mut fsyncs = 0;
        p.measure(name, |_| {
            match store_appends(&dir, sync, appends, &update) {
                Ok((per_append, synced)) => {
                    fsyncs = synced;
                    micros(per_append)
                }
                Err(e) => {
                    failure = Some(format!("{name}: {e}"));
                    0.0
                }
            }
        });
        if sync == SyncPolicy::EveryN(64) {
            p.layer.insert(
                "statelog.fsyncs_per_1k_appends",
                fsyncs as f64 * 1000.0 / appends as f64,
            );
        }
        if sync == SyncPolicy::OsDefault {
            p.measure("statelog.recover_ms", |_| {
                let started = Instant::now();
                let recovered = StableStore::open(&dir, sync).and_then(|store| {
                    for g in store.list_groups()? {
                        black_box(store.recover_group(g)?);
                    }
                    Ok(())
                });
                if let Err(e) = recovered {
                    failure = Some(format!("statelog.recover_ms: {e}"));
                }
                started.elapsed().as_secs_f64() * 1e3
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    failure.map_or(Ok(()), Err)
}

/// Appends `appends` records round-robin over [`STORE_GROUPS`] groups
/// of a fresh store; mean time per append, and how many fsyncs the
/// appends caused (the store's own `statelog.fsync_us` count).
fn store_appends(
    dir: &std::path::Path,
    sync: SyncPolicy,
    appends: u64,
    update: &StateUpdate,
) -> std::io::Result<(Duration, u64)> {
    let registry = Registry::new();
    let fsyncs = || {
        let snapshot = registry.snapshot();
        snapshot
            .histogram("statelog.fsync_us")
            .map_or(0, |h| h.count)
    };
    let store = StableStore::open(dir, sync)?.with_metrics(&registry);
    let mut handles = Vec::new();
    for g in 1..=STORE_GROUPS {
        handles.push(store.create_group(
            GroupId::new(g),
            Persistence::Persistent,
            &SharedState::new(),
        )?);
    }
    let fsyncs_before = fsyncs();
    let started = Instant::now();
    for n in 0..appends {
        let logged = LoggedUpdate {
            seq: SeqNo::new(1 + n / STORE_GROUPS),
            sender: ClientId::new(1),
            timestamp: T0,
            update: update.clone(),
        };
        handles[(n % STORE_GROUPS) as usize].append_update(&logged)?;
    }
    Ok((started.elapsed() / appends as u32, fsyncs() - fsyncs_before))
}

fn membership(p: &mut Probe<'_>) {
    p.measure("membership.join_leave_ns", |p| {
        let mut registry = GroupRegistry::new();
        let group = GroupId::new(1);
        registry
            .create(group, Persistence::Persistent)
            .expect("fresh registry");
        for info in members(p.spec.members) {
            registry.join(group, info, false).expect("distinct members");
        }
        let outsider = ClientId::new(1_000_000);
        per_call(p.budget, || {
            let info = MemberInfo::new(outsider, MemberRole::Principal, "outsider");
            black_box(registry.join(group, info, false).is_ok());
            black_box(registry.leave(group, outsider).is_ok());
        })
    });
}

/// Sends every frame straight back on the connection it came from.
struct EchoSink {
    conns: Mutex<HashMap<u64, Box<dyn Connection>>>,
    accepted: Mutex<mpsc::Sender<Instant>>,
}

impl FrameSink for EchoSink {
    fn on_accept(&self, conn_id: u64, conn: Box<dyn Connection>) {
        let now = Instant::now();
        self.conns
            .lock()
            .expect("echo sink poisoned")
            .insert(conn_id, conn);
        let _ = self.accepted.lock().expect("echo sink poisoned").send(now);
    }

    fn on_frame(&self, conn_id: u64, frame: Bytes) -> bool {
        if let Some(conn) = self.conns.lock().expect("echo sink poisoned").get(&conn_id) {
            let _ = conn.send(frame);
        }
        true
    }

    fn ready_for_more(&self) -> bool {
        true
    }

    fn on_closed(&self, conn_id: u64, _clean: bool) {
        self.conns
            .lock()
            .expect("echo sink poisoned")
            .remove(&conn_id);
    }
}

fn dial(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

fn transport(p: &mut Probe<'_>) -> Result<(), String> {
    let io = |e: std::io::Error| format!("transport probe: {e}");
    let listener =
        ReactorListener::bind("127.0.0.1:0", 2).map_err(|e| format!("transport probe: {e}"))?;
    let (accepted_tx, accepted_rx) = mpsc::channel();
    let sink = Arc::new(EchoSink {
        conns: Mutex::new(HashMap::new()),
        accepted: Mutex::new(accepted_tx),
    });
    if !listener.attach_sink(sink) {
        return Err("transport probe: listener refused the sink".into());
    }
    let addr = listener.local_addr();

    // One raw socket per sender of the workload, each keeping the
    // workload's depth of the workload's frame size in flight.
    let mut frame = Vec::new();
    write_frame(&mut frame, &p.rng.bytes(p.spec.payload)).map_err(io)?;
    let depth = p.spec.depth;
    let window: Vec<u8> = frame.repeat(depth);
    let mut socks = Vec::new();
    for _ in 0..p.spec.groups {
        socks.push(dial(&addr).map_err(io)?);
        let _ = accepted_rx.recv_timeout(Duration::from_secs(10));
    }
    let mut failed = None;
    let mut echo = |socks: &mut Vec<TcpStream>, window: &[u8]| {
        let mut back = vec![0; window.len()];
        for sock in socks.iter_mut() {
            if let Err(e) = sock.write_all(window) {
                failed = Some(io(e));
            }
        }
        for sock in socks.iter_mut() {
            if let Err(e) = sock.read_exact(&mut back) {
                failed = Some(io(e));
            }
        }
    };
    let run_for = Duration::from_millis(500).mul_f64(p.scale.min(1.0));
    let cpu_before = util::process_cpu();
    let started = Instant::now();
    let mut frames = 0u64;
    p.measure("transport.echo_frames_per_s", |p| {
        while started.elapsed() < run_for {
            echo(&mut socks, &window);
            frames += (depth * p.spec.groups) as u64;
        }
        frames as f64 / started.elapsed().as_secs_f64()
    });
    let cpu = util::process_cpu().saturating_sub(cpu_before);
    p.layer
        .insert("transport.cpu_us_per_frame", micros(cpu) / frames as f64);
    p.measure("transport.echo_rtt_p50_us", |_| {
        let mut one = vec![socks.swap_remove(0)];
        let mut rtts: Vec<f64> = (0..500)
            .map(|_| {
                let t = Instant::now();
                echo(&mut one, &frame);
                micros(t.elapsed())
            })
            .collect();
        util::median(&mut rtts)
    });
    p.measure("transport.accept_us", |_| {
        let mut waits = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            let sock = dial(&addr);
            match (sock, accepted_rx.recv_timeout(Duration::from_secs(10))) {
                (Ok(_), Ok(at)) => waits.push(micros(at.saturating_duration_since(t))),
                (Err(e), _) => failed = Some(io(e)),
                (_, Err(e)) => failed = Some(format!("transport probe: accept: {e}")),
            }
        }
        util::median(&mut waits)
    });
    drop(socks);
    listener.shutdown();
    failed.map_or(Ok(()), Err)
}

fn replication(p: &mut Probe<'_>) {
    // A coordinator and one follower replica wired back to back: what
    // one emits for the other is handed over by hand, so each step is
    // timed alone.
    let replica_id = ServerId::new(2);
    let mut coord = CoordinatorCore::new(&p.config(), Epoch::ZERO);
    let mut replica = ReplicaCore::new(replica_id);
    let group = GroupId::new(1);
    let to_replica =
        |coord: &mut CoordinatorCore, replica: &mut ReplicaCore, effects: Vec<ReplicaEffect>| {
            for effect in effects {
                if let ReplicaEffect::ToCoordinator(msg) = effect {
                    for back in coord.handle_peer(msg, T0) {
                        if let CoordEffect::ToServer { to, msg } = back {
                            if to == replica_id {
                                replica.handle_peer(msg);
                            }
                        }
                    }
                }
            }
        };
    let mut sender = ClientId::new(0);
    for m in 0..p.spec.members {
        let (client, effects) = replica.client_hello(format!("m{m}"), None);
        to_replica(&mut coord, &mut replica, effects);
        if m == 0 {
            let create = ClientRequest::CreateGroup {
                group,
                persistence: Persistence::Transient,
                initial_state: p.initial_state(),
            };
            let effects = replica.handle_request(client, create, T0);
            to_replica(&mut coord, &mut replica, effects);
        }
        let effects =
            replica.handle_request(client, join_request(group, StateTransferPolicy::None), T0);
        to_replica(&mut coord, &mut replica, effects);
        sender = client;
    }

    let update = p.update(0);
    let mut coordinator_time = Duration::ZERO;
    let mut replica_time = Duration::ZERO;
    let mut steps = 0u32;
    let started = Instant::now();
    while started.elapsed() < p.budget * 2 {
        let mut u = update.clone();
        u.object = ObjectId::new(1 + u64::from(steps) % p.spec.objects as u64);
        let request = ClientRequest::Broadcast {
            group,
            update: u,
            scope: DeliveryScope::SenderInclusive,
        };
        for effect in replica.handle_request(sender, request, T0) {
            let ReplicaEffect::ToCoordinator(forward) = effect else {
                continue;
            };
            let t = Instant::now();
            let sequenced = coord.handle_peer(forward, T0);
            coordinator_time += t.elapsed();
            for back in sequenced {
                if let CoordEffect::ToServer { msg, .. } = back {
                    let t = Instant::now();
                    black_box(replica.handle_peer(msg));
                    replica_time += t.elapsed();
                }
            }
        }
        steps += 1;
    }
    p.layer.insert(
        "replication.coordinator_step_ns",
        coordinator_time.as_secs_f64() * 1e9 / f64::from(steps),
    );
    p.measure("replication.replica_step_ns", |_| {
        replica_time.as_secs_f64() * 1e9 / f64::from(steps)
    });
}

fn observability(p: &mut Probe<'_>) {
    let registry = Registry::new();
    p.measure("metrics.counter_inc_ns", |p| {
        let counter = registry.counter("probe.counter");
        per_call(p.budget, || counter.inc())
    });
    p.measure("metrics.histogram_record_ns", |p| {
        let histogram = registry.histogram("probe.histogram");
        let mut v = 0u64;
        per_call(p.budget, || {
            v = v.wrapping_add(97);
            histogram.record(v % 4096);
        })
    });
    p.measure("trace.record_disabled_ns", |p| {
        corona_trace::set_enabled(false);
        per_call(p.budget, || {
            corona_trace::record(Hop::Sequence, TraceId(1), 1, 0)
        })
    });
    p.measure("trace.record_enabled_ns", |p| {
        corona_trace::set_enabled(true);
        let ns = per_call(p.budget, || {
            corona_trace::record(Hop::Sequence, TraceId(1), 1, 0)
        });
        corona_trace::set_enabled(false);
        corona_trace::clear();
        ns
    });
    p.measure("health.cell_update_ns", |p| {
        let health = HealthRegistry::new(SloConfig::default());
        let cell = health.group(GroupId::new(1));
        let mut seq = 0u64;
        per_call(p.budget, || {
            seq += 1;
            cell.note_submitted();
            cell.note_sequenced(seq);
            cell.note_delivered(seq);
        })
    });
}

/// Runs every probe for `spec`, adding its numbers to `layer` and one
/// span per probe to `spans`.
///
/// # Errors
///
/// A probe that could not use its socket or its storage directory.
pub fn run_all(
    spec: &Spec,
    seed: u64,
    scale: f64,
    work_dir: &std::path::Path,
    layer: &mut Layer,
    spans: &mut Recorder,
) -> Result<(), String> {
    let mut probe = Probe {
        spec,
        layer,
        spans,
        rng: Rng::new(seed ^ 0x7072_6f62),
        next_op: 0,
        budget: BUDGET.mul_f64(scale.min(1.0)),
        scale,
    };
    types(&mut probe);
    core(&mut probe);
    statelog(&mut probe, work_dir)?;
    membership(&mut probe);
    transport(&mut probe)?;
    replication(&mut probe);
    observability(&mut probe);
    Ok(())
}
