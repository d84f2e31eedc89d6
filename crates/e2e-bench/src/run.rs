//! One benchmark run: set-up, the closed-loop saturate phase, the
//! open-loop paced phase with joins and connects beside it, and the
//! correctness audit over all of it.
//!
//! The load generator is one process and two threads. Thread A (the
//! caller's) issues every broadcast, serially and one socket at a
//! time, then drains the members' sockets; thread B does joins and
//! connects. Member sockets are the workload's population, not
//! parallel load sources.

use crate::cluster::Cluster;
use crate::probes;
use crate::spans::Recorder;
use crate::util::{self, micros, Rng};
use crate::wire::Member;
use crate::workload::Spec;
use bytes::Bytes;
use corona_metrics::MetricsSnapshot;
use corona_trace::{Breakdown, Hop, SpanEvent, TraceId};
use corona_types::id::{GroupId, ObjectId};
use corona_types::message::{ClientRequest, ServerEvent, StateTransfer};
use corona_types::policy::{MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::SharedState;
use corona_types::wire::TraceToken;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline on every blocking read and write of the generator. An
/// operation that misses it is counted as failed.
const DEADLINE: Duration = Duration::from_secs(10);
/// Server instances set up and measured per run (a traced run makes
/// do with one).
const WORLDS: usize = 3;
/// Rounds of one saturate window and one paced slice per instance.
const ROUNDS: usize = 4;
/// Share of every round spent saturating; the rest is paced.
const SATURATE_SHARE: f64 = 0.5;
/// Joins per transfer policy, and connects, at full scale.
const JOIN_CYCLES: usize = 300;
/// Broadcasts between two automatic reductions of a group's log under
/// `ReductionPolicy::default_interactive` (fold at 4096, keep 1024).
const REDUCTION_CYCLE: usize = 3072;
/// Pre-connected connections thread B joins from.
const JOINERS: usize = 2;
/// Spans kept per traced run (four per traced broadcast); the rest of
/// the traced broadcasts still feed the hop breakdown.
const MAX_SPANS: usize = 4000;
/// Traced broadcasts between two drains of the flight recorder, whose
/// per-thread rings keep 4096 spans.
const TRACE_DRAIN_EVERY: usize = 256;

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seeds every generated input.
    pub seed: u64,
    /// Length of the measured phases together.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// 1.0 from the command line; the tests shrink every count by it.
    pub scale: f64,
    /// Where the span file goes; stable storage and the probes' files
    /// live in a `tmp-<pid>-<n>` directory below it, removed when the
    /// run ends.
    pub out_dir: PathBuf,
}

impl Options {
    fn worlds(&self) -> usize {
        if self.trace {
            1
        } else {
            WORLDS
        }
    }
}

/// The run's scratch directory; dropping it removes it.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(out_dir: &std::path::Path) -> io::Result<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `(name, value, unit)` — every end-to-end metric, or with
    /// `trace` every per-layer one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Broadcasts, joins and connects attempted in measured phases.
    pub attempted: u64,
    /// Those not completed within [`DEADLINE`].
    pub failed: u64,
    /// Audit findings; empty when every output was correct.
    pub problems: Vec<String>,
    /// Threads alive while saturating that are not the servers'.
    pub generator_threads: usize,
    /// Where the traced run wrote its spans.
    pub span_file: Option<PathBuf>,
}

struct Group {
    id: GroupId,
    /// Audit member first, sender (the last one joined) last.
    members: Vec<Member>,
    objects: Vec<ObjectId>,
    payloads: Vec<Bytes>,
    /// Broadcasts sent so far, which is also the highest sequence
    /// number issued: only the sender broadcasts into its group.
    sent: u64,
    /// Broadcasts sent and not yet drained.
    in_flight: u64,
    /// Last sequence number the audit member and the sender saw.
    audited: u64,
    echoed: u64,
}

/// Time thread A spent on each side of its loop, and what it moved.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    broadcasts: u64,
    deliveries: u64,
    send: Duration,
}

struct World {
    cluster: Cluster,
    groups: Vec<Group>,
    joiners: Vec<Member>,
    /// Per group, the last sequence number thread A has seen
    /// delivered; thread B checks transfers against it.
    seen: Arc<Vec<AtomicU64>>,
    problems: Vec<String>,
    tally: Tally,
}

fn err_str(what: &str, e: io::Error) -> String {
    format!("{what}: {e}")
}

/// Reads events until `wanted` picks one, skipping what a member may
/// see at any time (`Roster`, `LogReduced`, multicasts).
fn await_event<T>(
    member: &mut Member,
    mut wanted: impl FnMut(ServerEvent) -> Option<T>,
) -> io::Result<T> {
    loop {
        match member.next_event()? {
            ServerEvent::Error { code, detail } => {
                return Err(io::Error::other(format!("server error {code}: {detail}")))
            }
            event => {
                if let Some(found) = wanted(event) {
                    return Ok(found);
                }
            }
        }
    }
}

impl Group {
    /// Queues and writes `n` broadcasts from the sender, each a
    /// `SetState` on the next object of the ring.
    fn send(&mut self, n: u64, traced: bool, tally: &mut Tally) -> io::Result<Option<TraceToken>> {
        let started = Instant::now();
        let mut token = None;
        let id = self.id;
        let sender = self.members.last_mut().expect("group has members");
        for _ in 0..n {
            let slot = (self.sent % self.objects.len() as u64) as usize;
            if traced {
                let trace = corona_trace::next_trace_id();
                corona_trace::record(Hop::ClientSubmit, trace, 0, 0);
                token = Some(TraceToken {
                    id: trace.0,
                    origin_us: corona_trace::now_us(),
                });
            }
            sender.queue_broadcast(
                id,
                self.objects[slot],
                &self.payloads[slot % self.payloads.len()],
                token,
            )?;
            self.sent += 1;
        }
        sender.flush()?;
        self.in_flight += n;
        tally.broadcasts += n;
        tally.send += started.elapsed();
        Ok(token)
    }

    /// Checks one audited multicast: right group, next sequence number.
    fn check(id: GroupId, last: &mut u64, got: (GroupId, u64), problems: &mut Vec<String>) {
        let (group, seq) = got;
        if group != id || seq != *last + 1 {
            problems.push(format!(
                "{id}: expected seq {} got {group} seq {seq}",
                *last + 1
            ));
        }
        *last = seq;
    }

    /// Reads the sender's own copy of the next broadcast.
    fn read_echo(&mut self, problems: &mut Vec<String>) -> io::Result<Option<TraceToken>> {
        let sender = self.members.last_mut().expect("group has members");
        let (group, seq, token) = sender.next_multicast()?;
        Self::check(self.id, &mut self.echoed, (group, seq), problems);
        Ok(token)
    }

    /// Takes `n` multicasts off every member's socket. The audit
    /// member and the sender decode theirs and check the sequence; the
    /// rest are counted by walking length prefixes. `echo_taken` says
    /// the sender's first copy was already read by [`Group::read_echo`].
    fn drain(
        &mut self,
        n: u64,
        echo_taken: bool,
        seen: &AtomicU64,
        problems: &mut Vec<String>,
        tally: &mut Tally,
    ) -> io::Result<()> {
        let last = self.members.len() - 1;
        for (i, member) in self.members.iter_mut().enumerate() {
            if i == 0 && last > 0 {
                for _ in 0..n {
                    let (group, seq, _) = member.next_multicast()?;
                    Self::check(self.id, &mut self.audited, (group, seq), problems);
                }
                seen.store(self.audited, Ordering::Release);
            } else if i == last {
                for _ in u64::from(echo_taken)..n {
                    let (group, seq, _) = member.next_multicast()?;
                    Self::check(self.id, &mut self.echoed, (group, seq), problems);
                }
            } else {
                member.skip_multicasts(n)?;
            }
        }
        self.in_flight -= n;
        tally.deliveries += n * self.members.len() as u64;
        Ok(())
    }
}

impl World {
    /// Binds the servers, creates and preloads the groups, connects
    /// and joins every resident and the joiners' connections, and runs
    /// the fixed-count warm-up.
    fn setup(spec: &Spec, opts: &Options, storage: &std::path::Path) -> Result<World, String> {
        let cluster = Cluster::start(spec, storage)?;
        let mut rng = Rng::new(opts.seed);
        let mut groups = Vec::new();
        for g in 0..spec.groups {
            let id = GroupId::new(1 + g as u64);
            let mut objects: Vec<ObjectId> = (0..spec.objects as u64)
                .map(|o| ObjectId::new(1 + o))
                .collect();
            rng.shuffle(&mut objects);
            // A few distinct payloads per group, shared by reference:
            // the servers never look inside them.
            let pool = Bytes::from(rng.bytes(spec.payload * 4));
            let payloads: Vec<Bytes> = (0..4)
                .map(|k| pool.slice(k * spec.payload..(k + 1) * spec.payload))
                .collect();
            let mut members = Vec::new();
            for m in 0..spec.members {
                let is_sender = m + 1 == spec.members;
                let addr = cluster.addr(if is_sender { g } else { m }, is_sender);
                members.push(
                    Member::connect(&addr, &format!("g{g}m{m}"), DEADLINE)
                        .map_err(|e| err_str("connect resident", e))?,
                );
            }
            let initial = SharedState::from_objects(
                objects
                    .iter()
                    .enumerate()
                    .map(|(i, o)| (*o, payloads[i % payloads.len()].clone())),
            );
            let persistence = if spec.persistent {
                Persistence::Persistent
            } else {
                Persistence::Transient
            };
            let creator = &mut members[0];
            creator
                .send(
                    &ClientRequest::CreateGroup {
                        group: id,
                        persistence,
                        initial_state: initial,
                    },
                    None,
                )
                .and_then(|()| {
                    await_event(creator, |e| {
                        matches!(e, ServerEvent::GroupCreated { .. }).then_some(())
                    })
                })
                .map_err(|e| err_str("create group", e))?;
            for member in &mut members {
                join(member, id, StateTransferPolicy::None).map_err(|e| err_str("join", e))?;
            }
            groups.push(Group {
                id,
                members,
                objects,
                payloads,
                sent: 0,
                in_flight: 0,
                audited: 0,
                echoed: 0,
            });
        }
        let mut joiners = Vec::new();
        for j in 0..JOINERS {
            joiners.push(
                Member::connect(&cluster.addr(j, true), &format!("joiner{j}"), DEADLINE)
                    .map_err(|e| err_str("connect joiner", e))?,
            );
        }
        let seen = Arc::new((0..spec.groups).map(|_| AtomicU64::new(0)).collect());
        let mut world = World {
            cluster,
            groups,
            joiners,
            seen,
            problems: Vec::new(),
            tally: Tally::default(),
        };
        // Warm-up: a fixed count per group (never fewer than the 64
        // updates a `LastUpdates(64)` join expects), plus a different share of
        // one reduction cycle for each, so that the groups do not all
        // fold their logs (and write their checkpoints) in the same
        // instant for the rest of the run.
        let scaled = |count: usize| (count as f64 * opts.scale) as u64;
        let quota: Vec<u64> = (0..spec.groups)
            .map(|g| scaled(spec.warmup).max(64) + scaled(REDUCTION_CYCLE * g / spec.groups))
            .collect();
        world
            .closed_loop(spec, Some(&quota), |_| false)
            .map_err(|e| err_str("warm-up", e))?;
        world.tally = Tally::default();
        Ok(world)
    }

    /// The closed loop: every sender keeps between `depth / 2` and
    /// `depth` broadcasts in flight, topped up half a window at a
    /// time. It ends at the round boundary where `done(deliveries so
    /// far)` says so, or when every group has sent its `quota` of
    /// broadcasts; then everything in flight is drained.
    fn closed_loop(
        &mut self,
        spec: &Spec,
        quota: Option<&[u64]>,
        mut done: impl FnMut(u64) -> bool,
    ) -> io::Result<()> {
        let half = (spec.depth as u64 / 2).max(1);
        let mut left: Vec<u64> = match quota {
            Some(quota) => quota.to_vec(),
            None => vec![u64::MAX; self.groups.len()],
        };
        let mut top_up = |groups: &mut [Group], tally: &mut Tally| -> io::Result<()> {
            for (group, left) in groups.iter_mut().zip(&mut left) {
                let n = half.min(*left);
                if n > 0 {
                    group.send(n, false, tally)?;
                    *left -= n;
                }
            }
            Ok(())
        };
        top_up(&mut self.groups, &mut self.tally)?;
        loop {
            top_up(&mut self.groups, &mut self.tally)?;
            let mut idle = true;
            for (g, group) in self.groups.iter_mut().enumerate() {
                let n = half.min(group.in_flight);
                idle &= n == 0;
                group.drain(n, false, &self.seen[g], &mut self.problems, &mut self.tally)?;
            }
            if idle || done(self.tally.deliveries) {
                break;
            }
        }
        for (g, group) in self.groups.iter_mut().enumerate() {
            let rest = group.in_flight;
            group.drain(
                rest,
                false,
                &self.seen[g],
                &mut self.problems,
                &mut self.tally,
            )?;
        }
        Ok(())
    }

    /// After the last phase nothing may be left over: a member with a
    /// multicast still waiting got one frame too many.
    fn check_quiescent(&mut self) {
        std::thread::sleep(Duration::from_millis(20));
        for group in &mut self.groups {
            for (m, member) in group.members.iter_mut().enumerate() {
                match member.has_pending_multicast() {
                    Ok(false) => {}
                    Ok(true) => self
                        .problems
                        .push(format!("{}: member {m} got a surplus multicast", group.id)),
                    Err(e) => self
                        .problems
                        .push(format!("{}: member {m} socket: {e}", group.id)),
                }
            }
            if group.audited != group.sent || group.echoed != group.sent {
                self.problems.push(format!(
                    "{}: sent {} audited {} echoed {}",
                    group.id, group.sent, group.audited, group.echoed
                ));
            }
        }
    }

    fn teardown(self) {
        for group in self.groups {
            for member in group.members {
                member.close();
            }
        }
        for joiner in self.joiners {
            joiner.close();
        }
        self.cluster.shutdown();
    }
}

fn join(
    member: &mut Member,
    group: GroupId,
    policy: StateTransferPolicy,
) -> io::Result<StateTransfer> {
    member.send(
        &ClientRequest::Join {
            group,
            role: MemberRole::Principal,
            policy,
            notify_membership: false,
        },
        None,
    )?;
    await_event(member, |e| match e {
        ServerEvent::Joined { transfer, .. } => Some(transfer),
        _ => None,
    })
}

fn leave(member: &mut Member, group: GroupId) -> io::Result<()> {
    member.send(&ClientRequest::Leave { group }, None)?;
    await_event(member, |e| {
        matches!(e, ServerEvent::Left { .. }).then_some(())
    })
}

// ---------------------------------------------------------------------
// Thread B: joins and connects
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    JoinFull,
    JoinLast64,
    JoinNone,
    Connect,
}

impl Op {
    const ALL: [Op; 4] = [Op::JoinFull, Op::JoinLast64, Op::JoinNone, Op::Connect];

    fn policy(self) -> StateTransferPolicy {
        match self {
            Op::JoinFull => StateTransferPolicy::FullState,
            Op::JoinLast64 => StateTransferPolicy::LastUpdates(64),
            Op::JoinNone | Op::Connect => StateTransferPolicy::None,
        }
    }
}

/// What thread A is doing, which tells thread B what to do.
const PHASE_SATURATE: u8 = 0;
const PHASE_PACED: u8 = 1;
const PHASE_DONE: u8 = 2;

#[derive(Debug, Default)]
struct JoinerResults {
    /// Latency samples in microseconds, per operation kind.
    latencies: BTreeMap<Op, Vec<f64>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Thread B's CPU time while thread A saturated.
    saturate_cpu: Duration,
}

struct Joiner {
    spec: Spec,
    group_ids: Vec<GroupId>,
    addrs: Vec<String>,
    conns: Vec<Member>,
    seen: Arc<Vec<AtomicU64>>,
    results: JoinerResults,
}

impl Joiner {
    /// One join → `Joined` decoded → leave cycle, or one fresh
    /// connect → `Welcome`. Returns the latency of the timed part.
    fn run_op(&mut self, op: Op, k: usize) -> io::Result<Duration> {
        if op == Op::Connect {
            let started = Instant::now();
            let member = Member::connect(&self.addrs[k % self.addrs.len()], "probe", DEADLINE)?;
            let took = started.elapsed();
            member.close();
            return Ok(took);
        }
        let g = k % self.group_ids.len();
        let group = self.group_ids[g];
        let seen_before = self.seen[g].load(Ordering::Acquire);
        let conn = &mut self.conns[k % JOINERS];
        let started = Instant::now();
        let transfer = join(conn, group, op.policy())?;
        let took = started.elapsed();
        leave(conn, group)?;
        let shape_ok = match op {
            Op::JoinFull => {
                transfer.objects.len() == self.spec.objects && transfer.updates.is_empty()
            }
            Op::JoinLast64 => {
                transfer.objects.is_empty()
                    && transfer.updates.len() == 64
                    && transfer.updates.last().map(|u| u.seq) == Some(transfer.through)
            }
            _ => transfer.objects.is_empty() && transfer.updates.is_empty(),
        };
        if transfer.group != group || transfer.through.raw() < seen_before || !shape_ok {
            self.results.problems.push(format!(
                "{op:?} on {group}: through {} (seen {seen_before}), {} objects, {} updates",
                transfer.through,
                transfer.objects.len(),
                transfer.updates.len()
            ));
        }
        Ok(took)
    }

    fn attempt(&mut self, op: Op, k: usize, timed: bool) {
        self.results.attempted += 1;
        match self.run_op(op, k) {
            Ok(took) if timed => self
                .results
                .latencies
                .entry(op)
                .or_default()
                .push(micros(took)),
            Ok(_) => {}
            Err(e) => {
                self.results.failed += 1;
                self.results.problems.push(format!("{op:?} failed: {e}"));
                // The connection may be mid-frame; replace it.
                if op != Op::Connect {
                    if let Ok(fresh) = Member::connect(&self.addrs[0], "joiner", DEADLINE) {
                        self.conns[k % JOINERS] = fresh;
                    }
                }
            }
        }
    }

    /// Thread B's whole life. While thread A runs a paced slice, the
    /// planned operations go out, `gap` apart on average; while it
    /// saturates, thread B waits — or, on a workload with join churn,
    /// does untimed `FullState` joins back to back.
    fn run(
        mut self,
        plan: Vec<(Op, f64)>,
        gap: Duration,
        phase: &AtomicU8,
    ) -> (JoinerResults, Vec<Member>) {
        let mut plan = plan.into_iter().enumerate();
        let mut churned = 0;
        let mut was = PHASE_SATURATE;
        let mut cpu_mark = util::thread_cpu();
        loop {
            let now = phase.load(Ordering::Acquire);
            if now != was {
                // Leaving or entering a saturate window.
                let cpu = util::thread_cpu();
                if was == PHASE_SATURATE {
                    self.results.saturate_cpu += cpu.saturating_sub(cpu_mark);
                }
                cpu_mark = cpu;
                was = now;
            }
            match now {
                PHASE_DONE => break,
                PHASE_PACED => match plan.next() {
                    Some((k, (op, jitter))) => {
                        std::thread::sleep(gap.mul_f64(jitter));
                        self.attempt(op, k, true);
                    }
                    None => std::thread::sleep(Duration::from_millis(1)),
                },
                _ if self.spec.join_churn => {
                    self.attempt(Op::JoinFull, churned, false);
                    churned += 1;
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        (self.results, self.conns)
    }
}

// ---------------------------------------------------------------------
// Thread A: the measured phases
// ---------------------------------------------------------------------

fn wait_until(due: Instant) {
    loop {
        let Some(left) = due.checked_duration_since(Instant::now()) else {
            return;
        };
        // Sleeping overshoots by tens of microseconds; the last
        // stretch is spun so broadcasts leave when they are due.
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One paced slice: round-trip times and how late the generator ran.
#[derive(Debug, Default)]
struct Paced {
    rtts_us: Vec<f64>,
    late_us: Vec<f64>,
}

/// The open loop: one broadcast every `1 / rate` seconds, groups in
/// turn, each timed from the instant it was due until the sender — the
/// member that joined last — holds its own copy.
fn paced_slice(
    world: &mut World,
    rate: f64,
    count: usize,
    traced: bool,
    mut spans: Option<&mut Recorder>,
    flight: &mut Vec<SpanEvent>,
) -> io::Result<Paced> {
    let mut out = Paced::default();
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(1);
    let groups = world.groups.len();
    for i in 0..count {
        let due = start + period * i as u32;
        wait_until(due);
        let group = &mut world.groups[i % groups];
        let t0 = Instant::now();
        out.late_us.push(micros(t0.duration_since(due)));
        let sent_token = group.send(1, traced, &mut world.tally)?;
        let t1 = Instant::now();
        let readable = if spans.is_some() {
            group
                .members
                .last_mut()
                .expect("group has members")
                .wait_readable()?;
            Instant::now()
        } else {
            t1
        };
        let echo_token = group.read_echo(&mut world.problems)?;
        let t2 = Instant::now();
        out.rtts_us.push(micros(t2.duration_since(due)));
        if let Some(token) = echo_token.filter(|t| Some(t.id) == sent_token.map(|s| s.id)) {
            corona_trace::record(Hop::ClientDeliver, TraceId(token.id), 0, 0);
        }
        if let Some(rec) = spans.as_deref_mut().filter(|r| r.spans().len() < MAX_SPANS) {
            let op = group.sent;
            let root = rec.record("broadcast", t0, t2, None, op);
            rec.record("client.encode_write", t0, t1, Some(root), op);
            rec.record("server.opaque", t1, readable, Some(root), op);
            rec.record("client.read_decode", readable, t2, Some(root), op);
        }
        group.drain(
            1,
            true,
            &world.seen[i % groups],
            &mut world.problems,
            &mut world.tally,
        )?;
        // The flight recorder's per-thread rings keep 4096 spans.
        if traced && (i + 1) % TRACE_DRAIN_EVERY == 0 {
            flight.extend(corona_trace::drain());
            corona_trace::clear();
        }
    }
    if traced {
        flight.extend(corona_trace::drain());
        corona_trace::clear();
    }
    Ok(out)
}

/// What thread A measured on one world.
#[derive(Default)]
struct Measured {
    /// Per saturate window: deliveries per second, and process CPU
    /// microseconds per delivery.
    rates: Vec<f64>,
    cpu_per_delivery: Vec<f64>,
    /// Per paced slice with tracing off: the median round trip.
    rtt_p50s: Vec<f64>,
    /// Every untraced and every traced round trip, and every lateness.
    plain: Paced,
    traced: Paced,
    /// Totals over the saturate windows: deliveries, process CPU,
    /// thread A's CPU, thread A's time in sends, broadcasts, and the
    /// servers' counters summed over the windows.
    deliveries: f64,
    cpu: Duration,
    thread_cpu: Duration,
    sat: Tally,
    counters: BTreeMap<&'static str, f64>,
    generator_threads: usize,
    /// What the flight recorder held for the traced broadcasts.
    flight: Vec<SpanEvent>,
}

/// The trace hops reported, with their metric names. A hop the
/// workload's path does not cross (no log append without storage, no
/// sequencing hop seen on a replica) reads 0.
const HOP_METRICS: [(Hop, &str); 5] = [
    (Hop::ServerIngress, "trace.hop.server_ingress_p50_us"),
    (Hop::Sequence, "trace.hop.sequence_p50_us"),
    (Hop::LogAppend, "trace.hop.log_append_p50_us"),
    (Hop::FanoutEnqueue, "trace.hop.fanout_enqueue_p50_us"),
    (Hop::ClientDeliver, "trace.hop.client_deliver_p50_us"),
];

/// Server counters read around every saturate window.
const WINDOW_COUNTERS: [&str; 8] = [
    "core.broadcasts",
    "server.fanout.encodes",
    "server.reactor.events",
    "server.reactor.polls",
    "server.reactor.wakeups",
    "server.reactor.write_blocked",
    "server.reactor.read_paused",
    "repl.peer.sent",
];

/// Alternates saturate windows (closed loop) and paced slices (open
/// loop, thread B's joins and connects beside them) on one world. A
/// traced run traces every second slice, which gives the overhead.
fn measure(
    world: &mut World,
    spec: &Spec,
    opts: &Options,
    phase: &AtomicU8,
    mut spans: Option<&mut Recorder>,
    m: &mut Measured,
) -> io::Result<()> {
    let round_s = opts.seconds / (opts.worlds() * ROUNDS) as f64;
    let window = Duration::from_secs_f64(round_s * SATURATE_SHARE);
    let slice = ((round_s * (1.0 - SATURATE_SHARE) * spec.paced_rate) as usize).max(4);
    for round in 0..ROUNDS {
        phase.store(PHASE_SATURATE, Ordering::Release);
        let before = opts.trace.then(|| world.cluster.metrics());
        let tally_before = world.tally;
        let cpu_before = util::process_cpu();
        let thread_cpu_before = util::thread_cpu();
        let started = Instant::now();
        world.closed_loop(spec, None, |_| started.elapsed() >= window)?;
        let elapsed = started.elapsed();
        let cpu = util::process_cpu().saturating_sub(cpu_before);
        let deliveries = (world.tally.deliveries - tally_before.deliveries) as f64;
        m.rates.push(deliveries / elapsed.as_secs_f64());
        m.cpu_per_delivery.push(micros(cpu) / deliveries);
        m.deliveries += deliveries;
        m.cpu += cpu;
        m.thread_cpu += util::thread_cpu().saturating_sub(thread_cpu_before);
        m.sat.send += world.tally.send - tally_before.send;
        m.sat.broadcasts += world.tally.broadcasts - tally_before.broadcasts;
        if let Some(before) = before {
            let after = world.cluster.metrics();
            for name in WINDOW_COUNTERS {
                *m.counters.entry(name).or_default() +=
                    after.counter(name).saturating_sub(before.counter(name)) as f64;
            }
        }
        m.generator_threads = util::thread_names()
            .iter()
            .filter(|n| !util::is_server_thread(n))
            .count();

        phase.store(PHASE_PACED, Ordering::Release);
        let traced = opts.trace && round % 2 == 1;
        if traced {
            corona_trace::clear();
            corona_trace::set_enabled(true);
        }
        let spans = if traced { spans.as_deref_mut() } else { None };
        let result = paced_slice(world, spec.paced_rate, slice, traced, spans, &mut m.flight);
        corona_trace::set_enabled(false);
        let mut paced = result?;
        let into = if traced { &mut m.traced } else { &mut m.plain };
        if !traced {
            m.rtt_p50s.push(util::median(&mut paced.rtts_us));
        }
        into.rtts_us.append(&mut paced.rtts_us);
        into.late_us.append(&mut paced.late_us);
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer numbers that come from the live run: server counters
/// over the saturate windows, the harness's own cost, the trace hops.
fn live_layer_metrics(
    m: &mut Measured,
    end: &MetricsSnapshot,
    joiner_cpu: Duration,
) -> BTreeMap<&'static str, f64> {
    let delta = |name: &str| m.counters.get(name).copied().unwrap_or(0.0);
    let bcasts = delta("core.broadcasts");
    let mut layer = BTreeMap::new();
    layer.insert(
        "core.fanout_encodes_per_bcast",
        ratio(delta("server.fanout.encodes"), bcasts),
    );
    layer.insert(
        "core.fanout_queue_depth_max",
        end.gauge("server.fanout.queue_hwm") as f64,
    );
    layer.insert("core.shed_count", end.counter("server.shed") as f64);
    layer.insert(
        "core.dead_conn_count",
        end.counter("server.fanout.dead_conn") as f64,
    );
    layer.insert(
        "transport.reactor_events_per_poll",
        ratio(
            delta("server.reactor.events"),
            delta("server.reactor.polls"),
        ),
    );
    layer.insert(
        "transport.reactor_wakeups_per_delivery",
        ratio(delta("server.reactor.wakeups"), m.deliveries),
    );
    layer.insert(
        "transport.write_blocked_count",
        delta("server.reactor.write_blocked"),
    );
    layer.insert(
        "transport.read_paused_count",
        delta("server.reactor.read_paused"),
    );
    layer.insert(
        "replication.peer_msgs_per_bcast",
        ratio(delta("repl.peer.sent"), bcasts),
    );
    layer.insert(
        "replication.election_rounds",
        end.counter("repl.elections.rounds") as f64,
    );
    layer.insert(
        "harness.send_ns_per_bcast",
        ratio(m.sat.send.as_nanos() as f64, m.sat.broadcasts as f64),
    );
    // Thread A either sends or drains, so its CPU time outside sends
    // is the cost of taking frames off the sockets.
    layer.insert(
        "harness.drain_ns_per_frame",
        ratio(
            m.thread_cpu.saturating_sub(m.sat.send).as_nanos() as f64,
            m.deliveries,
        ),
    );
    layer.insert(
        "harness.cpu_share",
        ratio(micros(m.thread_cpu + joiner_cpu), micros(m.cpu)),
    );
    layer.insert(
        "harness.late_p99_us",
        util::quantile(&mut m.plain.late_us, 0.99),
    );
    layer.insert(
        "harness.rtt_p90_us",
        util::quantile(&mut m.plain.rtts_us, 0.90),
    );
    layer.insert(
        "harness.rtt_p99_us",
        util::quantile(&mut m.plain.rtts_us, 0.99),
    );
    layer.insert("process.threads", util::thread_names().len() as f64);

    let rtt_p50 = util::median(&mut m.plain.rtts_us);
    let traced_p50 = util::median(&mut m.traced.rtts_us);
    let breakdown = Breakdown::from_spans(&m.flight);
    for (hop, name) in HOP_METRICS {
        let p50 = breakdown.hops.iter().find(|h| h.hop == hop);
        layer.insert(name, p50.map_or(0.0, |h| h.p50_us as f64));
    }
    layer.insert(
        "trace.hop_sum_share",
        ratio(breakdown.hop_p50_sum_us() as f64, traced_p50),
    );
    layer.insert("trace.overhead_share", ratio(traced_p50, rtt_p50) - 1.0);
    layer
}

/// Runs `spec` once and reports what it measured.
///
/// The run sets the servers up [`WORLDS`] times and measures each
/// instance in turn, [`ROUNDS`] rounds of one saturate window and one
/// paced slice. Every end-to-end metric is a median: over the set-ups,
/// over all windows, over all slices' medians, over the instances'
/// median join and connect latencies. How threads land on cores
/// differs from one server instance to the next and drifts within
/// one; a single long phase on a single instance reports whichever
/// placement it happened to get.
///
/// A server that stops answering ends the run early: the report then
/// has the operations outstanding as `failed`, the reason among its
/// `problems`, and no metrics.
///
/// # Errors
///
/// An environment the benchmark cannot run in (ports, storage).
pub fn run(spec: &Spec, opts: &Options) -> Result<Report, String> {
    let work = WorkDir::create(&opts.out_dir).map_err(|e| err_str("work dir", e))?;
    let storage = work.0.join("storage");

    // Thread B's plan: every kind of operation the same number of
    // times, in seeded order, spread over the paced slices. The gaps
    // are random, or every operation would meet the paced broadcasts
    // (and the accept loop's poll) at one fixed phase all run long.
    let cycles = ((JOIN_CYCLES as f64 * opts.scale).ceil() as usize).max(2);
    let mut kinds: Vec<Op> = Op::ALL
        .iter()
        .flat_map(|op| std::iter::repeat_n(*op, cycles))
        .collect();
    let mut rng = Rng::new(opts.seed ^ 0x6a6f_696e);
    rng.shuffle(&mut kinds);
    // Thread B sleeps `gap` (times a random factor) and then runs the
    // operation; 60 % of an even share of the paced time leaves room
    // for the slowest operations, the MiB-sized `FullState` joins.
    let paced_s = opts.seconds * (1.0 - SATURATE_SHARE);
    let gap = Duration::from_secs_f64(paced_s * 0.6 / kinds.len() as f64);
    let mut plan: Vec<(Op, f64)> = kinds.into_iter().map(|op| (op, 0.5 + rng.unit())).collect();

    let mut report = Report::default();
    let mut spans = opts.trace.then(Recorder::default);
    let mut setup_s = Vec::new();
    let mut m = Measured::default();
    let mut latencies: BTreeMap<Op, Vec<f64>> = BTreeMap::new();
    let mut joiner_cpu = Duration::ZERO;
    let mut last_world = None;
    for w in 0..opts.worlds() {
        let _ = std::fs::remove_dir_all(&storage);
        let started = Instant::now();
        let mut world =
            World::setup(spec, opts, &storage).map_err(|e| format!("set-up {w}: {e}"))?;
        setup_s.push(started.elapsed().as_secs_f64());

        let phase = Arc::new(AtomicU8::new(PHASE_SATURATE));
        let joiner = Joiner {
            spec: *spec,
            group_ids: world.groups.iter().map(|g| g.id).collect(),
            addrs: (0..2).map(|i| world.cluster.addr(i, true)).collect(),
            conns: std::mem::take(&mut world.joiners),
            seen: Arc::clone(&world.seen),
            results: JoinerResults::default(),
        };
        let share = plan.split_off(plan.len() - plan.len() / (opts.worlds() - w));
        let thread_b = {
            let phase = Arc::clone(&phase);
            std::thread::Builder::new()
                .name("bench-joiner".into())
                .spawn(move || joiner.run(share, gap, &phase))
                .map_err(|e| err_str("spawn joiner", e))?
        };
        let measured = measure(&mut world, spec, opts, &phase, spans.as_mut(), &mut m);
        // Whatever happened to thread A, thread B is released and joined.
        phase.store(PHASE_DONE, Ordering::Release);
        let (joins, conns) = thread_b
            .join()
            .map_err(|_| "joiner thread panicked".to_string())?;
        world.joiners = conns;
        report.attempted += world.tally.broadcasts + joins.attempted;
        report.failed += joins.failed;
        if let Err(e) = measured {
            // A resident's read or write missed its deadline: the
            // broadcasts then in flight are the failed operations, and
            // nothing after this point can be measured.
            let lost: u64 = world.groups.iter().map(|g| g.in_flight).sum();
            report.failed += lost.max(1);
            report.problems.push(format!("run abandoned: {e}"));
            world.teardown();
            return Ok(report);
        }

        // Audit: streams complete and in order, nothing surplus, and
        // the servers shed, reaped, rejected and re-elected nothing.
        world.check_quiescent();
        let end = world.cluster.metrics();
        for (what, name) in [
            ("shed frames", "server.shed"),
            ("dead connections", "server.fanout.dead_conn"),
            ("decode errors", "server.decode_errors"),
            ("election rounds", "repl.elections.rounds"),
        ] {
            if end.counter(name) != 0 {
                world
                    .problems
                    .push(format!("{what}: {}", end.counter(name)));
            }
        }
        report.problems.append(&mut world.problems);
        report.problems.extend(joins.problems);
        for (op, mut samples) in joins.latencies {
            latencies
                .entry(op)
                .or_default()
                .push(util::median(&mut samples));
        }
        joiner_cpu += joins.saturate_cpu;
        if w + 1 == opts.worlds() {
            last_world = Some((world, end));
        } else {
            world.teardown();
        }
    }
    let (mut world, end) = last_world.expect("at least one world");
    report.generator_threads = m.generator_threads;

    if !opts.trace {
        let mut latency = |op: Op| util::median(latencies.entry(op).or_default());
        let values = [
            util::median(&mut setup_s),
            util::median(&mut m.rates),
            util::median(&mut m.cpu_per_delivery),
            util::median(&mut m.rtt_p50s),
            latency(Op::Connect),
            latency(Op::JoinFull),
            latency(Op::JoinLast64),
            latency(Op::JoinNone),
        ];
        report.metrics = crate::workload::END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (*name, v, *unit))
            .collect();
        world.teardown();
        return Ok(report);
    }

    // Traced run: live numbers, one fail-over, then the isolated
    // probes once the servers are gone and the cores are idle.
    let mut layer = live_layer_metrics(&mut m, &end, joiner_cpu);
    let failover = world.cluster.fail_over(DEADLINE);
    layer.insert(
        "replication.failover_ms",
        failover.map_or(0.0, |d| d.as_secs_f64() * 1e3),
    );
    world.teardown();
    let recorder = spans.as_mut().expect("a traced run records spans");
    probes::run_all(spec, opts.seed, opts.scale, &work.0, &mut layer, recorder)?;
    let on_path_us = layer["transport.echo_rtt_p50_us"]
        + (layer["core.sequence_ns_per_bcast"]
            + layer["types.encode_ns_per_msg"]
            + layer["types.decode_ns_per_msg"])
            / 1e3;
    layer.insert(
        "core.hop_residual_us",
        util::median(&mut m.plain.rtts_us) - on_path_us,
    );
    layer.insert("process.peak_rss_mb", util::peak_rss_mb());

    let span_file = opts.out_dir.join(format!("trace-{}.json", spec.name));
    recorder
        .write_json(&span_file)
        .map_err(|e| err_str("span file", e))?;
    report.span_file = Some(span_file);
    report.metrics = crate::workload::PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, layer.get(name).copied().unwrap_or(0.0), *unit))
        .collect();
    Ok(report)
}
