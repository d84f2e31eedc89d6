//! The client protocol as a state machine with no thread, clock, lock
//! or socket. A [`ClientSession`] is fed frames, closes, the time (its
//! driver's milliseconds) and commands, and answers with frames to send,
//! events, call replies and [`Dial`]s; [`CoronaClient`](crate::CoronaClient)
//! drives it with sockets and threads, `corona-sim` under the DES clock.
//! One request is pending at a time, completed only by the reply that
//! names what it asked about ([`ServerEvent::answers`]); all else goes to
//! the application. Each connection it is handed is a numbered *link*,
//! handshaken by requests of its own before it carries calls: `Hello`
//! (resuming the client id, once there is one), then one re-`Join` per
//! supervised group with its mirror's `UpdatesSince` catch-up.

use crate::config::FailoverConfig;
use crate::lock;
use crate::mirror::{ApplyOutcome, GroupMirror, SharedMirror};
use bytes::Bytes;
use corona_metrics::{Counter, Histogram};
use corona_trace::Hop;
use corona_types::error::{CoronaError, ErrorCode, Result};
use corona_types::id::{ClientId, Epoch, GroupId, ServerId};
use corona_types::message::{ClientRequest, ServerEvent, StateTransfer, PROTOCOL_VERSION};
use corona_types::wire::{decode_traced_frame, encode_traced, TraceToken};
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The most change notices — multicasts, membership changes — a
/// session holds for the application; more are dropped (see
/// [`ClientSession::wants_more`]).
pub const EVENT_QUEUE_HWM: usize = 256;

/// The latest replica roster a client has seen (pushed by servers on
/// join and after every election). Candidate endpoints for failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RosterView {
    /// Configuration epoch; the client keeps the highest seen.
    pub epoch: Epoch,
    /// The acting coordinator.
    pub coordinator: ServerId,
    /// Live servers and their client-dialable addresses.
    pub servers: Vec<(ServerId, String)>,
}

/// A connection a supervised session asks for: dial `addr` once
/// `not_before_ms` has come, then report [`ClientSession::connected`]
/// or [`ClientSession::dial_failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dial {
    /// The address to dial.
    pub addr: String,
    /// When: after the round's backoff, or at once within a round.
    pub not_before_ms: u64,
}

/// Who the pending request is for: the application, its supervised
/// join (whose `Joined` seeds or resyncs a mirror), or step `k` of the
/// handshake — 0 the `Hello`, `k` the re-join of supervised group `k - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Asker {
    App,
    Supervise,
    Handshake(usize),
}

/// `behind_repair`: the call asks for the state of a group whose gap
/// repair was sent first, so the first `State` of that group is not its.
struct Call {
    request: ClientRequest,
    asker: Asker,
    deadline_ms: u64,
    behind_repair: bool,
}

/// A supervised session's way back: this walk's addresses, how many it
/// has handed out, and its round — `None` on first contact (the seeds
/// once, no backoff) and while a link is up.
#[derive(Default)]
struct Failover {
    seeds: Vec<String>,
    config: FailoverConfig,
    candidates: Vec<String>,
    next: usize,
    round: Option<u32>,
    dial: Option<Dial>,
    reconnects: Arc<Counter>,
    backoff_ms: Arc<Histogram>,
}

/// One client's protocol state: handshake, pending request, roster,
/// supervised mirrors (with the join that each re-issues), gap repairs
/// and the reconnect walk.
#[derive(Default)]
pub struct ClientSession {
    display_name: String,
    client_id: Option<ClientId>,
    server: ServerId,
    roster: Option<RosterView>,
    handshake_ms: u64,
    /// The link in use, and whether it is handshaken; links handed out.
    link: Option<u64>,
    up: bool,
    links: u64,
    call: Option<Call>,
    reply: Option<Result<ServerEvent>>,
    nonces: u64,
    events: VecDeque<ServerEvent>,
    outbox: Vec<Bytes>,
    groups: Vec<(GroupId, ClientRequest, SharedMirror)>,
    repairing: HashSet<GroupId>,
    failover: Option<Failover>,
    /// Why the last link or dial failed.
    failure: Option<CoronaError>,
    closed: bool,
    ended: bool,
}

impl ClientSession {
    /// A session that says `Hello` as `name` — resuming `resume`, if
    /// given — on each link it is handed, and gives each handshake step
    /// `handshake_ms`. It never dials: losing its link ends it, until it
    /// is handed another.
    pub fn new(name: impl Into<String>, resume: Option<ClientId>, handshake_ms: u64) -> Self {
        ClientSession {
            display_name: name.into(),
            client_id: resume,
            handshake_ms,
            ..ClientSession::default()
        }
    }

    /// A session that asks to dial each of `seeds` in turn until one
    /// welcomes it. After losing a welcomed link it walks the roster and
    /// the seeds again, round after backed-off round, and resumes on the
    /// first that completes the handshake.
    pub fn supervised(
        name: impl Into<String>,
        seeds: Vec<String>,
        config: FailoverConfig,
        now_ms: u64,
    ) -> Self {
        let mut session = ClientSession::new(name, None, ms(config.connect_timeout));
        let registry = config.registry.clone().unwrap_or_default();
        session.failover = Some(Failover {
            candidates: seeds.clone(),
            seeds,
            reconnects: registry.counter("client.reconnects"),
            backoff_ms: registry.histogram("client.backoff_ms"),
            config,
            ..Failover::default()
        });
        session.walk(now_ms);
        session
    }

    /// A new connection replaces the current one: returns its link id,
    /// under which to report its frames and close, and queues `Hello`.
    pub fn connected(&mut self, now_ms: u64) -> u64 {
        self.fail_call();
        self.outbox.clear();
        (self.links, self.ended, self.up) = (self.links + 1, self.closed, false);
        self.link = Some(self.links);
        let hello = ClientRequest::Hello {
            version: PROTOCOL_VERSION,
            display_name: self.display_name.clone(),
            resume: self.client_id,
        };
        self.issue(now_ms + self.handshake_ms, hello, Asker::Handshake(0));
        self.links
    }

    /// The last [`Dial`] did not connect.
    pub fn dial_failed(&mut self, now_ms: u64, error: CoronaError) {
        self.failure = Some(error);
        self.walk(now_ms);
    }

    /// A frame arrived on `link`. Returns [`wants_more`](Self::wants_more).
    /// The event is decoded over the frame: a payload it carries is a
    /// slice of `frame`, not a copy.
    pub fn on_frame(&mut self, now_ms: u64, link: u64, frame: &Bytes) -> bool {
        match decode_traced_frame::<ServerEvent>(frame) {
            _ if self.link != Some(link) => {}
            Ok((event, token)) => {
                if let Some(token) = token {
                    trace(Hop::ClientDeliver, token, corona_trace::now_us());
                }
                self.on_event(now_ms, event);
            }
            Err(e) => self.drop_link(now_ms, CoronaError::Codec(e)),
        }
        self.wants_more()
    }

    /// Whether the transport should read on: while fewer than
    /// [`EVENT_QUEUE_HWM`] events wait, or while the session awaits the
    /// server — a reply, its handshake, or the stream its supervised
    /// mirrors follow. Otherwise the socket waits, and the server's
    /// backlog handling (QoS shedding, disconnect) takes over. A notice
    /// read past the mark is dropped: a supervised mirror has applied
    /// it, and a plain one sees the gap.
    pub fn wants_more(&self) -> bool {
        let awaits = self.call.is_some() || !self.up || !self.groups.is_empty();
        self.events.len() < EVENT_QUEUE_HWM || awaits
    }

    /// `link` closed.
    pub fn on_closed(&mut self, now_ms: u64, link: u64) {
        if self.link == Some(link) {
            self.drop_link(now_ms, CoronaError::Disconnected);
        }
    }

    /// Times out the pending request once its deadline has come: a
    /// call fails, a handshake gives up on its link.
    pub fn tick(&mut self, now_ms: u64) {
        let due = self.call.take_if(|c| now_ms >= c.deadline_ms);
        match due.map(|c| c.asker) {
            Some(Asker::Handshake(_)) => self.drop_link(now_ms, timeout("handshake")),
            Some(_) => self.reply = Some(Err(timeout("server reply"))),
            None => {}
        }
    }

    /// Sends `request` as the application's one pending call, whose
    /// outcome — the reply, its `Error`, a timeout `timeout_ms` from now
    /// or the link's loss — [`take_reply`](Self::take_reply) then hands
    /// over. A `Ping`'s nonce is the session's own counter.
    ///
    /// # Errors
    ///
    /// [`CoronaError::Disconnected`] unless the link is up and the
    /// session open; [`CoronaError::InvalidState`] while a request is
    /// [pending](Self::call_pending).
    pub fn call(&mut self, now_ms: u64, request: ClientRequest, timeout_ms: u64) -> Result<()> {
        self.ask(now_ms + timeout_ms, request, Asker::App)
    }

    /// Sends a `Join` as a [`call`](Self::call) whose `Joined` seeds a
    /// mirror that the session keeps, repairs and resumes from then on
    /// (or, for a group it keeps, resyncs it from a catch-up).
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn join_supervised(&mut self, now: u64, join: ClientRequest, timeout: u64) -> Result<()> {
        self.ask(now + timeout, self.catching_up(join), Asker::Supervise)
    }

    /// Sends a fire-and-forget request (a broadcast). With tracing on,
    /// it carries a new trace id, and its submit span is stamped.
    ///
    /// # Errors
    ///
    /// [`CoronaError::Disconnected`] unless the link is up and the
    /// session open.
    pub fn broadcast(&mut self, request: &ClientRequest) -> Result<()> {
        self.check_up()?;
        let token = corona_trace::enabled().then(|| {
            let now = corona_trace::now_us();
            let id = corona_trace::next_trace_id().0;
            let token = TraceToken { id, origin_us: now };
            trace(Hop::ClientSubmit, token, now);
            token
        });
        self.outbox.push(encode_traced(request, token));
        Ok(())
    }

    /// Forgets the pending call, whose frame could not be sent.
    pub fn abandon_call(&mut self) {
        (self.call, self.reply) = (None, None);
    }

    /// Ends the session — with a `Goodbye` on an up link, if `goodbye`;
    /// without, to the server, it crashed — and lets go of its link.
    /// No more calls and no more dials follow; the event stream ends
    /// once drained.
    pub fn close(&mut self, goodbye: bool) {
        if goodbye && self.check_up().is_ok() {
            self.send(&ClientRequest::Goodbye);
        }
        (self.closed, self.ended, self.link, self.up) = (true, true, None, false);
        self.failover.iter_mut().for_each(|f| f.dial = None);
    }

    /// The frames to send on the current link, in order.
    pub fn take_frames(&mut self) -> Vec<Bytes> {
        std::mem::take(&mut self.outbox)
    }

    /// Whether frames wait to be taken.
    pub fn has_frames(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// The oldest application event not yet taken.
    pub fn next_event(&mut self) -> Option<ServerEvent> {
        self.events.pop_front()
    }

    /// How many application events wait to be taken.
    pub fn queued_events(&self) -> usize {
        self.events.len()
    }

    /// The outcome of the last call, once it has one.
    pub fn take_reply(&mut self) -> Option<Result<ServerEvent>> {
        self.reply.take()
    }

    /// Whether a request awaits its reply, or a call's outcome its caller.
    pub fn call_pending(&self) -> bool {
        self.call.is_some() || self.reply.is_some()
    }

    /// The connection a supervised session wants dialled; once.
    pub fn poll_dial(&mut self) -> Option<Dial> {
        self.failover.as_mut()?.dial.take()
    }

    /// When [`tick`](Self::tick) next has something to do.
    pub fn next_wake_ms(&self) -> Option<u64> {
        self.call.as_ref().map(|c| c.deadline_ms)
    }

    /// Why the last link or dial failed; once.
    pub fn take_failure(&mut self) -> Option<CoronaError> {
        self.failure.take()
    }

    /// The link in use, handshaking or up: every other connection the
    /// session was handed is done with.
    pub fn link_id(&self) -> Option<u64> {
        self.link
    }

    /// Whether the link is handshaken.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Whether the event stream has ended: closed, a plain session's
    /// link lost, or a supervised session out of candidates or rounds.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// The id the service gave (or resumed for) this client.
    pub fn client_id(&self) -> Option<ClientId> {
        self.client_id
    }

    /// The server of the last `Welcome`.
    pub fn server_id(&self) -> ServerId {
        self.server
    }

    /// The highest-epoch roster seen.
    pub fn roster(&self) -> Option<RosterView> {
        self.roster.clone()
    }

    /// The mirror of a supervised `group`.
    pub fn mirror(&self, group: GroupId) -> Option<SharedMirror> {
        let kept = self.groups.iter().find(|(g, ..)| *g == group);
        kept.map(|(.., mirror)| Arc::clone(mirror))
    }

    fn send(&mut self, request: &ClientRequest) {
        self.outbox.push(encode_traced(request, None));
    }

    fn check_up(&self) -> Result<()> {
        let open = self.up && !self.closed;
        open.then_some(()).ok_or(CoronaError::Disconnected)
    }

    fn ask(&mut self, deadline_ms: u64, request: ClientRequest, asker: Asker) -> Result<()> {
        self.check_up()?;
        if self.call_pending() {
            return Err(CoronaError::InvalidState("a call is pending".into()));
        }
        self.issue(deadline_ms, request, asker);
        Ok(())
    }

    fn issue(&mut self, deadline_ms: u64, mut request: ClientRequest, asker: Asker) {
        if let ClientRequest::Ping { nonce } = &mut request {
            self.nonces += 1;
            *nonce = self.nonces;
        }
        self.send(&request);
        let behind_repair = matches!(&request, ClientRequest::GetState { group, .. }
            if self.repairing.contains(group));
        self.call = Some(Call {
            request,
            asker,
            deadline_ms,
            behind_repair,
        });
    }

    /// Fails the application's pending call; a handshake step just goes.
    fn fail_call(&mut self) {
        if let Some(Asker::App | Asker::Supervise) = self.call.take().map(|c| c.asker) {
            self.reply = Some(Err(CoronaError::Disconnected));
        }
    }

    /// A link's event. What answers the pending request completes it. A
    /// handshaking link drops the rest — stale traffic the catch-up
    /// covers; an up one feeds multicasts to the mirrors, resyncs a
    /// mirror from its repair, and hands it to the application.
    fn on_event(&mut self, now_ms: u64, event: ServerEvent) {
        if let ServerEvent::Roster {
            epoch,
            coordinator,
            servers,
        } = event
        {
            if self.roster.as_ref().is_none_or(|r| epoch >= r.epoch) {
                self.roster = Some(RosterView {
                    epoch,
                    coordinator,
                    servers,
                });
            }
        } else if self.call.as_mut().is_some_and(|c| {
            // (The server answers in order: a repair sent first, first.)
            event.answers(&c.request) && !std::mem::take(&mut c.behind_repair)
        }) {
            self.complete(now_ms, event);
        } else if self.is_up() {
            let notice = matches!(
                event,
                ServerEvent::Multicast { .. } | ServerEvent::MembershipChanged { .. }
            );
            match &event {
                ServerEvent::Multicast { group, .. } => self.apply(*group, &event),
                ServerEvent::State { transfer } if self.repairing.remove(&transfer.group) => {
                    self.resync(transfer);
                }
                _ => {}
            }
            if self.events.len() < EVENT_QUEUE_HWM || !notice {
                self.events.push_back(event);
            }
        }
    }

    fn complete(&mut self, now_ms: u64, event: ServerEvent) {
        let call = self.call.take().expect("the reply answers a pending call");
        let error = match &event {
            ServerEvent::Error { code, detail } => Some(CoronaError::protocol(
                ErrorCode::from_wire(*code),
                detail.clone(),
            )),
            _ => None,
        };
        match (call.asker, error) {
            (Asker::Handshake(_), Some(error)) => return self.drop_link(now_ms, error),
            (Asker::Handshake(step), None) => return self.handshake(now_ms, step, event),
            (_, Some(error)) => return self.reply = Some(Err(error)),
            (Asker::Supervise, None) => self.supervise(call.request, &event),
            (Asker::App, None) => {}
        }
        if let ServerEvent::Left { group } = &event {
            self.groups.retain(|(g, ..)| g != group);
            self.repairing.remove(group);
        }
        self.reply = Some(Ok(event));
    }

    /// Handshake step `step` is answered: the `Welcome` names the
    /// client; a re-join's `Joined` resyncs its mirror and is news for
    /// the application. Then the next step — or the link is up.
    fn handshake(&mut self, now_ms: u64, step: usize, event: ServerEvent) {
        if let ServerEvent::Welcome { server, client, .. } = event {
            (self.server, self.client_id) = (server, Some(client));
        } else if let ServerEvent::Joined { transfer, .. } = &event {
            self.resync(transfer);
            self.events.push_back(event);
        }
        let Some((_, join, _)) = self.groups.get(step) else {
            self.up = true;
            if let Some(f) = self.failover.as_mut().filter(|f| f.round.is_some()) {
                f.round = None;
                f.reconnects.inc();
            }
            return;
        };
        let (rejoin, deadline_ms) = (self.catching_up(join.clone()), now_ms + self.handshake_ms);
        self.issue(deadline_ms, rejoin, Asker::Handshake(step + 1));
    }

    /// `join`, asking for just what its group's mirror lacks, if it has one.
    fn catching_up(&self, mut join: ClientRequest) -> ClientRequest {
        if let ClientRequest::Join { group, policy, .. } = &mut join {
            if let Some(mirror) = self.mirror(*group) {
                *policy = lock(&mirror).catch_up_policy();
            }
        }
        join
    }

    /// A supervised join is answered: a new mirror, or a resync.
    fn supervise(&mut self, join: ClientRequest, joined: &ServerEvent) {
        let ServerEvent::Joined { transfer, .. } = joined else {
            return;
        };
        if self.mirror(transfer.group).is_some() {
            return self.resync(transfer);
        }
        let mut mirror = GroupMirror::from_transfer(transfer);
        self.client_id
            .into_iter()
            .for_each(|me| mirror.set_local_client(me));
        let mirror = Arc::new(Mutex::new(mirror));
        self.groups.push((transfer.group, join, mirror));
    }

    fn resync(&self, transfer: &StateTransfer) {
        if let Some(mirror) = self.mirror(transfer.group) {
            lock(&mirror).resync(transfer);
        }
    }

    /// Applies a multicast to its group's mirror; a gap sends one
    /// `UpdatesSince` repair at a time.
    fn apply(&mut self, group: GroupId, event: &ServerEvent) {
        let Some(mirror) = self.mirror(group) else {
            return;
        };
        let mut mirror = lock(&mirror);
        if let ApplyOutcome::Gap { .. } = mirror.apply_event(event) {
            if self.repairing.insert(group) {
                let policy = mirror.catch_up_policy();
                self.send(&ClientRequest::GetState { group, policy });
            }
        }
    }

    /// The link is gone: its call fails, its repairs are void, and a
    /// supervised session walks on — a fresh round if the link was up,
    /// the next candidate if it failed its handshake.
    fn drop_link(&mut self, now_ms: u64, error: CoronaError) {
        if let Some(f) = self.failover.as_mut().filter(|_| self.up) {
            (f.round, f.next) = (None, f.candidates.len());
        }
        (self.link, self.up) = (None, false);
        self.outbox.clear();
        self.repairing.clear();
        self.fail_call();
        self.failure = Some(error);
        self.walk(now_ms);
    }

    /// Asks for the next candidate; past the last, starts the next
    /// round after its backoff — or ends the session: closed, not
    /// supervised, first contact failed, or out of rounds.
    fn walk(&mut self, now_ms: u64) {
        let (welcomed, roster) = (self.client_id.is_some(), self.roster.as_ref());
        let Some(f) = self.failover.as_mut().filter(|_| !self.closed) else {
            self.ended = true;
            return;
        };
        let mut not_before_ms = now_ms;
        if f.next == f.candidates.len() {
            let round = match f.round {
                None if welcomed => 0,
                Some(r) if r + 1 < f.config.max_rounds => r + 1,
                _ => {
                    self.ended = true;
                    return;
                }
            };
            let delay = ms(backoff_delay(&f.config, round));
            f.backoff_ms.record(delay);
            f.candidates = candidate_addrs(roster, &f.seeds);
            (f.round, f.next, not_before_ms) = (Some(round), 0, now_ms + delay);
        }
        let addr = f.candidates.get(f.next).cloned();
        f.next += 1;
        f.dial = addr.map(|addr| Dial {
            addr,
            not_before_ms,
        });
        self.ended = f.dial.is_none();
    }
}

/// Stamps a client-side span of a traced frame at `now_us`: its submit
/// (at its origin), or its delivery.
fn trace(hop: Hop, token: TraceToken, now_us: u64) {
    corona_trace::record_at(corona_trace::SpanEvent {
        trace: corona_trace::TraceId(token.id),
        hop,
        ts_us: now_us,
        dur_us: now_us.saturating_sub(token.origin_us),
        arg: 0,
    });
}

fn timeout(operation: &'static str) -> CoronaError {
    CoronaError::Timeout { operation }
}

fn ms(duration: Duration) -> u64 {
    duration.as_millis() as u64
}

/// SplitMix64: a tiny, well-mixed PRNG step for deterministic jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Backoff before reconnect round `round`: capped exponential plus
/// deterministic jitter in `[0, base)` so a fleet of clients with
/// distinct seeds does not stampede the surviving replicas in phase.
pub fn backoff_delay(config: &FailoverConfig, round: u32) -> Duration {
    let base_ms = config.base_backoff.as_millis() as u64;
    let exp_ms = base_ms
        .saturating_mul(1u64 << round.min(20))
        .min(config.max_backoff.as_millis() as u64);
    let jitter_ms = match base_ms {
        0 => 0,
        b => splitmix64(config.jitter_seed ^ u64::from(round)) % b,
    };
    Duration::from_millis(exp_ms + jitter_ms)
}

/// Candidate endpoints for a reconnect round: the advertised roster
/// (coordinator first), then the seed addresses, deduplicated.
fn candidate_addrs(roster: Option<&RosterView>, seeds: &[String]) -> Vec<String> {
    let mut ranked: Vec<&(ServerId, String)> = roster.iter().flat_map(|r| &r.servers).collect();
    ranked.sort_by_key(|(s, _)| roster.is_some_and(|r| *s != r.coordinator));
    let mut out: Vec<String> = Vec::new();
    for addr in ranked.into_iter().map(|(_, addr)| addr).chain(seeds) {
        if !out.contains(addr) {
            out.push(addr.clone());
        }
    }
    out
}
