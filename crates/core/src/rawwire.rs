//! Minimal blocking raw-wire client.
//!
//! [`RawMember`] speaks the Corona client protocol over a bare
//! `std::net::TcpStream` — one socket, no background threads, no
//! failover machinery. That makes it cheap enough to hold *thousands*
//! of live members in a single test or benchmark process, which is
//! exactly what the reactor transport's scale tests (C5k smoke,
//! connection-count sweeps) need: a full
//! [`CoronaClient`](crate::client::CoronaClient) spawns a reader thread
//! per connection and would hit thread limits long before the server
//! under test breaks a sweat.
//!
//! Not a public-API replacement for the real client: no locks, no
//! mirrors, no reconnect — just Hello/Join/Broadcast and a blocking
//! event pump.

use corona_types::error::{CoronaError, Result};
use corona_types::frame::{read_frame, write_frame};
use corona_types::id::{ClientId, GroupId, ObjectId};
use corona_types::message::{ClientRequest, ServerEvent, PROTOCOL_VERSION};
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::{SharedState, StateUpdate};
use corona_types::wire::{decode_traced, encode_traced};
use std::io::BufWriter;
use std::net::TcpStream;
use std::time::Duration;

/// A blocking single-socket protocol member (see the module docs).
#[derive(Debug)]
pub struct RawMember {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    client: ClientId,
}

impl RawMember {
    /// Dials `addr` and completes the `Hello`/`Welcome` handshake.
    ///
    /// # Errors
    ///
    /// Connect/handshake I/O failures, or a protocol-violating reply.
    pub fn connect(addr: &str, display_name: &str) -> Result<RawMember> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        let mut member = RawMember {
            reader,
            writer: BufWriter::new(stream),
            client: ClientId::new(0),
        };
        member.send(&ClientRequest::Hello {
            version: PROTOCOL_VERSION,
            display_name: display_name.to_string(),
            resume: None,
        })?;
        match member.next_event()? {
            ServerEvent::Welcome { client, .. } => {
                member.client = client;
                Ok(member)
            }
            other => Err(CoronaError::InvalidState(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    /// The server-assigned client id.
    pub fn client_id(&self) -> ClientId {
        self.client
    }

    /// Bounds how long [`RawMember::next_event`] blocks (`None` =
    /// forever).
    ///
    /// # Errors
    ///
    /// Socket option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.reader.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Creates `group` as a transient group with empty initial state.
    ///
    /// # Errors
    ///
    /// I/O failures, or the server's `Error` reply (e.g. the group
    /// already exists).
    pub fn create_group(&mut self, group: GroupId) -> Result<()> {
        self.send(&ClientRequest::CreateGroup {
            group,
            persistence: Persistence::Transient,
            initial_state: SharedState::new(),
        })?;
        loop {
            match self.next_event()? {
                ServerEvent::GroupCreated { .. } => return Ok(()),
                ServerEvent::Error { code, detail } => {
                    return Err(CoronaError::InvalidState(format!(
                        "create_group rejected: {code:?}: {detail}"
                    )))
                }
                // Multicasts may already be in flight; skip anything
                // that is not the reply.
                _ => continue,
            }
        }
    }

    /// Joins `group` as a principal with membership notifications off
    /// and no state transfer (the cheapest possible membership), and
    /// returns the member count from the `Joined` reply.
    ///
    /// # Errors
    ///
    /// I/O failures, or the server's `Error` reply (e.g. joining a
    /// group that does not exist).
    pub fn join(&mut self, group: GroupId) -> Result<usize> {
        self.send(&ClientRequest::Join {
            group,
            role: MemberRole::Principal,
            policy: StateTransferPolicy::None,
            notify_membership: false,
        })?;
        loop {
            match self.next_event()? {
                ServerEvent::Joined { members, .. } => return Ok(members.len()),
                ServerEvent::Error { code, detail } => {
                    return Err(CoronaError::InvalidState(format!(
                        "join rejected: {code:?}: {detail}"
                    )))
                }
                // Multicasts may already be in flight for earlier
                // groups; skip anything that is not the join reply.
                _ => continue,
            }
        }
    }

    /// Broadcasts an incremental update of `payload` to `group`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn broadcast(
        &mut self,
        group: GroupId,
        object: ObjectId,
        payload: impl Into<bytes::Bytes>,
    ) -> Result<()> {
        self.send(&ClientRequest::Broadcast {
            group,
            update: StateUpdate::incremental(object, payload),
            scope: DeliveryScope::SenderInclusive,
        })
    }

    /// Blocks for the next server event.
    ///
    /// # Errors
    ///
    /// [`CoronaError::Disconnected`] on EOF, I/O or decode failures
    /// otherwise.
    pub fn next_event(&mut self) -> Result<ServerEvent> {
        let frame = read_frame(&mut self.reader)?.ok_or(CoronaError::Disconnected)?;
        let (event, _) = decode_traced::<ServerEvent>(&frame)?;
        Ok(event)
    }

    /// Blocks until a `Multicast` for `group` arrives (skipping other
    /// event kinds) and returns its payload bytes.
    ///
    /// # Errors
    ///
    /// As for [`RawMember::next_event`].
    pub fn await_multicast(&mut self, group: GroupId) -> Result<bytes::Bytes> {
        loop {
            if let ServerEvent::Multicast { group: g, logged } = self.next_event()? {
                if g == group {
                    return Ok(logged.update.payload);
                }
            }
        }
    }

    fn send(&mut self, request: &ClientRequest) -> Result<()> {
        use std::io::Write as _;
        write_frame(&mut self.writer, &encode_traced(request, None))?;
        self.writer.flush()?;
        Ok(())
    }
}
