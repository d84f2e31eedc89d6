//! The benchmark's own wire client: one blocking `TcpStream` per
//! member, frames written with `corona_types::frame::write_frame` and
//! read back by walking length prefixes, so a resident member costs a
//! socket and a buffer and nothing else.
//!
//! Every read carries the socket's read timeout as its deadline: a
//! server that stops answering turns into an `Err` the caller counts
//! as a failed operation, never into a stalled benchmark.

use corona_types::frame::{frame_header, write_frame, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use corona_types::id::{ClientId, GroupId, ObjectId};
use corona_types::message::{ClientRequest, ServerEvent, PROTOCOL_VERSION};
use corona_types::policy::DeliveryScope;
use corona_types::state::StateUpdate;
use corona_types::wire::{decode_traced, encode_traced, TraceToken};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::time::Duration;

/// First body byte of an encoded `ServerEvent::Multicast`.
const TAG_MULTICAST: u8 = 6;
/// First body byte of an encoded `ServerEvent::Error`.
const TAG_ERROR: u8 = 13;

const INITIAL_BUF: usize = 64 * 1024;

fn protocol_error(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// One connection to a server, past its `Hello`/`Welcome` handshake.
#[derive(Debug)]
pub struct Member {
    stream: TcpStream,
    client: ClientId,
    /// Received bytes not yet consumed live in `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Frames queued by [`Member::queue`], sent by [`Member::flush`].
    out: Vec<u8>,
}

impl Member {
    /// Dials `addr`, says `Hello` and waits for the `Welcome`. Every
    /// later read on the connection fails after `deadline`.
    ///
    /// # Errors
    ///
    /// Connect, handshake or deadline failures.
    pub fn connect(addr: &str, name: &str, deadline: Duration) -> io::Result<Member> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        let mut member = Member {
            stream,
            client: ClientId::new(0),
            buf: vec![0; INITIAL_BUF],
            start: 0,
            end: 0,
            out: Vec::new(),
        };
        member.send(
            &ClientRequest::Hello {
                version: PROTOCOL_VERSION,
                display_name: name.to_string(),
                resume: None,
            },
            None,
        )?;
        match member.next_event()? {
            ServerEvent::Welcome { client, .. } => {
                member.client = client;
                Ok(member)
            }
            other => Err(protocol_error(format!("expected Welcome, got {other:?}"))),
        }
    }

    /// The id the server assigned in its `Welcome`.
    pub fn client_id(&self) -> ClientId {
        self.client
    }

    /// Appends one framed request to the outgoing batch.
    ///
    /// # Errors
    ///
    /// A request too large to frame.
    pub fn queue(&mut self, request: &ClientRequest, token: Option<TraceToken>) -> io::Result<()> {
        write_frame(&mut self.out, &encode_traced(request, token))
    }

    /// Writes the queued batch with one `write_all`.
    ///
    /// # Errors
    ///
    /// Socket write failures (including the write deadline).
    pub fn flush(&mut self) -> io::Result<()> {
        let result = self.stream.write_all(&self.out);
        self.out.clear();
        result
    }

    /// Queues and flushes one request.
    ///
    /// # Errors
    ///
    /// As [`Member::queue`] and [`Member::flush`].
    pub fn send(&mut self, request: &ClientRequest, token: Option<TraceToken>) -> io::Result<()> {
        self.queue(request, token)?;
        self.flush()
    }

    /// Queues a sender-inclusive `SetState` broadcast.
    ///
    /// # Errors
    ///
    /// As [`Member::queue`].
    pub fn queue_broadcast(
        &mut self,
        group: GroupId,
        object: ObjectId,
        payload: &bytes::Bytes,
        token: Option<TraceToken>,
    ) -> io::Result<()> {
        self.queue(
            &ClientRequest::Broadcast {
                group,
                update: StateUpdate::set_state(object, payload.clone()),
                scope: DeliveryScope::SenderInclusive,
            },
            token,
        )
    }

    /// Makes sure `need` unread bytes are buffered, reading (and
    /// blocking up to the deadline) if they are not.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        if self.end - self.start >= need {
            return Ok(());
        }
        if self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if need > self.buf.len() {
                self.buf.resize(need.next_power_of_two(), 0);
            }
        }
        while self.end - self.start < need {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Consumes the next frame and returns where its body sits in the
    /// buffer (valid until the next read).
    fn next_body(&mut self) -> io::Result<Range<usize>> {
        self.fill(FRAME_HEADER_LEN)?;
        let len_bytes = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4-byte slice");
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME_LEN {
            return Err(protocol_error(format!("frame of {len} bytes")));
        }
        self.fill(FRAME_HEADER_LEN + len as usize)?;
        let body = self.start + FRAME_HEADER_LEN..self.start + FRAME_HEADER_LEN + len as usize;
        self.start = body.end;
        Ok(body)
    }

    /// Reads the next frame, checks its CRC and decodes it.
    ///
    /// # Errors
    ///
    /// I/O, deadline, checksum or decode failures.
    pub fn next_event(&mut self) -> io::Result<ServerEvent> {
        Ok(self.next_event_traced()?.0)
    }

    /// As [`Member::next_event`], also returning the frame's trace
    /// token when the server attached one.
    ///
    /// # Errors
    ///
    /// As [`Member::next_event`].
    pub fn next_event_traced(&mut self) -> io::Result<(ServerEvent, Option<TraceToken>)> {
        let body = self.next_body()?;
        let header_at = body.start - FRAME_HEADER_LEN;
        let bytes = &self.buf[body];
        if frame_header(bytes)[4..] != self.buf[header_at + 4..header_at + FRAME_HEADER_LEN] {
            return Err(protocol_error("frame checksum mismatch".to_string()));
        }
        decode_traced::<ServerEvent>(bytes).map_err(|e| protocol_error(e.to_string()))
    }

    /// Blocks until at least one unread byte is buffered or waiting in
    /// the socket, without consuming it — lets the traced run tell the
    /// wait for the server from its own read-and-decode time.
    ///
    /// # Errors
    ///
    /// Socket or deadline failures.
    pub fn wait_readable(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.stream.peek(&mut [0])?;
        }
        Ok(())
    }

    /// Reads frames until `want` multicasts have gone by, counting
    /// them by their tag byte without decoding. Other events a member
    /// legitimately sees (`LogReduced`, `Roster`) are skipped.
    ///
    /// # Errors
    ///
    /// I/O or deadline failures, or a server `Error` event.
    pub fn skip_multicasts(&mut self, want: u64) -> io::Result<()> {
        let mut seen = 0;
        while seen < want {
            let body = self.next_body()?;
            match self.buf[body.clone()].first() {
                Some(&TAG_MULTICAST) => seen += 1,
                Some(&TAG_ERROR) => {
                    let event = decode_traced::<ServerEvent>(&self.buf[body]);
                    return Err(protocol_error(format!("server error: {event:?}")));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Decodes frames until the next multicast and returns its group,
    /// sequence number and trace token.
    ///
    /// # Errors
    ///
    /// As [`Member::next_event`], or a server `Error` event.
    pub fn next_multicast(&mut self) -> io::Result<(GroupId, u64, Option<TraceToken>)> {
        loop {
            match self.next_event_traced()? {
                (ServerEvent::Multicast { group, logged }, token) => {
                    return Ok((group, logged.seq.raw(), token))
                }
                (ServerEvent::Error { code, detail }, _) => {
                    return Err(protocol_error(format!("server error {code}: {detail}")))
                }
                _ => {}
            }
        }
    }

    /// Whether a multicast is already waiting (buffered or in the
    /// socket) — the end-of-run check that nobody got a frame too many.
    ///
    /// # Errors
    ///
    /// Socket failures other than "nothing to read".
    pub fn has_pending_multicast(&mut self) -> io::Result<bool> {
        self.stream.set_nonblocking(true)?;
        let result = loop {
            match self.next_body() {
                Ok(body) if self.buf[body.clone()].first() == Some(&TAG_MULTICAST) => {
                    break Ok(true)
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(false),
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        result
    }

    /// Says `Goodbye` and closes the connection.
    pub fn close(mut self) {
        let _ = self.send(&ClientRequest::Goodbye, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corona_types::id::SeqNo;
    use corona_types::state::{LoggedUpdate, Timestamp};
    use corona_types::wire::Encode;

    /// `skip_multicasts` tells events apart by their first byte; pin
    /// the two tags it relies on to the codec.
    #[test]
    fn tags_match_the_codec() {
        let multicast = ServerEvent::Multicast {
            group: GroupId::new(1),
            logged: LoggedUpdate {
                seq: SeqNo::new(1),
                sender: ClientId::new(1),
                timestamp: Timestamp::ZERO,
                update: StateUpdate::set_state(ObjectId::new(1), &b"x"[..]),
            },
        };
        assert_eq!(multicast.encode_to_vec()[0], TAG_MULTICAST);
        let error = ServerEvent::Error {
            code: 1,
            detail: String::new(),
        };
        assert_eq!(error.encode_to_vec()[0], TAG_ERROR);
    }
}
