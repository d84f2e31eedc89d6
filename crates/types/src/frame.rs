//! Stream framing: `len(u32 LE) ∥ crc32(u32 LE) ∥ body`.
//!
//! Used by the TCP transport for every message in both directions. The
//! CRC guards against corruption that slips past TCP's weak checksum
//! and, more importantly, gives the stable-storage log (which reuses
//! this format per record) torn-write detection.
//!
//! A [`Frame`] is a body with its header already computed: a multicast
//! builds one per event and hands a clone to every recipient, so the
//! body is checksummed once however wide the group.
//!
//! Receivers verify with [`check_frame`], in place over the bytes they
//! already hold: the reactor on its reassembly buffer, [`read_frame`]
//! on the buffer it read the stream into. A body is crossed once by
//! the checksum and copied at most once on its way to a [`Bytes`].

use crate::crc32::crc32;
use crate::error::CodecError;
use bytes::Bytes;
use std::io::{self, Read, Write};

/// Maximum frame body accepted, matching the codec's declared-length
/// sanity limit.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of framing overhead per message (length + checksum).
pub const FRAME_HEADER_LEN: usize = 8;

/// Writes one frame to `w`. Does not flush; callers batch frames and
/// flush once per writer-loop iteration.
///
/// # Errors
///
/// Returns `InvalidInput` if the body exceeds [`MAX_FRAME_LEN`], or any
/// underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    check_len(body.len() as u64).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let header = frame_header(body);
    w.write_all(&header)?;
    w.write_all(body)
}

/// Refuses a body length over [`MAX_FRAME_LEN`] — on the way out, so
/// an oversize body fails at its sender, and on the way in, before
/// anything is allocated for it.
pub(crate) fn check_len(len: u64) -> Result<usize, CodecError> {
    if len > u64::from(MAX_FRAME_LEN) {
        return Err(CodecError::LengthOverflow {
            declared: len,
            limit: u64::from(MAX_FRAME_LEN),
        });
    }
    Ok(len as usize)
}

/// Builds the 8-byte header for `body`.
pub fn frame_header(body: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(body).to_le_bytes());
    header
}

/// A body ready for the wire: the 8-byte header computed once, the
/// body refcounted. Cloning copies the header and bumps the body's
/// refcount — it never touches (or re-checksums) the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    header: [u8; FRAME_HEADER_LEN],
    body: Bytes,
}

impl Frame {
    /// Frames `body`, checksumming it (the only place that happens on
    /// the send side).
    ///
    /// # Errors
    ///
    /// [`CodecError::LengthOverflow`] if the body exceeds
    /// [`MAX_FRAME_LEN`]: every receiver would refuse the frame and
    /// drop the connection, so it is refused here, unsent.
    pub fn new(body: Bytes) -> Result<Frame, CodecError> {
        check_len(body.len() as u64)?;
        Ok(Frame {
            header: frame_header(&body),
            body,
        })
    }

    /// The `len ∥ crc32` header, exactly as [`write_frame`] emits it.
    pub fn header(&self) -> &[u8; FRAME_HEADER_LEN] {
        &self.header
    }

    /// The unframed body.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Consumes the frame, returning the unframed body (transports
    /// that move bodies between queues rather than bytes over a wire).
    pub fn into_body(self) -> Bytes {
        self.body
    }

    /// Bytes this frame occupies on the wire (header + body).
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.body.len()
    }
}

/// The body length `header` declares.
///
/// # Errors
///
/// [`CodecError::LengthOverflow`] if it exceeds [`MAX_FRAME_LEN`].
pub fn declared_len(header: &[u8; FRAME_HEADER_LEN]) -> Result<usize, CodecError> {
    let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
    check_len(u64::from(len))
}

/// Verifies one complete frame — `len ∥ crc32 ∥ body`, nothing before
/// or after it — where it lies, and returns its body.
///
/// # Errors
///
/// [`CodecError::LengthOverflow`] for a declared length above
/// [`MAX_FRAME_LEN`], [`CodecError::UnexpectedEof`] /
/// [`CodecError::TrailingBytes`] if the slice is not exactly one frame,
/// [`CodecError::ChecksumMismatch`] if the body fails its checksum.
pub fn check_frame(frame: &[u8]) -> Result<&[u8], CodecError> {
    let Some((header, body)) = frame.split_first_chunk::<FRAME_HEADER_LEN>() else {
        return Err(CodecError::UnexpectedEof {
            needed: FRAME_HEADER_LEN - frame.len(),
            remaining: frame.len(),
        });
    };
    let len = declared_len(header)?;
    if body.len() < len {
        return Err(CodecError::UnexpectedEof {
            needed: len - body.len(),
            remaining: body.len(),
        });
    }
    if body.len() > len {
        return Err(CodecError::TrailingBytes {
            remaining: body.len() - len,
        });
    }
    let expected = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
    let actual = crc32(body);
    if actual != expected {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
}

/// Reads one frame from `r`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer
/// closed the connection between messages).
///
/// # Errors
///
/// * `io::ErrorKind::UnexpectedEof` — the stream ended mid-frame;
/// * `io::ErrorKind::InvalidData` — length above [`MAX_FRAME_LEN`] or
///   checksum mismatch (wrapping a [`CodecError`]).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Bytes>> {
    let invalid = |e: CodecError| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut header = [0u8; FRAME_HEADER_LEN];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let len = declared_len(&header).map_err(invalid)?;
    // The stream fills the buffer the body is then verified in and
    // handed on from: no zero-fill, no second copy.
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + len);
    frame.extend_from_slice(&header);
    r.by_ref().take(len as u64).read_to_end(&mut frame)?;
    if frame.len() < FRAME_HEADER_LEN + len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended inside a frame body",
        ));
    }
    check_frame(&frame).map_err(invalid)?;
    Ok(Some(Bytes::from(frame).slice(FRAME_HEADER_LEN..)))
}

enum ReadOutcome {
    Filled,
    CleanEof,
}

/// Like `read_exact`, but distinguishes "EOF before any byte" (clean
/// close) from "EOF mid-buffer" (truncated frame).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::CleanEof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"third frame body").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().as_ref(), b"first");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().as_ref(), b"");
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap().as_ref(),
            b"third frame body"
        );
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"sensitive payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"cut me short").unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_header_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf.truncate(5);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn corrupt_checksum_field_is_detected() {
        // Corruption in the header's CRC field (not the body) must
        // fail the same way as body corruption.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf[5] ^= 0xFF;
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn torn_write_after_good_frames_stops_at_the_tear() {
        // Models a torn tail write in the stable-storage log: intact
        // records decode, the torn record surfaces as UnexpectedEof,
        // and nothing past the tear is fabricated.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"record-1").unwrap();
        write_frame(&mut buf, b"record-2").unwrap();
        let intact = buf.len();
        write_frame(&mut buf, b"torn record").unwrap();
        buf.truncate(intact + FRAME_HEADER_LEN + 4);
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap().as_ref(),
            b"record-1"
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap().as_ref(),
            b"record-2"
        );
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn interrupted_reads_are_retried() {
        // A reader that yields Interrupted between every byte still
        // produces the frame.
        struct Stutter {
            data: Vec<u8>,
            pos: usize,
            interrupt: bool,
        }
        impl Read for Stutter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.interrupt {
                    self.interrupt = false;
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
                }
                self.interrupt = true;
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut data = Vec::new();
        write_frame(&mut data, b"slow but sure").unwrap();
        let mut r = Stutter {
            data,
            pos: 0,
            interrupt: true,
        };
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().as_ref(),
            b"slow but sure"
        );
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut header = Vec::new();
        header.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut Cursor::new(header)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn golden_frame_is_byte_stable() {
        // Recorded from the one-byte table kernel (zlib agrees): what
        // old peers put on the wire and old logs hold on disk.
        let body = b"stateful group communication services";
        let golden = [37, 0, 0, 0, 0x65, 0xF3, 0xF9, 0x12];
        assert_eq!(frame_header(body), golden);
        let wire = [&golden[..], body].concat();
        assert_eq!(check_frame(&wire).unwrap(), body);
        assert_eq!(
            read_frame(&mut Cursor::new(wire))
                .unwrap()
                .unwrap()
                .as_ref(),
            body
        );
    }

    #[test]
    fn check_frame_takes_exactly_one_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"one frame").unwrap();
        assert_eq!(check_frame(&wire).unwrap(), b"one frame");
        for short in [0, 5, FRAME_HEADER_LEN, wire.len() - 1] {
            assert!(matches!(
                check_frame(&wire[..short]),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
        wire.push(0);
        assert_eq!(
            check_frame(&wire),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn oversized_body_refused_by_the_frame_constructor() {
        let limit = MAX_FRAME_LEN as usize;
        let body = Bytes::from(vec![0u8; limit + 1]);
        assert_eq!(
            Frame::new(body.clone()),
            Err(CodecError::LengthOverflow {
                declared: limit as u64 + 1,
                limit: limit as u64,
            })
        );
        let at_limit = Frame::new(body.slice(..limit)).unwrap();
        assert_eq!(at_limit.wire_len(), FRAME_HEADER_LEN + limit);
    }

    #[test]
    fn oversized_body_rejected_on_write() {
        struct NullWriter;
        impl Write for NullWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let body = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let err = write_frame(&mut NullWriter, &body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
