//! Low-level binary codec primitives.
//!
//! All Corona wire traffic and all stable-storage records are encoded
//! with the little-endian, length-prefixed primitives defined here. The
//! format is deliberately simple and self-delimiting so the same codec
//! serves the TCP transport, the simulator's transport, and the on-disk
//! log (whose records must be replayable after a torn tail write).
//!
//! Variable-length integers use LEB128 (7 bits per byte), which keeps
//! the many small sequence numbers and collection lengths compact while
//! allowing the full `u64` range.

use crate::error::CodecError;
use crate::frame::{check_len, Frame};
use bytes::{BufMut, Bytes, BytesMut};

/// Upper bound on any single declared length (bytes, string, or
/// collection element count). Protects decoders against hostile or
/// corrupt length fields causing huge allocations.
pub const MAX_DECLARED_LEN: u64 = 64 * 1024 * 1024;

/// Serialises a value into the Corona wire format.
pub trait Encode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// The number of bytes [`Encode::encode`] appends, exactly: a
    /// buffer of this capacity is filled without ever growing.
    fn encoded_len(&self) -> usize;

    /// Encodes `self` into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        self.encode_to_bytes().to_vec()
    }

    /// Encodes `self` into owned [`Bytes`], allocated once at its
    /// exact size.
    fn encode_to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Bytes [`WriteExt::put_varint`] writes for `value`.
pub(crate) const fn varint_len(value: u64) -> usize {
    let bits = 64 - (value | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Bytes [`WriteExt::put_len_bytes`] writes for `len` bytes of data.
pub(crate) const fn len_bytes_len(len: usize) -> usize {
    varint_len(len as u64) + len
}

/// Deserialises a value from the Corona wire format.
pub trait Decode: Sized {
    /// Reads one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the input is truncated, carries an
    /// unknown tag, or violates a length limit.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decodes a value from a complete buffer, requiring that every
    /// byte is consumed.
    ///
    /// # Errors
    ///
    /// In addition to decode errors, returns
    /// [`CodecError::TrailingBytes`] if the buffer contains more than
    /// one value.
    fn decode_exact(input: &[u8]) -> Result<Self, CodecError> {
        Reader::new(input).read_exact()
    }

    /// [`Decode::decode_exact`] over a received frame body: every byte
    /// string the value holds is a slice of `frame`, not a copy (see
    /// [`Reader::over_frame`]).
    ///
    /// # Errors
    ///
    /// As [`Decode::decode_exact`].
    fn decode_frame(frame: &Bytes) -> Result<Self, CodecError> {
        Reader::over_frame(frame).read_exact()
    }
}

/// A cursor over a byte slice with checked primitive reads.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
    /// The buffer `input` is, when the reader was made over one: byte
    /// strings are then read as slices of it.
    frame: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`. Byte strings are copied out.
    pub fn new(input: &'a [u8]) -> Self {
        Reader {
            input,
            pos: 0,
            frame: None,
        }
    }

    /// Creates a reader over a received frame body. A byte string read
    /// from it is a [`Bytes::slice`] of `frame` — no allocation, no
    /// copy — and so keeps the whole frame alive for as long as it is
    /// held.
    pub fn over_frame(frame: &'a Bytes) -> Self {
        Reader {
            input: frame,
            pos: 0,
            frame: Some(frame),
        }
    }

    /// Reads one `T` that must end exactly where the input does.
    fn read_exact<T: Decode>(mut self) -> Result<T, CodecError> {
        let value = T::decode(&mut self)?;
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(value)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a LEB128 variable-length integer.
    pub fn read_varint(&mut self) -> Result<u64, CodecError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::LengthOverflow {
                    declared: u64::MAX,
                    limit: u64::MAX,
                });
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::LengthOverflow {
                    declared: u64::MAX,
                    limit: u64::MAX,
                });
            }
        }
    }

    /// Reads a declared length and validates it against
    /// [`MAX_DECLARED_LEN`] and the remaining input.
    pub fn read_len(&mut self) -> Result<usize, CodecError> {
        let declared = self.read_varint()?;
        if declared > MAX_DECLARED_LEN {
            return Err(CodecError::LengthOverflow {
                declared,
                limit: MAX_DECLARED_LEN,
            });
        }
        Ok(declared as usize)
    }

    /// Reads a length-prefixed byte string as owned [`Bytes`]: a slice
    /// of the frame for a reader [over one](Reader::over_frame), a copy
    /// otherwise.
    pub fn read_bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.read_len()?;
        let start = self.pos;
        let data = self.take(len)?;
        Ok(match self.frame {
            Some(frame) => frame.slice(start..start + len),
            None => Bytes::copy_from_slice(data),
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_string(&mut self) -> Result<String, CodecError> {
        let len = self.read_len()?;
        let slice = self.take(len)?;
        String::from_utf8(slice.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads a boolean encoded as a single 0/1 byte.
    pub fn read_bool(&mut self) -> Result<bool, CodecError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag {
                context: "bool",
                tag,
            }),
        }
    }
}

/// Write-side primitives as free functions over `BytesMut`.
///
/// Kept as an extension trait so call sites read naturally
/// (`buf.put_varint(n)`), mirroring the `bytes::BufMut` style.
pub trait WriteExt: BufMut {
    /// Writes a LEB128 variable-length integer.
    fn put_varint(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7F) as u8;
            value >>= 7;
            if value == 0 {
                self.put_u8(byte);
                return;
            }
            self.put_u8(byte | 0x80);
        }
    }

    /// Writes a length-prefixed byte string.
    fn put_len_bytes(&mut self, data: &[u8]) {
        self.put_varint(data.len() as u64);
        self.put_slice(data);
    }

    /// Writes a length-prefixed UTF-8 string.
    fn put_len_str(&mut self, s: &str) {
        self.put_len_bytes(s.as_bytes());
    }

    /// Writes a boolean as a single 0/1 byte.
    fn put_bool(&mut self, value: bool) {
        self.put_u8(u8::from(value));
    }
}

impl<T: BufMut + ?Sized> WriteExt for T {}

/// Marker byte introducing an optional trailing trace field after a
/// top-level message encoding (see [`encode_traced`]).
pub const TRACE_MARKER: u8 = 0xC7;

/// The per-message trace context carried on the wire: a process-unique
/// trace id plus the sender's origin timestamp in microseconds.
///
/// The token rides *after* the message body as an optional trailing
/// field, which keeps the extension backward compatible: encodings
/// produced without a token are byte-identical to the pre-tracing
/// format, and [`decode_traced`] accepts both forms (an absent tail
/// simply yields `None`). Only frames from tracing-enabled senders
/// carry the extra bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceToken {
    /// The trace id ([`corona-trace`'s `TraceId`] as a raw `u64`).
    pub id: u64,
    /// Sender-side origin timestamp in microseconds.
    pub origin_us: u64,
}

/// Bytes [`encode_traced`] writes for `value` and `token`.
fn traced_len<T: Encode>(value: &T, token: Option<TraceToken>) -> usize {
    let tail = token.map_or(0, |t| 1 + varint_len(t.id) + varint_len(t.origin_us));
    value.encoded_len() + tail
}

/// Encodes a top-level message, optionally appending a trailing
/// [`TraceToken`] (`TRACE_MARKER ∥ varint id ∥ varint origin_us`),
/// into one buffer allocated at its exact size.
pub fn encode_traced<T: Encode>(value: &T, token: Option<TraceToken>) -> Bytes {
    let mut buf = BytesMut::with_capacity(traced_len(value, token));
    value.encode(&mut buf);
    if let Some(t) = token {
        buf.put_u8(TRACE_MARKER);
        buf.put_varint(t.id);
        buf.put_varint(t.origin_us);
    }
    buf.freeze()
}

/// [`encode_traced`] straight into a [`Frame`]: the one way a server
/// puts a message on a connection. A message over
/// [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN) is
/// refused from its [`Encode::encoded_len`], before anything is
/// allocated or encoded for it.
///
/// # Errors
///
/// [`CodecError::LengthOverflow`] for a message no frame can carry.
pub fn encode_frame<T: Encode>(value: &T, token: Option<TraceToken>) -> Result<Frame, CodecError> {
    check_len(traced_len(value, token) as u64)?;
    Frame::new(encode_traced(value, token))
}

/// Decodes a complete top-level message buffer that may carry a
/// trailing [`TraceToken`]. Untraced buffers (the pre-tracing format)
/// decode to `(value, None)`.
///
/// # Errors
///
/// Message decode errors; [`CodecError::TrailingBytes`] if the tail is
/// present but malformed or followed by further bytes.
pub fn decode_traced<T: Decode>(input: &[u8]) -> Result<(T, Option<TraceToken>), CodecError> {
    read_traced(Reader::new(input))
}

/// [`decode_traced`] over a received frame body: every byte string
/// the message holds is a slice of `frame` (see [`Reader::over_frame`]).
///
/// # Errors
///
/// As [`decode_traced`].
pub fn decode_traced_frame<T: Decode>(
    frame: &Bytes,
) -> Result<(T, Option<TraceToken>), CodecError> {
    read_traced(Reader::over_frame(frame))
}

fn read_traced<T: Decode>(mut reader: Reader<'_>) -> Result<(T, Option<TraceToken>), CodecError> {
    let value = T::decode(&mut reader)?;
    if reader.remaining() == 0 {
        return Ok((value, None));
    }
    let remaining = reader.remaining();
    if reader.read_u8()? != TRACE_MARKER {
        return Err(CodecError::TrailingBytes { remaining });
    }
    let id = reader.read_varint()?;
    let origin_us = reader.read_varint()?;
    if reader.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: reader.remaining(),
        });
    }
    Ok((value, Some(TraceToken { id, origin_us })))
}

macro_rules! impl_id_codec {
    ($($ty:ty),+ $(,)?) => {
        $(
            impl Encode for $ty {
                fn encode(&self, buf: &mut BytesMut) {
                    buf.put_varint(self.0);
                }

                fn encoded_len(&self) -> usize {
                    varint_len(self.0)
                }
            }

            impl Decode for $ty {
                fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
                    Ok(Self(reader.read_varint()?))
                }
            }
        )+
    };
}

impl_id_codec!(
    crate::id::GroupId,
    crate::id::ObjectId,
    crate::id::ClientId,
    crate::id::ServerId,
    crate::id::SeqNo,
    crate::id::Epoch,
    crate::state::Timestamp,
);

impl Encode for u16 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(*self);
    }

    fn encoded_len(&self) -> usize {
        2
    }
}

impl Decode for u16 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        reader.read_u16()
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_varint(*self);
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Decode for u64 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        reader.read_varint()
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_bool(*self);
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        reader.read_bool()
    }
}

impl Encode for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_len_bytes(self);
    }

    fn encoded_len(&self) -> usize {
        len_bytes_len(self.len())
    }
}

impl Decode for Bytes {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        reader.read_bytes()
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_len_str(self);
    }

    fn encoded_len(&self) -> usize {
        len_bytes_len(self.len())
    }
}

impl Decode for String {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        reader.read_string()
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(reader)?, B::decode(reader)?))
    }
}

/// A presence byte (0/1), then the value if present.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_bool(self.is_some());
        if let Some(value) = self {
            value.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        if reader.read_bool()? {
            Ok(Some(T::decode(reader)?))
        } else {
            Ok(None)
        }
    }
}

/// A varint element count, then each element.
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_varint(self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        let items: usize = self.iter().map(Encode::encoded_len).sum();
        varint_len(self.len() as u64) + items
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = reader.read_len()?;
        // Guard against a hostile count with a tiny body: cap the upfront
        // allocation and let the EOF check catch the lie.
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            out.push(T::decode(reader)?);
        }
        Ok(out)
    }
}

/// Declares a wire type once: the type, its [`Encode`] and its
/// [`Decode`] come from the same list, so the two directions cannot
/// disagree on a tag or a field order.
///
/// An enum is written as usual, with each variant's tag byte in front
/// of it: `0 => Hello { .. }`, `1 => LastUpdates(u64)`, `12 => Goodbye`.
/// Encoding writes the tag, then each field in declaration order;
/// decoding matches the same tags and reads the fields back in that
/// order. An unknown tag is [`CodecError::InvalidTag`] with the type's
/// name as its context, and a tag used twice fails the build. A struct
/// has no tag: its fields are written in declaration order.
///
/// Supported shapes: unit, one-field tuple and named-field variants,
/// and named-field structs.
macro_rules! wire {
    // One variant's match pattern, binding its fields.
    (@pat $variant:ident $value:ident) => { Self::$variant };
    (@pat $variant:ident $value:ident ($ty:ty)) => { Self::$variant($value) };
    (@pat $variant:ident $value:ident {
        $($(#[$meta:meta])* $field:ident: $ty:ty),* $(,)?
    }) => { Self::$variant { $($field),* } };

    // Writes the fields bound by `@pat`.
    (@put $buf:ident $value:ident) => {};
    (@put $buf:ident $value:ident ($ty:ty)) => { $crate::wire::Encode::encode($value, $buf) };
    (@put $buf:ident $value:ident {
        $($(#[$meta:meta])* $field:ident: $ty:ty),* $(,)?
    }) => { $($crate::wire::Encode::encode($field, $buf);)* };

    // The bytes `@put` writes.
    (@len $value:ident) => { 0 };
    (@len $value:ident ($ty:ty)) => { $crate::wire::Encode::encoded_len($value) };
    (@len $value:ident {
        $($(#[$meta:meta])* $field:ident: $ty:ty),* $(,)?
    }) => { 0 $(+ $crate::wire::Encode::encoded_len($field))* };

    // Reads one variant's fields back, in declaration order.
    (@get $reader:ident $variant:ident) => { Self::$variant };
    (@get $reader:ident $variant:ident ($ty:ty)) => {
        Self::$variant(<$ty as $crate::wire::Decode>::decode($reader)?)
    };
    (@get $reader:ident $variant:ident {
        $($(#[$meta:meta])* $field:ident: $ty:ty),* $(,)?
    }) => {
        Self::$variant { $($field: <$ty as $crate::wire::Decode>::decode($reader)?),* }
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $(($($tuple:tt)*))? $({$($named:tt)*})?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant $(($($tuple)*))? $({$($named)*})?),*
        }

        impl $crate::wire::Encode for $name {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $($crate::wire::wire!(@pat $variant value $(($($tuple)*))? $({$($named)*})?) => {
                        ::bytes::BufMut::put_u8(buf, $tag);
                        $crate::wire::wire!(@put buf value $(($($tuple)*))? $({$($named)*})?);
                    })*
                }
            }

            fn encoded_len(&self) -> usize {
                match self {
                    $($crate::wire::wire!(@pat $variant value $(($($tuple)*))? $({$($named)*})?) => {
                        1 + $crate::wire::wire!(@len value $(($($tuple)*))? $({$($named)*})?)
                    })*
                }
            }
        }

        impl $crate::wire::Decode for $name {
            #[deny(unreachable_patterns)]
            fn decode(
                reader: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::error::CodecError> {
                match reader.read_u8()? {
                    $($tag => Ok($crate::wire::wire!(
                        @get reader $variant $(($($tuple)*))? $({$($named)*})?
                    )),)*
                    tag => Err($crate::error::CodecError::InvalidTag {
                        context: stringify!($name),
                        tag,
                    }),
                }
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $crate::wire::Encode for $name {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                $($crate::wire::Encode::encode(&self.$field, buf);)*
            }

            fn encoded_len(&self) -> usize {
                0 $(+ $crate::wire::Encode::encoded_len(&self.$field))*
            }
        }

        impl $crate::wire::Decode for $name {
            fn decode(
                reader: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::error::CodecError> {
                Ok(Self { $($field: <$ty as $crate::wire::Decode>::decode(reader)?),* })
            }
        }
    };
}

pub(crate) use wire;

/// The golden-bytes check behind every codec table in this crate: each
/// row's value must encode to exactly its hex (spaces only group the
/// digits for reading), its [`Encode::encoded_len`] must be the hex's
/// byte length, and the hex must decode back to the value — copied
/// out of a slice, and sliced out of a frame.
#[cfg(test)]
pub(crate) fn assert_golden<T>(rows: Vec<(T, &str)>)
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    for (value, hex) in rows {
        let want = hex.replace(' ', "");
        assert_eq!(
            value.encoded_len() * 2,
            want.len(),
            "encoded_len of {value:?}"
        );
        let got: String = value
            .encode_to_vec()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(got, want, "encoding of {value:?}");
        let bytes: Vec<u8> = (0..want.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&want[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(T::decode_exact(&bytes).unwrap(), value, "decoding {hex}");
        let frame = Bytes::from(bytes);
        assert_eq!(T::decode_frame(&frame).unwrap(), value, "decoding {hex}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME_LEN;
    use crate::id::{GroupId, SeqNo};

    fn roundtrip_varint(v: u64) {
        let mut buf = BytesMut::new();
        buf.put_varint(v);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_varint().unwrap(), v);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_roundtrips() {
        for v in [
            0,
            1,
            127,
            128,
            255,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            roundtrip_varint(v);
        }
    }

    #[test]
    fn varint_compactness() {
        let mut buf = BytesMut::new();
        buf.put_varint(5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        buf.put_varint(128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        buf.put_varint(u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_rejects_overlong() {
        // 11 continuation bytes cannot encode any u64.
        let input = [0xFFu8; 11];
        let mut r = Reader::new(&input);
        assert!(matches!(
            r.read_varint(),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn fixed_width_reads() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0123_4567_89AB_CDEF);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn eof_is_reported_with_counts() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.read_u32().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEof {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        let mut buf = BytesMut::new();
        buf.put_len_str("héllo wörld");
        buf.put_len_bytes(&[0, 1, 2, 255]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_string().unwrap(), "héllo wörld");
        assert_eq!(r.read_bytes().unwrap().as_ref(), &[0, 1, 2, 255]);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_len_bytes(&[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_string().unwrap_err(), CodecError::InvalidUtf8);
    }

    #[test]
    fn bool_rejects_nonbinary() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(
            r.read_bool(),
            Err(CodecError::InvalidTag {
                context: "bool",
                ..
            })
        ));
    }

    #[test]
    fn length_limit_enforced() {
        let mut buf = BytesMut::new();
        buf.put_varint(MAX_DECLARED_LEN + 1);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.read_len(),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn id_codec_roundtrip() {
        let mut buf = BytesMut::new();
        GroupId::new(300).encode(&mut buf);
        SeqNo::new(7).encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(GroupId::decode(&mut r).unwrap(), GroupId::new(300));
        assert_eq!(SeqNo::decode(&mut r).unwrap(), SeqNo::new(7));
    }

    #[test]
    fn vec_option_u16_and_bool_codecs() {
        assert_golden(vec![(vec![1u64, 2, 300], "03 01 02 ac02")]);
        assert_golden(vec![(Some(9u64), "01 09"), (None, "00")]);
        assert_golden(vec![(0xBEEFu16, "efbe")]);
        assert_golden(vec![(false, "00"), (true, "01")]);
        assert_eq!(
            bool::decode_exact(&[2]),
            Err(CodecError::InvalidTag {
                context: "bool",
                tag: 2
            })
        );
    }

    #[test]
    fn decode_exact_rejects_trailing() {
        let mut buf = BytesMut::new();
        buf.put_varint(1);
        buf.put_u8(0xAA);
        let err = u64::decode_exact(&buf).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn traced_roundtrip_and_backward_compat() {
        let token = TraceToken {
            id: 42,
            origin_us: 1_234_567,
        };
        let traced = encode_traced(&7u64, Some(token));
        assert_eq!(decode_traced::<u64>(&traced).unwrap(), (7, Some(token)));

        // Without a token the encoding is byte-identical to the plain
        // form, and plain buffers decode with `None`.
        let plain = encode_traced(&7u64, None);
        let mut bare = BytesMut::new();
        7u64.encode(&mut bare);
        assert_eq!(&plain[..], &bare[..]);
        assert_eq!(decode_traced::<u64>(&plain).unwrap(), (7, None));
    }

    #[test]
    fn traced_decode_rejects_malformed_tails() {
        // Trailing garbage that is not a trace marker.
        let mut buf = BytesMut::new();
        buf.put_varint(7);
        buf.put_u8(0xAA);
        assert_eq!(
            decode_traced::<u64>(&buf).unwrap_err(),
            CodecError::TrailingBytes { remaining: 1 }
        );

        // A marker with a truncated payload.
        let mut buf = BytesMut::new();
        buf.put_varint(7);
        buf.put_u8(TRACE_MARKER);
        buf.put_varint(42);
        assert!(decode_traced::<u64>(&buf).is_err());

        // Bytes after a complete token.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_traced(
            &7u64,
            Some(TraceToken {
                id: 1,
                origin_us: 2,
            }),
        ));
        buf.put_u8(0x00);
        assert_eq!(
            decode_traced::<u64>(&buf).unwrap_err(),
            CodecError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn varint_len_matches_what_is_written() {
        let mut v = 1u64;
        for value in [0, 127, 128, 16383, 16384, u64::MAX]
            .into_iter()
            .chain(std::iter::from_fn(|| {
                v = v.checked_mul(3)?;
                Some(v)
            }))
        {
            let mut buf = BytesMut::new();
            buf.put_varint(value);
            assert_eq!(varint_len(value), buf.len(), "{value}");
        }
    }

    #[test]
    fn byte_strings_read_over_a_frame_are_slices_of_it() {
        let mut buf = BytesMut::new();
        buf.put_len_bytes(b"first");
        buf.put_len_bytes(b"second");
        let frame = buf.freeze();
        let mut r = Reader::over_frame(&frame);
        let first = r.read_bytes().unwrap();
        let second = r.read_bytes().unwrap();
        assert_eq!((&first[..], &second[..]), (&b"first"[..], &b"second"[..]));
        assert_eq!(first.as_ptr(), frame[1..].as_ptr());
        assert_eq!(second.as_ptr(), frame[7..].as_ptr());
        // Over a plain slice the same read copies.
        let copied = Reader::new(&frame).read_bytes().unwrap();
        assert_eq!(copied, first);
        assert_ne!(copied.as_ptr(), first.as_ptr());
    }

    #[test]
    fn traced_encoding_has_its_exact_length() {
        let token = TraceToken {
            id: u64::MAX,
            origin_us: 300,
        };
        for token in [None, Some(token)] {
            let value = vec![Bytes::from(vec![7u8; 300]); 3];
            let traced = encode_traced(&value, token);
            assert_eq!(traced.len(), traced_len(&value, token));
            let frame = encode_frame(&value, token).unwrap();
            assert_eq!(frame.body(), &traced);
            let (back, tail) = decode_traced_frame::<Vec<Bytes>>(&traced).unwrap();
            assert_eq!((back, tail), (value, token));
        }
    }

    #[test]
    fn an_oversize_message_is_refused_before_it_is_encoded() {
        // Declares a length past the frame limit while holding almost
        // nothing: refusing it must not encode (or allocate) it.
        struct Huge;
        impl Encode for Huge {
            fn encode(&self, _: &mut BytesMut) {
                unreachable!("refused from its length");
            }
            fn encoded_len(&self) -> usize {
                MAX_FRAME_LEN as usize + 1
            }
        }
        assert_eq!(
            encode_frame(&Huge, None).unwrap_err(),
            CodecError::LengthOverflow {
                declared: u64::from(MAX_FRAME_LEN) + 1,
                limit: u64::from(MAX_FRAME_LEN),
            }
        );
    }

    #[test]
    fn hostile_count_does_not_overallocate() {
        // Declares 2^20 elements but provides none: must fail with EOF,
        // not abort on allocation.
        let mut buf = BytesMut::new();
        buf.put_varint(1 << 20);
        let mut r = Reader::new(&buf);
        assert!(Vec::<u64>::decode(&mut r).is_err());
    }
}
