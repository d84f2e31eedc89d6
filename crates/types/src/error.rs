//! Error types shared across the Corona stack.

use crate::id::{ClientId, GroupId, ObjectId};
use std::error::Error as StdError;
use std::fmt;
use std::io;

/// Stable numeric error codes carried on the wire in `ServerEvent::Error`.
///
/// Codes are part of the protocol: clients written against one server
/// version must be able to interpret errors from another, so variants
/// carry explicit discriminants and unknown codes decode to
/// [`ErrorCode::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// The named group does not exist (never created, or deleted).
    NoSuchGroup = 1,
    /// A group with this id already exists.
    GroupExists = 2,
    /// The client is not a member of the group it tried to operate on.
    NotAMember = 3,
    /// The client is already a member of the group.
    AlreadyMember = 4,
    /// The external session policy denied the operation.
    PolicyDenied = 5,
    /// The named shared object does not exist in the group state.
    NoSuchObject = 6,
    /// A lock operation failed because another member holds the lock.
    LockHeld = 7,
    /// A lock release failed because the caller does not hold the lock.
    LockNotHeld = 8,
    /// The requested log reduction point is invalid (in the future, or
    /// before the current log base).
    BadReductionPoint = 9,
    /// A message referenced a protocol feature this server does not
    /// support (version skew).
    Unsupported = 10,
    /// The request was malformed (failed validation after decode).
    BadRequest = 11,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown = 12,
    /// The server has lost its quorum lease and is fenced: it refuses
    /// to sequence new updates until a majority of the configured
    /// roster is reachable again. Clients should retry against the
    /// roster (another server may hold the coordinator role).
    Unavailable = 13,
    /// The reply does not fit in one frame
    /// ([`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN)) — a state
    /// transfer of a group that large — and was not sent. What the
    /// request changed stands (a join leaves the client a member):
    /// `GetState` under a narrower transfer policy may fit.
    TooLarge = 14,
    /// Catch-all for codes introduced by newer protocol revisions.
    Unknown = 0xFFFF,
}

impl ErrorCode {
    /// Decodes a wire code, mapping unrecognised values to `Unknown`.
    pub fn from_wire(raw: u16) -> ErrorCode {
        match raw {
            1 => ErrorCode::NoSuchGroup,
            2 => ErrorCode::GroupExists,
            3 => ErrorCode::NotAMember,
            4 => ErrorCode::AlreadyMember,
            5 => ErrorCode::PolicyDenied,
            6 => ErrorCode::NoSuchObject,
            7 => ErrorCode::LockHeld,
            8 => ErrorCode::LockNotHeld,
            9 => ErrorCode::BadReductionPoint,
            10 => ErrorCode::Unsupported,
            11 => ErrorCode::BadRequest,
            12 => ErrorCode::ShuttingDown,
            13 => ErrorCode::Unavailable,
            14 => ErrorCode::TooLarge,
            _ => ErrorCode::Unknown,
        }
    }

    /// The wire representation of this code.
    pub fn to_wire(self) -> u16 {
        self as u16
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::NoSuchGroup => "no such group",
            ErrorCode::GroupExists => "group already exists",
            ErrorCode::NotAMember => "not a member of the group",
            ErrorCode::AlreadyMember => "already a member of the group",
            ErrorCode::PolicyDenied => "denied by session policy",
            ErrorCode::NoSuchObject => "no such shared object",
            ErrorCode::LockHeld => "lock held by another member",
            ErrorCode::LockNotHeld => "lock not held by caller",
            ErrorCode::BadReductionPoint => "invalid log reduction point",
            ErrorCode::Unsupported => "unsupported protocol feature",
            ErrorCode::BadRequest => "malformed request",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::Unavailable => "server fenced: quorum unavailable",
            ErrorCode::TooLarge => "reply exceeds the frame size limit",
            ErrorCode::Unknown => "unknown error code",
        };
        f.write_str(s)
    }
}

/// Error produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A tag byte did not correspond to any known variant.
    InvalidTag {
        /// The context in which the tag appeared (type name).
        context: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length field exceeded the configured sanity limit.
    LengthOverflow {
        /// The declared length.
        declared: u64,
        /// The maximum permitted.
        limit: u64,
    },
    /// A declared UTF-8 string was not valid UTF-8.
    InvalidUtf8,
    /// A frame checksum did not match its body.
    ChecksumMismatch {
        /// Checksum carried in the frame header.
        expected: u32,
        /// Checksum computed over the received body.
        actual: u32,
    },
    /// Trailing bytes remained after a complete value was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} more bytes, {remaining} remaining"
            ),
            CodecError::InvalidTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            CodecError::LengthOverflow { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            CodecError::InvalidUtf8 => f.write_str("invalid utf-8 in string field"),
            CodecError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch: header {expected:#010x}, body {actual:#010x}"
            ),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after complete value")
            }
        }
    }
}

impl StdError for CodecError {}

/// Top-level error type of the Corona stack.
#[derive(Debug)]
pub enum CoronaError {
    /// A protocol-level error reported by the service.
    Protocol {
        /// The stable error code.
        code: ErrorCode,
        /// Human-readable detail supplied by the server.
        detail: String,
    },
    /// Wire data could not be decoded.
    Codec(CodecError),
    /// An I/O error from the transport or stable storage.
    Io(io::Error),
    /// The peer closed the connection.
    Disconnected,
    /// An operation timed out.
    Timeout {
        /// What was being waited for.
        operation: &'static str,
    },
    /// The local endpoint has been shut down.
    Closed,
    /// The client issued a request that is invalid in its current state
    /// (e.g. broadcasting to a group it never joined).
    InvalidState(String),
}

impl CoronaError {
    /// Convenience constructor for protocol errors.
    pub fn protocol(code: ErrorCode, detail: impl Into<String>) -> Self {
        CoronaError::Protocol {
            code,
            detail: detail.into(),
        }
    }

    /// Convenience constructor for a "no such group" error.
    pub fn no_such_group(group: GroupId) -> Self {
        CoronaError::protocol(ErrorCode::NoSuchGroup, format!("group {group} not found"))
    }

    /// Convenience constructor for a "not a member" error.
    pub fn not_a_member(client: ClientId, group: GroupId) -> Self {
        CoronaError::protocol(
            ErrorCode::NotAMember,
            format!("client {client} is not a member of {group}"),
        )
    }

    /// Convenience constructor for a "no such object" error.
    pub fn no_such_object(group: GroupId, object: ObjectId) -> Self {
        CoronaError::protocol(
            ErrorCode::NoSuchObject,
            format!("object {object} not found in {group}"),
        )
    }

    /// Returns the protocol error code, if this is a protocol error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            CoronaError::Protocol { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for CoronaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoronaError::Protocol { code, detail } if detail.is_empty() => write!(f, "{code}"),
            CoronaError::Protocol { code, detail } => write!(f, "{code}: {detail}"),
            CoronaError::Codec(e) => write!(f, "codec error: {e}"),
            CoronaError::Io(e) => write!(f, "i/o error: {e}"),
            CoronaError::Disconnected => f.write_str("peer disconnected"),
            CoronaError::Timeout { operation } => write!(f, "timed out waiting for {operation}"),
            CoronaError::Closed => f.write_str("endpoint closed"),
            CoronaError::InvalidState(s) => write!(f, "invalid state: {s}"),
        }
    }
}

impl StdError for CoronaError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            CoronaError::Codec(e) => Some(e),
            CoronaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CoronaError {
    fn from(e: CodecError) -> Self {
        CoronaError::Codec(e)
    }
}

impl From<io::Error> for CoronaError {
    fn from(e: io::Error) -> Self {
        CoronaError::Io(e)
    }
}

/// Result alias used across the stack.
pub type Result<T, E = CoronaError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_code_wire_roundtrip() {
        for code in [
            ErrorCode::NoSuchGroup,
            ErrorCode::GroupExists,
            ErrorCode::NotAMember,
            ErrorCode::AlreadyMember,
            ErrorCode::PolicyDenied,
            ErrorCode::NoSuchObject,
            ErrorCode::LockHeld,
            ErrorCode::LockNotHeld,
            ErrorCode::BadReductionPoint,
            ErrorCode::Unsupported,
            ErrorCode::BadRequest,
            ErrorCode::ShuttingDown,
            ErrorCode::Unavailable,
            ErrorCode::TooLarge,
        ] {
            assert_eq!(ErrorCode::from_wire(code.to_wire()), code);
        }
    }

    #[test]
    fn unknown_codes_decode_to_unknown() {
        assert_eq!(ErrorCode::from_wire(999), ErrorCode::Unknown);
        assert_eq!(ErrorCode::from_wire(0), ErrorCode::Unknown);
    }

    #[test]
    fn display_is_informative() {
        let e = CoronaError::no_such_group(GroupId::new(4));
        assert!(e.to_string().contains("g4"));
        let e = CoronaError::not_a_member(ClientId::new(1), GroupId::new(2));
        assert_eq!(e.code(), Some(ErrorCode::NotAMember));
        assert!(e.to_string().contains("c1"));
    }

    #[test]
    fn codec_error_display() {
        let e = CodecError::UnexpectedEof {
            needed: 4,
            remaining: 1,
        };
        assert!(e.to_string().contains("needed 4"));
        let e = CodecError::ChecksumMismatch {
            expected: 0xDEAD,
            actual: 0xBEEF,
        };
        assert!(e.to_string().contains("mismatch"));
    }

    #[test]
    fn error_conversions() {
        let io_err = io::Error::new(io::ErrorKind::BrokenPipe, "pipe");
        let e: CoronaError = io_err.into();
        assert!(matches!(e, CoronaError::Io(_)));
        let e: CoronaError = CodecError::InvalidUtf8.into();
        assert!(matches!(e, CoronaError::Codec(_)));
        assert!(e.source().is_some());
    }
}
