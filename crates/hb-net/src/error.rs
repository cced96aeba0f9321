//! Error type for the heartbeat network layer.

use std::fmt;
use std::io;

/// Errors produced while encoding, decoding or transporting heartbeat
/// telemetry.
#[derive(Debug)]
pub enum NetError {
    /// Transport-level I/O failure (connect, read, write).
    Io(io::Error),
    /// A frame violated the wire protocol (bad magic, kind, CRC, length or
    /// payload contents). Carries a human-readable description.
    Protocol(String),
    /// The peer closed the connection mid-frame.
    UnexpectedEof,
    /// A query-port response could not be interpreted.
    BadResponse(String),
    /// The peer cannot provide the requested operation — above all, it
    /// speaks another wire version: a frame header not stamped
    /// `wire::VERSION`, or a collector failing the `VERSION` probe.
    Unsupported(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(err) => write!(f, "I/O error: {err}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::UnexpectedEof => write!(f, "connection closed mid-frame"),
            NetError::BadResponse(msg) => write!(f, "malformed collector response: {msg}"),
            NetError::Unsupported(msg) => write!(f, "unsupported by peer: {msg}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(err: io::Error) -> Self {
        NetError::Io(err)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(NetError::Protocol("bad magic".into())
            .to_string()
            .contains("bad magic"));
        assert!(NetError::UnexpectedEof.to_string().contains("mid-frame"));
        assert!(NetError::Unsupported("v2 collector".into())
            .to_string()
            .contains("v2 collector"));
        let io_err: NetError = io::Error::new(io::ErrorKind::ConnectionRefused, "nope").into();
        assert!(io_err.to_string().contains("nope"));
        assert!(std::error::Error::source(&io_err).is_some());
    }
}
