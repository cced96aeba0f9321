//! Error types for the Application Heartbeats framework.

use std::fmt;

/// Errors produced by the Heartbeats framework.
///
/// The API is deliberately small and most operations are infallible (issuing a
/// heartbeat never fails), so errors are confined to configuration, lookup and
/// backend I/O.
#[derive(Debug)]
pub enum HeartbeatError {
    /// A configuration parameter was invalid (e.g. a zero window size or a
    /// target range with `min > max`).
    InvalidConfig(String),
    /// A named application was not found in the registry.
    NotRegistered(String),
    /// An application with the same name is already registered.
    AlreadyRegistered(String),
    /// The requested history is larger than what the implementation retains.
    /// Carries the number of records actually available.
    HistoryTruncated(usize),
    /// A mirroring backend (file, shared memory, ...) failed.
    Backend(String),
    /// An I/O error from a file- or shm-based backend.
    Io(std::io::Error),
}

impl fmt::Display for HeartbeatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeartbeatError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            HeartbeatError::NotRegistered(name) => {
                write!(f, "application `{name}` is not registered")
            }
            HeartbeatError::AlreadyRegistered(name) => {
                write!(f, "application `{name}` is already registered")
            }
            HeartbeatError::HistoryTruncated(avail) => {
                write!(
                    f,
                    "requested more history than retained ({avail} available)"
                )
            }
            HeartbeatError::Backend(msg) => write!(f, "backend error: {msg}"),
            HeartbeatError::Io(err) => write!(f, "I/O error: {err}"),
        }
    }
}

impl std::error::Error for HeartbeatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HeartbeatError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HeartbeatError {
    fn from(err: std::io::Error) -> Self {
        HeartbeatError::Io(err)
    }
}

/// Convenience result alias used across the framework.
pub type Result<T> = std::result::Result<T, HeartbeatError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_config() {
        let e = HeartbeatError::InvalidConfig("window must be > 0".into());
        assert!(e.to_string().contains("window must be > 0"));
    }

    #[test]
    fn display_not_registered() {
        let e = HeartbeatError::NotRegistered("x264".into());
        assert!(e.to_string().contains("x264"));
        assert!(e.to_string().contains("not registered"));
    }

    #[test]
    fn display_already_registered() {
        let e = HeartbeatError::AlreadyRegistered("dedup".into());
        assert!(e.to_string().contains("already registered"));
    }

    #[test]
    fn display_history_truncated() {
        let e = HeartbeatError::HistoryTruncated(17);
        assert!(e.to_string().contains("17"));
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing file");
        let e: HeartbeatError = io.into();
        assert!(matches!(e, HeartbeatError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("missing file"));
    }

    #[test]
    fn backend_error_has_no_source() {
        let e = HeartbeatError::Backend("shm unlink failed".into());
        assert!(std::error::Error::source(&e).is_none());
    }
}
