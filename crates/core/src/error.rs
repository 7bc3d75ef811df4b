//! Errors: configuration validation ([`C2lshError`]) and the unified
//! workspace-wide error type ([`Error`] / [`ErrorKind`]).
//!
//! [`ErrorKind`] carries a *stable* numeric code — the protocol's
//! Error frames put the code on the wire so clients can branch on the
//! kind without parsing prose, and the codes are append-only: a kind,
//! once assigned, never changes its number.

use std::fmt;

/// Why a [`crate::C2lshConfig`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum C2lshError {
    /// Approximation ratio must be an integer ≥ 2 (virtual rehashing
    /// merges `c` child buckets per level, so `c` must be integral).
    BadApproximationRatio(u32),
    /// Bucket width must be positive and finite.
    BadBucketWidth(f64),
    /// Failure budget must satisfy `0 < δ < 1/2`.
    BadDelta(f64),
    /// False-positive budget must be positive (count) or in `(0, 1)`
    /// (fraction).
    BadBeta(f64),
    /// Explicit `m` override must be ≥ 1.
    BadM(usize),
}

impl fmt::Display for C2lshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            C2lshError::BadApproximationRatio(c) => {
                write!(f, "approximation ratio must be an integer >= 2, got {c}")
            }
            C2lshError::BadBucketWidth(w) => {
                write!(f, "bucket width must be positive and finite, got {w}")
            }
            C2lshError::BadDelta(d) => write!(f, "delta must be in (0, 1/2), got {d}"),
            C2lshError::BadBeta(b) => {
                write!(f, "beta must be positive (and < 1 as a fraction), got {b}")
            }
            C2lshError::BadM(m) => write!(f, "explicit m must be >= 1, got {m}"),
        }
    }
}

impl std::error::Error for C2lshError {}

/// Stable, machine-readable error classification. The numeric codes
/// are part of the wire protocol (Error frames carry them as `u16`)
/// and are append-only — never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Invalid build-time configuration (bad `c`, `w`, `δ`, `β`, `m`).
    Config,
    /// A request argument was rejected (dimension mismatch, k out of
    /// range, non-finite coordinates).
    InvalidArgument,
    /// The operation is not supported by this engine (e.g. mutations
    /// against a read-only index).
    Unsupported,
    /// An underlying I/O failure (WAL append, checkpoint, socket).
    Io,
    /// A malformed or protocol-violating frame.
    Protocol,
    /// The service is shutting down and no longer admits work.
    Draining,
    /// Anything that does not fit the categories above — including
    /// codes from a future peer this build does not know.
    Internal,
    /// The serving node cannot satisfy the request's freshness bound
    /// (`min_seq` ahead of the node's applied sequence). Retryable:
    /// pick another replica or wait for replication to catch up.
    Stale,
}

impl ErrorKind {
    /// The stable wire code for this kind.
    pub fn code(self) -> u16 {
        match self {
            ErrorKind::Config => 1,
            ErrorKind::InvalidArgument => 2,
            ErrorKind::Unsupported => 3,
            ErrorKind::Io => 4,
            ErrorKind::Protocol => 5,
            ErrorKind::Draining => 6,
            ErrorKind::Internal => 7,
            ErrorKind::Stale => 8,
        }
    }

    /// Decode a wire code; unknown codes (a newer peer) collapse to
    /// [`ErrorKind::Internal`] rather than failing the frame.
    pub fn from_code(code: u16) -> ErrorKind {
        match code {
            1 => ErrorKind::Config,
            2 => ErrorKind::InvalidArgument,
            3 => ErrorKind::Unsupported,
            4 => ErrorKind::Io,
            5 => ErrorKind::Protocol,
            6 => ErrorKind::Draining,
            8 => ErrorKind::Stale,
            _ => ErrorKind::Internal,
        }
    }

    /// Short lowercase label (used in messages and metrics).
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Config => "config",
            ErrorKind::InvalidArgument => "invalid_argument",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Io => "io",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Draining => "draining",
            ErrorKind::Internal => "internal",
            ErrorKind::Stale => "stale",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The unified error type: a stable [`ErrorKind`] plus a human
/// message. Every error the engine, persistence layer or service can
/// produce converts into this (see the `From` impls here and in
/// `cc-service` for its protocol errors), so callers match on one
/// type and the wire carries one code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    message: String,
}

impl Error {
    /// An error of `kind` with a human-readable message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Error { kind, message: message.into() }
    }

    /// Shorthand for [`ErrorKind::InvalidArgument`].
    pub fn invalid(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::InvalidArgument, message)
    }

    /// The machine-readable classification.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The human-readable message (no kind prefix).
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for Error {}

impl From<C2lshError> for Error {
    fn from(e: C2lshError) -> Self {
        Error::new(ErrorKind::Config, e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(ErrorKind::Io, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = C2lshError::BadApproximationRatio(1);
        assert!(e.to_string().contains("integer >= 2"));
        let e = C2lshError::BadBucketWidth(-1.0);
        assert!(e.to_string().contains("-1"));
    }

    #[test]
    fn kind_codes_round_trip_and_are_stable() {
        let kinds = [
            ErrorKind::Config,
            ErrorKind::InvalidArgument,
            ErrorKind::Unsupported,
            ErrorKind::Io,
            ErrorKind::Protocol,
            ErrorKind::Draining,
            ErrorKind::Internal,
            ErrorKind::Stale,
        ];
        for k in kinds {
            assert_eq!(ErrorKind::from_code(k.code()), k);
        }
        // The wire contract: these exact numbers, forever.
        assert_eq!(ErrorKind::Config.code(), 1);
        assert_eq!(ErrorKind::InvalidArgument.code(), 2);
        assert_eq!(ErrorKind::Unsupported.code(), 3);
        assert_eq!(ErrorKind::Io.code(), 4);
        assert_eq!(ErrorKind::Protocol.code(), 5);
        assert_eq!(ErrorKind::Draining.code(), 6);
        assert_eq!(ErrorKind::Internal.code(), 7);
        assert_eq!(ErrorKind::Stale.code(), 8);
        // Unknown codes degrade gracefully.
        assert_eq!(ErrorKind::from_code(999), ErrorKind::Internal);
    }

    #[test]
    fn conversions_preserve_the_story() {
        let e: Error = C2lshError::BadM(0).into();
        assert_eq!(e.kind(), ErrorKind::Config);
        assert!(e.message().contains("m must be >= 1"));
        let e: Error = std::io::Error::other("disk on fire").into();
        assert_eq!(e.kind(), ErrorKind::Io);
        assert!(e.to_string().starts_with("io: "), "{e}");
    }
}
