//! The protocol layer's error model.
//!
//! Everything that can go wrong between the two clouds falls into one of three classes,
//! and [`ProtocolError`] keeps them apart so callers can react differently to each:
//!
//! * [`ProtocolError::Crypto`] — a *local* cryptographic operation failed on the S1 side
//!   (corrupted ciphertext, value out of range, …).
//! * [`ProtocolError::Remote`] — S2 answered with a typed
//!   [`WireError`] frame instead of a response.  The frame
//!   crosses the transport as a first-class message, so a malformed request never
//!   kills the session — the engine keeps serving and the caller gets a
//!   structured failure.
//! * [`ProtocolError::Transport`] — the channel itself broke down (thread gone, frame
//!   undecodable, envelope echo mismatch) or was misused (duplicate session id).  The
//!   payload is a structured [`TransportError`] whose [`TransportErrorKind`] separates
//!   *transient* breakdowns (a dead socket, a timeout, a full server — retry) from
//!   *permanent* ones (a protocol violation, a handshake rejection — fix the caller),
//!   so retry policies never have to match on message strings.
//!
//! `From<CryptoError>` lets every sub-protocol keep using `?` on the crypto substrate,
//! and `sectopk-core` folds the whole enum into its `SecTopKError` the same way
//! (surfacing retryability as `SecTopKError::is_transient`).

use std::fmt;

use sectopk_crypto::CryptoError;

use crate::wire::WireError;

/// Failure class of a [`TransportError`]: *why* the channel broke, and in particular
/// whether a retry (reconnect + resend of the unacknowledged envelope) can succeed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// The connection died mid-exchange (socket reset, EOF, channel hung up).
    /// Transient: a reconnect-and-resume retry is worthwhile.
    Io,
    /// A read or write hit its configured timeout.  Transient.
    Timeout,
    /// The serving side refused the connection under load (session table full,
    /// draining).  Transient: back off and retry.
    Overloaded,
    /// The peer rejected the session outright (handshake refused, duplicate session
    /// id, version mismatch, resume token denied).  Permanent: retrying the same
    /// request cannot succeed.
    Rejected,
    /// The channel misbehaved in a way that indicates a bug or corruption (envelope
    /// echo mismatch, undecodable frame, oversized frame).  Permanent.
    Fault,
    /// A retry policy gave up: every attempt failed and the budget (attempts or
    /// deadline) is exhausted.  Permanent — the last underlying failure is in the
    /// message.
    Exhausted,
}

impl TransportErrorKind {
    /// Stable lowercase name, used in `Display` and log output.
    pub fn name(self) -> &'static str {
        match self {
            TransportErrorKind::Io => "io",
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::Overloaded => "overloaded",
            TransportErrorKind::Rejected => "rejected",
            TransportErrorKind::Fault => "fault",
            TransportErrorKind::Exhausted => "exhausted",
        }
    }

    /// True when a failure of this kind is transient — reconnecting and resending
    /// the unacknowledged envelope can succeed.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            TransportErrorKind::Io | TransportErrorKind::Timeout | TransportErrorKind::Overloaded
        )
    }
}

/// A structured transport breakdown: a [`TransportErrorKind`] plus human-readable
/// context.  Retry policies branch on the kind; logs and test assertions read the
/// message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// Machine-readable failure class (drives [`ProtocolError::is_retryable`]).
    pub kind: TransportErrorKind,
    /// Human-readable context for logs and test failure messages.
    pub message: String,
}

impl TransportError {
    /// Build a transport error from a kind and a message.
    pub fn new(kind: TransportErrorKind, message: impl Into<String>) -> Self {
        TransportError { kind, message: message.into() }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.name(), self.message)
    }
}

impl std::error::Error for TransportError {}

/// An error raised by the two-cloud protocol layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A local cryptographic operation failed on the caller's (S1's) side.
    Crypto(CryptoError),
    /// The crypto cloud S2 reported a typed failure over the wire.
    Remote(WireError),
    /// The transport broke down or was misused (channel closed, undecodable frame,
    /// envelope mismatch, duplicate session id).
    Transport(TransportError),
}

impl ProtocolError {
    /// Build a permanent ([`TransportErrorKind::Fault`]) transport-layer error from
    /// anything displayable.  Misuse and corruption sites use this; transient
    /// breakdowns use the kind-specific constructors so retry policies can see them.
    pub fn transport(what: impl Into<String>) -> Self {
        ProtocolError::Transport(TransportError::new(TransportErrorKind::Fault, what))
    }

    /// A transient connection breakdown ([`TransportErrorKind::Io`]).
    pub fn transport_io(what: impl Into<String>) -> Self {
        ProtocolError::Transport(TransportError::new(TransportErrorKind::Io, what))
    }

    /// A read/write timeout ([`TransportErrorKind::Timeout`]).
    pub fn transport_timeout(what: impl Into<String>) -> Self {
        ProtocolError::Transport(TransportError::new(TransportErrorKind::Timeout, what))
    }

    /// The serving side refused the connection under load
    /// ([`TransportErrorKind::Overloaded`]).
    pub fn transport_overloaded(what: impl Into<String>) -> Self {
        ProtocolError::Transport(TransportError::new(TransportErrorKind::Overloaded, what))
    }

    /// The peer refused the session or resume attempt
    /// ([`TransportErrorKind::Rejected`]).
    pub fn transport_rejected(what: impl Into<String>) -> Self {
        ProtocolError::Transport(TransportError::new(TransportErrorKind::Rejected, what))
    }

    /// A retry policy ran out of budget ([`TransportErrorKind::Exhausted`]).
    pub fn transport_exhausted(what: impl Into<String>) -> Self {
        ProtocolError::Transport(TransportError::new(TransportErrorKind::Exhausted, what))
    }

    /// Classify a raw I/O failure: timeouts become [`TransportErrorKind::Timeout`],
    /// everything else (resets, EOF, refused connections) becomes
    /// [`TransportErrorKind::Io`] — both transient.
    pub fn from_io(context: &str, e: std::io::Error) -> Self {
        let kind = match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportErrorKind::Timeout
            }
            _ => TransportErrorKind::Io,
        };
        ProtocolError::Transport(TransportError::new(kind, format!("{context}: {e}")))
    }

    /// True when the failure was reported by the remote party (S2), i.e. the local
    /// session and transport are still healthy and can keep issuing requests.
    pub fn is_remote(&self) -> bool {
        matches!(self, ProtocolError::Remote(_))
    }

    /// True when the failure is transient: retrying the same request — after a
    /// reconnect-and-resume for transport breakdowns, or a backoff for shed
    /// requests — can succeed.  Crypto failures, protocol violations, handshake
    /// rejections and exhausted retry budgets are permanent.
    pub fn is_retryable(&self) -> bool {
        match self {
            ProtocolError::Crypto(_) => false,
            ProtocolError::Remote(e) => e.is_retryable(),
            ProtocolError::Transport(e) => e.kind.is_retryable(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Crypto(e) => write!(f, "crypto failure: {e}"),
            ProtocolError::Remote(e) => write!(f, "S2 reported: {e}"),
            ProtocolError::Transport(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Crypto(e) => Some(e),
            ProtocolError::Remote(e) => Some(e),
            ProtocolError::Transport(e) => Some(e),
        }
    }
}

impl From<CryptoError> for ProtocolError {
    fn from(e: CryptoError) -> Self {
        ProtocolError::Crypto(e)
    }
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Remote(e)
    }
}

/// Result alias for the protocol layer.
pub type Result<T> = std::result::Result<T, ProtocolError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireError, WireErrorCode};

    #[test]
    fn display_distinguishes_the_classes() {
        let c = ProtocolError::from(CryptoError::NotInvertible);
        assert!(c.to_string().contains("crypto failure"));
        let r = ProtocolError::from(WireError::malformed("bad arity"));
        assert!(r.to_string().contains("S2 reported"));
        assert!(r.to_string().contains("bad arity"));
        assert!(r.is_remote());
        let t = ProtocolError::transport("channel closed");
        assert!(t.to_string().contains("transport failure"));
        assert!(t.to_string().contains("channel closed"));
        assert!(!t.is_remote());
    }

    #[test]
    fn sources_are_preserved() {
        use std::error::Error;
        let r = ProtocolError::Remote(WireError::new(WireErrorCode::Codec, "x"));
        assert!(r.source().is_some());
        assert!(ProtocolError::transport("y").source().is_some());
    }

    #[test]
    fn retryability_follows_the_kind_not_the_message() {
        // Transient transport breakdowns.
        assert!(ProtocolError::transport_io("socket reset").is_retryable());
        assert!(ProtocolError::transport_timeout("read timed out").is_retryable());
        assert!(ProtocolError::transport_overloaded("server full").is_retryable());
        // Permanent transport failures.
        assert!(!ProtocolError::transport("echo mismatch").is_retryable());
        assert!(!ProtocolError::transport_rejected("bad resume token").is_retryable());
        assert!(!ProtocolError::transport_exhausted("gave up after 5").is_retryable());
        // Remote errors: only a shed request is retryable.
        assert!(ProtocolError::Remote(WireError::overloaded("inbox full")).is_retryable());
        assert!(!ProtocolError::Remote(WireError::malformed("bad arity")).is_retryable());
        // Local crypto failures never are.
        assert!(!ProtocolError::from(CryptoError::NotInvertible).is_retryable());
    }

    #[test]
    fn io_errors_classify_into_timeout_vs_io() {
        let timeout = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow");
        match ProtocolError::from_io("read", timeout) {
            ProtocolError::Transport(e) => assert_eq!(e.kind, TransportErrorKind::Timeout),
            other => panic!("expected transport error, got {other:?}"),
        }
        let reset = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "gone");
        match ProtocolError::from_io("write", reset) {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Io);
                assert!(e.message.contains("write"));
            }
            other => panic!("expected transport error, got {other:?}"),
        }
    }
}
