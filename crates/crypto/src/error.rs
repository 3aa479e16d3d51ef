//! Error type shared by the cryptographic substrate.

use std::fmt;

/// Errors surfaced by the cryptographic layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// The requested key length is too small to be meaningful / secure enough to test.
    KeySizeTooSmall {
        /// Requested modulus bit-length.
        requested: usize,
        /// Minimum supported modulus bit-length.
        minimum: usize,
    },
    /// The requested or received modulus is wider than the arithmetic supports.
    KeySizeTooLarge {
        /// Requested (or received) modulus bit-length.
        requested: usize,
        /// Maximum supported modulus bit-length.
        maximum: usize,
    },
    /// A key bundle was asked for no EHL key: an EHL+ sums at least one PRF image.
    NoEhlKeys,
    /// A ciphertext was presented under the wrong modulus / key.
    CiphertextOutOfRange,
    /// A plaintext does not fit in the scheme's message space.
    PlaintextOutOfRange,
    /// A value that must be invertible modulo N was not (probability ≈ 1/p of happening
    /// with honestly generated keys; indicates corrupted inputs).
    NotInvertible,
    /// Decryption produced an inconsistent intermediate value (wrong key or corrupted
    /// ciphertext).
    DecryptionFailed,
    /// Prime generation exhausted its iteration budget.
    PrimeGenerationFailed,
    /// A serialized key or ciphertext could not be parsed.
    Malformed(String),
    /// The other protocol party reported a failure, or a transport-level exchange
    /// (serialization, channel, thread) broke down.
    Protocol(String),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::KeySizeTooSmall { requested, minimum } => write!(
                f,
                "requested modulus of {requested} bits is below the supported minimum of {minimum} bits"
            ),
            CryptoError::KeySizeTooLarge { requested, maximum } => write!(
                f,
                "modulus of {requested} bits is above the supported maximum of {maximum} bits"
            ),
            CryptoError::NoEhlKeys => write!(f, "at least one EHL key is required, 0 were requested"),
            CryptoError::CiphertextOutOfRange => {
                write!(f, "ciphertext is not an element of the expected group")
            }
            CryptoError::PlaintextOutOfRange => {
                write!(f, "plaintext does not fit in the message space")
            }
            CryptoError::NotInvertible => {
                write!(f, "value is not invertible modulo N (corrupted input or wrong key)")
            }
            CryptoError::DecryptionFailed => write!(f, "decryption failed (wrong key or corrupted ciphertext)"),
            CryptoError::PrimeGenerationFailed => write!(f, "prime generation exhausted its iteration budget"),
            CryptoError::Malformed(what) => write!(f, "malformed serialized value: {what}"),
            CryptoError::Protocol(what) => write!(f, "protocol failure: {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenient result alias for the crypto crate.
pub type Result<T> = std::result::Result<T, CryptoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CryptoError::KeySizeTooSmall { requested: 64, minimum: 128 };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("128"));
        let e = CryptoError::KeySizeTooLarge { requested: 4096, maximum: 2048 };
        assert!(e.to_string().contains("4096") && e.to_string().contains("2048"));
        assert!(CryptoError::DecryptionFailed.to_string().contains("decryption"));
        assert!(CryptoError::Malformed("key".into()).to_string().contains("key"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CryptoError::NotInvertible, CryptoError::NotInvertible);
        assert_ne!(CryptoError::NotInvertible, CryptoError::DecryptionFailed);
    }
}
