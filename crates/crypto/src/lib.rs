//! # sectopk-crypto
//!
//! Cryptographic substrate for the reproduction of *"Top-k Query Processing on Encrypted
//! Databases with Strong Security Guarantees"* (Meng, Zhu, Kollios; ICDE 2018).
//!
//! Everything the paper's construction relies on below the data-structure level lives
//! here and is implemented from scratch (on top of `num-bigint` for raw multi-precision
//! arithmetic — see `DESIGN.md` for the dependency policy):
//!
//! * [`sha256`] / [`hmac`] — SHA-256 and HMAC-SHA-256, the PRF instantiation of the EHL.
//! * [`chacha`] — the ChaCha block function and the keyed, addressable generator the
//!   protocol parties and their nonce pools draw from.
//! * [`prime`] — Miller–Rabin prime generation for key generation.
//! * [`paillier`] — the additively homomorphic Paillier cryptosystem (§3.3).
//! * [`damgard_jurik`] — the generalized Paillier (Damgård–Jurik) scheme with one extra
//!   layer (§3.3): encryption with a comb nonce and the textbook `λ` decryption, which no
//!   protocol calls.
//! * [`prf`] / [`prp`] — keyed PRFs and (keyed + ephemeral) pseudo-random permutations.
//! * [`keys`] — the data-owner / S1 / S2 key bundles of Algorithm 2.
//! * [`pool`] — amortizing pools of precomputed encryption nonces (`H^a mod N²`,
//!   `H₃^a mod N³`) that take the exponentiation off the encrypt/re-randomize path.
//!
//! ## Quick example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sectopk_crypto::paillier::generate_keypair;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let (pk, sk) = generate_keypair(256, &mut rng).unwrap();
//! let a = pk.encrypt_u64(20, &mut rng).unwrap();
//! let b = pk.encrypt_u64(22, &mut rng).unwrap();
//! let sum = pk.add(&a, &b);
//! assert_eq!(sk.decrypt_u64(&sum).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod bigint;
pub mod chacha;
pub mod damgard_jurik;
pub mod encoding;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod paillier;
pub mod par;
pub mod pool;
pub mod prf;
pub mod prime;
pub mod prp;
pub mod sha256;

pub use damgard_jurik::{DjPublicKey, DjSecretKey, LayeredCiphertext};
pub use error::{CryptoError, Result};
pub use keys::{MasterKeys, S1Keys, S2Keys, DEFAULT_EHL_KEYS};
pub use paillier::{
    generate_keypair, Ciphertext, PaillierPublicKey, PaillierSecretKey, DEFAULT_MODULUS_BITS,
    MIN_MODULUS_BITS,
};
pub use par::par_map;
pub use pool::{shard_seed, RandomnessPool};
pub use prf::{Prf, PrfKey, PRF_KEY_LEN};
pub use prp::{KeyedPrp, RandomPermutation};
