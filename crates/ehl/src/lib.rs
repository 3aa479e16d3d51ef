//! # sectopk-ehl
//!
//! The **Encrypted Hash List** data structures from §5 of *"Top-k Query Processing on
//! Encrypted Databases with Strong Security Guarantees"*: the Bloom-filter-style
//! [`EhlBloom`] and the compact [`EhlPlus`] used everywhere else in the system.
//!
//! An encrypted hash list encodes one object so that the cloud can *homomorphically*
//! test whether two encodings hide the same object (the randomized `⊖` operation), while
//! the encodings themselves are semantically-secure ciphertexts and therefore reveal
//! nothing about the objects (Lemma 5.1).
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sectopk_crypto::paillier::generate_keypair;
//! use sectopk_crypto::prf::PrfKey;
//! use sectopk_ehl::EhlEncoder;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let (pk, sk) = generate_keypair(128, &mut rng).unwrap();
//! let keys: Vec<PrfKey> = (0..4u8).map(|i| PrfKey([i; 32])).collect();
//! let encoder = EhlEncoder::new(&keys);
//!
//! let alice_a = encoder.encode(b"alice", &pk, &mut rng).unwrap();
//! let alice_b = encoder.encode(b"alice", &pk, &mut rng).unwrap();
//! let bob = encoder.encode(b"bob", &pk, &mut rng).unwrap();
//!
//! // An EHL+ is one ciphertext: the sum of the object's four PRF images.
//! assert_eq!(sk.decrypt(alice_a.block()).unwrap(), encoder.image_sum(b"alice", pk.n()));
//! // Same object → the ⊖ test decrypts to zero; different objects → non-zero.
//! assert!(sk.is_zero(&alice_a.eq_test(&alice_b, &pk, &mut rng)).unwrap());
//! assert!(!sk.is_zero(&alice_a.eq_test(&bob, &pk, &mut rng)).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod ehl_bloom;
pub mod ehl_plus;
pub mod encoder;
pub mod fpr;

pub use ehl_bloom::{EhlBloom, DEFAULT_BUCKETS};
pub use ehl_plus::EhlPlus;
pub use encoder::EhlEncoder;
