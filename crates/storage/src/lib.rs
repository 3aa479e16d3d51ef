//! # sectopk-storage
//!
//! The database layer of the SecTopK reproduction: the plaintext [`Relation`] model and
//! its sorted-list view, the encrypted relation `ER` produced by Algorithm 2, and query
//! token generation (§3.1, §6, §7 of the paper).
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sectopk_crypto::MasterKeys;
//! use sectopk_storage::{encrypt_relation, generate_token, ObjectId, Relation, Row, TopKQuery};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let keys = MasterKeys::generate(128, 3, &mut rng).unwrap();
//! let relation = Relation::from_rows(vec![
//!     Row { id: ObjectId(1), values: vec![10, 3] },
//!     Row { id: ObjectId(2), values: vec![8, 8] },
//! ]);
//!
//! // Data owner: encrypt and outsource.
//! let (er, stats) = encrypt_relation(&relation, &keys, &mut rng).unwrap();
//! assert_eq!(er.setup_leakage(), (2, 2));
//! assert!(stats.encrypted_bytes > 0);
//!
//! // Client: build a token for "top-1 by attr0 + attr1".
//! let token = generate_token(&keys.prp_key, 2, &TopKQuery::sum(vec![0, 1], 1)).unwrap();
//! assert_eq!(token.k, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod encrypt;
pub mod encrypted;
pub mod relation;
pub mod token;

pub use encrypt::{encrypt_items, encrypt_relation, EncryptionStats};
pub use encrypted::{EncryptedItem, EncryptedList, EncryptedRelation};
pub use relation::{DataItem, ObjectId, Relation, Row, Score, SortedLists};
pub use token::{generate_token, QueryError, QueryToken, TopKQuery};
