//! # sectopk-core
//!
//! The primary contribution of *"Top-k Query Processing on Encrypted Databases with
//! Strong Security Guarantees"* (Meng, Zhu, Kollios; ICDE 2018): **SecTopK**, an
//! adaptively CQA-secure scheme for answering top-k ranking queries over an outsourced,
//! probabilistically encrypted relation using two non-colluding semi-honest clouds.
//!
//! The crate exposes the scheme through one front door — a fluent [`QueryBuilder`] and
//! the [`Session`] trait — and stitches the lower layers together behind it:
//!
//! | Paper component | Module |
//! |---|---|
//! | `SecTopK = (Enc, Token, SecQuery)` facade (Definition 4.1) | [`scheme`] |
//! | Fluent, validated query construction | [`builder`] |
//! | Adaptive variant selection (the §11 cost model as code) | [`planner`] |
//! | One execution abstraction over direct and served deployments | [`session`] |
//! | Unified error model across crypto / storage / protocol layers | [`error`] |
//! | Plaintext NRA baseline (Algorithm 1) | [`nra`] |
//! | Secure query processing `Qry_F` / `Qry_E` / `Qry_Ba` (Algorithm 3, §10) | [`query`] |
//! | Result interpretation by the key holder | [`results`] |
//! | Leakage profiles of Theorem 9.2 as executable checks | [`leakage`] |
//! | Secure top-k join `./sec` (§12) | [`join`] |
//!
//! ## End-to-end example
//!
//! The data owner encrypts and outsources a relation, a client describes a query with
//! the builder (the planner picks the processing variant), and a [`Session`] executes
//! it against the two clouds:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sectopk_core::{DataOwner, Query, Session};
//! use sectopk_storage::{ObjectId, Relation, Row};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Data owner: generate keys and outsource an encrypted relation.
//! let owner = DataOwner::new(128, 3, &mut rng).unwrap();
//! let relation = Relation::new(
//!     vec!["price".into(), "rating".into()],
//!     vec![
//!         Row { id: ObjectId(1), values: vec![10, 3] },
//!         Row { id: ObjectId(2), values: vec![8, 8] },
//!         Row { id: ObjectId(3), values: vec![5, 7] },
//!     ],
//! );
//! let (outsourced, _stats) = owner.outsource(&relation, &mut rng).unwrap();
//!
//! // Client: top-1 by price + rating; `variant(Auto)` (the default) lets the planner
//! // choose Qry_F / Qry_E / Qry_Ba from the relation size and link profile.
//! let query = Query::top_k(1).attributes(["price", "rating"]).resolve(&relation).unwrap();
//!
//! // One front door: a session executes the query end to end (token → plan →
//! // SecQuery → resolution) and reports what the planner decided.
//! let mut session = owner.connect(&outsourced, 42).unwrap();
//! let answer = session.execute(&query).unwrap();
//! assert_eq!(answer.object_ids(), vec![ObjectId(2)]); // 8 + 8 = 16 is the highest score
//! assert!(answer.plan().unwrap().auto);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

#[deny(missing_docs)]
pub mod builder;
#[deny(missing_docs)]
pub mod error;
pub mod join;
pub mod leakage;
pub mod nra;
#[deny(missing_docs)]
pub mod planner;
pub mod query;
pub mod results;
pub mod scheme;
#[deny(missing_docs)]
pub mod session;

pub use builder::{Query, QueryBuilder, VariantChoice};
pub use error::{Result, SecTopKError};
pub use join::{
    encrypt_for_join, join_token, top_k_join, JoinEncryptedRelation, JoinOutcome, JoinQuery,
    JoinToken,
};
pub use leakage::{check_leakage, check_ledgers, profile_for, LeakageProfile, LeakageViolation};
pub use nra::{nra_top_k, NraOutcome};
pub use planner::{plan, PlanDecision, PlannerInputs, VariantCosts};
pub use query::{sec_query, QueryConfig, QueryOutcome, QueryStats, QueryVariant};
pub use results::{resolve_results, resolved_object_ids, ResolvedResult};
pub use scheme::{AuthorizedClient, DataOwner};
pub use session::{
    execute_with_clouds, plan_for, resolution_rng, DirectSession, Outsourced, RemoteSession,
    ResolvedTopK, Session,
};

// Re-exported so facade users can describe link profiles, transports and remote
// connection policy without depending on the protocols crate directly.
pub use sectopk_protocols::{FaultPlan, LinkProfile, TcpOptions, TransportKind};
