//! Secure top-k join over two encrypted relations (§12 of the paper).
//!
//! * [`encrypt_for_join`] — the `Enc(R1, R2)` procedure of Algorithm 10: every attribute
//!   value of every tuple becomes a `⟨EHL(value), Enc(value)⟩` pair and the attribute
//!   positions are permuted with a per-relation PRP.
//! * [`JoinQuery`] / [`join_token`] — the client-side SQL-like join description
//!   (`SELECT * FROM R1, R2 WHERE R1.A = R2.B ORDER BY R1.C + R2.D STOP AFTER k`) and the
//!   token that maps its attributes through the PRPs (§12.3).
//! * [`top_k_join`] — the `./sec` operator: `SecJoin`, then `SecFilter`, then an
//!   encrypted top-k selection on the joined scores (§12.4).

use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::prf::PrfKey;
use sectopk_crypto::prp::KeyedPrp;
use sectopk_protocols::{EncryptedTuple, JoinSpec, JoinedTuple, TwoClouds};
use sectopk_storage::{encrypt_items, EncryptedItem, QueryError, Relation};

use crate::error::Result;

/// A relation encrypted for joining: one [`EncryptedTuple`] per row, attribute positions
/// permuted by the owner's PRP.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct JoinEncryptedRelation {
    /// The encrypted tuples.
    pub tuples: Vec<EncryptedTuple>,
    /// Number of attributes (after permutation — same count, permuted positions).
    pub num_attributes: usize,
}

impl JoinEncryptedRelation {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.tuples.iter().map(EncryptedTuple::byte_len).sum()
    }
}

/// Derive the per-relation PRP key used to permute attribute positions (`label` is the
/// relation's role, e.g. `"join/left"`).
fn relation_prp_key(keys: &MasterKeys, label: &str) -> PrfKey {
    keys.prp_key.derive(label.as_bytes())
}

/// `Enc(R_i)` for joins (Algorithm 10): encrypt every attribute value as
/// `⟨EHL(value), Enc(value)⟩` and permute the attribute positions.
pub fn encrypt_for_join<R: RngCore + CryptoRng>(
    relation: &Relation,
    keys: &MasterKeys,
    label: &str,
    rng: &mut R,
) -> Result<JoinEncryptedRelation> {
    let m = relation.num_attributes();
    let prp = KeyedPrp::new(&relation_prp_key(keys, label), m);
    // Row-major: every value is an object of its own, EHL-encoded by its bytes.
    let values = relation.rows().iter().flat_map(|row| &row.values);
    let mut items = encrypt_items(values.map(|&v| (v.to_be_bytes(), v)), keys, rng)?.into_iter();
    let tuples = relation
        .rows()
        .iter()
        .map(|_| {
            let mut cells: Vec<Option<EncryptedItem>> = vec![None; m];
            for (attr, cell) in items.by_ref().take(m).enumerate() {
                cells[prp.apply(attr)] = Some(cell);
            }
            EncryptedTuple {
                cells: cells.into_iter().map(|c| c.expect("PRP is a bijection")).collect(),
            }
        })
        .collect();
    Ok(JoinEncryptedRelation { tuples, num_attributes: m })
}

/// A client-side top-k join query:
/// `SELECT * FROM R1, R2 WHERE R1.join_left = R2.join_right ORDER BY R1.score_left + R2.score_right STOP AFTER k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinQuery {
    /// Join attribute of the left relation (logical index).
    pub join_left: usize,
    /// Join attribute of the right relation (logical index).
    pub join_right: usize,
    /// Score attribute of the left relation (logical index).
    pub score_left: usize,
    /// Score attribute of the right relation (logical index).
    pub score_right: usize,
    /// Number of results requested.
    pub k: usize,
}

/// The token shipped to S1 for a top-k join: the PRP images of the four attributes plus
/// which attributes of each side to carry into the output, and `k`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinToken {
    /// The permuted join/score attribute positions.
    pub spec: JoinSpec,
    /// Permuted positions of the left attributes carried into the output.
    pub carry_left: Vec<usize>,
    /// Permuted positions of the right attributes carried into the output.
    pub carry_right: Vec<usize>,
    /// Number of results requested.
    pub k: usize,
}

/// Build the token for a join query (§12.3).  `carry_left` / `carry_right` name the
/// logical attributes whose values the client wants returned (e.g. all of them for
/// `SELECT *`).
pub fn join_token(
    keys: &MasterKeys,
    left_attributes: usize,
    right_attributes: usize,
    query: &JoinQuery,
    carry_left: &[usize],
    carry_right: &[usize],
) -> Result<JoinToken> {
    if query.k == 0 {
        return Err(QueryError::ZeroK.into());
    }
    for (&index, bound) in [
        (&query.join_left, left_attributes),
        (&query.score_left, left_attributes),
        (&query.join_right, right_attributes),
        (&query.score_right, right_attributes),
    ] {
        if index >= bound {
            return Err(QueryError::AttributeOutOfRange { index, num_attributes: bound }.into());
        }
    }
    let left_prp = KeyedPrp::new(&relation_prp_key(keys, "join/left"), left_attributes);
    let right_prp = KeyedPrp::new(&relation_prp_key(keys, "join/right"), right_attributes);
    Ok(JoinToken {
        spec: JoinSpec {
            left_key: left_prp.apply(query.join_left),
            right_key: right_prp.apply(query.join_right),
            left_score: left_prp.apply(query.score_left),
            right_score: right_prp.apply(query.score_right),
        },
        carry_left: carry_left.iter().map(|&a| left_prp.apply(a)).collect(),
        carry_right: carry_right.iter().map(|&a| right_prp.apply(a)).collect(),
        k: query.k,
    })
}

/// Outcome of a secure top-k join.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    /// The (at most) k joined tuples with the highest scores, best first, still encrypted.
    pub top_k: Vec<JoinedTuple>,
    /// Number of tuple pairs that satisfied the join condition.
    pub matching_pairs: usize,
    /// Total pairs considered (|R1| · |R2|).
    pub pairs_considered: usize,
}

/// The `./sec` operator (§12.4): join the two encrypted relations, filter the
/// non-matching combinations, and return the top-k joined tuples by encrypted score.
pub fn top_k_join(
    clouds: &mut TwoClouds,
    left: &JoinEncryptedRelation,
    right: &JoinEncryptedRelation,
    token: &JoinToken,
) -> Result<JoinOutcome> {
    let pairs_considered = left.len() * right.len();
    let joined = clouds.sec_join(
        &left.tuples,
        &right.tuples,
        &token.spec,
        &token.carry_left,
        &token.carry_right,
    )?;
    let filtered = clouds.sec_filter(joined)?;
    let matching_pairs = filtered.len();

    // Encrypted top-k selection on the joined scores: the first k of one EncSort ranking
    // of the survivors (the rounds of its `sort_plan`).
    let scores = filtered.iter().map(|tuple| tuple.score.clone()).collect();
    let order = clouds.enc_rank_desc(scores, "join_top_k")?;
    let top_k = order.into_iter().take(token.k).map(|i| filtered[i].clone()).collect();

    Ok(JoinOutcome { top_k, matching_pairs, pairs_considered })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_storage::{ObjectId, Row};

    fn setup() -> (MasterKeys, TwoClouds, StdRng) {
        let mut rng = StdRng::seed_from_u64(777);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let clouds = TwoClouds::new(&keys, 7).unwrap();
        (keys, clouds, rng)
    }

    fn left_relation() -> Relation {
        // Attributes: (A = join key, C = score)
        Relation::new(
            vec!["A".into(), "C".into()],
            vec![
                Row { id: ObjectId(1), values: vec![1, 10] },
                Row { id: ObjectId(2), values: vec![2, 20] },
                Row { id: ObjectId(3), values: vec![3, 30] },
                Row { id: ObjectId(4), values: vec![2, 15] },
            ],
        )
    }

    fn right_relation() -> Relation {
        // Attributes: (B = join key, D = score)
        Relation::new(
            vec!["B".into(), "D".into()],
            vec![
                Row { id: ObjectId(1), values: vec![2, 5] },
                Row { id: ObjectId(2), values: vec![3, 7] },
                Row { id: ObjectId(3), values: vec![9, 100] },
            ],
        )
    }

    #[test]
    fn encryption_permutes_attributes_consistently() {
        let (keys, _clouds, mut rng) = setup();
        let left = encrypt_for_join(&left_relation(), &keys, "join/left", &mut rng).unwrap();
        assert_eq!(left.len(), 4);
        assert_eq!(left.num_attributes, 2);
        assert!(left.byte_len() > 0);
        // The stored cell at the PRP image of attribute 1 must decrypt to the score value.
        let prp = KeyedPrp::new(&relation_prp_key(&keys, "join/left"), 2);
        let pos = prp.apply(1);
        let v = keys.paillier_secret.decrypt_u64(&left.tuples[0].cells[pos].score).unwrap();
        assert_eq!(v, 10);
    }

    #[test]
    fn join_encryption_ciphertexts_are_pinned() {
        // Every tuple, cell by cell in stored order, EHL block then score, each
        // length-prefixed: the bytes `Enc(R1)` hands the clouds for one fixed seed.
        // Re-recorded when the owner's nonces became `H^a` off the key's comb, not `r^N`,
        // and when each EHL+ came to be stored as its one folded block.
        let mut rng = StdRng::seed_from_u64(1010);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let left = encrypt_for_join(&left_relation(), &keys, "join/left", &mut rng).unwrap();
        let mut hasher = sectopk_crypto::sha256::Sha256::new();
        let cells = left.tuples.iter().flat_map(|tuple| &tuple.cells);
        for c in cells.flat_map(|cell| [cell.ehl.block(), &cell.score]) {
            let bytes = c.to_bytes_be();
            hasher.update(&(bytes.len() as u64).to_le_bytes());
            hasher.update(&bytes);
        }
        let hex: String = hasher.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "fa2d3feb83dc74c5121d11c8f3cf1ca99382908a46cc02db801860aed9f6f160");
    }

    #[test]
    fn token_validates_and_maps_through_the_prp() {
        let (keys, _clouds, _rng) = setup();
        let q = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 2 };
        let token = join_token(&keys, 2, 2, &q, &[0, 1], &[1]).unwrap();
        assert_eq!(token.k, 2);
        assert_eq!(token.carry_left.len(), 2);
        // Out-of-range attributes and k = 0 are rejected.
        assert!(join_token(&keys, 2, 2, &JoinQuery { join_left: 9, ..q }, &[], &[]).is_err());
        assert!(join_token(&keys, 2, 2, &JoinQuery { k: 0, ..q }, &[], &[]).is_err());
    }

    #[test]
    fn top_k_join_returns_highest_scoring_matches() {
        let (keys, mut clouds, mut rng) = setup();
        let left = encrypt_for_join(&left_relation(), &keys, "join/left", &mut rng).unwrap();
        let right = encrypt_for_join(&right_relation(), &keys, "join/right", &mut rng).unwrap();
        let q = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 2 };
        let token = join_token(&keys, 2, 2, &q, &[1], &[1]).unwrap();

        let outcome = top_k_join(&mut clouds, &left, &right, &token).unwrap();
        assert_eq!(outcome.pairs_considered, 12);
        // Matches: A=2 rows (two of them, scores 20 and 15) with B=2 (5) → 25, 20;
        //          A=3 (30) with B=3 (7) → 37.
        assert_eq!(outcome.matching_pairs, 3);
        assert_eq!(outcome.top_k.len(), 2);
        let scores: Vec<u64> = outcome
            .top_k
            .iter()
            .map(|t| keys.paillier_secret.decrypt_u64(&t.score).unwrap())
            .collect();
        assert_eq!(scores, vec![37, 25]);
        // Carried attributes of the best tuple are C=30 and D=7.
        let attrs: Vec<u64> = outcome.top_k[0]
            .attributes
            .iter()
            .map(|a| keys.paillier_secret.decrypt_u64(a).unwrap())
            .collect();
        assert_eq!(attrs, vec![30, 7]);
    }

    #[test]
    fn join_with_no_matches_returns_nothing() {
        let (keys, mut clouds, mut rng) = setup();
        let left_rel = Relation::new(
            vec!["A".into(), "C".into()],
            vec![Row { id: ObjectId(1), values: vec![100, 1] }],
        );
        let left = encrypt_for_join(&left_rel, &keys, "join/left", &mut rng).unwrap();
        let right = encrypt_for_join(&right_relation(), &keys, "join/right", &mut rng).unwrap();
        let q = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 5 };
        let token = join_token(&keys, 2, 2, &q, &[], &[]).unwrap();
        let outcome = top_k_join(&mut clouds, &left, &right, &token).unwrap();
        assert_eq!(outcome.matching_pairs, 0);
        assert!(outcome.top_k.is_empty());
    }
}
