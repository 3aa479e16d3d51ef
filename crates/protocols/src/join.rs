//! `SecJoin` and `SecFilter` (Algorithms 11 and 12): the oblivious equi-join operator
//! `./sec` used for top-k join queries over multiple encrypted relations (§12).
//!
//! For the join the data owner encrypts every *attribute value* (not just the object id)
//! as a pair `⟨EHL(x), Enc(x)⟩`, so the clouds can homomorphically test the equi-join
//! condition `R1.t1 = R2.t2` the same way the top-k protocols test object equality.
//!
//! * `SecJoin` combines every pair of tuples (in random order) and ships the join-key
//!   equality tests with the pairs' masked scores and carried attributes in one
//!   equality-matrix exchange: S2 gates each value by the pair's join indicator and
//!   returns it freshly encrypted — non-matching combinations become all-zero tuples.
//! * `SecFilter` removes those all-zero tuples without revealing to S1 which combinations
//!   matched: S1 blinds the tuples (multiplicatively for the score, additively for the
//!   attributes) and ships them as one [`crate::transport::S1Request::Filter`] message;
//!   S2 discards the zero scores, re-blinds, permutes and returns the rest; S1 finally
//!   removes the blinding.  Both parties learn only the number of surviving tuples (the
//!   `JoinMatchCount` leakage recorded in the ledgers).

use num_bigint::BigUint;
use serde::{Deserialize, Serialize};

use crate::error::Result;
use sectopk_crypto::bigint::{mod_inverse, random_below, random_invertible};
use sectopk_crypto::paillier::Ciphertext;
use sectopk_crypto::par::par_map;
use sectopk_crypto::prp::RandomPermutation;
use sectopk_ehl::EhlPlus;
use sectopk_storage::EncryptedItem;

use crate::context::TwoClouds;
use crate::ledger::LeakageEvent;
use crate::primitives::EqPlan;
use crate::transport::{FilterTuple, Per, S1Request, S2Response};

/// One tuple of a relation encrypted for joining: every attribute is a
/// `⟨EHL(value), Enc(value)⟩` pair (Algorithm 10).
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct EncryptedTuple {
    /// The encrypted attribute cells, in (permuted) attribute order.
    pub cells: Vec<EncryptedItem>,
}

impl EncryptedTuple {
    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.cells.iter().map(EncryptedItem::byte_len).sum()
    }
}

/// One combined output tuple of `SecJoin`: the encrypted ranking score plus the carried
/// (encrypted) attributes; all values are zero when the pair did not satisfy the join
/// condition.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct JoinedTuple {
    /// Encrypted ranking score `Enc(b · (x_{t3} + x_{t4}))`.
    pub score: Ciphertext,
    /// Encrypted carried attributes `Enc(b · x_l)`.
    pub attributes: Vec<Ciphertext>,
}

impl JoinedTuple {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.score.byte_len() + self.attributes.iter().map(Ciphertext::byte_len).sum::<usize>()
    }
}

/// Description of a binary top-k join: the equi-join condition and the two score
/// attributes (`ORDER BY R1.t3 + R2.t4`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinSpec {
    /// Attribute index of the join key in the first relation (`t1`).
    pub left_key: usize,
    /// Attribute index of the join key in the second relation (`t2`).
    pub right_key: usize,
    /// Attribute index of the first score term (`t3`, in the first relation).
    pub left_score: usize,
    /// Attribute index of the second score term (`t4`, in the second relation).
    pub right_score: usize,
}

impl TwoClouds {
    /// `SecJoin` (Algorithm 11): combine every pair of tuples from the two encrypted
    /// relations in random order, producing one [`JoinedTuple`] per pair whose score and
    /// carried attributes are non-zero only if the pair satisfies the join condition.
    ///
    /// `carry_left` / `carry_right` list the attribute indices whose encrypted values are
    /// carried into the output tuples.
    pub fn sec_join(
        &mut self,
        left: &[EncryptedTuple],
        right: &[EncryptedTuple],
        spec: &JoinSpec,
        carry_left: &[usize],
        carry_right: &[usize],
    ) -> Result<Vec<JoinedTuple>> {
        let pk = self.s1.keys.paillier_public.clone();
        if left.is_empty() || right.is_empty() {
            return Ok(Vec::new());
        }

        // Randomize the order in which pairs are processed (Algorithm 11 line 3).
        let mut pair_indices: Vec<(usize, usize)> = Vec::with_capacity(left.len() * right.len());
        for i in 0..left.len() {
            for j in 0..right.len() {
                pair_indices.push((i, j));
            }
        }
        let perm = RandomPermutation::sample(pair_indices.len(), &mut self.s1.rng);
        let pair_indices = perm.permute(&pair_indices);

        // ---- Equality of the join keys for every pair (one matrix exchange). ------------
        let pairs: Vec<(&EhlPlus, &EhlPlus)> = pair_indices
            .iter()
            .map(|&(i, j)| (&left[i].cells[spec.left_key].ehl, &right[j].cells[spec.right_key].ehl))
            .collect();
        let diffs = self.eq_diffs(&pairs);
        let mut plan = EqPlan::new(diffs, pairs.len(), "sec_join", None);

        // ---- Score and carried attributes, gated by the join indicator inside the same
        //      round: one sum job per pair and value, several values per bit. ------------
        // score_ij = b_ij · (x_{t3}(i) + x_{t4}(j))
        let per_pair = |value: &dyn Fn(usize, usize) -> Ciphertext| -> Vec<Ciphertext> {
            pair_indices.iter().map(|&(i, j)| value(i, j)).collect()
        };
        let mut sets = vec![per_pair(&|i, j| {
            pk.add(&left[i].cells[spec.left_score].score, &right[j].cells[spec.right_score].score)
        })];
        sets.extend(carry_left.iter().map(|&a| per_pair(&|i, _| left[i].cells[a].score.clone())));
        sets.extend(carry_right.iter().map(|&a| per_pair(&|_, j| right[j].cells[a].score.clone())));
        for values in sets {
            let set = plan.candidates(Per::Cell, values);
            plan.select(Per::Cell, set, None);
        }
        let outcome = self.run_eq_plans(vec![plan])?.pop();
        let mut gated = outcome.map(|o| o.selected).unwrap_or_default().into_iter();
        let scores = gated.next().unwrap_or_default();
        let attributes: Vec<Vec<Ciphertext>> = gated.collect();

        let joined = scores
            .into_iter()
            .enumerate()
            .map(|(pair, score)| JoinedTuple {
                score,
                attributes: attributes.iter().map(|values| values[pair].clone()).collect(),
            })
            .collect();
        Ok(joined)
    }

    /// `SecFilter` (Algorithm 12): discard the all-zero tuples produced by `SecJoin`
    /// without revealing to S1 which pairs matched.  Both parties learn only the number
    /// of surviving tuples.
    #[expect(
        clippy::disallowed_methods,
        reason = "S1 decrypting under its *own* key sk' (Algorithm 12): the plaintexts are S1's \
                  own score/attribute unblinders, never S2-protected tuple data"
    )]
    pub fn sec_filter(&mut self, tuples: Vec<JoinedTuple>) -> Result<Vec<JoinedTuple>> {
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        let pk = self.s1.keys.paillier_public.clone();
        let own_sk = self.s1.own_secret.clone();

        // ---- S1: blind (score multiplicatively, attributes additively) and permute. ----
        let mut blinded: Vec<FilterTuple> = Vec::with_capacity(tuples.len());
        for t in &tuples {
            let r = random_invertible(&mut self.s1.rng, pk.n());
            let r_inv_value = mod_inverse(&r, pk.n())?;
            let score = pk.mul_plain(&t.score, &r);
            let mut attribute_masks = Vec::with_capacity(t.attributes.len());
            let mut attributes = Vec::with_capacity(t.attributes.len());
            for a in &t.attributes {
                let mask = random_below(&mut self.s1.rng, pk.n());
                attributes.push(pk.add_plain(a, &mask));
                attribute_masks.push(self.s1.own_pool.encrypt(&mask)?);
            }
            blinded.push(FilterTuple {
                score,
                attributes,
                score_unblinder: self.s1.own_pool.encrypt(&r_inv_value)?,
                attribute_masks,
            });
        }
        let pi = RandomPermutation::sample(blinded.len(), &mut self.s1.rng);
        let shipped = pi.permute(&blinded);

        // ---- transport: S2 drops zero-score tuples, re-blinds and re-permutes. ---------
        let survivors = match self.round(S1Request::Filter { tuples: shipped })? {
            S2Response::Filter { survivors } => survivors,
            other => return Err(crate::primitives::unexpected(&other, "Filter")),
        };
        self.s1.ledger.record(LeakageEvent::JoinMatchCount(survivors.len()));

        // ---- S1: remove the blinding (draws nothing, so on the worker pool). --------------
        let unblinded = par_map(self.intra_workers(), survivors, move |s| -> Result<_> {
            let r_tilde: BigUint = own_sk.decrypt(&s.score_unblinder)?;
            let score = pk.mul_plain(&s.score, &r_tilde);
            let mut attributes = Vec::with_capacity(s.attributes.len());
            for (a, mask_cipher) in s.attributes.iter().zip(s.attribute_masks.iter()) {
                let mask = own_sk.decrypt(mask_cipher)?;
                let neg = (pk.n() - (&mask % pk.n())) % pk.n();
                attributes.push(pk.add_plain(a, &neg));
            }
            Ok(JoinedTuple { score, attributes })
        });
        unblinded.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_ehl::EhlEncoder;
    use std::collections::BTreeSet;

    fn setup() -> (MasterKeys, TwoClouds, EhlEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(9001);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let clouds = TwoClouds::new(&master, 90).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        (master, clouds, encoder, rng)
    }

    /// Encrypt a plaintext tuple of attribute values for joining.
    fn tuple(
        values: &[u64],
        encoder: &EhlEncoder,
        pk: &sectopk_crypto::PaillierPublicKey,
        rng: &mut StdRng,
    ) -> EncryptedTuple {
        EncryptedTuple {
            cells: values
                .iter()
                .map(|&v| EncryptedItem {
                    ehl: encoder.encode(&v.to_be_bytes(), pk, rng).unwrap(),
                    score: pk.encrypt_u64(v, rng).unwrap(),
                })
                .collect(),
        }
    }

    #[test]
    fn join_then_filter_returns_exactly_the_matching_pairs() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let sk = &master.paillier_secret;

        // R1(A, C): join on A; score contribution C.
        let left = vec![
            tuple(&[1, 10], &encoder, pk, &mut rng),
            tuple(&[2, 20], &encoder, pk, &mut rng),
            tuple(&[3, 30], &encoder, pk, &mut rng),
        ];
        // R2(B, D): join on B; score contribution D.
        let right = vec![
            tuple(&[2, 5], &encoder, pk, &mut rng),
            tuple(&[3, 7], &encoder, pk, &mut rng),
            tuple(&[9, 1], &encoder, pk, &mut rng),
        ];
        let spec = JoinSpec { left_key: 0, right_key: 0, left_score: 1, right_score: 1 };

        let joined = clouds.sec_join(&left, &right, &spec, &[0, 1], &[1]).unwrap();
        assert_eq!(joined.len(), 9, "SecJoin outputs one tuple per pair");

        let filtered = clouds.sec_filter(joined).unwrap();
        assert_eq!(filtered.len(), 2, "only A=2 and A=3 match");

        // Scores: 20+5 = 25 for the A=2 pair, 30+7 = 37 for the A=3 pair.
        let scores: BTreeSet<u64> =
            filtered.iter().map(|t| sk.decrypt_u64(&t.score).unwrap()).collect();
        assert_eq!(scores, BTreeSet::from([25, 37]));

        // Carried attributes unblind to the original values (left key, left score, right score).
        for t in &filtered {
            let attrs: Vec<u64> = t.attributes.iter().map(|a| sk.decrypt_u64(a).unwrap()).collect();
            assert!(
                attrs == vec![2, 20, 5] || attrs == vec![3, 30, 7],
                "unexpected carried attributes {attrs:?}"
            );
        }
    }

    #[test]
    fn no_matches_yields_empty_result() {
        let (_master, mut clouds, encoder, mut rng) = setup();
        let pk = clouds.pk().clone();
        let left = vec![tuple(&[1, 10], &encoder, &pk, &mut rng)];
        let right = vec![tuple(&[2, 20], &encoder, &pk, &mut rng)];
        let spec = JoinSpec { left_key: 0, right_key: 0, left_score: 1, right_score: 1 };
        let joined = clouds.sec_join(&left, &right, &spec, &[], &[]).unwrap();
        let filtered = clouds.sec_filter(joined).unwrap();
        assert!(filtered.is_empty());
    }

    #[test]
    fn leakage_is_equality_bits_and_match_count_only() {
        let (_master, mut clouds, encoder, mut rng) = setup();
        let pk = clouds.pk().clone();
        let left =
            vec![tuple(&[4, 1], &encoder, &pk, &mut rng), tuple(&[5, 2], &encoder, &pk, &mut rng)];
        let right = vec![tuple(&[5, 3], &encoder, &pk, &mut rng)];
        let spec = JoinSpec { left_key: 0, right_key: 0, left_score: 1, right_score: 1 };
        let joined = clouds.sec_join(&left, &right, &spec, &[0], &[0]).unwrap();
        let _ = clouds.sec_filter(joined).unwrap();
        let s2_kinds = ["equality_bit", "masked_values", "join_match_count"];
        assert!(clouds.s2_ledger().only_contains(&s2_kinds));
        assert!(clouds.s1_ledger().only_contains(&["join_match_count"]));
    }

    #[test]
    fn join_and_filter_cost_two_rounds_when_batched() {
        let (_master, mut clouds, encoder, mut rng) = setup();
        let pk = clouds.pk().clone();
        let left =
            vec![tuple(&[4, 1], &encoder, &pk, &mut rng), tuple(&[5, 2], &encoder, &pk, &mut rng)];
        let right = vec![tuple(&[5, 3], &encoder, &pk, &mut rng)];
        let spec = JoinSpec { left_key: 0, right_key: 0, left_score: 1, right_score: 1 };
        let joined = clouds.sec_join(&left, &right, &spec, &[0], &[0]).unwrap();
        let _ = clouds.sec_filter(joined).unwrap();
        // The equality round, which also gates every value, + the filter exchange.
        assert_eq!(clouds.channel().rounds, 2);
    }

    #[test]
    fn empty_inputs_are_noops() {
        let (_master, mut clouds, _encoder, _rng) = setup();
        let spec = JoinSpec { left_key: 0, right_key: 0, left_score: 0, right_score: 0 };
        assert!(clouds.sec_join(&[], &[], &spec, &[], &[]).unwrap().is_empty());
        assert!(clouds.sec_filter(Vec::new()).unwrap().is_empty());
    }
}
