//! `SecDedup` (Algorithm 7) and the optimized `SecDupElim` (§10.1) — the S1 side.
//!
//! The same object can appear in several queried lists at the same depth; its worst/best
//! scores would then be counted several times when the per-depth items are merged into
//! the global list.  `SecDedup` lets S2 *obliviously* neutralise the extra copies:
//!
//! 1. S1 computes the pairwise `⊖` equality matrix of the items, blinds every item with
//!    fresh randomness (`Rand`, Algorithm 8), encrypts that randomness under **its own**
//!    key pair `pk'` and ships matrix + blinded items + encrypted randomness to S2 under
//!    a random permutation `π`, as a single [`crate::transport::S1Request::Dedup`]
//!    message.
//! 2. S2 decrypts the matrix (learning only the permuted equality pattern `EP^d`), keeps
//!    the first copy of every duplicate group and *replaces* the others by garbage items
//!    whose worst/best scores unblind to the sentinel `Z = −1`, re-randomizes and
//!    re-blinds every kept item, updates the encrypted randomness accordingly, applies a
//!    second permutation `π'` and returns everything (see
//!    [`crate::engine::S2Engine`]).
//! 3. S1 decrypts the randomness with `sk'`, unblinds, and obtains a list in which every
//!    object survives exactly once — without learning which positions were replaced.
//!
//! `SecDupElim` is identical except that S2 *removes* the duplicates instead of replacing
//! them, which shrinks the list (and thus every later EncSort) at the cost of revealing
//! the per-depth uniqueness pattern `UP^d` to S1 (§10.1).

use num_bigint::BigUint;
use serde::{Deserialize, Serialize};

use crate::error::{ProtocolError, Result};
use sectopk_crypto::paillier::Ciphertext;
#[cfg(test)]
use sectopk_crypto::paillier::PaillierPublicKey;
use sectopk_crypto::prp::RandomPermutation;
use sectopk_ehl::EhlPlus;

use crate::context::TwoClouds;
use crate::items::{rand_blind, ItemBlinding, ScoredItem};
use crate::ledger::LeakageEvent;
use crate::transport::{DedupRequest, S1Request, S2Response};

/// The blinding randomness of one item, encrypted under S1's own key `pk'` so it can
/// round-trip through S2 (the `H_i` values of Algorithm 7).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EncryptedBlinding {
    /// Encryptions of the per-EHL-block masks `α`.
    pub alphas: Vec<Ciphertext>,
    /// Encryption of the worst-score mask `β`.
    pub beta: Ciphertext,
    /// Encryption of the best-score mask `γ`.
    pub gamma: Ciphertext,
}

impl EncryptedBlinding {
    fn encrypt(
        blinding: &ItemBlinding,
        own_pool: &mut sectopk_crypto::RandomnessPool,
    ) -> Result<Self> {
        Ok(EncryptedBlinding {
            alphas: blinding
                .alphas
                .iter()
                .map(|a| own_pool.encrypt(a))
                .collect::<sectopk_crypto::Result<Vec<_>>>()?,
            beta: own_pool.encrypt(&blinding.beta)?,
            gamma: own_pool.encrypt(&blinding.gamma)?,
        })
    }
}

impl TwoClouds {
    /// `SecDedup`: return a list of the same length in which at most one copy of every
    /// object carries real scores; the remaining copies have garbage ids and sentinel
    /// (−1) scores so they can never reach the top-k.
    pub fn sec_dedup(&mut self, items: Vec<ScoredItem>, depth: usize) -> Result<Vec<ScoredItem>> {
        self.dedup_inner(items, depth, false)
    }

    /// `SecDupElim`: like [`Self::sec_dedup`] but duplicates are removed, so the output
    /// may be shorter.  S1 learns the number of distinct objects (`UP^d`).
    pub fn sec_dup_elim(
        &mut self,
        items: Vec<ScoredItem>,
        depth: usize,
    ) -> Result<Vec<ScoredItem>> {
        self.dedup_inner(items, depth, true)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "S1 decrypting under its *own* key sk' (Algorithm 11, step 3): the plaintexts are \
                  S1's own blinding material (alpha/beta/gamma), never S2-protected tuple data"
    )]
    fn dedup_inner(
        &mut self,
        items: Vec<ScoredItem>,
        depth: usize,
        eliminate: bool,
    ) -> Result<Vec<ScoredItem>> {
        let l = items.len();
        if l <= 1 {
            return Ok(items);
        }
        let pk = self.s1.keys.paillier_public.clone();
        let own_sk = self.s1.own_secret.clone();

        // ================= S1: matrix, blinding, permutation =========================
        // Pairwise equality ciphertexts for the upper triangle (i < j), row-major — the
        // order `eq_diffs` draws its masking scalars in.
        let positions: Vec<(usize, usize)> =
            (0..l).flat_map(|i| ((i + 1)..l).map(move |j| (i, j))).collect();
        let pairs: Vec<(&EhlPlus, &EhlPlus)> =
            positions.iter().map(|&(i, j)| (&items[i].ehl, &items[j].ehl)).collect();
        let matrix = self.eq_diffs(&pairs);

        // Blind every item and encrypt the blinding under S1's own key.
        let mut blinded_items = Vec::with_capacity(l);
        let mut encrypted_blindings = Vec::with_capacity(l);
        for item in &items {
            let blinding = ItemBlinding::sample(item.ehl.len(), &pk, &mut self.s1.rng);
            blinded_items.push(rand_blind(item, &blinding, &pk));
            encrypted_blindings.push(EncryptedBlinding::encrypt(&blinding, &mut self.s1.own_pool)?);
        }

        // Permute items, blindings and the matrix consistently with π.
        let pi = RandomPermutation::sample(l, &mut self.s1.rng);
        let permuted_items = pi.permute(&blinded_items);
        let permuted_blindings = pi.permute(&encrypted_blindings);
        let pair_indices: Vec<(usize, usize)> = positions
            .into_iter()
            .map(|(i, j)| {
                let (a, b) = (pi.apply(i), pi.apply(j));
                (a.min(b), a.max(b))
            })
            .collect();

        // ================= transport: one message =====================================
        let request = DedupRequest {
            items: permuted_items,
            blindings: permuted_blindings,
            pair_indices,
            matrix,
            eliminate,
            depth,
        };
        let (returned_items, returned_blindings) = match self.round(S1Request::Dedup(request))? {
            S2Response::Dedup { items, blindings } => (items, blindings),
            other => return Err(crate::primitives::unexpected(&other, "Dedup")),
        };
        if returned_items.len() != returned_blindings.len() {
            return Err(ProtocolError::transport("dedup reply arity mismatch"));
        }

        if eliminate {
            // The shorter list reveals the uniqueness pattern to S1 (§10.1).
            self.s1.ledger.record(LeakageEvent::UniqueCount { depth, count: returned_items.len() });
        }

        // ================= S1: unblind ================================================
        let mut output = Vec::with_capacity(returned_items.len());
        for (item, blinding) in returned_items.iter().zip(returned_blindings.iter()) {
            let alphas: Vec<BigUint> = blinding
                .alphas
                .iter()
                .map(|c| own_sk.decrypt(c))
                .collect::<sectopk_crypto::Result<Vec<_>>>()?;
            let beta = own_sk.decrypt(&blinding.beta)?;
            let gamma = own_sk.decrypt(&blinding.gamma)?;
            let restored =
                crate::items::rand_unblind(item, &ItemBlinding { alphas, beta, gamma }, &pk);
            output.push(restored);
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::BigInt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_ehl::EhlEncoder;

    fn setup() -> (MasterKeys, TwoClouds, EhlEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(404);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let clouds = TwoClouds::new(&master, 44).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        (master, clouds, encoder, rng)
    }

    fn item(
        object: &str,
        worst: i64,
        best: i64,
        encoder: &EhlEncoder,
        pk: &PaillierPublicKey,
        rng: &mut StdRng,
    ) -> ScoredItem {
        ScoredItem {
            ehl: encoder.encode(object.as_bytes(), pk, rng).unwrap(),
            worst: pk.encrypt_i64(worst, rng).unwrap(),
            best: pk.encrypt_i64(best, rng).unwrap(),
        }
    }

    fn decrypt_worsts(items: &[ScoredItem], master: &MasterKeys) -> Vec<i64> {
        items
            .iter()
            .map(|it| {
                i64::try_from(master.paillier_secret.decrypt_signed(&it.worst).unwrap()).unwrap()
            })
            .collect()
    }

    #[test]
    fn dedup_preserves_length_and_neutralises_duplicates() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        // X1 appears twice, X2 once (as in Fig. 3b where X1 and X2 repeat across lists).
        let items = vec![
            item("X1", 16, 22, &encoder, pk, &mut rng),
            item("X2", 13, 21, &encoder, pk, &mut rng),
            item("X1", 16, 22, &encoder, pk, &mut rng),
        ];
        let out = clouds.sec_dedup(items, 2).unwrap();
        assert_eq!(out.len(), 3, "SecDedup keeps the list length");
        // The whole exchange is a single round trip.
        assert_eq!(clouds.channel().rounds, 1);

        let mut worsts = decrypt_worsts(&out, &master);
        worsts.sort_unstable();
        // Exactly one copy of X1 (16) and one of X2 (13) survive; the duplicate is −1.
        assert_eq!(worsts, vec![-1, 13, 16]);
    }

    #[test]
    fn dup_elim_removes_duplicates_and_reports_unique_count() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let items = vec![
            item("A", 5, 9, &encoder, pk, &mut rng),
            item("B", 7, 9, &encoder, pk, &mut rng),
            item("A", 5, 9, &encoder, pk, &mut rng),
            item("A", 5, 9, &encoder, pk, &mut rng),
        ];
        let out = clouds.sec_dup_elim(items, 1).unwrap();
        assert_eq!(out.len(), 2);
        let mut worsts = decrypt_worsts(&out, &master);
        worsts.sort_unstable();
        assert_eq!(worsts, vec![5, 7]);
        // S1 learned the uniqueness pattern and nothing else.
        assert_eq!(clouds.s1_ledger().count_kind("unique_count"), 1);
        assert!(clouds.s1_ledger().only_contains(&["unique_count"]));
        assert!(clouds.s2_ledger().only_contains(&["equality_bit"]));
    }

    #[test]
    fn surviving_items_still_match_their_object() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let sk = &master.paillier_secret;
        let items = vec![
            item("A", 4, 6, &encoder, pk, &mut rng),
            item("A", 4, 6, &encoder, pk, &mut rng),
            item("B", 2, 3, &encoder, pk, &mut rng),
        ];
        let out = clouds.sec_dedup(items, 0).unwrap();
        let fresh_a = encoder.encode(b"A", pk, &mut rng).unwrap();
        let fresh_b = encoder.encode(b"B", pk, &mut rng).unwrap();
        let mut matches_a = 0;
        let mut matches_b = 0;
        for it in &out {
            if sk.is_zero(&it.ehl.eq_test(&fresh_a, pk, &mut rng)).unwrap() {
                matches_a += 1;
                assert_eq!(sk.decrypt_u64(&it.worst).unwrap(), 4);
            }
            if sk.is_zero(&it.ehl.eq_test(&fresh_b, pk, &mut rng)).unwrap() {
                matches_b += 1;
                assert_eq!(sk.decrypt_u64(&it.worst).unwrap(), 2);
            }
        }
        assert_eq!(matches_a, 1, "exactly one surviving copy of A");
        assert_eq!(matches_b, 1);
    }

    #[test]
    fn all_distinct_input_is_left_intact_up_to_rerandomization() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let items = vec![
            item("P", 1, 2, &encoder, pk, &mut rng),
            item("Q", 3, 4, &encoder, pk, &mut rng),
            item("R", 5, 6, &encoder, pk, &mut rng),
        ];
        let out = clouds.sec_dedup(items, 3).unwrap();
        let mut worsts = decrypt_worsts(&out, &master);
        worsts.sort_unstable();
        assert_eq!(worsts, vec![1, 3, 5]);
        let out2 = clouds
            .sec_dup_elim(
                vec![
                    item("P", 1, 2, &encoder, pk, &mut rng),
                    item("Q", 3, 4, &encoder, pk, &mut rng),
                ],
                3,
            )
            .unwrap();
        assert_eq!(out2.len(), 2);
    }

    #[test]
    fn singleton_and_empty_inputs_are_noops() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        assert!(clouds.sec_dedup(Vec::new(), 0).unwrap().is_empty());
        let single = vec![item("only", 9, 9, &encoder, pk, &mut rng)];
        let out = clouds.sec_dedup(single, 0).unwrap();
        assert_eq!(decrypt_worsts(&out, &master), vec![9]);
        assert_eq!(clouds.channel().total_messages(), 0);
    }

    #[test]
    fn sentinel_scores_sort_below_everything() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let items = vec![
            item("D", 100, 120, &encoder, pk, &mut rng),
            item("D", 100, 120, &encoder, pk, &mut rng),
        ];
        let out = clouds.sec_dedup(items, 5).unwrap();
        let worsts: Vec<BigInt> = out
            .iter()
            .map(|it| master.paillier_secret.decrypt_signed(&it.worst).unwrap())
            .collect();
        assert!(worsts.contains(&BigInt::from(-1)));
        assert!(worsts.contains(&BigInt::from(100)));
    }
}
