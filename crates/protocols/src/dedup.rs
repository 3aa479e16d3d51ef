//! `SecDedup` (Algorithm 7) and the optimized `SecDupElim` (§10.1) — the S1 side.
//!
//! The same object can appear in several queried lists at the same depth; its worst/best
//! scores would then be counted several times when the per-depth items are merged into
//! the global list.  `SecDedup` lets S2 *obliviously* neutralise the extra copies:
//!
//! 1. S1 computes the pairwise `⊖` equality matrix of the items, blinds every item with
//!    fresh randomness (`Rand`, Algorithm 8), encrypts that randomness under **its own**
//!    key pair `pk'` — two masks per ciphertext, see [`EncryptedBlinding`] — and ships
//!    matrix + blinded items + encrypted randomness to S2 under a random permutation
//!    `π`, as a single [`crate::transport::S1Request::Dedup`] message.
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
use sectopk_crypto::paillier::{Ciphertext, PaillierPublicKey};
use sectopk_crypto::par::par_map;
use sectopk_crypto::pool::RandomnessPool;
use sectopk_crypto::prp::RandomPermutation;
use sectopk_ehl::EhlPlus;

use crate::context::TwoClouds;
use crate::items::{rand_blind, rand_unblind, ItemBlinding, ScoredItem};
use crate::ledger::LeakageEvent;
use crate::transport::{DedupRequest, S1Request, S2Response};

/// The three blinding masks `α, β, γ` of one item, encrypted under S1's own key `pk'`
/// so they can round-trip through S2 (the `H_i` values of Algorithm 7), in two
/// ciphertexts.
///
/// The first plaintext packs the pair `(α, β)` as `α + 2^w·β` with `w = ⌊|N'|/2⌋`; the
/// second carries `γ` alone.  A slot only ever holds the sum of S1's mask and S2's, two
/// values below `N`, so it stays below `2N ≤ 2^w` (`|N'|` is [`own_modulus_bits`] of
/// `|N|`): the low slot never carries into the high one and S1 decrypts exactly the two
/// integer sums it would decrypt from two ciphertexts.
///
/// [`own_modulus_bits`]: sectopk_crypto::keys::own_modulus_bits
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EncryptedBlinding {
    /// `Enc'(α + 2^w·β)` and `Enc'(γ)`, in that order.
    pub packed: Vec<Ciphertext>,
}

impl EncryptedBlinding {
    /// `masks` encrypted two per ciphertext under the key of `own_pool` (S1's `pk'`):
    /// one nonce per ciphertext.
    pub(crate) fn encrypt(
        masks: &ItemBlinding,
        own_pool: &mut RandomnessPool,
    ) -> sectopk_crypto::Result<Self> {
        let plains = masks.packed(own_pool.public_key());
        let packed = plains.iter().map(|m| own_pool.encrypt(m));
        Ok(EncryptedBlinding { packed: packed.collect::<sectopk_crypto::Result<_>>()? })
    }
}

/// The number of `pk'` ciphertexts that carry an item's masks.
pub(crate) const BLINDING_CIPHERTEXTS: usize = 2;

/// The slot width `w` of a packed plaintext under `own`, from its modulus's actual
/// length (never from the key's serialized size field).
fn slot_bits(own: &PaillierPublicKey) -> u64 {
    own.n().bits() / 2
}

impl ItemBlinding {
    /// The [`EncryptedBlinding`] plaintexts of these masks under `own`, `α + 2^w·β` and
    /// `γ`, reduced mod `N'` (which changes nothing unless `own` is narrower than
    /// [`sectopk_crypto::keys::own_modulus_bits`] asks).
    pub(crate) fn packed(&self, own: &PaillierPublicKey) -> Vec<BigUint> {
        let pair = (&self.beta << slot_bits(own)) + &self.alpha;
        vec![pair % own.n(), &self.gamma % own.n()]
    }

    /// The masks of an item from its decrypted packed plaintexts, each slot reduced mod
    /// `N` (the shared modulus of `pk`); `None` unless there are exactly
    /// [`BLINDING_CIPHERTEXTS`] of them.
    fn unpacked(
        plains: &[BigUint],
        own: &PaillierPublicKey,
        pk: &PaillierPublicKey,
    ) -> Option<Self> {
        let [pair, last] = plains else {
            return None;
        };
        let w = slot_bits(own);
        let split = |plain: &BigUint| {
            let hi = plain >> w;
            ((plain - (&hi << w)) % pk.n(), hi % pk.n())
        };
        let ((alpha, beta), (gamma, _)) = (split(pair), split(last));
        Some(ItemBlinding { alpha, beta, gamma })
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
        let own_pk = self.s1.own_public.clone();

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
            let blinding = ItemBlinding::sample(&pk, &mut self.s1.rng);
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
        // Pure ciphertext arithmetic that draws nothing, so it runs on the worker pool.
        let own_sk = self.s1.own_secret.clone();
        let returned: Vec<_> = returned_items.into_iter().zip(returned_blindings).collect();
        let restored =
            par_map(self.intra_workers(), returned, move |(item, blinding)| -> Result<_> {
                let plains = blinding.packed.iter().map(|c| own_sk.decrypt(c));
                let plains = plains.collect::<sectopk_crypto::Result<Vec<_>>>()?;
                let masks = ItemBlinding::unpacked(&plains, &own_pk, &pk).ok_or_else(|| {
                    ProtocolError::transport("dedup reply: blinding arity mismatch")
                })?;
                Ok(rand_unblind(item, &masks, &pk))
            });
        restored.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::bigint::symmetric_i64;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_ehl::EhlEncoder;

    fn setup() -> (MasterKeys, TwoClouds, EhlEncoder, StdRng) {
        setup_with(3)
    }

    /// Keys with `s` PRF images per EHL+, and the clouds over them.
    fn setup_with(s: usize) -> (MasterKeys, TwoClouds, EhlEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(404);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, s, &mut rng).unwrap();
        let clouds = TwoClouds::new(&master, 44).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        (master, clouds, encoder, rng)
    }

    #[test]
    fn packed_masks_survive_the_largest_slot_sums() {
        // S1's masks and S2's all N − 1: every slot holds 2N − 2, the most it ever does.
        let (master, clouds, _, mut rng) = setup();
        let (pk, own_pk, own_sk) =
            (&master.paillier_public, &clouds.s1.own_public, &clouds.s1.own_secret);
        let max = pk.n() - BigUint::from(1u32);
        let masks = ItemBlinding { alpha: max.clone(), beta: max.clone(), gamma: max.clone() };
        let packed = masks.packed(own_pk);
        assert_eq!(packed.len(), BLINDING_CIPHERTEXTS);
        // The last ciphertext carries γ alone, its high slot empty.
        assert!(packed[1].bits() <= slot_bits(own_pk));
        let sums: Vec<BigUint> = packed
            .iter()
            .map(|m| {
                let sent = own_pk.encrypt(m, &mut rng).unwrap();
                own_sk.decrypt(&own_pk.add_plain(&sent, m)).unwrap()
            })
            .collect();
        let twice = (&max + &max) % pk.n();
        let expected = ItemBlinding { alpha: twice.clone(), beta: twice.clone(), gamma: twice };
        assert_eq!(ItemBlinding::unpacked(&sums, own_pk, pk), Some(expected));
        // One plaintext too few or too many is not an item's blinding.
        assert_eq!(ItemBlinding::unpacked(&sums[1..], own_pk, pk), None);
        let long = [&sums[..], &sums[..1]].concat();
        assert_eq!(ItemBlinding::unpacked(&long, own_pk, pk), None);
    }

    #[test]
    fn dedup_ships_three_masks_in_two_own_key_ciphertexts_whatever_s_is() {
        for s in [3, 5] {
            let (master, mut clouds, encoder, mut rng) = setup_with(s);
            let pk = &master.paillier_public;
            let items = vec![
                item("A", 4, 6, &encoder, pk, &mut rng),
                item("B", 2, 3, &encoder, pk, &mut rng),
                item("A", 4, 6, &encoder, pk, &mut rng),
            ];
            let out = clouds.sec_dedup(items, 1).unwrap();
            let mut scores: Vec<(i64, i64)> = out
                .iter()
                .map(|it| {
                    let score =
                        |c| symmetric_i64(&master.paillier_secret.decrypt(c).unwrap(), pk.n());
                    (score(&it.worst).unwrap(), score(&it.best).unwrap())
                })
                .collect();
            scores.sort_unstable();
            assert_eq!(scores, vec![(-1, -1), (2, 3), (4, 6)], "s = {s}");
            // Each way: 3 items of 3 shared-key ciphertexts and 3 blindings of 2 own-key
            // ones; S1 → S2 adds the 3 matrix entries.
            let expected = 3 + 2 * 3 * 3 + 2 * 3 * BLINDING_CIPHERTEXTS;
            assert_eq!(clouds.channel().ciphertexts, expected as u64, "s = {s}");
        }
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
                let worst = master.paillier_secret.decrypt(&it.worst).unwrap();
                symmetric_i64(&worst, master.paillier_public.n()).unwrap()
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
        assert_eq!(clouds.channel(), crate::ChannelMetrics::default());
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
        let worsts: Vec<Option<i64>> = out
            .iter()
            .map(|it| symmetric_i64(&master.paillier_secret.decrypt(&it.worst).unwrap(), pk.n()))
            .collect();
        assert!(worsts.contains(&Some(-1)));
        assert!(worsts.contains(&Some(100)));
    }
}
