//! The `SecTopK = (Enc, Token, SecQuery)` scheme facade (Definition 4.1).
//!
//! This module wires the lower layers together the way the paper's deployment does:
//!
//! 1. the **data owner** generates keys and encrypts its relation ([`DataOwner`]),
//! 2. an **authorized client** turns a SQL-like top-k query into a token
//!    ([`AuthorizedClient`]),
//! 3. the **clouds** run [`crate::query::sec_query`] on the encrypted relation and return
//!    the encrypted answer, which the key holder interprets with
//!    [`crate::results::resolve_results`].

use rand::{CryptoRng, RngCore};

use sectopk_crypto::keys::MasterKeys;
use sectopk_storage::{
    encrypt_relation, generate_token, EncryptedRelation, EncryptionStats, QueryToken, Relation,
    TopKQuery,
};

use crate::error::Result;

/// The data owner: holds the master keys, encrypts relations, and authorises clients.
#[derive(Clone, Debug)]
pub struct DataOwner {
    keys: MasterKeys,
}

impl DataOwner {
    /// Create a data owner with freshly generated keys.
    ///
    /// `modulus_bits` controls the Paillier modulus size (the paper's experiments use a
    /// 128-bit security level; tests use smaller moduli for speed) and `ehl_keys` the
    /// number `s` of EHL PRF keys (the paper uses `s = 5`), whose images each stored
    /// EHL+ block sums: the stored relation is two ciphertexts per item at every `s`.
    /// `ehl_keys` = 0 is refused ([`CryptoError::NoEhlKeys`](sectopk_crypto::CryptoError::NoEhlKeys)).
    pub fn new<R: RngCore + CryptoRng>(
        modulus_bits: usize,
        ehl_keys: usize,
        rng: &mut R,
    ) -> Result<Self> {
        Ok(DataOwner { keys: MasterKeys::generate(modulus_bits, ehl_keys, rng)? })
    }

    /// The owner's key material (needed to set up the clouds and to resolve results).
    pub fn keys(&self) -> &MasterKeys {
        &self.keys
    }

    /// `Enc(λ, R)`: encrypt a relation for outsourcing (Algorithm 2).  The randomness is
    /// drawn serially from `rng` and the exponentiations run on the machine's cores, so
    /// the ciphertexts depend on `rng` alone.
    pub fn encrypt<R: RngCore + CryptoRng>(
        &self,
        relation: &Relation,
        rng: &mut R,
    ) -> Result<(EncryptedRelation, EncryptionStats)> {
        Ok(encrypt_relation(relation, &self.keys, rng)?)
    }

    /// Hand an authorized client the key material it needs for token generation.
    pub fn authorize_client(&self) -> AuthorizedClient {
        AuthorizedClient { keys: self.keys.clone() }
    }
}

/// An authorized client: can turn queries into tokens (and, in this reproduction, asks
/// the owner to resolve encrypted results — see `crate::results`).
#[derive(Clone, Debug)]
pub struct AuthorizedClient {
    keys: MasterKeys,
}

impl AuthorizedClient {
    /// `Token(K, q)`: build the query token for a relation with `num_attributes` columns.
    pub fn token(&self, num_attributes: usize, query: &TopKQuery) -> Result<QueryToken> {
        Ok(generate_token(&self.keys.prp_key, num_attributes, query)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SecTopKError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_crypto::CryptoError;
    use sectopk_protocols::TwoClouds;
    use sectopk_storage::{ObjectId, Row};

    #[test]
    fn owner_encrypts_and_client_builds_tokens() {
        let mut rng = StdRng::seed_from_u64(11);
        let owner = DataOwner::new(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let relation = Relation::from_rows(vec![
            Row { id: ObjectId(1), values: vec![3, 9] },
            Row { id: ObjectId(2), values: vec![5, 1] },
        ]);
        let (er, stats) = owner.encrypt(&relation, &mut rng).unwrap();
        assert_eq!(er.setup_leakage(), (2, 2));
        assert_eq!(stats.num_attributes, 2);

        let client = owner.authorize_client();
        let token = client.token(2, &TopKQuery::sum(vec![0, 1], 1)).unwrap();
        assert_eq!(token.k, 1);
        assert_eq!(token.num_attributes(), 2);
        assert!(client.token(2, &TopKQuery::sum(vec![5], 1)).is_err());

        let clouds = TwoClouds::new(owner.keys(), 3).unwrap();
        assert_eq!(clouds.pk().n(), owner.keys().paillier_public.n());
    }

    #[test]
    fn an_owner_without_ehl_keys_is_a_typed_error() {
        let err = DataOwner::new(MIN_MODULUS_BITS, 0, &mut StdRng::seed_from_u64(12)).unwrap_err();
        assert!(matches!(err, SecTopKError::Crypto(CryptoError::NoEhlKeys)), "{err}");
    }
}
