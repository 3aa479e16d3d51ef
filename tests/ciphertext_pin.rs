//! A pin on the ciphertext bytes themselves.
//!
//! The ledger goldens hold what each cloud *learns* — bits and counts — so an
//! arithmetic change that returned a different but equally valid group element (a
//! non-canonical residue, a swapped nonce, a reordered draw that happens to leak the
//! same bits) would pass them.  This suite hashes every ciphertext a query returns
//! and compares against digests recorded before the kernels under it last changed:
//! the fig3 query under `Qry_F`, `Qry_E` and `Qry_Ba`, and a fig3 top-k join, each at
//! the test key size and at the default 256-bit `N`, so that two kernel widths are
//! pinned.  A digest that moves means the bytes a party sees moved; that is never a
//! refactor.
//!
//! Each run also pins its channel — rounds, metered payload bytes and ciphertexts — so
//! a change to how a round is metered cannot move the bandwidth figures unseen.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    encrypt_for_join, join_token, top_k_join, DataOwner, JoinQuery, Query, QueryConfig, Session,
    VariantChoice,
};
use sectopk_crypto::encoding::hex_encode;
use sectopk_crypto::sha256::Sha256;
use sectopk_crypto::{Ciphertext, MasterKeys};
use sectopk_datasets::fig3_relation;
use sectopk_protocols::{ChannelMetrics, TransportKind, TwoClouds};
use sectopk_storage::TopKQuery;
use sectopk_tests::{TEST_EHL_KEYS, TEST_MODULUS_BITS};

/// The two key sizes pinned: the suites' size and the library default.
const SIZES: [usize; 2] = [TEST_MODULUS_BITS, 256];

/// `(key bits, query, sha256 of every returned ciphertext)`, last re-recorded when the
/// protocol parties' randomness moved to ChaCha12: S1's and S2's local streams, and every
/// pool nonce read by address.  Every ciphertext a party returns or re-randomizes takes a
/// different (equally valid) nonce, the join's answer of S2's fresh selections included.
const PINS: [(usize, &str, &str); 8] = [
    (128, "Qry_F", "fbf6fd7d218cd43fd913390f58be7b888f4c192455fa01b4d7cf870e776e794b"),
    (128, "Qry_E", "1200719a817775f9cc3f0546fd5d645600cec6c1e03fe43ca80fbf766e86b78c"),
    (128, "Qry_Ba", "8fd64b4f69973e54aeba196be3dc55257ef89b71ed763a95ffff6835900bcf9c"),
    (128, "join", "7aeda7931d70f3796f9a2781612c54d5ff5a53b0d3cf51042d135918d4f81163"),
    (256, "Qry_F", "e82f56dc91c4ba5fac4a1e0653bab918946d21e3f50125d4c5b9c929c4f14680"),
    (256, "Qry_E", "2a8b9582fdf2ec2a54712c1bc8ad1295e13f24f6d9a9e84880179c542ab2e391"),
    (256, "Qry_Ba", "7f718ff76d6b586888a133f3534e11a6a5c52a033de3706f4e4662d36b2e65cf"),
    (256, "join", "b1fac00f655d9427062f0aad7bb7f6abad968e5a36ac48b38116920c78d5ae34"),
];

/// `(key bits, query, rounds, bytes, ciphertexts)` of each pinned run's channel, in
/// [`PINS`] order, re-recorded with [`PINS`]: rounds and ciphertext counts did not move,
/// and bytes moved by at most 5: the encoded lengths of ciphertexts under new nonces (a
/// residue with a leading zero byte is one byte shorter).
const CHANNEL_PINS: [(usize, &str, u64, u64, u64); 8] = [
    (128, "Qry_F", 19, 41480, 869),
    (128, "Qry_E", 19, 32091, 618),
    (128, "Qry_Ba", 15, 31581, 610),
    (128, "join", 3, 24732, 500),
    (256, "Qry_F", 19, 71661, 869),
    (256, "Qry_E", 19, 53947, 618),
    (256, "Qry_Ba", 15, 53175, 610),
    (256, "join", 3, 44694, 500),
];

/// Hash the ciphertexts in order, each length-prefixed so that no two sequences share
/// an encoding.
fn digest<'a>(ciphertexts: impl IntoIterator<Item = &'a Ciphertext>) -> String {
    let mut hasher = Sha256::new();
    for c in ciphertexts {
        let bytes = c.to_bytes_be();
        hasher.update(&(bytes.len() as u64).to_be_bytes());
        hasher.update(&bytes);
    }
    hex_encode(&hasher.finalize())
}

/// The digest of the top-2 fig3 query's answer under `config` — every EHL block, then
/// `worst` and `best`, item by item — and the query's channel.
fn query_digest(bits: usize, config: &QueryConfig) -> (String, ChannelMetrics) {
    let mut rng = StdRng::seed_from_u64(0xF163);
    let owner = DataOwner::new(bits, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&fig3_relation(), &mut rng).expect("encryption");
    let mut session =
        owner.connect_with(&outsourced, 0x9107, TransportKind::InProcess, true).expect("clouds");
    let query = Query::from_spec(TopKQuery::sum(vec![0, 1, 2], 2))
        .with_variant(VariantChoice::Fixed(config.variant));
    let outcome = session.execute(&query).expect("query").outcome;
    assert_eq!(outcome.top_k.len(), 2);
    let hex = digest(
        outcome
            .top_k
            .iter()
            .flat_map(|item| item.ehl.blocks().iter().chain([&item.worst, &item.best])),
    );
    (hex, session.metrics())
}

/// The digest of a fig3 self-join on `r3`, ranked by `r1 + r2` — every returned tuple's
/// score and carried attributes — and the join's channel.
fn join_digest(bits: usize) -> (String, ChannelMetrics) {
    let mut rng = StdRng::seed_from_u64(0x701F);
    let keys = MasterKeys::generate(bits, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let fig3 = fig3_relation();
    let query = JoinQuery { join_left: 2, join_right: 2, score_left: 0, score_right: 1, k: 2 };
    let left = encrypt_for_join(&fig3, &keys, "join/left", &mut rng).expect("left");
    let right = encrypt_for_join(&fig3, &keys, "join/right", &mut rng).expect("right");
    let token = join_token(&keys, 3, 3, &query, &[0, 1], &[1]).expect("token");
    let mut clouds =
        TwoClouds::with_transport(&keys, 0x7018, TransportKind::InProcess, true).expect("clouds");
    let outcome = top_k_join(&mut clouds, &left, &right, &token).expect("join");
    assert_eq!(outcome.matching_pairs, 5);
    let hex = digest(
        outcome.top_k.iter().flat_map(|tuple| [&tuple.score].into_iter().chain(&tuple.attributes)),
    );
    (hex, clouds.channel())
}

#[test]
fn query_and_join_ciphertexts_match_their_recorded_digests() {
    let mut observed = Vec::new();
    for bits in SIZES {
        for (name, config) in [
            ("Qry_F", QueryConfig::full()),
            ("Qry_E", QueryConfig::dup_elim()),
            ("Qry_Ba", QueryConfig::batched(2)),
        ] {
            let (hex, channel) = query_digest(bits, &config);
            observed.push((bits, name, hex, channel));
        }
        let (hex, channel) = join_digest(bits);
        observed.push((bits, "join", hex, channel));
    }
    let printed: Vec<String> = observed
        .iter()
        .map(|(bits, name, hex, _)| format!("({bits}, \"{name}\", \"{hex}\"),"))
        .collect();
    let printed_channels: Vec<String> = observed
        .iter()
        .map(|(bits, name, _, c)| {
            format!("({bits}, \"{name}\", {}, {}, {}),", c.rounds, c.bytes, c.ciphertexts)
        })
        .collect();
    for ((bits, name, hex, channel), ((pin_bits, pin_name, pin_hex), channel_pin)) in
        observed.iter().zip(PINS.into_iter().zip(CHANNEL_PINS))
    {
        assert_eq!((*bits, *name), (pin_bits, pin_name), "pin table order");
        assert_eq!((*bits, *name), (channel_pin.0, channel_pin.1), "channel pin table order");
        assert_eq!(
            hex,
            pin_hex,
            "{bits}-bit {name}: the returned ciphertext bytes changed; observed pins:\n{}",
            printed.join("\n")
        );
        assert_eq!(
            (channel.rounds, channel.bytes, channel.ciphertexts),
            (channel_pin.2, channel_pin.3, channel_pin.4),
            "{bits}-bit {name}: the metered channel changed; observed channel pins:\n{}",
            printed_channels.join("\n")
        );
    }
}
