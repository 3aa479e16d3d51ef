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
/// owner began to store each EHL+ as its one folded block: the stored ciphertexts, and
/// so the answers' EHL blocks, are new encryptions of the same folded images.  No draw
/// of S1's stream moved, so the join, whose answers S2 encrypts afresh, kept its pins.
const PINS: [(usize, &str, &str); 8] = [
    (128, "Qry_F", "805e32b447d11fe2a28ceba63391bb783bd89fca872565893967db9a912f31c1"),
    (128, "Qry_E", "20f329c6a8b9e182521c4a95e8965276f5c800391c95643cd88ee452bfc38311"),
    (128, "Qry_Ba", "0b07d87043eec6a8d4a340cbaff445366709c5764b8d903af88b08a94e1bf555"),
    (128, "join", "0ccba3860eb7a355394883372a766aa892dadd0b32b0986c06a56d9f0ca0724d"),
    (256, "Qry_F", "e0deeb73491bc06055716e57a98c63e748b1ab6bb601bf06958614ec381df2e6"),
    (256, "Qry_E", "d1f9f36b22eba7e82f1ee7387fc458562719d18b893130b6790ac147630ee9ab"),
    (256, "Qry_Ba", "8377eed6d408825ef2e8cad3b3f6e2be41a34282f45fd3a76d94b9185fde0021"),
    (256, "join", "4e3430fab33824ab26244f2c279261c3e9763534ae050336a61f7eb7cb891ce6"),
];

/// `(key bits, query, rounds, bytes, ciphertexts)` of each pinned run's channel, in
/// [`PINS`] order, last re-recorded when an EHL+ came to cross the wire as its one
/// ciphertext, a one-element sequence, instead of a `{blocks: [..]}` map: no round and
/// no ciphertext count moved, and the bytes fell by 9 per EHL+ the run ships — 24 for
/// `Qry_F` (216 bytes), 21 for `Qry_E` and `Qry_Ba` (189), none for the join.
const CHANNEL_PINS: [(usize, &str, u64, u64, u64); 8] = [
    (128, "Qry_F", 19, 37661, 797),
    (128, "Qry_E", 19, 28750, 555),
    (128, "Qry_Ba", 15, 28242, 547),
    (128, "join", 3, 24726, 500),
    (256, "Qry_F", 19, 64750, 797),
    (256, "Qry_E", 19, 47900, 555),
    (256, "Qry_Ba", 15, 47129, 547),
    (256, "join", 3, 44696, 500),
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

/// The digest of the top-2 fig3 query's answer under `config` — the EHL block, then
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
    let hex =
        digest(outcome.top_k.iter().flat_map(|item| [item.ehl.block(), &item.worst, &item.best]));
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
