//! The S2 engine driven directly, one request at a time: every request kind's typed
//! rejections, batch atomicity (a rejected batch costs no ledger entry, RNG draw or pool
//! draw), self-contained requests, worker-count invariance of a mixed batch, and which
//! failing operation a batch reports.

use std::sync::OnceLock;

use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::paillier::{generate_keypair, Ciphertext, PaillierPublicKey, MIN_MODULUS_BITS};
use sectopk_crypto::CryptoError;
use sectopk_ehl::EhlPlus;
use sectopk_protocols::transport::{DedupRequest, FilterTuple, MaskedSet, Per, Select};
use sectopk_protocols::wire;
use sectopk_protocols::{
    EncryptedBlinding, LeakageEvent, S1Request, S2Engine, S2Response, ScoredItem, WireError,
    WireErrorCode,
};

const ENGINE_SEED: u64 = 0x5EED;

/// The shared keys: the owner's master keys and S1's own public key `pk'`.
fn keys() -> &'static (MasterKeys, PaillierPublicKey) {
    static KEYS: OnceLock<(MasterKeys, PaillierPublicKey)> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xE261);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).expect("keygen");
        let (own_pk, _) = generate_keypair(MIN_MODULUS_BITS, &mut rng).expect("own keygen");
        (master, own_pk)
    })
}

/// A fresh engine; two of them answer identically.
fn engine() -> S2Engine {
    let (master, own_pk) = keys();
    let mut engine = S2Engine::new(master.s2_view(), own_pk.clone(), ENGINE_SEED);
    engine.set_intra_workers(1);
    engine
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(0xC0FFEE)
}

fn enc(value: i64, rng: &mut StdRng) -> Ciphertext {
    keys().0.paillier_public.encrypt_i64(value, rng).expect("encrypt")
}

fn own_enc(value: u64, rng: &mut StdRng) -> Ciphertext {
    keys().1.encrypt_u64(value, rng).expect("encrypt under pk'")
}

/// Not a group element: `plan` refuses it before anything is decrypted.
fn corrupt() -> Ciphertext {
    Ciphertext::from_biguint(BigUint::from(0u32))
}

/// `N²`: one past the shared key's group, refused like [`corrupt`].
fn just_out_of_range() -> Ciphertext {
    Ciphertext::from_biguint(keys().0.paillier_public.n_squared().clone())
}

/// `N`: inside `[1, N²)`, but sharing a factor with `N`, so its decryption fails with
/// `DecryptionFailed` in the compute phase.
fn non_unit() -> Ciphertext {
    Ciphertext::from_biguint(keys().0.paillier_public.n().clone())
}

/// An equality matrix over `values` (zero ⇔ equal) that selects from masked candidates:
/// a sum per row over per-cell candidates and a one-of-many per column over per-row
/// candidates with per-column defaults, and that asks for the plaintext row bits.
fn eq_matrix(values: &[i64], cols: usize, rng: &mut StdRng) -> S1Request {
    let rows = values.len().checked_div(cols).unwrap_or(0);
    let candidates = |per: Per, rng: &mut StdRng| {
        MaskedSet(per, (0..per.len(rows, cols)).map(|v| enc(v as i64 + 40, rng)).collect())
    };
    S1Request::EqMatrix {
        diffs: values.iter().map(|&v| enc(v, rng)).collect(),
        cols,
        context: "test".into(),
        depth: Some(2),
        sets: vec![
            candidates(Per::Cell, rng),
            candidates(Per::Row, rng),
            candidates(Per::Column, rng),
        ],
        select: vec![Select(Per::Row, 0, None), Select(Per::Column, 1, Some(2))],
        disclose_rows: true,
    }
}

/// [`eq_matrix`] with `edit` applied to its selection part.
fn edited_matrix(edit: fn(&mut Vec<MaskedSet>, &mut Vec<Select>), rng: &mut StdRng) -> S1Request {
    let mut request = eq_matrix(&[0, 4, 0, 0, 6, 0], 3, rng);
    if let S1Request::EqMatrix { sets, select, .. } = &mut request {
        edit(sets, select);
    }
    request
}

fn compare(values: &[i64], rng: &mut StdRng) -> S1Request {
    S1Request::Compare {
        blinded: values.iter().map(|&v| enc(v, rng)).collect(),
        context: "test".into(),
    }
}

/// A three-item dedup whose items 0 and 2 are duplicates; each item's three masks ride
/// in two `pk'` ciphertexts.
fn dedup(rng: &mut StdRng) -> DedupRequest {
    let item = |rng: &mut StdRng| ScoredItem {
        ehl: EhlPlus::new(enc(11, rng)),
        worst: enc(3, rng),
        best: enc(9, rng),
    };
    let blinding =
        |rng: &mut StdRng| EncryptedBlinding { packed: vec![own_enc(1, rng), own_enc(2, rng)] };
    DedupRequest {
        items: (0..3).map(|_| item(rng)).collect(),
        blindings: (0..3).map(|_| blinding(rng)).collect(),
        pair_indices: vec![(0, 1), (0, 2), (1, 2)],
        matrix: vec![enc(5, rng), enc(0, rng), enc(7, rng)],
        eliminate: false,
        depth: 3,
    }
}

fn filter(scores: &[i64], rng: &mut StdRng) -> S1Request {
    let tuples = scores.iter().map(|&score| FilterTuple {
        score: enc(score, rng),
        attributes: vec![enc(21, rng)],
        score_unblinder: own_enc(1, rng),
        attribute_masks: vec![own_enc(2, rng)],
    });
    S1Request::Filter { tuples: tuples.collect() }
}

fn mul_blinded(pairs: &[(i64, i64)], rng: &mut StdRng) -> S1Request {
    S1Request::MulBlinded {
        pairs: pairs.iter().map(|&(a, b)| (enc(a, rng), enc(b, rng))).collect(),
    }
}

/// One valid request of every kind in one batch.
fn mixed_batch(rng: &mut StdRng) -> S1Request {
    S1Request::Batch(vec![
        eq_matrix(&[0, 4, 0, 0, 6, 0], 3, rng),
        compare(&[-5, 1, 8], rng),
        eq_matrix(&[0, 3], 2, rng),
        eq_matrix(&[13, 0], 1, rng),
        S1Request::Dedup(dedup(rng)),
        eq_matrix(&[0], 1, rng),
        S1Request::Dedup(dedup(rng)),
        filter(&[0, 17, 0, 19], rng),
        mul_blinded(&[(2, 3), (4, 5)], rng),
    ])
}

/// A per-cell selection over a 12 × 12 matrix whose cells `5c` are equal: its reply takes
/// 288 shared-key nonces (144 `Enc(t)` bits and 144 selections), more than three dry
/// batches of an empty pool.
fn wide_selection(rng: &mut StdRng) -> S1Request {
    S1Request::EqMatrix {
        diffs: (0..144).map(|cell| enc(if cell % 5 == 0 { 0 } else { cell }, rng)).collect(),
        cols: 12,
        context: "wide".into(),
        depth: None,
        sets: vec![MaskedSet(Per::Cell, (0..144).map(|v| enc(v + 40, rng)).collect())],
        select: vec![Select(Per::Cell, 0, None)],
        disclose_rows: false,
    }
}

/// The probe that follows every rejection: its replies draw from the engine's RNG and
/// both nonce pools, so they are byte-identical to a fresh engine's only if the rejected
/// request spent nothing.
fn probe(rng: &mut StdRng) -> S1Request {
    S1Request::Batch(vec![
        eq_matrix(&[0, 1], 2, rng),
        S1Request::Dedup(dedup(rng)),
        filter(&[5], rng),
    ])
}

/// `request` is rejected with `code`, leaves no trace, and the engine then answers the
/// probe exactly as an engine that never saw `request`.
fn assert_rejected_without_trace(what: &str, request: S1Request, code: WireErrorCode) {
    let mut engine = engine();
    let error = engine.handle(&request).expect_err(what);
    assert_eq!(error.code, code, "{what}: {error}");
    assert!(engine.ledger().is_empty(), "{what}: a rejected request reached the ledger");
    let probe = probe(&mut rng());
    let after = engine.handle(&probe).expect("the engine still serves");
    let mut fresh = self::engine();
    assert_eq!(
        after,
        fresh.handle(&probe).expect("fresh"),
        "{what}: an RNG or pool draw was spent"
    );
    assert_eq!(engine.ledger().events(), fresh.ledger().events(), "{what}: ledgers diverged");
}

#[test]
fn a_malformed_instance_of_each_kind_is_a_typed_error() {
    use WireErrorCode::{Crypto, MalformedRequest};
    let rng = &mut rng();
    // One row of these entries.
    let corrupt_matrix = |diffs: Vec<Ciphertext>| S1Request::EqMatrix {
        cols: diffs.len(),
        diffs,
        context: "test".into(),
        depth: None,
        sets: Vec::new(),
        select: Vec::new(),
        disclose_rows: false,
    };
    let with_filter = |edit: fn(&mut FilterTuple), rng: &mut StdRng| {
        let mut request = filter(&[1, 2], rng);
        if let S1Request::Filter { tuples } = &mut request {
            edit(&mut tuples[1]);
        }
        request
    };
    let corrupt_filter = with_filter(|t| t.score = corrupt(), rng);
    let mut unmasked_filter = filter(&[1, 2], rng);
    if let S1Request::Filter { tuples } = &mut unmasked_filter {
        tuples[0].attribute_masks.clear();
    }
    let with_dedup = |edit: fn(&mut DedupRequest), rng: &mut StdRng| {
        let mut request = dedup(rng);
        edit(&mut request);
        S1Request::Dedup(request)
    };
    let table: Vec<(&str, S1Request, WireErrorCode)> = vec![
        (
            "a one-entry EqMatrix over a corrupted ciphertext",
            corrupt_matrix(vec![corrupt()]),
            MalformedRequest,
        ),
        ("a one-entry EqMatrix over a non-unit", corrupt_matrix(vec![non_unit()]), Crypto),
        ("EqMatrix with a partial last row", eq_matrix(&[0, 1, 2], 2, rng), MalformedRequest),
        ("EqMatrix with zero columns", eq_matrix(&[0, 1], 0, rng), MalformedRequest),
        ("an empty EqMatrix with zero columns", eq_matrix(&[], 0, rng), MalformedRequest),
        ("EqMatrix with fewer bits than columns", eq_matrix(&[0], 2, rng), MalformedRequest),
        (
            "EqMatrix over a corrupted ciphertext",
            corrupt_matrix(vec![enc(0, rng), corrupt()]),
            MalformedRequest,
        ),
        (
            "EqMatrix over a ciphertext of N²",
            corrupt_matrix(vec![enc(0, rng), just_out_of_range()]),
            MalformedRequest,
        ),
        (
            "EqMatrix with a corrupted masked candidate",
            edited_matrix(|sets, _| sets[1].1[1] = corrupt(), rng),
            MalformedRequest,
        ),
        (
            "EqMatrix with a masked default of N²",
            edited_matrix(|sets, _| sets[2].1[0] = just_out_of_range(), rng),
            MalformedRequest,
        ),
        (
            "EqMatrix with a per-cell set one candidate short",
            edited_matrix(|sets, _| drop(sets[0].1.pop()), rng),
            MalformedRequest,
        ),
        (
            "EqMatrix with a per-column set laid out per row",
            edited_matrix(|sets, _| sets[2].0 = Per::Row, rng),
            MalformedRequest,
        ),
        (
            "EqMatrix selecting from a set it does not ship",
            edited_matrix(|_, select| select[0].1 = 3, rng),
            MalformedRequest,
        ),
        (
            "EqMatrix with a default set it does not ship",
            edited_matrix(|_, select| select[1].2 = Some(7), rng),
            MalformedRequest,
        ),
        (
            "EqMatrix with per-row defaults for per-column jobs",
            edited_matrix(|_, select| select[1].2 = Some(1), rng),
            MalformedRequest,
        ),
        (
            "Compare over a corrupted ciphertext",
            S1Request::Compare { blinded: vec![enc(1, rng), corrupt()], context: "test".into() },
            MalformedRequest,
        ),
        (
            "Compare over a non-unit",
            S1Request::Compare { blinded: vec![enc(1, rng), non_unit()], context: "test".into() },
            Crypto,
        ),
        (
            "Compare over a zero difference (a tie S1 never sends)",
            compare(&[3, 0, -3], rng),
            MalformedRequest,
        ),
        (
            "Dedup with a missing blinding",
            with_dedup(|d| drop(d.blindings.pop()), rng),
            MalformedRequest,
        ),
        (
            "Dedup with a blinding one ciphertext short",
            with_dedup(|d| drop(d.blindings[1].packed.pop()), rng),
            MalformedRequest,
        ),
        (
            "Dedup with a blinding one ciphertext long",
            with_dedup(
                |d| {
                    let extra = d.blindings[0].packed[0].clone();
                    d.blindings[2].packed.push(extra);
                },
                rng,
            ),
            MalformedRequest,
        ),
        (
            "Dedup whose matrix is shorter than its pair list",
            with_dedup(|d| drop(d.matrix.pop()), rng),
            MalformedRequest,
        ),
        ("Dedup with an empty matrix", with_dedup(|d| d.matrix.clear(), rng), MalformedRequest),
        (
            "Dedup with a pair index out of range",
            with_dedup(|d| d.pair_indices[2] = (1, 3), rng),
            MalformedRequest,
        ),
        (
            "Dedup of 3 items with no pairs",
            with_dedup(
                |d| {
                    d.pair_indices.clear();
                    d.matrix.clear();
                },
                rng,
            ),
            MalformedRequest,
        ),
        (
            "Dedup of 3 items with two pairs",
            with_dedup(
                |d| {
                    d.pair_indices.remove(1);
                    d.matrix.remove(1);
                },
                rng,
            ),
            MalformedRequest,
        ),
        (
            "Dedup with a pair (2, 1)",
            with_dedup(|d| d.pair_indices[2] = (2, 1), rng),
            MalformedRequest,
        ),
        (
            "Dedup over a corrupted matrix entry",
            with_dedup(|d| d.matrix = vec![corrupt(); 3], rng),
            MalformedRequest,
        ),
        (
            "Dedup with an EHL block of N²",
            with_dedup(|d| d.items[1].ehl = EhlPlus::new(just_out_of_range()), rng),
            MalformedRequest,
        ),
        (
            "Dedup with a corrupted best score",
            with_dedup(|d| d.items[2].best = corrupt(), rng),
            MalformedRequest,
        ),
        (
            "Dedup with a pk' blinding outside N'²",
            with_dedup(
                |d| {
                    d.blindings[0].packed[1] =
                        Ciphertext::from_biguint(keys().1.n_squared().clone())
                },
                rng,
            ),
            MalformedRequest,
        ),
        ("Filter over a corrupted score", corrupt_filter, MalformedRequest),
        (
            "Filter with a corrupted attribute",
            with_filter(|t| t.attributes[0] = corrupt(), rng),
            MalformedRequest,
        ),
        (
            "Filter with a pk' unblinder outside N'²",
            with_filter(
                |t| t.score_unblinder = Ciphertext::from_biguint(keys().1.n_squared().clone()),
                rng,
            ),
            MalformedRequest,
        ),
        ("Filter with fewer masks than attributes", unmasked_filter, MalformedRequest),
        (
            "MulBlinded over a corrupted operand",
            S1Request::MulBlinded { pairs: vec![(enc(2, rng), corrupt())] },
            MalformedRequest,
        ),
        (
            "a nested Batch",
            S1Request::Batch(vec![S1Request::Batch(vec![compare(&[1], rng)])]),
            MalformedRequest,
        ),
    ];
    for (what, request, code) in table {
        assert_rejected_without_trace(what, request, code);
    }
}

/// An EHL+ is one ciphertext, so a `Dedup` frame whose items carry an empty sequence
/// where the block goes does not decode: the serving layer answers every undecodable
/// frame with a typed `Codec` error (`tcp`'s retired-frame tests drive that over both
/// pipes), and the engine never sees an item without a block.
#[test]
fn a_dedup_item_whose_ehl_is_an_empty_sequence_never_decodes() {
    use serde::{Serialize, Value};
    let request = S1Request::Dedup(dedup(&mut rng()));
    let valid = request.to_value();
    let mut value = valid.clone();
    let Value::Map(variant) = &mut value else { panic!("an enum is a one-entry map") };
    let Value::Seq(payload) = &mut variant[0].1 else { panic!("a tuple variant is a sequence") };
    let Value::Map(fields) = &mut payload[0] else { panic!("a struct is a map") };
    let items = fields.iter_mut().find(|(name, _)| name == "items").expect("items");
    let Value::Seq(items) = &mut items.1 else { panic!("items is a sequence") };
    for item in items {
        let Value::Map(item) = item else { panic!("an item is a map") };
        let ehl = item.iter_mut().find(|(name, _)| name == "ehl").expect("ehl");
        ehl.1 = Value::Seq(Vec::new());
    }
    assert_eq!(wire::from_bytes::<S1Request>(&wire::to_bytes(&valid)).unwrap(), request);
    let frame = wire::to_bytes(&value);
    let error = wire::from_bytes::<S1Request>(&frame).expect_err("an EHL+ with no block");
    assert!(error.to_string().contains("arity"), "{error}");
}

/// The degenerate-dimension requests: a few dozen bytes each, none may be answered with
/// (or loop over) `cols` ciphertexts — per-column jobs are sized by the matrix S2
/// actually received, never by the number of columns a request claims.
#[test]
fn aggregate_dimensions_are_bounded_by_the_bits_they_cover() {
    for cols in [16_384, 1 << 40] {
        let request = S1Request::EqMatrix {
            diffs: Vec::new(),
            cols,
            context: "test".into(),
            depth: None,
            sets: vec![MaskedSet(Per::Column, Vec::new())],
            select: vec![Select(Per::Column, 0, None)],
            disclose_rows: true,
        };
        let what = format!("an empty EqMatrix claiming {cols} columns");
        assert_rejected_without_trace(&what, request, WireErrorCode::MalformedRequest);
    }
    // A one-cell matrix whose per-column set claims more columns than it has.
    let rng = &mut rng();
    let request = S1Request::EqMatrix {
        diffs: vec![enc(0, rng)],
        cols: 1,
        context: "test".into(),
        depth: None,
        sets: vec![MaskedSet(Per::Column, vec![enc(1, rng), enc(2, rng)])],
        select: vec![Select(Per::Column, 0, None)],
        disclose_rows: false,
    };
    assert_rejected_without_trace(
        "a set wider than its matrix",
        request,
        WireErrorCode::MalformedRequest,
    );
}

/// Selections are sized by the ciphertexts a request ships, not by how many `Select`
/// families it lists: each family reads every cell and answers a fresh encryption per
/// line, so a small request repeating one family would buy megabytes of S2 work and reply.
#[test]
fn selections_are_bounded_by_the_ciphertexts_a_request_ships() {
    let rng = &mut rng();
    // A 4 × 4 matrix with one per-cell set (32 ciphertexts) asking for 320,000 selections.
    let cells = |n: usize, rng: &mut StdRng| (0..n).map(|_| enc(0, rng)).collect::<Vec<_>>();
    let request = S1Request::EqMatrix {
        diffs: cells(16, rng),
        cols: 4,
        context: "test".into(),
        depth: None,
        sets: vec![MaskedSet(Per::Cell, cells(16, rng))],
        select: vec![Select(Per::Cell, 0, None); 20_000],
        disclose_rows: false,
    };
    assert_rejected_without_trace(
        "20,000 per-cell families over 32 ciphertexts",
        request,
        WireErrorCode::MalformedRequest,
    );
    // One row of 64 cells: each per-row family is a single line, so only its reads —
    // 64 cells apiece — tell 512 of them from what 128 ciphertexts can pay for.
    let request = S1Request::EqMatrix {
        diffs: cells(64, rng),
        cols: 64,
        context: "test".into(),
        depth: None,
        sets: vec![MaskedSet(Per::Cell, cells(64, rng))],
        select: vec![Select(Per::Row, 0, None); 512],
        disclose_rows: false,
    };
    assert_rejected_without_trace(
        "512 per-row families over one 64-cell row",
        request,
        WireErrorCode::MalformedRequest,
    );
}

/// S2 reads a blinded difference's sign against `⌊N/2⌋`: that residue is the largest
/// positive value, and `⌊N/2⌋ + 1` the most negative one.
#[test]
fn a_sign_flips_between_half_the_modulus_and_one_past_it() {
    let rng = &mut rng();
    let pk = &keys().0.paillier_public;
    let one = BigUint::from(1u32);
    let half = pk.n() >> 1u32;
    let residues = [&half + &one, half, one.clone(), pk.n() - &one];
    let blinded = residues.iter().map(|m| pk.encrypt(m, rng).expect("encrypt")).collect();
    let reply = engine().handle(&S1Request::Compare { blinded, context: "test".into() });
    assert_eq!(reply.expect("nonzero differences"), S2Response::Signs(vec![-1, 1, 1, -1]));
}

/// S2 copies a request's ledger context label into every sign or equality bit it
/// records, so a label is bounded like any other size a request claims.
#[test]
fn a_context_label_is_bounded() {
    let rng = &mut rng();
    let label = "x".repeat(1 << 20);
    let mut signs = compare(&[3, -5, 7], rng);
    if let S1Request::Compare { context, .. } = &mut signs {
        *context = label.clone();
    }
    assert_rejected_without_trace("a 1 MiB Compare label", signs, WireErrorCode::MalformedRequest);
    let mut matrix = eq_matrix(&[0, 4, 0, 0, 6, 0], 3, rng);
    if let S1Request::EqMatrix { context, .. } = &mut matrix {
        *context = label;
    }
    assert_rejected_without_trace(
        "a 1 MiB EqMatrix label",
        matrix,
        WireErrorCode::MalformedRequest,
    );
}

#[test]
fn a_batch_with_one_bad_item_commits_nothing() {
    let rng = &mut rng();
    let valid_matrix = |rng: &mut StdRng| eq_matrix(&[0, 1, 0, 0], 2, rng);
    let mut bad_dedup = dedup(rng);
    bad_dedup.blindings.pop();
    assert_rejected_without_trace(
        "Batch[valid EqMatrix, malformed Dedup]",
        S1Request::Batch(vec![valid_matrix(rng), S1Request::Dedup(bad_dedup)]),
        WireErrorCode::MalformedRequest,
    );
    assert_rejected_without_trace(
        "Batch[valid EqMatrix, Batch[..]]",
        S1Request::Batch(vec![valid_matrix(rng), S1Request::Batch(vec![valid_matrix(rng)])]),
        WireErrorCode::MalformedRequest,
    );
}

#[test]
fn a_malformed_item_late_in_a_batch_is_caught_and_every_item_stands_alone() {
    let rng = &mut rng();
    let batch = |last_cols: usize, rng: &mut StdRng| {
        S1Request::Batch(vec![
            eq_matrix(&[0, 5], 2, rng),
            compare(&[4], rng),
            eq_matrix(&[0, 5, 0], last_cols, rng),
        ])
    };
    // The last matrix has a partial row: the plan phase rejects the batch before its
    // first item commits.
    assert_rejected_without_trace(
        "a partial row late in a batch",
        batch(2, rng),
        WireErrorCode::MalformedRequest,
    );

    // Well formed, the batch passes; sent again on its own, its first item is answered
    // alike — no request depends on what came before it.
    let aggregates = |reply: &S2Response| match reply {
        S2Response::EqBits { row_matched, selected, .. } => (row_matched.clone(), selected.len()),
        other => panic!("expected EqBits, got {other:?}"),
    };
    let mut engine = engine();
    let S2Response::Batch(replies) = engine.handle(&batch(3, rng)).expect("well-formed batch")
    else {
        panic!("expected a Batch reply")
    };
    assert_eq!(aggregates(&replies[0]), (vec![true], 1 + 2));
    let alone = engine.handle(&eq_matrix(&[0, 5], 2, rng)).expect("first item");
    assert_eq!(aggregates(&alone), (vec![true], 1 + 2));
}

#[test]
fn a_mixed_batch_is_byte_identical_for_one_and_four_workers() {
    let (wide, batch) = (wide_selection(&mut rng()), mixed_batch(&mut rng()));
    let run = |workers: usize| {
        let mut engine = engine();
        engine.set_intra_workers(workers);
        // From empty pools, so its nonces come from batches refilled inside `commit`.
        let wide_reply = engine.handle(&wide).expect("wide selection");
        let response = engine.handle(&batch).expect("mixed batch");
        // A follow-up proves the RNG and pool positions agree too, not only the replies.
        let follow_up = engine.handle(&probe(&mut rng())).expect("follow-up");
        (wide_reply, response, follow_up, engine.ledger().events())
    };
    let (serial, parallel) = (run(1), run(4));
    assert_eq!(serial, parallel);

    // Every fifth cell matched and selected its own candidate, every other none.
    let sk = &keys().0.paillier_secret;
    let S2Response::EqBits { bits, selected, .. } = &serial.0 else { panic!("EqBits") };
    let decrypt = |c: &Ciphertext| sk.decrypt_u64(c).unwrap();
    let expected = |cell: u64, matched: u64| if cell.is_multiple_of(5) { matched } else { 0 };
    assert_eq!(
        bits.iter().map(decrypt).collect::<Vec<_>>(),
        (0..144).map(|c| expected(c, 1)).collect::<Vec<_>>()
    );
    assert_eq!(
        selected.iter().map(decrypt).collect::<Vec<_>>(),
        (0..144).map(|c| expected(c, c + 40)).collect::<Vec<_>>()
    );

    // The replies line up with the request kinds, and the ledger saw each reveal.
    let (_, S2Response::Batch(replies), _, ledger) = serial else {
        panic!("expected a Batch reply")
    };
    assert_eq!(replies.len(), 9);
    assert_eq!(replies[1], S2Response::Signs(vec![-1, 1, 1]));
    assert!(matches!(&replies[3], S2Response::EqBits { selected, .. } if selected.len() == 2 + 1));
    assert!(matches!(&replies[4], S2Response::Dedup { items, .. } if items.len() == 3));
    assert!(matches!(&replies[5], S2Response::EqBits { bits, .. } if bits.len() == 1));
    // Row sums and column selections agree with the bits `[1, 0, 1]` of both rows: the
    // row sums 40 + 42 and 43 + 45; per column `Σ t·x + (1 − Σ t)·y` over the rows' 40
    // and 41 and the column defaults 40, 41, 42 — two set bits as computed, not refused.
    let S2Response::EqBits { selected, row_matched, .. } = &replies[0] else { panic!("EqBits") };
    let selected: Vec<u64> = selected.iter().map(|c| sk.decrypt_u64(c).unwrap()).collect();
    assert_eq!(
        (selected, row_matched.clone()),
        (vec![40 + 42, 43 + 45, 40 + 41 - 40, 41, 40 + 41 - 42], vec![true; 2])
    );
    assert!(matches!(&replies[7], S2Response::Filter { survivors } if survivors.len() == 2));
    assert!(matches!(&replies[8], S2Response::Products(products) if products.len() == 2));
    // (The ledger was read after the follow-up probe: the first 144 equality bits and
    // masked values are the wide selection's; 2 + 3 of the equality bits, the last
    // masked-value record and the one-survivor join count are the probe's.)
    let count = |kind: fn(&LeakageEvent) -> bool| ledger.iter().filter(|e| kind(e)).count();
    assert_eq!(
        count(|e| matches!(e, LeakageEvent::EqualityBit { .. })),
        144 + 6 + 2 + 2 + 3 + 1 + 3 + 2 + 3
    );
    // One record per matrix, of its cells + rows + columns of candidates.
    let masked: Vec<usize> = ledger
        .iter()
        .filter_map(|e| match e {
            LeakageEvent::MaskedValues { count, .. } => Some(*count),
            _ => None,
        })
        .collect();
    assert_eq!(masked, [144, 6 + 2 + 3, 2 + 1 + 2, 2 + 2 + 1, 1 + 1 + 1, 2 + 1 + 2]);
    assert_eq!(count(|e| matches!(e, LeakageEvent::BlindedSign { .. })), 3);
    assert_eq!(count(|e| matches!(e, LeakageEvent::JoinMatchCount(2))), 1);
    assert_eq!(count(|e| matches!(e, LeakageEvent::JoinMatchCount(1))), 1);
}

#[test]
fn a_batch_reports_its_first_failing_operation_in_request_order() {
    let rng = &mut rng();
    // Both fail only in the compute phase: a tie decrypts to a zero sign, a non-unit
    // does not decrypt at all.
    let tie = compare(&[3, 0], rng);
    let bad_matrix = S1Request::EqMatrix {
        diffs: vec![enc(0, rng), non_unit(), enc(2, rng)],
        cols: 3,
        context: "test".into(),
        depth: None,
        sets: Vec::new(),
        select: Vec::new(),
        disclose_rows: false,
    };
    let batch = |second: &S1Request, fourth: &S1Request, rng: &mut StdRng| {
        S1Request::Batch(vec![
            compare(&[1, 2, 3], rng),
            second.clone(),
            compare(&[4, 5], rng),
            fourth.clone(),
            compare(&[6], rng),
        ])
    };
    let cases = [
        (
            batch(&tie, &bad_matrix, rng),
            WireError::malformed("a blinded comparison decrypts to zero"),
        ),
        (batch(&bad_matrix, &tie, rng), WireError::from(CryptoError::DecryptionFailed)),
    ];
    for (request, expected) in &cases {
        for workers in [1, 4] {
            let mut engine = engine();
            engine.set_intra_workers(workers);
            let error = engine.handle(request).expect_err("two corrupted ciphertexts");
            assert_eq!(&error, expected, "{workers} worker(s)");
            assert!(engine.ledger().is_empty(), "nothing committed");
        }
    }
}
