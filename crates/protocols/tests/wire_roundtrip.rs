//! Wire-codec conformance fuzzing: `decode(encode(m)) == m` for *every*
//! [`S1Request`] / [`S2Response`] variant, including `Batch` nesting and empty-payload
//! edge cases, with `measure` always agreeing with the actual encoding — and the
//! codec's ciphertext count agreeing with a per-kind count of the message's fields.
//!
//! The protocol messages are the entire S1 ↔ S2 attack/fault surface: a lossy or
//! ambiguous codec would silently desynchronize the clouds (or leak through framing
//! differences between transports, which meter these exact bytes).  The generators
//! below build structurally random messages around random group elements — not just
//! well-formed encryptions — so the codec is exercised on every byte length and shape.

use proptest::proptest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use num_bigint::BigUint;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_ehl::EhlPlus;
use sectopk_protocols::transport::{DedupRequest, FilterTuple, MaskedSet, Per, Select};
use sectopk_protocols::wire::{decode, encode, from_bytes, measure, to_bytes};
use sectopk_protocols::{
    EncryptedBlinding, S1Request, S2Response, ScoredItem, WireError, WireErrorCode,
};

fn rand_biguint(rng: &mut StdRng) -> BigUint {
    // 0 to ~33 bytes: covers the empty encoding, single limbs, and multi-limb values.
    let len = rng.gen_range(0usize..34);
    let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    BigUint::from_bytes_be(&bytes)
}

fn rand_ciphertext(rng: &mut StdRng) -> Ciphertext {
    Ciphertext::from_bytes_be(&rand_biguint(rng).to_bytes_be())
}

fn rand_ciphertexts(rng: &mut StdRng, max: usize) -> Vec<Ciphertext> {
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| rand_ciphertext(rng)).collect()
}

fn rand_context(rng: &mut StdRng) -> String {
    // Includes the empty string and non-ASCII payloads.
    let choices = ["", "sec_worst", "sec_dedup", "enc_sort", "⊖-équalité"];
    choices[rng.gen_range(0..choices.len())].to_string()
}

fn rand_per(rng: &mut StdRng) -> Per {
    [Per::Cell, Per::Row, Per::Column][rng.gen_range(0..3)]
}

fn rand_masked_sets(rng: &mut StdRng) -> Vec<MaskedSet> {
    (0..rng.gen_range(0usize..3))
        .map(|_| MaskedSet(rand_per(rng), rand_ciphertexts(rng, 3)))
        .collect()
}

fn rand_select(rng: &mut StdRng) -> Vec<Select> {
    let family = |rng: &mut StdRng| {
        Select(rand_per(rng), rng.gen_range(0..4), rng.gen::<bool>().then(|| rng.gen_range(0..4)))
    };
    (0..rng.gen_range(0usize..3)).map(|_| family(rng)).collect()
}

fn rand_item(rng: &mut StdRng) -> ScoredItem {
    ScoredItem {
        ehl: EhlPlus::new(rand_ciphertext(rng)),
        worst: rand_ciphertext(rng),
        best: rand_ciphertext(rng),
    }
}

fn rand_blinding(rng: &mut StdRng) -> EncryptedBlinding {
    EncryptedBlinding { packed: rand_ciphertexts(rng, 3) }
}

fn rand_filter_tuple(rng: &mut StdRng) -> FilterTuple {
    let n = rng.gen_range(0usize..3);
    FilterTuple {
        score: rand_ciphertext(rng),
        attributes: (0..n).map(|_| rand_ciphertext(rng)).collect(),
        score_unblinder: rand_ciphertext(rng),
        attribute_masks: (0..n).map(|_| rand_ciphertext(rng)).collect(),
    }
}

/// One random non-`Batch` request per variant index (5 leaf variants).
fn rand_leaf_request(variant: usize, rng: &mut StdRng) -> S1Request {
    match variant {
        0 => {
            let cols = rng.gen_range(1usize..4);
            let rows = rng.gen_range(0usize..4);
            S1Request::EqMatrix {
                diffs: (0..rows * cols).map(|_| rand_ciphertext(rng)).collect(),
                cols,
                context: rand_context(rng),
                depth: if rng.gen() { Some(rng.gen_range(0..1000)) } else { None },
                sets: rand_masked_sets(rng),
                select: rand_select(rng),
                disclose_rows: rng.gen(),
            }
        }
        1 => S1Request::Compare { blinded: rand_ciphertexts(rng, 4), context: rand_context(rng) },
        2 => {
            let l = rng.gen_range(0usize..3);
            let pairs: Vec<(usize, usize)> =
                (0..l).flat_map(|a| ((a + 1)..l).map(move |b| (a, b))).collect();
            S1Request::Dedup(DedupRequest {
                items: (0..l).map(|_| rand_item(rng)).collect(),
                blindings: (0..l).map(|_| rand_blinding(rng)).collect(),
                matrix: (0..pairs.len()).map(|_| rand_ciphertext(rng)).collect(),
                pair_indices: pairs,
                eliminate: rng.gen(),
                depth: rng.gen_range(0..100),
            })
        }
        3 => S1Request::Filter {
            tuples: (0..rng.gen_range(0usize..3)).map(|_| rand_filter_tuple(rng)).collect(),
        },
        _ => S1Request::MulBlinded {
            pairs: (0..rng.gen_range(0usize..4))
                .map(|_| (rand_ciphertext(rng), rand_ciphertext(rng)))
                .collect(),
        },
    }
}

fn rand_wire_error(rng: &mut StdRng) -> WireError {
    let codes = WireErrorCode::ALL;
    WireError::new(codes[rng.gen_range(0..codes.len())], rand_context(rng))
}

/// One random non-`Batch` response per variant index (6 leaf variants).
fn rand_leaf_response(variant: usize, rng: &mut StdRng) -> S2Response {
    match variant {
        0 => S2Response::EqBits {
            bits: rand_ciphertexts(rng, 4),
            selected: rand_ciphertexts(rng, 3),
            row_matched: (0..rng.gen_range(0usize..4)).map(|_| rng.gen()).collect(),
        },
        1 => S2Response::Signs(
            (0..rng.gen_range(0usize..6)).map(|_| rng.gen_range(-1i8..=1)).collect(),
        ),
        2 => {
            let l = rng.gen_range(0usize..3);
            S2Response::Dedup {
                items: (0..l).map(|_| rand_item(rng)).collect(),
                blindings: (0..l).map(|_| rand_blinding(rng)).collect(),
            }
        }
        3 => S2Response::Filter {
            survivors: (0..rng.gen_range(0usize..3)).map(|_| rand_filter_tuple(rng)).collect(),
        },
        4 => S2Response::Error(rand_wire_error(rng)),
        _ => S2Response::Products(rand_ciphertexts(rng, 4)),
    }
}

/// The reference ciphertext count of a request: its ciphertext fields, kind by kind.
fn request_ciphertexts(request: &S1Request) -> usize {
    match request {
        S1Request::EqMatrix { diffs, sets, .. } => {
            diffs.len() + sets.iter().map(|MaskedSet(_, masked)| masked.len()).sum::<usize>()
        }
        S1Request::Compare { blinded, .. } => blinded.len(),
        S1Request::Dedup(req) => {
            req.matrix.len() + items_ciphertexts(&req.items) + blindings_ciphertexts(&req.blindings)
        }
        S1Request::Filter { tuples } => tuples.iter().map(tuple_ciphertexts).sum(),
        S1Request::MulBlinded { pairs } => pairs.len() * 2,
        S1Request::Batch(requests) => requests.iter().map(request_ciphertexts).sum(),
    }
}

/// The reference ciphertext count of a response: its ciphertext fields, kind by kind.
fn response_ciphertexts(response: &S2Response) -> usize {
    match response {
        S2Response::EqBits { bits, selected, .. } => bits.len() + selected.len(),
        S2Response::Signs(_) | S2Response::Error(_) => 0,
        S2Response::Dedup { items, blindings } => {
            items_ciphertexts(items) + blindings_ciphertexts(blindings)
        }
        S2Response::Filter { survivors } => survivors.iter().map(tuple_ciphertexts).sum(),
        S2Response::Products(products) => products.len(),
        S2Response::Batch(responses) => responses.iter().map(response_ciphertexts).sum(),
    }
}

fn items_ciphertexts(items: &[ScoredItem]) -> usize {
    3 * items.len()
}

fn blindings_ciphertexts(blindings: &[EncryptedBlinding]) -> usize {
    blindings.iter().map(|blinding| blinding.packed.len()).sum()
}

fn tuple_ciphertexts(tuple: &FilterTuple) -> usize {
    2 + tuple.attributes.len() + tuple.attribute_masks.len()
}

/// The codec counts `reference` ciphertexts in `message` in each of its three walks —
/// measure, encode and decode — and measures the bytes it encodes.
fn assert_codec_counts<T>(message: &T, reference: usize)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let measured = measure(message);
    assert_eq!(measured.ciphertexts, reference as u64, "ciphertexts of {message:?}");
    let (bytes, encoded) = encode(message);
    assert_eq!(encoded, measured, "encode and measure disagree on {message:?}");
    assert_eq!(encoded.bytes, bytes.len() as u64);
    let (back, decoded) = decode::<T>(&bytes).expect("decode");
    assert_eq!(decoded, measured, "decode and measure disagree on {message:?}");
    assert_eq!(&back, message);
}

/// Encode, check the length oracle, decode, compare, re-encode, compare bytes.
fn assert_request_round_trips(request: &S1Request) {
    let bytes = to_bytes(request);
    assert_eq!(bytes.len() as u64, measure(request).bytes, "measure must match: {request:?}");
    let back: S1Request = from_bytes(&bytes).expect("decode S1Request");
    assert_eq!(&back, request, "request round trip must be lossless");
    assert_eq!(to_bytes(&back), bytes, "re-encoding must be canonical");
}

fn assert_response_round_trips(response: &S2Response) {
    let bytes = to_bytes(response);
    assert_eq!(bytes.len() as u64, measure(response).bytes, "measure must match: {response:?}");
    let back: S2Response = from_bytes(&bytes).expect("decode S2Response");
    assert_eq!(&back, response, "response round trip must be lossless");
    assert_eq!(to_bytes(&back), bytes, "re-encoding must be canonical");
}

proptest! {
    #[test]
    fn every_request_variant_round_trips(seed in 0u64..500, variant in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(5).wrapping_add(variant as u64));
        let request = rand_leaf_request(variant, &mut rng);
        assert_request_round_trips(&request);
    }

    #[test]
    fn every_response_variant_round_trips(seed in 0u64..500, variant in 0usize..6) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(6).wrapping_add(variant as u64));
        let response = rand_leaf_response(variant, &mut rng);
        assert_response_round_trips(&response);
    }

    #[test]
    fn batches_of_random_requests_round_trip(seed in 0u64..200, len in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xBA7C4));
        let batch = S1Request::Batch(
            (0..len).map(|_| rand_leaf_request(rng.gen_range(0..5), &mut rng)).collect(),
        );
        assert_request_round_trips(&batch);
        let reply = S2Response::Batch(
            (0..len).map(|_| rand_leaf_response(rng.gen_range(0..6), &mut rng)).collect(),
        );
        assert_response_round_trips(&reply);
    }

    #[test]
    fn the_codec_counts_exactly_the_ciphertexts_of_every_variant(
        seed in 0u64..300,
        variant in 0usize..7,
    ) {
        // Variant 6 is a `Batch` of random leaves (of requests: 0..5; of responses: 0..6,
        // `Error` included).
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(variant as u64));
        let (request, response) = if variant == 6 {
            let len = rng.gen_range(0usize..5);
            let requests = (0..len).map(|_| rand_leaf_request(rng.gen_range(0..5), &mut rng));
            let request = S1Request::Batch(requests.collect());
            let responses = (0..len).map(|_| rand_leaf_response(rng.gen_range(0..6), &mut rng));
            (request, S2Response::Batch(responses.collect()))
        } else {
            (rand_leaf_request(variant % 5, &mut rng), rand_leaf_response(variant, &mut rng))
        };
        assert_codec_counts(&request, request_ciphertexts(&request));
        assert_codec_counts(&response, response_ciphertexts(&response));
    }
}

#[test]
fn empty_payload_edge_cases_round_trip() {
    // The degenerate shapes protocol code can legitimately produce at boundary depths.
    assert_request_round_trips(&S1Request::Batch(Vec::new()));
    assert_request_round_trips(&S1Request::Compare { blinded: Vec::new(), context: String::new() });
    assert_request_round_trips(&S1Request::Filter { tuples: Vec::new() });
    assert_request_round_trips(&S1Request::MulBlinded { pairs: Vec::new() });
    assert_request_round_trips(&S1Request::Dedup(DedupRequest {
        items: Vec::new(),
        blindings: Vec::new(),
        pair_indices: Vec::new(),
        matrix: Vec::new(),
        eliminate: false,
        depth: 0,
    }));
    assert_response_round_trips(&S2Response::Batch(Vec::new()));
    assert_response_round_trips(&S2Response::Signs(Vec::new()));
    assert_response_round_trips(&S2Response::Error(WireError::malformed(String::new())));
    assert_response_round_trips(&S2Response::EqBits {
        bits: Vec::new(),
        selected: Vec::new(),
        row_matched: Vec::new(),
    });
    assert_request_round_trips(&S1Request::EqMatrix {
        diffs: Vec::new(),
        cols: 0,
        context: String::new(),
        depth: None,
        sets: vec![MaskedSet(Per::Row, Vec::new())],
        select: Vec::new(),
        disclose_rows: false,
    });
    // A zero-byte group element (BigUint zero) must survive the byte-string encoding.
    let zero = Ciphertext::from_bytes_be(&[]);
    assert_request_round_trips(&S1Request::Compare { blinded: vec![zero], context: "zero".into() });
}

#[test]
fn error_responses_round_trip_with_arbitrary_text() {
    for text in ["", "plain", "multi\nline", "非 ASCII ✓"] {
        for code in [WireErrorCode::MalformedRequest, WireErrorCode::Crypto] {
            assert_response_round_trips(&S2Response::Error(WireError::new(code, text)));
        }
    }
}
