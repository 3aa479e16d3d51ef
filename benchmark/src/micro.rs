//! Fixed-input measurements of single layers, through their public functions: crypto
//! and EHL operation loops, storage, the per-depth sub-protocols, the wire codec and a
//! bare transport round trip.  They belong to the traced pass but not to any one
//! workload: all workloads share the key size, so one measurement serves them all.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_core::{encrypt_for_join, join_token, top_k_join, JoinQuery};
use sectopk_crypto::bigint::random_below;
use sectopk_crypto::damgard_jurik::{DjPublicKey, DjSecretKey};
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::pool::RandomnessPool;
use sectopk_ehl::EhlEncoder;
use sectopk_protocols::{wire, S1Request, ScoredItem, TransportKind, TwoClouds, UpdateMode};
use sectopk_storage::{
    encrypt_relation, generate_token, EncryptedItem, ObjectId, Relation, Row, TopKQuery,
};

use crate::calibrate::timed;
use crate::metrics::{median, put, Values};
use crate::workload::{EHL_KEYS, MODULUS_BITS};

/// Operations per crypto / EHL / codec loop.
const OPS: usize = 200;

type Outcome = Result<(), String>;

fn err(e: impl std::fmt::Display) -> String {
    format!("per-layer measurement: {e}")
}

/// Seconds `work` takes at reference CPU speed (see `calibrate`).
fn seconds(work: impl FnOnce()) -> f64 {
    timed(work).1.normalised_s(0.0)
}

/// Mean microseconds per call of `op` over [`OPS`] calls.
fn loop_us(mut op: impl FnMut(usize)) -> f64 {
    seconds(|| (0..OPS).for_each(&mut op)) * 1e6 / OPS as f64
}

/// Median milliseconds of `op` over `reps` calls.
fn median_ms(reps: usize, mut op: impl FnMut() -> Outcome) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut outcome = Ok(());
        samples.push(seconds(|| outcome = op()) * 1e3);
        outcome?;
    }
    Ok(median(&samples))
}

/// Measure every workload-independent per-layer metric, under keys of the size every
/// workload uses.  `quick` calls each sub-protocol once instead of three times.
pub fn measure(quick: bool) -> Result<Values, String> {
    let mut rng = StdRng::seed_from_u64(0x3E75);
    let keys = MasterKeys::generate(MODULUS_BITS, EHL_KEYS, &mut rng).map_err(err)?;
    let mut values = Values::new();
    crypto(&keys, &mut values)?;
    ehl_and_storage(&keys, &mut values)?;
    protocols(&keys, if quick { 1 } else { 3 }, &mut values)?;
    wire_and_transport(&keys, &mut values)?;
    Ok(values)
}

fn crypto(keys: &MasterKeys, values: &mut Values) -> Outcome {
    let mut rng = StdRng::seed_from_u64(0xC4_1970);
    let pk = &keys.paillier_public;
    let sk = &keys.paillier_secret;
    let dj = DjPublicKey::from_paillier(pk);
    let dj_sk = DjSecretKey::from_paillier(sk);

    let mut ciphertexts = Vec::with_capacity(OPS);
    let us = loop_us(|i| ciphertexts.push(pk.encrypt_u64(i as u64, &mut rng)));
    put(values, "crypto.encrypt_us", us, "us", OPS);
    let ciphertexts = ciphertexts.into_iter().collect::<Result<Vec<_>, _>>().map_err(err)?;

    let mut ok = true;
    let us = loop_us(|i| ok &= black_box(sk.decrypt(&ciphertexts[i])).is_ok());
    put(values, "crypto.decrypt_us", us, "us", OPS);

    let scalars: Vec<_> = (0..OPS).map(|_| random_below(&mut rng, pk.n())).collect();
    let us = loop_us(|i| {
        black_box(pk.mul_plain(&ciphertexts[i], &scalars[i]));
    });
    put(values, "crypto.mul_plain_us", us, "us", OPS);

    let mut layered = Vec::with_capacity(OPS);
    let us = loop_us(|i| layered.push(dj.encrypt_u64(i as u64, &mut rng)));
    put(values, "crypto.dj_encrypt_us", us, "us", OPS);
    let layered = layered.into_iter().collect::<Result<Vec<_>, _>>().map_err(err)?;

    let us = loop_us(|i| ok &= black_box(dj_sk.decrypt(&layered[i])).is_ok());
    put(values, "crypto.dj_decrypt_us", us, "us", OPS);
    if !ok {
        return Err(err("a decryption failed"));
    }

    // One refill of the S1 nonce pool, half Paillier and half Damgård–Jurik nonces.
    let mut pool = RandomnessPool::with_dj(pk, &dj, 0x9001);
    let us = seconds(|| pool.refill(OPS / 2, OPS / 2)) * 1e6 / OPS as f64;
    put(values, "crypto.pool_refill_us", us, "us", OPS);

    const KEYGENS: usize = 20;
    let mut ok = true;
    let ms = seconds(|| {
        for _ in 0..KEYGENS {
            ok &= black_box(MasterKeys::generate(MODULUS_BITS, EHL_KEYS, &mut rng)).is_ok();
        }
    }) * 1e3
        / KEYGENS as f64;
    if !ok {
        return Err(err("key generation failed"));
    }
    put(values, "crypto.keygen_ms", ms, "ms", KEYGENS);
    Ok(())
}

fn ehl_and_storage(keys: &MasterKeys, values: &mut Values) -> Outcome {
    let mut rng = StdRng::seed_from_u64(0xE41);
    let pk = &keys.paillier_public;
    let encoder = EhlEncoder::new(&keys.ehl_keys);

    let mut encoded = Vec::with_capacity(OPS);
    let us =
        loop_us(|i| encoded.push(encoder.encode(&ObjectId(i as u64).to_bytes(), pk, &mut rng)));
    put(values, "ehl.encode_us", us, "us", OPS);
    let encoded = encoded.into_iter().collect::<Result<Vec<_>, _>>().map_err(err)?;

    let us = loop_us(|i| {
        black_box(encoded[i].eq_test(&encoded[(i + 1) % OPS], pk, &mut rng));
    });
    put(values, "ehl.eq_test_us", us, "us", OPS);

    let relation = fixed_relation(64, 3, 0x570);
    let mut encrypted = None;
    let rows_per_s = relation.len() as f64
        / seconds(|| encrypted = Some(encrypt_relation(&relation, keys, &mut rng)));
    encrypted.expect("the closure ran").map_err(err)?;
    put(values, "storage.encrypt_rows_per_s", rows_per_s, "1/s", relation.len());

    let query = TopKQuery::sum(vec![0, 2], 3);
    let mut ok = true;
    let us = loop_us(|_| ok &= black_box(generate_token(&keys.prp_key, 3, &query)).is_ok());
    put(values, "storage.token_us", us, "us", OPS);
    if ok {
        Ok(())
    } else {
        Err(err("token generation failed"))
    }
}

/// A small relation with a few clear leaders and plenty of near-ties.
fn fixed_relation(rows: usize, attributes: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    Relation::from_rows(
        (0..rows)
            .map(|i| Row {
                id: ObjectId(i as u64 + 1),
                values: (0..attributes).map(|_| rng.gen_range(0..1000u64)).collect(),
            })
            .collect(),
    )
}

fn scored(item: &EncryptedItem) -> ScoredItem {
    ScoredItem { ehl: item.ehl.clone(), worst: item.score.clone(), best: item.score.clone() }
}

/// The per-depth sub-protocols of `SecQuery` and the top-k join, each on one fixed
/// input: the encrypted lists of a 32 × 3 relation.
fn protocols(keys: &MasterKeys, reps: usize, values: &mut Values) -> Outcome {
    let mut rng = StdRng::seed_from_u64(0x9207);
    let relation = fixed_relation(32, 3, 0x9208);
    let (er, _) = encrypt_relation(&relation, keys, &mut rng).map_err(err)?;
    let mut clouds =
        TwoClouds::with_transport(keys, 0x9209, TransportKind::InProcess, true).map_err(err)?;

    const DEPTH: usize = 3;
    let at = |list: usize, depth: usize| er.list(list).items()[depth].clone();
    let depth_items: Vec<EncryptedItem> = (0..3).map(|l| at(l, DEPTH)).collect();
    let seen: Vec<Vec<EncryptedItem>> =
        (0..3).map(|l| (0..=DEPTH).map(|d| at(l, d)).collect()).collect();
    // Two depths of three lists: six items, some of them the same object.
    let gamma: Vec<ScoredItem> =
        (0..2).flat_map(|d| (0..3).map(move |l| (l, d))).map(|(l, d)| scored(&at(l, d))).collect();
    let tracked: Vec<ScoredItem> = er.list(0).items()[..16].iter().map(scored).collect();
    let fresh: Vec<ScoredItem> = (0..3).map(|l| scored(&at(l, 20))).collect();
    let unsorted: Vec<ScoredItem> = er.list(1).items().iter().map(scored).collect();

    let ms =
        median_ms(reps, || clouds.sec_worst_depth(&depth_items, DEPTH).map(drop).map_err(err))?;
    put(values, "protocols.sec_worst_ms", ms, "ms", reps);
    let ms = median_ms(reps, || {
        clouds.sec_best_depth(&depth_items, &seen, DEPTH).map(drop).map_err(err)
    })?;
    put(values, "protocols.sec_best_ms", ms, "ms", reps);
    let ms = median_ms(reps, || clouds.sec_dedup(gamma.clone(), 1).map(drop).map_err(err))?;
    put(values, "protocols.sec_dedup_ms", ms, "ms", reps);
    let ms = median_ms(reps, || clouds.sec_dup_elim(gamma.clone(), 1).map(drop).map_err(err))?;
    put(values, "protocols.sec_dup_elim_ms", ms, "ms", reps);
    let ms = median_ms(reps, || {
        clouds
            .sec_update(tracked.clone(), &fresh, 20, UpdateMode::KeepLength)
            .map(drop)
            .map_err(err)
    })?;
    put(values, "protocols.sec_update_ms", ms, "ms", reps);
    let ms =
        median_ms(reps, || clouds.enc_sort_by_worst_desc(unsorted.clone()).map(drop).map_err(err))?;
    put(values, "protocols.enc_sort32_ms", ms, "ms", reps);

    // Join attribute 0 takes six values, so a fair share of the 12 × 16 pairs match.
    let join_side = |rows: usize, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Relation::from_rows(
            (0..rows)
                .map(|i| Row {
                    id: ObjectId(i as u64),
                    values: vec![rng.gen_range(0..6u64), rng.gen_range(0..500u64)],
                })
                .collect(),
        )
    };
    let left = encrypt_for_join(&join_side(12, 21), keys, "join/left", &mut rng).map_err(err)?;
    let right = encrypt_for_join(&join_side(16, 22), keys, "join/right", &mut rng).map_err(err)?;
    let query = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 3 };
    let token = join_token(keys, 2, 2, &query, &[0], &[0]).map_err(err)?;
    let ms =
        median_ms(reps, || top_k_join(&mut clouds, &left, &right, &token).map(drop).map_err(err))?;
    put(values, "protocols.join_12x16_ms", ms, "ms", reps);
    Ok(())
}

fn wire_and_transport(keys: &MasterKeys, values: &mut Values) -> Outcome {
    let mut rng = StdRng::seed_from_u64(0x3172);
    let pk = &keys.paillier_public;
    let compare = |count: usize, rng: &mut StdRng| -> Result<S1Request, String> {
        let blinded = (0..count)
            .map(|i| pk.encrypt_u64(i as u64 + 1, rng))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        Ok(S1Request::Compare { blinded, context: String::from("benchmark") })
    };

    let request = compare(64, &mut rng)?;
    let bytes = wire::to_bytes(&request);
    let mb = (bytes.len() * OPS) as f64 / 1e6;
    let us = loop_us(|_| {
        black_box(wire::to_bytes(black_box(&request)));
    });
    put(values, "wire.encode_mb_per_s", mb / (us * OPS as f64 / 1e6), "MB/s", OPS);
    let mut ok = true;
    let us = loop_us(|_| ok &= black_box(wire::from_bytes::<S1Request>(black_box(&bytes))).is_ok());
    put(values, "wire.decode_mb_per_s", mb / (us * OPS as f64 / 1e6), "MB/s", OPS);
    if !ok {
        return Err(err("decoding an encoded request failed"));
    }

    // One ciphertext there, one sign bit back: what a round costs beyond its payload.
    let request = compare(1, &mut rng)?;
    for (name, kind) in [
        ("transport.inproc_round_us", TransportKind::InProcess),
        ("transport.tcp_round_us", TransportKind::Tcp),
    ] {
        let mut clouds = TwoClouds::with_transport(keys, 0x3173, kind, true).map_err(err)?;
        clouds.raw_round_trip(request.clone()).map_err(err)?;
        let mut ok = true;
        let us = loop_us(|_| ok &= clouds.raw_round_trip(request.clone()).is_ok());
        put(values, name, us, "us", OPS);
        if !ok {
            return Err(err("a raw round trip failed"));
        }
    }
    Ok(())
}
