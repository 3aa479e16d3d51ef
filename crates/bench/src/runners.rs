//! The measurement runners behind every figure and table of the evaluation.
//!
//! Each `figN_*` function reproduces one experiment of §11 / §12.4.1 and returns a
//! [`Table`] whose rows/series match what the paper plots; the `figures` binary prints
//! them and EXPERIMENTS.md records them.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    DataOwner, Outsourced, Query, QueryConfig, QueryVariant, Session, VariantChoice,
};
use sectopk_crypto::MasterKeys;
use sectopk_datasets::{generate, DatasetKind, QueryWorkload};
use sectopk_ehl::{EhlEncoder, DEFAULT_BUCKETS};
use sectopk_knn::{encrypt_for_knn, sknn_query};
use sectopk_protocols::TwoClouds;
use sectopk_storage::{Relation, TopKQuery};

use crate::report::{fmt_mb, fmt_secs, Table};
use crate::scale::BenchScale;

/// The k values swept by the time-per-depth figures (the paper uses 2–20).
pub const K_SWEEP: [usize; 5] = [2, 4, 8, 15, 20];

/// The m values swept by the time-per-depth figures (the paper uses 2–8).
pub const M_SWEEP: [usize; 4] = [2, 3, 4, 6];

/// Performance summary of one secure query execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryPerf {
    /// Wall-clock seconds of the query itself (`QueryStats::total_seconds`: `SecQuery`
    /// only — no cloud setup, token minting or resolution).
    pub total_seconds: f64,
    /// Average wall-clock seconds per scanned depth.
    pub seconds_per_depth: f64,
    /// Average bytes exchanged between the clouds per scanned depth.
    pub bytes_per_depth: f64,
    /// Total bytes exchanged.
    pub total_bytes: u64,
    /// Estimated network latency (link from [`BenchScale::link_mbps`]).
    pub latency_seconds: f64,
    /// Number of depths scanned.
    pub depths: usize,
    /// Whether the NRA halting condition was reached before the depth cap.
    pub halted: bool,
}

/// Prepare one dataset: generate the (scaled) relation, the owner keys and the
/// outsourced encrypted relation.  Deterministic in `seed`.
pub fn prepare_dataset(
    kind: DatasetKind,
    rows: usize,
    scale: &BenchScale,
    seed: u64,
) -> (DataOwner, Relation, Outsourced) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = kind.spec().with_rows(rows);
    let relation = generate(&spec, seed);
    let owner = DataOwner::new(scale.modulus_bits, scale.ehl_keys, &mut rng)
        .expect("key generation succeeds");
    let (outsourced, _) =
        owner.outsource_parallel(&relation, &mut rng).expect("relation encryption succeeds");
    (owner, relation, outsourced)
}

/// Run one secure query through the `Session` front door (capped at the scale's
/// `max_depth`) and summarise its cost.
pub fn measure_query(
    owner: &DataOwner,
    relation: &Relation,
    outsourced: &Outsourced,
    query: &TopKQuery,
    config: &QueryConfig,
    scale: &BenchScale,
    seed: u64,
) -> QueryPerf {
    let mut session = owner.connect(outsourced, seed).expect("cloud setup succeeds");
    let query = Query::from_spec(query.clone())
        .with_variant(VariantChoice::Fixed(config.variant))
        .with_max_depth(scale.max_depth.min(relation.len()));
    let resolved = session.execute(&query).expect("secure query succeeds");
    let stats = &resolved.outcome.stats;
    QueryPerf {
        total_seconds: stats.total_seconds,
        seconds_per_depth: stats.seconds_per_depth(),
        bytes_per_depth: stats.bytes_per_depth(),
        total_bytes: stats.channel.bytes,
        latency_seconds: stats.channel.latency_seconds(scale.link_mbps, 0.0),
        depths: stats.depths_scanned,
        halted: stats.halted,
    }
}

// ====================================================================================
// Fig. 7 — EHL vs EHL+ construction time and size
// ====================================================================================

/// Fig. 7a/7b: encode `items` objects with the Bloom-style EHL (H = 23 buckets) and with
/// EHL+ as the relation stores it (one block: `s` HMACs and one encryption per object),
/// reporting construction time and ciphertext size.
pub fn fig7_ehl_construction(scale: &BenchScale) -> Table {
    let mut rng = StdRng::seed_from_u64(7);
    let keys =
        MasterKeys::generate(scale.modulus_bits, scale.ehl_keys, &mut rng).expect("key generation");
    let encoder = EhlEncoder::new(&keys.ehl_keys);
    let pk = &keys.paillier_public;

    let mut table = Table::new(
        "Fig. 7",
        "EHL vs EHL+ construction time and size (per batch of items)",
        &["items", "EHL time", "EHL+ time", "EHL size", "EHL+ size"],
    );
    for &items in &scale.ehl_items {
        let started = Instant::now();
        let mut ehl_bytes = 0usize;
        for i in 0..items {
            let e = encoder
                .encode_bloom(&(i as u64).to_be_bytes(), DEFAULT_BUCKETS, pk, &mut rng)
                .expect("EHL encoding");
            ehl_bytes += e.byte_len();
        }
        let ehl_time = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut plus_bytes = 0usize;
        for i in 0..items {
            let e = encoder.encode(&(i as u64).to_be_bytes(), pk, &mut rng).expect("EHL+ encoding");
            plus_bytes += e.byte_len();
        }
        let plus_time = started.elapsed().as_secs_f64();

        table.push_row(vec![
            items.to_string(),
            fmt_secs(ehl_time),
            fmt_secs(plus_time),
            fmt_mb(ehl_bytes as u64),
            fmt_mb(plus_bytes as u64),
        ]);
    }
    table
}

// ====================================================================================
// Fig. 8 — database encryption per dataset
// ====================================================================================

/// Fig. 8a/8b: encrypt each (scaled) dataset with `Enc(R)` and report time and size.
pub fn fig8_dataset_encryption(scale: &BenchScale) -> Table {
    let mut table = Table::new(
        "Fig. 8",
        "Database encryption Enc(R): time and encrypted size per dataset",
        &["dataset", "rows", "attrs", "time", "encrypted size"],
    );
    for kind in DatasetKind::ALL {
        let rows = kind.spec().rows.min(scale.encryption_rows);
        let relation = generate(&kind.spec().with_rows(rows), 8);
        let mut rng = StdRng::seed_from_u64(8);
        let owner =
            DataOwner::new(scale.modulus_bits, scale.ehl_keys, &mut rng).expect("key generation");
        let started = Instant::now();
        let (_, stats) = owner.outsource_parallel(&relation, &mut rng).expect("encryption");
        let elapsed = started.elapsed().as_secs_f64();
        table.push_row(vec![
            kind.name().to_string(),
            rows.to_string(),
            relation.num_attributes().to_string(),
            fmt_secs(elapsed),
            fmt_mb(stats.encrypted_bytes as u64),
        ]);
    }
    table
}

// ====================================================================================
// Figs. 9–11 — time per depth for Qry_F / Qry_E / Qry_Ba, varying k and m
// ====================================================================================

fn query_figure(
    id: &str,
    caption: &str,
    variant: QueryVariant,
    scale: &BenchScale,
    vary_k: bool,
    p: usize,
) -> Table {
    let config = match variant {
        QueryVariant::Full => QueryConfig::full(),
        QueryVariant::DupElim => QueryConfig::dup_elim(),
        QueryVariant::Batched { .. } => QueryConfig::batched(p),
    };
    let sweep_label = if vary_k { "k" } else { "m" };
    let mut table = Table::new(
        id,
        caption,
        &["dataset", sweep_label, "time / depth", "depths scanned", "bytes / depth"],
    );
    for kind in DatasetKind::ALL {
        let (owner, relation, outsourced) = prepare_dataset(kind, scale.query_rows, scale, 9);
        let m_attrs = relation.num_attributes();
        if vary_k {
            let m = 3.min(m_attrs);
            for &k in &K_SWEEP {
                let query = QueryWorkload::fixed(m_attrs, m, k.min(scale.query_rows), 9);
                let perf = measure_query(&owner, &relation, &outsourced, &query, &config, scale, 9);
                table.push_row(vec![
                    kind.name().to_string(),
                    k.to_string(),
                    fmt_secs(perf.seconds_per_depth),
                    perf.depths.to_string(),
                    fmt_mb(perf.bytes_per_depth as u64),
                ]);
            }
        } else {
            let k = 5;
            for &m in &M_SWEEP {
                let m = m.min(m_attrs);
                let query = QueryWorkload::fixed(m_attrs, m, k, 9);
                let perf = measure_query(&owner, &relation, &outsourced, &query, &config, scale, 9);
                table.push_row(vec![
                    kind.name().to_string(),
                    m.to_string(),
                    fmt_secs(perf.seconds_per_depth),
                    perf.depths.to_string(),
                    fmt_mb(perf.bytes_per_depth as u64),
                ]);
            }
        }
    }
    table
}

/// Fig. 9a: Qry_F time per depth varying k (m = 3).
pub fn fig9a_qry_f_vary_k(scale: &BenchScale) -> Table {
    query_figure(
        "Fig. 9a",
        "Qry_F time per depth, varying k (m = 3)",
        QueryVariant::Full,
        scale,
        true,
        0,
    )
}

/// Fig. 9b: Qry_F time per depth varying m (k = 5).
pub fn fig9b_qry_f_vary_m(scale: &BenchScale) -> Table {
    query_figure(
        "Fig. 9b",
        "Qry_F time per depth, varying m (k = 5)",
        QueryVariant::Full,
        scale,
        false,
        0,
    )
}

/// Fig. 10a: Qry_E time per depth varying k (m = 3).
pub fn fig10a_qry_e_vary_k(scale: &BenchScale) -> Table {
    query_figure(
        "Fig. 10a",
        "Qry_E time per depth, varying k (m = 3)",
        QueryVariant::DupElim,
        scale,
        true,
        0,
    )
}

/// Fig. 10b: Qry_E time per depth varying m (k = 5).
pub fn fig10b_qry_e_vary_m(scale: &BenchScale) -> Table {
    query_figure(
        "Fig. 10b",
        "Qry_E time per depth, varying m (k = 5)",
        QueryVariant::DupElim,
        scale,
        false,
        0,
    )
}

/// Fig. 11a: Qry_Ba time per depth varying k (m = 3, p scaled from the paper's 150).
pub fn fig11a_qry_ba_vary_k(scale: &BenchScale) -> Table {
    let p = batching_parameter(scale);
    query_figure(
        "Fig. 11a",
        "Qry_Ba time per depth, varying k (m = 3)",
        QueryVariant::Batched { p },
        scale,
        true,
        p,
    )
}

/// Fig. 11b: Qry_Ba time per depth varying m (k = 5).
pub fn fig11b_qry_ba_vary_m(scale: &BenchScale) -> Table {
    let p = batching_parameter(scale);
    query_figure(
        "Fig. 11b",
        "Qry_Ba time per depth, varying m (k = 5)",
        QueryVariant::Batched { p },
        scale,
        false,
        p,
    )
}

/// Fig. 11c: Qry_Ba time per depth varying the batching parameter p (k = 5, m = 3).
pub fn fig11c_qry_ba_vary_p(scale: &BenchScale) -> Table {
    let mut table = Table::new(
        "Fig. 11c",
        "Qry_Ba time per depth, varying the batching parameter p",
        &["dataset", "p", "time / depth", "depths scanned"],
    );
    // The paper sweeps p from 200 to 550 at full scale; proportionally smaller here.
    let base = batching_parameter(scale);
    let p_values: Vec<usize> = [1usize, 2, 3, 4].iter().map(|mult| (base * mult).max(1)).collect();
    for kind in DatasetKind::ALL {
        let (owner, relation, outsourced) = prepare_dataset(kind, scale.query_rows, scale, 11);
        let m_attrs = relation.num_attributes();
        let query = QueryWorkload::fixed(m_attrs, 3.min(m_attrs), 5, 11);
        for &p in &p_values {
            let perf = measure_query(
                &owner,
                &relation,
                &outsourced,
                &query,
                &QueryConfig::batched(p),
                scale,
                11,
            );
            table.push_row(vec![
                kind.name().to_string(),
                p.to_string(),
                fmt_secs(perf.seconds_per_depth),
                perf.depths.to_string(),
            ]);
        }
    }
    table
}

/// The batching parameter used at this scale (the paper uses p = 150–500 for
/// 100k–1M-row datasets; proportionally this is a handful of depths at laptop scale).
pub fn batching_parameter(scale: &BenchScale) -> usize {
    (scale.max_depth / 2).max(2)
}

// ====================================================================================
// Fig. 12 — the three variants side by side
// ====================================================================================

/// Fig. 12: Qry_F vs Qry_E vs Qry_Ba time per depth (k = 5, m = 3).
pub fn fig12_variant_comparison(scale: &BenchScale) -> Table {
    let p = batching_parameter(scale);
    let mut table = Table::new(
        "Fig. 12",
        "Query variants compared (k = 5, m = 3)",
        &["dataset", "Qry_F / depth", "Qry_E / depth", "Qry_Ba / depth", "speedup F→Ba"],
    );
    for kind in DatasetKind::ALL {
        let (owner, relation, out) = prepare_dataset(kind, scale.query_rows, scale, 12);
        let m_attrs = relation.num_attributes();
        let query = QueryWorkload::fixed(m_attrs, 3.min(m_attrs), 5, 12);
        let full = measure_query(&owner, &relation, &out, &query, &QueryConfig::full(), scale, 12);
        let elim =
            measure_query(&owner, &relation, &out, &query, &QueryConfig::dup_elim(), scale, 12);
        let batched =
            measure_query(&owner, &relation, &out, &query, &QueryConfig::batched(p), scale, 12);
        let speedup = if batched.seconds_per_depth > 0.0 {
            full.seconds_per_depth / batched.seconds_per_depth
        } else {
            f64::NAN
        };
        table.push_row(vec![
            kind.name().to_string(),
            fmt_secs(full.seconds_per_depth),
            fmt_secs(elim.seconds_per_depth),
            fmt_secs(batched.seconds_per_depth),
            format!("{speedup:.1}x"),
        ]);
    }
    table
}

// ====================================================================================
// Table 3 and Fig. 13 — communication
// ====================================================================================

/// Table 3: total communication bandwidth and latency per dataset (k = 20, m = 4).
pub fn table3_bandwidth(scale: &BenchScale) -> Table {
    let mut table = Table::new(
        "Table 3",
        "Communication bandwidth & latency (k = 20, m = 4, Qry_F)",
        &["dataset", "bandwidth", "latency @50Mbps", "depths"],
    );
    for kind in DatasetKind::ALL {
        let (owner, relation, out) = prepare_dataset(kind, scale.query_rows, scale, 13);
        let m_attrs = relation.num_attributes();
        let query = QueryWorkload::fixed(m_attrs, 4.min(m_attrs), 20.min(scale.query_rows), 13);
        let perf = measure_query(&owner, &relation, &out, &query, &QueryConfig::full(), scale, 13);
        table.push_row(vec![
            kind.name().to_string(),
            fmt_mb(perf.total_bytes),
            fmt_secs(perf.latency_seconds),
            perf.depths.to_string(),
        ]);
    }
    table
}

/// Fig. 13a: bandwidth per depth varying m; Fig. 13b: total bandwidth varying k
/// (synthetic dataset, Qry_F).
pub fn fig13_bandwidth(scale: &BenchScale) -> Table {
    let mut table = Table::new(
        "Fig. 13",
        "Communication on the synthetic dataset (Qry_F): per-depth vs m, total vs k",
        &["sweep", "value", "bytes / depth", "total bandwidth"],
    );
    let (owner, relation, out) =
        prepare_dataset(DatasetKind::Synthetic, scale.query_rows, scale, 14);
    let m_attrs = relation.num_attributes();

    for &m in &M_SWEEP {
        let query = QueryWorkload::fixed(m_attrs, m.min(m_attrs), 5, 14);
        let perf = measure_query(&owner, &relation, &out, &query, &QueryConfig::full(), scale, 14);
        table.push_row(vec![
            "m (k = 5)".to_string(),
            m.to_string(),
            fmt_mb(perf.bytes_per_depth as u64),
            fmt_mb(perf.total_bytes),
        ]);
    }
    for &k in &K_SWEEP {
        let query = QueryWorkload::fixed(m_attrs, 4.min(m_attrs), k.min(scale.query_rows), 14);
        let perf = measure_query(&owner, &relation, &out, &query, &QueryConfig::full(), scale, 14);
        table.push_row(vec![
            "k (m = 4)".to_string(),
            k.to_string(),
            fmt_mb(perf.bytes_per_depth as u64),
            fmt_mb(perf.total_bytes),
        ]);
    }
    table
}

// ====================================================================================
// §11.3 — comparison with the secure kNN baseline
// ====================================================================================

/// §11.3: SecTopK vs the SkNN baseline — per-query time and bandwidth on the same data.
pub fn knn_comparison(scale: &BenchScale) -> Table {
    let mut table = Table::new(
        "§11.3",
        "SecTopK (Qry_E) vs secure-kNN baseline [21], k = 10",
        &[
            "rows",
            "SecTopK time",
            "SecTopK bandwidth",
            "kNN time",
            "kNN bandwidth",
            "kNN secure mults",
        ],
    );
    let mut rng = StdRng::seed_from_u64(113);
    for &rows in &[scale.knn_rows / 2, scale.knn_rows] {
        let kind = DatasetKind::Synthetic;
        let (owner, relation, out) = prepare_dataset(kind, rows, scale, 113);
        let m_attrs = relation.num_attributes();
        let k = 10.min(rows);
        let query = QueryWorkload::fixed(m_attrs, 3.min(m_attrs), k, 113);

        // Both stopwatches cover the query alone: each side's cloud setup (S1's own key
        // pair) happens before its clock starts.
        let topk =
            measure_query(&owner, &relation, &out, &query, &QueryConfig::dup_elim(), scale, 113);

        let db = encrypt_for_knn(&relation, owner.keys(), &mut rng).expect("kNN encryption");
        let mut clouds = TwoClouds::new(owner.keys(), 113).expect("cloud setup");
        let upper = vec![2_000u64; relation.num_attributes()];
        let started = Instant::now();
        let knn = sknn_query(&mut clouds, &db, &upper, k).expect("kNN query");
        let knn_time = started.elapsed().as_secs_f64();

        table.push_row(vec![
            rows.to_string(),
            fmt_secs(topk.total_seconds),
            fmt_mb(topk.total_bytes),
            fmt_secs(knn_time),
            fmt_mb(knn.channel.bytes),
            knn.secure_multiplications.to_string(),
        ]);
    }
    table
}

// ====================================================================================
// Fig. 14 — top-k join
// ====================================================================================

/// Fig. 14: secure top-k join time as a function of the number of joined attributes.
pub fn fig14_topk_join(scale: &BenchScale) -> Table {
    use sectopk_core::{encrypt_for_join, join_token, top_k_join, JoinQuery};

    let mut table = Table::new(
        "Fig. 14",
        "Top-k join ./sec: time vs number of carried attributes (R1, R2 synthetic)",
        &["carried attrs", "time", "bandwidth", "matching pairs"],
    );
    let mut rng = StdRng::seed_from_u64(14);
    let keys =
        MasterKeys::generate(scale.modulus_bits, scale.ehl_keys, &mut rng).expect("key generation");

    // R1: join_rows.0 tuples × 10 attributes, R2: join_rows.1 tuples × 15 attributes, as
    // in §12.4.1 (scaled).  Join keys drawn from a small domain so matches exist.
    let r1 = join_relation(scale.join_rows.0, 10, 21);
    let r2 = join_relation(scale.join_rows.1, 15, 22);
    let enc_r1 = encrypt_for_join(&r1, &keys, "join/left", &mut rng).expect("encrypt R1");
    let enc_r2 = encrypt_for_join(&r2, &keys, "join/right", &mut rng).expect("encrypt R2");

    for &carried in &[1usize, 3, 5, 8] {
        let query = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 5 };
        let carry_left: Vec<usize> = (0..carried.min(10)).collect();
        let carry_right: Vec<usize> = (0..carried.min(15)).collect();
        let token =
            join_token(&keys, 10, 15, &query, &carry_left, &carry_right).expect("join token");
        let mut clouds = TwoClouds::new(&keys, 14).expect("cloud setup");
        let started = Instant::now();
        let outcome = top_k_join(&mut clouds, &enc_r1, &enc_r2, &token).expect("secure join");
        let elapsed = started.elapsed().as_secs_f64();
        table.push_row(vec![
            (carry_left.len() + carry_right.len()).to_string(),
            fmt_secs(elapsed),
            fmt_mb(clouds.channel().bytes),
            outcome.matching_pairs.to_string(),
        ]);
    }
    table
}

/// A synthetic relation for the join benchmark: attribute 0 is a small-domain join key,
/// the rest are uniform scores.
fn join_relation(rows: usize, attributes: usize, seed: u64) -> Relation {
    use rand::Rng;
    use sectopk_storage::{ObjectId, Row};
    let mut rng = StdRng::seed_from_u64(seed);
    Relation::from_rows(
        (0..rows)
            .map(|i| {
                let mut values = vec![rng.gen_range(0..16u64)];
                values.extend((1..attributes).map(|_| rng.gen_range(0..1_000u64)));
                Row { id: ObjectId(i as u64), values }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> BenchScale {
        BenchScale::smoke()
    }

    #[test]
    fn fig7_produces_one_row_per_size() {
        let t = fig7_ehl_construction(&smoke());
        assert_eq!(t.rows.len(), smoke().ehl_items.len());
    }

    #[test]
    fn fig8_covers_all_datasets() {
        let t = fig8_dataset_encryption(&smoke());
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("insurance"));
    }

    #[test]
    fn query_perf_is_measured() {
        let scale = smoke();
        let (owner, relation, out) =
            prepare_dataset(DatasetKind::Insurance, scale.query_rows, &scale, 1);
        let query = QueryWorkload::fixed(relation.num_attributes(), 2, 2, 1);
        let perf =
            measure_query(&owner, &relation, &out, &query, &QueryConfig::dup_elim(), &scale, 1);
        assert!(perf.seconds_per_depth > 0.0);
        assert!(perf.total_bytes > 0);
        assert!(perf.depths >= 1 && perf.depths <= scale.max_depth);
    }

    #[test]
    fn knn_comparison_has_two_rows() {
        let t = knn_comparison(&smoke());
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn join_relation_shape() {
        let r = join_relation(12, 5, 3);
        assert_eq!(r.len(), 12);
        assert_eq!(r.num_attributes(), 5);
    }

    #[test]
    fn batching_parameter_is_positive() {
        assert!(batching_parameter(&smoke()) >= 2);
        assert!(batching_parameter(&BenchScale::laptop()) >= 2);
    }
}
