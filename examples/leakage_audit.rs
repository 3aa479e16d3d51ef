//! Leakage audit: run the same query under each processing variant and print exactly
//! what each cloud observed, next to the leakage profile Theorem 9.2 allows.
//!
//! ```text
//! cargo run --release -p sectopk-examples --example leakage_audit
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    check_ledgers, profile_for, DataOwner, Query, QueryVariant, Session, VariantChoice,
};
use sectopk_datasets::fig3_relation;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let relation = fig3_relation();
    let owner = DataOwner::new(128, 4, &mut rng).expect("key generation");
    let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("encryption");

    println!("setup leakage L_Setup(R) = (|R|, M) = {:?}\n", outsourced.er().setup_leakage());

    for variant in [QueryVariant::Full, QueryVariant::DupElim, QueryVariant::Batched { p: 2 }] {
        let query = Query::top_k(2)
            .attribute_indices([0, 1, 2])
            .variant(VariantChoice::Fixed(variant))
            .build()
            .expect("query validates");

        let mut session = owner.connect(&outsourced, 123).expect("cloud setup");
        let answer = session.execute(&query).expect("query");

        let profile = profile_for(variant);
        let (s1, s2) = (session.s1_ledger(), session.s2_ledger());
        println!("==== {} ====", variant.name());
        println!(
            "  halting depth: {} (halted: {})",
            answer.stats().depths_scanned,
            answer.stats().halted
        );
        println!("  allowed S1 view: {:?}", profile.s1_allowed);
        println!("  observed S1 view: {:?}", s1.kind_histogram());
        println!("  allowed S2 view: {:?}", profile.s2_allowed);
        println!("  observed S2 view: {:?}", s2.kind_histogram());
        match check_ledgers(&s1, &s2, variant) {
            Ok(()) => println!("  OK: recorded views are within the allowed leakage profile"),
            Err(e) => println!("  VIOLATION: {e}"),
        }
        let (equal, total) = sectopk_core::leakage::s2_equality_pattern_summary(session.clouds());
        println!("  S2 equality pattern: {equal}/{total} pairwise tests were 'equal'");
        println!(
            "  channel: {:.3} MB, {} rounds\n",
            session.metrics().megabytes(),
            session.metrics().rounds
        );
    }
}
