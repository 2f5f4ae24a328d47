//! Ullman's beer-drinkers schema (Examples 3 and 7, Fig. 6): the semijoin
//! algebra, the guarded fragment, their Theorem 8 translations, and a
//! guarded-bisimulation inexpressibility proof — all executed through the
//! [`Engine`].
//!
//! ```bash
//! cargo run --example beer_drinkers
//! ```

use setjoins::prelude::*;
use sj_bisim::are_bisimilar;
use sj_logic::{eval_query, gf_to_sa, sa_to_gf};
use sj_workload::figures;

fn main() {
    let engine = Engine::new(figures::example3_beer_db());
    let schema = engine.db().schema();

    // Example 3: the lousy-bar query in the semijoin algebra SA=.
    let e3 = sj_algebra::division::example3_lousy_bar_sa();
    println!("Example 3 (SA=):\n  {e3}");
    let drinkers = engine.query(e3.clone()).run().unwrap().relation;
    println!("  drinkers visiting a lousy bar: {:?}\n", drinkers.tuples());

    // Example 7: the same query in the guarded fragment GF.
    let phi = sj_logic::formula::example7_lousy_bar();
    println!("Example 7 (GF):\n  {phi}");
    let candidates = engine.db().active_domain();
    let via_gf = eval_query(engine.db(), &phi, &["x".into()], &candidates);
    println!("  GF answers: {via_gf:?}\n");
    assert_eq!(via_gf, drinkers.tuples().to_vec());

    // Theorem 8, executed in both directions.
    let gf = sa_to_gf(&e3, &schema).unwrap();
    println!("Theorem 8, SA= → GF:\n  {}\n", gf.formula);
    let via_translation = eval_query(engine.db(), &gf.formula, &gf.free_vars, &candidates);
    assert_eq!(via_translation, drinkers.tuples().to_vec());
    let sa = gf_to_sa(&phi, &schema, &[]).unwrap();
    println!("Theorem 8, GF → SA=:\n  {}\n", sa.expr);
    assert_eq!(engine.query(sa.expr).run().unwrap().relation, drinkers);

    // Section 4.1: the CYCLIC query "drinkers visiting a bar serving a
    // beer they like" is NOT expressible in SA= — shown by the Fig. 6
    // bisimulation — hence every RA plan for it is quadratic.
    let (a, b) = (figures::fig6_a(), figures::fig6_b());
    let q = sj_algebra::division::cyclic_beer_query_ra();
    println!("Cyclic query Q (RA):\n  {q}");
    let on = |db: Database| Engine::new(db).query(q.clone()).run().unwrap().relation;
    println!("  Q on Fig. 6 A: {:?}", on(a.clone()).tuples());
    println!("  Q on Fig. 6 B: {:?}", on(b.clone()).tuples());
    let cert = are_bisimilar(&a, &tuple!["alex"], &b, &tuple!["alex"], &[])
        .expect("Fig. 6 pair is guarded bisimilar");
    println!(
        "  yet (A, alex) ~ (B, alex): guarded bisimulation with {} partial \
         isomorphisms found.",
        cert.len()
    );
    println!(
        "  ⇒ Q is not in SA=, so by the dichotomy theorem every RA \
         expression for Q is quadratic."
    );

    // Measure it: the join plan's intermediates on a growing bar scene,
    // via an instrumented naive engine (per-tree-node cardinalities).
    println!("\nIntermediate sizes of the cyclic-query join plan:");
    for k in [20i64, 40, 80, 160] {
        let mut big = Database::new();
        // k drinkers, k bars, k beers; drinker i visits bar i, bar i
        // serves beers i and i+1, drinker i likes beer i+1 of the NEXT
        // bar — a sparse cyclic pattern.
        let visits: Vec<[i64; 2]> = (0..k).map(|i| [i, 1000 + i]).collect();
        let serves: Vec<[i64; 2]> = (0..k)
            .flat_map(|i| [[1000 + i, 2000 + i], [1000 + i, 2000 + (i + 1) % k]])
            .collect();
        let likes: Vec<[i64; 2]> = (0..k).map(|i| [i, 2000 + (i + 1) % k]).collect();
        let to_rel = |rows: &[[i64; 2]]| {
            Relation::from_tuples(2, rows.iter().map(|r| Tuple::from_ints(r))).unwrap()
        };
        big.set("Visits", to_rel(&visits));
        big.set("Serves", to_rel(&serves));
        big.set("Likes", to_rel(&likes));
        let out = Engine::new(big)
            .strategy(Strategy::Naive)
            .instrument(Instrument::Cardinalities)
            .query(q.clone())
            .run()
            .unwrap();
        let report = out.report.unwrap();
        println!(
            "  |D| = {:>4}  max intermediate = {:>6}  output = {}",
            report.db_size,
            report.max_intermediate(),
            out.relation.len()
        );
    }
}
