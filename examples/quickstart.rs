//! Quickstart: build an [`Engine`], run a division three ways, and watch
//! the dichotomy.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use setjoins::prelude::*;
use sj_core::{analyze, Verdict};
use sj_storage::display::render_relation;

fn main() {
    // 1. A tiny enrollment database: which students take which courses?
    let enrolled = Relation::from_str_rows(&[
        &["ada", "algebra"],
        &["ada", "calculus"],
        &["ada", "databases"],
        &["bob", "algebra"],
        &["bob", "databases"],
        &["eve", "calculus"],
    ]);
    let required = Relation::from_str_rows(&[&["algebra"], &["databases"]]);

    println!(
        "{}",
        render_relation(&enrolled, "Enrolled", &["student", "course"])
    );
    println!("{}", render_relation(&required, "Required", &["course"]));

    // 2. One engine over the data. Division routes through the algorithm
    // registry, which picks the algorithm the cost model prices cheapest
    // on the operands' statistics.
    let mut db = Database::new();
    db.set("R", enrolled);
    db.set("S", required);
    let engine = Engine::new(db)
        .strategy(Strategy::Naive)
        .instrument(Instrument::Cardinalities);
    let graduates = engine
        .divide("R", "S", DivisionSemantics::Containment)
        .unwrap();
    println!(
        "{}",
        render_relation(&graduates.relation, "Enrolled ÷ Required", &["student"])
    );
    println!(
        "(direct division ran {} — {})",
        graduates.algorithm, graduates.complexity
    );

    // 3. The same query as a classical relational-algebra plan …
    let plan = sj_algebra::division::division_double_difference("R", "S");
    println!("\nclassical RA plan: {plan}");
    let out = engine.query(plan).run().unwrap();
    assert_eq!(out.relation, graduates.relation);
    let report = out.report.unwrap();
    println!(
        "same answer; but the plan's largest intermediate holds {} tuples \
         on a {}-tuple database:",
        report.max_intermediate(),
        report.db_size
    );
    println!("{}", report.render());

    // 4. … and the paper explains why: division is not expressible in the
    // semijoin algebra, so EVERY RA plan has a quadratic intermediate
    // (Proposition 26). The analyzer finds the witness:
    let plan = sj_algebra::division::division_double_difference("R", "S");
    let schema = engine.db().schema();
    match analyze(&plan, &schema, &[engine.db().clone()]).unwrap() {
        Verdict::Quadratic { witness } => {
            println!(
                "analyzer verdict: QUADRATIC — witnessed at join node {} by the \
                 pair {} ⋈ {} with free values {:?} / {:?}",
                witness.node_id, witness.a, witness.b, witness.f1, witness.f2
            );
            // The pump construction allocates order-respecting fresh
            // values over the integers; renumber the string data first.
            let mut dict: Vec<Value> = witness.db.active_domain();
            dict.sort();
            let renum = |v: &Value| Value::int(dict.iter().position(|w| w == v).unwrap() as i64);
            let int_witness = sj_core::QuadraticWitness {
                db: witness.db.map_values(renum),
                a: witness.a.iter().map(renum).collect(),
                b: witness.b.iter().map(renum).collect(),
                f1: witness.f1.iter().map(renum).collect(),
                f2: witness.f2.iter().map(renum).collect(),
                ..*witness
            };
            let pump = int_witness.pump(&[], 16).unwrap();
            println!("pumping the witness (Lemma 24):");
            for n in [2usize, 4, 8, 16] {
                let (size, pairs) = pump.verify(n);
                println!(
                    "  n = {n:>2}: |Dn| = {size:>3} (linear), joining pairs = {pairs:>4} (= n²)"
                );
            }
        }
        other => println!("analyzer verdict: {other:?}"),
    }

    // 5. With grouping and counting (Section 5 of the paper), a linear
    // expression exists:
    let counting = sj_algebra::division::division_counting("R", "S");
    println!("\nextended-RA plan (linear): {counting}");
}
