//! Exact reproductions of every figure in the paper (experiments E1–E6 of
//! DESIGN.md). Each test asserts the *precise* relation contents the paper
//! prints, and machine-checks every claim made in the surrounding text.

use setjoins::prelude::*;
use sj_bisim::{are_bisimilar, check_bisimulation, Bisimulation, PartialIso};
use sj_core::Pump;
use sj_eval::evaluate;
use sj_logic::{is_c_stored, satisfies};
use sj_workload::figures;

// ---------------------------------------------------------------------------
// E1 — Fig. 1: set-containment join and division illustration
// ---------------------------------------------------------------------------

#[test]
fn fig1_set_containment_join_table() {
    let engine = Engine::new(figures::fig1());
    let got = engine
        .set_join("Person", "Disease", SetPredicate::Contains)
        .unwrap();
    assert_eq!(got.relation, figures::fig1_expected_join());
}

#[test]
fn fig1_division_table() {
    let engine = Engine::new(figures::fig1());
    let got = engine
        .divide("Person", "Symptoms", DivisionSemantics::Containment)
        .unwrap();
    assert_eq!(got.relation, figures::fig1_expected_division());
}

#[test]
fn fig1_every_algorithm_and_the_ra_plan_agree() {
    let db = figures::fig1();
    let person = db.get("Person").unwrap();
    let symptoms = db.get("Symptoms").unwrap();
    // Every registered division algorithm, forced through the registry.
    for alg in Registry::standard().division_algorithms() {
        let out = setjoins::setjoin::run_division_traced(
            alg,
            person,
            symptoms,
            DivisionSemantics::Containment,
            1,
        );
        assert_eq!(out, figures::fig1_expected_division(), "{}", alg.name());
    }
    // The quadratic RA plan computes the same table.
    let mut ra_db = Database::new();
    ra_db.set("R", person.clone());
    ra_db.set("S", symptoms.clone());
    let plan = sj_algebra::division::division_double_difference("R", "S");
    assert_eq!(
        evaluate(&plan, &ra_db).unwrap(),
        figures::fig1_expected_division()
    );
    // And the set-containment join RA plan reproduces the join table.
    let mut sj_db = Database::new();
    sj_db.set("R", person.clone());
    sj_db.set("S", db.get("Disease").unwrap().clone());
    let join_plan = sj_algebra::division::set_containment_join_plan("R", "S");
    assert_eq!(
        evaluate(&join_plan, &sj_db).unwrap(),
        figures::fig1_expected_join()
    );
}

// ---------------------------------------------------------------------------
// E2 — Fig. 2 / Example 5: C-stored tuples
// ---------------------------------------------------------------------------

#[test]
fn fig2_c_stored_examples() {
    let db = figures::fig2();
    let c = [Value::str("a")];
    assert!(is_c_stored(&db, &tuple!["b", "c"], &c));
    assert!(is_c_stored(&db, &tuple!["a", "f"], &c));
    assert!(!is_c_stored(&db, &tuple!["e", "c"], &c));
    assert!(!is_c_stored(&db, &tuple!["g"], &c));
}

// ---------------------------------------------------------------------------
// E3 — Fig. 3 / Example 12: guarded bisimulation
// ---------------------------------------------------------------------------

#[test]
fn fig3_example12_bisimulation_verifies() {
    let (a, b) = (figures::fig3_a(), figures::fig3_b());
    let i = Bisimulation::new(
        [
            (tuple![1, 2], tuple![6, 7]),
            (tuple![2, 3], tuple![7, 8]),
            (tuple![1, 2], tuple![9, 10]),
            (tuple![2, 3], tuple![10, 11]),
        ]
        .iter()
        .map(|(x, y)| PartialIso::from_tuples(x, y).unwrap()),
    );
    check_bisimulation(&a, &b, &i, &[]).unwrap_or_else(|e| panic!("{e}"));
    // The solver rediscovers the bisimilarity without being given I.
    assert!(are_bisimilar(&a, &tuple![1, 2], &b, &tuple![6, 7], &[]).is_some());
}

// ---------------------------------------------------------------------------
// E4 — Fig. 4: the pump construction
// ---------------------------------------------------------------------------

#[test]
fn fig4_pump_reproduces_d2_and_d3() {
    let db = figures::fig4();
    let (e, e1, e2) = figures::fig4_expression();
    // ā = (1,2,3) and b̄ = (3,4,5) are exactly E₁(D) and E₂(D).
    assert_eq!(
        evaluate(&e1, &db).unwrap().tuples().to_vec(),
        vec![tuple![1, 2, 3]]
    );
    assert_eq!(
        evaluate(&e2, &db).unwrap().tuples().to_vec(),
        vec![tuple![3, 4, 5]]
    );
    let pump = Pump::new(
        &db,
        &Condition::eq(3, 1),
        &tuple![1, 2, 3],
        &tuple![3, 4, 5],
        &[],
        8,
    )
    .unwrap();
    // Paper sizes: |D₂| = 9, |D₃| = 13 (four copies per step).
    assert_eq!(pump.database(2).size(), 9);
    assert_eq!(pump.database(3).size(), 13);
    // Lemma 24's guarantees, measured on the real expression.
    for n in [2usize, 3, 5, 8] {
        let dn = pump.database(n);
        assert!(dn.size() <= 2 * 5 * n);
        let out = evaluate(&e, &dn).unwrap();
        assert!(out.len() >= n * n, "n={n}: {} < {}", out.len(), n * n);
    }
}

// ---------------------------------------------------------------------------
// E5 — Fig. 5 / Proposition 26: division is not in SA=
// ---------------------------------------------------------------------------

#[test]
fn fig5_division_differs_but_databases_bisimilar() {
    let (a, b) = (figures::fig5_a(), figures::fig5_b());
    // R ÷ S = {1, 2} on A …
    let div_a = Engine::new(a.clone())
        .divide("R", "S", DivisionSemantics::Containment)
        .unwrap();
    assert_eq!(div_a.relation, Relation::from_int_rows(&[&[1], &[2]]));
    // … and ∅ on B, in both variants.
    let eb = Engine::new(b.clone());
    for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
        assert!(eb.divide("R", "S", sem).unwrap().relation.is_empty());
    }
    // Yet A,1 ∼ B,1: no SA= expression can express division (Cor. 14).
    let cert = are_bisimilar(&a, &tuple![1], &b, &tuple![1], &[]).expect("bisimilar");
    check_bisimulation(&a, &b, &cert, &[]).unwrap();
}

#[test]
fn fig5_proof_set_i_verifies() {
    // The proof's I: {1→1} ∪ {ā→b̄ : same-relation tuple pairs}.
    let (a, b) = (figures::fig5_a(), figures::fig5_b());
    let mut isos = vec![PartialIso::from_tuples(&tuple![1], &tuple![1]).unwrap()];
    for rel in ["R", "S"] {
        for ta in a.get(rel).unwrap() {
            for tb in b.get(rel).unwrap() {
                isos.push(PartialIso::from_tuples(ta, tb).unwrap());
            }
        }
    }
    check_bisimulation(&a, &b, &Bisimulation::new(isos), &[]).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fig5_set_join_variant_with_tag_column() {
    // "To handle the set join version … insert a column into relation S
    // with always the same value 4": the bisimulation survives.
    let (mut a, mut b) = (figures::fig5_a(), figures::fig5_b());
    let tag = |db: &Database| {
        Relation::from_tuples(2, db.get("S").unwrap().iter().map(|t| tuple![4].concat(t))).unwrap()
    };
    let (sa, sb) = (tag(&a), tag(&b));
    a.set("S", sa);
    b.set("S", sb);
    assert!(are_bisimilar(&a, &tuple![1], &b, &tuple![1], &[]).is_some());
    // The set-containment join is nonempty on A, empty on B.
    let join = |db: &Database| {
        Engine::new(db.clone())
            .set_join("R", "S", SetPredicate::Contains)
            .unwrap()
            .relation
    };
    assert!(!join(&a).is_empty());
    assert!(join(&b).is_empty());
}

// ---------------------------------------------------------------------------
// E6 — Fig. 6 / Section 4.1: the cyclic beer-drinkers query
// ---------------------------------------------------------------------------

#[test]
fn fig6_query_differs_but_databases_bisimilar() {
    let (a, b) = (figures::fig6_a(), figures::fig6_b());
    let q = sj_algebra::division::cyclic_beer_query_ra();
    // In A, Alex visits a bar serving a beer he likes.
    assert_eq!(
        evaluate(&q, &a).unwrap(),
        Relation::from_str_rows(&[&["alex"]])
    );
    // In B, nobody does.
    assert!(evaluate(&q, &b).unwrap().is_empty());
    // Yet (A, alex) ∼ (B, alex).
    let cert = are_bisimilar(&a, &tuple!["alex"], &b, &tuple!["alex"], &[]).expect("bisimilar");
    check_bisimulation(&a, &b, &cert, &[]).unwrap();
}

#[test]
fn fig6_proof_set_i_verifies() {
    let (a, b) = (figures::fig6_a(), figures::fig6_b());
    let mut isos = vec![PartialIso::from_tuples(&tuple!["alex"], &tuple!["alex"]).unwrap()];
    for rel in ["Visits", "Serves", "Likes"] {
        for ta in a.get(rel).unwrap() {
            for tb in b.get(rel).unwrap() {
                isos.push(PartialIso::from_tuples(ta, tb).unwrap());
            }
        }
    }
    check_bisimulation(&a, &b, &Bisimulation::new(isos), &[]).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fig6_gf_formula_invariance() {
    // Proposition 13 concretely: Example 7's GF formula (the lousy-bar
    // query) evaluates identically on alex in both Fig. 6 databases.
    let (a, b) = (figures::fig6_a(), figures::fig6_b());
    let phi = sj_logic::formula::example7_lousy_bar();
    let env: sj_logic::Assignment = [("x".to_string(), Value::str("alex"))]
        .into_iter()
        .collect();
    assert_eq!(satisfies(&a, &phi, &env), satisfies(&b, &phi, &env));
}
