//! The twelve experiments: every table and figure of the reproduction,
//! as functions that print their narrative and return the table they
//! regenerate.
//!
//! Everything here is a count, an exponent or a verdict — Definition 16
//! measures tuples, not seconds — so a rerun reproduces each table to
//! the byte. `crates/bench/tests/results.rs` holds the committed
//! `results/*.csv` to exactly that; wall-clock measurement lives in
//! `benchmark/` and nowhere else.

use crate::{beer_database, beer_database_adversarial, standard_adversarial_series, CsvSink};
use sj_algebra::{division, Condition, Expr};
use sj_bisim::{are_bisimilar, check_bisimulation, Bisimulation, PartialIso};
use sj_core::{analyze, measure_growth, Pump, Verdict};
use sj_eval::{Engine, Instrument, Strategy};
use sj_setjoin::{DivisionSemantics, SetPredicate};
use sj_storage::display::{render_database, render_relation};
use sj_storage::{tuple, Database, Relation, Schema};
use sj_workload::{figures, DivisionWorkload, ElementDist, SetJoinWorkload, SetSizeDist};

/// One experiment: prints its narrative to stdout, asserts the paper's
/// claim, and returns the CSV it regenerates (if it has one).
pub type Experiment = fn() -> Option<CsvSink>;

/// Every experiment by the name the `experiments` binary takes.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("dichotomy", dichotomy),
    ("division-ra", division_ra),
    ("division-linear", division_linear),
    ("signature-ablation", signature_ablation),
    ("semijoin", semijoin_linear),
    ("distinguish", distinguish),
];

/// An instrumented naive engine — the measurement instrument for all the
/// per-tree-node intermediate-size experiments.
fn measuring_engine(db: Database) -> Engine {
    Engine::new(db)
        .strategy(Strategy::Naive)
        .instrument(Instrument::Cardinalities)
}

// ---------------------------------------------------------------------------
// E1 — Fig. 1
// ---------------------------------------------------------------------------

fn fig1() -> Option<CsvSink> {
    let engine = Engine::new(figures::fig1());
    print!("{}", render_database(engine.db(), "Fig. 1 input"));
    let join = engine
        .set_join("Person", "Disease", SetPredicate::Contains)
        .unwrap();
    print!(
        "{}",
        render_relation(&join.relation, "Person ⋈[⊇] Disease", &["pName", "dName"])
    );
    assert_eq!(join.relation, figures::fig1_expected_join());
    let quot = engine
        .divide("Person", "Symptoms", DivisionSemantics::Containment)
        .unwrap();
    print!(
        "{}",
        render_relation(&quot.relation, "Person ÷ Symptoms", &["pName"])
    );
    assert_eq!(quot.relation, figures::fig1_expected_division());
    println!(
        "fig1: REPRODUCED (join via {}, division via {} — both registry-routed)",
        join.algorithm, quot.algorithm
    );
    None
}

// ---------------------------------------------------------------------------
// E2 — Fig. 2 / Example 5
// ---------------------------------------------------------------------------

fn fig2() -> Option<CsvSink> {
    let db = figures::fig2();
    print!("{}", render_database(&db, "Fig. 2 database"));
    let c = [sj_storage::Value::str("a")];
    for (t, expect) in [
        (tuple!["b", "c"], true),
        (tuple!["a", "f"], true),
        (tuple!["e", "c"], false),
        (tuple!["g"], false),
    ] {
        let got = sj_logic::is_c_stored(&db, &t, &c);
        println!("  {t} C-stored (C = {{a}})? {got}   (paper: {expect})");
        assert_eq!(got, expect);
    }
    println!("fig2: REPRODUCED (Example 5's four C-storedness claims)");
    None
}

// ---------------------------------------------------------------------------
// E3 — Fig. 3 / Example 12
// ---------------------------------------------------------------------------

fn fig3() -> Option<CsvSink> {
    let (a, b) = (figures::fig3_a(), figures::fig3_b());
    print!("{}", render_database(&a, "Fig. 3, A"));
    print!("{}", render_database(&b, "Fig. 3, B"));
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
    check_bisimulation(&a, &b, &i, &[]).expect("Example 12's set verifies");
    println!("Example 12's four partial isomorphisms form a ∅-guarded bisimulation ✓");
    let maximal = sj_bisim::maximal_bisimulation(&a, &b, &[]);
    println!(
        "solver: maximal guarded bisimulation has {} partial isomorphisms",
        maximal.len()
    );
    println!("fig3: REPRODUCED");
    None
}

// ---------------------------------------------------------------------------
// E4 — Fig. 4: the pump construction, table + growth CSV
// ---------------------------------------------------------------------------

fn fig4() -> Option<CsvSink> {
    let db = figures::fig4();
    let (e, _, _) = figures::fig4_expression();
    print!("{}", render_database(&db, "Fig. 4, D = D1"));
    let pump = Pump::new(
        &db,
        &Condition::eq(3, 1),
        &tuple![1, 2, 3],
        &tuple![3, 4, 5],
        &[],
        64,
    )
    .unwrap();
    print!("{}", render_database(&pump.database(2), "D2"));
    print!("{}", render_database(&pump.database(3), "D3"));
    assert_eq!(pump.database(2).size(), 9);
    assert_eq!(pump.database(3).size(), 13);
    let mut csv = CsvSink::new(
        "fig4_pump_growth",
        &["n", "db_size", "expression_output", "n_squared"],
    );
    println!("  n   |Dn|   |E(Dn)|   n²");
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let dn = pump.database(n);
        let out = Engine::new(dn.clone())
            .query(e.clone())
            .run()
            .unwrap()
            .relation
            .len();
        println!("{n:>3}  {:>5}  {out:>8}  {:>5}", dn.size(), n * n);
        assert!(out >= n * n);
        csv.row(&[
            n.to_string(),
            dn.size().to_string(),
            out.to_string(),
            (n * n).to_string(),
        ]);
    }
    println!("fig4: REPRODUCED (D2/D3 sizes match; |E(Dn)| ≥ n²)");
    Some(csv)
}

// ---------------------------------------------------------------------------
// E5 — Fig. 5 / Proposition 26
// ---------------------------------------------------------------------------

fn fig5() -> Option<CsvSink> {
    let (a, b) = (figures::fig5_a(), figures::fig5_b());
    print!("{}", render_database(&a, "Fig. 5, A"));
    print!("{}", render_database(&b, "Fig. 5, B"));
    let div = |db: &Database| {
        Engine::new(db.clone())
            .divide("R", "S", DivisionSemantics::Containment)
            .unwrap()
            .relation
    };
    let (div_a, div_b) = (div(&a), div(&b));
    print!("{}", render_relation(&div_a, "A: R ÷ S", &["A"]));
    print!("{}", render_relation(&div_b, "B: R ÷ S", &["A"]));
    assert_eq!(div_a, Relation::from_int_rows(&[&[1], &[2]]));
    assert!(div_b.is_empty());
    let cert =
        are_bisimilar(&a, &tuple![1], &b, &tuple![1], &[]).expect("A,1 ~ B,1 per Proposition 26");
    println!(
        "A,1 ∼ B,1 via a guarded bisimulation with {} partial isomorphisms ⇒ \
         division ∉ SA= ⇒ every RA division plan is quadratic.",
        cert.len()
    );
    println!("fig5: REPRODUCED");
    None
}

// ---------------------------------------------------------------------------
// E6 — Fig. 6 / Section 4.1
// ---------------------------------------------------------------------------

fn fig6() -> Option<CsvSink> {
    let (a, b) = (figures::fig6_a(), figures::fig6_b());
    print!("{}", render_database(&a, "Fig. 6, A"));
    print!("{}", render_database(&b, "Fig. 6, B"));
    let q = division::cyclic_beer_query_ra();
    let qa = Engine::new(a.clone())
        .query(q.clone())
        .run()
        .unwrap()
        .relation;
    let qb = Engine::new(b.clone())
        .query(q.clone())
        .run()
        .unwrap()
        .relation;
    println!("Q(A) = {:?}   Q(B) = {:?}", qa.tuples(), qb.tuples());
    assert_eq!(qa, Relation::from_str_rows(&[&["alex"]]));
    assert!(qb.is_empty());
    let cert =
        are_bisimilar(&a, &tuple!["alex"], &b, &tuple!["alex"], &[]).expect("(A,alex) ~ (B,alex)");
    println!(
        "(A, alex) ∼ (B, alex) with {} partial isomorphisms ⇒ Q ∉ SA= ⇒ \
         every RA plan for Q is quadratic.",
        cert.len()
    );
    println!("fig6: REPRODUCED");
    None
}

// ---------------------------------------------------------------------------
// E7 — the dichotomy table (Theorem 17)
// ---------------------------------------------------------------------------

fn dichotomy() -> Option<CsvSink> {
    let schema = Schema::new([("R", 2), ("S", 1)]);
    let seeds = vec![DivisionWorkload {
        groups: 6,
        divisor_size: 3,
        containment_fraction: 0.5,
        extra_per_group: 2,
        noise_domain: 16,
        seed: 5,
    }
    .database()];
    let series = standard_adversarial_series();
    let corpus: Vec<(&str, Expr)> = vec![
        (
            "division double-difference",
            division::division_double_difference("R", "S"),
        ),
        ("division via join", division::division_via_join("R", "S")),
        ("division equality", division::division_equality("R", "S")),
        ("cartesian product", Expr::rel("R").product(Expr::rel("S"))),
        (
            "fk join",
            Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S")),
        ),
        (
            "semijoin",
            Expr::rel("R").semijoin(Condition::eq(2, 1), Expr::rel("S")),
        ),
        ("projection", Expr::rel("R").project([1])),
        ("union", Expr::rel("R").project([1]).union(Expr::rel("S"))),
        (
            "selection+swap",
            Expr::rel("R").select_lt(1, 2).project([2, 1]),
        ),
        (
            "difference",
            Expr::rel("R").diff(Expr::rel("R").select_eq(1, 2)),
        ),
        (
            "theta join <",
            Expr::rel("R").join(Condition::lt(1, 1), Expr::rel("S")),
        ),
    ];
    let mut csv = CsvSink::new("dichotomy", &["plan", "verdict", "exponent"]);
    println!(
        "{:<28} {:<14} exponent (max intermediate vs |D|)",
        "plan", "verdict"
    );
    for (name, e) in corpus {
        let verdict = match analyze(&e, &schema, &seeds).unwrap() {
            Verdict::Linear { .. } => "linear",
            Verdict::Quadratic { .. } => "quadratic",
            Verdict::Undetermined => "undetermined",
        };
        let report = measure_growth(&e, &series).unwrap();
        println!("{name:<28} {verdict:<14} {:.2}", report.exponent);
        csv.row(&[
            name.into(),
            verdict.into(),
            format!("{:.4}", report.exponent),
        ]);
    }
    println!("dichotomy: exponents cluster at ≈1 and ≈2, nothing in (1.3, 1.7) — Theorem 17");
    Some(csv)
}

// ---------------------------------------------------------------------------
// E8 — RA division plans are quadratic (Proposition 26), measured
// ---------------------------------------------------------------------------

fn division_ra() -> Option<CsvSink> {
    let series = standard_adversarial_series();
    let mut csv = CsvSink::new(
        "division_ra_intermediates",
        &["plan", "db_size", "max_intermediate"],
    );
    for (name, plan) in [
        (
            "double-difference",
            division::division_double_difference("R", "S"),
        ),
        ("via-join", division::division_via_join("R", "S")),
        ("equality", division::division_equality("R", "S")),
    ] {
        let report = measure_growth(&plan, &series).unwrap();
        println!("plan {name}: exponent {:.2}", report.exponent);
        for p in &report.points {
            println!(
                "  |D| = {:>4}  max intermediate = {:>7}",
                p.db_size, p.max_intermediate
            );
            csv.row(&[
                name.into(),
                p.db_size.to_string(),
                p.max_intermediate.to_string(),
            ]);
        }
        assert!(report.exponent > 1.7);
    }
    println!("division-ra: all plans quadratic, as Proposition 26 demands");
    Some(csv)
}

// ---------------------------------------------------------------------------
// E9 — the Section 5 linear expression, measured
// ---------------------------------------------------------------------------

fn division_linear() -> Option<CsvSink> {
    let series = standard_adversarial_series();
    let mut csv = CsvSink::new(
        "division_linear_intermediates",
        &["plan", "db_size", "max_intermediate"],
    );
    for (name, plan) in [
        ("counting", division::division_counting("R", "S")),
        (
            "counting-eq",
            division::division_equality_counting("R", "S"),
        ),
    ] {
        let report = measure_growth(&plan, &series).unwrap();
        println!("plan {name}: exponent {:.2}", report.exponent);
        for p in &report.points {
            println!(
                "  |D| = {:>4}  max intermediate = {:>5}  (≤ |D|+2)",
                p.db_size, p.max_intermediate
            );
            assert!(p.max_intermediate <= p.db_size + 2);
            csv.row(&[
                name.into(),
                p.db_size.to_string(),
                p.max_intermediate.to_string(),
            ]);
        }
        assert!(report.exponent < 1.3);
    }
    println!(
        "division-linear: grouping+counting keeps every intermediate ≤ |D|+2 \
         (Section 5)"
    );
    Some(csv)
}

// ---------------------------------------------------------------------------
// E11 — signature-width ablation (Helmer–Moerkotte's knob)
// ---------------------------------------------------------------------------

/// Survivors of the signature filter before exact verification, per
/// width.
fn signature_ablation() -> Option<CsvSink> {
    println!("signature-width ablation (surviving candidate pairs, zipf workload):");
    // Asymmetric workload: large left sets saturate narrow signatures
    // (many false positives), small right sets keep true containments
    // plausible — the regime where width pays.
    let side = |set_size, seed| {
        SetJoinWorkload {
            r_groups: 512,
            s_groups: 1,
            set_size,
            domain: 512,
            elements: ElementDist::Zipf(0.8),
            seed,
        }
        .generate()
        .0
    };
    let r = side(SetSizeDist::Uniform(32, 48), 0x5E71);
    let s = side(SetSizeDist::Uniform(2, 3), 0x5E72);
    let truth = sj_setjoin::nested_loop_set_join(&r, &s, SetPredicate::Contains).len();
    let mut csv = CsvSink::new(
        "setjoin_signature_ablation",
        &["bits", "survivors", "true_pairs"],
    );
    println!("  true qualifying pairs: {truth}");
    let mut narrower = usize::MAX;
    for words in [1usize, 2, 4, 8] {
        let surv = sj_setjoin::filter_survivors(&r, &s, SetPredicate::Contains, words);
        println!("  {:>4} bits: {surv:>8} survivors", words * 64);
        csv.row(&[
            (words * 64).to_string(),
            surv.to_string(),
            truth.to_string(),
        ]);
        assert!(surv >= truth, "the filter lost a true pair");
        assert!(surv <= narrower, "a wider signature admitted more pairs");
        narrower = surv;
    }
    println!(
        "signature-ablation: the filter never loses a true pair and wider \
         signatures never admit more candidates"
    );
    Some(csv)
}

// ---------------------------------------------------------------------------
// E12 — semijoin plans stay linear (Example 3 on growing beer data)
// ---------------------------------------------------------------------------

fn semijoin_linear() -> Option<CsvSink> {
    let sa = division::example3_lousy_bar_sa();
    let ra = division::example3_lousy_bar_ra();
    let cyclic = division::cyclic_beer_query_ra();
    let mut csv = CsvSink::new(
        "semijoin_linear",
        &["k", "db_size", "plan", "max_intermediate"],
    );
    println!(
        "{:>6} {:>7} {:>22} {:>16}",
        "k", "|D|", "plan", "max intermediate"
    );
    for &k in &[64i64, 256, 1024, 4096] {
        let engine = measuring_engine(beer_database(k, 0xBEE5));
        for (name, plan) in [
            ("lousy-bar SA= (semijoin)", &sa),
            ("lousy-bar RA (join)", &ra),
            ("cyclic query (join)", &cyclic),
        ] {
            let report = engine.query((*plan).clone()).run().unwrap().report.unwrap();
            println!(
                "{k:>6} {:>7} {name:>22} {:>16}",
                report.db_size,
                report.max_intermediate()
            );
            csv.row(&[
                k.to_string(),
                report.db_size.to_string(),
                name.into(),
                report.max_intermediate().to_string(),
            ]);
            if name.contains("SA=") {
                assert!(report.max_intermediate() <= report.db_size);
            }
        }
    }
    // The adversarial bar scene: the cyclic query (∉ SA=) blows up to
    // ~k² while the SA= lousy-bar query stays ≤ |D| — the dichotomy in
    // one table.
    println!("\nadversarial bar scene (all drinkers share one bar):");
    println!(
        "{:>6} {:>7} {:>26} {:>16}",
        "k", "|D|", "plan", "max intermediate"
    );
    for &k in &[32i64, 64, 128, 256] {
        let engine = measuring_engine(beer_database_adversarial(k));
        for (name, plan) in [
            ("lousy-bar SA= (semijoin)", &sa),
            ("cyclic query (join)", &cyclic),
        ] {
            let report = engine.query((*plan).clone()).run().unwrap().report.unwrap();
            println!(
                "{k:>6} {:>7} {name:>26} {:>16}",
                report.db_size,
                report.max_intermediate()
            );
            csv.row(&[
                format!("adv-{k}"),
                report.db_size.to_string(),
                name.into(),
                report.max_intermediate().to_string(),
            ]);
            if name.contains("SA=") {
                assert!(report.max_intermediate() <= report.db_size);
            } else {
                assert!(report.max_intermediate() >= (k * k) as usize);
            }
        }
    }
    println!(
        "semijoin: SA= plans stay ≤ |D| on every workload; the cyclic query \
         (∉ SA=) hits k² on the adversarial scene"
    );
    Some(csv)
}

// ---------------------------------------------------------------------------
// Proposition 13, constructively: distinguishing formulas
// ---------------------------------------------------------------------------

fn distinguish() -> Option<CsvSink> {
    use sj_logic::{distinguishing_formula, satisfies};
    // Bisimilar pairs (Figs. 5 and 6): no formula exists; the bounded game
    // search must come back empty.
    let (a5, b5) = (figures::fig5_a(), figures::fig5_b());
    for depth in 0..=3 {
        assert!(distinguishing_formula(&a5, &tuple![1], &b5, &tuple![1], &[], depth).is_none());
    }
    println!("Fig. 5 pair (A,1)/(B,1): no distinguishing GF formula up to depth 3 ✓");
    // A non-bisimilar pair: a formula is produced and verified.
    let (a3, b3) = (figures::fig3_a(), figures::fig3_b());
    let (f, vars) = distinguishing_formula(&a3, &tuple![1, 2], &b3, &tuple![7, 8], &[], 2)
        .expect("non-bisimilar pair");
    let env_a: sj_logic::Assignment = vars
        .iter()
        .cloned()
        .zip(tuple![1, 2].iter().cloned())
        .collect();
    let env_b: sj_logic::Assignment = vars
        .iter()
        .cloned()
        .zip(tuple![7, 8].iter().cloned())
        .collect();
    assert!(satisfies(&a3, &f, &env_a) && !satisfies(&b3, &f, &env_b));
    println!(
        "Fig. 3 tuples (1,2) vs (7,8) (not bisimilar): distinguished by\n  φ = {f}\n         with A ⊨ φ(1,2) and B ⊭ φ(7,8) ✓"
    );
    println!("distinguish: REPRODUCED (Proposition 13, both directions)");
    None
}
