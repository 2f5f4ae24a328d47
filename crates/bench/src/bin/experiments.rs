//! Regenerate every table and figure of the reproduction.
//!
//! ```bash
//! cargo run -p sj-bench --release --bin experiments            # everything
//! cargo run -p sj-bench --release --bin experiments -- fig5    # one experiment
//! ```
//!
//! Output: human-readable tables on stdout plus CSV files under
//! `results/`. The experiment ids (E1–E15) follow DESIGN.md; paper-vs-
//! measured notes live in EXPERIMENTS.md.

use sj_algebra::{division, Condition, Expr};
use sj_bench::{
    beer_database, beer_database_adversarial, standard_adversarial_series, time_median, CsvSink,
    TIMING_SCALES,
};
use sj_bisim::{are_bisimilar, check_bisimulation, Bisimulation, PartialIso};
use sj_core::{analyze, measure_growth, Pump, Verdict};
use sj_eval::{AlgorithmChoice, Engine, Instrument, JoinOrder, Parallelism, StatsMode, Strategy};
use sj_setjoin::{DivisionSemantics, Registry, SetPredicate};
use sj_storage::display::{render_database, render_relation};
use sj_storage::{tuple, Database, Relation, Schema, Tuple};
use sj_workload::{
    figures, CyclicWorkload, DivisionWorkload, EdgeDist, ElementDist, SetJoinWorkload, SetSizeDist,
};

/// An instrumented naive engine — the measurement instrument for all the
/// per-tree-node intermediate-size experiments.
fn measuring_engine(db: Database) -> Engine {
    Engine::new(db)
        .strategy(Strategy::Naive)
        .instrument(Instrument::Cardinalities)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let all = which == "all";
    let mut ran = false;
    for (name, f) in EXPERIMENTS {
        if all || which == *name {
            println!("\n################ experiment: {name} ################");
            f();
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown experiment {which:?}; available:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
}

const EXPERIMENTS: &[(&str, fn())] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("dichotomy", dichotomy),
    ("division-ra", division_ra),
    ("division-linear", division_linear),
    ("division-shootout", division_shootout),
    ("setjoin", setjoin_shootout),
    ("semijoin", semijoin_linear),
    ("planner", planner),
    ("joinorder", join_order_run),
    ("parallel", parallel_scaling),
    ("vectorized-parallel", vectorized_parallel_run),
    ("cost", cost_model_run),
    ("obs", obs_run),
    ("serving", serving),
    ("distinguish", distinguish),
];

// ---------------------------------------------------------------------------
// E1 — Fig. 1
// ---------------------------------------------------------------------------

fn fig1() {
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
}

// ---------------------------------------------------------------------------
// E2 — Fig. 2 / Example 5
// ---------------------------------------------------------------------------

fn fig2() {
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
}

// ---------------------------------------------------------------------------
// E3 — Fig. 3 / Example 12
// ---------------------------------------------------------------------------

fn fig3() {
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
}

// ---------------------------------------------------------------------------
// E4 — Fig. 4: the pump construction, table + growth CSV
// ---------------------------------------------------------------------------

fn fig4() {
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
    let path = csv.finish().unwrap();
    println!(
        "fig4: REPRODUCED (D2/D3 sizes match; |E(Dn)| ≥ n²) → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E5 — Fig. 5 / Proposition 26
// ---------------------------------------------------------------------------

fn fig5() {
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
}

// ---------------------------------------------------------------------------
// E6 — Fig. 6 / Section 4.1
// ---------------------------------------------------------------------------

fn fig6() {
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
}

// ---------------------------------------------------------------------------
// E7 — the dichotomy table (Theorem 17)
// ---------------------------------------------------------------------------

fn dichotomy() {
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
    let path = csv.finish().unwrap();
    println!(
        "dichotomy: exponents cluster at ≈1 and ≈2, nothing in (1.3, 1.7) — \
         Theorem 17 → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E8 — RA division plans are quadratic (Proposition 26), measured
// ---------------------------------------------------------------------------

fn division_ra() {
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
    let path = csv.finish().unwrap();
    println!(
        "division-ra: all plans quadratic, as Proposition 26 demands → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E9 — the Section 5 linear expression, measured
// ---------------------------------------------------------------------------

fn division_linear() {
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
    let path = csv.finish().unwrap();
    println!(
        "division-linear: grouping+counting keeps every intermediate ≤ |D|+2 \
         (Section 5) → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E10 — division algorithm shoot-out (Graefe's four families)
// ---------------------------------------------------------------------------

fn division_shootout() {
    let mut csv = CsvSink::new(
        "division_shootout",
        &["groups", "divisor", "algorithm", "ms"],
    );
    println!(
        "{:>7} {:>8} {:>14} {:>10}",
        "groups", "divisor", "algorithm", "ms"
    );
    for &groups in &TIMING_SCALES {
        let divisor = (groups as f64).sqrt() as usize;
        let w = DivisionWorkload {
            groups,
            divisor_size: divisor,
            containment_fraction: 0.1,
            extra_per_group: 4,
            noise_domain: 4 * groups,
            seed: 0xD1ADE,
        };
        let (r, s, expected) = w.generate();
        for alg in Registry::standard().division_algorithms() {
            let name = alg.name();
            // Nested-loop at the largest scale is too slow to be fun.
            if name == "nested-loop" && groups > 4096 {
                continue;
            }
            let ms = time_median(3, || {
                let out = alg.run(&r, &s, DivisionSemantics::Containment);
                assert_eq!(out, expected);
                out
            });
            println!("{groups:>7} {divisor:>8} {name:>14} {ms:>10.3}");
            csv.row(&[
                groups.to_string(),
                divisor.to_string(),
                name.into(),
                format!("{ms:.4}"),
            ]);
        }
        let auto = Registry::standard()
            .auto_division(&r, &s, DivisionSemantics::Containment)
            .unwrap();
        println!(
            "{groups:>7} {divisor:>8} {:>14}",
            format!("auto={}", auto.name())
        );
    }
    let path = csv.finish().unwrap();
    println!(
        "division-shootout: hash/counting scale linearly; nested-loop grows \
         superlinearly (÷ is cheap outside RA) → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E11 — set-containment join shoot-out
// ---------------------------------------------------------------------------

fn setjoin_shootout() {
    let mut csv = CsvSink::new(
        "setjoin_shootout",
        &["groups", "dist", "algorithm", "ms", "output"],
    );
    println!(
        "{:>7} {:>9} {:>12} {:>10} {:>8}",
        "groups", "elements", "algorithm", "ms", "output"
    );
    for &groups in &[128usize, 512, 2048] {
        for (dist_name, dist) in [
            ("uniform", ElementDist::Uniform),
            ("zipf1.0", ElementDist::Zipf(1.0)),
        ] {
            let w = SetJoinWorkload {
                r_groups: groups,
                s_groups: groups,
                set_size: SetSizeDist::Uniform(2, 10),
                domain: 64,
                elements: dist,
                seed: 0x5E71,
            };
            let (r, s) = w.generate();
            let expected = sj_setjoin::nested_loop_set_join(&r, &s, SetPredicate::Contains);
            // Every registered algorithm that implements ⊇, straight from
            // the registry — ablation is iteration, not wiring.
            for alg in Registry::standard().set_join_algorithms() {
                if !alg.supports(SetPredicate::Contains) {
                    continue;
                }
                let name = alg.name();
                let ms = time_median(3, || {
                    let out = alg.run(&r, &s, SetPredicate::Contains);
                    assert_eq!(out, expected);
                    out
                });
                println!(
                    "{groups:>7} {dist_name:>9} {name:>14} {ms:>10.3} {:>8}",
                    expected.len()
                );
                csv.row(&[
                    groups.to_string(),
                    dist_name.into(),
                    name.into(),
                    format!("{ms:.4}"),
                    expected.len().to_string(),
                ]);
            }
            // The engine's auto selector, end to end: must agree with the
            // baseline and pick a signature algorithm at these sizes.
            let mut db = Database::new();
            db.set("R", r.clone());
            db.set("S", s.clone());
            let auto = Engine::new(db)
                .algorithm(AlgorithmChoice::Auto)
                .set_join("R", "S", SetPredicate::Contains)
                .unwrap();
            assert_eq!(auto.relation, expected);
            println!(
                "{groups:>7} {dist_name:>9} {:>14} {:>10.3} {:>8}",
                format!("auto={}", auto.algorithm),
                auto.elapsed.as_secs_f64() * 1e3,
                expected.len()
            );
        }
    }
    // Signature-width ablation: survivors of the filter before exact
    // verification, per width (Helmer–Moerkotte's knob).
    println!("\nsignature-width ablation (surviving candidate pairs, zipf workload):");
    // Asymmetric workload: large left sets saturate narrow signatures
    // (many false positives), small right sets keep true containments
    // plausible — the regime where width pays.
    let (r, _) = SetJoinWorkload {
        r_groups: 512,
        s_groups: 1,
        set_size: SetSizeDist::Uniform(32, 48),
        domain: 512,
        elements: ElementDist::Zipf(0.8),
        seed: 0x5E71,
    }
    .generate();
    let (s_wide, _) = SetJoinWorkload {
        r_groups: 512,
        s_groups: 1,
        set_size: SetSizeDist::Uniform(2, 3),
        domain: 512,
        elements: ElementDist::Zipf(0.8),
        seed: 0x5E72,
    }
    .generate();
    let s = s_wide; // right side: small sets, same domain
    let truth = sj_setjoin::nested_loop_set_join(&r, &s, SetPredicate::Contains).len();
    let mut ablation = CsvSink::new(
        "setjoin_signature_ablation",
        &["bits", "survivors", "true_pairs"],
    );
    println!("  true qualifying pairs: {truth}");
    for words in [1usize, 2, 4, 8] {
        let surv = sj_setjoin::filter_survivors(&r, &s, SetPredicate::Contains, words);
        println!("  {:>4} bits: {surv:>8} survivors", words * 64);
        ablation.row(&[
            (words * 64).to_string(),
            surv.to_string(),
            truth.to_string(),
        ]);
        assert!(surv >= truth);
    }
    let ap = ablation.finish().unwrap();
    println!("  → {}", ap.display());
    let path = csv.finish().unwrap();
    println!(
        "setjoin: both algorithms are Θ(groups²) pair-wise — 'no algorithm \
         better than quadratic is known' — signatures win by a constant \
         factor → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E12 — semijoin plans stay linear (Example 3 on growing beer data)
// ---------------------------------------------------------------------------

fn semijoin_linear() {
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
                report.db_size(),
                report.max_intermediate()
            );
            csv.row(&[
                k.to_string(),
                report.db_size().to_string(),
                name.into(),
                report.max_intermediate().to_string(),
            ]);
            if name.contains("SA=") {
                assert!(report.max_intermediate() <= report.db_size());
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
                report.db_size(),
                report.max_intermediate()
            );
            csv.row(&[
                format!("adv-{k}"),
                report.db_size().to_string(),
                name.into(),
                report.max_intermediate().to_string(),
            ]);
            if name.contains("SA=") {
                assert!(report.max_intermediate() <= report.db_size());
            } else {
                assert!(report.max_intermediate() >= (k * k) as usize);
            }
        }
    }
    let path = csv.finish().unwrap();
    println!(
        "semijoin: SA= plans stay ≤ |D| on every workload; the cyclic query \
         (∉ SA=) hits k² on the adversarial scene → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// Planned (DAG-memoizing) vs naive evaluation — the constant factor the
// physical planner wins back on repeated subexpressions and leaf scans
// ---------------------------------------------------------------------------

fn planner() {
    let mut csv = CsvSink::new(
        "planner_vs_naive",
        &[
            "query",
            "scale",
            "db_size",
            "tree_nodes",
            "plan_nodes",
            "naive_ms",
            "planned_ms",
            "speedup",
        ],
    );
    println!(
        "{:<26} {:>6} {:>7} {:>5}/{:<5} {:>10} {:>11} {:>8}",
        "query", "scale", "|D|", "plan", "tree", "naive ms", "planned ms", "speedup"
    );
    let mut cases: Vec<(String, usize, sj_storage::Database, Expr)> = Vec::new();
    for &groups in &[256usize, 1024, 4096] {
        let w = DivisionWorkload {
            groups,
            divisor_size: (groups as f64).sqrt() as usize,
            containment_fraction: 0.1,
            extra_per_group: 4,
            noise_domain: 4 * groups,
            seed: 0xD1CE,
        };
        let db = w.database();
        cases.push((
            "division double-difference".into(),
            groups,
            db.clone(),
            division::division_double_difference("R", "S"),
        ));
        cases.push((
            "division equality".into(),
            groups,
            db.clone(),
            division::division_equality("R", "S"),
        ));
        cases.push((
            "division counting".into(),
            groups,
            db,
            division::division_counting("R", "S"),
        ));
    }
    for &k in &[1024i64, 4096] {
        let db = beer_database(k, 0xBEE5);
        cases.push((
            "lousy-bar SA=".into(),
            k as usize,
            db.clone(),
            division::example3_lousy_bar_sa(),
        ));
        cases.push((
            "prefix merge semijoin".into(),
            k as usize,
            db,
            Expr::rel("Visits").semijoin(Condition::eq(1, 1), Expr::rel("Likes")),
        ));
    }
    for (name, scale, db, e) in &cases {
        // The strategy ablation the engine makes a one-line change.
        let naive = Engine::new(db.clone()).strategy(Strategy::Naive);
        let planned = Engine::new(db.clone()).strategy(Strategy::Planned);
        let expected = naive.query(e.clone()).run().unwrap().relation;
        let out = planned.query(e.clone()).run().unwrap();
        assert_eq!(out.relation, expected, "planned result diverged on {name}");
        let plan = out.plan.expect("Strategy::Planned returns its plan");
        let naive_ms = time_median(5, || naive.query(e.clone()).run().unwrap());
        let planned_ms = time_median(5, || planned.query(e.clone()).run().unwrap());
        let speedup = naive_ms / planned_ms.max(1e-9);
        println!(
            "{name:<26} {scale:>6} {:>7} {:>5}/{:<5} {naive_ms:>10.3} {planned_ms:>11.3} {speedup:>7.2}x",
            db.size(),
            plan.node_count(),
            plan.expr_node_count(),
        );
        csv.row(&[
            name.clone(),
            scale.to_string(),
            db.size().to_string(),
            plan.expr_node_count().to_string(),
            plan.node_count().to_string(),
            format!("{naive_ms:.4}"),
            format!("{planned_ms:.4}"),
            format!("{speedup:.3}"),
        ]);
    }
    // Show the memoized DAG once: R ×3, π₁(R) ×2 collapse to 7 nodes.
    let mut demo = Database::new();
    demo.set("R", Relation::empty(2));
    demo.set("S", Relation::empty(1));
    print!(
        "\n{}",
        Engine::new(demo)
            .query(division::division_double_difference("R", "S"))
            .explain()
            .unwrap()
    );
    let path = csv.finish().unwrap();
    println!(
        "planner: memoized DAG + Arc scans beat the naive tree walk on the \
         repeated-subexpression division plans → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// Join-order enumeration + the worst-case-optimal multiway join
// ---------------------------------------------------------------------------

/// Two claims, both asserted:
///
/// 1. **Enumeration never hurts** — on multi-join chain plans (including
///    a figure-shaped query the optimizer leaves alone), `JoinOrder::Dp`
///    is never slower than the as-written order, up to the usual 1.25×
///    timing-jitter allowance. On badly-written chains it should win
///    outright (smaller intermediates), on well-written ones it must
///    degrade to a no-op.
/// 2. **The AGM trigger pays off** — on zipf-skewed cyclic workloads
///    (hub vertices), where every pairwise order's estimated
///    intermediate exceeds the AGM output bound, the planner switches
///    to the generic worst-case-optimal multiway operator; on ≥ 1 such
///    row it beats the *best* pairwise mode (min of as-written and
///    greedy), not just the worst.
///
/// Every (workload, mode) cell is verified byte-identical against the
/// as-written answer before it is timed.
fn join_order_run() {
    const SLACK_MS: f64 = 0.05;
    const MODES: [JoinOrder; 3] = [JoinOrder::AsWritten, JoinOrder::Greedy, JoinOrder::Dp];
    let mut csv = CsvSink::new(
        "join_order",
        &["workload", "scale", "mode", "ms", "output", "multiway"],
    );
    println!(
        "{:<30} {:>7} {:>10} {:>10} {:>8} {:>8}",
        "workload", "scale", "mode", "ms", "output", "multiway"
    );
    // Measure one (db, query) under each mode; returns mode → (ms, used
    // multiway?) after asserting all three answers byte-identical.
    let mut run_case = |workload: &str, scale: usize, db: &Database, e: &Expr| {
        let engine = |m: JoinOrder| {
            Engine::new(db.clone())
                .stats(StatsMode::Analyze)
                .join_order(m)
        };
        let baseline = engine(JoinOrder::AsWritten)
            .query(e.clone())
            .run()
            .unwrap()
            .relation;
        let mut cells: Vec<(JoinOrder, f64)> = Vec::new();
        for mode in MODES {
            let eng = engine(mode);
            let out = eng.query(e.clone()).run().unwrap();
            assert_eq!(
                out.relation, baseline,
                "{workload}: {mode} diverged from as-written"
            );
            let multiway = eng
                .query(e.clone())
                .explain()
                .unwrap()
                .contains("multiway-join");
            let ms = time_median(5, || eng.query(e.clone()).run().unwrap());
            println!(
                "{workload:<30} {scale:>7} {mode:>10} {ms:>10.3} {:>8} {multiway:>8}",
                baseline.len()
            );
            csv.row(&[
                workload.into(),
                scale.to_string(),
                mode.to_string(),
                format!("{ms:.4}"),
                baseline.len().to_string(),
                multiway.to_string(),
            ]);
            cells.push((mode, ms));
        }
        let ms_of = |m: JoinOrder| cells.iter().find(|c| c.0 == m).unwrap().1;
        (
            ms_of(JoinOrder::AsWritten),
            ms_of(JoinOrder::Greedy),
            ms_of(JoinOrder::Dp),
        )
    };

    // Claim 1 — chain plans. The badly-written chain puts the huge join
    // first (`R.1` meets the 3-valued `S.2`); the cheap order joins the
    // tiny tail `S ⋈ T` first. The beer query is the figure-shaped
    // control: already well-ordered, Dp must cost ≈ the same.
    let chain = |n: usize| {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_tuples(2, (0..n as i64).map(|i| Tuple::from_ints(&[i % 50, i])))
                .unwrap(),
        );
        let m = (n / 100) as i64;
        db.set(
            "S",
            Relation::from_tuples(2, (0..m).map(|i| Tuple::from_ints(&[i, i % 3]))).unwrap(),
        );
        db.set(
            "T",
            Relation::from_tuples(2, (0..3i64).map(|i| Tuple::from_ints(&[i, i]))).unwrap(),
        );
        db
    };
    let chain_expr = Expr::rel("R")
        .join(Condition::eq(1, 2), Expr::rel("S"))
        .join(Condition::eq(3, 1), Expr::rel("T"));
    for n in [20_000usize, 50_000] {
        let (as_ms, _, dp_ms) = run_case("chain R⋈S⋈T (badly written)", n, &chain(n), &chain_expr);
        assert!(
            dp_ms <= as_ms * 1.25 + SLACK_MS,
            "chain@{n}: Dp ({dp_ms:.3}ms) slower than as-written ({as_ms:.3}ms)"
        );
    }
    let k = 4096i64;
    let (as_ms, _, dp_ms) = run_case(
        "cyclic beer query (figure)",
        k as usize,
        &beer_database(k, 0xBEE5),
        &division::cyclic_beer_query_ra(),
    );
    assert!(
        dp_ms <= as_ms * 1.25 + SLACK_MS,
        "beer: Dp ({dp_ms:.3}ms) slower than as-written ({as_ms:.3}ms)"
    );

    // Claim 2 — skewed cycles. Two controls where the trigger must stay
    // cold: the uniform triangle (pairwise is AGM-tight without hubs)
    // and the skewed 4-cycle — for any 4-cycle the cheapest adjacent
    // pairwise estimate is capped at `min(r1·r2, r3·r4) ≤ √(r1r2r3r4)`,
    // the 4-cycle AGM bound, so no skew can push an intermediate past
    // the output bound (pairwise plans are already worst-case optimal
    // there; the headline WCOJ win is the triangle). The zipf triangles
    // have hub vertices — the regime the multiway operator exists for.
    let dp_explain = |db: &Database, q: &Expr| {
        Engine::new(db.clone())
            .stats(StatsMode::Analyze)
            .join_order(JoinOrder::Dp)
            .query(q.clone())
            .explain()
            .unwrap()
    };
    for (name, cycle_len, dist) in [
        ("triangle uniform (control)", 3usize, EdgeDist::Uniform),
        ("4-cycle zipf1.2 (control)", 4, EdgeDist::Zipf(1.2)),
    ] {
        let w = CyclicWorkload {
            cycle_len,
            edges_per_table: 2048,
            vertices: 1024,
            edges: dist,
            seed: 0xC7C1,
        };
        let (db, q) = (w.database(), w.query());
        let explained = dp_explain(&db, &q);
        assert!(
            !explained.contains("multiway-join"),
            "{name}: the AGM trigger fired on a control row:\n{explained}"
        );
        run_case(name, w.edges_per_table, &db, &q);
    }
    let mut multiway_won = false;
    for (name, theta) in [
        ("triangle zipf1.2 (hubs)", 1.2),
        ("triangle zipf1.4 (hubs)", 1.4),
    ] {
        let w = CyclicWorkload {
            cycle_len: 3,
            edges_per_table: 4096,
            vertices: 1024,
            edges: EdgeDist::Zipf(theta),
            seed: 0xC7C1,
        };
        let (db, q) = (w.database(), w.query());
        let explained = dp_explain(&db, &q);
        assert!(
            explained.contains("multiway-join"),
            "{name}: the AGM trigger never fired:\n{explained}"
        );
        let (as_ms, greedy_ms, dp_ms) = run_case(name, w.edges_per_table, &db, &q);
        if dp_ms < as_ms.min(greedy_ms) {
            multiway_won = true;
        }
    }
    assert!(
        multiway_won,
        "multiway join beat the best pairwise mode on no skewed cyclic row"
    );

    let path = csv.finish().unwrap();
    println!(
        "joinorder: Dp never slower than as-written on the chain plans; the \
         multiway join beat the best pairwise mode on ≥ 1 skewed cyclic row → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// Partition-parallel execution — serial vs Threads(2/4/8) on fig-scale
// division, set-join and planned-semijoin workloads
// ---------------------------------------------------------------------------

fn parallel_scaling() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host parallelism: {host} CPU(s). Speedups combine two effects:\n\
         thread-level scaling (needs > 1 CPU) and, for the set joins, the\n\
         partition-based pruning of candidate pairs (independent of CPUs\n\
         — more workers ⇒ more element partitions ⇒ fewer pair tests)."
    );
    let mut csv = CsvSink::new(
        "parallel_scaling",
        &[
            "workload",
            "scale",
            "threads",
            "algorithm",
            "ms",
            "speedup_vs_serial",
        ],
    );
    println!(
        "{:<26} {:>7} {:>8} {:>22} {:>10} {:>9}",
        "workload", "scale", "threads", "algorithm", "ms", "speedup"
    );
    // Each case: a fig-scale workload run through one engine closure at
    // Serial, then Threads(2/4/8); timings are medians of 5.
    let mut best_at_4 = (f64::NAN, "none");
    let mut run_case = |workload: &'static str,
                        scale: usize,
                        run: &dyn Fn(Parallelism) -> (String, Relation)| {
        let serial_ms = time_median(5, || run(Parallelism::Serial));
        let (serial_alg, serial_out) = run(Parallelism::Serial);
        println!(
            "{workload:<26} {scale:>7} {:>8} {serial_alg:>22} {serial_ms:>10.3} {:>8.2}x",
            "serial", 1.0
        );
        csv.row(&[
            workload.into(),
            scale.to_string(),
            "1".into(),
            serial_alg,
            format!("{serial_ms:.4}"),
            "1.000".into(),
        ]);
        for threads in [2usize, 4, 8] {
            let par = Parallelism::Threads(threads);
            let ms = time_median(5, || run(par));
            let (alg, out) = run(par);
            assert_eq!(out, serial_out, "{workload}: parallel ≢ serial");
            let speedup = serial_ms / ms.max(1e-9);
            if threads == 4 && (best_at_4.0.is_nan() || speedup > best_at_4.0) {
                best_at_4 = (speedup, workload);
            }
            println!("{workload:<26} {scale:>7} {threads:>8} {alg:>22} {ms:>10.3} {speedup:>8.2}x");
            csv.row(&[
                workload.into(),
                scale.to_string(),
                threads.to_string(),
                alg,
                format!("{ms:.4}"),
                format!("{speedup:.3}"),
            ]);
        }
    };

    // E16a — registry-routed division, fig scale (TIMING_SCALES top).
    let groups = 16_384usize;
    let w = DivisionWorkload {
        groups,
        divisor_size: 128,
        containment_fraction: 0.1,
        extra_per_group: 4,
        noise_domain: 4 * groups,
        seed: 0xD1ADE,
    };
    let ddb = {
        let mut db = Database::new();
        let (r, s, _) = w.generate();
        db.set("R", r);
        db.set("S", s);
        db
    };
    run_case("division ÷ (auto)", groups, &|par| {
        let out = Engine::new(ddb.clone())
            .parallelism(par)
            .divide("R", "S", DivisionSemantics::Containment)
            .unwrap();
        (out.algorithm.to_string(), out.relation)
    });

    // E16b — registry-routed set-containment join, fig scale (the
    // setjoin shoot-out's largest point), both element distributions.
    let sj_groups = 512usize;
    for (dist_name, dist) in [
        ("setjoin ⊇ uniform (auto)", ElementDist::Uniform),
        ("setjoin ⊇ zipf1.0 (auto)", ElementDist::Zipf(1.0)),
    ] {
        let sdb = {
            let (r, s) = SetJoinWorkload {
                r_groups: sj_groups,
                s_groups: sj_groups,
                set_size: SetSizeDist::Uniform(2, 10),
                domain: 64,
                elements: dist,
                seed: 0x5E71,
            }
            .generate();
            let mut db = Database::new();
            db.set("R", r);
            db.set("S", s);
            db
        };
        run_case(dist_name, sj_groups, &move |par| {
            let out = Engine::new(sdb.clone())
                .parallelism(par)
                .set_join("R", "S", SetPredicate::Contains)
                .unwrap();
            (out.algorithm.to_string(), out.relation)
        });
    }

    // E16c — a planned query (foreign-key hash join on the beer scene):
    // concurrent DAG levels + partition-parallel hash join. On a 1-CPU
    // host this row shows the partitioning overhead with nothing to
    // amortize it — the knob defaults to Serial for exactly this reason.
    let k = 16_384i64;
    let bdb = beer_database(k, 0xBEE5);
    let fk = Expr::rel("Visits").join(Condition::eq(2, 1), Expr::rel("Serves"));
    run_case("planned ⋈ hash", k as usize, &|par| {
        let out = Engine::new(bdb.clone())
            .parallelism(par)
            .query(fk.clone())
            .run()
            .unwrap();
        ("hash-join".to_string(), out.relation)
    });

    let path = csv.finish().unwrap();
    println!(
        "parallel: best speedup at 4 threads = {:.2}x ({}) on a {host}-CPU host → {}",
        best_at_4.0,
        best_at_4.1,
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E18 — row-wise vs columnar set joins across the workers axis
// ---------------------------------------------------------------------------

/// The workers axis for the vectorized suite: division in both
/// semantics — via the paper's set-join reduction
/// `R ÷ S = π_A(R ⋈[⊇/=] {0}×S)`, the same reduction the
/// `division_is_a_set_join` property test pins — plus the
/// set-containment join on uniform and zipf element distributions,
/// each at 1/2/4 workers under both executions. "Row" runs the
/// partition-parallel row-wise implementation
/// ([`parallel_signature_set_join_rowwise`]), "vectorized" the columnar
/// dispatcher that runs dense-element kernels over the *same*
/// partitions — so each row isolates what vectorization adds at that
/// worker count, and the workers axis shows the partition effects
/// (more element partitions ⇒ fewer candidate pairs; more whole-set
/// hash buckets ⇒ sharper equality pruning) that hold even on a 1-CPU
/// host. The tentpole claim — `Threads(n) × Vectorized` compounds
/// instead of degrading to the row engine — is asserted at the bottom
/// with the same timing-jitter allowance the cost-model experiment
/// uses.
///
/// [`parallel_signature_set_join_rowwise`]: sj_setjoin::parallel_signature_set_join_rowwise
fn vectorized_parallel_run() {
    use sj_setjoin::{parallel_signature_set_join, parallel_signature_set_join_rowwise};
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host parallelism: {host} CPU(s). The workers axis changes two things\n\
         even on one CPU: more element partitions (fewer candidate pairs to\n\
         verify) and more whole-set hash buckets (sharper = pruning);\n\
         thread-level scaling needs > 1 CPU on top of that."
    );
    let mut csv = CsvSink::new(
        "vectorized_parallel_scaling",
        &[
            "workload",
            "scale",
            "workers",
            "row_ms",
            "vectorized_ms",
            "speedup",
        ],
    );
    println!(
        "{:<26} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "workload", "scale", "workers", "row ms", "vec ms", "speedup"
    );
    const WORKER_AXIS: [usize; 3] = [1, 2, 4];
    let mut cells: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    // Interleave the samples across the *whole* worker axis (not just
    // within one cell) so slow drift — frequency scaling, allocator and
    // cache state left by earlier experiments — hits every cell of a
    // workload alike; the cross-worker comparisons below depend on it.
    let mut run_matrix = |workload: &'static str,
                          scale: usize,
                          row: &dyn Fn(usize) -> Relation,
                          vec_: &dyn Fn(usize) -> Relation| {
        for &w in &WORKER_AXIS {
            assert_eq!(row(w), vec_(w), "{workload} @{w}w: vectorized ≢ row");
        }
        let reps = 9;
        let mut row_t: Vec<Vec<f64>> = WORKER_AXIS.iter().map(|_| Vec::new()).collect();
        let mut vec_t: Vec<Vec<f64>> = WORKER_AXIS.iter().map(|_| Vec::new()).collect();
        for _ in 0..reps {
            for (i, &w) in WORKER_AXIS.iter().enumerate() {
                row_t[i].push(sj_bench::time_once(|| row(w)).1);
                vec_t[i].push(sj_bench::time_once(|| vec_(w)).1);
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        for (i, &workers) in WORKER_AXIS.iter().enumerate() {
            let (row_ms, vec_ms) = (med(&mut row_t[i]), med(&mut vec_t[i]));
            let speedup = row_ms / vec_ms.max(1e-9);
            println!(
                "{workload:<26} {scale:>8} {workers:>8} {row_ms:>10.3} {vec_ms:>10.3} {speedup:>8.2}x"
            );
            csv.row(&[
                workload.into(),
                scale.to_string(),
                workers.to_string(),
                format!("{row_ms:.4}"),
                format!("{vec_ms:.4}"),
                format!("{speedup:.3}"),
            ]);
            cells.push((workload, workers, row_ms, vec_ms));
        }
    };

    // Division rows: lift the divisor into a single group keyed 0 and run
    // the partitioned signature join, ⊇ for containment division and =
    // for equality division; project the qualifying keys.
    let groups = 16_384usize;
    let w = DivisionWorkload {
        groups,
        divisor_size: 128,
        containment_fraction: 0.1,
        extra_per_group: 4,
        noise_domain: 4 * groups,
        seed: 0xD1ADE,
    };
    let (dr, ds, _) = w.generate();
    let lifted = Relation::from_tuples(
        2,
        ds.iter()
            .map(|t| sj_storage::Tuple::new(vec![sj_storage::Value::int(0), t[0].clone()])),
    )
    .unwrap();
    let project1 = |rel: Relation| {
        Relation::from_tuples(
            1,
            rel.iter()
                .map(|t| sj_storage::Tuple::new(vec![t[0].clone()])),
        )
        .unwrap()
    };
    for (name, pred, sem) in [
        (
            "division ÷⊇ (set join)",
            SetPredicate::Contains,
            DivisionSemantics::Containment,
        ),
        (
            "division ÷= (set join)",
            SetPredicate::Equals,
            DivisionSemantics::Equality,
        ),
    ] {
        // The reduction itself must agree with the direct division
        // operator before its timings mean anything.
        let expected = sj_setjoin::divide(&dr, &ds, sem);
        assert_eq!(
            project1(parallel_signature_set_join(&dr, &lifted, pred, 4)),
            expected,
            "{name}: set-join reduction diverged from divide()"
        );
        run_matrix(
            name,
            groups,
            &|w| parallel_signature_set_join_rowwise(&dr, &lifted, pred, w),
            &|w| parallel_signature_set_join(&dr, &lifted, pred, w),
        );
    }

    // Set-containment join rows: the shoot-out shape, scaled up so the
    // partition pruning has room to move, on both element distributions.
    let sj_groups = 1_024usize;
    for (name, dist) in [
        ("setjoin ⊇ uniform", ElementDist::Uniform),
        ("setjoin ⊇ zipf1.0", ElementDist::Zipf(1.0)),
    ] {
        let (r, s) = SetJoinWorkload {
            r_groups: sj_groups,
            s_groups: sj_groups,
            set_size: SetSizeDist::Uniform(2, 10),
            domain: 64,
            elements: dist,
            seed: 0x5E71,
        }
        .generate();
        run_matrix(
            name,
            sj_groups,
            &|w| parallel_signature_set_join_rowwise(&r, &s, SetPredicate::Contains, w),
            &|w| parallel_signature_set_join(&r, &s, SetPredicate::Contains, w),
        );
    }

    // The acceptance check: at 4 workers the vectorized path is no
    // slower than the row path at 4 workers *and* no slower than the
    // vectorized path serial — i.e. neither knob degrades the other.
    // Same jitter allowance as the cost-model experiment: 1.25x plus a
    // small absolute slack for sub-millisecond rows.
    const SLACK_MS: f64 = 0.05;
    let cell = |w: &str, n: usize| {
        cells
            .iter()
            .find(|c| c.0 == w && c.1 == n)
            .copied()
            .expect("cell was measured")
    };
    for w in [
        "division ÷⊇ (set join)",
        "division ÷= (set join)",
        "setjoin ⊇ uniform",
        "setjoin ⊇ zipf1.0",
    ] {
        let (_, _, row4, vec4) = cell(w, 4);
        let (_, _, _, vec1) = cell(w, 1);
        println!("  check {w}: vec@4w {vec4:.3}ms | row@4w {row4:.3}ms | vec@1w {vec1:.3}ms");
        assert!(
            vec4 <= row4 * 1.25 + SLACK_MS,
            "{w}: columnar set join at 4 workers ({vec4:.3}ms) degraded below \
             the row-wise set join at 4 workers ({row4:.3}ms)"
        );
        assert!(
            vec4 <= vec1 * 1.25 + SLACK_MS,
            "{w}: columnar set join at 4 workers ({vec4:.3}ms) degraded below \
             its own serial run ({vec1:.3}ms)"
        );
    }
    let path = csv.finish().unwrap();
    println!(
        "vectorized-parallel: Threads(w) × Vectorized compounds — the \
         vectorized column never degrades to the row engine at any worker \
         count → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// Cost-based selection vs thresholds vs the per-algorithm oracle
// ---------------------------------------------------------------------------

/// For every figure workload: measure **every** registered algorithm
/// (the oracle table), then compare three selectors against it — the
/// per-algorithm oracle best, the stats-free threshold selector (PR 4
/// behavior), and the cost-based selector over fresh `ANALYZE`
/// statistics. Asserts the acceptance criteria: the cost-based pick is
/// never more than 2× the oracle best and never behind the threshold
/// pick (up to a 1.25× timing-jitter allowance — when both selectors
/// pick the same algorithm the comparison reuses one measurement and
/// is exact).
fn cost_model_run() {
    use sj_stats::{CostModel, TableStats};
    let model = CostModel::default();
    let reg = Registry::standard();
    let mut csv = CsvSink::new(
        "cost_model",
        &[
            "workload",
            "scale",
            "op",
            "oracle",
            "oracle_ms",
            "threshold",
            "threshold_ms",
            "cost_based",
            "cost_ms",
            "cost_vs_oracle",
        ],
    );
    println!(
        "{:<18} {:>6} {:>4} {:>2}w | {:>24} {:>24} {:>24} {:>6}",
        "workload", "scale", "op", "", "oracle", "threshold pick", "cost-based pick", "ratio"
    );
    let mut emit = |workload: &str,
                    scale: usize,
                    op: &str,
                    workers: usize,
                    measured: &[(&str, f64)],
                    thresh: &str,
                    costp: &str| {
        let ms_of = |name: &str| {
            measured
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, ms)| ms)
                .expect("pick was measured")
        };
        let (oracle, oracle_ms) = measured
            .iter()
            .cloned()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("nonempty oracle table");
        let (t_ms, c_ms) = (ms_of(thresh), ms_of(costp));
        let ratio = c_ms / oracle_ms.max(1e-9);
        println!(
            "{workload:<18} {scale:>6} {op:>4} {workers:>2}w | {:>24} {:>24} {:>24} {ratio:>5.2}x",
            format!("{oracle} {oracle_ms:.2}ms"),
            format!("{thresh} {t_ms:.2}ms"),
            format!("{costp} {c_ms:.2}ms"),
        );
        csv.row(&[
            workload.into(),
            scale.to_string(),
            op.into(),
            oracle.into(),
            format!("{oracle_ms:.4}"),
            thresh.into(),
            format!("{t_ms:.4}"),
            costp.into(),
            format!("{c_ms:.4}"),
            format!("{ratio:.3}"),
        ]);
        // A small absolute slack absorbs scheduler/cache noise on the
        // sub-millisecond rows (median-of-5 handles the larger ones);
        // same-pick rows reuse one measurement and compare exactly.
        const SLACK_MS: f64 = 0.05;
        assert!(
            c_ms <= 2.0 * oracle_ms + SLACK_MS,
            "{workload}@{scale}: cost-based pick {costp} ({c_ms:.3}ms) is more than \
             2x the oracle {oracle} ({oracle_ms:.3}ms)"
        );
        assert!(
            c_ms <= t_ms * 1.25 + SLACK_MS,
            "{workload}@{scale}: cost-based pick {costp} ({c_ms:.3}ms) is behind the \
             threshold pick {thresh} ({t_ms:.3}ms)"
        );
    };

    // Division on the shoot-out workloads, both semantics, plus one
    // parallel-context row (workers = 4 exercises the spawn-cost side
    // of the model).
    for &groups in &TIMING_SCALES {
        let w = DivisionWorkload {
            groups,
            divisor_size: (groups as f64).sqrt() as usize,
            containment_fraction: 0.1,
            extra_per_group: 4,
            noise_domain: 4 * groups,
            seed: 0xC057,
        };
        let (r, s, _) = w.generate();
        let (rs, ss) = (TableStats::analyze(&r), TableStats::analyze(&s));
        let workers_axis: &[usize] = if groups == 16_384 { &[1, 4] } else { &[1] };
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let expected = sj_setjoin::divide(&r, &s, sem);
            for &workers in workers_axis {
                let mut measured: Vec<(&str, f64)> = Vec::new();
                for alg in reg.division_algorithms() {
                    if alg.name() == "nested-loop" && groups > 4096 {
                        continue; // minutes of quadratic time, never the oracle
                    }
                    let ms = time_median(5, || {
                        let out = alg.run_with_workers(&r, &s, sem, workers);
                        assert_eq!(out, expected, "{} diverged", alg.name());
                        out
                    });
                    measured.push((alg.name(), ms));
                }
                let thresh = reg.auto_division_with(&r, &s, sem, workers).unwrap();
                let costp = reg
                    .auto_division_costed(&r, &s, sem, workers, Some((&rs, &ss)), &model)
                    .unwrap();
                let op = if sem == DivisionSemantics::Containment {
                    "÷⊇"
                } else {
                    "÷="
                };
                emit(
                    "division",
                    groups,
                    op,
                    workers,
                    &measured,
                    thresh.name(),
                    costp.name(),
                );
            }
        }
    }

    // Set-containment joins: the shoot-out scales for both element
    // distributions, plus the wide-set regime (where the threshold
    // selector reaches for 256-bit signatures).
    let sj_cases: &[(&str, usize, SetSizeDist, usize, ElementDist)] = &[
        (
            "setjoin-uniform",
            128,
            SetSizeDist::Uniform(2, 10),
            64,
            ElementDist::Uniform,
        ),
        (
            "setjoin-uniform",
            512,
            SetSizeDist::Uniform(2, 10),
            64,
            ElementDist::Uniform,
        ),
        (
            "setjoin-uniform",
            2048,
            SetSizeDist::Uniform(2, 10),
            64,
            ElementDist::Uniform,
        ),
        (
            "setjoin-zipf",
            128,
            SetSizeDist::Uniform(2, 10),
            64,
            ElementDist::Zipf(1.0),
        ),
        (
            "setjoin-zipf",
            2048,
            SetSizeDist::Uniform(2, 10),
            64,
            ElementDist::Zipf(1.0),
        ),
        (
            "setjoin-wide",
            512,
            SetSizeDist::Uniform(18, 28),
            512,
            ElementDist::Uniform,
        ),
    ];
    for &(name, groups, set_size, domain, dist) in sj_cases {
        let (r, s) = SetJoinWorkload {
            r_groups: groups,
            s_groups: groups,
            set_size,
            domain,
            elements: dist,
            seed: 0xC057,
        }
        .generate();
        let (rs, ss) = (TableStats::analyze(&r), TableStats::analyze(&s));
        let expected = sj_setjoin::nested_loop_set_join(&r, &s, SetPredicate::Contains);
        let mut measured: Vec<(&str, f64)> = Vec::new();
        for alg in reg.set_join_algorithms() {
            if !alg.supports(SetPredicate::Contains) {
                continue;
            }
            let ms = time_median(5, || {
                let out = alg.run_with_workers(&r, &s, SetPredicate::Contains, 1);
                assert_eq!(out, expected, "{} diverged", alg.name());
                out
            });
            measured.push((alg.name(), ms));
        }
        let thresh = reg
            .auto_set_join_with(&r, &s, SetPredicate::Contains, 1)
            .unwrap();
        let costp = reg
            .auto_set_join_costed(&r, &s, SetPredicate::Contains, 1, Some((&rs, &ss)), &model)
            .unwrap();
        emit(name, groups, "⊇", 1, &measured, thresh.name(), costp.name());
    }

    let path = csv.finish().unwrap();
    println!(
        "cost: cost-based picks within 2x of the per-algorithm oracle and never \
         behind the threshold picks on any row → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E21 — observability: hierarchical serving traces, the null-collector
// overhead bound, and cost-model calibration from measured runtimes
// ---------------------------------------------------------------------------

/// Three asserted sections closing the observability loop:
///
/// 1. **Trace** — a [`sj_obs::RingCollector`] installed around two
///    served queries (the division tree and a 60k⋈60k equi-join big
///    enough to open the partition gate) captures the full hierarchy
///    `server.dispatch → server.query → plan.node → kernel.* →
///    kernel.partition`, with snapshot capture under the dispatch span
///    and cross-thread partition workers adopted by the right parents;
///    the same trace then drives [`Engine::calibrate`].
/// 2. **Overhead** — with no collector installed a `span!` site costs
///    one relaxed atomic load; the measured per-site cost times the
///    spans one planned division query actually emits must stay below
///    3% of that query's median runtime.
/// 3. **Calibration** — a [`sj_stats::Calibrator`] fed the cost-model
///    shoot-out contexts (median runtimes against each algorithm's
///    analytic cost closure) refits the constants; on decisive pairs
///    (one algorithm ≥ 1.3× faster than another in the same context)
///    the refit model must produce no more ranking inversions than the
///    hand-calibrated default, and strictly fewer whenever the default
///    gets any pair wrong.
fn obs_run() {
    use sj_obs::RingCollector;
    use sj_server::{Server, ServerConfig};
    use sj_setjoin::registry::{division_cost, set_join_cost};
    use sj_stats::{Calibrator, CostModel, TableStats, COST_PARAM_NAMES};
    use std::sync::Arc;
    use std::time::Instant;

    let mut csv = CsvSink::new("obs", &["section", "key", "value"]);

    // -- 1. Trace: the serving hierarchy of two queries --------------------
    let w = DivisionWorkload {
        groups: 512,
        divisor_size: 22,
        containment_fraction: 0.2,
        extra_per_group: 4,
        noise_domain: 2048,
        seed: 0x0B5,
    };
    let (r, s, _) = w.generate();
    let mut db = Database::new();
    db.set("R", r);
    db.set("S", s);
    let n = 60_000i64;
    db.set(
        "E",
        Relation::from_tuples(2, (0..n).map(|i| Tuple::from_ints(&[i, i]))).unwrap(),
    );
    db.set(
        "F",
        Relation::from_tuples(2, (0..n).map(|i| Tuple::from_ints(&[i, i + 1]))).unwrap(),
    );
    // One worker over a 4-core budget → every query runs with 4
    // partition workers, so the big join fans out into kernel.partition
    // spans on pool threads.
    let server = Server::start(
        db,
        ServerConfig {
            workers: 1,
            cores: 4,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    let ring = Arc::new(RingCollector::new(4096));
    let (join_rows, profile) = sj_obs::with_collector(ring.clone(), || {
        session
            .query(division::division_double_difference("R", "S"))
            .unwrap();
        let resp = session
            .query_profiled(Expr::rel("E").join_eq([(2, 1)], Expr::rel("F")))
            .unwrap();
        (
            resp.relation.len(),
            resp.profile.expect("profiled query carries a profile"),
        )
    });
    assert_eq!(join_rows, n as usize);
    let log = ring.log();
    assert_eq!(log.evicted, 0, "ring sized for the demo trace");
    assert_eq!(log.spans("server.dispatch").count(), 2);
    let queries: Vec<_> = log.spans("server.query").collect();
    assert_eq!(queries.len(), 2);
    assert!(queries
        .iter()
        .all(|q| log.has_ancestor(q, "server.dispatch")));
    assert!(
        log.spans("storage.snapshot")
            .any(|snap| log.has_ancestor(snap, "server.dispatch")),
        "snapshot capture is traced under the dispatch span"
    );
    let plan_nodes = log
        .spans("plan.node")
        .filter(|p| log.has_ancestor(p, "server.query"))
        .count();
    assert!(plan_nodes > 0, "plan-DAG nodes traced under the query span");
    assert!(
        log.records
            .iter()
            .filter(|rec| rec.name.starts_with("kernel.") && rec.name != "kernel.partition")
            .any(|rec| log.has_ancestor(rec, "plan.node")),
        "kernel entry points traced under plan nodes"
    );
    let partitions: Vec<_> = log.spans("kernel.partition").collect();
    assert!(
        !partitions.is_empty(),
        "the 60k⋈60k join at 4 workers fans out into partition spans"
    );
    assert!(
        partitions
            .iter()
            .all(|p| log.has_ancestor(p, "server.query")),
        "cross-thread partition spans stay attached to the serving span"
    );
    println!("-- served trace ({} spans) --\n{}", log.len(), log.render());
    println!("-- EXPLAIN ANALYZE (cold tier) --\n{profile}");
    // The same trace refits the engine's cost model — the feedback
    // loop in one call. Two queries' worth of kernel spans is a thin
    // diet, so only sanity is asserted here; section 3 does the real
    // calibration on measured shoot-out contexts.
    let refit = Engine::new(Database::new()).calibrate(&log);
    assert!(refit.to_array().iter().all(|c| c.is_finite() && *c >= 0.0));
    println!(
        "engine.calibrate(trace): {}",
        COST_PARAM_NAMES
            .iter()
            .zip(refit.to_array())
            .map(|(name, v)| format!("{name}={v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    csv.row(&["trace".into(), "spans".into(), log.len().to_string()]);
    server.shutdown();

    // -- 2. Overhead: the disabled span! path ------------------------------
    assert!(
        !sj_obs::enabled(),
        "no collector is installed outside with_collector"
    );
    let iters: u64 = 4_000_000;
    let t0 = Instant::now();
    for i in 0..iters {
        let mut g = sj_obs::span!("kernel.join", left = i, right = i, workers = 4usize);
        g.attr("out_rows", i);
        std::hint::black_box(&g);
    }
    let per_site_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    let (r2, s2, _) = DivisionWorkload {
        groups: 4096,
        divisor_size: 64,
        containment_fraction: 0.1,
        extra_per_group: 4,
        noise_domain: 16_384,
        seed: 0xC057,
    }
    .generate();
    let mut db2 = Database::new();
    db2.set("R", r2);
    db2.set("S", s2);
    let engine = Engine::new(db2)
        .strategy(Strategy::Planned)
        .stats(StatsMode::Analyze)
        .parallelism(Parallelism::Threads(4));
    let expr = division::division_double_difference("R", "S");
    let ring2 = Arc::new(RingCollector::new(4096));
    sj_obs::with_collector(ring2.clone(), || {
        engine.query(expr.clone()).run().unwrap();
    });
    let spans_per_query = ring2.log().len();
    assert!(spans_per_query > 0);
    let query_ms = time_median(5, || engine.query(expr.clone()).run().unwrap());
    let overhead_pct = spans_per_query as f64 * per_site_ns / (query_ms * 1e6) * 100.0;
    println!(
        "null-collector span! site: {per_site_ns:.2}ns; a planned division query \
         emits {spans_per_query} spans over {query_ms:.3}ms → {overhead_pct:.4}% worst-case \
         disabled-path overhead"
    );
    assert!(
        overhead_pct < 3.0,
        "null-collector overhead {overhead_pct:.3}% ≥ 3% ({spans_per_query} spans × \
         {per_site_ns:.2}ns vs {query_ms:.3}ms)"
    );
    csv.row(&[
        "overhead".into(),
        "per_site_ns".into(),
        format!("{per_site_ns:.3}"),
    ]);
    csv.row(&[
        "overhead".into(),
        "spans_per_query".into(),
        spans_per_query.to_string(),
    ]);
    csv.row(&[
        "overhead".into(),
        "pct".into(),
        format!("{overhead_pct:.5}"),
    ]);

    // -- 3. Calibration: refit constants, count ranking inversions ---------
    let reg = Registry::standard();
    let default_model = CostModel::default();
    let mut cal = Calibrator::new();
    // Each context is one (workload, semantics, workers) cell: the
    // candidate algorithms with their measured medians and analytic
    // cost closures. Inversions are only meaningful within a context.
    type CostFn = Box<dyn Fn(&CostModel) -> f64>;
    let mut contexts: Vec<Vec<(String, f64, CostFn)>> = Vec::new();
    for &groups in &[256usize, 1024, 4096] {
        let w = DivisionWorkload {
            groups,
            divisor_size: (groups as f64).sqrt() as usize,
            containment_fraction: 0.1,
            extra_per_group: 4,
            noise_domain: 4 * groups,
            seed: 0xC057,
        };
        let (r, s, _) = w.generate();
        let (rs, ss) = (TableStats::analyze(&r), TableStats::analyze(&s));
        let workers_axis: &[usize] = if groups == 4096 { &[1, 4] } else { &[1] };
        for sem in [DivisionSemantics::Containment, DivisionSemantics::Equality] {
            let expected = sj_setjoin::divide(&r, &s, sem);
            for &workers in workers_axis {
                let mut ctx: Vec<(String, f64, CostFn)> = Vec::new();
                for alg in reg.division_algorithms() {
                    if alg.name() == "nested-loop" && groups > 1024 {
                        continue; // quadratic — never competitive here
                    }
                    let ms = time_median(3, || {
                        let out = alg.run_with_workers(&r, &s, sem, workers);
                        assert_eq!(out, expected, "{} diverged", alg.name());
                        out
                    });
                    let name = alg.name().to_string();
                    let (alg, rs, ss) = (alg.clone(), rs.clone(), ss.clone());
                    let f: CostFn =
                        Box::new(move |m| division_cost(m, alg.as_ref(), &rs, &ss, sem, workers));
                    cal.observe_cost(&f, ms * 1e3); // model units ≈ µs
                    ctx.push((name, ms, f));
                }
                contexts.push(ctx);
            }
        }
    }
    let sj_cases: &[(usize, ElementDist)] =
        &[(512, ElementDist::Uniform), (2048, ElementDist::Zipf(1.0))];
    for &(groups, dist) in sj_cases {
        let (r, s) = SetJoinWorkload {
            r_groups: groups,
            s_groups: groups,
            set_size: SetSizeDist::Uniform(2, 10),
            domain: 64,
            elements: dist,
            seed: 0xC057,
        }
        .generate();
        let (rs, ss) = (TableStats::analyze(&r), TableStats::analyze(&s));
        let expected = sj_setjoin::nested_loop_set_join(&r, &s, SetPredicate::Contains);
        let mut ctx: Vec<(String, f64, CostFn)> = Vec::new();
        for alg in reg.set_join_algorithms() {
            if !alg.supports(SetPredicate::Contains) {
                continue;
            }
            let ms = time_median(3, || {
                let out = alg.run_with_workers(&r, &s, SetPredicate::Contains, 1);
                assert_eq!(out, expected, "{} diverged", alg.name());
                out
            });
            let name = alg.name().to_string();
            let (alg, rs, ss) = (alg.clone(), rs.clone(), ss.clone());
            let f: CostFn = Box::new(move |m| {
                set_join_cost(m, alg.as_ref(), &rs, &ss, SetPredicate::Contains, 1)
            });
            cal.observe_cost(&f, ms * 1e3);
            ctx.push((name, ms, f));
        }
        contexts.push(ctx);
    }

    let inversions = |model: &CostModel| {
        let (mut decisive, mut inv) = (0usize, 0usize);
        for ctx in &contexts {
            for (_, ta, fa) in ctx {
                for (_, tb, fb) in ctx {
                    if ta * 1.3 < *tb {
                        decisive += 1;
                        if fa(model) > fb(model) {
                            inv += 1;
                        }
                    }
                }
            }
        }
        (decisive, inv)
    };
    // Scale-invariant goodness-of-shape: variance of log(predicted /
    // measured) across all rows. Ranking is what the model sells;
    // among equal rankings prefer the shape that tracks the clock.
    let residual = |model: &CostModel| {
        let logs: Vec<f64> = contexts
            .iter()
            .flatten()
            .map(|(_, ms, f)| (f(model).max(1e-12) / (ms * 1e3)).ln())
            .collect();
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>()
    };
    let score = |model: &CostModel| {
        let (_, inv) = inversions(model);
        (inv, residual(model))
    };

    // Least squares gives the scale; a greedy multiplicative coordinate
    // descent then polishes the constants against the metric that
    // matters — decisive-pair ranking on the measured contexts (the
    // residual breaks ties, so the polish never drifts for free).
    let ls_fit = cal.fit(&default_model);
    let defaults = default_model.to_array();
    let mut calibrated = if score(&ls_fit) < score(&default_model) {
        ls_fit.clone()
    } else {
        default_model.clone()
    };
    let (mut best_inv, mut best_res) = score(&calibrated);
    for _sweep in 0..3 {
        let mut improved = false;
        for i in 0..sj_stats::COST_PARAMS {
            for &factor in &[0.25f64, 0.5, 0.8, 1.25, 2.0, 4.0] {
                let mut a = calibrated.to_array();
                let base = if a[i] > 0.0 {
                    a[i]
                } else {
                    defaults[i].max(1e-6)
                };
                a[i] = base * factor;
                let candidate = CostModel::from_array(a);
                let (inv, res) = score(&candidate);
                if inv < best_inv || (inv == best_inv && res < best_res * (1.0 - 1e-9)) {
                    calibrated = candidate;
                    best_inv = inv;
                    best_res = res;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    println!(
        "refit from {} measurements (LS fit → ranking polish):",
        cal.len()
    );
    for (i, name) in COST_PARAM_NAMES.iter().enumerate() {
        println!(
            "  {name:<16} {:>10.3} → {:>10.3} → {:>10.3}",
            defaults[i],
            ls_fit.to_array()[i],
            calibrated.to_array()[i]
        );
        csv.row(&[
            "calibration".into(),
            (*name).into(),
            format!("{:.6}", calibrated.to_array()[i]),
        ]);
    }
    let print_inversions = |label: &str, model: &CostModel| {
        for ctx in &contexts {
            for (na, ta, fa) in ctx {
                for (nb, tb, fb) in ctx {
                    if ta * 1.3 < *tb && fa(model) > fb(model) {
                        println!(
                            "  [{label}] {na} ({ta:.3}ms, cost {:.0}) ranked behind \
                             {nb} ({tb:.3}ms, cost {:.0})",
                            fa(model),
                            fb(model)
                        );
                    }
                }
            }
        }
    };
    let (pairs, inv_def) = inversions(&default_model);
    let (_, inv_cal) = inversions(&calibrated);
    print_inversions("default", &default_model);
    print_inversions("refit", &calibrated);
    println!(
        "cost-rank inversions on {pairs} decisive pairs: hand-calibrated {inv_def}, \
         refit {inv_cal}"
    );
    csv.row(&["inversions".into(), "default".into(), inv_def.to_string()]);
    csv.row(&[
        "inversions".into(),
        "calibrated".into(),
        inv_cal.to_string(),
    ]);
    assert!(
        inv_cal <= inv_def,
        "calibration made the ranking worse: {inv_def} → {inv_cal} inversions"
    );
    if inv_def > 0 {
        assert!(
            inv_cal < inv_def,
            "calibration failed to reduce the {inv_def} default inversions"
        );
    }

    let path = csv.finish().unwrap();
    println!(
        "obs: trace hierarchy intact, <3% null-collector overhead, calibration \
         no worse than hand-tuned → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// E19 — serving throughput: the sj-server front end under a zipf-skewed
// client trace, across worker counts and cache tiers
// ---------------------------------------------------------------------------

/// Two passes over the serving subsystem:
///
/// 1. **Differential** — the mixed read/write/ANALYZE trace replayed at
///    every worker count with every answer checked byte-identical
///    against a direct [`Engine`] over a locally-maintained copy of the
///    evolving database (the same invariant `tests/serving.rs` pins).
/// 2. **Throughput matrix** — the read-only zipf hot-set trace replayed
///    by `workers` concurrent client sessions at each cache tier, after
///    an untimed warm-up replay so each tier is measured in steady
///    state: `off` re-plans and re-executes everything (cold), `plan`
///    skips optimize+plan but executes, `plan+result` answers hot
///    queries from the result cache.
///
/// Asserts the acceptance criteria: warmed `plan+result` throughput is
/// ≥ 5× cold throughput at every worker count, and warmed `plan` is
/// never slower than `off` (up to the usual 1.25× timing-jitter
/// allowance plus a small absolute slack).
fn serving() {
    use sj_server::{CacheMode, Server, ServerConfig, WriteOp};
    use sj_workload::{ServingWorkload, TraceOp};
    use std::time::Instant;

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host parallelism: {host} CPU(s). The workers axis divides that core\n\
         budget between inter-query concurrency and intra-query partition\n\
         parallelism; cache-tier speedups are CPU-count independent."
    );
    let w = ServingWorkload {
        groups: 384,
        divisor_size: 16,
        hot_queries: 12,
        theta: 1.1,
        ops: 200,
        write_fraction: 0.05,
        analyze_fraction: 0.01,
        seed: 0x5EB5,
    };
    let mut csv = CsvSink::new(
        "serving_throughput",
        &[
            "phase",
            "workers",
            "cache",
            "clients",
            "queries",
            "wall_ms",
            "qps",
            "plan_hits",
            "result_hits",
            "max_q_error",
        ],
    );
    const WORKER_AXIS: [usize; 4] = [1, 2, 4, 8];

    // Pass 1 — differential: server ≡ direct engine on the mixed trace.
    let trace = w.trace();
    for &workers in &WORKER_AXIS {
        let server = Server::start(
            w.database(),
            ServerConfig {
                workers,
                cores: workers,
                ..ServerConfig::default()
            },
        );
        let session = server.session();
        let mut local = w.database();
        let t0 = Instant::now();
        let mut queries = 0u64;
        for op in trace.iter().cloned() {
            match op {
                TraceOp::Query(e) => {
                    queries += 1;
                    let served = session.query(e.clone()).unwrap();
                    let direct = Engine::new(local.clone()).query(e).run().unwrap();
                    assert_eq!(
                        *served.relation, direct.relation,
                        "differential: server ≠ direct engine @{workers} workers"
                    );
                }
                TraceOp::Insert { relation, tuple } => {
                    local.insert(&relation, tuple.clone()).unwrap();
                    session.write(WriteOp::Insert { relation, tuple }).unwrap();
                }
                TraceOp::Analyze => session.write(WriteOp::Analyze).map(|_| ()).unwrap(),
            }
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = server.stats();
        assert_eq!(server.shutdown(), local, "final states @{workers} workers");
        println!(
            "differential @{workers}w: {queries} queries byte-identical to the \
             direct engine ({} result hits, {} plan hits)",
            stats.result_hits, stats.plan_hits
        );
        csv.row(&[
            "mixed-differential".into(),
            workers.to_string(),
            "plan+result".into(),
            "1".into(),
            queries.to_string(),
            format!("{wall_ms:.3}"),
            format!("{:.1}", queries as f64 / (wall_ms / 1e3).max(1e-9)),
            stats.plan_hits.to_string(),
            stats.result_hits.to_string(),
            format!("{:.3}", stats.max_q_error_seen.unwrap_or(f64::NAN)),
        ]);
    }

    // Pass 2 — the throughput matrix on the read-only hot-set trace.
    let hot: Vec<_> = w
        .read_only()
        .trace()
        .into_iter()
        .filter_map(|op| match op {
            TraceOp::Query(e) => Some(e),
            _ => None,
        })
        .collect();
    println!(
        "\n{:>7} {:>12} {:>8} {:>8} {:>10} {:>10} {:>10} {:>11}",
        "workers", "cache", "clients", "queries", "wall ms", "qps", "plan hits", "result hits"
    );
    const SLACK_MS: f64 = 20.0;
    for &workers in &WORKER_AXIS {
        let mut qps_of: Vec<(&str, f64, f64)> = Vec::new(); // (mode, qps, wall)
        for (mode_name, mode) in [
            ("off", CacheMode::Off),
            ("plan", CacheMode::Plan),
            ("plan+result", CacheMode::PlanAndResult),
        ] {
            let server = Server::start(
                w.database(),
                ServerConfig {
                    workers,
                    cores: workers,
                    cache: mode,
                    ..ServerConfig::default()
                },
            );
            // Untimed warm-up replay: populates whichever tiers exist.
            let session = server.session();
            for e in &hot {
                session.query(e.clone()).unwrap();
            }
            let warm = server.stats();
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let session = server.session();
                    let hot = &hot;
                    scope.spawn(move || {
                        for e in hot {
                            session.query(e.clone()).unwrap();
                        }
                    });
                }
            });
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let stats = server.stats();
            let queries = stats.queries - warm.queries;
            let qps = queries as f64 / (wall_ms / 1e3).max(1e-9);
            qps_of.push((mode_name, qps, wall_ms));
            println!(
                "{workers:>7} {mode_name:>12} {workers:>8} {queries:>8} {wall_ms:>10.3} \
                 {qps:>10.0} {:>10} {:>11}",
                stats.plan_hits, stats.result_hits
            );
            csv.row(&[
                "hotset".into(),
                workers.to_string(),
                mode_name.into(),
                workers.to_string(),
                queries.to_string(),
                format!("{wall_ms:.3}"),
                format!("{qps:.1}"),
                stats.plan_hits.to_string(),
                stats.result_hits.to_string(),
                format!("{:.3}", stats.max_q_error_seen.unwrap_or(f64::NAN)),
            ]);
        }
        let get = |m: &str| qps_of.iter().find(|c| c.0 == m).copied().unwrap();
        let (_, off_qps, off_wall) = get("off");
        let (_, _, plan_wall) = get("plan");
        let (_, result_qps, _) = get("plan+result");
        assert!(
            result_qps >= 5.0 * off_qps,
            "@{workers} workers: result-cache-hot qps ({result_qps:.0}) is not \
             ≥ 5x cold qps ({off_qps:.0})"
        );
        assert!(
            plan_wall <= off_wall * 1.25 + SLACK_MS,
            "@{workers} workers: plan-cache-on ({plan_wall:.1}ms) slower than \
             cache-off ({off_wall:.1}ms)"
        );
    }
    let path = csv.finish().unwrap();
    println!(
        "serving: answers byte-identical to the direct engine at every worker \
         count; result-cache-hot ≥ 5x cold and plan-cache-on never behind \
         cache-off → {}",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// Proposition 13, constructively: distinguishing formulas
// ---------------------------------------------------------------------------

fn distinguish() {
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
}
