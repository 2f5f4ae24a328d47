//! The paper's Fig. 1 scenario: diagnosing patients by set-containment
//! join, end to end — exactly the tables printed in the paper, run
//! through the [`Engine`] and its algorithm registry.
//!
//! ```bash
//! cargo run --example medical_diagnosis
//! ```

use setjoins::prelude::*;
use setjoins::setjoin::run_division_traced;
use sj_storage::display::render_relation;
use sj_workload::figures;
use std::time::Instant;

fn main() {
    let engine = Engine::new(figures::fig1());
    let db = engine.db();

    println!("== Fig. 1 of Leinders & Van den Bussche ==\n");
    println!(
        "{}",
        render_relation(db.get("Person").unwrap(), "Person", &["pName", "Symptom"])
    );
    println!(
        "{}",
        render_relation(db.get("Disease").unwrap(), "Disease", &["dName", "Symptom"])
    );
    println!(
        "{}",
        render_relation(db.get("Symptoms").unwrap(), "Symptoms", &["Symptom"])
    );

    // Set-containment join: which persons show ALL symptoms of which
    // disease? The engine's auto selector picks the algorithm.
    let diagnosis = engine
        .set_join("Person", "Disease", SetPredicate::Contains)
        .unwrap();
    println!(
        "{}",
        render_relation(
            &diagnosis.relation,
            "Person ⋈[Person.Symptom ⊇ Disease.Symptom] Disease",
            &["pName", "dName"]
        )
    );
    println!(
        "(set join ran {} — {})\n",
        diagnosis.algorithm, diagnosis.complexity
    );
    assert_eq!(diagnosis.relation, figures::fig1_expected_join());

    // Division: who has every symptom in the Symptoms checklist?
    let quotient = engine
        .divide("Person", "Symptoms", DivisionSemantics::Containment)
        .unwrap();
    println!(
        "{}",
        render_relation(&quotient.relation, "Person ÷ Symptoms", &["pName"])
    );
    println!(
        "(division ran {} — {})\n",
        quotient.algorithm, quotient.complexity
    );
    assert_eq!(quotient.relation, figures::fig1_expected_division());

    // Compare the registered algorithm families on a scaled-up version of
    // the same workload: an ablation looks each algorithm up in the
    // registry and runs it directly.
    println!("== scaled workload: 2,000 patients, 12-symptom checklist ==\n");
    let w = sj_workload::DivisionWorkload {
        groups: 2_000,
        divisor_size: 12,
        containment_fraction: 0.02,
        extra_per_group: 6,
        noise_domain: 500,
        seed: 20_260_613,
    };
    let (r, s, expected) = w.generate();
    for alg in Registry::standard().division_algorithms() {
        let start = Instant::now();
        let quotient = run_division_traced(alg, &r, &s, DivisionSemantics::Containment, 1);
        let elapsed = start.elapsed();
        assert_eq!(quotient, expected);
        println!(
            "  {:<12} {:>8.1?}  → {} qualifying patients ({})",
            alg.name(),
            elapsed,
            quotient.len(),
            alg.complexity()
        );
    }
    let mut big = Database::new();
    big.set("Person", r);
    big.set("Symptoms", s);
    let big_engine = Engine::new(big);
    let auto = big_engine
        .divide("Person", "Symptoms", DivisionSemantics::Containment)
        .unwrap();
    println!("  auto selector picked: {}", auto.algorithm);
    println!(
        "\n(The paper proves why the nested-loop pattern — the only one \
         plain RA can express — must fall behind.)"
    );
}
