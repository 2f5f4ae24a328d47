//! Relational division `R(A, B) ÷ S(B)` — "the prototypical set join"
//! (Codd; Section 1 of the paper) — with the four classical algorithm
//! families surveyed by Graefe ("Relational division: four algorithms and
//! their performance", ICDE 1989 — reference \[11\] of the paper):
//!
//! | algorithm | paper-era name | complexity |
//! |---|---|---|
//! | [`nested_loop_division`] | naive / nested loops | O(\|πA R\| · \|S\| · log \|R\|) |
//! | [`sort_merge_division`] | merge division | O(sort + \|R\| + \|S\|) |
//! | [`hash_division`] | Graefe's hash-division | O(\|R\| + \|S\|) expected |
//! | [`counting_division`] | aggregate/counting division | O(\|R\| + \|S\|) expected |
//!
//! The paper proves (Proposition 26) that *inside plain RA* every plan for
//! this operator is quadratic, while the counting approach — the Section 5
//! grouping/aggregation expression — is linear. These direct
//! implementations are the baselines the benchmarks compare against the RA
//! plans of `sj_algebra::division`.
//!
//! Both division semantics from the paper's introduction are supported:
//! **containment** (`{b | R(a,b)} ⊇ S`) and **equality**
//! (`{b | R(a,b)} = S`).

use sj_storage::{FxHashMap, FxHashSet, Relation, Tuple, Value};

/// Which comparison the division applies to each A-group's B-set.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DivisionSemantics {
    /// `{ a | {b : R(a,b)} ⊇ S }` — classical division.
    Containment,
    /// `{ a | {b : R(a,b)} = S }` — the set-equality variant.
    Equality,
}

fn check_shapes(r: &Relation, s: &Relation) {
    assert_eq!(r.arity(), 2, "dividend must be binary R(A,B)");
    assert_eq!(s.arity(), 1, "divisor must be unary S(B)");
}

/// Nested-loop division: for every candidate A-value, probe `R` for every
/// divisor value. The quadratic baseline (deliberately so — it mirrors the
/// work pattern of the quadratic RA plans).
pub fn nested_loop_division(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
    check_shapes(r, s);
    let mut candidates: Vec<Value> = r.iter().map(|t| t[0].clone()).collect();
    candidates.dedup(); // canonical order ⇒ equal As adjacent
    let divisor: Vec<&Value> = s.iter().map(|t| &t[0]).collect();
    let mut out: Vec<Tuple> = Vec::new();
    'cand: for a in candidates {
        for b in &divisor {
            let probe = Tuple::new(vec![a.clone(), (*b).clone()]);
            if !r.contains(&probe) {
                continue 'cand;
            }
        }
        if sem == DivisionSemantics::Equality {
            // No extra B's allowed: count the A-group size.
            let group = r.iter().filter(|t| t[0] == a).count();
            if group != divisor.len() {
                continue 'cand;
            }
        }
        out.push(Tuple::new(vec![a]));
    }
    Relation::from_tuples(1, out).expect("unary output")
}

/// Sort-merge division. `Relation` storage is already sorted by (A, B), so
/// each A-group's B-list appears in order; one merge pass against the
/// (sorted) divisor decides each group. Linear after sorting — this is the
/// O(n log n) strategy the paper's footnote 1 refers to.
pub fn sort_merge_division(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
    check_shapes(r, s);
    let divisor: Vec<&Value> = s.iter().map(|t| &t[0]).collect();
    let tuples = r.tuples();
    let mut out: Vec<Tuple> = Vec::new();
    let mut i = 0;
    while i < tuples.len() {
        let a = &tuples[i][0];
        // Extent of this A-group.
        let mut j = i;
        while j < tuples.len() && &tuples[j][0] == a {
            j += 1;
        }
        // Merge the group's sorted B-run against the sorted divisor.
        let mut matched = 0usize;
        let mut gi = i;
        let mut di = 0usize;
        while gi < j && di < divisor.len() {
            match tuples[gi][1].cmp(divisor[di]) {
                std::cmp::Ordering::Less => gi += 1,
                std::cmp::Ordering::Greater => di += 1,
                std::cmp::Ordering::Equal => {
                    matched += 1;
                    gi += 1;
                    di += 1;
                }
            }
        }
        let group_size = j - i;
        let qualifies = match sem {
            DivisionSemantics::Containment => matched == divisor.len(),
            DivisionSemantics::Equality => matched == divisor.len() && group_size == divisor.len(),
        };
        if qualifies {
            out.push(Tuple::new(vec![a.clone()]));
        }
        i = j;
    }
    Relation::from_tuples(1, out).expect("unary output")
}

/// Graefe's hash-division: a hash table over the divisor assigns each
/// divisor value an index; each candidate A-value keeps a bitmap of the
/// divisor values it has covered (plus an "extra B" flag for the equality
/// variant). One pass over `R`, one table, expected linear time.
pub fn hash_division(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
    check_shapes(r, s);
    let mut divisor_index: FxHashMap<&Value, usize> = FxHashMap::default();
    for (ix, t) in s.iter().enumerate() {
        divisor_index.insert(&t[0], ix);
    }
    let words = divisor_index.len().div_ceil(64);
    struct Group {
        bitmap: Vec<u64>,
        covered: usize,
        extra: bool,
    }
    let mut groups: FxHashMap<&Value, Group> = FxHashMap::default();
    for t in r {
        let g = groups.entry(&t[0]).or_insert_with(|| Group {
            bitmap: vec![0; words],
            covered: 0,
            extra: false,
        });
        match divisor_index.get(&t[1]) {
            Some(&ix) => {
                let (w, bit) = (ix / 64, 1u64 << (ix % 64));
                if g.bitmap[w] & bit == 0 {
                    g.bitmap[w] |= bit;
                    g.covered += 1;
                }
            }
            None => g.extra = true,
        }
    }
    let need = divisor_index.len();
    let out = groups.into_iter().filter_map(|(a, g)| {
        let ok = match sem {
            DivisionSemantics::Containment => g.covered == need,
            DivisionSemantics::Equality => g.covered == need && !g.extra,
        };
        ok.then(|| Tuple::new(vec![a.clone()]))
    });
    Relation::from_tuples(1, out).expect("unary output")
}

/// Counting (aggregate) division — the direct-execution counterpart of the
/// paper's Section 5 expression
/// `π_A(γ_{A,count}(R ⋈_{B=C} S) ⋈_{count=count} γ_{count}(S))`:
/// count, per A, the B's that fall in the divisor and compare with |S|.
/// Unlike the *expression* (whose inner join drops groups with zero
/// matches), the direct implementation handles the empty divisor:
/// `R ÷ ∅ = π_A(R)` under containment.
pub fn counting_division(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
    check_shapes(r, s);
    let divisor: FxHashSet<&Value> = s.iter().map(|t| &t[0]).collect();
    // matched and total counts per A (distinct (A,B) guaranteed by set
    // semantics).
    let mut counts: FxHashMap<&Value, (usize, usize)> = FxHashMap::default();
    for t in r {
        let e = counts.entry(&t[0]).or_insert((0, 0));
        if divisor.contains(&t[1]) {
            e.0 += 1;
        }
        e.1 += 1;
    }
    let need = divisor.len();
    let out = counts.into_iter().filter_map(|(a, (matched, total))| {
        let ok = match sem {
            DivisionSemantics::Containment => matched == need,
            DivisionSemantics::Equality => matched == need && total == need,
        };
        ok.then(|| Tuple::new(vec![a.clone()]))
    });
    Relation::from_tuples(1, out).expect("unary output")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use DivisionSemantics::{Containment, Equality};

    fn r() -> Relation {
        Relation::from_int_rows(&[
            &[1, 7],
            &[1, 8],
            &[1, 9], // superset of S
            &[2, 7],
            &[2, 8], // exactly S
            &[3, 7], // proper subset
            &[4, 9], // disjoint
        ])
    }

    fn s() -> Relation {
        Relation::from_int_rows(&[&[7], &[8]])
    }

    #[test]
    fn containment_division() {
        for alg in Registry::standard().division_algorithms() {
            let name = alg.name();
            assert_eq!(
                alg.run(&r(), &s(), Containment, 3),
                Relation::from_int_rows(&[&[1], &[2]]),
                "{name}"
            );
        }
    }

    #[test]
    fn equality_division() {
        for alg in Registry::standard().division_algorithms() {
            let name = alg.name();
            assert_eq!(
                alg.run(&r(), &s(), Equality, 3),
                Relation::from_int_rows(&[&[2]]),
                "{name}"
            );
        }
    }

    #[test]
    fn empty_divisor() {
        let empty = Relation::empty(1);
        for alg in Registry::standard().division_algorithms() {
            let name = alg.name();
            // Containment: every A qualifies (⊇ ∅).
            assert_eq!(
                alg.run(&r(), &empty, Containment, 3),
                Relation::from_int_rows(&[&[1], &[2], &[3], &[4]]),
                "{name} containment"
            );
            // Equality: no A has an empty B-set.
            assert!(
                alg.run(&r(), &empty, Equality, 3).is_empty(),
                "{name} equality"
            );
        }
    }

    #[test]
    fn empty_dividend() {
        let empty_r = Relation::empty(2);
        for alg in Registry::standard().division_algorithms() {
            let name = alg.name();
            assert!(alg.run(&empty_r, &s(), Containment, 3).is_empty(), "{name}");
            assert!(alg.run(&empty_r, &s(), Equality, 3).is_empty(), "{name}");
        }
    }

    #[test]
    fn divisor_value_absent_from_dividend() {
        let s99 = Relation::from_int_rows(&[&[7], &[99]]);
        for alg in Registry::standard().division_algorithms() {
            let name = alg.name();
            assert!(alg.run(&r(), &s99, Containment, 3).is_empty(), "{name}");
        }
    }

    #[test]
    fn fig1_person_divided_by_symptoms() {
        // Fig. 1 of the paper: Person ÷ Symptoms = {An, Bob}.
        let person = Relation::from_str_rows(&[
            &["An", "headache"],
            &["An", "sore throat"],
            &["An", "neck pain"],
            &["Bob", "headache"],
            &["Bob", "sore throat"],
            &["Bob", "memory loss"],
            &["Bob", "neck pain"],
            &["Carol", "headache"],
        ]);
        let symptoms = Relation::from_str_rows(&[&["headache"], &["neck pain"]]);
        for alg in Registry::standard().division_algorithms() {
            let name = alg.name();
            assert_eq!(
                alg.run(&person, &symptoms, Containment, 3),
                Relation::from_str_rows(&[&["An"], &["Bob"]]),
                "{name}"
            );
        }
    }

    #[test]
    fn agrees_with_ra_plan() {
        use sj_eval::evaluate;
        let mut db = sj_storage::Database::new();
        db.set("R", r());
        db.set("S", s());
        let plan = sj_algebra::division::division_double_difference("R", "S");
        let via_ra = evaluate(&plan, &db).unwrap();
        assert_eq!(via_ra, hash_division(&r(), &s(), Containment));
        let eq_plan = sj_algebra::division::division_equality("R", "S");
        assert_eq!(
            evaluate(&eq_plan, &db).unwrap(),
            hash_division(&r(), &s(), Equality)
        );
    }

    #[test]
    #[should_panic(expected = "dividend must be binary")]
    fn wrong_dividend_arity_panics() {
        hash_division(&Relation::empty(3), &Relation::empty(1), Containment);
    }

    #[test]
    #[should_panic(expected = "divisor must be unary")]
    fn wrong_divisor_arity_panics() {
        hash_division(&Relation::empty(2), &Relation::empty(2), Containment);
    }
}
