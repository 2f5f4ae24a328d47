//! Relational division `R(A, B) ÷ S(B)` — "the prototypical set join"
//! (Codd; Section 1 of the paper) — with the four classical algorithm
//! families surveyed by Graefe ("Relational division: four algorithms and
//! their performance", ICDE 1989 — reference \[11\] of the paper):
//!
//! | algorithm | paper-era name | complexity |
//! |---|---|---|
//! | [`nested_loop_division`] | naive / nested loops | O(\|πA R\| · \|S\| · log \|R\|) |
//! | [`sort_merge_division`] | merge division | O(\|R\| + \|S\|) on sorted storage |
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
//!
//! Every linear algorithm (and the partitioned one of
//! [`crate::parallel`]) reads the dividend as the dense operand view of
//! [`crate::columnar`]: its groups are column 0's runs, and its element
//! column and the divisor are coded jointly, so a group's B-set is a
//! sorted `i64` slice and the divisor a sorted `i64` slice too. A `Tuple`
//! is built only for each quotient key. The nested loop stays on
//! `Value`s — it is the quadratic baseline and the oracle.

use crate::columnar::Operand;
use sj_storage::{FxHashMap, FxHashSet, Relation, Tuple, Value};

/// Which comparison the division applies to each A-group's B-set.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DivisionSemantics {
    /// `{ a | {b : R(a,b)} ⊇ S }` — classical division.
    Containment,
    /// `{ a | {b : R(a,b)} = S }` — the set-equality variant.
    Equality,
}

/// Nested-loop division: for every candidate A-value, probe `R` for every
/// divisor value. The quadratic baseline (deliberately so — it mirrors the
/// work pattern of the quadratic RA plans).
pub fn nested_loop_division(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
    assert_eq!(r.arity(), 2, "dividend must be binary R(A,B)");
    assert_eq!(s.arity(), 1, "divisor must be unary S(B)");
    let mut candidates: Vec<Value> = r.iter().map(|t| t[0].clone()).collect();
    candidates.dedup(); // canonical order ⇒ equal As adjacent
    let divisor: Vec<&Value> = s.iter().map(|t| &t[0]).collect();
    let mut out: Vec<Tuple> = Vec::new();
    'cand: for a in candidates {
        for b in &divisor {
            let probe = Tuple::from([a.clone(), (*b).clone()]);
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
        out.push(Tuple::from([a]));
    }
    Relation::from_tuples(1, out).expect("unary output")
}

/// Sort-merge division. Relations are stored in canonical order, so each
/// A-group's B-set and the divisor are sorted already: no sort runs, and
/// one pass over the groups decides each one. A group smaller than the
/// divisor cannot contain it (and under equality a group of any other
/// size cannot equal it), so its size alone rejects it; otherwise a merge
/// walks the group against the divisor and stops at the first divisor
/// value the group lacks. Each dividend row is touched at most once and
/// the divisor at most once per surviving group of at least `|S|` rows,
/// so the pass is O(|R| + |S|).
pub fn sort_merge_division(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
    let (dividend, divisor) = Operand::dividend(r, s);
    dividend.quotient((0..dividend.len()).filter(|&g| {
        let set = dividend.set(g);
        let sized = match sem {
            DivisionSemantics::Containment => set.len() >= divisor.len(),
            DivisionSemantics::Equality => set.len() == divisor.len(),
        };
        sized && covers(set, &divisor)
    }))
}

/// Does sorted `set` hold every value of sorted `divisor`? A merge that
/// stops at the first divisor value the set lacks.
fn covers(set: &[i64], divisor: &[i64]) -> bool {
    let mut i = 0usize;
    for &d in divisor {
        while i < set.len() && set[i] < d {
            i += 1;
        }
        if i == set.len() || set[i] != d {
            return false;
        }
        i += 1;
    }
    true
}

/// Graefe's hash-division: a hash table over the divisor assigns each
/// divisor value a bit index, and one pass over the dividend sets, per
/// A-group, the bits of the divisor values it covers — plus an "extra B"
/// flag for the equality variant. Groups are contiguous runs, so one
/// bitmap serves every group in turn, cleared between them. One table,
/// one probe per dividend row: expected linear time.
pub fn hash_division(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
    let (dividend, divisor) = Operand::dividend(r, s);
    let index: FxHashMap<i64, usize> = divisor.iter().enumerate().map(|(ix, &d)| (d, ix)).collect();
    let mut bitmap = vec![0u64; divisor.len().div_ceil(64)];
    dividend.quotient((0..dividend.len()).filter(|&g| {
        bitmap.fill(0);
        let (mut covered, mut extra) = (0usize, false);
        for v in dividend.set(g) {
            match index.get(v) {
                Some(&ix) => {
                    let (w, bit) = (ix / 64, 1u64 << (ix % 64));
                    if bitmap[w] & bit == 0 {
                        bitmap[w] |= bit;
                        covered += 1;
                    }
                }
                None => extra = true,
            }
        }
        covered == divisor.len() && (sem == DivisionSemantics::Containment || !extra)
    }))
}

/// Counting (aggregate) division — the direct-execution counterpart of the
/// paper's Section 5 expression
/// `π_A(γ_{A,count}(R ⋈_{B=C} S) ⋈_{count=count} γ_{count}(S))`:
/// count, per A, the B's that fall in the divisor and compare with |S|.
/// Unlike the *expression* (whose inner join drops groups with zero
/// matches), the direct implementation handles the empty divisor:
/// `R ÷ ∅ = π_A(R)` under containment.
pub fn counting_division(r: &Relation, s: &Relation, sem: DivisionSemantics) -> Relation {
    let (dividend, divisor) = Operand::dividend(r, s);
    let divisor: FxHashSet<i64> = divisor.iter().copied().collect();
    dividend.quotient((0..dividend.len()).filter(|&g| counted(dividend.set(g), &divisor, sem)))
}

/// The Section 5 test on one A-group's B-set: as many of its values fall
/// in the divisor as the divisor has (set semantics: no B repeats within
/// a group), and under equality no others.
pub(crate) fn counted(set: &[i64], divisor: &FxHashSet<i64>, sem: DivisionSemantics) -> bool {
    let matched = set.iter().filter(|v| divisor.contains(v)).count();
    matched == divisor.len() && (sem == DivisionSemantics::Containment || set.len() == matched)
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
