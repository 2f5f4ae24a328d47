//! Set joins `R(A,B) ⋈_{B θ D} S(C,D)`: relate A-values and C-values by a
//! predicate on their associated value *sets* (the paper's introduction,
//! after [17, 18]).
//!
//! Supported predicates: `⊇` (set-containment join), `⊆`, `=`
//! (set-equality join) and `∩ ≠ ∅` — the last one, as the paper remarks,
//! "boils down to an ordinary equijoin".
//!
//! Algorithms:
//!
//! * [`nested_loop_set_join`] — compare every group pair on `Value`s;
//!   the oracle every other algorithm (and the benchmark) is checked
//!   against, and deliberately the only one that does not read the dense
//!   operand view. For set-containment joins the paper notes that
//!   nothing asymptotically better than quadratic is known.
//! * [`signature_set_join`] — 64-bit Bloom-style signatures per group
//!   prune non-candidates before an exact sorted-merge verification
//!   (Helmer–Moerkotte / Ramasamy et al. style): the one-word case of
//!   [`crate::wide_signature_set_join`]. Same worst case, large
//!   constant-factor wins on selective inputs.
//! * [`hash_set_equality_join`] — set-equality join by hashing each
//!   group's canonical B-list: O(n log n) + output, the strategy behind
//!   footnote 1 of the paper.
//! * [`intersect_join_via_equijoin`] — the `∩ ≠ ∅` predicate executed as
//!   `π_{A,C}(R ⋈_{B=D} S)`, witnessing the paper's remark.

use crate::columnar::{emit, Operand};
use sj_storage::{FxHashMap, Relation, Tuple, Value};

/// The set predicate of a set join.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SetPredicate {
    /// `B-set ⊇ D-set` — the set-containment join of Fig. 1.
    Contains,
    /// `B-set ⊆ D-set`.
    ContainedIn,
    /// `B-set = D-set` — the set-equality join.
    Equals,
    /// `B-set ∩ D-set ≠ ∅` — an ordinary equijoin in disguise.
    IntersectsNonempty,
}

impl SetPredicate {
    /// All four predicates.
    pub const ALL: [SetPredicate; 4] = [
        SetPredicate::Contains,
        SetPredicate::ContainedIn,
        SetPredicate::Equals,
        SetPredicate::IntersectsNonempty,
    ];
}

/// Group a binary relation into `(key, sorted value list)` pairs, in key
/// order. Canonical relation order makes this a single pass.
fn group_sets(r: &Relation) -> Vec<(Value, Vec<Value>)> {
    assert_eq!(r.arity(), 2, "set-join operands must be binary");
    let mut out: Vec<(Value, Vec<Value>)> = Vec::new();
    for t in r {
        match out.last_mut() {
            Some((k, vs)) if *k == t[0] => vs.push(t[1].clone()),
            _ => out.push((t[0].clone(), vec![t[1].clone()])),
        }
    }
    out
}

/// Is sorted `sub` a subset of sorted `sup`? (Merge scan.)
fn sorted_subset(sub: &[Value], sup: &[Value]) -> bool {
    let mut i = 0;
    for v in sub {
        while i < sup.len() && sup[i] < *v {
            i += 1;
        }
        if i >= sup.len() || sup[i] != *v {
            return false;
        }
        i += 1;
    }
    true
}

fn predicate_holds(pred: SetPredicate, b: &[Value], d: &[Value]) -> bool {
    match pred {
        SetPredicate::Contains => sorted_subset(d, b),
        SetPredicate::ContainedIn => sorted_subset(b, d),
        SetPredicate::Equals => b == d,
        SetPredicate::IntersectsNonempty => {
            let (mut i, mut j) = (0, 0);
            while i < b.len() && j < d.len() {
                match b[i].cmp(&d[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return true,
                }
            }
            false
        }
    }
}

/// Nested-loop set join: every (A-group, C-group) pair verified exactly,
/// on `Value`s.
pub fn nested_loop_set_join(r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
    let rg = group_sets(r);
    let sg = group_sets(s);
    let mut out = Vec::new();
    for (a, b_set) in &rg {
        for (c, d_set) in &sg {
            if predicate_holds(pred, b_set, d_set) {
                out.push(Tuple::from([a.clone(), c.clone()]));
            }
        }
    }
    Relation::from_tuples(2, out).expect("binary output")
}

/// Signature-filtered set join: compare 64-bit signatures first (a single
/// AND/compare), verify survivors with the exact merge test. Worst case
/// quadratic — as the paper notes, no better bound is known for
/// containment — but the filter removes most pairs on selective inputs.
pub fn signature_set_join(r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
    crate::wide_signature::wide_signature_set_join(r, s, pred, 1)
}

/// Set-equality join via hashing each group's canonical (sorted) element
/// slice: build a table from `S`'s groups, probe with `R`'s groups.
/// O(n log n) time plus output size — the "sorting or counting tricks"
/// strategy of footnote 1.
pub fn hash_set_equality_join(r: &Relation, s: &Relation) -> Relation {
    let (r, s) = Operand::pair(r, s);
    let mut table: FxHashMap<&[i64], Vec<u32>> = FxHashMap::default();
    for gs in 0..s.len() {
        table.entry(s.set(gs)).or_default().push(gs as u32);
    }
    let mut out = Vec::new();
    for gr in 0..r.len() {
        if let Some(cs) = table.get(r.set(gr)) {
            out.extend(cs.iter().map(|&gs| (gr as u32, gs)));
        }
    }
    emit(&r, &s, out)
}

/// The `∩ ≠ ∅` set join as an ordinary equijoin — the paper's remark made
/// executable: `π_{A,C}(R ⋈_{B=D} S)` with duplicates removed by set
/// semantics.
pub fn intersect_join_via_equijoin(r: &Relation, s: &Relation) -> Relation {
    let (r, s) = Operand::pair(r, s);
    // Hash join on B = D, projecting (A-group, C-group) immediately.
    let by_d = s.postings();
    let mut out = Vec::new();
    for gr in 0..r.len() {
        for v in r.set(gr) {
            if let Some(cs) = by_d.get(v) {
                out.extend(cs.iter().map(|&gs| (gr as u32, gs)));
            }
        }
    }
    emit(&r, &s, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use SetPredicate::*;

    /// Fig. 1 of the paper.
    fn person() -> Relation {
        Relation::from_str_rows(&[
            &["An", "headache"],
            &["An", "sore throat"],
            &["An", "neck pain"],
            &["Bob", "headache"],
            &["Bob", "sore throat"],
            &["Bob", "memory loss"],
            &["Bob", "neck pain"],
            &["Carol", "headache"],
        ])
    }

    fn disease() -> Relation {
        Relation::from_str_rows(&[
            &["flu", "headache"],
            &["flu", "sore throat"],
            &["Lyme", "headache"],
            &["Lyme", "sore throat"],
            &["Lyme", "memory loss"],
            &["Lyme", "neck pain"],
        ])
    }

    #[test]
    fn fig1_set_containment_join() {
        // Person ⋈_{Symptom ⊇ Symptom} Disease = {(An,flu),(Bob,flu),(Bob,Lyme)}.
        let want = Relation::from_str_rows(&[&["An", "flu"], &["Bob", "flu"], &["Bob", "Lyme"]]);
        assert_eq!(nested_loop_set_join(&person(), &disease(), Contains), want);
        assert_eq!(signature_set_join(&person(), &disease(), Contains), want);
    }

    #[test]
    fn all_predicates_agree_between_algorithms() {
        let r = Relation::from_int_rows(&[
            &[1, 10],
            &[1, 11],
            &[2, 10],
            &[3, 12],
            &[3, 13],
            &[4, 10],
            &[4, 11],
        ]);
        let s = Relation::from_int_rows(&[&[5, 10], &[5, 11], &[6, 10], &[7, 13], &[8, 20]]);
        for pred in [Contains, ContainedIn, Equals, IntersectsNonempty] {
            let naive = nested_loop_set_join(&r, &s, pred);
            assert_eq!(
                signature_set_join(&r, &s, pred),
                naive,
                "signature vs naive on {pred:?}"
            );
        }
        assert_eq!(
            hash_set_equality_join(&r, &s),
            nested_loop_set_join(&r, &s, Equals)
        );
        assert_eq!(
            intersect_join_via_equijoin(&r, &s),
            nested_loop_set_join(&r, &s, IntersectsNonempty)
        );
    }

    #[test]
    fn equality_join_matches_groups_exactly() {
        let r = Relation::from_int_rows(&[&[1, 10], &[1, 11], &[2, 10]]);
        let s = Relation::from_int_rows(&[&[5, 10], &[5, 11], &[6, 10], &[7, 11]]);
        assert_eq!(
            hash_set_equality_join(&r, &s),
            Relation::from_int_rows(&[&[1, 5], &[2, 6]])
        );
    }

    #[test]
    fn containment_join_agrees_with_ra_plan() {
        use sj_eval::evaluate;
        let r = person();
        let s = disease();
        let mut db = sj_storage::Database::new();
        db.set("R", r.clone());
        db.set("S", s.clone());
        let plan = sj_algebra::division::set_containment_join_plan("R", "S");
        assert_eq!(
            evaluate(&plan, &db).unwrap(),
            nested_loop_set_join(&r, &s, Contains)
        );
        let eq_plan = sj_algebra::division::set_equality_join_plan("R", "S");
        assert_eq!(
            evaluate(&eq_plan, &db).unwrap(),
            nested_loop_set_join(&r, &s, Equals)
        );
    }

    #[test]
    fn group_sets_groups_in_order() {
        let r = Relation::from_int_rows(&[&[2, 9], &[1, 7], &[1, 8]]);
        let g = group_sets(&r);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].0, Value::int(1));
        assert_eq!(g[0].1, vec![Value::int(7), Value::int(8)]);
        assert_eq!(g[1].1, vec![Value::int(9)]);
    }

    #[test]
    fn empty_operands() {
        let e = Relation::empty(2);
        let r = Relation::from_int_rows(&[&[1, 10]]);
        for pred in [Contains, ContainedIn, Equals, IntersectsNonempty] {
            assert!(nested_loop_set_join(&e, &r, pred).is_empty());
            assert!(nested_loop_set_join(&r, &e, pred).is_empty());
            assert!(signature_set_join(&e, &e, pred).is_empty());
        }
    }

    #[test]
    fn sorted_subset_edge_cases() {
        let empty: Vec<Value> = vec![];
        let one = vec![Value::int(5)];
        assert!(sorted_subset(&empty, &one));
        assert!(sorted_subset(&empty, &empty));
        assert!(!sorted_subset(&one, &empty));
        assert!(sorted_subset(&one, &one));
    }
}
