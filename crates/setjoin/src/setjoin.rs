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
//! * [`nested_loop_set_join`] — compare every group pair; the baseline.
//!   For set-containment joins the paper notes that nothing asymptotically
//!   better than quadratic is known.
//! * [`signature_set_join`] — 64-bit Bloom-style signatures per group
//!   prune non-candidates before an exact sorted-merge verification
//!   (Helmer–Moerkotte / Ramasamy et al. style). Same worst case, large
//!   constant-factor wins on selective inputs.
//! * [`hash_set_equality_join`] — set-equality join by hashing each
//!   group's canonical B-list: O(n log n) + output, the strategy behind
//!   footnote 1 of the paper.
//! * [`intersect_join_via_equijoin`] — the `∩ ≠ ∅` predicate executed as
//!   `π_{A,C}(R ⋈_{B=D} S)`, witnessing the paper's remark.

use sj_storage::hash::fx_hash_one;
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

/// Group a binary relation into `(key, sorted value list)` pairs, in key
/// order. Canonical relation order makes this a single pass.
pub fn group_sets(r: &Relation) -> Vec<(Value, Vec<Value>)> {
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

/// Exact predicate check on two sorted value lists (crate-internal API
/// shared with the wide-signature variant).
pub(crate) fn predicate_holds_public(pred: SetPredicate, b: &[Value], d: &[Value]) -> bool {
    predicate_holds(pred, b, d)
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

/// Set join by the default strategy: hash for `Equals`, equijoin for
/// `IntersectsNonempty`, signatures otherwise.
///
/// Thin wrapper kept for convenience; algorithm-aware callers should go
/// through [`crate::registry::Registry`] (or `sj-eval`'s `Engine`), where
/// the choice is configuration and the `auto` selector also consults
/// input statistics.
pub fn set_join(r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
    match pred {
        SetPredicate::Equals => hash_set_equality_join(r, s),
        SetPredicate::IntersectsNonempty => intersect_join_via_equijoin(r, s),
        _ => signature_set_join(r, s, pred),
    }
}

/// Nested-loop set join: every (A-group, C-group) pair verified exactly.
pub fn nested_loop_set_join(r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
    let rg = group_sets(r);
    let sg = group_sets(s);
    let mut out = Vec::new();
    for (a, b_set) in &rg {
        for (c, d_set) in &sg {
            if predicate_holds(pred, b_set, d_set) {
                out.push(Tuple::new(vec![a.clone(), c.clone()]));
            }
        }
    }
    Relation::from_tuples(2, out).expect("binary output")
}

/// 64-bit superset signature of a value list: the OR of one hash bit per
/// element. `sig(X) bits ⊆ sig(Y) bits` is necessary for `X ⊆ Y`.
pub fn signature(values: &[Value]) -> u64 {
    values
        .iter()
        .fold(0u64, |acc, v| acc | (1u64 << (fx_hash_one(v) % 64)))
}

/// Signature-filtered set join: compare 64-bit signatures first (a single
/// AND/compare), verify survivors with the exact merge test. Worst case
/// quadratic — as the paper notes, no better bound is known for
/// containment — but the filter removes most pairs on selective inputs.
///
/// When both element columns are dense (all-integer or all-string), the
/// work runs on the columnar view — zero-copy group slices, a dense u64
/// signature fold, and `i64`/dictionary-code verification merges (see
/// [`crate::columnar`]). Mixed-variant columns fall back to the
/// row-wise `signature_set_join_rowwise`. Output is identical either
/// way.
pub fn signature_set_join(r: &Relation, s: &Relation, pred: SetPredicate) -> Relation {
    if let Some(out) = crate::columnar::columnar_signature_set_join(r, s, pred) {
        return out;
    }
    signature_set_join_rowwise(r, s, pred)
}

/// The row-wise signature set join: groups materialized as
/// `(key, Vec<Value>)`, signatures hashed per `Value` — the fallback
/// for mixed-variant element columns and the in-crate differential
/// baseline of the columnar path.
pub(crate) fn signature_set_join_rowwise(
    r: &Relation,
    s: &Relation,
    pred: SetPredicate,
) -> Relation {
    let rg = group_sets(r);
    let sg = group_sets(s);
    let rsig: Vec<u64> = rg.iter().map(|(_, vs)| signature(vs)).collect();
    let ssig: Vec<u64> = sg.iter().map(|(_, vs)| signature(vs)).collect();
    let mut out = Vec::new();
    for ((a, b_set), &sb) in rg.iter().zip(&rsig) {
        for ((c, d_set), &sd) in sg.iter().zip(&ssig) {
            let may = match pred {
                SetPredicate::Contains => sd & !sb == 0,
                SetPredicate::ContainedIn => sb & !sd == 0,
                SetPredicate::Equals => sb == sd,
                SetPredicate::IntersectsNonempty => sb & sd != 0 || b_set.is_empty(),
            };
            if may && predicate_holds(pred, b_set, d_set) {
                out.push(Tuple::new(vec![a.clone(), c.clone()]));
            }
        }
    }
    Relation::from_tuples(2, out).expect("binary output")
}

/// Set-equality join via hashing each group's canonical (sorted) value
/// list: build a table from `S`'s groups, probe with `R`'s groups.
/// O(n log n) time plus output size — the "sorting or counting tricks"
/// strategy of footnote 1.
pub fn hash_set_equality_join(r: &Relation, s: &Relation) -> Relation {
    let rg = group_sets(r);
    let sg = group_sets(s);
    let mut table: FxHashMap<&[Value], Vec<&Value>> = FxHashMap::default();
    for (c, d_set) in &sg {
        table.entry(d_set.as_slice()).or_default().push(c);
    }
    let mut out = Vec::new();
    for (a, b_set) in &rg {
        if let Some(cs) = table.get(b_set.as_slice()) {
            for c in cs {
                out.push(Tuple::new(vec![a.clone(), (*c).clone()]));
            }
        }
    }
    Relation::from_tuples(2, out).expect("binary output")
}

/// The `∩ ≠ ∅` set join as an ordinary equijoin — the paper's remark made
/// executable: `π_{A,C}(R ⋈_{B=D} S)` with duplicates removed by set
/// semantics.
pub fn intersect_join_via_equijoin(r: &Relation, s: &Relation) -> Relation {
    assert_eq!(r.arity(), 2);
    assert_eq!(s.arity(), 2);
    // Hash join on B = D, projecting (A, C) immediately.
    let mut by_d: FxHashMap<&Value, Vec<&Value>> = FxHashMap::default();
    for t in s {
        by_d.entry(&t[1]).or_default().push(&t[0]);
    }
    let mut out = Vec::new();
    for t in r {
        if let Some(cs) = by_d.get(&t[1]) {
            for c in cs {
                out.push(Tuple::new(vec![t[0].clone(), (*c).clone()]));
            }
        }
    }
    Relation::from_tuples(2, out).expect("binary output")
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
        assert_eq!(set_join(&person(), &disease(), Contains), want);
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
            assert_eq!(
                set_join(&r, &s, pred),
                naive,
                "default vs naive on {pred:?}"
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
    fn signature_is_superset_monotone() {
        let small = vec![Value::int(1), Value::int(2)];
        let big = vec![Value::int(1), Value::int(2), Value::int(3)];
        let (ss, sb) = (signature(&small), signature(&big));
        assert_eq!(ss & !sb, 0, "subset signature must be covered");
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
