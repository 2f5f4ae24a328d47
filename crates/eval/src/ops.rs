//! Physical operator implementations on [`Relation`]s.
//!
//! Each logical operator of the paper's algebra (Definitions 1 and 2, plus
//! the Section 5 grouping extension) has one function here. Joins and
//! semijoins dispatch on the condition: equality atoms are executed with a
//! hash index (build on the right, probe from the left), remaining atoms
//! (`≠`, `<`, `>`) are applied as residual filters; a condition with no
//! equality atom falls back to a filtered nested loop.
//!
//! All functions assume the expressions were validated (column references
//! in range); they index slices directly.

use sj_algebra::{CompOp, Condition, Selection};
use sj_storage::{FxHashMap, FxHashSet, HashIndex, Relation, Tuple, Value};

/// `π_{cols}(r)` — 1-based columns, may repeat and reorder (Definition 1(3)).
pub fn project(r: &Relation, cols: &[usize]) -> Relation {
    let zero_based: Vec<usize> = cols.iter().map(|c| c - 1).collect();
    Relation::from_tuples(cols.len(), r.iter().map(|t| t.project(&zero_based)))
        .expect("projection preserves arity")
}

/// `σ(r)` for the three selection forms (Definition 1(4) + derived σᵢ₌c).
pub fn select(r: &Relation, sel: &Selection) -> Relation {
    let keep: Box<dyn Fn(&Tuple) -> bool> = match sel {
        Selection::Eq(i, j) => {
            let (i, j) = (*i - 1, *j - 1);
            Box::new(move |t: &Tuple| t[i] == t[j])
        }
        Selection::Lt(i, j) => {
            let (i, j) = (*i - 1, *j - 1);
            Box::new(move |t: &Tuple| t[i] < t[j])
        }
        Selection::EqConst(i, c) => {
            let i = *i - 1;
            let c = c.clone();
            Box::new(move |t: &Tuple| t[i] == c)
        }
    };
    Relation::from_tuples(r.arity(), r.iter().filter(|t| keep(t)).cloned())
        .expect("selection preserves arity")
}

/// `τ_c(r)` — append the constant to every tuple (Definition 1(5)).
pub fn const_tag(r: &Relation, c: &Value) -> Relation {
    Relation::from_tuples(r.arity() + 1, r.iter().map(|t| t.tag(c.clone())))
        .expect("tagging increments arity")
}

/// Split a condition into its equality part (as 0-based `(left, right)`
/// column pairs) and the residual non-equality atoms.
pub(crate) fn split_condition(theta: &Condition) -> (Vec<(usize, usize)>, Condition) {
    let eq: Vec<(usize, usize)> = theta
        .atoms()
        .iter()
        .filter(|a| a.op == CompOp::Eq)
        .map(|a| (a.left - 1, a.right - 1))
        .collect();
    let residual = Condition::new(theta.atoms().iter().filter(|a| a.op != CompOp::Eq).copied());
    (eq, residual)
}

/// The physical dispatch [`join`] and [`crate::kernel::join`] use for θ,
/// by name: hash when θ has an equality atom, filtered nested loop
/// otherwise. The single source of operator names for the naive walker's
/// reports and for `PhysOp::Join` (the planner's merge variants are
/// chosen a level above, in `plan`).
pub fn join_dispatch(theta: &Condition) -> &'static str {
    if split_condition(theta).0.is_empty() {
        "nested-loop-join"
    } else {
        "hash-join"
    }
}

/// The physical dispatch [`semijoin`] and [`crate::kernel::semijoin`] use
/// for θ, by name (see [`join_dispatch`]).
pub fn semijoin_dispatch(theta: &Condition) -> &'static str {
    if split_condition(theta).0.is_empty() {
        "nested-loop-semijoin"
    } else {
        "hash-semijoin"
    }
}

/// `r₁ ⋈θ r₂` (Definition 1(6)). Hash join on the equality atoms with a
/// residual filter; filtered nested loop when θ has no equality atom.
pub fn join(r1: &Relation, r2: &Relation, theta: &Condition) -> Relation {
    let (eq, residual) = split_condition(theta);
    let out_arity = r1.arity() + r2.arity();
    let mut out: Vec<Tuple> = Vec::new();
    if eq.is_empty() {
        for t1 in r1 {
            for t2 in r2 {
                if theta.eval(t1.values(), t2.values()) {
                    out.push(t1.concat(t2));
                }
            }
        }
    } else {
        let right_cols: Vec<usize> = eq.iter().map(|&(_, rc)| rc).collect();
        let left_cols: Vec<usize> = eq.iter().map(|&(lc, _)| lc).collect();
        let index = HashIndex::build(r2, &right_cols);
        let mut key: Vec<Value> = Vec::with_capacity(left_cols.len());
        for t1 in r1 {
            key.clear();
            key.extend(left_cols.iter().map(|&c| t1[c].clone()));
            for &pos in index.probe(&key) {
                let t2 = &r2.tuples()[pos];
                if residual.eval(t1.values(), t2.values()) {
                    out.push(t1.concat(t2));
                }
            }
        }
    }
    Relation::from_tuples(out_arity, out).expect("join arity is n+m")
}

/// `r₁ ⋉θ r₂` (Definition 2). For equality-only θ a hash-set membership
/// probe; for mixed conditions a hash probe plus residual check; otherwise
/// a nested-loop `any`.
pub fn semijoin(r1: &Relation, r2: &Relation, theta: &Condition) -> Relation {
    let (eq, residual) = split_condition(theta);
    let keep: Vec<Tuple> = if eq.is_empty() {
        if r2.is_empty() {
            Vec::new()
        } else if theta.is_empty() {
            // Unconditional semijoin against a nonempty right side.
            r1.iter().cloned().collect()
        } else {
            r1.iter()
                .filter(|t1| r2.iter().any(|t2| theta.eval(t1.values(), t2.values())))
                .cloned()
                .collect()
        }
    } else if residual.is_empty() {
        let right_cols: Vec<usize> = eq.iter().map(|&(_, rc)| rc).collect();
        let left_cols: Vec<usize> = eq.iter().map(|&(lc, _)| lc).collect();
        let mut keys: FxHashSet<Vec<Value>> = FxHashSet::default();
        for t2 in r2 {
            keys.insert(right_cols.iter().map(|&c| t2[c].clone()).collect());
        }
        let mut key: Vec<Value> = Vec::with_capacity(left_cols.len());
        r1.iter()
            .filter(|t1| {
                key.clear();
                key.extend(left_cols.iter().map(|&c| t1[c].clone()));
                keys.contains(key.as_slice())
            })
            .cloned()
            .collect()
    } else {
        let right_cols: Vec<usize> = eq.iter().map(|&(_, rc)| rc).collect();
        let left_cols: Vec<usize> = eq.iter().map(|&(lc, _)| lc).collect();
        let index = HashIndex::build(r2, &right_cols);
        let mut key: Vec<Value> = Vec::with_capacity(left_cols.len());
        r1.iter()
            .filter(|t1| {
                key.clear();
                key.extend(left_cols.iter().map(|&c| t1[c].clone()));
                index
                    .probe(&key)
                    .iter()
                    .any(|&pos| residual.eval(t1.values(), r2.tuples()[pos].values()))
            })
            .cloned()
            .collect()
    };
    Relation::from_tuples(r1.arity(), keep).expect("semijoin preserves left arity")
}

/// The length `k` of the shared sort-key prefix when θ's equality atoms
/// pair the first `k` columns of both operands **in order** — i.e. the
/// deduplicated equality pairs are exactly `{1=1, 2=2, …, k=k}` (1-based).
///
/// Relations are stored in canonical (lexicographic) order, so both
/// operands of such a condition are already sorted by their key: the
/// planner in [`crate::plan`] can then run [`crate::kernel::merge_join`]
/// / [`crate::kernel::merge_semijoin`] without any sort or hash-table
/// build. Returns `None` when θ has no equality atom or the equalities
/// are not an aligned prefix.
pub fn merge_prefix_len(theta: &Condition) -> Option<usize> {
    let (mut eq, _) = split_condition(theta);
    if eq.is_empty() {
        return None;
    }
    eq.sort_unstable();
    eq.dedup();
    for (i, &(l, r)) in eq.iter().enumerate() {
        if l != i || r != i {
            return None;
        }
    }
    Some(eq.len())
}

/// `γ_{cols; count}(r)` — group by the 1-based `cols` and append the group
/// cardinality as an integer (Section 5). With `cols` empty the result is a
/// single `(count,)` tuple — `{(0,)}` for an empty input, matching SQL's
/// `COUNT(*)` on an empty table.
pub fn group_count(r: &Relation, cols: &[usize]) -> Relation {
    let zero_based: Vec<usize> = cols.iter().map(|c| c - 1).collect();
    let mut groups: FxHashMap<Vec<Value>, i64> = FxHashMap::default();
    for t in r {
        let key: Vec<Value> = zero_based.iter().map(|&c| t[c].clone()).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    if cols.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), 0);
    }
    Relation::from_tuples(
        cols.len() + 1,
        groups.into_iter().map(|(mut key, n)| {
            key.push(Value::int(n));
            Tuple::new(key)
        }),
    )
    .expect("group_count arity is k+1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::tuple;

    fn r(rows: &[&[i64]]) -> Relation {
        Relation::from_int_rows(rows)
    }

    #[test]
    fn project_reorders_and_dedups() {
        let a = r(&[&[1, 2], &[3, 2]]);
        assert_eq!(project(&a, &[2]), r(&[&[2]])); // dedup: both rows map to (2)
        assert_eq!(project(&a, &[2, 1]), r(&[&[2, 1], &[2, 3]]));
        assert_eq!(project(&a, &[1, 1]), r(&[&[1, 1], &[3, 3]]));
    }

    #[test]
    fn select_forms() {
        let a = r(&[&[1, 1], &[1, 2], &[2, 1]]);
        assert_eq!(select(&a, &Selection::Eq(1, 2)), r(&[&[1, 1]]));
        assert_eq!(select(&a, &Selection::Lt(1, 2)), r(&[&[1, 2]]));
        assert_eq!(
            select(&a, &Selection::EqConst(1, Value::int(2))),
            r(&[&[2, 1]])
        );
    }

    #[test]
    fn const_tag_appends() {
        let a = r(&[&[1], &[2]]);
        assert_eq!(const_tag(&a, &Value::int(9)), r(&[&[1, 9], &[2, 9]]));
    }

    #[test]
    fn equi_join_matches_definition() {
        let a = r(&[&[1, 10], &[2, 20]]);
        let b = r(&[&[10, 100], &[10, 101], &[30, 300]]);
        let j = join(&a, &b, &Condition::eq(2, 1));
        assert_eq!(j, r(&[&[1, 10, 10, 100], &[1, 10, 10, 101]]));
    }

    #[test]
    fn cartesian_product_via_empty_condition() {
        let a = r(&[&[1], &[2]]);
        let b = r(&[&[8], &[9]]);
        let j = join(&a, &b, &Condition::always());
        assert_eq!(j.len(), 4);
        assert_eq!(j.arity(), 2);
    }

    #[test]
    fn theta_join_with_inequalities() {
        let a = r(&[&[1], &[5]]);
        let b = r(&[&[3]]);
        assert_eq!(join(&a, &b, &Condition::lt(1, 1)), r(&[&[1, 3]]));
        assert_eq!(join(&a, &b, &Condition::gt(1, 1)), r(&[&[5, 3]]));
        assert_eq!(join(&a, &b, &Condition::neq(1, 1)), r(&[&[1, 3], &[5, 3]]));
    }

    #[test]
    fn mixed_condition_join_uses_residual_filter() {
        // equal on col1, strictly increasing on col2
        let a = r(&[&[1, 1], &[1, 5], &[2, 1]]);
        let b = r(&[&[1, 3], &[2, 0]]);
        let theta = Condition::eq(1, 1).and(2, CompOp::Lt, 2);
        assert_eq!(join(&a, &b, &theta), r(&[&[1, 1, 1, 3]]));
    }

    #[test]
    fn semijoin_matches_definition() {
        let a = r(&[&[1, 10], &[2, 20], &[3, 10]]);
        let b = r(&[&[10, 0], &[10, 1]]);
        // duplicates on the right do not duplicate output (set semantics)
        let s = semijoin(&a, &b, &Condition::eq(2, 1));
        assert_eq!(s, r(&[&[1, 10], &[3, 10]]));
    }

    #[test]
    fn semijoin_equals_join_project() {
        let a = r(&[&[1, 10], &[2, 20], &[3, 10]]);
        let b = r(&[&[10, 0], &[20, 9], &[40, 2]]);
        for theta in [
            Condition::eq(2, 1),
            Condition::lt(1, 2),
            Condition::eq(2, 1).and(1, CompOp::Lt, 2),
            Condition::neq(1, 1),
            Condition::always(),
        ] {
            let via_join = project(&join(&a, &b, &theta), &[1, 2]);
            let direct = semijoin(&a, &b, &theta);
            assert_eq!(direct, via_join, "theta = {theta}");
        }
    }

    #[test]
    fn unconditional_semijoin_is_emptiness_test() {
        let a = r(&[&[1], &[2]]);
        assert_eq!(
            semijoin(&a, &Relation::empty(3), &Condition::always()),
            Relation::empty(1)
        );
        assert_eq!(semijoin(&a, &r(&[&[9]]), &Condition::always()), a);
    }

    #[test]
    fn group_count_basic() {
        let a = r(&[&[1, 10], &[1, 20], &[2, 30]]);
        let g = group_count(&a, &[1]);
        assert_eq!(g, r(&[&[1, 2], &[2, 1]]));
    }

    #[test]
    fn group_count_global() {
        let a = r(&[&[1, 10], &[1, 20], &[2, 30]]);
        assert_eq!(group_count(&a, &[]), r(&[&[3]]));
        assert_eq!(group_count(&Relation::empty(2), &[]), r(&[&[0]]));
    }

    #[test]
    fn group_count_empty_input_with_groups() {
        assert_eq!(group_count(&Relation::empty(2), &[1]), Relation::empty(2));
    }

    #[test]
    fn merge_prefix_detection() {
        assert_eq!(merge_prefix_len(&Condition::eq(1, 1)), Some(1));
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(1, 1), (2, 2)])),
            Some(2)
        );
        // Order and duplicates of atoms don't matter.
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(2, 2), (1, 1), (1, 1)])),
            Some(2)
        );
        // A residual inequality atom doesn't block the equality prefix.
        assert_eq!(
            merge_prefix_len(&Condition::eq(1, 1).and(2, CompOp::Lt, 2)),
            Some(1)
        );
        // Not an aligned prefix:
        assert_eq!(merge_prefix_len(&Condition::eq(2, 1)), None);
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(1, 2), (2, 1)])),
            None
        );
        assert_eq!(merge_prefix_len(&Condition::eq_pairs([(2, 2)])), None);
        // A gap breaks the prefix: {1=1, 3=3} misses 2=2.
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(1, 1), (3, 3)])),
            None
        );
        assert_eq!(merge_prefix_len(&Condition::always()), None);
        assert_eq!(merge_prefix_len(&Condition::lt(1, 1)), None);
        // An extra equality atom off the diagonal poisons the whole set.
        assert_eq!(
            merge_prefix_len(&Condition::eq_pairs([(1, 1), (2, 1)])),
            None
        );
    }

    #[test]
    fn join_with_strings() {
        let visits = Relation::from_str_rows(&[&["alex", "pareto bar"]]);
        let serves = Relation::from_str_rows(&[&["pareto bar", "westmalle"]]);
        let j = join(&visits, &serves, &Condition::eq(2, 1));
        assert_eq!(j.len(), 1);
        assert_eq!(
            j.tuples()[0],
            tuple!["alex", "pareto bar", "pareto bar", "westmalle"]
        );
    }
}
