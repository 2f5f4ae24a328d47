//! Physical operator implementations on [`Relation`]s.
//!
//! Each logical operator of the paper's algebra (Definitions 1 and 2, plus
//! the Section 5 grouping extension) has one function here. A join or
//! semijoin has one body: the right operand's rows are bucketed by their
//! cells on θ's equality atoms, each left row probes its bucket, and the
//! remaining atoms (`≠`, `<`, `>`) filter its partners. A condition with
//! no equality atom buckets every row under the empty key, which is the
//! filtered nested loop.
//!
//! This module is the tree walker's, and the reference the planned path
//! is tested against: it reads `Value`s and imports nothing from
//! [`crate::kernel`] or [`crate::ops_vec`].
//!
//! All functions assume the expressions were validated (column references
//! in range); they index slices directly.

use sj_algebra::{CompOp, Condition, Selection};
use sj_storage::{FxHashMap, Relation, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// `π_{cols}(r)` — 1-based columns, may repeat and reorder (Definition 1(3)).
/// A row whose projection equals the last one kept is skipped before
/// anything is allocated for it: on a leading-column projection every
/// group then costs one tuple, not one per row.
pub fn project(r: &Relation, cols: &[usize]) -> Relation {
    let zero_based: Vec<usize> = cols.iter().map(|c| c - 1).collect();
    let mut out: Vec<Tuple> = Vec::new();
    for t in r {
        let repeat = out.last().is_some_and(|last| {
            zero_based
                .iter()
                .zip(last.values())
                .all(|(&c, v)| t[c] == *v)
        });
        if !repeat {
            out.push(t.project(&zero_based));
        }
    }
    Relation::from_tuples(cols.len(), out).expect("projection preserves arity")
}

/// An operand of [`difference`]: a relation, owned or borrowed, or the
/// product `a × b` of two, which the merge reads pair by pair in
/// canonical order and never stores.
pub enum Operand<'a> {
    /// A relation's rows.
    Rows(Cow<'a, Relation>),
    /// The pairs of `a × b`.
    Product(Cow<'a, Relation>, Cow<'a, Relation>),
}

impl Operand<'_> {
    fn arity(&self) -> usize {
        match self {
            Operand::Rows(r) => r.arity(),
            Operand::Product(a, b) => a.arity() + b.arity(),
        }
    }

    fn cursor(&self) -> Cursor<'_> {
        let (heads, tails) = match self {
            Operand::Rows(r) => (r.tuples(), None),
            Operand::Product(_, b) if b.is_empty() => (&[][..], None),
            Operand::Product(a, b) => (a.tuples(), Some(b.tuples())),
        };
        Cursor {
            heads,
            tails,
            i: 0,
            j: 0,
        }
    }
}

/// A position in an [`Operand`]'s rows, which ascend: row `i` of a
/// relation, or pair `(i, j)` of a product.
struct Cursor<'a> {
    heads: &'a [Tuple],
    /// A product's right factor.
    tails: Option<&'a [Tuple]>,
    i: usize,
    j: usize,
}

impl<'a> Cursor<'a> {
    /// The row here, as a stored tuple and the values that follow it:
    /// none for a relation's row.
    fn row(&self) -> Option<(&'a Tuple, &'a [Value])> {
        let head = self.heads.get(self.i)?;
        Some((head, self.tails.map_or(&[][..], |b| b[self.j].values())))
    }

    fn advance(&mut self) {
        self.j += 1;
        if self.j >= self.tails.map_or(1, <[Tuple]>::len) {
            self.j = 0;
            self.i += 1;
        }
    }
}

/// Canonical order of two rows of one arity, each a head and a tail of
/// values: slice comparisons, split where the shorter head ends.
fn cmp_rows(x: (&[Value], &[Value]), y: (&[Value], &[Value])) -> Ordering {
    if x.0.len() > y.0.len() {
        return cmp_rows(y, x).reverse();
    }
    let (y_head, y_rest) = y.0.split_at(x.0.len());
    let (x_mid, x_tail) = x.1.split_at(y_rest.len());
    (x.0.cmp(y_head))
        .then_with(|| x_mid.cmp(y_rest))
        .then_with(|| x_tail.cmp(y.1))
}

/// `r₁ − r₂` (arities must agree): one merge pass over the operands'
/// rows. A kept row is moved out of an owned `r₁`, copied out of a
/// borrowed one, or built from its pair; a product's other pairs are
/// never built.
pub fn difference(r1: Operand<'_>, r2: &Operand<'_>) -> Relation {
    debug_assert_eq!(r1.arity(), r2.arity(), "difference: arity mismatch");
    let arity = r1.arity();
    let mut removed = r2.cursor();
    let mut lacks = |row: (&[Value], &[Value])| loop {
        match removed.row().map(|(x, y)| cmp_rows((x.values(), y), row)) {
            Some(Ordering::Less) => removed.advance(),
            Some(Ordering::Equal) => return false,
            Some(Ordering::Greater) | None => return true,
        }
    };
    let kept = match r1 {
        Operand::Rows(Cow::Owned(r1)) => r1
            .into_tuples()
            .into_iter()
            .filter(|t| lacks((t.values(), &[])))
            .collect(),
        r1 => {
            let (mut rows, mut kept) = (r1.cursor(), Vec::new());
            while let Some((x, y)) = rows.row() {
                if lacks((x.values(), y)) {
                    kept.push(x.iter().chain(y).cloned().collect());
                }
                rows.advance();
            }
            kept
        }
    };
    Relation::from_sorted_tuples(arity, kept)
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

/// The name of [`join`] and [`crate::kernel::join`] on θ, by cost: a hash
/// join when θ has an equality atom, a filtered nested loop (every row in
/// one bucket) otherwise. The single source of operator names for the
/// naive walker's reports and for `PhysOp::Join`.
pub fn join_dispatch(theta: &Condition) -> &'static str {
    if split_condition(theta).0.is_empty() {
        "nested-loop-join"
    } else {
        "hash-join"
    }
}

/// The name of [`semijoin`] and [`crate::kernel::semijoin`] on θ, by cost
/// (see [`join_dispatch`]).
pub fn semijoin_dispatch(theta: &Condition) -> &'static str {
    if split_condition(theta).0.is_empty() {
        "nested-loop-semijoin"
    } else {
        "hash-semijoin"
    }
}

/// `r₂`'s row ids bucketed by their cells on the right columns of θ's
/// equality pairs, each bucket ascending: the probe [`join`] and
/// [`semijoin`] share. With no equality pair every row has the empty key,
/// so one bucket holds all of `r₂`.
struct Buckets {
    /// θ's equality pairs, 0-based `(left, right)` columns.
    eq: Vec<(usize, usize)>,
    rows: FxHashMap<Vec<Value>, Vec<u32>>,
    /// The probing row's key, reused from row to row.
    key: Vec<Value>,
}

impl Buckets {
    /// `r₂` bucketed on θ's equality atoms, beside the rest of θ.
    fn build(r2: &Relation, theta: &Condition) -> (Self, Condition) {
        let (eq, residual) = split_condition(theta);
        let mut rows: FxHashMap<Vec<Value>, Vec<u32>> = FxHashMap::default();
        let mut key: Vec<Value> = Vec::with_capacity(eq.len());
        for (j, t2) in r2.iter().enumerate() {
            let j = u32::try_from(j).expect("a relation's rows fit u32 ids");
            key.clear();
            key.extend(eq.iter().map(|&(_, rc)| t2[rc].clone()));
            // Only a bucket's first row allocates its key.
            match rows.get_mut(key.as_slice()) {
                Some(bucket) => bucket.push(j),
                None => {
                    rows.insert(key.clone(), vec![j]);
                }
            }
        }
        (Buckets { eq, rows, key }, residual)
    }

    /// The ids of the rows of `r₂` whose key cells equal `t1`'s,
    /// ascending.
    fn probe(&mut self, t1: &Tuple) -> &[u32] {
        self.key.clear();
        self.key
            .extend(self.eq.iter().map(|&(lc, _)| t1[lc].clone()));
        self.rows
            .get(self.key.as_slice())
            .map_or(&[], Vec::as_slice)
    }
}

/// `r₁ ⋈θ r₂` (Definition 1(6)): `r₂` is bucketed by its cells on θ's
/// equality atoms (one bucket when θ has none), each left row probes its
/// bucket, and the residual filters the partners.
pub fn join(r1: &Relation, r2: &Relation, theta: &Condition) -> Relation {
    let (mut buckets, residual) = Buckets::build(r2, theta);
    let mut out: Vec<Tuple> = Vec::new();
    if theta.is_empty() {
        // The product keeps every pair.
        out.reserve_exact(r1.len() * r2.len());
    }
    for t1 in r1 {
        for &j in buckets.probe(t1) {
            let t2 = &r2.tuples()[j as usize];
            if residual.eval(t1.values(), t2.values()) {
                out.push(t1.concat(t2));
            }
        }
    }
    // Left rows ascend, and each one's partners ascend in the right
    // relation's order, so the output is already canonical; the
    // constructor checks that instead of sorting.
    Relation::from_sorted_tuples(r1.arity() + r2.arity(), out)
}

/// `r₁ ⋉θ r₂` (Definition 2): the probe of [`join`], keeping a left row
/// at its first partner.
pub fn semijoin(r1: &Relation, r2: &Relation, theta: &Condition) -> Relation {
    let (mut buckets, residual) = Buckets::build(r2, theta);
    let keep: Vec<Tuple> = r1
        .iter()
        .filter(|t1| {
            buckets
                .probe(t1)
                .iter()
                .any(|&j| residual.eval(t1.values(), r2.tuples()[j as usize].values()))
        })
        .cloned()
        .collect();
    // A filter of a canonical relation is canonical.
    Relation::from_sorted_tuples(r1.arity(), keep)
}

/// `γ_{cols; count}(r)` — group by the 1-based `cols` and append the group
/// cardinality as an integer (Section 5). With `cols` empty the result is a
/// single `(count,)` tuple — `{(0,)}` for an empty input, matching SQL's
/// `COUNT(*)` on an empty table.
pub fn group_count(r: &Relation, cols: &[usize]) -> Relation {
    let zero_based: Vec<usize> = cols.iter().map(|c| c - 1).collect();
    let mut groups: FxHashMap<Vec<Value>, i64> = FxHashMap::default();
    let mut key: Vec<Value> = Vec::with_capacity(zero_based.len());
    for t in r {
        key.clear();
        key.extend(zero_based.iter().map(|&c| t[c].clone()));
        // Only a group's first row allocates its key.
        match groups.get_mut(key.as_slice()) {
            Some(n) => *n += 1,
            None => {
                groups.insert(key.clone(), 1);
            }
        }
    }
    if cols.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), 0);
    }
    Relation::from_tuples(
        cols.len() + 1,
        groups
            .into_iter()
            .map(|(key, n)| key.into_iter().chain([Value::int(n)]).collect()),
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
    fn project_dedups_repeats_that_are_not_adjacent() {
        let a = r(&[&[1, 2], &[1, 3], &[2, 2], &[2, 3]]);
        assert_eq!(project(&a, &[2]), r(&[&[2], &[3]]));
        assert_eq!(project(&a, &[1]), r(&[&[1], &[2]]));
    }

    #[test]
    fn difference_matches_the_copying_merge() {
        let a = r(&[&[1, 1], &[1, 2], &[2, 1], &[3, 3]]);
        let (x, y) = (r(&[&[1], &[2], &[3]]), r(&[&[1], &[2]]));
        let product = || Operand::Product(Cow::Borrowed(&x), Cow::Borrowed(&y));
        let xy = join(&x, &y, &Condition::always());
        for b in [
            r(&[&[1, 2], &[2, 0], &[3, 3], &[9, 9]]),
            r(&[&[0, 0]]),
            a.clone(),
            Relation::empty(2),
            xy.clone(),
        ] {
            let expected = a.difference(&b).unwrap();
            let rows = Operand::Rows(Cow::Borrowed(&b));
            let borrowed = difference(Operand::Rows(Cow::Borrowed(&a)), &rows);
            assert_eq!(borrowed, expected, "{b:?}");
            let owned = difference(Operand::Rows(Cow::Owned(a.clone())), &rows);
            assert_eq!(owned, expected, "{b:?}");
            // A product on either side equals its stored pairs there.
            let minus_product = difference(Operand::Rows(Cow::Borrowed(&b)), &product());
            assert_eq!(minus_product, b.difference(&xy).unwrap(), "{b:?}");
            assert_eq!(
                difference(product(), &rows),
                xy.difference(&b).unwrap(),
                "{b:?}"
            );
        }
        assert!(difference(product(), &product()).is_empty());
        // Two products that share their left factor differ in the right.
        let z = r(&[&[2], &[3]]);
        let other = Operand::Product(Cow::Borrowed(&x), Cow::Borrowed(&z));
        let xz = join(&x, &z, &Condition::always());
        assert_eq!(difference(product(), &other), xy.difference(&xz).unwrap());
        assert_eq!(difference(other, &product()), xz.difference(&xy).unwrap());
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
