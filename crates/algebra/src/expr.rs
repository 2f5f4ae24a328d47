//! Expression ASTs for the relational algebra (RA), the semijoin algebra
//! (SA), and the grouping/counting extension used in Section 5 of the paper.
//!
//! One AST covers all three languages; fragment-membership predicates
//! ([`Expr::is_ra`], [`Expr::is_sa_eq`], …) carve out the sub-languages of
//! Definitions 1 and 2:
//!
//! * **RA** (Definition 1): relation names, `∪`, `−`, `π`, `σᵢ₌ⱼ`, `σᵢ<ⱼ`,
//!   `τ_c` (constant-tagging), and `⋈θ` with θ a conjunction over
//!   `{=, ≠, <, >}`.
//! * **RA=**: RA where every join condition atom uses `=`.
//! * **SA** (Definition 2): the join replaced by the semijoin `⋉θ`.
//! * **SA=**: SA with equality-only conditions.
//! * **Extended RA** (Section 5): additionally `γ` (grouping with a count
//!   aggregate), used to show division has a *linear* expression once
//!   grouping/counting is available.
//!
//! Column indices are **1-based** throughout, matching the paper; the
//! evaluators translate to 0-based positions internally.

use crate::condition::Condition;
use crate::display::value_literal;
use crate::error::AlgebraError;
use sj_storage::{Schema, Value};
use std::convert::Infallible;

/// A selection predicate (Definition 1(4)), plus the derived constant form.
///
/// The paper notes that `σᵢ₌'c'(E)` is expressible as
/// `π₁..ₙ(σᵢ₌ₙ₊₁(τ_c(E)))`; we still provide it as a primitive for
/// convenience and desugar it in [`Expr::desugared`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Selection {
    /// `σᵢ₌ⱼ` — components i and j equal (1-based).
    Eq(usize, usize),
    /// `σᵢ<ⱼ` — component i strictly below component j (1-based).
    Lt(usize, usize),
    /// `σᵢ₌c` — component i equal to the constant c (derived form).
    EqConst(usize, Value),
}

impl Selection {
    /// The columns the predicate mentions.
    pub fn columns(&self) -> Vec<usize> {
        match self {
            Selection::Eq(i, j) | Selection::Lt(i, j) => vec![*i, *j],
            Selection::EqConst(i, _) => vec![*i],
        }
    }

    /// Validate column references against an arity.
    pub fn validate(&self, arity: usize) -> Result<(), usize> {
        for c in self.columns() {
            if c == 0 || c > arity {
                return Err(c);
            }
        }
        Ok(())
    }
}

/// Where an expression keeps the group key of one relation (see
/// [`Expr::local_to_groups_of`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GroupKey {
    /// The expression does not mention the relation.
    Free,
    /// Output column (1-based) that carries the relation's column 1.
    At(usize),
}

/// An expression of the (extended) relational/semijoin algebra.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A relation name `R ∈ S` (Definition 1(1)).
    Rel(String),
    /// Union `E₁ ∪ E₂` (same arity).
    Union(Box<Expr>, Box<Expr>),
    /// Difference `E₁ − E₂` (same arity).
    Diff(Box<Expr>, Box<Expr>),
    /// Projection `π_{i₁,…,i_k}(E)`, 1-based; columns may repeat/reorder.
    Project(Vec<usize>, Box<Expr>),
    /// Selection `σ(E)`.
    Select(Selection, Box<Expr>),
    /// Constant-tagging `τ_c(E)`: appends the constant `c` as a new last
    /// column (Definition 1(5)).
    ConstTag(Value, Box<Expr>),
    /// Join `E₁ ⋈θ E₂` of arity `n + m` (Definition 1(6)); cartesian
    /// product is the special case of the empty condition.
    Join(Condition, Box<Expr>, Box<Expr>),
    /// Semijoin `E₁ ⋉θ E₂` of arity `n` (Definition 2).
    Semijoin(Condition, Box<Expr>, Box<Expr>),
    /// Grouping with a count aggregate: `γ_{g₁,…,g_k; count(*)}(E)`, of
    /// arity `k + 1` — the group-by columns followed by the group count as
    /// an integer value. Extended RA only (Section 5).
    GroupCount(Vec<usize>, Box<Expr>),
}

impl Expr {
    // ----- constructors / builder API -------------------------------------

    /// A relation-name leaf.
    pub fn rel(name: impl Into<String>) -> Expr {
        Expr::Rel(name.into())
    }

    /// `self ∪ other`.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn diff(self, other: Expr) -> Expr {
        Expr::Diff(Box::new(self), Box::new(other))
    }

    /// `π_cols(self)` (1-based columns).
    pub fn project(self, cols: impl IntoIterator<Item = usize>) -> Expr {
        Expr::Project(cols.into_iter().collect(), Box::new(self))
    }

    /// `σᵢ₌ⱼ(self)`.
    pub fn select_eq(self, i: usize, j: usize) -> Expr {
        Expr::Select(Selection::Eq(i, j), Box::new(self))
    }

    /// `σᵢ<ⱼ(self)`.
    pub fn select_lt(self, i: usize, j: usize) -> Expr {
        Expr::Select(Selection::Lt(i, j), Box::new(self))
    }

    /// `σᵢ₌c(self)` (derived form).
    pub fn select_const(self, i: usize, c: impl Into<Value>) -> Expr {
        Expr::Select(Selection::EqConst(i, c.into()), Box::new(self))
    }

    /// `τ_c(self)`.
    pub fn tag(self, c: impl Into<Value>) -> Expr {
        Expr::ConstTag(c.into(), Box::new(self))
    }

    /// `self ⋈θ other`.
    pub fn join(self, theta: Condition, other: Expr) -> Expr {
        Expr::Join(theta, Box::new(self), Box::new(other))
    }

    /// Natural equi-join on explicit column pairs.
    pub fn join_eq(self, pairs: impl IntoIterator<Item = (usize, usize)>, other: Expr) -> Expr {
        self.join(Condition::eq_pairs(pairs), other)
    }

    /// Cartesian product `self × other` (join on the empty condition).
    pub fn product(self, other: Expr) -> Expr {
        self.join(Condition::always(), other)
    }

    /// `self ⋉θ other`.
    pub fn semijoin(self, theta: Condition, other: Expr) -> Expr {
        Expr::Semijoin(theta, Box::new(self), Box::new(other))
    }

    /// Equi-semijoin on explicit column pairs.
    pub fn semijoin_eq(self, pairs: impl IntoIterator<Item = (usize, usize)>, other: Expr) -> Expr {
        self.semijoin(Condition::eq_pairs(pairs), other)
    }

    /// `γ_{cols; count}(self)` (extended RA).
    pub fn group_count(self, cols: impl IntoIterator<Item = usize>) -> Expr {
        Expr::GroupCount(cols.into_iter().collect(), Box::new(self))
    }

    /// Intersection, derived: `E₁ ∩ E₂ = E₁ − (E₁ − E₂)`.
    pub fn intersect(self, other: Expr) -> Expr {
        self.clone().diff(self.diff(other))
    }

    // ----- structural queries ---------------------------------------------

    /// Compute the arity of the expression over `schema`, validating every
    /// operator along the way (column bounds, union/difference arity
    /// agreement, condition bounds).
    pub fn arity(&self, schema: &Schema) -> Result<usize, AlgebraError> {
        match self {
            Expr::Rel(name) => schema
                .arity_of(name)
                .ok_or_else(|| AlgebraError::UnknownRelation(name.clone())),
            Expr::Union(a, b) | Expr::Diff(a, b) => {
                let (na, nb) = (a.arity(schema)?, b.arity(schema)?);
                if na != nb {
                    return Err(AlgebraError::ArityMismatch {
                        left: na,
                        right: nb,
                    });
                }
                Ok(na)
            }
            Expr::Project(cols, e) => {
                let n = e.arity(schema)?;
                for &c in cols {
                    if c == 0 || c > n {
                        return Err(AlgebraError::ColumnOutOfRange {
                            column: c,
                            arity: n,
                        });
                    }
                }
                Ok(cols.len())
            }
            Expr::Select(sel, e) => {
                let n = e.arity(schema)?;
                sel.validate(n)
                    .map_err(|c| AlgebraError::ColumnOutOfRange {
                        column: c,
                        arity: n,
                    })?;
                Ok(n)
            }
            Expr::ConstTag(_, e) => Ok(e.arity(schema)? + 1),
            Expr::Join(theta, a, b) => {
                let (na, nb) = (a.arity(schema)?, b.arity(schema)?);
                theta
                    .validate(na, nb)
                    .map_err(|(c, n)| AlgebraError::ColumnOutOfRange {
                        column: c,
                        arity: n,
                    })?;
                Ok(na + nb)
            }
            Expr::Semijoin(theta, a, b) => {
                let (na, nb) = (a.arity(schema)?, b.arity(schema)?);
                theta
                    .validate(na, nb)
                    .map_err(|(c, n)| AlgebraError::ColumnOutOfRange {
                        column: c,
                        arity: n,
                    })?;
                Ok(na)
            }
            Expr::GroupCount(cols, e) => {
                let n = e.arity(schema)?;
                for &c in cols {
                    if c == 0 || c > n {
                        return Err(AlgebraError::ColumnOutOfRange {
                            column: c,
                            arity: n,
                        });
                    }
                }
                Ok(cols.len() + 1)
            }
        }
    }

    /// Immediate children, left to right.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Rel(_) => vec![],
            Expr::Project(_, e)
            | Expr::Select(_, e)
            | Expr::ConstTag(_, e)
            | Expr::GroupCount(_, e) => vec![e],
            Expr::Union(a, b) | Expr::Diff(a, b) => vec![a, b],
            Expr::Join(_, a, b) | Expr::Semijoin(_, a, b) => vec![a, b],
        }
    }

    /// The one structural rebuild every rewrite pass falls back to: a
    /// fresh node of the same operator, with the same parameters, whose
    /// children are `f` of this node's children. `f` visits the children
    /// left to right, as [`Expr::children`] lists them; the first error
    /// stops the walk, leaves the later children unvisited, and is
    /// returned. A leaf has no children and comes back as a copy.
    ///
    /// A pass states only the arms where its rule fires and hands every
    /// other node here, recursing through `f`.
    pub fn map_children<E>(&self, mut f: impl FnMut(&Expr) -> Result<Expr, E>) -> Result<Expr, E> {
        let mut child = |e: &Expr| f(e).map(Box::new);
        Ok(match self {
            Expr::Rel(n) => Expr::Rel(n.clone()),
            Expr::Union(a, b) => Expr::Union(child(a)?, child(b)?),
            Expr::Diff(a, b) => Expr::Diff(child(a)?, child(b)?),
            Expr::Project(cols, e) => Expr::Project(cols.clone(), child(e)?),
            Expr::Select(sel, e) => Expr::Select(sel.clone(), child(e)?),
            Expr::ConstTag(c, e) => Expr::ConstTag(c.clone(), child(e)?),
            Expr::Join(t, a, b) => Expr::Join(t.clone(), child(a)?, child(b)?),
            Expr::Semijoin(t, a, b) => Expr::Semijoin(t.clone(), child(a)?, child(b)?),
            Expr::GroupCount(cols, e) => Expr::GroupCount(cols.clone(), child(e)?),
        })
    }

    /// [`Expr::map_children`] for a rewrite that cannot fail.
    pub fn map_children_infallible(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let Ok(e) = self.map_children(|c| Ok::<_, Infallible>(f(c)));
        e
    }

    /// All subexpressions in **pre-order** (the expression itself first).
    /// The position in this list is the node's stable id used by the
    /// instrumented evaluator.
    pub fn subexpressions(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            out.push(e);
            for c in e.children() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Number of AST nodes.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Height of the AST (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// The set `C` of constants appearing in the expression (from `τ_c` and
    /// `σᵢ₌c` nodes), sorted and deduplicated. An expression "with constants
    /// in C" (Section 2) is one whose constants are all members of C.
    pub fn constants(&self) -> Vec<Value> {
        let mut out = Vec::new();
        for e in self.subexpressions() {
            match e {
                Expr::ConstTag(c, _) => out.push(c.clone()),
                Expr::Select(Selection::EqConst(_, c), _) => out.push(c.clone()),
                _ => {}
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Relation names referenced, sorted and deduplicated.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .subexpressions()
            .into_iter()
            .filter_map(|e| match e {
                Expr::Rel(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    // ----- fragment membership ---------------------------------------------

    /// True iff the expression contains no semijoin and no grouping —
    /// i.e. belongs to RA (Definition 1).
    pub fn is_ra(&self) -> bool {
        self.subexpressions()
            .iter()
            .all(|e| !matches!(e, Expr::Semijoin(..) | Expr::GroupCount(..)))
    }

    /// True iff the expression is RA and every join condition is
    /// equality-only — the fragment RA=.
    pub fn is_ra_eq(&self) -> bool {
        self.is_ra()
            && self.subexpressions().iter().all(|e| match e {
                Expr::Join(theta, _, _) => theta.is_equi(),
                _ => true,
            })
    }

    /// True iff the expression contains no join and no grouping —
    /// i.e. belongs to SA (Definition 2).
    pub fn is_sa(&self) -> bool {
        self.subexpressions()
            .iter()
            .all(|e| !matches!(e, Expr::Join(..) | Expr::GroupCount(..)))
    }

    /// True iff the expression is SA and every semijoin condition is
    /// equality-only — the fragment SA=, the paper's central sub-language.
    pub fn is_sa_eq(&self) -> bool {
        self.is_sa()
            && self.subexpressions().iter().all(|e| match e {
                Expr::Semijoin(theta, _, _) => theta.is_equi(),
                _ => true,
            })
    }

    /// True iff the expression uses grouping/aggregation (extended RA,
    /// Section 5 of the paper).
    pub fn is_extended(&self) -> bool {
        self.subexpressions()
            .iter()
            .any(|e| matches!(e, Expr::GroupCount(..)))
    }

    // ----- group locality ---------------------------------------------------

    /// True iff the expression is **local to the groups of `rel`**: for
    /// every database, `Q(R) = ⋃ₐ Q(σ₁₌ₐR)` over the first-column values
    /// `a` of `R = rel`, and every row of `Q(σ₁₌ₐR)` carries `a` in
    /// output column 1. Division is the paper's example — `a ∈ R ÷ S`
    /// depends on `{b | (a, b) ∈ R}` alone — and so are the §5 counting
    /// plan and the semijoin shapes `π₁(R ⋉ …)`. Such a query's answer
    /// after inserts into `R` is the old answer with the rows keyed by
    /// the inserted tuples' first values replaced by `Q` run on just
    /// those groups (`sj-server` patches cached results this way).
    ///
    /// Decided by induction, tracking which output column carries `R`'s
    /// column 1 (the *key*); an expression not mentioning `rel` is
    /// *free*. Writing `Eₐ` for `E(σ₁₌ₐR)`:
    ///
    /// * **scan** — `R` of arity ≥ 1 is local at 1: `R = ⋃ₐ σ₁₌ₐR`.
    ///   Any other relation is free.
    /// * **row-wise** — `σ(E)` and `τ_c(E)` keep the key where it is:
    ///   both map each row alone, so they distribute over `⋃ₐ Eₐ` and
    ///   keep each row's key.
    /// * **projection** — `π_cols(E)` is local at the first position of
    ///   the key in `cols`, and not local if `cols` drops it: π
    ///   distributes over ∪ and moves column k to that position.
    /// * **grouping** — `γ_cols(E)` likewise: with the key among the
    ///   group columns, rows of different `Eₐ` never share a group, so
    ///   every group and its count come from one `Eₐ`.
    /// * **join** — `E ⋈ F` with one side local and the other free is
    ///   local (at the key's position in `E`, or past `E`'s arity when
    ///   `F` is the local side): `(⋃ₐ Eₐ) ⋈ F = ⋃ₐ (Eₐ ⋈ F)`, and a
    ///   joined row keeps its local side's key.
    /// * **filter by a free side** — `E ⋉ F` and `E − F` with `E` local
    ///   and `F` free are local at `E`'s key: each row of `E` survives
    ///   or not by itself, whatever the other rows of `E` are.
    /// * **same-key set operators** — `E − F` and `E ∪ F` with both
    ///   sides local at the same column k are local at k: a row keyed
    ///   `a` can come only from `Eₐ` and `Fₐ`, so `(⋃ Eₐ) − (⋃ Fₐ) =
    ///   ⋃ (Eₐ − Fₐ)` and `(⋃ Eₐ) ∪ (⋃ Fₐ) = ⋃ (Eₐ ∪ Fₐ)`.
    ///
    /// Everything else is not local: a free side of a union or on the
    /// left of `−`/`⋉` contributes rows no group owns, and a join or
    /// semijoin of two local sides pairs rows of different groups.
    /// Column 1 is required of the whole expression so that both the
    /// group slice and the splice are binary searches on the canonical
    /// order.
    pub fn local_to_groups_of(&self, rel: &str, schema: &Schema) -> bool {
        matches!(self.group_key(rel, schema), Some(GroupKey::At(1)))
    }

    /// The induction behind [`Expr::local_to_groups_of`]; `None` when
    /// the expression mentions `rel` and is not local.
    fn group_key(&self, rel: &str, schema: &Schema) -> Option<GroupKey> {
        use GroupKey::{At, Free};
        let kept = |cols: &[usize], k: usize| cols.iter().position(|&c| c == k).map(|i| At(i + 1));
        Some(match self {
            Expr::Rel(name) if name == rel => match schema.arity_of(name)? {
                0 => return None,
                _ => At(1),
            },
            Expr::Rel(_) => Free,
            Expr::Select(_, e) | Expr::ConstTag(_, e) => e.group_key(rel, schema)?,
            Expr::Project(cols, e) | Expr::GroupCount(cols, e) => match e.group_key(rel, schema)? {
                Free => Free,
                At(k) => kept(cols, k)?,
            },
            Expr::Join(_, a, b) => match (a.group_key(rel, schema)?, b.group_key(rel, schema)?) {
                (Free, Free) => Free,
                (At(k), Free) => At(k),
                (Free, At(k)) => At(a.arity(schema).ok()? + k),
                (At(_), At(_)) => return None,
            },
            Expr::Semijoin(_, a, b) => match (a.group_key(rel, schema)?, b.group_key(rel, schema)?)
            {
                (key, Free) => key,
                _ => return None,
            },
            Expr::Diff(a, b) => match (a.group_key(rel, schema)?, b.group_key(rel, schema)?) {
                (key, Free) => key,
                (At(k), At(j)) if k == j => At(k),
                _ => return None,
            },
            Expr::Union(a, b) => match (a.group_key(rel, schema)?, b.group_key(rel, schema)?) {
                (Free, Free) => Free,
                (At(k), At(j)) if k == j => At(k),
                _ => return None,
            },
        })
    }

    /// Replace derived forms by paper primitives: `σᵢ₌c(E)` becomes
    /// `π₁,…,ₙ(σᵢ₌ₙ₊₁(τ_c(E)))` exactly as noted below Definition 1.
    /// The result contains only `Selection::Eq`/`Selection::Lt`.
    pub fn desugared(&self, schema: &Schema) -> Result<Expr, AlgebraError> {
        match self {
            Expr::Select(Selection::EqConst(i, c), e) => {
                let n = e.arity(schema)?;
                Ok(e.desugared(schema)?
                    .tag(c.clone())
                    .select_eq(*i, n + 1)
                    .project(1..=n))
            }
            _ => self.map_children(|c| c.desugared(schema)),
        }
    }

    /// A structural hash of the expression: structurally identical
    /// subtrees hash identically (it is the derived [`Hash`] run through
    /// the workspace's [`FxHasher`](sj_storage::FxHasher)). The expression
    /// cache of `sj-server` keys its entries by it. Collisions are
    /// possible as with any 64-bit hash; consumers must confirm with
    /// `==`.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = sj_storage::FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }

    /// A short operator label, used in instrumentation reports and as
    /// the head of each node in [`crate::display::to_text`]: the operator
    /// and its bracketed parameter, or a relation's name.
    pub fn label(&self) -> String {
        let csv = |cols: &[usize]| {
            cols.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            Expr::Rel(n) => n.clone(),
            Expr::Union(..) => "union".into(),
            Expr::Diff(..) => "diff".into(),
            Expr::Project(cols, _) => format!("project[{}]", csv(cols)),
            Expr::Select(Selection::Eq(i, j), _) => format!("select[{i}={j}]"),
            Expr::Select(Selection::Lt(i, j), _) => format!("select[{i}<{j}]"),
            Expr::Select(Selection::EqConst(i, c), _) => {
                format!("select[{i}={}]", value_literal(c))
            }
            Expr::ConstTag(c, _) => format!("tag[{}]", value_literal(c)),
            Expr::Join(t, _, _) => format!("join[{t}]"),
            Expr::Semijoin(t, _, _) => format!("semijoin[{t}]"),
            Expr::GroupCount(cols, _) => format!("gcount[{}]", csv(cols)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beer_schema() -> Schema {
        Schema::new([("Likes", 2), ("Serves", 2), ("Visits", 2)])
    }

    /// The SA= expression of Example 3:
    /// π₁(Visits ⋉₂₌₁ (π₁(Serves) − π₁(Serves ⋉₂₌₂ Likes))).
    fn example3() -> Expr {
        Expr::rel("Visits")
            .semijoin(
                Condition::eq(2, 1),
                Expr::rel("Serves").project([1]).diff(
                    Expr::rel("Serves")
                        .semijoin(Condition::eq(2, 2), Expr::rel("Likes"))
                        .project([1]),
                ),
            )
            .project([1])
    }

    #[test]
    fn example3_is_sa_eq_with_arity_1() {
        let e = example3();
        assert!(e.is_sa());
        assert!(e.is_sa_eq());
        assert!(!e.is_ra()); // it uses semijoins
        assert_eq!(e.arity(&beer_schema()).unwrap(), 1);
    }

    #[test]
    fn arity_checks_catch_errors() {
        let s = beer_schema();
        assert!(matches!(
            Expr::rel("Nope").arity(&s),
            Err(AlgebraError::UnknownRelation(_))
        ));
        assert!(matches!(
            Expr::rel("Likes")
                .union(Expr::rel("Likes").project([1]))
                .arity(&s),
            Err(AlgebraError::ArityMismatch { left: 2, right: 1 })
        ));
        assert!(matches!(
            Expr::rel("Likes").project([3]).arity(&s),
            Err(AlgebraError::ColumnOutOfRange {
                column: 3,
                arity: 2
            })
        ));
        assert!(matches!(
            Expr::rel("Likes").select_eq(1, 0).arity(&s),
            Err(AlgebraError::ColumnOutOfRange {
                column: 0,
                arity: 2
            })
        ));
        assert!(matches!(
            Expr::rel("Likes")
                .join(Condition::eq(3, 1), Expr::rel("Serves"))
                .arity(&s),
            Err(AlgebraError::ColumnOutOfRange {
                column: 3,
                arity: 2
            })
        ));
    }

    #[test]
    fn join_and_semijoin_arities() {
        let s = beer_schema();
        let j = Expr::rel("Likes").join(Condition::eq(2, 2), Expr::rel("Serves"));
        assert_eq!(j.arity(&s).unwrap(), 4);
        let sj = Expr::rel("Likes").semijoin(Condition::eq(2, 2), Expr::rel("Serves"));
        assert_eq!(sj.arity(&s).unwrap(), 2);
        let t = Expr::rel("Likes").tag(Value::int(9));
        assert_eq!(t.arity(&s).unwrap(), 3);
        let g = Expr::rel("Likes").group_count([1]);
        assert_eq!(g.arity(&s).unwrap(), 2);
    }

    #[test]
    fn fragments() {
        let s = beer_schema();
        let ra = Expr::rel("Likes").join(Condition::eq(2, 2), Expr::rel("Serves"));
        assert!(ra.is_ra() && ra.is_ra_eq() && !ra.is_sa());
        let ra_lt = Expr::rel("Likes").join(Condition::lt(2, 2), Expr::rel("Serves"));
        assert!(ra_lt.is_ra() && !ra_lt.is_ra_eq());
        let ext = Expr::rel("Likes").group_count([1]);
        assert!(ext.is_extended() && !ext.is_ra() && !ext.is_sa());
        assert_eq!(ext.arity(&s).unwrap(), 2);
        // A relation leaf belongs to every fragment.
        let leaf = Expr::rel("Likes");
        assert!(leaf.is_ra() && leaf.is_ra_eq() && leaf.is_sa() && leaf.is_sa_eq());
    }

    #[test]
    fn subexpression_traversal_preorder() {
        let e = example3();
        let subs = e.subexpressions();
        assert_eq!(subs.len(), e.node_count());
        assert_eq!(subs[0], &e); // pre-order: root first
                                 // π, ⋉, Visits, −, π, Serves, π, ⋉, Serves, Likes = 10 nodes
        assert_eq!(e.node_count(), 10);
        // π → ⋉ → − → π → ⋉ → Serves
        assert_eq!(e.depth(), 6);
    }

    #[test]
    fn map_children_rebuilds_left_to_right_and_stops_at_the_first_error() {
        let e = Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S").project([1]));
        let mut seen = Vec::new();
        let same = e.map_children(|c| {
            seen.push(c.label());
            Ok::<_, ()>(c.clone())
        });
        assert_eq!(same, Ok(e.clone()));
        assert_eq!(seen, ["R", "project[1]"]);
        // Children are replaced, the operator and its condition kept.
        let tagged = e.map_children_infallible(|c| c.clone().tag(Value::int(1)));
        assert_eq!(
            tagged,
            Expr::rel("R").tag(Value::int(1)).join(
                Condition::eq(2, 1),
                Expr::rel("S").project([1]).tag(Value::int(1))
            )
        );
        // The first error is returned; the right child is never visited.
        seen.clear();
        let failed = e.map_children(|c| {
            seen.push(c.label());
            Err::<Expr, _>(c.label())
        });
        assert_eq!(failed, Err("R".to_string()));
        assert_eq!(seen, ["R"]);
        // A leaf has no children to visit.
        assert_eq!(
            Expr::rel("R").map_children(|_| Err::<Expr, _>(())),
            Ok(Expr::rel("R"))
        );
    }

    #[test]
    fn constants_collected_sorted() {
        let e = Expr::rel("Likes")
            .tag(Value::int(5))
            .select_const(1, Value::int(2))
            .tag(Value::int(2));
        assert_eq!(e.constants(), vec![Value::int(2), Value::int(5)]);
        assert!(example3().constants().is_empty());
    }

    #[test]
    fn relation_names_sorted_dedup() {
        assert_eq!(
            example3().relation_names(),
            vec!["Likes", "Serves", "Visits"]
        );
    }

    #[test]
    fn desugar_select_const_matches_paper_note() {
        // σ₁₌'c'(E) = π₁..ₙ(σ₁₌ₙ₊₁(τ_c(E))) — check shape and arity.
        let s = Schema::new([("R", 2)]);
        let e = Expr::rel("R").select_const(1, Value::int(7));
        let d = e.desugared(&s).unwrap();
        assert_eq!(d.arity(&s).unwrap(), 2);
        match &d {
            Expr::Project(cols, inner) => {
                assert_eq!(cols, &vec![1, 2]);
                match inner.as_ref() {
                    Expr::Select(Selection::Eq(1, 3), tagged) => {
                        assert!(matches!(tagged.as_ref(), Expr::ConstTag(_, _)));
                    }
                    other => panic!("unexpected desugaring: {other:?}"),
                }
            }
            other => panic!("unexpected desugaring: {other:?}"),
        }
        // Constants are preserved by desugaring.
        assert_eq!(d.constants(), vec![Value::int(7)]);
    }

    #[test]
    fn intersect_derivation() {
        let s = beer_schema();
        let e = Expr::rel("Likes").intersect(Expr::rel("Serves"));
        assert_eq!(e.arity(&s).unwrap(), 2);
        assert!(e.is_ra());
    }

    #[test]
    fn structural_hash_agrees_with_equality() {
        let a = example3();
        let b = example3();
        assert_eq!(a.structural_hash(), b.structural_hash());
        // Shared subtrees hash equally from different occurrences.
        let e = Expr::rel("R").project([1]);
        let twice = e.clone().diff(e.clone());
        let subs = twice.subexpressions();
        assert_eq!(subs[1].structural_hash(), subs[3].structural_hash());
        // Different shapes (almost surely) hash differently.
        assert_ne!(
            Expr::rel("R").structural_hash(),
            Expr::rel("S").structural_hash()
        );
        assert_ne!(
            e.structural_hash(),
            Expr::rel("R").project([2]).structural_hash()
        );
    }

    #[test]
    fn labels() {
        assert_eq!(Expr::rel("R").label(), "R");
        assert_eq!(Expr::rel("R").project([1, 2]).label(), "project[1,2]");
        assert_eq!(
            Expr::rel("R")
                .join(Condition::eq(1, 1), Expr::rel("S"))
                .label(),
            "join[1=1]"
        );
        // Integer and string constants label apart.
        assert_eq!(
            Expr::rel("R").select_const(1, Value::int(7)).label(),
            "select[1={7}]"
        );
        assert_eq!(
            Expr::rel("R").select_const(1, Value::str("7")).label(),
            "select[1='7']"
        );
        assert_eq!(Expr::rel("R").tag(Value::int(-2)).label(), "tag[{-2}]");
    }
}
