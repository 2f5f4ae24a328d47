//! The physical planner: logical `Expr` trees lowered to a memoized
//! operator DAG.
//!
//! The paper's dichotomy (Theorem 17) is about intermediate *sizes*, but a
//! tree-walking evaluator also wastes *constants* wherever the same
//! subexpression occurs more than once: `division_double_difference`
//! mentions `R` three times and `π₁(R)` twice, and the naive evaluator
//! re-evaluates (and deep-clones) every occurrence. This module removes
//! that waste — and, for division, the quadratic intermediate itself —
//! in three steps:
//!
//! 1. **Hash-consing.** Lowering walks the expression bottom-up and keys
//!    each node by the subexpression itself (hashed and compared
//!    structurally), so structurally identical subtrees collapse into
//!    one [`PlanNode`]. The result is a DAG in which every distinct
//!    subexpression is evaluated exactly once per query.
//! 2. **Shared leaves.** Scans take an [`Arc`] handle from
//!    [`Database::get_shared`] instead of cloning the relation; all
//!    intermediate results flow through the DAG as `Arc<Relation>`, so a
//!    node consumed by several parents is never copied.
//! 3. **Physical operator choice.** Every θ-join and θ-semijoin is the
//!    one [`PhysOp::Join`] / [`PhysOp::Semijoin`] variant, whose kernel
//!    hashes on θ's equality atoms — on the empty key, one bucket and so
//!    a filtered nested loop, when there are none. The node is named by
//!    that cost ([`ops::join_dispatch`]), so the name in `EXPLAIN` says
//!    how the one body runs. Non-equality atoms ride along as residual filters. The two
//!    textbook RA division idioms over stored operands — the double
//!    difference and its equality variant — lower whole to one
//!    [`PhysOp::Divide`] node run by a linear algorithm of the
//!    `sj-setjoin` registry: Proposition 26 says no RA rewrite can make
//!    them linear, so the escape is an operator choice, made here under
//!    every optimizer level. A consumer
//!    that keeps only a key prefix `1..k` of its input runs inside the
//!    input's node, under every optimizer level too: `π[1..k](A ⋉θ B)`
//!    and `π[1..k](σ(A))` are the ⋉ or σ node emitting the distinct
//!    `k`-prefixes of its survivors (`project: Some(k)`), and
//!    `γ[1..k; count](A ⋈θ B)` with `k ≤ arity(A)` is one
//!    [`PhysOp::GroupJoin`] that counts each left row's partners instead
//!    of building the join. A shape fuses only when every occurrence of
//!    its input is under that same consumer, so a shared ⋉ or ⋈ stays one
//!    memoized node; the fused node is labelled with both operators and
//!    estimated as the consumer.
//!
//! Every plan is costed. [`PhysicalPlan::of_costed_with_order`] is the
//! one constructor: it takes the statistics source that orders join
//! chains and annotates every node with an estimate, and the cost model
//! that prices a [`PhysOp::Divide`]'s algorithm. Operator choice reads θ
//! alone. [`crate::Engine`] calls it with its own catalog;
//! [`PhysicalPlan::execute_with`] / [`PhysicalPlan::execute_reported`]
//! run the plan on the caller's thread, one node at a time in
//! topological order (the latter hands a [`Report`] with per-node
//! operator choice, estimate, cardinality and timing back beside the
//! result), and [`PhysicalPlan::explain`] renders the DAG with sharing
//! annotations.

use crate::error::EvalError;
use crate::exec::Execution;
use crate::exec::JoinOrder;
use crate::explain::draw_tree;
use crate::joinorder;
use crate::kernel;
use crate::ops;
use crate::ops_vec;
use crate::par::Parallelism;
use crate::report::{NodeStat, Report};
use sj_algebra::{AlgebraError, Condition, Expr, JoinGraph, Selection};
use sj_setjoin::{DivisionSemantics, Registry};
use sj_stats::{CardEst, CostModel, Estimator, StatsSource};
use sj_storage::{ensure_u32_indexable, Database, FxHashMap, Relation, Schema, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Index of a node within a [`PhysicalPlan`] (topological: children come
/// before parents, the root is the last node).
pub type NodeId = usize;

/// The physical operator executing one DAG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysOp {
    /// Leaf scan: a shared handle to a stored relation (no copy).
    Scan(String),
    /// Set union as a linear merge of the two canonical runs.
    MergeUnion,
    /// Set difference as a linear merge.
    MergeDiff,
    /// Projection (1-based columns) through [`kernel::project`]: one
    /// deduplicating pass on a column prefix `1..k` of the canonical
    /// input, project-and-sort on any other list. A prefix projection
    /// whose input is a ⋉ or σ consumed by it alone is not a node of its
    /// own: it fuses into that node's `project` field.
    Project(Vec<usize>),
    /// Selection filter through [`ops_vec::select`]; with `project:
    /// Some(k)` it is the fused `π[1..k](σ(A))` of
    /// [`ops_vec::project_select`], emitting the distinct `k`-prefixes of
    /// the surviving rows.
    Filter {
        sel: Selection,
        project: Option<usize>,
    },
    /// Constant tagging.
    Tag(Value),
    /// `⋈θ` through [`kernel::join`]: hash join on θ's equality atoms
    /// (build right, probe left, residual filter); with none, every row
    /// shares one bucket, a filtered nested loop. [`PhysOp::name`] says
    /// which cost.
    Join(Condition),
    /// `⋉θ` through [`kernel::semijoin`] (see [`PhysOp::Join`]); with
    /// `project: Some(k)` the fused `π[1..k](A ⋉θ B)` of
    /// [`kernel::project_semijoin`].
    Semijoin {
        theta: Condition,
        project: Option<usize>,
    },
    /// Grouping with a count aggregate through [`kernel::group_count`]:
    /// counted runs on a column prefix `1..k` of the canonical input, a
    /// hash of the key on any other list.
    HashGroupCount(Vec<usize>),
    /// `γ[1..keys; count](A ⋈θ B)` (`1 ≤ keys ≤ arity(A)`, the join
    /// consumed by the grouping alone) through [`kernel::group_join`]:
    /// per left row a count of its θ-partners, summed over runs of equal
    /// key — no join row is built.
    GroupJoin { theta: Condition, keys: usize },
    /// Worst-case-optimal multiway join of a cyclic join chain
    /// ([`kernel::multiway_join`]): the children are the chain's leaves
    /// in written order, and the spec names the Hamiltonian variable
    /// cycle over them. Chosen when every pairwise order's estimated intermediate exceeds the cycle's AGM
    /// output bound ([`joinorder::multiway_plan`]).
    MultiwayJoin(kernel::MultiwaySpec),
    /// Division `X ÷ Y` of a stored binary dividend by a stored unary
    /// divisor (children `[X, Y]`), standing for a whole RA idiom that
    /// would otherwise materialize the product `π₁(X) × Y`: the double
    /// difference `π₁(X) − π₁((π₁(X) × Y) − X)`
    /// ([`DivisionSemantics::Containment`]) or its equality variant
    /// `DD(X, Y) − π₁(X − (π₁(X) × Y))` ([`DivisionSemantics::Equality`]).
    /// `algorithm` is the [`Registry`] entry that
    /// [`Registry::auto_division`] prices cheapest on the two scans'
    /// statistics at plan time — the node's name and the body that runs.
    Divide {
        sem: DivisionSemantics,
        algorithm: &'static str,
    },
}

impl PhysOp {
    /// Short operator name for reports and `explain` output. The
    /// θ-dispatched variants are named by the rule their kernel applies
    /// ([`ops::join_dispatch`] / [`ops::semijoin_dispatch`]), so a label
    /// that differs from the body cannot be written down; a fused prefix
    /// projection adds `+project`.
    pub fn name(&self) -> &'static str {
        let hashed = |theta: &Condition| !ops::split_condition(theta).0.is_empty();
        match self {
            PhysOp::Scan(_) => "scan",
            PhysOp::MergeUnion => "merge-union",
            PhysOp::MergeDiff => "merge-diff",
            PhysOp::Project(_) => "project",
            PhysOp::Filter { project: None, .. } => "filter",
            PhysOp::Filter {
                project: Some(_), ..
            } => "filter+project",
            PhysOp::Tag(_) => "tag",
            PhysOp::Join(theta) => ops::join_dispatch(theta),
            PhysOp::Semijoin {
                theta,
                project: None,
            } => ops::semijoin_dispatch(theta),
            PhysOp::Semijoin { theta, .. } if hashed(theta) => "hash-semijoin+project",
            PhysOp::Semijoin { .. } => "nested-loop-semijoin+project",
            PhysOp::HashGroupCount(cols) if kernel::prefix_len(cols).is_some() => "sorted-group",
            PhysOp::HashGroupCount(_) => "hash-group",
            PhysOp::GroupJoin { theta, .. } if hashed(theta) => "hash-group-join",
            PhysOp::GroupJoin { .. } => "nested-loop-group-join",
            PhysOp::MultiwayJoin(_) => "multiway-join",
            PhysOp::Divide { algorithm, .. } => algorithm,
        }
    }

    /// `Some(k)` for a ⋉ or σ node that runs its consumer `π[1..k]`.
    fn fused_projection(&self) -> Option<usize> {
        match self {
            PhysOp::Filter { project, .. } | PhysOp::Semijoin { project, .. } => *project,
            _ => None,
        }
    }
}

/// One node of the physical DAG.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The physical operator.
    pub op: PhysOp,
    /// Child node ids (left to right).
    pub children: Vec<NodeId>,
    /// Logical label of the subexpression this node computes
    /// ([`Expr::label`]; `divide[⊇]` / `divide[=]` for a
    /// [`PhysOp::Divide`], which computes a whole idiom).
    pub label: String,
    /// Output arity.
    pub arity: usize,
    /// How many times the subexpression occurs in the original tree —
    /// `> 1` means the naive evaluator would have re-evaluated it. This
    /// sharing count is the `×n` that `explain` and every profile print.
    /// A fused node (`π∘⋉`, `π∘σ`, `γ∘⋈`) counts its consumer's
    /// occurrences, and each stands for two tree nodes.
    pub occurrences: usize,
    /// Estimated output cardinality. Purely advisory: it appears in
    /// `explain` output and reports (next to the actual), never in
    /// results.
    pub est_rows: f64,
}

/// A lowered, hash-consed physical plan.
///
/// Nodes are stored in topological order (children before parents), so
/// execution is a single forward pass with every node evaluated exactly
/// once.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    nodes: Vec<PlanNode>,
    root: NodeId,
    expr_nodes: usize,
}

impl PhysicalPlan {
    /// Validate `expr` against `schema` and lower it to a physical DAG.
    ///
    /// Before lowering, every join chain is reassociated into the
    /// cheapest order the search finds ([`joinorder::reorder`] —
    /// results stay byte-identical; a restoring projection keeps the
    /// written column order), and cyclic chains whose every pairwise
    /// order is estimated past the AGM bound collapse into one
    /// [`PhysOp::MultiwayJoin`]. The RA division idioms
    /// over stored operands lower to one [`PhysOp::Divide`] whose
    /// algorithm `model` prices cheapest, and key-prefix consumers fuse
    /// into the node they consume (see the module docs). Every node carries an
    /// estimated output cardinality ([`PlanNode::est_rows`], shown by
    /// [`PhysicalPlan::explain`] and compared against actuals in
    /// instrumented reports). A binary node's key is read off θ alone:
    /// its equality atoms, or the empty key (one bucket) when it has
    /// none. Statistics change
    /// constants, never results.
    ///
    /// `_order` is accepted and ignored ([`JoinOrder`] has one value).
    ///
    /// Errors with [`EvalError::MissingStatistics`] when `source` has
    /// nothing for a relation the expression reads.
    pub fn of_costed_with_order(
        expr: &Expr,
        schema: &Schema,
        source: &dyn StatsSource,
        model: &CostModel,
        _order: JoinOrder,
    ) -> Result<PhysicalPlan, EvalError> {
        expr.arity(schema)?;
        if let Some(name) = expr
            .relation_names()
            .into_iter()
            .find(|name| source.table_stats(name).is_none())
        {
            return Err(EvalError::MissingStatistics(name.to_string()));
        }
        // Join-order search happens on the logical tree, before
        // lowering, so hash-consing and operator choice see the chosen
        // shape. Chains ear-marked for the multiway collapse are left
        // as written — `lower` recognizes and collapses them whole.
        let reordered = joinorder::reorder(expr, schema, source);
        let planned_expr: &Expr = reordered.as_ref().unwrap_or(expr);
        // Occurrence counts need a full tree walk: lowering stops at the
        // first memo hit, so descendants of a shared subtree would be
        // undercounted (R under a second π₁(R) occurrence, say).
        let mut occurrences = FxHashMap::default();
        for s in planned_expr.subexpressions() {
            *occurrences.entry(s).or_insert(0) += 1;
        }
        let mut planner = Planner {
            schema,
            source,
            estimator: Estimator::new(source),
            model,
            nodes: Vec::new(),
            memo: FxHashMap::default(),
            occurrences,
        };
        let root = planner.lower(planned_expr);
        Ok(PhysicalPlan {
            nodes: planner.nodes,
            root,
            expr_nodes: planned_expr.node_count(),
        })
    }

    /// The DAG nodes in topological order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The root node id (always the last node).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of DAG nodes — distinct subexpressions of the query.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes of the *logical* expression tree; the difference
    /// to [`PhysicalPlan::node_count`] is work the memoization saves.
    pub fn expr_node_count(&self) -> usize {
        self.expr_nodes
    }

    /// Nodes whose subexpression occurs more than once in the tree.
    pub fn shared_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.occurrences > 1).count()
    }

    /// Execute the plan on the caller's thread. The database must
    /// conform to the schema the plan was built against; scans re-check
    /// name and arity (the cheap part) and error out on mismatch,
    /// everything else was validated at plan time.
    pub fn execute_with(&self, db: &Database) -> Result<Relation, EvalError> {
        Ok(unshare(self.run(db, |_, _, _, _| {})?))
    }

    /// [`PhysicalPlan::execute_with`]; `_par` and `_exec` are accepted
    /// and ignored (see [`crate::exec`]).
    pub fn execute_with_execution(
        &self,
        db: &Database,
        _par: Parallelism,
        _exec: Execution,
    ) -> Result<Relation, EvalError> {
        self.execute_with(db)
    }

    /// [`PhysicalPlan::execute_with`] with per-node instrumentation: the
    /// result beside a [`Report`] holding one [`NodeStat`] per **DAG
    /// node** (not per tree node — that is the point), in topological
    /// order with the root last. Each carries the plan's estimate and
    /// sharing count next to the actual cardinality and the node's self
    /// time.
    pub fn execute_reported(&self, db: &Database) -> Result<(Relation, Report), EvalError> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let root = self.run(db, |id, node: &PlanNode, rel: &Relation, elapsed| {
            nodes.push(NodeStat {
                id,
                label: node.label.clone(),
                operator: node.op.name(),
                arity: rel.arity(),
                cardinality: rel.len(),
                estimate: Some(node.est_rows),
                occurrences: node.occurrences,
                elapsed,
            });
        })?;
        let report = Report {
            output_rows: root.len(),
            nodes,
            db_size: db.size(),
            expr_nodes: self.expr_nodes,
            ..Report::default()
        };
        Ok((unshare(root), report))
    }

    /// Execute one node against its already-computed children. The
    /// cheap linear operators (scan, merge set ops, projection, filter,
    /// tag, grouping) are one pass over their input; join/semijoin work
    /// routes through the kernel layer ([`crate::kernel`]), which runs
    /// one body per operator over whole operands. A division node runs
    /// its registry algorithm at one worker, the count the planner
    /// priced it at ([`Planner::pick_division`]). The filter and the
    /// binary kernels index their operands' rows with `u32` ids: a larger
    /// operand is an error here, not a second code path.
    fn exec_op(
        &self,
        node: &PlanNode,
        kids: &[&Relation],
        db: &Database,
    ) -> Result<Arc<Relation>, EvalError> {
        // The one value of a type the kernel signatures still carry (see
        // `crate::exec`), and the worker count they ignore.
        let (exec, workers) = (Execution::Vectorized, 1);
        if matches!(
            node.op,
            PhysOp::Filter { .. }
                | PhysOp::Join(_)
                | PhysOp::Semijoin { .. }
                | PhysOp::GroupJoin { .. }
        ) {
            ensure_row_ids(kids.iter().map(|k| k.len()))?;
        }
        let rel = match &node.op {
            PhysOp::Scan(name) => {
                let r = db.get_shared(name).ok_or_else(|| {
                    EvalError::Algebra(AlgebraError::UnknownRelation(name.clone()))
                })?;
                if r.arity() != node.arity {
                    return Err(EvalError::Algebra(AlgebraError::ArityMismatch {
                        left: node.arity,
                        right: r.arity(),
                    }));
                }
                return Ok(r);
            }
            PhysOp::MergeUnion => kids[0].union(kids[1]).expect("validated: arities agree"),
            PhysOp::MergeDiff => kids[0]
                .difference(kids[1])
                .expect("validated: arities agree"),
            PhysOp::Project(cols) => kernel::project(kids[0], cols),
            PhysOp::Filter { sel, project } => {
                let k = project.unwrap_or(kids[0].arity());
                ops_vec::project_select(kids[0], sel, k)
            }
            PhysOp::Tag(c) => kernel::tag(kids[0], c),
            PhysOp::Join(theta) => kernel::join(kids[0], kids[1], theta, exec, workers),
            PhysOp::Semijoin { theta, project } => {
                let k = project.unwrap_or(kids[0].arity());
                kernel::project_semijoin(kids[0], kids[1], theta, k)
            }
            PhysOp::HashGroupCount(cols) => kernel::group_count(kids[0], cols),
            PhysOp::GroupJoin { theta, keys } => kernel::group_join(kids[0], kids[1], theta, *keys),
            PhysOp::Divide { sem, algorithm } => {
                let alg = Registry::standard()
                    .find_division(algorithm)
                    .expect("planned from the registry table");
                sj_setjoin::run_division_traced(alg, kids[0], kids[1], *sem, workers)
            }
            PhysOp::MultiwayJoin(spec) => kernel::multiway_join(kids, spec, exec, workers),
        };
        Ok(Arc::new(rel))
    }

    /// One forward pass over the DAG in topological order; `observe`
    /// sees every node's output and self time. Each node runs under a
    /// `plan.node` span.
    ///
    /// Each intermediate is dropped as soon as its last consumer has run,
    /// so peak memory tracks the live frontier of the DAG rather than the
    /// sum of all intermediates.
    fn run(
        &self,
        db: &Database,
        mut observe: impl FnMut(NodeId, &PlanNode, &Relation, Duration),
    ) -> Result<Arc<Relation>, EvalError> {
        let mut pending_consumers = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &c in &node.children {
                pending_consumers[c] += 1;
            }
        }
        pending_consumers[self.root] += 1; // the caller consumes the root
        let mut results: Vec<Option<Arc<Relation>>> = vec![None; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            let kids: Vec<&Relation> = node
                .children
                .iter()
                .map(|&c| {
                    results[c]
                        .as_deref()
                        .expect("children are computed before their parents")
                })
                .collect();
            let mut span = sj_obs::span!(
                "plan.node",
                node = id,
                op = node.op.name(),
                input = kids.iter().map(|k| k.len()).sum::<usize>()
            );
            let start = Instant::now();
            let rel = self.exec_op(node, &kids, db)?;
            let elapsed = start.elapsed();
            span.attr("rows", rel.len());
            drop(span);
            observe(id, node, &rel, elapsed);
            results[id] = Some(rel);
            for &c in &node.children {
                pending_consumers[c] -= 1;
                if pending_consumers[c] == 0 {
                    results[c] = None;
                }
            }
        }
        Ok(results[self.root].take().expect("root computed"))
    }

    /// Render the DAG as an `EXPLAIN`-style tree. The first occurrence of
    /// a shared node is expanded and tagged `×n`; later occurrences are
    /// printed as back-references (`… see #id`), making the memoization
    /// visible:
    ///
    /// ```text
    /// #6 merge-diff            diff
    /// ├─ #1 project            project[1]  ×2
    /// │  └─ #0 scan            R  ×3
    /// └─ #5 project            project[1]
    ///    └─ ...
    /// ```
    pub fn explain(&self) -> String {
        let mut out = format!(
            "physical plan: {} nodes for {} logical nodes ({} shared)\n",
            self.node_count(),
            self.expr_nodes,
            self.shared_node_count()
        );
        let mut seen = vec![false; self.nodes.len()];
        draw_tree(self.root, &mut out, &mut |id, branch, out| {
            if std::mem::replace(&mut seen[id], true) {
                out.push_str(&format!("{branch}#{id} … see above\n"));
                return Vec::new();
            }
            let node = &self.nodes[id];
            let shared = if node.occurrences > 1 {
                format!("  ×{}", node.occurrences)
            } else {
                String::new()
            };
            let head = format!("{branch}#{id} {}", node.op.name());
            out.push_str(&format!(
                "{head:<40} {}  ~{:.0} rows{shared}\n",
                node.label, node.est_rows
            ));
            node.children.clone()
        });
        out
    }
}

/// Bottom-up lowering state: the hash-consing memo and the occurrence
/// counts, both keyed by the subexpression itself (hashed and compared
/// structurally, so equal subtrees share one entry).
///
/// Each lookup hashes the probed subtree, so lowering costs
/// `O(n · depth)` hashing overall — microseconds at the expression sizes
/// of this reproduction (tens of nodes). Should machine-generated
/// expressions ever make this the bottleneck, the memo can be re-keyed by
/// `(operator, child NodeIds)` after lowering children for `O(n)` total.
struct Planner<'a> {
    schema: &'a Schema,
    /// The plan's statistics source; every leaf was checked to have
    /// statistics before lowering started.
    source: &'a dyn StatsSource,
    /// Cardinality estimates over `source`.
    estimator: Estimator<'a>,
    /// Prices the division algorithms a [`PhysOp::Divide`] picks from.
    model: &'a CostModel,
    nodes: Vec<PlanNode>,
    /// The plan node each lowered subexpression became.
    memo: FxHashMap<&'a Expr, NodeId>,
    /// How often each subexpression occurs in the tree being lowered.
    occurrences: FxHashMap<&'a Expr, usize>,
}

impl<'a> Planner<'a> {
    fn lower(&mut self, e: &'a Expr) -> NodeId {
        if let Some(&id) = self.memo.get(e) {
            return id;
        }
        let (op, children) = match e {
            Expr::Rel(name) => (PhysOp::Scan(name.clone()), vec![]),
            Expr::Union(a, b) => (PhysOp::MergeUnion, vec![self.lower(a), self.lower(b)]),
            Expr::Diff(a, b) => match division_idiom(e, self.schema) {
                Some((sem, x, y)) => {
                    let algorithm = self.pick_division(x, y);
                    (
                        PhysOp::Divide { sem, algorithm },
                        vec![self.lower(x), self.lower(y)],
                    )
                }
                None => (PhysOp::MergeDiff, vec![self.lower(a), self.lower(b)]),
            },
            Expr::Project(cols, a) => match self.fuse_projection(e, cols, a) {
                Some(fused) => fused,
                None => (PhysOp::Project(cols.clone()), vec![self.lower(a)]),
            },
            Expr::Select(sel, a) => (
                PhysOp::Filter {
                    sel: sel.clone(),
                    project: None,
                },
                vec![self.lower(a)],
            ),
            Expr::ConstTag(c, a) => (PhysOp::Tag(c.clone()), vec![self.lower(a)]),
            Expr::Join(theta, a, b) => {
                if let Some((spec, leaves)) = self.try_multiway(e) {
                    let children = leaves.into_iter().map(|l| self.lower(l)).collect();
                    (PhysOp::MultiwayJoin(spec), children)
                } else {
                    (
                        PhysOp::Join(theta.clone()),
                        vec![self.lower(a), self.lower(b)],
                    )
                }
            }
            Expr::Semijoin(theta, a, b) => (
                PhysOp::Semijoin {
                    theta: theta.clone(),
                    project: None,
                },
                vec![self.lower(a), self.lower(b)],
            ),
            Expr::GroupCount(cols, a) => match self.fuse_grouping(e, cols, a) {
                Some(fused) => fused,
                None => (PhysOp::HashGroupCount(cols.clone()), vec![self.lower(a)]),
            },
        };
        let fused = op.fused_projection().is_some() || matches!(op, PhysOp::GroupJoin { .. });
        let arity = op
            .fused_projection()
            .unwrap_or_else(|| match (&op, children.as_slice()) {
                (PhysOp::Scan(name), _) => self
                    .schema
                    .arity_of(name)
                    .expect("validated: relation exists"),
                (PhysOp::Project(cols), _) => cols.len(),
                (PhysOp::Divide { .. }, _) => 1,
                (PhysOp::Tag(_), &[c]) => self.nodes[c].arity + 1,
                (PhysOp::HashGroupCount(cols), _) => cols.len() + 1,
                (PhysOp::GroupJoin { keys, .. }, _) => keys + 1,
                (PhysOp::Join(_), &[l, r]) => self.nodes[l].arity + self.nodes[r].arity,
                (PhysOp::MultiwayJoin(_), kids) => {
                    kids.iter().map(|&c| self.nodes[c].arity).sum::<usize>()
                }
                (_, &[c, ..]) => self.nodes[c].arity,
                _ => unreachable!("every non-scan operator has children"),
            });
        let label = match &op {
            PhysOp::Divide {
                sem: DivisionSemantics::Containment,
                ..
            } => "divide[⊇]".to_string(),
            PhysOp::Divide {
                sem: DivisionSemantics::Equality,
                ..
            } => "divide[=]".to_string(),
            _ if fused => format!("{}∘{}", e.label(), e.children()[0].label()),
            _ => e.label(),
        };
        let id = self.nodes.len();
        self.nodes.push(PlanNode {
            op,
            children,
            label,
            arity,
            occurrences: self.occurrences[e],
            est_rows: self.estimate(e).rows,
        });
        self.memo.insert(e, id);
        id
    }

    /// The estimated output shape of a subexpression of the planned
    /// tree.
    fn estimate(&self, e: &Expr) -> CardEst {
        self.estimator
            .estimate(e)
            .expect("every leaf has statistics: checked before lowering")
    }

    /// The registry's cheapest division algorithm on the stored operands
    /// `x` and `y` (both [`Expr::Rel`]), priced at one worker: the count
    /// the executor runs it at.
    fn pick_division(&self, x: &Expr, y: &Expr) -> &'static str {
        let stats = |e: &Expr| {
            let Expr::Rel(name) = e else {
                unreachable!("division idioms lower over stored relations only")
            };
            self.source
                .table_stats(name)
                .expect("every leaf has statistics: checked before lowering")
        };
        Registry::standard()
            .auto_division(&stats(x), &stats(y), 1, self.model)
            .name()
    }

    /// `π[1..k](A ⋉θ B)` or `π[1..k](σ(A))` as the one ⋉ or σ node that
    /// emits distinct `k`-prefixes, when `consumer` (the projection) is
    /// `input`'s only consumer.
    fn fuse_projection(
        &mut self,
        consumer: &Expr,
        cols: &[usize],
        input: &'a Expr,
    ) -> Option<(PhysOp, Vec<NodeId>)> {
        let k = kernel::prefix_len(cols)?;
        let (op, operands): (PhysOp, Vec<&'a Expr>) = match input {
            Expr::Semijoin(theta, a, b) => (
                PhysOp::Semijoin {
                    theta: theta.clone(),
                    project: Some(k),
                },
                vec![a, b],
            ),
            Expr::Select(sel, a) => (
                PhysOp::Filter {
                    sel: sel.clone(),
                    project: Some(k),
                },
                vec![a],
            ),
            _ => return None,
        };
        if !self.sole_consumer(consumer, input) {
            return None;
        }
        Some((op, operands.into_iter().map(|x| self.lower(x)).collect()))
    }

    /// `γ[1..k; count](A ⋈θ B)` with `1 ≤ k ≤ arity(A)` as one
    /// [`PhysOp::GroupJoin`], when `consumer` (the grouping) is the join's
    /// only consumer and the join is not a multiway collapse. `γ[]` stays
    /// a grouping: it answers `{(0)}` on an empty join.
    fn fuse_grouping(
        &mut self,
        consumer: &Expr,
        cols: &[usize],
        input: &'a Expr,
    ) -> Option<(PhysOp, Vec<NodeId>)> {
        let Expr::Join(theta, a, b) = input else {
            return None;
        };
        let keys = kernel::prefix_len(cols).filter(|&k| k >= 1)?;
        let left_arity = a.arity(self.schema).expect("validated before lowering");
        if keys > left_arity
            || !self.sole_consumer(consumer, input)
            || self.try_multiway(input).is_some()
        {
            return None;
        }
        Some((
            PhysOp::GroupJoin {
                theta: theta.clone(),
                keys,
            },
            vec![self.lower(a), self.lower(b)],
        ))
    }

    /// True when every occurrence of `input` in the tree is the input of
    /// an occurrence of `consumer`: fusing the two then leaves no other
    /// consumer without `input`'s memoized node.
    fn sole_consumer(&self, consumer: &Expr, input: &Expr) -> bool {
        self.occurrences[input] == self.occurrences[consumer]
    }

    /// Should this join chain collapse into one worst-case-optimal
    /// multiway operator? Delegates the decision to
    /// [`joinorder::multiway_plan`] — the same function the reorder
    /// pass consulted when it left the chain's shape alone — so the two
    /// passes cannot disagree.
    fn try_multiway(&self, e: &'a Expr) -> Option<(kernel::MultiwaySpec, Vec<&'a Expr>)> {
        let g = JoinGraph::extract(e, self.schema)?;
        let ests: Vec<CardEst> = g.leaves.iter().map(|l| self.estimate(l)).collect();
        let spec = joinorder::multiway_plan(&g, &ests)?;
        Some((spec, g.leaves))
    }
}

/// `(semantics, X, Y)` when `e` is one of the RA division idioms of
/// [`PhysOp::Divide`] over a stored binary `X` and a stored unary `Y`,
/// every repeated occurrence of either structurally equal.
fn division_idiom<'e>(
    e: &'e Expr,
    schema: &Schema,
) -> Option<(DivisionSemantics, &'e Expr, &'e Expr)> {
    let (sem, x, y) = match double_difference(e) {
        Some((x, y)) => (DivisionSemantics::Containment, x, y),
        None => {
            // DD(X, Y) − π₁(X − (π₁(X) × Y))
            let Expr::Diff(dd, extras) = e else {
                return None;
            };
            let (x, y) = double_difference(dd)?;
            let Expr::Diff(x2, pairs) = first_column_of(extras)? else {
                return None;
            };
            if **x2 != *x || candidates_times(pairs, x)? != y {
                return None;
            }
            (DivisionSemantics::Equality, x, y)
        }
    };
    let stored =
        |e: &Expr, arity| matches!(e, Expr::Rel(name) if schema.arity_of(name) == Some(arity));
    (stored(x, 2) && stored(y, 1)).then_some((sem, x, y))
}

/// `(X, Y)` when `e` is `π₁(X) − π₁((π₁(X) × Y) − X)`.
fn double_difference(e: &Expr) -> Option<(&Expr, &Expr)> {
    let Expr::Diff(candidates, missing) = e else {
        return None;
    };
    let x = first_column_of(candidates)?;
    let Expr::Diff(pairs, realized) = first_column_of(missing)? else {
        return None;
    };
    let y = candidates_times(pairs, x)?;
    (**realized == *x).then_some((x, y))
}

/// `X` when `e` is `π₁(X)`.
fn first_column_of(e: &Expr) -> Option<&Expr> {
    match e {
        Expr::Project(cols, x) if cols[..] == [1] => Some(x),
        _ => None,
    }
}

/// `Y` when `e` is the product `π₁(x) × Y`. The join-order search leaves
/// it as written: a two-leaf chain's canonical split keeps the first leaf
/// on the left.
fn candidates_times<'e>(e: &'e Expr, x: &Expr) -> Option<&'e Expr> {
    match e {
        Expr::Join(theta, candidates, y)
            if theta.is_empty() && first_column_of(candidates) == Some(x) =>
        {
            Some(y)
        }
        _ => None,
    }
}

/// `Ok` when every operand of these row counts fits the `u32` row ids
/// the filter and the binary kernels index with;
/// [`sj_storage::StorageError::RelationTooLarge`] otherwise.
fn ensure_row_ids(rows: impl IntoIterator<Item = usize>) -> Result<(), EvalError> {
    rows.into_iter()
        .try_for_each(ensure_u32_indexable)
        .map_err(EvalError::Storage)
}

/// The root's output as an owned relation: moved out when the plan held
/// the only handle, copied when the root is a stored relation the
/// database still shares (a bare scan).
fn unshare(root: Arc<Relation>) -> Relation {
    Arc::try_unwrap(root).unwrap_or_else(|arc| arc.as_ref().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::evaluate;
    use crate::report::Q_ERROR_BUDGET;
    use sj_algebra::division;
    use sj_stats::{CatalogSource, StatsCatalog};
    use sj_storage::StorageError;

    /// Plan `e` the way a default engine over `db` does: default cost
    /// model and join order, statistics analyzed on demand.
    fn try_plan(e: &Expr, db: &Database) -> Result<PhysicalPlan, EvalError> {
        PhysicalPlan::of_costed_with_order(
            e,
            &db.schema(),
            &CatalogSource::new(&StatsCatalog::new(), db),
            &CostModel::default(),
            JoinOrder::default(),
        )
    }

    fn plan(e: &Expr, db: &Database) -> PhysicalPlan {
        try_plan(e, db).unwrap()
    }

    fn division_db() -> Database {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[3, 8], &[3, 9]]),
        );
        db.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        db
    }

    /// The double difference with the subtracted `R` renamed `T`: a near
    /// miss the planner does not lower, so its DAG keeps the shared `R`
    /// and `π₁(R)` the memoization collapses. Over a `T` equal to `R` it
    /// answers the division.
    fn near_miss_division() -> Expr {
        let candidates = Expr::rel("R").project([1]);
        let missing = candidates
            .clone()
            .product(Expr::rel("S"))
            .diff(Expr::rel("T"))
            .project([1]);
        candidates.diff(missing)
    }

    /// [`division_db`] plus `T`, a copy of `R`.
    fn near_miss_db() -> Database {
        let mut db = division_db();
        db.set("T", db.get("R").unwrap().clone());
        db
    }

    /// The capacity check is a predicate on row counts: `u32::MAX` rows
    /// on either side still index, one more is an error.
    #[test]
    fn operands_beyond_u32_row_ids_are_an_error() {
        let max = u32::MAX as usize;
        assert_eq!(ensure_row_ids([]), Ok(()));
        assert_eq!(ensure_row_ids([0, 0]), Ok(()));
        assert_eq!(ensure_row_ids([max, max]), Ok(()));
        let too_large = |rows| Err(EvalError::Storage(StorageError::RelationTooLarge { rows }));
        assert_eq!(ensure_row_ids([max + 1, 0]), too_large(max + 1));
        assert_eq!(ensure_row_ids([0, max + 1]), too_large(max + 1));
        assert_eq!(
            ensure_row_ids([usize::MAX, usize::MAX]),
            too_large(usize::MAX)
        );
    }

    #[test]
    fn division_dag_shares_r_and_its_projection() {
        let plan = plan(&near_miss_division(), &near_miss_db());
        // 10 tree nodes collapse to 8 distinct subexpressions.
        assert_eq!(plan.expr_node_count(), 10);
        assert_eq!(plan.node_count(), 8);
        assert!(plan
            .nodes()
            .iter()
            .all(|n| !matches!(n.op, PhysOp::Divide { .. })));
        let scan_r = plan
            .nodes()
            .iter()
            .find(|n| n.op == PhysOp::Scan("R".into()))
            .unwrap();
        assert_eq!(scan_r.occurrences, 2);
        let proj = plan
            .nodes()
            .iter()
            .find(|n| n.label == "project[1]" && n.occurrences > 1)
            .unwrap();
        assert_eq!(proj.occurrences, 2);
    }

    #[test]
    fn division_idioms_lower_to_one_divide_node() {
        let db = division_db();
        let (r, s) = (db.get("R").unwrap(), db.get("S").unwrap());
        let cases = [
            (
                division::division_double_difference("R", "S"),
                DivisionSemantics::Containment,
            ),
            // `×` is `join[true]`: the same tree.
            (
                division::division_via_join("R", "S"),
                DivisionSemantics::Containment,
            ),
            (
                division::division_equality("R", "S"),
                DivisionSemantics::Equality,
            ),
        ];
        let expected = Registry::standard()
            .auto_division(
                &sj_stats::TableStats::analyze(r),
                &sj_stats::TableStats::analyze(s),
                1,
                &CostModel::default(),
            )
            .name();
        for (e, want) in cases {
            let plan = plan(&e, &db);
            assert_eq!(plan.node_count(), 3, "scan R, scan S, divide: {e}");
            let root = &plan.nodes()[plan.root()];
            let PhysOp::Divide { sem, algorithm } = root.op else {
                panic!("{e} lowers to {:?}", root.op)
            };
            assert_eq!(sem, want, "{e}");
            assert_eq!(algorithm, expected, "{e}");
            assert_eq!(root.op.name(), expected, "the name is the body that runs");
            let scans: Vec<&str> = root
                .children
                .iter()
                .map(|&c| plan.nodes()[c].label.as_str())
                .collect();
            assert_eq!(scans, ["R", "S"]);
            // The as-written expression's estimate, bounded by R's
            // distinct first-column count (3 groups).
            assert!(root.est_rows <= 3.0, "{}", root.est_rows);
            assert!(plan.explain().contains(expected), "{}", plan.explain());
            let (result, report) = plan.execute_reported(&db).unwrap();
            assert_eq!(result, evaluate(&e, &db).unwrap(), "{e}");
            assert_eq!(report.max_intermediate(), r.len(), "{e}");
        }
    }

    #[test]
    fn division_each_distinct_subtree_evaluated_exactly_once() {
        // Instrumentation shows one evaluation per distinct subtree — R
        // once (the tree has it twice), π₁(R) once (twice in the tree).
        let e = near_miss_division();
        let db = near_miss_db();
        let (result, report) = plan(&e, &db).execute_reported(&db).unwrap();
        assert_eq!(report.expr_nodes, 10);
        assert_eq!(report.nodes.len(), 8);
        assert_eq!(report.evaluations_saved(), 2);
        assert_eq!(report.nodes.iter().filter(|n| n.label == "R").count(), 1);
        assert_eq!(
            report
                .nodes
                .iter()
                .filter(|n| n.label == "project[1]")
                .count(),
            2, // π₁(R) and π₁(diff) are distinct subexpressions
        );
        // Ids are assigned in topological order and are exactly 0..n.
        for (i, n) in report.nodes.iter().enumerate() {
            assert_eq!(n.id, i);
        }
        assert_eq!(result, evaluate(&e, &db).unwrap());
        let lowered = division::division_double_difference("R", "S");
        assert_eq!(result, evaluate(&lowered, &db).unwrap(), "T = R");
        assert_eq!(report.output_rows, result.len());
    }

    #[test]
    fn planned_agrees_with_naive_on_running_examples() {
        let mut db = Database::new();
        db.set(
            "Visits",
            Relation::from_str_rows(&[
                &["an", "bad bar"],
                &["bob", "good bar"],
                &["carl", "empty bar"],
            ]),
        );
        db.set(
            "Serves",
            Relation::from_str_rows(&[&["bad bar", "swill"], &["good bar", "nectar"]]),
        );
        db.set("Likes", Relation::from_str_rows(&[&["bob", "nectar"]]));
        for e in [
            division::example3_lousy_bar_sa(),
            division::example3_lousy_bar_ra(),
            division::cyclic_beer_query_ra(),
        ] {
            assert_eq!(
                plan(&e, &db).execute_with(&db).unwrap(),
                evaluate(&e, &db).unwrap(),
                "{e}"
            );
        }
        let ddb = division_db();
        for e in [
            division::division_double_difference("R", "S"),
            division::division_via_join("R", "S"),
            division::division_equality("R", "S"),
            division::division_counting("R", "S"),
            division::division_equality_counting("R", "S"),
        ] {
            assert_eq!(
                plan(&e, &ddb).execute_with(&ddb).unwrap(),
                evaluate(&e, &ddb).unwrap(),
                "{e}"
            );
        }
    }

    #[test]
    fn operator_choice_reads_theta_alone() {
        let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i, i % 50]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&refs));
        db.set("S", Relation::from_int_rows(&refs));
        let cases = [
            (
                Expr::rel("R").semijoin(Condition::eq(1, 1), Expr::rel("S")),
                "hash-semijoin",
            ),
            (
                Expr::rel("R").join(Condition::eq_pairs([(1, 1), (2, 2)]), Expr::rel("S")),
                "hash-join",
            ),
            (
                Expr::rel("R").semijoin(Condition::eq(2, 1), Expr::rel("S")),
                "hash-semijoin",
            ),
            (
                Expr::rel("R").join(Condition::eq(2, 1), Expr::rel("S")),
                "hash-join",
            ),
            (
                Expr::rel("R").join(Condition::lt(1, 1), Expr::rel("S")),
                "nested-loop-join",
            ),
            (
                Expr::rel("R").semijoin(Condition::always(), Expr::rel("S")),
                "nested-loop-semijoin",
            ),
            (
                // 1=1 is hashed, 2<2 rides along as the residual.
                Expr::rel("R").join(
                    Condition::eq(1, 1).and(2, sj_algebra::CompOp::Lt, 2),
                    Expr::rel("S"),
                ),
                "hash-join",
            ),
        ];
        for (e, expect) in cases {
            let plan = plan(&e, &db);
            let root = &plan.nodes()[plan.root()];
            assert_eq!(root.op.name(), expect, "{e}");
            // The name is the kernel's own dispatch on θ — the body
            // that runs.
            match &root.op {
                PhysOp::Join(theta) => assert_eq!(root.op.name(), ops::join_dispatch(theta)),
                PhysOp::Semijoin { theta, .. } => {
                    assert_eq!(root.op.name(), ops::semijoin_dispatch(theta))
                }
                op => panic!("{e}: {op:?}"),
            }
        }
    }

    #[test]
    fn aligned_prefix_joins_agree_with_naive_evaluation() {
        let mut db = Database::new();
        db.set(
            "R",
            Relation::from_int_rows(&[&[1, 10], &[1, 20], &[2, 5], &[3, 1], &[3, 2]]),
        );
        db.set(
            "S",
            Relation::from_int_rows(&[&[1, 15], &[1, 30], &[3, 0], &[4, 9]]),
        );
        let exprs = [
            Expr::rel("R").join(Condition::eq(1, 1), Expr::rel("S")),
            Expr::rel("R").semijoin(Condition::eq(1, 1), Expr::rel("S")),
            Expr::rel("R").join(
                Condition::eq(1, 1).and(2, sj_algebra::CompOp::Lt, 2),
                Expr::rel("S"),
            ),
            Expr::rel("R").semijoin(
                Condition::eq(1, 1).and(2, sj_algebra::CompOp::Gt, 2),
                Expr::rel("S"),
            ),
        ];
        for e in exprs {
            assert_eq!(
                plan(&e, &db).execute_with(&db).unwrap(),
                evaluate(&e, &db).unwrap(),
                "{e}"
            );
        }
    }

    #[test]
    fn explain_shows_operators_and_sharing() {
        let s = plan(&near_miss_division(), &near_miss_db()).explain();
        assert!(s.contains("physical plan: 8 nodes for 10 logical nodes"));
        assert!(s.contains("scan"));
        assert!(s.contains("nested-loop-join"));
        assert!(s.contains("×2"), "R and π₁(R) are shared twice:\n{s}");
        assert!(s.contains("… see above"), "{s}");
        assert!(!s.contains("divide["), "{s}");
        // The lowered idiom: the division node over the two scans.
        let lowered = plan(
            &division::division_double_difference("R", "S"),
            &division_db(),
        )
        .explain();
        assert!(
            lowered.contains("physical plan: 3 nodes for 10 logical nodes"),
            "{lowered}"
        );
        assert!(lowered.contains("divide[⊇]"), "{lowered}");
        assert!(lowered.contains("×3"), "R occurs three times:\n{lowered}");
    }

    #[test]
    fn execute_rejects_mismatched_database() {
        let e = Expr::rel("R").project([1]);
        let plan = plan(&e, &division_db());
        // Missing relation.
        let empty = Database::new();
        assert!(matches!(
            plan.execute_with(&empty),
            Err(EvalError::Algebra(AlgebraError::UnknownRelation(_)))
        ));
        // Wrong arity.
        let mut wrong = Database::new();
        wrong.set("R", Relation::from_int_rows(&[&[1, 2, 3]]));
        assert!(matches!(
            plan.execute_with(&wrong),
            Err(EvalError::Algebra(AlgebraError::ArityMismatch { .. }))
        ));
    }

    #[test]
    fn planned_validation_errors_surface_like_plain() {
        let db = Database::new();
        assert!(try_plan(&Expr::rel("R"), &db).is_err());
        let mut db2 = Database::new();
        db2.set("R", Relation::empty(1));
        assert!(try_plan(&Expr::rel("R").project([2]), &db2).is_err());
    }

    #[test]
    fn a_source_without_a_validated_leaf_is_a_typed_error() {
        // The schema knows R, the statistics source does not: no silent
        // un-costed plan.
        let no_stats: FxHashMap<String, Arc<sj_stats::TableStats>> = FxHashMap::default();
        let err = PhysicalPlan::of_costed_with_order(
            &Expr::rel("R").project([1]),
            &division_db().schema(),
            &no_stats,
            &CostModel::default(),
            JoinOrder::default(),
        )
        .unwrap_err();
        assert_eq!(err, EvalError::MissingStatistics("R".into()));
    }

    #[test]
    fn scan_is_zero_copy() {
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&[&[1], &[2]]));
        let plan = plan(&Expr::rel("R"), &db);
        // A bare scan's result must be the stored allocation itself.
        let shared = plan.run(&db, |_, _, _, _| {}).unwrap();
        assert!(std::ptr::eq(shared.as_ref(), db.get("R").unwrap()));
    }

    #[test]
    fn plan_annotates_estimates_and_reports_pair_them_with_actuals() {
        let db = division_db();
        let e = division::division_double_difference("R", "S");
        let plan = plan(&e, &db);
        // Leaf scans are estimated exactly.
        let scan_r = plan
            .nodes()
            .iter()
            .find(|n| n.op == PhysOp::Scan("R".into()))
            .unwrap();
        assert_eq!(scan_r.est_rows, 5.0);
        assert_eq!(plan.execute_with(&db).unwrap(), evaluate(&e, &db).unwrap());
        assert!(plan.explain().contains("~5 rows"), "{}", plan.explain());
        // Instrumented report pairs estimates with actuals.
        let (_, report) = plan.execute_reported(&db).unwrap();
        assert!(report.nodes.iter().all(|n| n.estimate.is_some()));
        assert!(report.render().contains("est≈"), "{}", report.render());
    }

    #[test]
    fn tiny_equality_joins_plan_and_report_as_the_hash_body_that_runs() {
        // 2 × 2 rows, one equality atom: `kernel::join` /
        // `kernel::semijoin` hash on the equality atom at every size, so
        // plan, EXPLAIN and report all say `hash-*`.
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&[&[1, 10], &[2, 20]]));
        db.set("S", Relation::from_int_rows(&[&[10, 1], &[20, 2]]));
        let theta = Condition::eq(2, 1);
        let cases = [
            (
                Expr::rel("R").join(theta.clone(), Expr::rel("S")),
                "hash-join",
            ),
            (
                Expr::rel("R").semijoin(theta.clone(), Expr::rel("S")),
                "hash-semijoin",
            ),
        ];
        for (e, expect) in cases {
            let plan = plan(&e, &db);
            assert_eq!(plan.nodes()[plan.root()].op.name(), expect, "{e}");
            assert!(plan.explain().contains(expect), "{}", plan.explain());
            let (result, report) = plan.execute_reported(&db).unwrap();
            assert_eq!(report.nodes.last().unwrap().operator, expect, "{e}");
            assert_eq!(result, evaluate(&e, &db).unwrap(), "{e}");
        }
        // An aligned prefix is hashed too.
        let aligned = Expr::rel("R").join(Condition::eq(1, 1), Expr::rel("S"));
        let hashed = plan(&aligned, &db);
        assert_eq!(hashed.nodes()[hashed.root()].op.name(), "hash-join");
    }

    #[test]
    fn q_error_flags_estimates_over_budget() {
        // Correlated columns: σ₁₌₂ keeps every tuple, but the
        // independence assumption estimates ~1 row — a q-error in the
        // thousands, well past the render budget.
        let rows: Vec<Vec<i64>> = (0..2000).map(|i| vec![i, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut db = Database::new();
        db.set("R", Relation::from_int_rows(&refs));
        let e = Expr::rel("R").select_eq(1, 2);
        let (_, report) = plan(&e, &db).execute_reported(&db).unwrap();
        // The leaf scan is estimated exactly; the filter misses by >16×.
        let scan_id = report
            .nodes
            .iter()
            .find(|n| n.operator == "scan")
            .unwrap()
            .id;
        assert_eq!(report.q_error(scan_id), Some(1.0));
        assert!(report.max_q_error().unwrap() > Q_ERROR_BUDGET);
        assert_eq!(
            report.render().matches("over budget").count(),
            1,
            "only the correlated filter is flagged:\n{}",
            report.render()
        );
    }

    #[test]
    fn report_render_mentions_sharing_and_plan_size() {
        let db = near_miss_db();
        let (_, report) = plan(&near_miss_division(), &db)
            .execute_reported(&db)
            .unwrap();
        let s = report.render();
        assert!(s.contains("8 plan nodes for 10 tree nodes"), "{s}");
        assert!(s.contains("×2"), "{s}");
        assert!(s.contains("scan"), "{s}");
        // The lowered idiom reports its division node and the dividend as
        // its largest intermediate.
        let db = division_db();
        let (_, report) = plan(&division::division_double_difference("R", "S"), &db)
            .execute_reported(&db)
            .unwrap();
        let s = report.render();
        assert!(s.contains("3 plan nodes for 10 tree nodes"), "{s}");
        assert!(s.contains("max intermediate = 5"), "{s}");
        assert!(s.contains("divide[⊇]"), "{s}");
    }
}
