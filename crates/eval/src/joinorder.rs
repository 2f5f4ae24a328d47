//! Cost-based join-order search: dynamic-programming enumeration of
//! join-chain association orders, a greedy fallback, and the trigger
//! for the worst-case-optimal multiway join.
//!
//! The planner extracts every maximal chain of nested joins as a
//! [`JoinGraph`] (leaves + cross-leaf predicate edges), asks this
//! module for the cheapest [`OrderTree`] under the `C_out` metric —
//! the sum of estimated intermediate cardinalities, each estimate the
//! [`Estimator`]'s join rule ([`join_est`]) whose guaranteed bound is
//! capped by the operand product (the binary AGM bound) — and rebuilds
//! the expression in that order
//! ([`sj_algebra::JoinGraph::join_expr_with`]); a final projection
//! restores the as-written column order, so results are byte-identical
//! to the written chain's.
//!
//! Enumeration is the textbook subset DP over connected (and, pricing
//! cross products honestly, disconnected) leaf sets: **bushy** trees
//! for up to [`DP_MAX_RELATIONS`] relations (`O(3ⁿ)` split pairs —
//! trivial at n ≤ 8), greedy pair-merging beyond that — a choice made
//! from the chain's length, not by a caller. Ties and splits are resolved
//! deterministically (canonical split orientation, first-found-wins
//! submask order), so the same statistics always produce the same
//! plan — a requirement for the server's plan cache.
//!
//! **When no pairwise order is good enough**: for chains whose join
//! graph is one simple equality cycle of binary relations (triangles,
//! 4-cycles, …) where even the *cheapest adjacent pairwise join*
//! exceeds the AGM output bound `∏|Rᵢ|^{1/2}`, every pairwise plan
//! must materialize an intermediate larger than the final output, and
//! [`multiway_plan`] tells the planner to collapse the whole chain
//! into one [`crate::kernel::multiway_join`] operator instead (the
//! worst-case-optimal generic join). The reorder pass and the lowering
//! pass both consult the same function, so they never disagree about
//! which chains collapse.

use crate::kernel::{MultiwayLeaf, MultiwaySpec};
use sj_algebra::{Expr, JoinGraph, OrderTree};
use sj_stats::{cycle_agm_bound, eq_join_rows_skewed, join_est, CardEst, Estimator, StatsSource};
use sj_storage::Schema;

/// Largest join-chain size enumerated exhaustively (bushy subset DP,
/// `O(3ⁿ)`); longer chains fall back to the greedy pairing. Eight
/// relations cost 6561 split evaluations — microseconds — while nine
/// would start to show up in planning time.
pub const DP_MAX_RELATIONS: usize = 8;

/// Reassociate every join chain of `expr` into its cheapest order, using
/// leaf cardinality estimates from `src`. Returns `None` when nothing
/// changed: statistics are missing for some leaf, every chosen order
/// already matches the written one, or a chain is ear-marked for the
/// multiway collapse (which the lowering pass performs on the unchanged
/// shape).
pub fn reorder(expr: &Expr, schema: &Schema, src: &dyn StatsSource) -> Option<Expr> {
    let estimator = Estimator::new(src);
    let rewritten = reorder_expr(expr, schema, &estimator);
    (rewritten != *expr).then_some(rewritten)
}

/// [`reorder`]'s recursion.
fn reorder_expr(e: &Expr, schema: &Schema, est: &Estimator<'_>) -> Expr {
    if matches!(e, Expr::Join(..)) {
        if let Some(g) = JoinGraph::extract(e, schema) {
            let leaves: Vec<Expr> = g
                .leaves
                .iter()
                .map(|l| reorder_expr(l, schema, est))
                .collect();
            let leaf_ests: Option<Vec<CardEst>> =
                g.leaves.iter().map(|l| est.estimate(l)).collect();
            let tree = match leaf_ests {
                // Leaves without statistics keep the written order.
                None => g.as_written.clone(),
                Some(ests) => {
                    if multiway_plan(&g, &ests).is_some() {
                        // The lowering pass collapses this chain into
                        // the multiway operator — leave its shape alone
                        // so it still looks like the extracted cycle.
                        g.as_written.clone()
                    } else {
                        choose_order(&g, &ests)
                    }
                }
            };
            return g.join_expr_with(&tree, &leaves);
        }
    }
    e.map_children_infallible(|c| reorder_expr(c, schema, est))
}

/// The cheapest association order for `g` under the `C_out` metric,
/// never worse than the as-written order (when the search's best ties
/// the written cost, the written shape wins — no churn for nothing).
pub fn choose_order(g: &JoinGraph<'_>, leaf_ests: &[CardEst]) -> OrderTree {
    let chosen = if g.len() <= DP_MAX_RELATIONS {
        dp_order(g, leaf_ests)
    } else {
        greedy_order(g, leaf_ests)
    };
    let written = order_cost(g, &g.as_written, leaf_ests);
    let best = order_cost(g, &chosen, leaf_ests);
    if best < written {
        chosen
    } else {
        g.as_written.clone()
    }
}

/// The `C_out` cost of an association order: the sum over join nodes
/// of the estimated output cardinality ([`join_est`] on the condition
/// spanning the two subtrees — cross products price at the operand
/// product, so they lose to connected splits on their own merits).
pub fn order_cost(g: &JoinGraph<'_>, tree: &OrderTree, leaf_ests: &[CardEst]) -> f64 {
    fold_est(g, tree, leaf_ests).1
}

/// Cardinality estimate of a subtree's output plus its accumulated
/// `C_out` cost.
fn fold_est(g: &JoinGraph<'_>, tree: &OrderTree, leaf_ests: &[CardEst]) -> (CardEst, f64) {
    match tree {
        OrderTree::Leaf(i) => (leaf_ests[*i].clone(), 0.0),
        OrderTree::Join(l, r) => {
            let (le, lc) = fold_est(g, l, leaf_ests);
            let (re, rc) = fold_est(g, r, leaf_ests);
            let theta = g.span_condition(&layout_of(g, l), &layout_of(g, r));
            let est = join_est(&theta, &le, &re);
            let cost = lc + rc + est.rows;
            (est, cost)
        }
    }
}

/// Column layout of a subtree's output: `(leaf, 1-based col)` in
/// subtree concatenation order.
fn layout_of(g: &JoinGraph<'_>, tree: &OrderTree) -> Vec<(usize, usize)> {
    tree.leaf_sequence()
        .into_iter()
        .flat_map(|leaf| (1..=g.arities[leaf]).map(move |c| (leaf, c)))
        .collect()
}

/// One DP table entry: the best plan found for a leaf subset.
struct Partial {
    cost: f64,
    est: CardEst,
    tree: OrderTree,
}

/// Exhaustive bushy enumeration over leaf subsets (`n ≤
/// [`DP_MAX_RELATIONS`]`): for every subset, try every split into two
/// nonempty halves (canonical orientation — the half containing the
/// subset's lowest leaf goes left, halving the work and making the
/// result deterministic) and keep the cheapest.
fn dp_order(g: &JoinGraph<'_>, leaf_ests: &[CardEst]) -> OrderTree {
    let n = g.len();
    let full = (1usize << n) - 1;
    let mut best: Vec<Option<Partial>> = (0..=full).map(|_| None).collect();
    for i in 0..n {
        best[1 << i] = Some(Partial {
            cost: 0.0,
            est: leaf_ests[i].clone(),
            tree: OrderTree::Leaf(i),
        });
    }
    // Numeric order visits every proper submask before its superset.
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let low = mask & mask.wrapping_neg(); // lowest set bit
        let mut sub = (mask - 1) & mask;
        let mut found: Option<Partial> = None;
        while sub > 0 {
            // Canonical orientation: the left half owns the lowest leaf.
            if sub & low != 0 {
                let (l, r) = (
                    best[sub].as_ref().expect("submask filled"),
                    best[mask ^ sub].as_ref().expect("submask filled"),
                );
                let theta = g.span_condition(&layout_of(g, &l.tree), &layout_of(g, &r.tree));
                let est = join_est(&theta, &l.est, &r.est);
                let cost = l.cost + r.cost + est.rows;
                if found.as_ref().is_none_or(|b| cost < b.cost) {
                    found = Some(Partial {
                        cost,
                        est,
                        tree: OrderTree::join(l.tree.clone(), r.tree.clone()),
                    });
                }
            }
            sub = (sub - 1) & mask;
        }
        best[mask] = found;
    }
    best[full].take().expect("full mask planned").tree
}

/// Greedy pairing for chains past the DP cutoff: repeatedly join the
/// pair of partial trees with the smallest estimated output (ties →
/// lowest index pair).
/// `O(n³)` estimate evaluations; linear in practice on chain shapes.
fn greedy_order(g: &JoinGraph<'_>, leaf_ests: &[CardEst]) -> OrderTree {
    let mut forest: Vec<Partial> = (0..g.len())
        .map(|i| Partial {
            cost: 0.0,
            est: leaf_ests[i].clone(),
            tree: OrderTree::Leaf(i),
        })
        .collect();
    while forest.len() > 1 {
        let mut pick: Option<(usize, usize, CardEst, f64)> = None;
        for i in 0..forest.len() {
            for j in (i + 1)..forest.len() {
                let theta = g.span_condition(
                    &layout_of(g, &forest[i].tree),
                    &layout_of(g, &forest[j].tree),
                );
                let est = join_est(&theta, &forest[i].est, &forest[j].est);
                if pick.as_ref().is_none_or(|&(_, _, _, rows)| est.rows < rows) {
                    let rows = est.rows;
                    pick = Some((i, j, est, rows));
                }
            }
        }
        let (i, j, est, _) = pick.expect("forest has at least two trees");
        let right = forest.remove(j);
        let left = forest.remove(i);
        let cost = left.cost + right.cost + est.rows;
        forest.insert(
            i,
            Partial {
                cost,
                est,
                tree: OrderTree::join(left.tree, right.tree),
            },
        );
    }
    forest.pop().expect("one tree remains").tree
}

/// Decide whether a chain collapses into the worst-case-optimal
/// multiway join, and build its kernel spec if so. Fires when the join
/// graph is one simple equality cycle of binary relations **and** the
/// cheapest cycle-adjacent pairwise join is estimated above the AGM
/// output bound `∏|Rᵢ|^{1/2}` — the first intermediate of *any*
/// pairwise plan is either one of those adjacent joins or a (strictly
/// larger) cross product, so every pairwise order is estimated to
/// materialize more than the output can hold.
///
/// Pairwise intermediates are priced with the **skew-aware** estimate
/// ([`eq_join_rows_skewed`]): under the uniform distinct-count formula
/// consistent statistics can *never* put an adjacent join above the
/// cycle's AGM bound (each relation has `rows ≤ d₁·d₂`, so the
/// pairwise estimates telescope below `∏|Rᵢ|^{1/2}`) — hub skew is
/// precisely what pushes real intermediates past the bound, and
/// `max_freq` is the statistic that sees it. Both the reorder pass and
/// the lowering pass call this, keeping their decisions aligned.
pub fn multiway_plan(g: &JoinGraph<'_>, leaf_ests: &[CardEst]) -> Option<MultiwaySpec> {
    let cycle = g.hamiltonian_cycle()?;
    let agm = cycle_agm_bound(leaf_ests.iter().map(|e| e.rows));
    let k = cycle.len();
    let cheapest_pairwise = (0..k)
        .map(|p| {
            let (a, b) = (cycle[p].leaf, cycle[(p + 1) % k].leaf);
            let theta = g.span_condition(&leaf_layout(g, a), &leaf_layout(g, b));
            // Adjacent cycle leaves share exactly one variable; extra
            // atoms (self-join corner cases) only filter further.
            theta
                .atoms()
                .iter()
                .map(|at| eq_join_rows_skewed(&leaf_ests[a], at.left, &leaf_ests[b], at.right))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(f64::INFINITY, f64::min);
    (cheapest_pairwise > agm).then(|| MultiwaySpec {
        cycle: cycle
            .iter()
            .map(|p| MultiwayLeaf {
                child: p.leaf,
                var_col: p.var_col - 1,
                next_col: p.next_col - 1,
            })
            .collect(),
    })
}

fn leaf_layout(g: &JoinGraph<'_>, leaf: usize) -> Vec<(usize, usize)> {
    (1..=g.arities[leaf]).map(|c| (leaf, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_algebra::Condition;
    use sj_stats::{CatalogSource, StatsCatalog};
    use sj_storage::{Database, Relation};

    /// R: 1000 rows, S: 10 rows, T: 3 rows; chain R ⋈ S ⋈ T written
    /// worst-first.
    fn chain_db() -> Database {
        let mut db = Database::new();
        let rows: Vec<Vec<i64>> = (0..1000).map(|i| vec![i % 50, i]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        db.set("R", Relation::from_int_rows(&refs));
        let srows: Vec<Vec<i64>> = (0..10).map(|i| vec![i, i % 3]).collect();
        let srefs: Vec<&[i64]> = srows.iter().map(|r| r.as_slice()).collect();
        db.set("S", Relation::from_int_rows(&srefs));
        db.set("T", Relation::from_int_rows(&[&[0, 0], &[1, 1], &[2, 2]]));
        db
    }

    fn chain_expr() -> Expr {
        // (R ⋈₁₌₂ S) ⋈₃₌₁ T — the written order joins the two big
        // relations first on a low-selectivity key (R.1 has 50
        // distinct values over 1000 rows), while S ⋈ T is tiny.
        Expr::rel("R")
            .join(Condition::eq(1, 2), Expr::rel("S"))
            .join(Condition::eq(3, 1), Expr::rel("T"))
    }

    #[test]
    fn dp_reorders_a_badly_written_chain() {
        let db = chain_db();
        let cat = StatsCatalog::new();
        let src = CatalogSource::new(&cat, &db);
        let e = chain_expr();
        let reordered =
            reorder(&e, &db.schema(), &src).expect("worst-first chain must be reordered");
        // The cheapest association is R ⋈ (S ⋈ T): the leaf sequence is
        // unchanged, so the rebuild needs no restoring projection and
        // stays a join.
        assert!(matches!(reordered, Expr::Join(..)), "{reordered}");
        // It costs strictly less under the same estimates.
        let g = JoinGraph::extract(&e, &db.schema()).unwrap();
        let est = Estimator::new(&src);
        let ests: Vec<CardEst> = g.leaves.iter().map(|l| est.estimate(l).unwrap()).collect();
        let chosen = choose_order(&g, &ests);
        assert!(order_cost(&g, &chosen, &ests) < order_cost(&g, &g.as_written, &ests));
        // S and T meet first in the cheapest tree.
        assert_ne!(chosen, g.as_written);
    }

    #[test]
    fn well_written_chains_are_left_alone() {
        let db = chain_db();
        let cat = StatsCatalog::new();
        let src = CatalogSource::new(&cat, &db);
        // T ⋈ S ⋈ R — already cheapest-first; the canonical DP tree
        // ties or matches it, so nothing changes.
        let e = Expr::rel("T")
            .join(Condition::eq(2, 2), Expr::rel("S"))
            .join(Condition::eq(3, 2), Expr::rel("R"));
        let g = JoinGraph::extract(&e, &db.schema()).unwrap();
        let est = Estimator::new(&src);
        let ests: Vec<CardEst> = g.leaves.iter().map(|l| est.estimate(l).unwrap()).collect();
        let chosen = choose_order(&g, &ests);
        assert!(order_cost(&g, &chosen, &ests) <= order_cost(&g, &g.as_written, &ests));
    }

    #[test]
    fn greedy_and_dp_agree_on_small_chains_cost_order() {
        let db = chain_db();
        let cat = StatsCatalog::new();
        let src = CatalogSource::new(&cat, &db);
        let e = chain_expr();
        let g = JoinGraph::extract(&e, &db.schema()).unwrap();
        let est = Estimator::new(&src);
        let ests: Vec<CardEst> = g.leaves.iter().map(|l| est.estimate(l).unwrap()).collect();
        let dp = dp_order(&g, &ests);
        let greedy = greedy_order(&g, &ests);
        // DP is exhaustive: its cost lower-bounds greedy's.
        assert!(order_cost(&g, &dp, &ests) <= order_cost(&g, &greedy, &ests));
    }

    /// The as-written triangle over an edge relation E(src, dst).
    fn triangle_expr() -> Expr {
        Expr::rel("E")
            .join(Condition::eq(2, 1), Expr::rel("E"))
            .join(Condition::eq_pairs([(4, 1), (1, 2)]), Expr::rel("E"))
    }

    fn triangle_graph_ests<'a>(
        tri: &'a Expr,
        db: &Database,
        src: &dyn StatsSource,
    ) -> (JoinGraph<'a>, Vec<CardEst>) {
        let g = JoinGraph::extract(tri, &db.schema()).unwrap();
        let est = Estimator::new(src);
        let ests: Vec<CardEst> = g.leaves.iter().map(|l| est.estimate(l).unwrap()).collect();
        (g, ests)
    }

    #[test]
    fn multiway_fires_on_skewed_triangles_not_on_chains_or_uniform_cycles() {
        let tri = triangle_expr();

        // Hub graph: vertex 0 connects to everything in both
        // directions — the pairwise join through the hub materializes
        // ~hub² rows, past the AGM bound at any scale.
        let mut db = Database::new();
        let mut rows: Vec<Vec<i64>> = (0..200).map(|i| vec![0, i]).collect();
        rows.extend((1..200).map(|i| vec![i, 0]));
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        db.set("E", Relation::from_int_rows(&refs));
        let cat = StatsCatalog::new();
        let src = CatalogSource::new(&cat, &db);
        let (g, ests) = triangle_graph_ests(&tri, &db, &src);
        assert!(
            multiway_plan(&g, &ests).is_some(),
            "hub triangle collapses to the multiway join"
        );

        // A complete bipartite graph is the AGM-tight case: the
        // pairwise estimate exactly meets the bound, never strictly
        // exceeds it — pairwise plans are kept.
        let mut db2 = Database::new();
        let rows2: Vec<Vec<i64>> = (0..30)
            .flat_map(|a| (0..30).map(move |b| vec![a, b]))
            .collect();
        let refs2: Vec<&[i64]> = rows2.iter().map(|r| r.as_slice()).collect();
        db2.set("E", Relation::from_int_rows(&refs2));
        let cat = StatsCatalog::new();
        let src2 = CatalogSource::new(&cat, &db2);
        let (g2, ests2) = triangle_graph_ests(&tri, &db2, &src2);
        assert!(multiway_plan(&g2, &ests2).is_none());

        // A chain never collapses regardless of sizes.
        let db3 = chain_db();
        let cat = StatsCatalog::new();
        let src3 = CatalogSource::new(&cat, &db3);
        let chain = chain_expr();
        let g3 = JoinGraph::extract(&chain, &db3.schema()).unwrap();
        let est3 = Estimator::new(&src3);
        let ests3: Vec<CardEst> = g3
            .leaves
            .iter()
            .map(|l| est3.estimate(l).unwrap())
            .collect();
        assert!(multiway_plan(&g3, &ests3).is_none());

        // A 1:1 matching triangle (uniform, sparse): pairwise joins
        // stay far below the AGM bound — no collapse.
        let mut db4 = Database::new();
        let mrows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i]).collect();
        let mrefs: Vec<&[i64]> = mrows.iter().map(|r| r.as_slice()).collect();
        db4.set("E", Relation::from_int_rows(&mrefs));
        let cat = StatsCatalog::new();
        let src4 = CatalogSource::new(&cat, &db4);
        let (g4, ests4) = triangle_graph_ests(&tri, &db4, &src4);
        assert!(multiway_plan(&g4, &ests4).is_none());
    }

    #[test]
    fn multiway_spec_maps_cycle_positions_to_zero_based_columns() {
        let mut db = Database::new();
        // Hub: vertex 0 connects to everything — pairwise joins
        // explode through the hub.
        let mut rows: Vec<Vec<i64>> = (0..200).map(|i| vec![0, i]).collect();
        rows.extend((0..200).map(|i| vec![i, 0]));
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        db.set("E", Relation::from_int_rows(&refs));
        let cat = StatsCatalog::new();
        let src = CatalogSource::new(&cat, &db);
        let tri = triangle_expr();
        let (g, ests) = triangle_graph_ests(&tri, &db, &src);
        let spec = multiway_plan(&g, &ests).expect("hub triangle beats AGM");
        assert_eq!(spec.cycle.len(), 3);
        let mut children: Vec<usize> = spec.cycle.iter().map(|p| p.child).collect();
        children.sort_unstable();
        assert_eq!(children, vec![0, 1, 2]);
        for p in &spec.cycle {
            assert!(p.var_col < 2 && p.next_col < 2 && p.var_col != p.next_col);
        }
    }
}
