//! Inputs, all derived from `--seed` inside the benchmark process: the
//! program under test only ever sees generated databases, expressions
//! and operation streams.
//!
//! Streams are *stratified*: a block of `n` reads holds each pool query
//! exactly `round(p_i · n)` times (zipf weights) in a seed-shuffled
//! order, so every round does the same work whatever the seed and the
//! run-to-run spread is the program's, not the sampler's.

use setjoins::algebra::{division, Condition, Expr};
use setjoins::storage::{Database, Relation, Tuple};
use setjoins::workload::{
    CyclicWorkload, DivisionWorkload, EdgeDist, ElementDist, ServingWorkload, SetJoinWorkload,
    SetSizeDist, SplitMix64,
};

/// Input scale. `Quick` is for the smoke test only: the same code paths
/// on inputs small enough for an unoptimised build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn pick(self, full: usize, quick: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Derive an independent stream seed from the run seed and a purpose tag.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// FNV-1a over a byte stream.
fn fingerprint(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

// ---------------------------------------------------------------------------
// Serving database and query pool (serve-hot / serve-cold / serve-churn)
// ---------------------------------------------------------------------------

pub const ZIPF_THETA: f64 = 1.1;

/// The serving parameters behind the three `serve-*` workloads.
pub fn serving_workload(seed: u64, scale: Scale) -> ServingWorkload {
    ServingWorkload {
        groups: scale.pick(2048, 96),
        divisor_size: scale.pick(32, 6),
        hot_queries: 16,
        theta: ZIPF_THETA,
        seed: sub_seed(seed, 1),
        ..ServingWorkload::default()
    }
}

fn triangle(seed: u64, scale: Scale) -> CyclicWorkload {
    CyclicWorkload {
        cycle_len: 3,
        edges_per_table: scale.pick(1024, 96),
        vertices: scale.pick(256, 32),
        edges: EdgeDist::Zipf(1.2),
        seed: sub_seed(seed, 2),
    }
}

/// The badly written chain `(C1 ⋈ C2) ⋈ C3` of the join-order experiment:
/// as written the huge join runs first, the cheap order joins the tiny
/// tail first.
fn chain_relations(n: usize) -> [(&'static str, Relation); 3] {
    let rows = |it: &mut dyn Iterator<Item = [i64; 2]>| {
        Relation::from_tuples(2, it.map(|r| Tuple::from_ints(&r))).expect("binary rows")
    };
    let m = (n / 100).max(3) as i64;
    [
        ("C1", rows(&mut (0..n as i64).map(|i| [i % 50, i]))),
        ("C2", rows(&mut (0..m).map(|i| [i, i % 3]))),
        ("C3", rows(&mut (0..3i64).map(|i| [i, i]))),
    ]
}

fn chain_query() -> Expr {
    Expr::rel("C1")
        .join(Condition::eq(1, 2), Expr::rel("C2"))
        .join(Condition::eq(3, 1), Expr::rel("C3"))
}

/// Database and query pool of the `serve-*` workloads: the
/// [`ServingWorkload`] division database `{R/2, S/1}` and its 16-query
/// pool, extended with one zipf triangle (`E0..E2`, a multiway-join
/// candidate) and one badly written chain (`C1..C3`, a join-order
/// candidate) at zipf ranks 5 and 9, and the canary at the last rank.
pub struct ServingInputs {
    pub db: Database,
    pub pool: Vec<Expr>,
    /// Pool index of the canary `σ₂<₁(R)`. Generated tuples all have
    /// `A < B` and churn inserts all have `B < A`, so its answer is exactly
    /// the tuples inserted so far: a stale cached result shows as a wrong
    /// row count on the very next read.
    pub canary: usize,
    pub workload: ServingWorkload,
}

pub fn serving_inputs(seed: u64, scale: Scale) -> ServingInputs {
    let workload = serving_workload(seed, scale);
    let mut db = workload.database();
    let tri = triangle(seed, scale);
    for (name, rel) in tri.table_names().into_iter().zip(tri.generate()) {
        db.set(name, rel);
    }
    for (name, rel) in chain_relations(scale.pick(4000, 300)) {
        db.set(name, rel);
    }
    let mut pool = workload.query_pool();
    pool.insert(5, tri.query());
    pool.insert(9, chain_query());
    pool.push(Expr::rel("R").select_lt(2, 1));
    ServingInputs {
        db,
        canary: pool.len() - 1,
        pool,
        workload,
    }
}

/// One operation of a serving stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Query the pool entry with this index.
    Query(u16),
    /// Insert this tuple into `R`.
    Insert(Tuple),
    /// `WriteOp::Analyze`.
    Analyze,
}

/// How many of `n` reads go to each of `pool` queries under zipf(θ):
/// largest-remainder rounding, so the counts sum to `n` exactly.
pub fn zipf_counts(pool: usize, n: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=pool)
        .map(|i| 1.0 / (i as f64).powf(ZIPF_THETA))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let missing = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

/// Seed of the one draw that deals a round's reads to its blocks.
const BLOCK_DEAL: u64 = 0x5E7_101;

/// A stream of `n` ops holding exactly `inserts` inserts into `R` and
/// `analyzes` ANALYZEs, the rest stratified zipf reads. An insert adds a
/// fresh negative element (unique per seed, client, round and position) to
/// one of `safe_groups`: like the noise tuples of
/// [`ServingWorkload::trace`] it invalidates every cached result over `R`
/// but changes no pool answer except the canary's, so every read can be
/// checked against one table built at set-up.
///
/// A stream with inserts is a seed-shuffled sequence of *blocks*, one per
/// insert: the insert (in `analyzes` of the blocks an ANALYZE before it),
/// then that block's reads in a seed-shuffled order. Which reads a block
/// holds is one fixed draw (`BLOCK_DEAL`), the same whatever the seed. What
/// a read costs depends on whether it is the first of its query since the
/// last insert (a re-execution) or a later one (a result-cache hit), so the
/// queries a block holds fix its work: every round of every seed
/// re-executes the same queries the same number of times, and only their
/// order differs. Left to the seed, the re-executions per round would vary
/// by a tenth.
#[allow(clippy::too_many_arguments)]
pub fn mixed_stream(
    seed: u64,
    client: usize,
    round: usize,
    pool: usize,
    n: usize,
    inserts: usize,
    analyzes: usize,
    safe_groups: &[i64],
) -> Vec<Op> {
    assert!(analyzes <= inserts, "an ANALYZE opens an insert's block");
    let tag = 0x100 + ((client as u64) << 32) + round as u64;
    let mut rng = SplitMix64::new(sub_seed(seed, tag));
    let reads = n - inserts - analyzes;
    let mut sorted_reads: Vec<Op> = Vec::with_capacity(reads);
    for (q, &count) in zipf_counts(pool, reads).iter().enumerate() {
        sorted_reads.extend(std::iter::repeat_n(Op::Query(q as u16), count));
    }
    if inserts == 0 {
        rng.shuffle(&mut sorted_reads);
        return sorted_reads;
    }
    SplitMix64::new(BLOCK_DEAL).shuffle(&mut sorted_reads);
    let dealt = sorted_reads;
    let mut blocks: Vec<Vec<Op>> = (0..inserts)
        .map(|k| {
            let g = safe_groups[rng.below(safe_groups.len() as u64) as usize];
            let b = -(1 + ((client as i64) << 40) + ((round as i64) << 20) + k as i64);
            let mut block: Vec<Op> = dealt.iter().skip(k).step_by(inserts).cloned().collect();
            rng.shuffle(&mut block);
            block.insert(0, Op::Insert(Tuple::from_ints(&[g, b])));
            if k < analyzes {
                block.insert(0, Op::Analyze);
            }
            block
        })
        .collect();
    rng.shuffle(&mut blocks);
    blocks.concat()
}

/// Fingerprint of a stream (op kinds, query indices, inserted values), for
/// the determinism test and the result stamp.
pub fn stream_fingerprint(ops: &[Op]) -> u64 {
    fingerprint(ops.iter().flat_map(|op| {
        let (kind, a, b) = match op {
            Op::Query(q) => (1u8, *q as i64, 0),
            Op::Insert(t) => (2, t[0].as_int().unwrap_or(0), t[1].as_int().unwrap_or(0)),
            Op::Analyze => (3, 0, 0),
        };
        std::iter::once(kind)
            .chain(a.to_le_bytes())
            .chain(b.to_le_bytes())
    }))
}

// ---------------------------------------------------------------------------
// batch-paper operands
// ---------------------------------------------------------------------------

/// The eight query classes of one `batch-paper` suite pass, in run order.
pub const CLASSES: [&str; 8] = [
    "div-direct",
    "div-ra-plan",
    "div-counting-plan",
    "setjoin-contain-uniform",
    "setjoin-contain-zipf",
    "setjoin-equal",
    "join-chain-dp",
    "join-triangle-zipf",
];

/// Operands of the `batch-paper` suite, all in one database:
/// `DR/DS` (direct division), `R/S` (the RA division plans), `UA/UB`,
/// `ZA/ZB`, `QA/QB` (set joins: uniform, zipf, equality), `C1..C3`
/// (chain) and `E0..E2` (triangle).
pub struct BatchInputs {
    pub db: Database,
    /// Expected quotient of `DR ÷ DS`, straight from the generator.
    pub expected_quotient: Relation,
    pub triangle_query: Expr,
}

pub fn batch_inputs(seed: u64, scale: Scale) -> BatchInputs {
    let mut db = Database::new();
    let direct = DivisionWorkload {
        groups: scale.pick(8192, 128),
        divisor_size: scale.pick(128, 8),
        containment_fraction: 0.4,
        extra_per_group: 3,
        noise_domain: scale.pick(65_536, 512),
        seed: sub_seed(seed, 10),
    };
    let (dr, ds, expected_quotient) = direct.generate();
    db.set("DR", dr);
    db.set("DS", ds);
    let ra = DivisionWorkload {
        groups: scale.pick(1024, 48),
        divisor_size: scale.pick(32, 6),
        containment_fraction: 0.4,
        extra_per_group: 3,
        noise_domain: scale.pick(4096, 192),
        seed: sub_seed(seed, 11),
    };
    let (r, s, _) = ra.generate();
    db.set("R", r);
    db.set("S", s);
    let set_join = |tag, groups, set_size, domain, elements| {
        SetJoinWorkload {
            r_groups: groups,
            s_groups: groups,
            set_size,
            domain,
            elements,
            seed: sub_seed(seed, tag),
        }
        .generate()
    };
    let g = scale.pick(4096, 48);
    let domain = scale.pick(256, 12);
    let pairs = [
        (
            "UA",
            "UB",
            set_join(
                12,
                g,
                SetSizeDist::Uniform(2, 8),
                domain,
                ElementDist::Uniform,
            ),
        ),
        (
            "ZA",
            "ZB",
            set_join(
                13,
                3 * g / 4,
                SetSizeDist::Uniform(2, 8),
                domain,
                ElementDist::Zipf(1.0),
            ),
        ),
        // Tiny sets over a tiny domain, so equal sets do occur.
        (
            "QA",
            "QB",
            set_join(14, g, SetSizeDist::Uniform(1, 3), 24, ElementDist::Uniform),
        ),
    ];
    for (left, right, (a, b)) in pairs {
        db.set(left, a);
        db.set(right, b);
    }
    for (name, rel) in chain_relations(scale.pick(50_000, 600)) {
        db.set(name, rel);
    }
    let tri = CyclicWorkload {
        cycle_len: 3,
        edges_per_table: scale.pick(6144, 128),
        vertices: scale.pick(1536, 48),
        edges: EdgeDist::Zipf(1.2),
        seed: sub_seed(seed, 15),
    };
    for (name, rel) in tri.table_names().into_iter().zip(tri.generate()) {
        db.set(name, rel);
    }
    BatchInputs {
        db,
        expected_quotient,
        triangle_query: tri.query(),
    }
}

/// The RA expression of a class that is one (`None` for the classes that
/// go through `Engine::divide` / `Engine::set_join`).
pub fn class_expr(class: &str, inputs: &BatchInputs) -> Option<Expr> {
    match class {
        "div-ra-plan" => Some(division::division_double_difference("R", "S")),
        "div-counting-plan" => Some(division::division_counting("R", "S")),
        "join-chain-dp" => Some(chain_query()),
        "join-triangle-zipf" => Some(inputs.triangle_query.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn_stream(seed: u64, round: usize) -> Vec<Op> {
        mixed_stream(seed, 0, round, 19, 400, 20, 4, &[3, 5, 8])
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let print = |seed, round| stream_fingerprint(&churn_stream(seed, round));
        assert_eq!(print(7, 1), print(7, 1));
        assert_ne!(print(7, 1), print(8, 1));
        assert_ne!(print(7, 1), print(7, 2), "rounds draw their own streams");
        let a = mixed_stream(7, 0, 1, 19, 400, 0, 0, &[]);
        let b = mixed_stream(7, 1, 1, 19, 400, 0, 0, &[]);
        assert_ne!(
            stream_fingerprint(&a),
            stream_fingerprint(&b),
            "so do clients"
        );
    }

    #[test]
    fn streams_hold_exact_shares_whatever_the_seed() {
        for seed in [1, 2, 3] {
            let ops = churn_stream(seed, 1);
            assert_eq!(ops.len(), 400);
            let count = |pred: &dyn Fn(&Op) -> bool| ops.iter().filter(|op| pred(op)).count();
            assert_eq!(count(&|op| matches!(op, Op::Insert(_))), 20);
            assert_eq!(count(&|op| matches!(op, Op::Analyze)), 4);
            for (q, &expected) in zipf_counts(19, 376).iter().enumerate() {
                assert_eq!(
                    count(&|op| *op == Op::Query(q as u16)),
                    expected,
                    "query {q}"
                );
            }
        }
        let counts = zipf_counts(19, 376);
        assert_eq!(counts.iter().sum::<usize>(), 376);
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "zipf ranks are ordered"
        );
    }

    /// The queries read between one insert and the next fix what the block
    /// costs; the blocks of a round are the same whatever the seed.
    #[test]
    fn every_round_holds_the_same_blocks_in_another_order() {
        let blocks = |seed, round| {
            let mut blocks: Vec<Vec<u16>> = Vec::new();
            let mut analyzed = 0;
            for op in churn_stream(seed, round) {
                match op {
                    Op::Analyze => analyzed += 1,
                    Op::Insert(_) => blocks.push(Vec::new()),
                    Op::Query(q) => blocks
                        .last_mut()
                        .expect("an insert opens the stream")
                        .push(q),
                }
            }
            blocks.iter_mut().for_each(|b| b.sort_unstable());
            blocks.sort();
            (blocks, analyzed)
        };
        let (first, analyzed) = blocks(1, 1);
        assert_eq!((first.len(), analyzed), (20, 4));
        assert!(first.iter().all(|b| b.len() == 18 || b.len() == 19));
        for (seed, round) in [(1, 2), (2, 1), (3, 7)] {
            assert_eq!(blocks(seed, round), (first.clone(), 4));
        }
    }

    #[test]
    fn inserts_are_fresh_negative_elements_in_safe_groups() {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..3 {
            for op in churn_stream(9, round) {
                if let Op::Insert(t) = op {
                    let (g, b) = (t[0].as_int().unwrap(), t[1].as_int().unwrap());
                    assert!([3, 5, 8].contains(&g));
                    assert!(b < 0 && seen.insert(b), "element {b} repeats");
                }
            }
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b, c) = (
            serving_inputs(5, Scale::Quick),
            serving_inputs(5, Scale::Quick),
            serving_inputs(6, Scale::Quick),
        );
        assert!(a.db == b.db && a.pool == b.pool);
        assert!(a.db != c.db);
        assert_eq!(a.pool.len(), 19);
        assert!(batch_inputs(5, Scale::Quick).db == batch_inputs(5, Scale::Quick).db);
    }
}
