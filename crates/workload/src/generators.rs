//! Deterministic synthetic workloads for the experiments.
//!
//! All generators take an explicit seed and are bit-reproducible. Value
//! layout convention: A-values (group keys) live in `1..=groups`, B-values
//! (set elements) in `1_000_001..` — disjoint ranges so joins never match
//! accidentally across roles.

use crate::rng::{SplitMix64, Zipf};
use sj_algebra::{Condition, Expr};
use sj_storage::{Database, Relation, Tuple, Value};

/// Offset separating element values from group keys.
pub const ELEMENT_BASE: i64 = 1_000_000;

/// Parameters of a division workload `R(A,B) ÷ S(B)`.
#[derive(Clone, Debug)]
pub struct DivisionWorkload {
    /// Number of A-groups in the dividend.
    pub groups: usize,
    /// Number of values in the divisor.
    pub divisor_size: usize,
    /// Fraction of groups that fully contain the divisor.
    pub containment_fraction: f64,
    /// Extra non-divisor B-values per group (uniform 0..=this).
    pub extra_per_group: usize,
    /// Size of the non-divisor element pool.
    pub noise_domain: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for DivisionWorkload {
    fn default() -> Self {
        DivisionWorkload {
            groups: 64,
            divisor_size: 8,
            containment_fraction: 0.5,
            extra_per_group: 4,
            noise_domain: 1024,
            seed: 0xD1_71_51_0E,
        }
    }
}

impl DivisionWorkload {
    /// Generate `(R, S, expected_containment_quotient)`.
    ///
    /// Non-containing groups get a proper subset of the divisor (possibly
    /// empty) so they are *near misses*, plus noise; containing groups get
    /// the whole divisor plus noise. The expected quotient is returned for
    /// validation.
    pub fn generate(&self) -> (Relation, Relation, Relation) {
        let mut span = sj_obs::span!(
            "workload.generate",
            kind = "division",
            groups = self.groups,
            seed = self.seed
        );
        let mut rng = SplitMix64::new(self.seed);
        let divisor: Vec<i64> = (0..self.divisor_size)
            .map(|i| ELEMENT_BASE + 1 + i as i64)
            .collect();
        let mut r_rows: Vec<Tuple> = Vec::new();
        let mut winners: Vec<Tuple> = Vec::new();
        for g in 1..=self.groups as i64 {
            let contains = rng.chance(self.containment_fraction);
            if contains {
                for &b in &divisor {
                    r_rows.push(Tuple::from_ints(&[g, b]));
                }
                winners.push(Tuple::from_ints(&[g]));
            } else if !divisor.is_empty() {
                // A proper subset: drop at least one divisor element.
                let keep = if divisor.len() == 1 {
                    0
                } else {
                    rng.below(divisor.len() as u64) as usize
                };
                for &ix in rng.sample_indices(divisor.len(), keep).iter() {
                    r_rows.push(Tuple::from_ints(&[g, divisor[ix]]));
                }
            }
            let extra = rng.below(self.extra_per_group as u64 + 1) as usize;
            for _ in 0..extra {
                let noise = ELEMENT_BASE
                    + 1
                    + self.divisor_size as i64
                    + rng.below(self.noise_domain.max(1) as u64) as i64;
                r_rows.push(Tuple::from_ints(&[g, noise]));
            }
        }
        let r = Relation::from_tuples(2, r_rows).expect("binary rows");
        let s = Relation::unary(divisor.iter().map(|&b| Value::int(b)));
        // Empty divisor ⇒ every group that actually appears qualifies.
        let expected = if self.divisor_size == 0 {
            Relation::from_tuples(1, r.iter().map(|t| Tuple::from([t[0].clone()]))).expect("unary")
        } else {
            Relation::from_tuples(1, winners).expect("unary")
        };
        span.attr("rows", r.len() + s.len());
        (r, s, expected)
    }

    /// The workload as a database over `{R/2, S/1}` (for RA-plan
    /// evaluation).
    pub fn database(&self) -> Database {
        let (r, s, _) = self.generate();
        let mut db = Database::new();
        db.set("R", r);
        db.set("S", s);
        db
    }
}

/// Element-set size distribution for set-join workloads.
#[derive(Clone, Copy, Debug)]
pub enum SetSizeDist {
    /// Every group has exactly this many elements.
    Fixed(usize),
    /// Uniform in the inclusive range.
    Uniform(usize, usize),
}

/// Element-value distribution.
#[derive(Clone, Copy, Debug)]
pub enum ElementDist {
    /// Uniform over the domain.
    Uniform,
    /// Zipf with the given skew (θ); hot elements shared by many sets —
    /// the adversarial regime for signature filters.
    Zipf(f64),
}

/// Parameters of a set-join workload `R(A,B) ⋈_{BθD} S(C,D)`.
#[derive(Clone, Debug)]
pub struct SetJoinWorkload {
    /// Number of groups on the left.
    pub r_groups: usize,
    /// Number of groups on the right.
    pub s_groups: usize,
    /// Set-size distribution for both sides.
    pub set_size: SetSizeDist,
    /// Element domain size.
    pub domain: usize,
    /// Element distribution.
    pub elements: ElementDist,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for SetJoinWorkload {
    fn default() -> Self {
        SetJoinWorkload {
            r_groups: 64,
            s_groups: 64,
            set_size: SetSizeDist::Uniform(2, 8),
            domain: 256,
            elements: ElementDist::Uniform,
            seed: 0x5E_7C_0D_E5,
        }
    }
}

impl SetJoinWorkload {
    fn one_side(&self, rng: &mut SplitMix64, groups: usize, key_base: i64) -> Relation {
        let zipf = match self.elements {
            ElementDist::Zipf(theta) => Some(Zipf::new(self.domain, theta)),
            ElementDist::Uniform => None,
        };
        let mut rows: Vec<Tuple> = Vec::new();
        for g in 0..groups as i64 {
            let size = match self.set_size {
                SetSizeDist::Fixed(k) => k,
                SetSizeDist::Uniform(lo, hi) => lo + rng.below((hi - lo) as u64 + 1) as usize,
            };
            let mut chosen = std::collections::BTreeSet::new();
            let mut attempts = 0;
            while chosen.len() < size.min(self.domain) && attempts < size * 20 {
                let e = match &zipf {
                    Some(z) => z.sample(rng),
                    None => rng.below(self.domain as u64) as usize,
                };
                chosen.insert(e);
                attempts += 1;
            }
            for e in chosen {
                rows.push(Tuple::from_ints(&[
                    key_base + g,
                    ELEMENT_BASE + 1 + e as i64,
                ]));
            }
        }
        Relation::from_tuples(2, rows).expect("binary rows")
    }

    /// Generate `(R, S)`.
    pub fn generate(&self) -> (Relation, Relation) {
        let mut span = sj_obs::span!(
            "workload.generate",
            kind = "set-join",
            groups = self.r_groups + self.s_groups,
            seed = self.seed
        );
        let mut rng = SplitMix64::new(self.seed);
        let r = self.one_side(&mut rng, self.r_groups, 1);
        // Right-side keys live in a disjoint range.
        let s = self.one_side(&mut rng, self.s_groups, 500_001);
        span.attr("rows", r.len() + s.len());
        (r, s)
    }
}

/// Edge-value distribution for cyclic-join workloads.
#[derive(Clone, Copy, Debug)]
pub enum EdgeDist {
    /// Endpoints uniform over the vertex domain.
    Uniform,
    /// Both endpoints Zipf(θ)-distributed: low-numbered vertices become
    /// hubs, so the cyclic join's pairwise intermediates blow up while the
    /// AGM output bound stays modest — the regime where the planner should
    /// switch to the multiway operator.
    Zipf(f64),
}

/// Parameters of a cyclic-join workload: `cycle_len` binary edge tables
/// `E0(v0,v1), E1(v1,v2), …, E{k-1}(v{k-1},v0)` joined in a cycle
/// (triangles for `cycle_len = 3`, 4-cycles for 4, …).
#[derive(Clone, Debug)]
pub struct CyclicWorkload {
    /// Number of relations in the cycle (≥ 3).
    pub cycle_len: usize,
    /// Edges drawn per table (duplicates collapse under set semantics).
    pub edges_per_table: usize,
    /// Vertex domain size.
    pub vertices: usize,
    /// Endpoint distribution.
    pub edges: EdgeDist,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for CyclicWorkload {
    fn default() -> Self {
        CyclicWorkload {
            cycle_len: 3,
            edges_per_table: 512,
            vertices: 256,
            edges: EdgeDist::Uniform,
            seed: 0xC7_C1_EC_A5,
        }
    }
}

impl CyclicWorkload {
    /// Table names `E0..E{k-1}`, in cycle order.
    pub fn table_names(&self) -> Vec<String> {
        (0..self.cycle_len).map(|i| format!("E{i}")).collect()
    }

    /// Generate the edge tables, in cycle order.
    pub fn generate(&self) -> Vec<Relation> {
        assert!(self.cycle_len >= 3, "a cycle needs at least 3 relations");
        let mut span = sj_obs::span!(
            "workload.generate",
            kind = "cyclic",
            groups = self.cycle_len,
            seed = self.seed
        );
        let mut rng = SplitMix64::new(self.seed);
        let zipf = match self.edges {
            EdgeDist::Zipf(theta) => Some(Zipf::new(self.vertices.max(1), theta)),
            EdgeDist::Uniform => None,
        };
        let endpoint = |rng: &mut SplitMix64| -> i64 {
            match &zipf {
                Some(z) => 1 + z.sample(rng) as i64,
                None => 1 + rng.below(self.vertices.max(1) as u64) as i64,
            }
        };
        let tables: Vec<Relation> = (0..self.cycle_len)
            .map(|_| {
                let rows = (0..self.edges_per_table)
                    .map(|_| Tuple::from_ints(&[endpoint(&mut rng), endpoint(&mut rng)]));
                Relation::from_tuples(2, rows).expect("binary rows")
            })
            .collect();
        span.attr("rows", tables.iter().map(Relation::len).sum::<usize>());
        tables
    }

    /// The workload as a database over `{E0/2, …, E{k-1}/2}`.
    pub fn database(&self) -> Database {
        let mut db = Database::new();
        for (name, rel) in self.table_names().into_iter().zip(self.generate()) {
            db.set(&name, rel);
        }
        db
    }

    /// The cycle query in **as-written** left-deep chain order
    /// `(((E0 ⋈ E1) ⋈ E2) ⋈ …)`, with the closing relation's second column
    /// equated back to the first — exactly the shape the join-order
    /// enumerator and the multiway trigger inspect.
    pub fn query(&self) -> Expr {
        let names = self.table_names();
        let mut expr = Expr::rel(&names[0]);
        for (i, name) in names.iter().enumerate().skip(1) {
            let closing = i == self.cycle_len - 1;
            let cond = if closing {
                // Closing edge: also tie its destination back to v0.
                Condition::eq_pairs([(2 * i, 1), (1, 2)])
            } else {
                // Left's rightmost column (v_i) meets the new edge's source.
                Condition::eq(2 * i, 1)
            };
            expr = expr.join(cond, Expr::rel(name));
        }
        expr
    }
}

/// A random database over `{R/2, S/2, T/1}` with values in a small
/// integer domain — the seed family for the dichotomy analyzer's witness
/// search and for randomized correctness tests.
pub fn random_database(seed: u64, tuples_per_relation: usize, domain: i64) -> Database {
    let mut rng = SplitMix64::new(seed);
    let mut db = Database::new();
    let binary = |rng: &mut SplitMix64| {
        Relation::from_tuples(
            2,
            (0..tuples_per_relation)
                .map(|_| Tuple::from_ints(&[rng.range_i64(1, domain), rng.range_i64(1, domain)])),
        )
        .expect("binary")
    };
    let r = binary(&mut rng);
    let s = binary(&mut rng);
    let t = Relation::from_tuples(
        1,
        (0..tuples_per_relation).map(|_| Tuple::from_ints(&[rng.range_i64(1, domain)])),
    )
    .expect("unary");
    db.set("R", r);
    db.set("S", s);
    db.set("T", t);
    db
}

/// A scaling series of division databases with fixed shape parameters and
/// growing group counts: the workhorse of the growth-exponent experiments.
pub fn division_series(
    group_counts: &[usize],
    divisor_size: usize,
    containment_fraction: f64,
    seed: u64,
) -> Vec<Database> {
    group_counts
        .iter()
        .map(|&groups| {
            DivisionWorkload {
                groups,
                divisor_size,
                containment_fraction,
                extra_per_group: 2,
                noise_domain: 4 * groups,
                seed: seed ^ groups as u64,
            }
            .database()
        })
        .collect()
}

/// The **adversarial** division family realizing Definition 16's max:
/// `|D| = Θ(k)` while the classical plans' product node is `Θ(k²)`.
///
/// For each scale `k`: the divisor has `k` values; one designated group
/// contains the whole divisor is *not* materialized (that would cost `k`
/// tuples — fine, but the family stays sparser without it); every group
/// `1..k` holds exactly one divisor element. So `|R| = k`, `|S| = k`,
/// `|D| = 2k`, but `π_A(R) × S` has `k²` tuples — the Fig. 5 / Lemma 24
/// regime. The quotient is empty (every group is a near miss), which is
/// exactly the hard case: the plan must disprove containment for every
/// (group, divisor-value) pair.
pub fn adversarial_division_series(group_counts: &[usize], seed: u64) -> Vec<Database> {
    group_counts
        .iter()
        .map(|&k| {
            let mut rng = SplitMix64::new(seed ^ (k as u64).wrapping_mul(0x9E37));
            let rows: Vec<Tuple> = (1..=k as i64)
                .map(|g| {
                    let b = ELEMENT_BASE + 1 + rng.below(k.max(1) as u64) as i64;
                    Tuple::from_ints(&[g, b])
                })
                .collect();
            let mut db = Database::new();
            db.set("R", Relation::from_tuples(2, rows).expect("binary"));
            db.set(
                "S",
                Relation::unary((0..k as i64).map(|i| Value::int(ELEMENT_BASE + 1 + i))),
            );
            db
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_setjoin::{hash_division, DivisionSemantics};

    #[test]
    fn division_workload_expected_quotient_is_correct() {
        for seed in [1u64, 2, 3] {
            let w = DivisionWorkload {
                groups: 40,
                divisor_size: 6,
                containment_fraction: 0.4,
                extra_per_group: 3,
                noise_domain: 100,
                seed,
            };
            let (r, s, expected) = w.generate();
            assert_eq!(
                hash_division(&r, &s, DivisionSemantics::Containment),
                expected,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn division_workload_deterministic() {
        let w = DivisionWorkload::default();
        let (r1, s1, q1) = w.generate();
        let (r2, s2, q2) = w.generate();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        assert_eq!(q1, q2);
    }

    #[test]
    fn containment_fraction_respected_roughly() {
        let w = DivisionWorkload {
            groups: 400,
            containment_fraction: 0.5,
            ..DivisionWorkload::default()
        };
        let (r, s, expected) = w.generate();
        assert!(!r.is_empty() && !s.is_empty());
        let frac = expected.len() as f64 / 400.0;
        assert!((0.4..0.6).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn empty_divisor_workload() {
        let w = DivisionWorkload {
            divisor_size: 0,
            groups: 10,
            extra_per_group: 2,
            ..DivisionWorkload::default()
        };
        let (r, s, expected) = w.generate();
        assert!(s.is_empty());
        assert_eq!(
            hash_division(&r, &s, DivisionSemantics::Containment),
            expected
        );
    }

    #[test]
    fn setjoin_workload_shapes() {
        let w = SetJoinWorkload {
            r_groups: 30,
            s_groups: 20,
            set_size: SetSizeDist::Fixed(5),
            domain: 100,
            elements: ElementDist::Uniform,
            seed: 99,
        };
        let (r, s) = w.generate();
        // Fixed(5) caps every set at five elements, so groups × 5 rows
        // means every group is full.
        let keys = |rel: &Relation| {
            let keys: std::collections::BTreeSet<_> = rel.iter().map(|t| t[0].clone()).collect();
            keys.len()
        };
        assert_eq!((keys(&r), r.len()), (30, 150));
        assert_eq!((keys(&s), s.len()), (20, 100));
        // Key ranges disjoint.
        let max_r_key = r.iter().map(|t| t[0].clone()).max().unwrap();
        let min_s_key = s.iter().map(|t| t[0].clone()).min().unwrap();
        assert!(max_r_key < min_s_key);
    }

    #[test]
    fn zipf_workload_has_hot_elements() {
        let w = SetJoinWorkload {
            r_groups: 200,
            s_groups: 1,
            set_size: SetSizeDist::Fixed(4),
            domain: 1000,
            elements: ElementDist::Zipf(1.2),
            seed: 7,
        };
        let (r, _) = w.generate();
        // The hottest element should appear in many groups.
        let mut counts: std::collections::BTreeMap<Value, usize> = Default::default();
        for t in &r {
            *counts.entry(t[1].clone()).or_default() += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > 40, "hottest element count {hottest}");
    }

    #[test]
    fn cyclic_workload_query_counts_triangles() {
        let w = CyclicWorkload {
            cycle_len: 3,
            edges_per_table: 60,
            vertices: 12,
            edges: EdgeDist::Uniform,
            seed: 11,
        };
        let db = w.database();
        let out = sj_eval::evaluate(&w.query(), &db).expect("cycle evaluates");
        assert_eq!(out.arity(), 6);
        // Brute-force reference: v0→v1 ∈ E0, v1→v2 ∈ E1, v2→v0 ∈ E2.
        let (e0, e1, e2) = (
            db.get("E0").unwrap(),
            db.get("E1").unwrap(),
            db.get("E2").unwrap(),
        );
        let mut expect = 0usize;
        for a in e0.iter() {
            for b in e1.iter() {
                if b[0] != a[1] {
                    continue;
                }
                for c in e2.iter() {
                    if c[0] == b[1] && c[1] == a[0] {
                        expect += 1;
                    }
                }
            }
        }
        assert!(expect > 0, "workload should contain triangles");
        assert_eq!(out.len(), expect);
    }

    #[test]
    fn cyclic_workload_four_cycle_and_determinism() {
        let w = CyclicWorkload {
            cycle_len: 4,
            ..CyclicWorkload::default()
        };
        assert_eq!(w.generate(), w.generate());
        assert_eq!(w.table_names(), ["E0", "E1", "E2", "E3"]);
        let out = sj_eval::evaluate(&w.query(), &w.database()).expect("4-cycle evaluates");
        assert_eq!(out.arity(), 8);
    }

    #[test]
    fn zipf_cyclic_workload_has_hub_vertices() {
        let w = CyclicWorkload {
            edges: EdgeDist::Zipf(1.3),
            ..CyclicWorkload::default()
        };
        let tables = w.generate();
        let hottest = tables[0]
            .iter()
            .filter(|t| t[0] == Value::int(1) || t[1] == Value::int(1))
            .count();
        assert!(
            hottest > tables[0].len() / 10,
            "vertex 1 should be a hub, touched {hottest}/{}",
            tables[0].len()
        );
    }

    #[test]
    fn random_database_deterministic_and_shaped() {
        let a = random_database(5, 10, 6);
        let b = random_database(5, 10, 6);
        assert_eq!(a, b);
        assert_eq!(a.get("R").unwrap().arity(), 2);
        assert_eq!(a.get("T").unwrap().arity(), 1);
        assert_ne!(a, random_database(6, 10, 6));
    }

    #[test]
    fn division_series_scales() {
        let series = division_series(&[8, 16, 32], 4, 0.5, 42);
        assert_eq!(series.len(), 3);
        let sizes: Vec<usize> = series.iter().map(|d| d.size()).collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    }
}
