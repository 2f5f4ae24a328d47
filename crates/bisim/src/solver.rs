//! Deciding guarded bisimilarity: the maximal C-guarded bisimulation.
//!
//! Definition 10 forces partial isomorphisms to preserve the order of the
//! universe, so between two value sets there is exactly **one** candidate
//! bijection — the monotone one. The candidate space for a bisimulation is
//! therefore finite: the monotone maps between guarded sets of `A` and
//! guarded sets of `B` that happen to be C-partial isomorphisms. The
//! greatest bisimulation (among guarded-domain maps) is computed by the
//! usual coinductive refinement: start from all candidates and repeatedly
//! delete maps whose forth or back condition fails within the current set.
//!
//! To decide `A, ā ∼ᶜ B, b̄` for C-stored tuples `ā`, `b̄` (whose value
//! sets need not themselves be guarded), note that a bisimulation
//! containing the componentwise map `m : ā → b̄` exists iff
//!
//! 1. `m` is a C-partial isomorphism, and
//! 2. `m` satisfies forth/back against the *maximal* guarded bisimulation
//!    `I*` (any witness set, restricted to its guarded-domain part, is
//!    itself a guarded bisimulation and hence contained in `I*`).
//!
//! Then `I* ∪ {m}` is the certificate.

use crate::check::{back_and_forth, Bisimulation};
use crate::iso::{check_c_partial_iso, PartialIso};
use sj_storage::{Database, Tuple, Value};

/// Compute the maximal C-guarded bisimulation between `a` and `b`, i.e.
/// the largest set of C-partial isomorphisms with guarded domains/ranges
/// satisfying back-and-forth. The result may be empty (then no guarded
/// bisimulation between guarded sets exists).
pub fn maximal_bisimulation(a: &Database, b: &Database, constants: &[Value]) -> Vec<PartialIso> {
    let guarded_a = a.guarded_sets();
    let guarded_b = b.guarded_sets();
    // All monotone candidate maps that are C-partial isomorphisms.
    let mut current: Vec<PartialIso> = Vec::new();
    for x in &guarded_a {
        for y in &guarded_b {
            if let Some(f) = PartialIso::monotone(x, y) {
                if check_c_partial_iso(a, b, &f, constants).is_ok() {
                    current.push(f);
                }
            }
        }
    }
    // Coinductive refinement to the greatest fixpoint.
    loop {
        let before = current.len();
        current = {
            let snapshot = current.clone();
            current
                .into_iter()
                .filter(|f| back_and_forth(f, &snapshot, &guarded_a, &guarded_b).is_none())
                .collect()
        };
        if current.len() == before {
            return current;
        }
    }
}

/// Decide `A, ā ∼ᶜ B, b̄`: is there a C-guarded bisimulation containing
/// the componentwise map `ā → b̄`? Returns the certificate (the maximal
/// guarded bisimulation plus the tuple map) or `None`.
///
/// `ā` and `b̄` should be C-stored in their databases (the paper only
/// defines the relation for such pairs); the decision procedure itself
/// does not require it.
pub fn are_bisimilar(
    a: &Database,
    a_tuple: &Tuple,
    b: &Database,
    b_tuple: &Tuple,
    constants: &[Value],
) -> Option<Bisimulation> {
    let m = PartialIso::from_tuples(a_tuple, b_tuple).ok()?;
    if check_c_partial_iso(a, b, &m, constants).is_err() {
        return None;
    }
    let maximal = maximal_bisimulation(a, b, constants);
    let guarded_a = a.guarded_sets();
    let guarded_b = b.guarded_sets();
    if back_and_forth(&m, &maximal, &guarded_a, &guarded_b).is_some() {
        return None;
    }
    let mut isos = maximal;
    isos.push(m);
    Some(Bisimulation::new(isos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_bisimulation;
    use sj_storage::{tuple, Relation};

    fn fig3_a() -> Database {
        let mut d = Database::new();
        d.set("R", Relation::from_int_rows(&[&[1, 2], &[2, 3]]));
        d.set("S", Relation::from_int_rows(&[&[1, 2]]));
        d.set("T", Relation::from_int_rows(&[&[2, 3]]));
        d
    }

    fn fig3_b() -> Database {
        let mut d = Database::new();
        d.set(
            "R",
            Relation::from_int_rows(&[&[6, 7], &[7, 8], &[9, 10], &[10, 11]]),
        );
        d.set("S", Relation::from_int_rows(&[&[6, 7], &[9, 10]]));
        d.set("T", Relation::from_int_rows(&[&[7, 8], &[10, 11]]));
        d
    }

    /// Fig. 5: the division counterexample databases.
    fn fig5_a() -> Database {
        let mut d = Database::new();
        d.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[2, 8]]),
        );
        d.set("S", Relation::from_int_rows(&[&[7], &[8]]));
        d
    }

    fn fig5_b() -> Database {
        let mut d = Database::new();
        d.set(
            "R",
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 8], &[2, 9], &[3, 7], &[3, 9]]),
        );
        d.set("S", Relation::from_int_rows(&[&[7], &[8], &[9]]));
        d
    }

    #[test]
    fn fig3_maximal_contains_example12_maps() {
        let (a, b) = (fig3_a(), fig3_b());
        let maximal = maximal_bisimulation(&a, &b, &[]);
        assert!(!maximal.is_empty());
        // The maximal bisimulation is itself a valid bisimulation.
        check_bisimulation(&a, &b, &Bisimulation::new(maximal.clone()), &[])
            .unwrap_or_else(|e| panic!("{e}"));
        // It contains the four maps of Example 12.
        for (x, y) in [
            (tuple![1, 2], tuple![6, 7]),
            (tuple![2, 3], tuple![7, 8]),
            (tuple![1, 2], tuple![9, 10]),
            (tuple![2, 3], tuple![10, 11]),
        ] {
            let f = PartialIso::from_tuples(&x, &y).unwrap();
            assert!(maximal.contains(&f), "missing {f}");
        }
    }

    #[test]
    fn fig3_tuples_bisimilar() {
        let (a, b) = (fig3_a(), fig3_b());
        let cert = are_bisimilar(&a, &tuple![1, 2], &b, &tuple![6, 7], &[]);
        assert!(cert.is_some());
        // And the certificate verifies.
        check_bisimulation(&a, &b, &cert.unwrap(), &[]).unwrap();
        // Mismatched pattern: (1,2) is in A(S) but (7,8) is not in B(S).
        assert!(are_bisimilar(&a, &tuple![1, 2], &b, &tuple![7, 8], &[]).is_none());
    }

    #[test]
    fn fig5_division_counterexample_is_bisimilar() {
        // Proposition 26's witness: A, 1 ∼ B, 1 — yet R ÷ S = {1, 2} on A
        // and ∅ on B (checked in the setjoin crate). Here: bisimilarity.
        let (a, b) = (fig5_a(), fig5_b());
        let cert = are_bisimilar(&a, &tuple![1], &b, &tuple![1], &[]);
        assert!(cert.is_some(), "Fig. 5 pair must be guarded bisimilar");
        check_bisimulation(&a, &b, &cert.unwrap(), &[]).unwrap();
        // Also bisimilar: 2 on A with 1 on B (both "division candidates").
        assert!(are_bisimilar(&a, &tuple![2], &b, &tuple![1], &[]).is_some());
    }

    #[test]
    fn paper_fig5_claimed_set_verifies() {
        // The exact I claimed in the proof of Proposition 26:
        // {1→1} ∪ {ā→b̄ : ā ∈ A(R), b̄ ∈ B(R)} ∪ {ā→b̄ : ā ∈ A(S), b̄ ∈ B(S)}.
        let (a, b) = (fig5_a(), fig5_b());
        let mut isos = vec![PartialIso::from_tuples(&tuple![1], &tuple![1]).unwrap()];
        for ra in a.get("R").unwrap() {
            for rb in b.get("R").unwrap() {
                isos.push(PartialIso::from_tuples(ra, rb).unwrap());
            }
        }
        for sa in a.get("S").unwrap() {
            for sb in b.get("S").unwrap() {
                isos.push(PartialIso::from_tuples(sa, sb).unwrap());
            }
        }
        check_bisimulation(&a, &b, &Bisimulation::new(isos), &[]).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn not_bisimilar_when_patterns_differ() {
        // A has a reflexive loop, B does not: no bisimulation can relate
        // their tuples.
        let mut a = Database::new();
        a.set("E", Relation::from_int_rows(&[&[1, 1]]));
        let mut b = Database::new();
        b.set("E", Relation::from_int_rows(&[&[5, 6]]));
        assert!(are_bisimilar(&a, &tuple![1], &b, &tuple![5], &[]).is_none());
        assert!(maximal_bisimulation(&a, &b, &[]).is_empty());
    }

    #[test]
    fn constants_break_bisimilarity() {
        let (a, b) = (fig5_a(), fig5_b());
        // With C = {9}, B's tuples involving 9 have no counterpart in A:
        // the maximal C-bisimulation loses maps, and back fails for the
        // guarded set {9} of B — 9 must map to itself, but A(S) lacks 9.
        let c = [Value::int(9)];
        assert!(are_bisimilar(&a, &tuple![1], &b, &tuple![1], &c).is_none());
        // Pinning a shared database value also breaks it: with C = {1} the
        // maps may no longer move 1, and the extra divisor value 9 in B
        // becomes distinguishable. This is why Proposition 26 requires the
        // database values to lie outside C.
        let c1 = [Value::int(1)];
        assert!(are_bisimilar(&a, &tuple![1], &b, &tuple![1], &c1).is_none());
        // A constant absent from both databases is harmless.
        let c_out = [Value::int(100)];
        assert!(are_bisimilar(&a, &tuple![1], &b, &tuple![1], &c_out).is_some());
    }

    #[test]
    fn empty_databases_are_trivially_bisimilar_on_constants() {
        let a = Database::new();
        let b = Database::new();
        // No guarded sets at all: the singleton {m} works whenever m is a
        // C-partial isomorphism.
        assert!(are_bisimilar(&a, &tuple![4], &b, &tuple![4], &[]).is_some());
    }

    #[test]
    fn database_bisimilar_to_itself() {
        let a = fig3_a();
        for t in a.tuple_space_set() {
            assert!(
                are_bisimilar(&a, &t, &a, &t, &[]).is_some(),
                "identity on {t} must be bisimilar"
            );
        }
    }
}
