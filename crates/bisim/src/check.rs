//! Verification that a given set `I` is a C-guarded bisimulation
//! (Definition 11).

use crate::iso::{check_c_partial_iso, PartialIso};
use sj_storage::{Database, Value};

/// A (candidate) guarded bisimulation: a set of partial isomorphisms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bisimulation {
    /// The partial isomorphisms, deduplicated.
    pub isos: Vec<PartialIso>,
}

impl Bisimulation {
    /// Build from a list of isomorphisms (deduplicates).
    pub fn new(isos: impl IntoIterator<Item = PartialIso>) -> Self {
        let mut v: Vec<PartialIso> = isos.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Bisimulation { isos: v }
    }

    /// Number of partial isomorphisms.
    pub fn len(&self) -> usize {
        self.isos.len()
    }

    /// True when the set is empty (an empty set is *not* a valid
    /// bisimulation — Definition 11 requires nonemptiness).
    pub fn is_empty(&self) -> bool {
        self.isos.is_empty()
    }
}

/// The half of Definition 11's back-and-forth condition that fails for
/// one element, with the guarded set where it has no partner.
pub(crate) enum Failure<'g> {
    /// No `g` with domain `X′` agrees with `f` on `X ∩ X′`.
    Forth(&'g [Value]),
    /// No `g` with range `Y′` has `g⁻¹` agreeing with `f⁻¹` on `Y ∩ Y′`.
    Back(&'g [Value]),
}

/// Forth, then back, for `f` within the set `i`: the first guarded set
/// `X′` of `guarded_a`, then `Y′` of `guarded_b`, at which `f` has no
/// partner in `i`, or `None` when both conditions hold.
pub(crate) fn back_and_forth<'g>(
    f: &PartialIso,
    i: &[PartialIso],
    guarded_a: &'g [Vec<Value>],
    guarded_b: &'g [Vec<Value>],
) -> Option<Failure<'g>> {
    let dom = f.domain();
    if let Some(x_prime) = guarded_a.iter().find(|x_prime| {
        !i.iter()
            .any(|g| g.domain() == **x_prime && f.agrees_forward(g, &dom))
    }) {
        return Some(Failure::Forth(x_prime));
    }
    let ran = f.range();
    guarded_b
        .iter()
        .find(|y_prime| {
            !i.iter()
                .any(|g| g.range() == **y_prime && f.agrees_backward(g, &ran))
        })
        .map(|y_prime| Failure::Back(y_prime))
}

/// Check all of Definition 11 for a user-supplied set `I`:
///
/// 1. `I` is nonempty;
/// 2. every element is a C-partial isomorphism from `a` to `b`;
/// 3. **Forth**: for every `f : X → Y` in `I` and every guarded set `X′`
///    of `a`, some `g : X′ → Y′` in `I` agrees with `f` on `X ∩ X′`;
/// 4. **Back**: for every `f` in `I` and every guarded set `Y′` of `b`,
///    some `g : X′ → Y′` in `I` has `g⁻¹` agreeing with `f⁻¹` on `Y ∩ Y′`.
///
/// Returns a description of the first violation.
pub fn check_bisimulation(
    a: &Database,
    b: &Database,
    i: &Bisimulation,
    constants: &[Value],
) -> Result<(), String> {
    if i.is_empty() {
        return Err("a guarded bisimulation must be nonempty".into());
    }
    for f in &i.isos {
        check_c_partial_iso(a, b, f, constants)
            .map_err(|e| format!("element {f} is not a C-partial isomorphism: {e}"))?;
    }
    let guarded_a = a.guarded_sets();
    let guarded_b = b.guarded_sets();
    for f in &i.isos {
        match back_and_forth(f, &i.isos, &guarded_a, &guarded_b) {
            None => {}
            Some(Failure::Forth(x_prime)) => {
                return Err(format!(
                    "forth fails for {f} at guarded set {x_prime:?}: no g with that \
                     domain agrees on the overlap"
                ))
            }
            Some(Failure::Back(y_prime)) => {
                return Err(format!(
                    "back fails for {f} at guarded set {y_prime:?}: no g with that \
                     range agrees on the overlap"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::{tuple, Relation, Tuple};

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

    fn fig3_bisim() -> Bisimulation {
        let maps = [
            (tuple![1, 2], tuple![6, 7]),
            (tuple![2, 3], tuple![7, 8]),
            (tuple![1, 2], tuple![9, 10]),
            (tuple![2, 3], tuple![10, 11]),
        ];
        Bisimulation::new(
            maps.iter()
                .map(|(x, y)| PartialIso::from_tuples(x, y).unwrap()),
        )
    }

    #[test]
    fn example_12_verifies() {
        // The exact set given in Example 12 of the paper is a ∅-guarded
        // bisimulation between the Fig. 3 databases.
        let (a, b) = (fig3_a(), fig3_b());
        assert_eq!(fig3_bisim().len(), 4);
        check_bisimulation(&a, &b, &fig3_bisim(), &[]).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn dropping_an_element_breaks_it() {
        // Without (2,3) → (7,8), the forth condition fails for
        // (1,2) → (6,7) at the guarded set {2,3}: the only remaining map
        // with domain {2,3} is (2,3) → (10,11), which disagrees on 2.
        let (a, b) = (fig3_a(), fig3_b());
        let partial = Bisimulation::new(
            [
                (tuple![1, 2], tuple![6, 7]),
                (tuple![1, 2], tuple![9, 10]),
                (tuple![2, 3], tuple![10, 11]),
            ]
            .iter()
            .map(|(x, y)| PartialIso::from_tuples(x, y).unwrap()),
        );
        let err = check_bisimulation(&a, &b, &partial, &[]).unwrap_err();
        assert!(err.contains("forth") || err.contains("back"), "{err}");
    }

    #[test]
    fn empty_set_rejected() {
        let (a, b) = (fig3_a(), fig3_b());
        let err = check_bisimulation(&a, &b, &Bisimulation::new([]), &[]).unwrap_err();
        assert!(err.contains("nonempty"));
    }

    #[test]
    fn non_iso_element_rejected() {
        let (a, b) = (fig3_a(), fig3_b());
        let mut isos = fig3_bisim().isos;
        isos.push(PartialIso::from_tuples(&tuple![1, 2], &tuple![7, 8]).unwrap());
        let err = check_bisimulation(&a, &b, &Bisimulation::new(isos), &[]).unwrap_err();
        assert!(err.contains("not a C-partial isomorphism"), "{err}");
    }

    #[test]
    fn identity_bisimulation_on_same_database() {
        // {t → t : t ∈ T_D} is always a bisimulation from D to itself.
        let a = fig3_a();
        let isos: Vec<PartialIso> = a
            .tuple_space_set()
            .iter()
            .map(|t: &Tuple| PartialIso::from_tuples(t, t).unwrap())
            .collect();
        check_bisimulation(&a, &a, &Bisimulation::new(isos), &[]).unwrap_or_else(|e| panic!("{e}"));
    }
}
