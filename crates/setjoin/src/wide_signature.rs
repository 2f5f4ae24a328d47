//! The all-pairs signature set join at a configurable width.
//!
//! 64-bit signatures saturate once sets exceed a few dozen elements,
//! killing the filter's selectivity (visible in the Zipf benchmark).
//! `W × 64` bits is the knob studied by Helmer & Moerkotte (VLDB 1997 —
//! reference \[13\] of the paper): wider signatures trade memory and
//! per-pair AND cost for a lower false-positive rate. The join is written
//! once, over the dense operand view at stride `W`;
//! [`crate::signature_set_join`] is `W = 1`, the registry's
//! `signature256` is `W = 4`, and [`filter_survivors`] is the same
//! candidate loop counting instead of verifying.

use crate::columnar::{emit, Signed};
use crate::setjoin::SetPredicate;
use sj_storage::Relation;

/// Signature-filtered set join with a configurable signature width
/// (`words × 64` bits): compare signatures first, verify survivors with
/// the exact merge test. The width only changes how many pairs reach the
/// verification, never the result.
///
/// # Panics
///
/// If `words` is zero.
pub fn wide_signature_set_join(
    r: &Relation,
    s: &Relation,
    pred: SetPredicate,
    words: usize,
) -> Relation {
    let x = Signed::new(r, s, pred, words);
    let mut out = Vec::new();
    x.for_each_candidate(|gr, gs| {
        if x.verify(gr, gs) {
            out.push((gr as u32, gs as u32));
        }
    });
    emit(&x.r, &x.s, out)
}

/// Count how many candidate pairs survive the signature filter (before
/// exact verification) — the measurement behind the width-ablation
/// experiment: larger `words` ⇒ fewer false positives.
pub fn filter_survivors(r: &Relation, s: &Relation, pred: SetPredicate, words: usize) -> usize {
    let mut survivors = 0usize;
    Signed::new(r, s, pred, words).for_each_candidate(|_, _| survivors += 1);
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setjoin::nested_loop_set_join;
    use sj_workload_free_random::relation_of_sets;

    /// Tiny local generator (no dependency on sj-workload to avoid a
    /// cycle): `groups` sets of `size` elements drawn from `domain` with a
    /// simple LCG.
    mod sj_workload_free_random {
        use sj_storage::{Relation, Tuple};

        pub fn relation_of_sets(groups: i64, size: i64, domain: i64, mut seed: u64) -> Relation {
            let mut rows = Vec::new();
            for g in 0..groups {
                for k in 0..size {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let e = (seed >> 33) as i64 % domain;
                    rows.push(Tuple::from_ints(&[g, 10_000 + (e + k) % domain]));
                }
            }
            Relation::from_tuples(2, rows).unwrap()
        }
    }

    #[test]
    fn equals_nested_loop_for_all_widths() {
        let r = relation_of_sets(20, 6, 40, 1);
        let s = relation_of_sets(15, 5, 40, 2);
        for pred in [
            SetPredicate::Contains,
            SetPredicate::ContainedIn,
            SetPredicate::Equals,
            SetPredicate::IntersectsNonempty,
        ] {
            let want = nested_loop_set_join(&r, &s, pred);
            for words in [1usize, 2, 4] {
                assert_eq!(
                    wide_signature_set_join(&r, &s, pred, words),
                    want,
                    "{pred:?} at width {words}"
                );
            }
        }
    }

    #[test]
    fn wider_signatures_filter_no_worse() {
        // Survivor count is monotonically non-increasing in width on the
        // same workload (more bits ⇒ fewer collisions ⇒ fewer false
        // positives), and always ≥ the true result size. The second
        // pair is the regime of the `signature-ablation` experiment:
        // large left sets saturate 64 bits, small right sets keep true
        // containments plausible, so width has something to remove.
        for (r, s) in [
            (
                relation_of_sets(40, 8, 64, 3),
                relation_of_sets(40, 6, 64, 4),
            ),
            (
                relation_of_sets(40, 40, 256, 5),
                relation_of_sets(40, 2, 256, 6),
            ),
        ] {
            let truth = nested_loop_set_join(&r, &s, SetPredicate::Contains).len();
            let mut last = usize::MAX;
            for words in [1usize, 2, 4, 8] {
                let surv = filter_survivors(&r, &s, SetPredicate::Contains, words);
                assert!(surv >= truth, "filter lost true pairs");
                assert!(
                    surv <= last,
                    "width {words} filtered worse: {surv} > {last}"
                );
                last = surv;
            }
        }
    }
}
