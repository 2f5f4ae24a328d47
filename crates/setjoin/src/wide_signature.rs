//! Configurable-width Bloom signatures for set joins.
//!
//! The 64-bit signatures in [`crate::setjoin`] saturate once sets exceed a
//! few dozen elements, killing the filter's selectivity (visible in the
//! Zipf benchmark). This module generalizes to `W × 64` bits, the knob
//! studied by Helmer & Moerkotte (VLDB 1997 — reference \[13\] of the
//! paper): wider signatures trade memory and per-pair AND cost for a lower
//! false-positive rate.

use crate::setjoin::{group_sets, SetPredicate};
use sj_storage::hash::fx_hash_one;
use sj_storage::{Relation, Tuple, Value};

/// A multi-word Bloom signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WideSignature {
    words: Vec<u64>,
}

impl WideSignature {
    /// Signature of a value list with `words × 64` bits.
    pub fn of(values: &[Value], words: usize) -> Self {
        assert!(words > 0);
        let bits = (words * 64) as u64;
        let mut w = vec![0u64; words];
        for v in values {
            let bit = fx_hash_one(v) % bits;
            w[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        WideSignature { words: w }
    }

    /// Is every bit of `self` also set in `other`? (Necessary condition
    /// for the underlying set inclusion.)
    pub fn subset_of(&self, other: &WideSignature) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Do the signatures share a bit? (Necessary for nonempty
    /// intersection.)
    pub fn intersects(&self, other: &WideSignature) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Number of set bits.
    pub fn popcount(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Width in words.
    pub fn width(&self) -> usize {
        self.words.len()
    }
}

/// Signature-filtered set join with a configurable signature width
/// (`words × 64` bits). Semantically identical to
/// [`crate::setjoin::signature_set_join`]; the width only changes how many
/// pairs reach the exact verification.
pub fn wide_signature_set_join(
    r: &Relation,
    s: &Relation,
    pred: SetPredicate,
    words: usize,
) -> Relation {
    let rg = group_sets(r);
    let sg = group_sets(s);
    let rsig: Vec<WideSignature> = rg
        .iter()
        .map(|(_, vs)| WideSignature::of(vs, words))
        .collect();
    let ssig: Vec<WideSignature> = sg
        .iter()
        .map(|(_, vs)| WideSignature::of(vs, words))
        .collect();
    let mut out: Vec<Tuple> = Vec::new();
    for ((a, b_set), sb) in rg.iter().zip(&rsig) {
        for ((c, d_set), sd) in sg.iter().zip(&ssig) {
            let may = match pred {
                SetPredicate::Contains => sd.subset_of(sb),
                SetPredicate::ContainedIn => sb.subset_of(sd),
                SetPredicate::Equals => sb == sd,
                SetPredicate::IntersectsNonempty => sb.intersects(sd) || b_set.is_empty(),
            };
            if may && crate::setjoin::predicate_holds_public(pred, b_set, d_set) {
                out.push(Tuple::new(vec![a.clone(), c.clone()]));
            }
        }
    }
    Relation::from_tuples(2, out).expect("binary output")
}

/// Count how many candidate pairs survive the signature filter (before
/// exact verification) — the measurement behind the width-ablation
/// experiment: larger `words` ⇒ fewer false positives.
pub fn filter_survivors(r: &Relation, s: &Relation, pred: SetPredicate, words: usize) -> usize {
    let rg = group_sets(r);
    let sg = group_sets(s);
    let rsig: Vec<WideSignature> = rg
        .iter()
        .map(|(_, vs)| WideSignature::of(vs, words))
        .collect();
    let ssig: Vec<WideSignature> = sg
        .iter()
        .map(|(_, vs)| WideSignature::of(vs, words))
        .collect();
    let mut survivors = 0usize;
    for ((_, b_set), sb) in rg.iter().zip(&rsig) {
        for (_, sd) in sg.iter().zip(&ssig).map(|((_, d), sig)| (d, sig)) {
            let may = match pred {
                SetPredicate::Contains => sd.subset_of(sb),
                SetPredicate::ContainedIn => sb.subset_of(sd),
                SetPredicate::Equals => *sb == *sd,
                SetPredicate::IntersectsNonempty => sb.intersects(sd) || b_set.is_empty(),
            };
            if may {
                survivors += 1;
            }
        }
    }
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

    #[test]
    fn signature_basics() {
        let a = WideSignature::of(&[Value::int(1), Value::int(2)], 2);
        let b = WideSignature::of(&[Value::int(1), Value::int(2), Value::int(3)], 2);
        assert!(a.subset_of(&b));
        assert!(a.intersects(&b));
        assert!(a.popcount() <= 2);
        assert_eq!(a.width(), 2);
        let empty = WideSignature::of(&[], 2);
        assert!(empty.subset_of(&a));
        assert!(!empty.intersects(&a));
        assert_eq!(empty.popcount(), 0);
    }
}
