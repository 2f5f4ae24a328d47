//! Inverted-index set-containment join (the PSJ/"the good" family of
//! Ramasamy, Patel, Naughton & Kaushik, VLDB 2000 — reference \[16\] of the
//! paper).
//!
//! Build an inverted index from element → the (sorted) list of left groups
//! whose set contains that element. For a right group with element set
//! `D = {d₁, …, d_m}`, the qualifying left groups are exactly
//! `⋂ᵢ postings(dᵢ)` — computed by intersecting the posting lists
//! rarest-first, so highly selective elements prune early. No separate
//! verification pass is needed: the intersection *is* the answer.
//!
//! Worst case remains quadratic (the paper: nothing better is known), but
//! on workloads where sets share few elements this is the practical
//! winner — the benchmark compares it against nested loops and signatures.

use crate::columnar::{emit, Operand};
use sj_storage::Relation;

/// Set-containment join `R ⋈_{B ⊇ D} S` via an inverted index on the left
/// groups' elements.
pub fn inverted_index_set_join(r: &Relation, s: &Relation) -> Relation {
    let (r, s) = Operand::pair(r, s);
    let postings = r.postings();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for gs in 0..s.len() {
        // Posting lists, rarest first; a missing element kills the group.
        let lists: Option<Vec<&Vec<u32>>> = s.set(gs).iter().map(|v| postings.get(v)).collect();
        let Some(mut lists) = lists else { continue };
        lists.sort_by_key(|l| l.len());
        let (first, rest) = lists.split_first().expect("groups are nonempty");
        let mut candidates: Vec<u32> = first.to_vec();
        for l in rest {
            if candidates.is_empty() {
                break;
            }
            candidates = intersect_sorted(&candidates, l);
        }
        out.extend(candidates.into_iter().map(|gr| (gr, gs as u32)));
    }
    emit(&r, &s, out)
}

/// Intersection of two ascending index lists.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setjoin::{nested_loop_set_join, SetPredicate};

    #[test]
    fn fig1_join_via_inverted_index() {
        let person = Relation::from_str_rows(&[
            &["An", "headache"],
            &["An", "sore throat"],
            &["An", "neck pain"],
            &["Bob", "headache"],
            &["Bob", "sore throat"],
            &["Bob", "memory loss"],
            &["Bob", "neck pain"],
            &["Carol", "headache"],
        ]);
        let disease = Relation::from_str_rows(&[
            &["flu", "headache"],
            &["flu", "sore throat"],
            &["Lyme", "headache"],
            &["Lyme", "sore throat"],
            &["Lyme", "memory loss"],
            &["Lyme", "neck pain"],
        ]);
        assert_eq!(
            inverted_index_set_join(&person, &disease),
            nested_loop_set_join(&person, &disease, SetPredicate::Contains)
        );
    }

    #[test]
    fn missing_element_prunes_whole_group() {
        let r = Relation::from_int_rows(&[&[1, 10], &[1, 11]]);
        let s = Relation::from_int_rows(&[&[5, 10], &[5, 99]]);
        assert!(inverted_index_set_join(&r, &s).is_empty());
    }

    #[test]
    fn multiple_matches() {
        let r = Relation::from_int_rows(&[
            &[1, 10],
            &[1, 11],
            &[1, 12],
            &[2, 10],
            &[2, 11],
            &[3, 11],
            &[3, 12],
        ]);
        let s = Relation::from_int_rows(&[&[7, 10], &[7, 11], &[8, 11]]);
        let got = inverted_index_set_join(&r, &s);
        assert_eq!(
            got,
            Relation::from_int_rows(&[&[1, 7], &[1, 8], &[2, 7], &[2, 8], &[3, 8]])
        );
    }

    #[test]
    fn empty_operands() {
        let e = Relation::empty(2);
        let r = Relation::from_int_rows(&[&[1, 10]]);
        assert!(inverted_index_set_join(&e, &r).is_empty());
        assert!(inverted_index_set_join(&r, &e).is_empty());
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[1, 2], &[1, 2]), vec![1, 2]);
    }
}
