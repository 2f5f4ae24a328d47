//! C-stored tuples — Definition 4 of the paper.
//!
//! A tuple `d̄` is *C-stored* in `D` if the tuple obtained by deleting all
//! values in `C` from `d̄` belongs to some projection `π_{i₁,…,i_p}(D(R))`.
//! Since the projection list is arbitrary (repeats and reorderings
//! allowed), this is equivalent to: the non-constant values of `d̄` all
//! occur within a *single* stored tuple — i.e. they form a subset of a
//! guarded set. SA= expressions with constants in `C` can only output
//! C-stored tuples, which is why the GF → SA= direction of Theorem 8 is
//! stated relative to them.

use sj_storage::{Database, Tuple, Value};

/// Is `t` C-stored in `db` (Definition 4)?
pub fn is_c_stored(db: &Database, t: &Tuple, constants: &[Value]) -> bool {
    let residual: Vec<&Value> = t.iter().filter(|v| !constants.contains(v)).collect();
    if residual.is_empty() {
        // The empty tuple lies in the nullary projection π() (D(R)) of any
        // nonempty relation.
        return db.iter().any(|(_, r)| !r.is_empty());
    }
    db.iter().any(|(_, rel)| {
        rel.iter()
            .any(|stored| residual.iter().all(|v| stored.iter().any(|w| w == *v)))
    })
}

/// Enumerate **all** C-stored `k`-tuples of `db`, sorted and deduplicated.
///
/// Every C-stored k-tuple draws its values from `set(t) ∪ C` for some
/// stored tuple `t`, so we enumerate those products. Exponential in `k` —
/// intended for tests and paper-scale figures, not for large databases.
pub fn all_c_stored_tuples(db: &Database, k: usize, constants: &[Value]) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = Vec::new();
    if k == 0 {
        if db.iter().any(|(_, r)| !r.is_empty()) {
            out.push(Tuple::empty());
        }
        return out;
    }
    for stored in db.tuple_space_set() {
        let mut pool: Vec<Value> = stored.value_set();
        for c in constants {
            if !pool.contains(c) {
                pool.push(c.clone());
            }
        }
        // k-fold product over the pool.
        let mut idx = vec![0usize; k];
        loop {
            out.push(idx.iter().map(|&i| pool[i].clone()).collect());
            let mut pos = k;
            let mut done = false;
            loop {
                if pos == 0 {
                    done = true;
                    break;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < pool.len() {
                    break;
                }
                idx[pos] = 0;
            }
            if done {
                break;
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_storage::{tuple, Relation};

    /// The database of Fig. 2 / Example 5: R, S ternary, T binary.
    fn fig2() -> Database {
        let mut d = Database::new();
        d.set(
            "R",
            Relation::from_str_rows(&[&["a", "b", "c"], &["d", "e", "f"]]),
        );
        d.set("S", Relation::from_str_rows(&[&["d", "a", "b"]]));
        d.set("T", Relation::from_str_rows(&[&["e", "a"], &["f", "c"]]));
        d
    }

    #[test]
    fn example5_exactly_as_in_paper() {
        let db = fig2();
        let c = [Value::str("a")];
        // (b, c) is C-stored: (b, c) ∈ π₂,₃(D(R)).
        assert!(is_c_stored(&db, &tuple!["b", "c"], &c));
        // (a, f) is C-stored: deleting a leaves (f) ∈ π₁(D(T)).
        assert!(is_c_stored(&db, &tuple!["a", "f"], &c));
        // (e, c) and (g) are not C-stored.
        assert!(!is_c_stored(&db, &tuple!["e", "c"], &c));
        assert!(!is_c_stored(&db, &tuple!["g"], &c));
    }

    #[test]
    fn all_constant_tuple_stored_iff_db_nonempty() {
        let db = fig2();
        let c = [Value::str("a")];
        assert!(is_c_stored(&db, &tuple!["a", "a"], &c));
        let empty = Database::new();
        assert!(!is_c_stored(&empty, &tuple!["a"], &c));
        let mut empty_rels = Database::new();
        empty_rels.set("R", Relation::empty(2));
        assert!(!is_c_stored(&empty_rels, &tuple!["a"], &c));
    }

    #[test]
    fn enumeration_matches_predicate() {
        let db = fig2();
        let c = [Value::str("a")];
        for k in 0..=2 {
            let all = all_c_stored_tuples(&db, k, &c);
            // Everything enumerated is C-stored.
            for t in &all {
                assert!(is_c_stored(&db, t, &c), "{t:?}");
            }
            // Everything C-stored over the domain ∪ C is enumerated.
            let mut pool = db.active_domain();
            pool.push(Value::str("g")); // sentinel outside
            if k == 2 {
                for x in &pool {
                    for y in &pool {
                        let t = Tuple::from([x.clone(), y.clone()]);
                        assert_eq!(all.contains(&t), is_c_stored(&db, &t, &c), "{t:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn nullary_enumeration() {
        let db = fig2();
        assert_eq!(all_c_stored_tuples(&db, 0, &[]), vec![Tuple::empty()]);
        let empty = Database::new();
        assert!(all_c_stored_tuples(&empty, 0, &[]).is_empty());
    }

    #[test]
    fn stored_tuples_themselves_are_stored() {
        let db = fig2();
        for t in db.tuple_space_set() {
            assert!(is_c_stored(&db, &t, &[]));
        }
    }
}
