//! Columnar view of a relation: typed per-column vectors, a per-relation
//! string dictionary, and the joint code space two relations' columns
//! are compared in.
//!
//! The row representation ([`crate::Relation`]'s sorted `Vec<Tuple>`) stays
//! the *canonical* one — it is what equality, ordering, and the set
//! operators are defined on. The types here are a derived, cache-friendly
//! projection of the same data:
//!
//! * [`ColumnData`] — one column as a dense typed vector. A column whose
//!   cells are all integers becomes `Int(Vec<i64>)`; an all-string column
//!   is dictionary-encoded as `Str(Vec<u32>)` with codes into the
//!   relation's [`StrDict`]; a column mixing variants (legal, since the
//!   universe `U` is the union of integers and strings) falls back to
//!   `Mixed(Vec<Value>)`.
//! * [`StrDict`] — the per-relation dictionary: all distinct strings of
//!   the dictionary-encoded columns, **sorted lexicographically**, so
//!   comparing two codes from the *same* dictionary is exactly comparing
//!   the strings.
//! * [`Columns`] — the full columnar image of one relation: row count,
//!   one [`ColumnData`] per column, and the shared dictionary. Operators
//!   address it by absolute row index; which rows an operator visits is
//!   the operator's business (`sj-eval`'s kernel layer), not a storage
//!   type.
//!
//! **The joint code space.** [`joint_codes`] is the one place this
//! workspace decides how a column of one relation is compared with a
//! column of another: it maps both into one dense, **order-preserving**
//! space of `i64`s, so equal cells get equal codes and code order is
//! [`Value`] order, whatever the two columns hold:
//!
//! | columns | codes |
//! |---|---|
//! | `Int` / `Int` | the `i64` columns themselves, zero-copy |
//! | `Str` / `Str` | dictionary codes remapped through the merge of the two sorted dictionaries |
//! | anything else (`Mixed`, or `Int` against `Str`) | the rank of each cell in the sorted joint dictionary of both columns — O(n log n) |
//!
//! The division bodies and the set-join operand view of `sj-setjoin`
//! read element columns through it, and `sj-eval`'s hash kernels key and
//! confirm equality keys on it. [`Columns::cell_eq`] /
//! [`Columns::cell_cmp`] compare single cells across relations.

use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Hash of an integer cell. SplitMix64 finalizer — one multiply-xor-shift
/// pipeline per value, no `Hasher` state to thread through a dense loop.
#[inline]
pub fn hash_int_cell(v: i64) -> u64 {
    let mut z = (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-relation string dictionary: the distinct strings of all
/// dictionary-encoded columns, sorted lexicographically.
///
/// Codes are indices into the sorted list, so **code order equals string
/// order** within one dictionary. Codes from different dictionaries are
/// not comparable; [`joint_codes`] maps two columns into one space.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct StrDict {
    strings: Vec<Arc<str>>,
}

impl StrDict {
    /// Build a dictionary from an iterator of strings (cloned `Arc`s;
    /// duplicates welcome — the result is sorted and deduplicated).
    pub fn from_strings(strings: impl IntoIterator<Item = Arc<str>>) -> Self {
        let mut v: Vec<Arc<str>> = strings.into_iter().collect();
        v.sort_unstable_by(|a, b| a.as_ref().cmp(b.as_ref()));
        v.dedup_by(|a, b| a.as_ref() == b.as_ref());
        StrDict { strings: v }
    }

    /// Number of distinct strings.
    #[inline]
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True iff the dictionary is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The string for a code.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// The code for a string, if present (binary search over the sorted
    /// entries).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.strings
            .binary_search_by(|e| e.as_ref().cmp(s))
            .ok()
            .map(|i| i as u32)
    }

    /// All entries in code (= lexicographic) order.
    #[inline]
    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }
}

/// One column of a relation as a dense typed vector.
#[derive(Debug)]
pub enum ColumnData {
    /// Every cell is an integer.
    Int(Vec<i64>),
    /// Every cell is a string; values are codes into the relation's
    /// [`StrDict`].
    Str(Vec<u32>),
    /// Cells mix integers and strings — stored as plain values.
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Number of rows in the column.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// True iff the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The integer vector, if this is an `Int` column.
    #[inline]
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The code vector, if this is a dictionary-encoded `Str` column.
    #[inline]
    pub fn as_codes(&self) -> Option<&[u32]> {
        match self {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// The columnar image of one relation: `len` rows, one [`ColumnData`] per
/// column, and the shared string dictionary.
///
/// Row `i` of the columns is exactly tuple `i` of the canonical sorted
/// tuple vector it was built from, so a sorted run of rows here is a
/// sorted run of tuples there.
#[derive(Debug)]
pub struct Columns {
    len: usize,
    cols: Vec<ColumnData>,
    dict: Arc<StrDict>,
}

impl Columns {
    /// Build the columnar image of `tuples` (all of the given arity, in
    /// any order — callers pass a [`crate::Relation`]'s canonical vector).
    ///
    /// Per column: all-integer cells become `Int`, all-string cells are
    /// dictionary-encoded as `Str` against one relation-wide dictionary,
    /// anything else falls back to `Mixed`.
    pub fn from_tuples(arity: usize, tuples: &[Tuple]) -> Self {
        let len = tuples.len();
        // Pass 1: classify each column.
        #[derive(Clone, Copy, PartialEq)]
        enum Kind {
            Int,
            Str,
            Mixed,
        }
        let mut kinds = vec![Kind::Int; arity];
        for (c, kind) in kinds.iter_mut().enumerate() {
            let mut ints = 0usize;
            let mut strs = 0usize;
            for t in tuples {
                match &t[c] {
                    Value::Int(_) => ints += 1,
                    Value::Str(_) => strs += 1,
                }
            }
            *kind = if strs == 0 {
                Kind::Int
            } else if ints == 0 {
                Kind::Str
            } else {
                Kind::Mixed
            };
        }
        // Pass 2: one dictionary over all string columns.
        let dict = StrDict::from_strings(
            kinds
                .iter()
                .enumerate()
                .filter(|(_, k)| **k == Kind::Str)
                .flat_map(|(c, _)| {
                    tuples.iter().map(move |t| match &t[c] {
                        Value::Str(s) => Arc::clone(s),
                        Value::Int(_) => unreachable!("classified as Str"),
                    })
                }),
        );
        // Pass 3: materialize the typed vectors.
        let cols = kinds
            .iter()
            .enumerate()
            .map(|(c, k)| match k {
                Kind::Int => ColumnData::Int(
                    tuples
                        .iter()
                        .map(|t| match &t[c] {
                            Value::Int(v) => *v,
                            Value::Str(_) => unreachable!("classified as Int"),
                        })
                        .collect(),
                ),
                Kind::Str => ColumnData::Str(
                    tuples
                        .iter()
                        .map(|t| match &t[c] {
                            Value::Str(s) => dict.code_of(s).expect("string is in the dictionary"),
                            Value::Int(_) => unreachable!("classified as Str"),
                        })
                        .collect(),
                ),
                Kind::Mixed => ColumnData::Mixed(tuples.iter().map(|t| t[c].clone()).collect()),
            })
            .collect();
        Columns {
            len,
            cols,
            dict: Arc::new(dict),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The data of column `c` (0-based).
    #[inline]
    pub fn col(&self, c: usize) -> &ColumnData {
        &self.cols[c]
    }

    /// The shared string dictionary.
    #[inline]
    pub fn dict(&self) -> &Arc<StrDict> {
        &self.dict
    }

    /// Materialize the value at `(column c, row r)`.
    #[inline]
    pub fn value_at(&self, c: usize, r: usize) -> Value {
        match &self.cols[c] {
            ColumnData::Int(v) => Value::Int(v[r]),
            ColumnData::Str(v) => Value::Str(Arc::clone(self.dict.get(v[r]))),
            ColumnData::Mixed(v) => v[r].clone(),
        }
    }

    /// Exact value equality between cell `(c, r)` of `self` and cell
    /// `(oc, or_)` of `other`, one cell at a time (a whole column pair is
    /// compared through [`joint_codes`]). Cross-dictionary string cells
    /// compare by string content.
    pub fn cell_eq(&self, c: usize, r: usize, other: &Columns, oc: usize, or_: usize) -> bool {
        use ColumnData::*;
        match (&self.cols[c], &other.cols[oc]) {
            (Int(a), Int(b)) => a[r] == b[or_],
            (Str(a), Str(b)) => {
                if Arc::ptr_eq(&self.dict, &other.dict) {
                    a[r] == b[or_]
                } else {
                    self.dict.get(a[r]).as_ref() == other.dict.get(b[or_]).as_ref()
                }
            }
            (Int(_), Str(_)) | (Str(_), Int(_)) => false,
            (Int(a), Mixed(b)) => matches!(&b[or_], Value::Int(v) if *v == a[r]),
            (Mixed(a), Int(b)) => matches!(&a[r], Value::Int(v) if *v == b[or_]),
            (Str(a), Mixed(b)) => {
                matches!(&b[or_], Value::Str(s) if s.as_ref() == self.dict.get(a[r]).as_ref())
            }
            (Mixed(a), Str(b)) => {
                matches!(&a[r], Value::Str(s) if s.as_ref() == other.dict.get(b[or_]).as_ref())
            }
            (Mixed(a), Mixed(b)) => a[r] == b[or_],
        }
    }

    /// Total order on cells across relations, matching [`Value`]'s order
    /// (all integers before all strings). Drives the columnar merge paths.
    pub fn cell_cmp(&self, c: usize, r: usize, other: &Columns, oc: usize, or_: usize) -> Ordering {
        use ColumnData::*;
        match (&self.cols[c], &other.cols[oc]) {
            (Int(a), Int(b)) => a[r].cmp(&b[or_]),
            (Str(a), Str(b)) => {
                if Arc::ptr_eq(&self.dict, &other.dict) {
                    a[r].cmp(&b[or_])
                } else {
                    self.dict
                        .get(a[r])
                        .as_ref()
                        .cmp(other.dict.get(b[or_]).as_ref())
                }
            }
            (Int(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) => Ordering::Greater,
            _ => self.value_at(c, r).cmp(&other.value_at(oc, or_)),
        }
    }

    /// Where the runs of equal `k`-prefix begin among the rows
    /// `row(0), row(1), …, row(len − 1)` — ascending row indices, so
    /// equal prefixes are adjacent — followed by `len`: run `t` covers
    /// positions `starts[t]..starts[t + 1]`. One typed pass per prefix
    /// column finds where a cell differs from the one before (within one
    /// relation a dictionary code *is* its string); no rows give `[0]`,
    /// and `k = 0` gives one run.
    pub fn run_starts(&self, k: usize, len: usize, row: impl Fn(usize) -> usize) -> Vec<usize> {
        /// Mark the positions whose cell differs from the one before.
        fn mark<T: PartialEq>(cells: &[T], row: &impl Fn(usize) -> usize, head: &mut [bool]) {
            for p in 1..head.len() {
                head[p] |= cells[row(p)] != cells[row(p - 1)];
            }
        }
        /// The positions whose first-column cell differs from the one
        /// before, or that `head` marks (when the prefix is longer).
        fn starts<T: PartialEq>(
            cells: &[T],
            len: usize,
            row: &impl Fn(usize) -> usize,
            head: &[bool],
        ) -> Vec<usize> {
            let mut out = vec![0];
            for p in 1..len {
                if cells[row(p)] != cells[row(p - 1)] || head.get(p) == Some(&true) {
                    out.push(p);
                }
            }
            out.push(len);
            out
        }
        if len == 0 {
            return vec![0];
        }
        let Some((first, rest)) = self.cols[..k].split_first() else {
            return vec![0, len];
        };
        let mut head = vec![false; if rest.is_empty() { 0 } else { len }];
        for col in rest {
            match col {
                ColumnData::Int(v) => mark(v, &row, &mut head),
                ColumnData::Str(v) => mark(v, &row, &mut head),
                ColumnData::Mixed(v) => mark(v, &row, &mut head),
            }
        }
        match first {
            ColumnData::Int(v) => starts(v, len, &row, &head),
            ColumnData::Str(v) => starts(v, len, &row, &head),
            ColumnData::Mixed(v) => starts(v, len, &row, &head),
        }
    }
}

/// Column `ca` of `a` and column `cb` of `b` in one joint,
/// order-preserving dense code space (see the [module docs](self)):
/// for every row pair, `codes_a[i] == codes_b[j]` iff the cells are
/// equal, and `codes_a[i] < codes_b[j]` iff `a`'s cell sorts first.
/// Two integer columns are their own codes; nothing else is borrowed.
pub fn joint_codes<'a>(
    (a, ca): (&'a Columns, usize),
    (b, cb): (&'a Columns, usize),
) -> (Cow<'a, [i64]>, Cow<'a, [i64]>) {
    let widen = |codes: &[u32], map: Option<&[i64]>| -> Cow<'a, [i64]> {
        match map {
            Some(map) => codes.iter().map(|&c| map[c as usize]).collect(),
            None => codes.iter().map(|&c| i64::from(c)).collect(),
        }
    };
    match (a.col(ca), b.col(cb)) {
        (ColumnData::Int(x), ColumnData::Int(y)) => (Cow::Borrowed(x), Cow::Borrowed(y)),
        // One dictionary (a relation against itself): codes are joint.
        (ColumnData::Str(x), ColumnData::Str(y)) if Arc::ptr_eq(a.dict(), b.dict()) => {
            (widen(x, None), widen(y, None))
        }
        (ColumnData::Str(x), ColumnData::Str(y)) => {
            let (ma, mb) = merge_dicts(a.dict(), b.dict());
            (widen(x, Some(&ma)), widen(y, Some(&mb)))
        }
        _ => {
            let (xs, ys) = (cells(a, ca), cells(b, cb));
            let mut dict: Vec<Cell> = xs.iter().chain(&ys).copied().collect();
            dict.sort_unstable();
            dict.dedup();
            let rank = |cells: Vec<Cell>| -> Cow<'a, [i64]> {
                cells
                    .iter()
                    .map(|c| {
                        dict.binary_search(c)
                            .expect("the dictionary holds every cell")
                            as i64
                    })
                    .collect()
            };
            (rank(xs), rank(ys))
        }
    }
}

/// Merge two sorted dictionaries into one joint code space: for each
/// dictionary, the strictly increasing map from its codes to joint
/// codes. Equal strings get the same joint code.
fn merge_dicts(a: &StrDict, b: &StrDict) -> (Vec<i64>, Vec<i64>) {
    let (mut ma, mut mb) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    let mut next = 0i64;
    while i < a.len() || j < b.len() {
        let ord = if i == a.len() {
            Ordering::Greater
        } else if j == b.len() {
            Ordering::Less
        } else {
            a.strings()[i].as_ref().cmp(b.strings()[j].as_ref())
        };
        if ord.is_le() {
            ma.push(next);
            i += 1;
        }
        if ord.is_ge() {
            mb.push(next);
            j += 1;
        }
        next += 1;
    }
    (ma, mb)
}

/// A borrowed cell, ordered as [`Value`] is (every integer before every
/// string): what the ranking encoding of [`joint_codes`] sorts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Cell<'a> {
    Int(i64),
    Str(&'a str),
}

/// Column `c` of `cols` as borrowed cells.
fn cells(cols: &Columns, c: usize) -> Vec<Cell<'_>> {
    match cols.col(c) {
        ColumnData::Int(v) => v.iter().map(|&x| Cell::Int(x)).collect(),
        ColumnData::Str(v) => v
            .iter()
            .map(|&code| Cell::Str(cols.dict().get(code)))
            .collect(),
        ColumnData::Mixed(v) => v
            .iter()
            .map(|x| match x {
                Value::Int(i) => Cell::Int(*i),
                Value::Str(s) => Cell::Str(s),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::tuple;

    #[test]
    fn int_columns_are_dense() {
        let r = Relation::from_int_rows(&[&[1, 10], &[2, 20], &[3, 30]]);
        let c = r.columns();
        assert_eq!(c.len(), 3);
        assert_eq!(c.arity(), 2);
        assert_eq!(c.col(0).as_ints(), Some(&[1i64, 2, 3][..]));
        assert_eq!(c.col(1).as_ints(), Some(&[10i64, 20, 30][..]));
        assert!(c.dict().is_empty());
    }

    #[test]
    fn str_columns_are_dictionary_encoded_in_order() {
        let r = Relation::from_str_rows(&[&["bob", "flu"], &["an", "flu"], &["an", "ague"]]);
        let c = r.columns();
        // Dictionary is sorted: code order == lexicographic order.
        let entries: Vec<&str> = c.dict().strings().iter().map(|s| s.as_ref()).collect();
        assert_eq!(entries, vec!["ague", "an", "bob", "flu"]);
        // Rows are the canonical tuple order: (an, ague), (an, flu), (bob, flu).
        assert_eq!(c.col(0).as_codes(), Some(&[1u32, 1, 2][..]));
        assert_eq!(c.col(1).as_codes(), Some(&[0u32, 3, 3][..]));
        assert_eq!(c.dict().code_of("bob"), Some(2));
        assert_eq!(c.dict().code_of("zeus"), None);
    }

    #[test]
    fn mixed_columns_fall_back_to_values() {
        let r = Relation::from_tuples(1, vec![tuple![1], tuple!["x"]]).unwrap();
        let c = r.columns();
        assert!(matches!(c.col(0), ColumnData::Mixed(_)));
        assert_eq!(c.value_at(0, 0), Value::int(1));
        assert_eq!(c.value_at(0, 1), Value::str("x"));
    }

    #[test]
    fn value_at_round_trips_every_cell() {
        let r =
            Relation::from_tuples(2, vec![tuple![1, "a"], tuple![2, "b"], tuple![3, "a"]]).unwrap();
        let c = r.columns();
        for (i, t) in r.iter().enumerate() {
            for j in 0..2 {
                assert_eq!(c.value_at(j, i), t[j]);
            }
        }
    }

    #[test]
    fn cell_eq_and_cmp_across_representations() {
        let ints = Relation::from_int_rows(&[&[1], &[5]]);
        let strs = Relation::from_str_rows(&[&["a"], &["b"]]);
        let mixed = Relation::from_tuples(1, vec![tuple![5], tuple!["b"]]).unwrap();
        let (ic, sc, mc) = (ints.columns(), strs.columns(), mixed.columns());
        assert!(ic.cell_eq(0, 1, mc, 0, 0)); // 5 == 5 (Int vs Mixed)
        assert!(sc.cell_eq(0, 1, mc, 0, 1)); // "b" == "b" (Str vs Mixed)
        assert!(!ic.cell_eq(0, 0, sc, 0, 0)); // 1 != "a"
        assert_eq!(ic.cell_cmp(0, 0, sc, 0, 0), Ordering::Less); // ints < strings
        assert_eq!(sc.cell_cmp(0, 1, sc, 0, 0), Ordering::Greater);
        assert_eq!(mc.cell_cmp(0, 0, ic, 0, 1), Ordering::Equal);
    }

    #[test]
    fn run_starts_mark_every_change_of_the_prefix() {
        let r = Relation::from_tuples(
            3,
            vec![
                tuple![1, "a", 2],
                tuple![1, "a", 3],
                tuple![1, "b", 1],
                tuple![2, "b", 1],
            ],
        )
        .unwrap();
        let c = r.columns();
        let all = |k| c.run_starts(k, 4, |p| p);
        assert_eq!(all(0), vec![0, 4]);
        assert_eq!(all(1), vec![0, 3, 4]);
        assert_eq!(all(2), vec![0, 2, 3, 4]);
        assert_eq!(all(3), vec![0, 1, 2, 3, 4]);
        // A selection: rows 0, 2, 3 — runs are over positions.
        let picked = [0usize, 2, 3];
        assert_eq!(c.run_starts(1, 3, |p| picked[p]), vec![0, 2, 3]);
        assert_eq!(c.run_starts(2, 3, |p| picked[p]), vec![0, 1, 2, 3]);
        assert_eq!(c.run_starts(2, 0, |p| p), vec![0]);
        let s = Relation::from_str_rows(&[&["a", "x"], &["a", "y"], &["b", "x"]]);
        assert_eq!(s.columns().run_starts(1, 3, |p| p), vec![0, 2, 3]);
    }

    #[test]
    fn merged_dictionaries_agree_with_string_order() {
        let a = StrDict::from_strings(["b", "d"].map(Arc::from));
        let b = StrDict::from_strings(["a", "b", "c"].map(Arc::from));
        // Joint space: a=0, b=1, c=2, d=3.
        assert_eq!(merge_dicts(&a, &b), (vec![1, 3], vec![0, 1, 2]));
    }

    /// Every encoding maps equal cells of the two columns to equal codes
    /// and keeps `Value` order — across dictionaries, within one
    /// relation, and whenever a side mixes variants; two integer
    /// columns are borrowed.
    #[test]
    fn joint_codes_are_joint_and_order_preserving() {
        let ints = Relation::from_int_rows(&[&[1, 7], &[1, 9], &[2, 7]]);
        let strs = Relation::from_str_rows(&[&["k", "7"], &["k", "x"], &["l", "a"]]);
        let other_strs = Relation::from_str_rows(&[&["7"], &["b"], &["x"]]);
        let mixed = Relation::from_tuples(
            2,
            vec![tuple![1, "x"], tuple![1, 7], tuple![2, "a"], tuple![2, 9]],
        )
        .unwrap();
        for ((r, rc), (s, sc)) in [
            ((&ints, 1), (&ints, 1)),
            ((&ints, 0), (&ints, 1)),
            ((&strs, 1), (&strs, 0)),
            ((&strs, 1), (&other_strs, 0)),
            ((&mixed, 1), (&ints, 1)),
            ((&strs, 1), (&mixed, 1)),
            ((&ints, 1), (&strs, 1)),
        ] {
            let (a, b) = joint_codes((r.columns(), rc), (s.columns(), sc));
            assert_eq!((a.len(), b.len()), (r.len(), s.len()));
            for (i, t) in r.iter().enumerate() {
                for (j, u) in s.iter().enumerate() {
                    assert_eq!(t[rc].cmp(&u[sc]), a[i].cmp(&b[j]), "{} vs {}", t[rc], u[sc]);
                }
            }
        }
        let (a, _) = joint_codes((ints.columns(), 0), (ints.columns(), 1));
        assert!(matches!(a, Cow::Borrowed(_)));
    }
}
