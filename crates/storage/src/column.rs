//! Columnar view of a relation: typed per-column vectors, a per-relation
//! value dictionary, and the joint code space two relations' columns are
//! compared in.
//!
//! The row representation ([`crate::Relation`]'s sorted `Vec<Tuple>`, a
//! row of arity ≤ 2 held inline in its 40-byte [`crate::Tuple`] and a
//! wider one behind a boxed slice) stays the *canonical* one — it is what
//! equality, ordering, and the set operators are defined on. The types here are a derived, cache-friendly
//! projection of the same data:
//!
//! * [`ColumnData`] — one column as a dense fixed-width vector. A column
//!   whose cells are all integers is `Int(Vec<i64>)`; every other column
//!   (all strings, or integers and strings mixed — the universe `U` is
//!   their union) is `Coded(Vec<u32>)`, codes into the relation's
//!   [`Dict`].
//! * [`Dict`] — the per-relation dictionary: the distinct values of the
//!   coded columns, **sorted in [`Value`] order** (every integer before
//!   every string), so comparing two codes of the *same* dictionary is
//!   exactly comparing the values.
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
//! | `Coded` / `Coded`, one dictionary | the codes, widened |
//! | `Coded` / `Coded`, two dictionaries | codes remapped through the merge of the two sorted dictionaries |
//! | `Int` / `Coded` | the `Int` column coded against its own sorted distinct values — O(n log n) — then merged as above |
//!
//! The division bodies and the set-join operand view of `sj-setjoin`
//! read element columns through it, and `sj-eval`'s hash kernels key and
//! confirm equality keys on it.

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

/// A per-relation value dictionary: the distinct values of all coded
/// columns, sorted in [`Value`] order, so its integer entries come first.
///
/// Codes are indices into the sorted list, so **code order equals value
/// order** within one dictionary. Codes from different dictionaries are
/// not comparable; [`joint_codes`] maps two columns into one space.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Dict {
    values: Vec<Value>,
}

impl Dict {
    /// Build a dictionary from an iterator of values (duplicates welcome
    /// — the result is sorted and deduplicated).
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        let mut values: Vec<Value> = values.into_iter().collect();
        values.sort_unstable();
        values.dedup();
        Dict { values }
    }

    /// Number of distinct values.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the dictionary is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value for a code.
    #[inline]
    pub fn get(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// The code for a value, if present (binary search over the sorted
    /// entries).
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        self.values.binary_search(v).ok().map(|i| i as u32)
    }

    /// All entries in code (= value) order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// One column of a relation as a dense fixed-width vector.
#[derive(Debug)]
pub enum ColumnData {
    /// Every cell is an integer.
    Int(Vec<i64>),
    /// Any other column: codes into the relation's [`Dict`].
    Coded(Vec<u32>),
}

impl ColumnData {
    /// Number of rows in the column.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Coded(v) => v.len(),
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
            ColumnData::Coded(_) => None,
        }
    }

    /// The code vector, if this is a `Coded` column.
    #[inline]
    pub fn as_codes(&self) -> Option<&[u32]> {
        match self {
            ColumnData::Coded(v) => Some(v),
            ColumnData::Int(_) => None,
        }
    }
}

/// The columnar image of one relation: `len` rows, one [`ColumnData`] per
/// column, and the shared value dictionary.
///
/// Row `i` of the columns is exactly tuple `i` of the canonical sorted
/// tuple vector it was built from, so a sorted run of rows here is a
/// sorted run of tuples there.
#[derive(Debug)]
pub struct Columns {
    len: usize,
    cols: Vec<ColumnData>,
    dict: Arc<Dict>,
}

impl Columns {
    /// Build the columnar image of `tuples` (all of the given arity, in
    /// any order — callers pass a [`crate::Relation`]'s canonical vector).
    ///
    /// An all-integer column becomes `Int`; every other column is coded
    /// against one relation-wide dictionary of the coded columns' values.
    pub fn from_tuples(arity: usize, tuples: &[Tuple]) -> Self {
        let coded: Vec<bool> = (0..arity)
            .map(|c| tuples.iter().any(|t| t[c].as_int().is_none()))
            .collect();
        let dict = Dict::from_values(
            (0..arity)
                .filter(|&c| coded[c])
                .flat_map(|c| tuples.iter().map(move |t| t[c].clone())),
        );
        let cols = (0..arity)
            .map(|c| {
                if coded[c] {
                    ColumnData::Coded(
                        tuples
                            .iter()
                            .map(|t| dict.code_of(&t[c]).expect("the value is in the dictionary"))
                            .collect(),
                    )
                } else {
                    ColumnData::Int(
                        tuples
                            .iter()
                            .map(|t| t[c].as_int().expect("classified as Int"))
                            .collect(),
                    )
                }
            })
            .collect();
        Columns {
            len: tuples.len(),
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

    /// The shared value dictionary.
    #[inline]
    pub fn dict(&self) -> &Arc<Dict> {
        &self.dict
    }

    /// Materialize the value at `(column c, row r)`.
    #[inline]
    pub fn value_at(&self, c: usize, r: usize) -> Value {
        match &self.cols[c] {
            ColumnData::Int(v) => Value::Int(v[r]),
            ColumnData::Coded(v) => self.dict.get(v[r]).clone(),
        }
    }

    /// Where the runs of equal `k`-prefix begin among the rows
    /// `row(0), row(1), …, row(len − 1)` — ascending row indices, so
    /// equal prefixes are adjacent — followed by `len`: run `t` covers
    /// positions `starts[t]..starts[t + 1]`. One typed pass per prefix
    /// column finds where a cell differs from the one before (within one
    /// relation a dictionary code *is* its value); no rows give `[0]`,
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
                ColumnData::Coded(v) => mark(v, &row, &mut head),
            }
        }
        match first {
            ColumnData::Int(v) => starts(v, len, &row, &head),
            ColumnData::Coded(v) => starts(v, len, &row, &head),
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
        (ColumnData::Coded(x), ColumnData::Coded(y)) if Arc::ptr_eq(a.dict(), b.dict()) => {
            (widen(x, None), widen(y, None))
        }
        _ => {
            let ((da, xa), (db, xb)) = (coded(a, ca), coded(b, cb));
            let (ma, mb) = merge_dicts(&da, &db);
            (widen(&xa, Some(&ma)), widen(&xb, Some(&mb)))
        }
    }
}

/// Column `c` of `cols` as codes into a sorted dictionary: a coded
/// column's own, and an integer column's sorted distinct values.
fn coded(cols: &Columns, c: usize) -> (Cow<'_, [Value]>, Cow<'_, [u32]>) {
    match cols.col(c) {
        ColumnData::Coded(codes) => (Cow::Borrowed(cols.dict().values()), Cow::Borrowed(codes)),
        ColumnData::Int(v) => {
            let dict = Dict::from_values(v.iter().map(|&x| Value::Int(x)));
            let code = |&x: &i64| dict.code_of(&Value::Int(x)).expect("a value of the column");
            let codes = v.iter().map(code).collect();
            (Cow::Owned(dict.values), Cow::Owned(codes))
        }
    }
}

/// Merge two sorted dictionaries into one joint code space: for each
/// dictionary, the strictly increasing map from its codes to joint
/// codes. Equal values get the same joint code.
fn merge_dicts(a: &[Value], b: &[Value]) -> (Vec<i64>, Vec<i64>) {
    let (mut ma, mut mb) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    let mut next = 0i64;
    while i < a.len() || j < b.len() {
        let ord = if i == a.len() {
            Ordering::Greater
        } else if j == b.len() {
            Ordering::Less
        } else {
            a[i].cmp(&b[j])
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
        // Dictionary is sorted: code order == value order.
        let entries: Vec<String> = c.dict().values().iter().map(|v| v.to_string()).collect();
        assert_eq!(entries, vec!["ague", "an", "bob", "flu"]);
        // Rows are the canonical tuple order: (an, ague), (an, flu), (bob, flu).
        assert_eq!(c.col(0).as_codes(), Some(&[1u32, 1, 2][..]));
        assert_eq!(c.col(1).as_codes(), Some(&[0u32, 3, 3][..]));
        assert_eq!(c.dict().code_of(&Value::str("bob")), Some(2));
        assert_eq!(c.dict().code_of(&Value::str("zeus")), None);
    }

    #[test]
    fn mixed_columns_are_coded_with_integers_first() {
        let r =
            Relation::from_tuples(2, vec![tuple![1, "x"], tuple!["x", 7], tuple![1, 3]]).unwrap();
        let c = r.columns();
        // One dictionary for both columns, every integer before every string.
        assert_eq!(
            c.dict().values(),
            &[Value::int(1), Value::int(3), Value::int(7), Value::str("x")]
        );
        // Rows: (1, 3), (1, "x"), ("x", 7).
        assert_eq!(c.col(0).as_codes(), Some(&[0u32, 0, 3][..]));
        assert_eq!(c.col(1).as_codes(), Some(&[1u32, 3, 2][..]));
        assert_eq!(c.value_at(0, 2), Value::str("x"));
        assert_eq!(c.value_at(1, 0), Value::int(3));
        // An all-integer column beside coded ones stays `Int`.
        let r = Relation::from_tuples(2, vec![tuple![1, "x"], tuple![2, 5]]).unwrap();
        assert_eq!(r.columns().col(0).as_ints(), Some(&[1i64, 2][..]));
        assert_eq!(r.columns().dict().len(), 2);
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
    fn merged_dictionaries_agree_with_value_order() {
        let a = Dict::from_values([Value::str("d"), Value::int(4), Value::str("b")]);
        let b = Dict::from_values(["a", "b", "c"].map(Value::str));
        // Joint space: 4=0, a=1, b=2, c=3, d=4.
        assert_eq!(
            merge_dicts(a.values(), b.values()),
            (vec![0, 2, 4], vec![1, 2, 3])
        );
    }

    /// Every pair of encodings maps equal cells of the two columns to
    /// equal codes and keeps `Value` order — across dictionaries, within
    /// one relation, and whenever a side mixes variants; two integer
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
        let other_mixed =
            Relation::from_tuples(1, vec![tuple![7], tuple![8], tuple!["a"], tuple!["y"]]).unwrap();
        for ((r, rc), (s, sc)) in [
            ((&ints, 1), (&ints, 1)),
            ((&ints, 0), (&ints, 1)),
            ((&strs, 1), (&strs, 0)),
            ((&strs, 1), (&other_strs, 0)),
            ((&mixed, 1), (&ints, 1)),
            ((&strs, 1), (&mixed, 1)),
            ((&ints, 1), (&strs, 1)),
            ((&mixed, 1), (&other_mixed, 0)),
            ((&mixed, 1), (&mixed, 0)),
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
