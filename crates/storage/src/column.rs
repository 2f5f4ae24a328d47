//! Columnar view of a relation: typed per-column vectors, a per-relation
//! string dictionary, and the composite key hash the join kernels share.
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
//!   the strings. Each entry also carries a precomputed value hash so
//!   hashing a string cell is a table lookup.
//! * [`Columns`] — the full columnar image of one relation: row count,
//!   one [`ColumnData`] per column, and the shared dictionary. Operators
//!   address it by absolute row index; which rows an operator (or one of
//!   its partitions) visits is the operator's business (`sj-eval`'s
//!   kernel layer), not a storage type.
//!
//! Keys are hashed in exactly one place, [`Columns::key_hashes`], which
//! depends only on the cells' *values* — an integer hashes the same
//! whether it sits in an `Int` or a `Mixed` column, and a string hashes
//! the same under any dictionary — so hashes computed on two different
//! relations pair up the build and probe sides of a hash join, and the
//! same `u64` also places the row in a hash partition. Hash equality is
//! never trusted on its own; the operators confirm with
//! [`Columns::cell_eq`].

use crate::hash::fx_hash_one;
use crate::tuple::Tuple;
use crate::value::Value;
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

/// Hash of a string cell. Dictionary entries precompute this once per
/// distinct string ([`StrDict::hash_of`]), so per-row hashing of an
/// encoded column is a table lookup instead of a byte scan.
#[inline]
pub fn hash_str_cell(s: &str) -> u64 {
    // XOR with a constant so `Str("")` and `Int(hash-seed)` cannot agree
    // by construction; collisions are harmless (verified) but cheap to
    // avoid for the common empty/small cases.
    fx_hash_one(&s) ^ 0xc2b2_ae3d_27d4_eb4f
}

/// Hash of an arbitrary [`Value`] cell, consistent with
/// [`hash_int_cell`] / [`hash_str_cell`]. Used for `Mixed` columns.
#[inline]
pub fn hash_value_cell(v: &Value) -> u64 {
    match v {
        Value::Int(i) => hash_int_cell(*i),
        Value::Str(s) => hash_str_cell(s),
    }
}

/// Seed of every composite key hash ([`Columns::key_hashes`]).
const KEY_HASH_SEED: u64 = 0x5157_cc1b_7272_20a9;

/// Mix one column's cell hash into a row's running key hash.
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(23) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A per-relation string dictionary: the distinct strings of all
/// dictionary-encoded columns, sorted lexicographically.
///
/// Codes are indices into the sorted list, so **code order equals string
/// order** within one dictionary. Codes from different dictionaries are
/// not comparable; [`StrDict::translate_from`] builds the cross-dictionary
/// code map the merge operators use.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct StrDict {
    strings: Vec<Arc<str>>,
    hashes: Vec<u64>,
}

impl StrDict {
    /// Build a dictionary from an iterator of strings (cloned `Arc`s;
    /// duplicates welcome — the result is sorted and deduplicated).
    pub fn from_strings(strings: impl IntoIterator<Item = Arc<str>>) -> Self {
        let mut v: Vec<Arc<str>> = strings.into_iter().collect();
        v.sort_unstable_by(|a, b| a.as_ref().cmp(b.as_ref()));
        v.dedup_by(|a, b| a.as_ref() == b.as_ref());
        let hashes = v.iter().map(|s| hash_str_cell(s)).collect();
        StrDict { strings: v, hashes }
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

    /// The precomputed cell hash for a code.
    #[inline]
    pub fn hash_of(&self, code: u32) -> u64 {
        self.hashes[code as usize]
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

    /// For every code of `other`, the equal string's code in `self` (or
    /// `None` when `self` lacks the string). A single linear merge of the
    /// two sorted entry lists — the cross-dictionary comparison table the
    /// columnar set-join verification uses.
    pub fn translate_from(&self, other: &StrDict) -> Vec<Option<u32>> {
        let mut map = vec![None; other.len()];
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.strings.len() && j < other.strings.len() {
            match self.strings[i].as_ref().cmp(other.strings[j].as_ref()) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    map[j] = Some(i as u32);
                    i += 1;
                    j += 1;
                }
            }
        }
        map
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

    /// The composite hash of every row's key over the 0-based `key`
    /// columns, computed one column at a time: an integer column hashes
    /// as a dense `&[i64]` loop, a dictionary-encoded column as a
    /// per-code table lookup, and no `Value` is cloned or boxed. The
    /// hash is value-based (see the module docs), so equal keys of two
    /// relations hash alike whatever their column representations. An
    /// empty key hashes every row to the same value.
    pub fn key_hashes(&self, key: &[usize]) -> Vec<u64> {
        let mut out = vec![KEY_HASH_SEED; self.len];
        for &c in key {
            match &self.cols[c] {
                ColumnData::Int(v) => {
                    for (h, &x) in out.iter_mut().zip(v) {
                        *h = mix(*h, hash_int_cell(x));
                    }
                }
                ColumnData::Str(v) => {
                    for (h, &code) in out.iter_mut().zip(v) {
                        *h = mix(*h, self.dict.hash_of(code));
                    }
                }
                ColumnData::Mixed(v) => {
                    for (h, x) in out.iter_mut().zip(v) {
                        *h = mix(*h, hash_value_cell(x));
                    }
                }
            }
        }
        out
    }

    /// Exact value equality between cell `(c, r)` of `self` and cell
    /// `(oc, or_)` of `other` — the collision check behind hash-paired
    /// rows. Cross-dictionary string cells compare by string content.
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
    fn key_hashes_are_representation_independent() {
        // Same value in an Int column and a Mixed column.
        let dense = Relation::from_int_rows(&[&[7]]);
        let mixed = Relation::from_tuples(1, vec![tuple![7], tuple!["x"]]).unwrap();
        assert_eq!(
            dense.columns().key_hashes(&[0])[0],
            mixed.columns().key_hashes(&[0])[0]
        );
        // Same string under two different dictionaries.
        let a = Relation::from_str_rows(&[&["flu"], &["zzz"]]);
        let b = Relation::from_str_rows(&[&["ague"], &["flu"]]);
        assert_eq!(
            a.columns().key_hashes(&[0])[0],
            b.columns().key_hashes(&[0])[1]
        );
    }

    #[test]
    fn key_hashes_follow_the_key_columns_in_order() {
        let r = Relation::from_tuples(
            3,
            vec![tuple![1, "a", 2], tuple![2, "a", 1], tuple![2, "b", 1]],
        )
        .unwrap();
        let c = r.columns();
        // One hash per row; rows agreeing on the key agree on the hash,
        // and the composite is order-sensitive: (1, 2) ≠ (2, 1).
        let on_b = c.key_hashes(&[1]);
        assert_eq!(on_b.len(), 3);
        assert_eq!(on_b[0], on_b[1]);
        assert_ne!(on_b[1], on_b[2]);
        assert_eq!(c.key_hashes(&[0, 2])[0], c.key_hashes(&[2, 0])[1]);
        assert_ne!(c.key_hashes(&[0, 2])[0], c.key_hashes(&[0, 2])[1]);
        // The empty key sends every row to one value; no rows, no hashes.
        let none = c.key_hashes(&[]);
        assert!(none.windows(2).all(|w| w[0] == w[1]));
        assert!(Relation::empty(2).columns().key_hashes(&[0]).is_empty());
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
    fn translate_from_maps_codes_across_dictionaries() {
        let a = StrDict::from_strings(["b", "d", "f"].map(Arc::from));
        let b = StrDict::from_strings(["a", "b", "c", "d"].map(Arc::from));
        // a's code for each of b's entries.
        assert_eq!(a.translate_from(&b), vec![None, Some(0), None, Some(1)]);
        assert_eq!(b.translate_from(&a), vec![Some(1), Some(3), None]);
    }
}
