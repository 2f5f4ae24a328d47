//! Tuples `(a₁, …, aₙ)` over the universe.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

/// A tuple of [`Value`]s.
///
/// Tuples are immutable once constructed. A tuple of arity ≤ 2 — every row
/// of the paper's binary `R(A, B)` and unary `S(B)` — holds its values
/// inline and costs no heap allocation; a wider one holds a boxed slice.
/// Either way a `Tuple` is 40 bytes, and equality, order and hashing are
/// those of its value slice, whatever the representation. The component
/// order follows the paper's 1-based projection convention in the algebra
/// crates, but the accessor here is 0-based like everything else in Rust;
/// the algebra layer does the 1-based bookkeeping.
///
/// ```
/// use sj_storage::Tuple;
/// let t = Tuple::from_ints(&[1, 2, 3]);
/// assert_eq!(t.arity(), 3);
/// assert_eq!(t[0], 1.into());
/// assert_eq!(t.project(&[2, 0]).to_vec(), Tuple::from_ints(&[3, 1]).to_vec());
/// ```
#[derive(Clone)]
pub struct Tuple(Repr);

/// The storage behind a [`Tuple`]; read only through [`Tuple::values`].
#[derive(Clone)]
enum Repr {
    Zero,
    One(Value),
    Two([Value; 2]),
    /// Arity ≥ 3.
    Many(Box<[Value]>),
}

impl Tuple {
    /// Build a tuple from a vector of values.
    #[inline]
    pub fn new(values: Vec<Value>) -> Self {
        if values.len() > 2 {
            Tuple(Repr::Many(values.into_boxed_slice()))
        } else {
            values.into_iter().collect()
        }
    }

    /// The empty (arity-0) tuple.
    #[inline]
    pub fn empty() -> Self {
        Tuple(Repr::Zero)
    }

    /// Convenience constructor from integers.
    pub fn from_ints(values: &[i64]) -> Self {
        values.iter().copied().map(Value::Int).collect()
    }

    /// Convenience constructor from strings.
    pub fn from_strs(values: &[&str]) -> Self {
        values.iter().map(Value::str).collect()
    }

    /// Number of components.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Component access (0-based); `None` when out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values().get(i)
    }

    /// The components as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Zero => &[],
            Repr::One(v) => std::slice::from_ref(v),
            Repr::Two(vs) => vs,
            Repr::Many(vs) => vs,
        }
    }

    /// Copy the components out into a `Vec`.
    pub fn to_vec(&self) -> Vec<Value> {
        self.values().to_vec()
    }

    /// Projection π onto the given **0-based** column indices; columns may
    /// repeat and may appear in any order, exactly as in Definition 1(3).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        let vs = self.values();
        cols.iter().map(|&c| vs[c].clone()).collect()
    }

    /// Concatenation `(ā, b̄)` as produced by the join operator.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.iter().chain(other).cloned().collect()
    }

    /// The tuple extended with one extra value at the end — the
    /// constant-tagging operator τ_c of Definition 1(5) at the tuple level.
    pub fn tag(&self, c: Value) -> Tuple {
        self.iter().cloned().chain(std::iter::once(c)).collect()
    }

    /// `set(d̄)`: the set of elements occurring in the tuple
    /// (Definition 22 uses this notation). Returned sorted and deduplicated.
    pub fn value_set(&self) -> Vec<Value> {
        let mut v = self.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Iterate over components.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values().iter()
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic on the components, a shorter prefix first.
impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

/// The hash of the value slice, length prefix included.
impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    #[inline]
    fn index(&self, i: usize) -> &Value {
        &self.values()[i]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// A tuple of `N` values without an intermediate `Vec`: inline for
/// `N ≤ 2`.
impl<const N: usize> From<[Value; N]> for Tuple {
    #[inline]
    fn from(vs: [Value; N]) -> Self {
        vs.into_iter().collect()
    }
}

impl FromIterator<Value> for Tuple {
    #[inline]
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let Some(a) = it.next() else {
            return Tuple(Repr::Zero);
        };
        let Some(b) = it.next() else {
            return Tuple(Repr::One(a));
        };
        let Some(c) = it.next() else {
            return Tuple(Repr::Two([a, b]));
        };
        let mut vs = Vec::with_capacity(3 + it.size_hint().0);
        vs.extend([a, b, c]);
        vs.extend(it);
        Tuple(Repr::Many(vs.into_boxed_slice()))
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Build a [`Tuple`] from a comma-separated list of values convertible into
/// [`Value`].
///
/// ```
/// use sj_storage::{tuple, Tuple, Value};
/// let t = tuple![1, "x", 3];
/// assert_eq!(t[1], Value::str("x"));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::from([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Two inline values and the tag: no heap allocation up to arity 2.
    const _: () = assert!(std::mem::size_of::<Tuple>() == 40);

    #[test]
    fn arity_and_access() {
        let t = Tuple::from_ints(&[10, 20, 30]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t[1], Value::int(20));
        assert_eq!(t.get(2), Some(&Value::int(30)));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::empty();
        assert_eq!(t.arity(), 0);
        assert_eq!(t, Tuple::new(vec![]));
    }

    #[test]
    fn projection_repeats_and_reorders() {
        let t = Tuple::from_ints(&[1, 2, 3]);
        assert_eq!(t.project(&[2, 2, 0]), Tuple::from_ints(&[3, 3, 1]));
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn concat_and_tag() {
        let a = Tuple::from_ints(&[1, 2]);
        let b = Tuple::from_ints(&[3]);
        assert_eq!(a.concat(&b), Tuple::from_ints(&[1, 2, 3]));
        assert_eq!(a.tag(Value::int(9)), Tuple::from_ints(&[1, 2, 9]));
    }

    #[test]
    fn value_set_sorted_dedup() {
        let t = Tuple::from_ints(&[3, 1, 3, 2, 1]);
        assert_eq!(
            t.value_set(),
            vec![Value::int(1), Value::int(2), Value::int(3)]
        );
    }

    #[test]
    fn ordering_is_lexicographic_on_components() {
        assert!(Tuple::from_ints(&[1, 9]) < Tuple::from_ints(&[2, 0]));
        assert!(Tuple::from_ints(&[1]) < Tuple::from_ints(&[1, 0]));
    }

    #[test]
    fn macro_mixes_types() {
        let t = tuple![1, "x"];
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t[1], Value::str("x"));
    }

    /// SplitMix64, for the equivalence property below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Values of arity 0–4: small integers, the `i64` extremes, `""` and
    /// short strings, all-integer and all-string rows among them.
    fn random_values(state: &mut u64) -> Vec<Value> {
        let arity = (next(state) % 5) as usize;
        let strings = next(state) % 3;
        (0..arity)
            .map(|_| {
                let r = next(state);
                if strings == 1 || (strings == 2 && r.is_multiple_of(2)) {
                    Value::str(["", "a", "ab", "b"][(r >> 8) as usize % 4])
                } else {
                    match (r >> 8) % 8 {
                        0 => Value::int(i64::MIN),
                        1 => Value::int(i64::MAX),
                        k => Value::int(k as i64 - 4),
                    }
                }
            })
            .collect()
    }

    fn fx_hash<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = crate::hash::FxHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    /// Every constructor makes the same tuple of the same values, and
    /// `==`, `cmp` and the hash of a tuple are those of its values held
    /// as a boxed slice, inline or not: canonical order and every hashed
    /// layout rest on them.
    #[test]
    fn constructors_agree_and_compare_like_the_boxed_slice() {
        let mut state = 7;
        let cases: Vec<Vec<Value>> = (0..400).map(|_| random_values(&mut state)).collect();
        for vs in &cases {
            let t = Tuple::new(vs.clone());
            assert_eq!(t.values(), &vs[..]);
            assert_eq!(t.arity(), vs.len());
            let mut same = vec![
                vs.iter().cloned().collect::<Tuple>(),
                Tuple::from(vs.clone()),
            ];
            match vs.as_slice() {
                [] => same.push(Tuple::from([] as [Value; 0])),
                [a] => same.push(Tuple::from([a.clone()])),
                [a, b] => same.push(Tuple::from([a.clone(), b.clone()])),
                [a, b, c] => same.push(Tuple::from([a.clone(), b.clone(), c.clone()])),
                [a, b, c, d] => {
                    same.push(Tuple::from([a.clone(), b.clone(), c.clone(), d.clone()]))
                }
                _ => unreachable!(),
            }
            if let Some(ints) = vs.iter().map(Value::as_int).collect::<Option<Vec<_>>>() {
                same.push(Tuple::from_ints(&ints));
            }
            if let Some(strs) = vs.iter().map(Value::as_str).collect::<Option<Vec<_>>>() {
                same.push(Tuple::from_strs(&strs));
            }
            for u in &same {
                assert_eq!(u, &t, "{vs:?}");
                assert_eq!(u.values(), t.values());
                assert_eq!(fx_hash(u), fx_hash(&t));
            }
        }
        for a in &cases {
            let (ta, ba) = (Tuple::new(a.clone()), a.clone().into_boxed_slice());
            assert_eq!(fx_hash(&ta), fx_hash(&ba), "{a:?}");
            for b in cases.iter().take(60) {
                let (tb, bb) = (Tuple::new(b.clone()), b.clone().into_boxed_slice());
                assert_eq!(ta == tb, ba == bb, "{a:?} {b:?}");
                assert_eq!(ta.cmp(&tb), ba.cmp(&bb), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn display_forms() {
        let t = tuple![1, "x"];
        assert_eq!(t.to_string(), "(1, x)");
        assert_eq!(format!("{t:?}"), "(1, \"x\")");
    }
}
