//! Elements of the totally ordered universe `U`.
//!
//! The paper assumes "an infinite, totally ordered universe U of basic data
//! values" (Section 2). Two of the paper's figures use integers (Figs. 3–5)
//! and one uses lexicographically ordered strings (Fig. 6), so [`Value`] is a
//! two-variant sum. The order is total: all integers sort before all strings,
//! integers by numeric order, strings lexicographically. Experiments only
//! ever mix variants deliberately.

use std::borrow::Cow;
use std::fmt;

/// A basic data value: an element of the universe `U`.
///
/// `Value` is totally ordered, hashable, cheap to clone (strings are
/// reference-counted), and has a defined display form used by the ASCII
/// table renderer.
///
/// ```
/// use sj_storage::Value;
/// let a = Value::int(3);
/// let b = Value::str("headache");
/// assert!(a < b); // integers sort before strings
/// assert!(Value::str("flu") < Value::str("lyme"));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An integer value. Used by the numeric figures (Figs. 3–5) and all
    /// synthetic workloads.
    Int(i64),
    /// A string value with lexicographic order. Used by Fig. 1
    /// (symptoms/diseases) and Fig. 6 (beer drinkers).
    Str(std::sync::Arc<str>),
}

impl Value {
    /// Construct an integer value.
    #[inline]
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Construct a string value.
    #[inline]
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(std::sync::Arc::from(s.as_ref()))
    }

    /// Return the integer payload, if this is an [`Value::Int`].
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// Return the string payload, if this is a [`Value::Str`].
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    /// A display form without quotes, used in rendered tables.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Int(v) => Cow::Owned(v.to_string()),
            Value::Str(s) => Cow::Borrowed(s),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_order_is_numeric() {
        assert!(Value::int(-5) < Value::int(0));
        assert!(Value::int(0) < Value::int(7));
        assert!(Value::int(7) == Value::int(7));
    }

    #[test]
    fn string_order_is_lexicographic() {
        assert!(Value::str("alex") < Value::str("bart"));
        assert!(Value::str("pareto bar") < Value::str("qwerty bar"));
        assert!(Value::str("westmalle") < Value::str("westvleteren"));
    }

    #[test]
    fn ints_sort_before_strings() {
        assert!(Value::int(i64::MAX) < Value::str(""));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(3).as_int(), Some(3));
        assert_eq!(Value::int(3).as_str(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from(3i32), Value::int(3));
        assert_eq!(Value::from(3usize), Value::int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from("s".to_string()), Value::str("s"));
    }

    #[test]
    fn display_and_render() {
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::str("flu").to_string(), "flu");
        assert_eq!(Value::int(42).render(), "42");
        assert_eq!(Value::str("flu").render(), "flu");
        assert_eq!(format!("{:?}", Value::int(1)), "1");
        assert_eq!(format!("{:?}", Value::str("a")), "\"a\"");
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let v = Value::str("a long-ish string value for sharing");
        let w = v.clone();
        assert_eq!(v, w);
    }
}
