//! Database schemas: finite maps from relation names to arities.

use crate::error::StorageError;
use std::collections::BTreeMap;
use std::fmt;

/// A database schema `S`: a finite set of relation names, each with an
/// associated arity (Section 2 of the paper).
///
/// ```
/// use sj_storage::Schema;
/// // Ullman's beer-drinkers schema from Example 3.
/// let s = Schema::new([("Likes", 2), ("Serves", 2), ("Visits", 2)]);
/// assert_eq!(s.arity_of("Serves"), Some(2));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    arities: BTreeMap<String, usize>,
}

impl Schema {
    /// Build a schema from `(name, arity)` pairs. Later duplicates of a name
    /// override earlier ones.
    pub fn new<N: Into<String>>(relations: impl IntoIterator<Item = (N, usize)>) -> Self {
        Schema {
            arities: relations.into_iter().map(|(n, a)| (n.into(), a)).collect(),
        }
    }

    /// The empty schema.
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Add or replace a relation name.
    pub fn add(&mut self, name: impl Into<String>, arity: usize) {
        self.arities.insert(name.into(), arity);
    }

    /// Arity of `name`, or `None` if the name is not in the schema.
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        self.arities.get(name).copied()
    }

    /// Arity of `name`, as an error-producing lookup.
    pub fn require(&self, name: &str) -> crate::Result<usize> {
        self.arity_of(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// True iff the schema contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.arities.contains_key(name)
    }

    /// Number of relation names.
    pub fn len(&self) -> usize {
        self.arities.len()
    }

    /// True iff there are no relation names.
    pub fn is_empty(&self) -> bool {
        self.arities.is_empty()
    }

    /// Iterate `(name, arity)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.arities.iter().map(|(n, a)| (n.as_str(), *a))
    }

    /// The names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.arities.keys().map(|n| n.as_str())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, a)) in self.arities.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}/{a}")?;
        }
        write!(f, "}}")
    }
}

impl<N: Into<String>> FromIterator<(N, usize)> for Schema {
    fn from_iter<I: IntoIterator<Item = (N, usize)>>(iter: I) -> Self {
        Schema::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let s = Schema::new([("R", 3), ("S", 3), ("T", 2)]);
        assert_eq!(s.arity_of("R"), Some(3));
        assert_eq!(s.arity_of("T"), Some(2));
        assert_eq!(s.arity_of("X"), None);
        assert!(s.contains("S"));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn require_errors_on_missing() {
        let s = Schema::new([("R", 1)]);
        assert!(s.require("R").is_ok());
        assert!(matches!(
            s.require("Q"),
            Err(StorageError::UnknownRelation(n)) if n == "Q"
        ));
    }

    #[test]
    fn iteration_is_name_sorted() {
        let s = Schema::new([("Z", 1), ("A", 2)]);
        let names: Vec<_> = s.names().collect();
        assert_eq!(names, vec!["A", "Z"]);
    }

    #[test]
    fn display() {
        let s = Schema::new([("R", 3), ("T", 2)]);
        assert_eq!(s.to_string(), "{R/3, T/2}");
        assert_eq!(Schema::empty().to_string(), "{}");
    }

    #[test]
    fn add_overrides() {
        let mut s = Schema::empty();
        s.add("R", 1);
        s.add("R", 4);
        assert_eq!(s.arity_of("R"), Some(4));
    }
}
