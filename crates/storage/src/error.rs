//! Error types for the storage layer.

use std::fmt;

/// Errors produced by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A tuple or relation had a different arity than required.
    ArityMismatch {
        /// The arity the operation required.
        expected: usize,
        /// The arity that was supplied.
        found: usize,
    },
    /// A relation name was not present in the schema/database.
    UnknownRelation(String),
    /// A column reference was out of range.
    ColumnOutOfRange {
        /// The 1-based column index used.
        column: usize,
        /// The arity it was checked against.
        arity: usize,
    },
    /// A relation exceeded the `u32::MAX`-row capacity of `u32` row
    /// indices ([`crate::relation::ensure_u32_indexable`]).
    RelationTooLarge {
        /// The offending row count.
        rows: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected}, found {found}")
            }
            StorageError::UnknownRelation(n) => write!(f, "unknown relation: {n}"),
            StorageError::ColumnOutOfRange { column, arity } => {
                write!(f, "column {column} out of range for arity {arity}")
            }
            StorageError::RelationTooLarge { rows } => {
                write!(
                    f,
                    "relation of {rows} rows exceeds the u32 index-view capacity ({})",
                    u32::MAX
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StorageError::ArityMismatch {
                expected: 2,
                found: 3
            }
            .to_string(),
            "arity mismatch: expected 2, found 3"
        );
        assert_eq!(
            StorageError::UnknownRelation("R".into()).to_string(),
            "unknown relation: R"
        );
        assert_eq!(
            StorageError::ColumnOutOfRange {
                column: 4,
                arity: 2
            }
            .to_string(),
            "column 4 out of range for arity 2"
        );
        assert_eq!(
            StorageError::RelationTooLarge {
                rows: 5_000_000_000
            }
            .to_string(),
            "relation of 5000000000 rows exceeds the u32 index-view capacity (4294967295)"
        );
    }
}
