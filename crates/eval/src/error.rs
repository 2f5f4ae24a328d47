//! Evaluation errors.

use sj_algebra::AlgebraError;
use sj_storage::StorageError;
use std::fmt;

/// Errors produced during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The expression failed validation (unknown relation, arity error, …).
    Algebra(AlgebraError),
    /// A storage operation failed.
    Storage(StorageError),
    /// A division/set-join operand has the wrong shape (division needs a
    /// binary dividend and a unary divisor; set joins need two binary
    /// operands).
    InvalidSetOperand {
        /// Relation name as passed to the engine.
        relation: String,
        /// Its stored arity.
        arity: usize,
        /// The arity the operator requires.
        expected: usize,
    },
    /// The planner's statistics source has nothing for a relation the
    /// (validated) expression reads. Every plan is costed, so this is
    /// an error rather than a silent un-costed plan; the engine's own
    /// catalog analyzes on demand and never produces it.
    MissingStatistics(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Algebra(e) => write!(f, "algebra error: {e}"),
            EvalError::Storage(e) => write!(f, "storage error: {e}"),
            EvalError::InvalidSetOperand {
                relation,
                arity,
                expected,
            } => write!(
                f,
                "relation {relation:?} has arity {arity}, the set operator needs {expected}"
            ),
            EvalError::MissingStatistics(relation) => {
                write!(f, "no statistics for relation {relation:?}")
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Algebra(e) => Some(e),
            EvalError::Storage(e) => Some(e),
            EvalError::InvalidSetOperand { .. } | EvalError::MissingStatistics(_) => None,
        }
    }
}

impl From<AlgebraError> for EvalError {
    fn from(e: AlgebraError) -> Self {
        EvalError::Algebra(e)
    }
}

impl From<StorageError> for EvalError {
    fn from(e: StorageError) -> Self {
        EvalError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = EvalError::Algebra(AlgebraError::UnknownRelation("R".into()));
        assert!(e.to_string().contains("unknown relation"));
        assert!(e.source().is_some());
        let s = EvalError::Storage(StorageError::UnknownRelation("R".into()));
        assert!(s.to_string().contains("storage error"));
        assert!(s.source().is_some());
    }
}
