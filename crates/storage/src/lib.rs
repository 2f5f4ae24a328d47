//! # sj-storage — relational storage substrate
//!
//! This crate provides the data model underlying the reproduction of
//! Leinders & Van den Bussche, *"On the complexity of division and set joins
//! in the relational algebra"* (PODS 2005 / JCSS 2007).
//!
//! The paper works over an infinite, **totally ordered** universe `U` of
//! basic data values, finite **set-semantics** relations over `U`, and
//! databases assigning a finite relation to each relation name of a schema.
//! The corresponding types here are:
//!
//! * [`Value`] — an element of the universe `U`. Totally ordered
//!   ([`Ord`]), either an integer or a string.
//! * [`Tuple`] — a finite sequence of values, `(a₁, …, aₙ)`.
//! * [`Relation`] — a finite *set* of tuples of a fixed arity, stored
//!   canonically (sorted, deduplicated) so that set equality is structural
//!   equality and membership is a binary search. Each relation also
//!   carries a lazily built **columnar view** ([`Relation::columns`]) —
//!   an `i64` or a dictionary code per cell, and the one joint,
//!   order-preserving code space two relations' columns are compared in
//!   ([`column::joint_codes`]; see [`mod@column`]).
//! * [`Database`] — an assignment of relations to relation names, together
//!   with the notions the paper defines on databases: size (Definition 15 —
//!   the sum of relation cardinalities), active domain, tuple space
//!   (Definition 25) and guarded sets (Definition 9).
//! * [`Schema`] — a finite map from relation names to arities.
//!
//! In addition the crate provides substrate utilities used throughout the
//! workspace: a fast non-cryptographic hasher ([`hash::FxHasher`], the
//! FxHash algorithm) and ASCII table rendering for the `experiments`
//! binary ([`display`]).
//!
//! Everything in this crate is deterministic: iteration orders over
//! relations and databases are fully defined (sorted), so every experiment
//! in the workspace is reproducible bit-for-bit.

pub mod column;
pub mod database;
pub mod display;
pub mod error;
pub mod hash;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use column::{ColumnData, Columns, Dict};
pub use database::{Database, RelationMut, Snapshot};
pub use error::StorageError;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use relation::{ensure_u32_indexable, Relation};
pub use schema::Schema;
pub use tuple::Tuple;
pub use value::Value;

/// Result alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
