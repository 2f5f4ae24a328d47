//! # sj-stats — statistics and the cost model for cost-based selection
//!
//! The paper's contribution is a *complexity map*: which division /
//! set-join algorithms exist in which running-time class (Definition
//! 16), and which classes a query processor is condemned to inside
//! plain RA. Turning that map into an actual **algorithm choice**
//! needs one more ingredient the paper assumes away: knowledge of the
//! input. This crate supplies it:
//!
//! * [`TableStats::analyze`] — `ANALYZE` for a relation:
//!   per-column distinct counts, min/max, equi-width [`Histogram`]s,
//!   and the set-join view (group count and set-size moments) for
//!   binary relations.
//! * [`StatsCatalog`] — cached statistics per relation name,
//!   invalidated by the version `Database` stamps each relation's
//!   contents with; [`StatsSource`] is the read interface the estimator
//!   and the planner consume ([`CatalogSource`] binds a catalog to a
//!   database).
//! * [`CostModel`] — seven unit costs in tuple-operation units, stated
//!   once in its `Default`. The `sj-setjoin` registry combines them
//!   with input statistics into a scalar cost to pick the cheapest
//!   algorithm (the `sj-eval` planner's division nodes included).
//!   [`ComplexityClass`] (Definition 16's classes for the
//!   direct algorithms) lives beside it, at the bottom of the crate
//!   graph, and is re-exported by `sj-setjoin`.
//! * [`Estimator`] — cardinality estimation for algebra expressions
//!   (histogram selectivities, distinct-count join estimates capped by
//!   the AGM product bound, group-statistics division estimates —
//!   [`division_rows`], [`containment_selectivity`]).
//!
//! Everything is deterministic and exact-input-driven: `analyze` scans
//! the full relation (no sampling), so two runs over equal relations
//! produce identical statistics, estimates, and therefore identical
//! plans and algorithm picks.

pub mod catalog;
pub mod cost;
pub mod estimate;
pub mod histogram;
pub mod table;

pub use catalog::{CatalogSource, StatsCatalog, StatsSource};
pub use cost::{ComplexityClass, CostModel};
pub use estimate::{
    containment_selectivity, cycle_agm_bound, division_rows, eq_join_rows_skewed, join_est,
    CardEst, ColEst, Estimator,
};
pub use histogram::{Histogram, StringHistogram};
pub use table::{ColumnStats, GroupStats, TableStats};
