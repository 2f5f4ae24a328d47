//! # sj-obs — observability primitives for the serving stack
//!
//! Two independent halves, both dependency-free and usable from the very
//! bottom of the workspace (`sj-storage` upward):
//!
//! * [`trace`] — a **zero-cost-when-off** structured tracing layer. Code
//!   marks regions with [`span!`]; a process-global pluggable
//!   [`Collector`] receives enter/exit events with key/value attributes.
//!   With no collector installed (the *null* configuration, the
//!   default), a span is one relaxed atomic load — no allocation, no
//!   lock, and the attribute expressions are never evaluated. The
//!   bundled [`RingCollector`] records spans into a fixed-capacity ring
//!   buffer whose snapshot, a [`TraceLog`], renders as a hierarchical
//!   trace and answers ancestry queries in tests.
//!
//! * [`metrics`] — a named-series [`Metrics`] registry: monotonic
//!   [`Counter`]s, [`Gauge`]s, NaN-proof running maxima ([`MaxGauge`]),
//!   and fixed-bucket latency [`Histogram`]s (p50/p95/p99 derivable),
//!   with deterministic Prometheus-style text exposition
//!   ([`Metrics::expose`]). `sj-server` registers its serving series in
//!   one of these registries and keeps the handles.
//!
//! The span taxonomy used across the workspace (see the README's
//! "Observability" section): `server.dispatch` → `server.query` →
//! `storage.snapshot` / `stats.analyze` / `plan.node` → `kernel.*` →
//! `kernel.partition`.

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MaxGauge, Metrics};
pub use trace::{
    current_span, enabled, install, uninstall, with_collector, with_parent, AttrValue, Collector,
    RingCollector, SpanGuard, SpanId, SpanRecord, TraceLog,
};
