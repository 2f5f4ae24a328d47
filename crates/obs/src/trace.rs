//! Structured tracing: spans, the pluggable collector, and the ring
//! buffer.
//!
//! A *span* is a named region of execution with key/value attributes
//! and a parent — the innermost span open on the same thread. Spans are
//! emitted with the [`crate::span!`] macro and delivered to the
//! process-global [`Collector`].
//!
//! ## The null fast path
//!
//! With no collector installed, [`enabled`] is false and
//! [`crate::span!`] compiles down to one relaxed atomic load: the
//! attribute expressions are **not evaluated**, nothing allocates, no
//! lock is touched, and the returned [`SpanGuard`] is inert (its `Drop`
//! does nothing). `crates/obs/tests/alloc.rs` pins the zero-allocation
//! property with a counting global allocator; the benchmark's
//! `obs.span_off_ns` times the site and `bench.trace_overhead_share`
//! the traced share of a workload.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Identifier of one span within a collector, unique for the
/// collector's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One span attribute value. Constructed through `From` impls so call
/// sites write plain literals (`rows = out.len()`).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (the common case: row counts, worker counts).
    Uint(u64),
    /// Floating point.
    Float(f64),
    /// Static string (operator names, labels known at compile time).
    Str(&'static str),
    /// Owned string (dynamic labels). Allocates — only ever constructed
    /// when a collector is installed, because the [`crate::span!`]
    /// macro skips attribute evaluation on the null path.
    Text(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Uint(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v:.3}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Text(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! attr_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue { AttrValue::$variant(v as $conv) }
        })*
    };
}
attr_from!(i64 => Int as i64, i32 => Int as i64, u64 => Uint as u64,
           u32 => Uint as u64, usize => Uint as u64, f64 => Float as f64);

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Text(v)
    }
}

/// Receives span events. Implementations must be cheap and lock-light:
/// `enter`/`exit` run on query hot paths whenever a collector is
/// installed.
pub trait Collector: Send + Sync {
    /// A span opened: allocate and return its id.
    fn enter(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        attrs: &[(&'static str, AttrValue)],
    ) -> SpanId;

    /// The span closed; `attrs` are attributes recorded after entry
    /// (e.g. output cardinalities known only once the operator ran).
    fn exit(&self, id: SpanId, attrs: &[(&'static str, AttrValue)]);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);

thread_local! {
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// Is a collector installed? One relaxed load — this is the whole cost
/// of a span on the null path, and the guard the [`crate::span!`] macro
/// evaluates before touching any attribute expression.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `collector` as the process-global span sink. Spans opened
/// while it is installed are delivered to it; spans already open keep
/// the collector they started under.
pub fn install(collector: Arc<dyn Collector>) {
    *COLLECTOR.write().expect("collector lock poisoned") = Some(collector);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Remove the global collector, returning every subsequent span to the
/// null fast path.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
    *COLLECTOR.write().expect("collector lock poisoned") = None;
}

/// Run `f` with `collector` installed, then uninstall. The install is
/// process-global, so concurrent callers share the collector —
/// serialize tests that inspect what was recorded.
pub fn with_collector<R>(collector: Arc<dyn Collector>, f: impl FnOnce() -> R) -> R {
    install(collector);
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            uninstall();
        }
    }
    let _guard = Uninstall;
    f()
}

fn collector() -> Option<Arc<dyn Collector>> {
    COLLECTOR.read().expect("collector lock poisoned").clone()
}

/// An open span; closes (delivers `exit`) on drop. Inert when tracing
/// was off at entry: dropping it does nothing and [`SpanGuard::attr`]
/// is a no-op.
pub struct SpanGuard {
    active: Option<(Arc<dyn Collector>, SpanId)>,
    close_attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanGuard {
    /// The inert guard the null path returns. `Vec::new` does not
    /// allocate, so this is allocation-free.
    #[inline(always)]
    pub fn noop() -> SpanGuard {
        SpanGuard {
            active: None,
            close_attrs: Vec::new(),
        }
    }

    /// Record an attribute to be delivered at exit (for values known
    /// only after the work ran, like output cardinalities). No-op on an
    /// inert guard.
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.active.is_some() {
            self.close_attrs.push((key, value.into()));
        }
    }

    /// This span's id, when a collector is recording it.
    pub fn id(&self) -> Option<SpanId> {
        self.active.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((collector, id)) = self.active.take() {
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last() == Some(&id) {
                    stack.pop();
                } else if let Some(pos) = stack.iter().rposition(|&x| x == id) {
                    // Out-of-order drop (guards stored past inner
                    // spans): remove just this entry.
                    stack.remove(pos);
                }
            });
            collector.exit(id, &self.close_attrs);
        }
    }
}

/// Open a span. Prefer the [`crate::span!`] macro, which skips
/// attribute evaluation entirely on the null path.
pub fn span_enter(name: &'static str, attrs: &[(&'static str, AttrValue)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard::noop();
    }
    let Some(c) = collector() else {
        return SpanGuard::noop();
    };
    let parent = STACK.with(|s| s.borrow().last().copied());
    let id = c.enter(name, parent, attrs);
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        active: Some((c, id)),
        close_attrs: Vec::new(),
    }
}

/// Open a span: `span!("kernel.join", left = r1.len(), workers = w)`.
///
/// The attribute expressions are evaluated **only when a collector is
/// installed** — on the null path the macro costs one relaxed atomic
/// load and returns an inert [`SpanGuard`]. Bind the result
/// (`let _span = span!(…)` or `let mut span = span!(…)` to add exit
/// attributes); an unbound span closes immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span_enter($name, &[])
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::span_enter(
                $name,
                &[$((stringify!($key), $crate::trace::AttrValue::from($value))),+],
            )
        } else {
            $crate::trace::SpanGuard::noop()
        }
    };
}

// ---------------------------------------------------------------------------
// Ring-buffer collector and the trace log
// ---------------------------------------------------------------------------

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Collector-unique id.
    pub id: SpanId,
    /// Parent span at entry: the innermost span open on the same
    /// thread.
    pub parent: Option<SpanId>,
    /// Span name (`kernel.join`, `server.dispatch`, …).
    pub name: &'static str,
    /// Entry attributes followed by exit attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Nanoseconds from collector creation to entry.
    pub start_ns: u64,
    /// Nanoseconds from collector creation to exit; `None` while open
    /// (or if the ring evicted the record before exit).
    pub end_ns: Option<u64>,
}

impl SpanRecord {
    /// Enter-to-exit wall time, when the span closed.
    pub fn duration(&self) -> Option<Duration> {
        self.end_ns
            .map(|end| Duration::from_nanos(end.saturating_sub(self.start_ns)))
    }

    /// Look up an attribute by key (first occurrence).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// An attribute as `u64`, converting the numeric variants.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key)? {
            AttrValue::Uint(v) => Some(*v),
            AttrValue::Int(v) => u64::try_from(*v).ok(),
            AttrValue::Float(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }
}

struct RingState {
    slots: Vec<SpanRecord>,
    /// `SpanId → slot`, maintained across ring wrap-around.
    index: HashMap<u64, usize>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    evicted: u64,
}

/// A fixed-capacity ring-buffer [`Collector`]: keeps the most recent
/// `capacity` spans with enter/exit timestamps and attributes,
/// overwriting the oldest on overflow. Snapshot with
/// [`RingCollector::log`].
pub struct RingCollector {
    epoch: Instant,
    next_id: AtomicU64,
    state: Mutex<RingState>,
    capacity: usize,
}

impl RingCollector {
    /// A ring holding up to `capacity` spans (min 1).
    pub fn new(capacity: usize) -> RingCollector {
        let capacity = capacity.max(1);
        RingCollector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            state: Mutex::new(RingState {
                slots: Vec::with_capacity(capacity.min(1024)),
                index: HashMap::new(),
                head: 0,
                evicted: 0,
            }),
            capacity,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Snapshot the ring into a [`TraceLog`] (records in entry order).
    pub fn log(&self) -> TraceLog {
        let state = self.state.lock().expect("ring poisoned");
        let mut records = state.slots.clone();
        records.sort_by_key(|r| (r.start_ns, r.id));
        TraceLog {
            records,
            evicted: state.evicted,
        }
    }

    /// Forget everything recorded so far.
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("ring poisoned");
        state.slots.clear();
        state.index.clear();
        state.head = 0;
        state.evicted = 0;
    }
}

impl Collector for RingCollector {
    fn enter(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        attrs: &[(&'static str, AttrValue)],
    ) -> SpanId {
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let record = SpanRecord {
            id,
            parent,
            name,
            attrs: attrs.to_vec(),
            start_ns: self.now_ns(),
            end_ns: None,
        };
        let mut state = self.state.lock().expect("ring poisoned");
        if state.slots.len() < self.capacity {
            let slot = state.slots.len();
            state.slots.push(record);
            state.index.insert(id.0, slot);
        } else {
            let slot = state.head;
            state.head = (state.head + 1) % self.capacity;
            let old = std::mem::replace(&mut state.slots[slot], record);
            state.index.remove(&old.id.0);
            state.index.insert(id.0, slot);
            state.evicted += 1;
        }
        id
    }

    fn exit(&self, id: SpanId, attrs: &[(&'static str, AttrValue)]) {
        let end = self.now_ns();
        let mut state = self.state.lock().expect("ring poisoned");
        if let Some(&slot) = state.index.get(&id.0) {
            let record = &mut state.slots[slot];
            record.end_ns = Some(end);
            record.attrs.extend_from_slice(attrs);
        }
    }
}

/// A point-in-time snapshot of a [`RingCollector`]: the raw material
/// for hierarchical rendering ([`TraceLog::render`]) and for ancestry
/// queries over the recorded spans ([`TraceLog::has_ancestor`]).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Recorded spans in entry order.
    pub records: Vec<SpanRecord>,
    /// Spans overwritten by ring wrap-around before this snapshot.
    pub evicted: u64,
}

impl TraceLog {
    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The spans named `name`, in entry order.
    pub fn spans<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.records.iter().filter(move |r| r.name == name)
    }

    /// Look up a span by id.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Does `record` have an ancestor (transitively) named
    /// `ancestor_name`? Used by tests to pin the trace hierarchy.
    pub fn has_ancestor(&self, record: &SpanRecord, ancestor_name: &str) -> bool {
        let mut cursor = record.parent;
        while let Some(pid) = cursor {
            match self.get(pid) {
                Some(p) if p.name == ancestor_name => return true,
                Some(p) => cursor = p.parent,
                None => return false,
            }
        }
        false
    }

    /// Render the hierarchical trace: one line per span, children
    /// indented under parents, durations in microseconds, attributes
    /// appended `key=value`. Spans whose parent was evicted render as
    /// roots.
    pub fn render(&self) -> String {
        let mut children: HashMap<Option<SpanId>, Vec<usize>> = HashMap::new();
        let known: std::collections::HashSet<SpanId> = self.records.iter().map(|r| r.id).collect();
        for (i, r) in self.records.iter().enumerate() {
            let parent = r.parent.filter(|p| known.contains(p));
            children.entry(parent).or_default().push(i);
        }
        let mut out = String::new();
        fn emit(
            log: &TraceLog,
            children: &HashMap<Option<SpanId>, Vec<usize>>,
            key: Option<SpanId>,
            depth: usize,
            out: &mut String,
        ) {
            let Some(ids) = children.get(&key) else {
                return;
            };
            for &i in ids {
                let r = &log.records[i];
                let dur = match r.duration() {
                    Some(d) => format!("{:.1}µs", d.as_nanos() as f64 / 1_000.0),
                    None => "open".to_string(),
                };
                let attrs: String = r
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("  {k}={v}"))
                    .collect::<Vec<_>>()
                    .join("");
                out.push_str(&format!(
                    "{:indent$}{} [{dur}]{attrs}\n",
                    "",
                    r.name,
                    indent = depth * 2
                ));
                emit(log, children, Some(r.id), depth + 1, out);
            }
        }
        emit(self, &children, None, 0, &mut out);
        if self.evicted > 0 {
            out.push_str(&format!(
                "({} spans evicted by ring overflow)\n",
                self.evicted
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The collector slot is process-global; serialize tests that use it.
    static GLOBAL: StdMutex<()> = StdMutex::new(());

    #[test]
    fn null_path_records_nothing_and_is_inert() {
        let _lock = GLOBAL.lock().unwrap();
        uninstall();
        assert!(!enabled());
        let mut g = crate::span!("test.null", rows = 5usize);
        g.attr("out", 7usize);
        assert_eq!(g.id(), None);
        drop(g);
    }

    #[test]
    fn ring_collector_records_hierarchy_and_attrs() {
        let _lock = GLOBAL.lock().unwrap();
        let ring = Arc::new(RingCollector::new(16));
        with_collector(ring.clone(), || {
            let mut outer = crate::span!("outer", left = 3usize);
            {
                let _inner = crate::span!("inner", right = 4usize);
            }
            outer.attr("out", 12usize);
        });
        let log = ring.log();
        assert_eq!(log.len(), 2);
        let outer = log.spans("outer").next().unwrap();
        let inner = log.spans("inner").next().unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.attr_u64("left"), Some(3));
        assert_eq!(outer.attr_u64("out"), Some(12));
        assert!(outer.duration().is_some());
        assert!(log.has_ancestor(inner, "outer"));
        assert!(!log.has_ancestor(outer, "inner"));
        let rendered = log.render();
        let outer_at = rendered.find("outer [").unwrap();
        let inner_at = rendered.find("  inner [").unwrap();
        assert!(
            inner_at > outer_at,
            "child indented under parent:\n{rendered}"
        );
    }

    #[test]
    fn ring_overflow_evicts_oldest() {
        let _lock = GLOBAL.lock().unwrap();
        let ring = Arc::new(RingCollector::new(2));
        with_collector(ring.clone(), || {
            for _ in 0..5 {
                let _g = crate::span!("tick");
            }
        });
        let log = ring.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.evicted, 3);
        assert!(log.render().contains("3 spans evicted"));
        // The survivors are the most recent entries, and both closed.
        assert!(log.records.iter().all(|r| r.end_ns.is_some()));
    }

    #[test]
    fn install_uninstall_toggle_enabled() {
        let _lock = GLOBAL.lock().unwrap();
        assert!(!enabled());
        install(Arc::new(RingCollector::new(4)));
        assert!(enabled());
        uninstall();
        assert!(!enabled());
    }
}
