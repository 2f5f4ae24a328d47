//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A [`SpanLog`] is one thread's preallocated `Vec` of
//! `{name, start, end, parent, op_id}`; nothing is written anywhere until
//! the run ends. The program's internal `sj-obs` spans are deliberately
//! not consumed, so they can be reworked without renaming a metric here.

use std::io::Write;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation this span belongs to; spans of one op share it.
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. A disabled log records nothing and never
/// reads the clock, so the same loop body serves traced and untraced rounds.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// A recording log with room for `capacity` spans; times are offsets
    /// from `origin` so logs of several threads share one axis.
    pub fn recording(origin: Instant, capacity: usize) -> SpanLog {
        SpanLog {
            origin,
            enabled: true,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    pub fn disabled() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, op_id: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Time `f` as a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> T) -> T {
        self.enter(name, op_id);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }
}

/// Self time of every span: its duration minus its direct children's. A
/// log is one thread's, so the children of a span never overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.duration_ns();
        }
    }
    own
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

/// Write the logs of one workload (one per client thread) as JSON.
pub fn write_json(out: &mut impl Write, workload: &str, logs: &[SpanLog]) -> std::io::Result<()> {
    write!(out, "{{\"workload\":\"{workload}\",\"threads\":[")?;
    for (t, log) in logs.iter().enumerate() {
        if t > 0 {
            out.write_all(b",")?;
        }
        out.write_all(b"[")?;
        for (i, s) in log.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        out.write_all(b"]")?;
    }
    out.write_all(b"]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("plan", 10, 30, 0),
            span("execute", 40, 90, 0),
            // A grandchild shortens its parent, not its grandparent.
            span("kernel", 50, 80, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 20, 30]);
        assert_eq!(
            self_time_by_name(&spans),
            vec![("op", 30), ("plan", 20), ("execute", 20), ("kernel", 30)]
        );
    }

    #[test]
    fn log_nests_by_enter_order_and_disabled_log_stays_empty() {
        let mut log = SpanLog::recording(Instant::now(), 8);
        log.enter("op", 7);
        log.span("query", 7, || ());
        log.span("check", 7, || ());
        log.exit();
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert!(s.iter().all(|x| x.op_id == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);

        let mut off = SpanLog::disabled();
        off.span("op", 0, || ());
        assert!(off.spans().is_empty());
    }
}
