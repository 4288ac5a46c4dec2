//! In-memory spans and counters recorded around calls into the program's
//! public API, plus the per-layer self-time table built from them.
//!
//! A disabled tracer records nothing: [`Tracer::span`] just runs its body,
//! so the untraced end-to-end timings pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, `layer.call` (e.g. `serve.drain`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (cell, message, pass) the span belongs to.
    pub op: u64,
    /// Whether the span times a constituent call re-run beside a
    /// composite one (see [`Tracer::constituents`]).
    pub constituent: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and counter recorder for one traced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    op: u64,
    constituent: bool,
}

impl Tracer {
    /// A tracer that records when `enabled`, and is a no-op otherwise.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            op: 0,
            constituent: false,
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation id; later spans carry it.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `body` inside a span called `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return body(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            constituent: self.constituent,
        });
        self.stack.push(index);
        let out = body(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Runs `body` with every span inside it marked as a constituent:
    /// a public call re-timed on its own beside the composite call that
    /// contains it (so its time is not part of the composite's tree).
    pub fn constituents<T>(&mut self, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let before = self.constituent;
        self.constituent = true;
        let out = body(self);
        self.constituent = before;
        out
    }

    /// Adds `by` to the counter `name` (when enabled).
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += by;
        }
    }

    /// The counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.duration_ns()))
            .collect()
    }

    /// Total duration (ms) of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// The spans and counters as JSON lines: one object per span, then one
    /// per counter.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"constituent\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.constituent
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}");
        }
        out
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Whether the row times constituent calls.
    pub constituent: bool,
    /// Number of spans.
    pub calls: usize,
    /// Summed duration (ms).
    pub total_ms: f64,
    /// Summed self time (ms).
    pub self_ms: f64,
}

/// Spans grouped by (name, constituent), in order of first appearance.
pub fn layer_rows(spans: &[Span]) -> Vec<LayerRow> {
    let self_ns = self_times_ns(spans);
    let mut rows: Vec<LayerRow> = Vec::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let at =
            rows.iter().position(|r| r.name == s.name && r.constituent == s.constituent);
        let i = at.unwrap_or_else(|| {
            rows.push(LayerRow {
                name: s.name,
                constituent: s.constituent,
                calls: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            rows.len() - 1
        });
        let row = &mut rows[i];
        row.calls += 1;
        row.total_ms += ms(s.duration_ns());
        row.self_ms += ms(own);
    }
    rows
}

/// The per-layer table as aligned text.
pub fn render_layer_table(rows: &[LayerRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>12} {:>12}  kind",
        "layer", "calls", "total_ms", "self_ms"
    );
    for r in rows {
        let kind =
            if r.constituent { "constituent (timed beside its composite)" } else { "" };
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>12.3} {:>12.3}  {kind}",
            r.name, r.calls, r.total_ms, r.self_ms
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0, constituent: false }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 15, 40, 5]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 160, Some(0)),
            // Ends past its parent: only the covered part counts.
            span("z", 190, 230, Some(0)),
        ];
        // Covered: [110,160) = 50 plus [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn rows_group_by_name_and_kind() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        t.constituents(|t| t.span("inner", |_| ()));
        let rows = layer_rows(t.spans());
        let names: Vec<_> =
            rows.iter().map(|r| (r.name, r.constituent, r.calls)).collect();
        assert_eq!(
            names,
            vec![("outer", false, 1), ("inner", false, 2), ("inner", true, 1)]
        );
        let outer = &rows[0];
        let inner_total = rows[1].total_ms;
        assert!((outer.self_ms - (outer.total_ms - inner_total)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| {
            t.count("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0.0);
    }
}
