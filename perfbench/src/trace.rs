//! In-memory spans for the traced run, their JSONL file, and the
//! per-layer self-time table computed from that file.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. A span's
//! self time is its duration minus the part covered by its children.

use hyperm_telemetry::{JsonObj, JsonValue};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of an operation's root span.
pub const ROOT: u32 = 0;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id (1-based, unique in a run).
    pub id: u32,
    /// Parent span id, [`ROOT`] for an operation's root.
    pub parent: u32,
    /// Operation the span belongs to.
    pub op: u32,
    /// Layer name (root spans carry the operation kind).
    pub name: Cow<'static, str>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub(crate) struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Empty tracer; times count from now.
    pub(crate) fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished interval; returns its id.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            op,
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span now; finish it with [`Tracer::close`].
    pub(crate) fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    /// End span `id` now.
    pub(crate) fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Run `f` inside a span.
    pub(crate) fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, op, start, Instant::now());
        out
    }

    /// The recorded spans.
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Spans as JSONL, one object per line.
pub(crate) fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let line = JsonObj::new()
            .u("id", u64::from(s.id))
            .u("parent", u64::from(s.parent))
            .u("op", u64::from(s.op))
            .s("name", &s.name)
            .u("start_ns", s.start_ns)
            .u("end_ns", s.end_ns)
            .render();
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parse [`to_jsonl`] output.
pub(crate) fn parse_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = JsonValue::parse(line).map_err(|e| format!("span line {}: {e}", i + 1))?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("span line {}: missing {k}", i + 1))
            };
            let small = |k: &str| {
                num(k).and_then(|n| u32::try_from(n).map_err(|_| format!("{k} out of range")))
            };
            Ok(Span {
                id: small("id")?,
                parent: small("parent")?,
                op: small("op")?,
                name: Cow::Owned(
                    v.get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("span line {}: missing name", i + 1))?
                        .to_string(),
                ),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
            })
        })
        .collect()
}

/// Self time of every span (same order as `spans`): duration minus the
/// durations of its children, never below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-operation-kind totals from a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct OpLayers {
    /// Operations of this kind.
    pub(crate) ops: u64,
    /// Summed duration of their root spans, ns.
    pub(crate) op_ns: u64,
    /// Summed self time per layer, ns. The root span's own self time is
    /// listed under the operation kind's name.
    pub(crate) self_ns: BTreeMap<String, u64>,
}

impl OpLayers {
    /// Mean self time of `layer` per operation, µs.
    pub(crate) fn mean_us(&self, layer: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.ops as f64 / 1e3
    }

    /// Mean op duration, µs.
    pub(crate) fn op_mean_us(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.op_ns as f64 / self.ops as f64 / 1e3
    }
}

/// Group self times by the kind of the operation each span belongs to
/// (the name of the operation's root span).
pub(crate) fn layers_by_op(spans: &[Span]) -> BTreeMap<String, OpLayers> {
    let selfs = self_times(spans);
    let kind: BTreeMap<u32, &str> = spans
        .iter()
        .filter(|s| s.parent == ROOT)
        .map(|s| (s.op, s.name.as_ref()))
        .collect();
    let mut out: BTreeMap<String, OpLayers> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let Some(k) = kind.get(&s.op) else { continue };
        let entry = out.entry((*k).to_string()).or_default();
        if s.parent == ROOT {
            entry.ops += 1;
            entry.op_ns += s.dur_ns();
        }
        *entry.self_ns.entry(s.name.to_string()).or_default() += self_ns;
    }
    out
}

/// The self-time table: per operation kind, each layer's mean self time
/// and its share of the traced op time and of a reference latency (the
/// untraced p50 of that kind, when given).
pub(crate) fn render_table(
    workload: &str,
    layers: &BTreeMap<String, OpLayers>,
    reference_ms: &BTreeMap<String, f64>,
) -> String {
    let mut out = String::new();
    for (kind, l) in layers {
        let reference = reference_ms.get(kind).copied();
        let _ = writeln!(
            out,
            "per-layer self time: {workload}, {} {kind} ops, traced mean {:.1} us{}",
            l.ops,
            l.op_mean_us(),
            reference.map_or(String::new(), |r| format!(
                ", untraced {kind}_p50 {:.4} ms",
                r
            ))
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12} {:>12}",
            "layer", "us/op", "% of op", "% of p50"
        );
        let mut rows: Vec<(&String, &u64)> = l.self_ns.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (layer, _) in rows {
            let us = l.mean_us(layer);
            let of_op = 100.0 * us / l.op_mean_us().max(1e-12);
            let of_ref = reference.map_or("-".to_string(), |r| {
                format!("{:.1}", 100.0 * us / (r * 1e3).max(1e-12))
            });
            let label = if layer == kind {
                format!("{layer} (harness)")
            } else {
                layer.clone()
            };
            let _ = writeln!(out, "  {label:<28} {us:>12.2} {of_op:>12.1} {of_ref:>12}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, op: u32, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name: Cow::Borrowed(name),
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_roundtrips() {
        let spans = vec![
            span(1, ROOT, 0, "query", 0, 100),
            span(2, 1, 0, "can.flood.l0", 10, 40),
            span(3, 1, 0, "core.score", 40, 90),
            span(4, 3, 0, "inner", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10]);
        assert_eq!(parse_jsonl(&to_jsonl(&spans)).unwrap(), spans);
        let by_op = layers_by_op(&spans);
        assert_eq!(by_op["query"].ops, 1);
        assert_eq!(by_op["query"].self_ns["core.score"], 40);
    }
}
