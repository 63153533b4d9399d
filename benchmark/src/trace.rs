//! Harness-side tracing: spans recorded around the calls into each layer's
//! public functions, kept in memory and written out when the run ends. No
//! crate under `crates/` is instrumented; a layer's time is what its public
//! entry point took as seen from outside.

use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// The operation (one compile, one execute, one append, one read) this
    /// span belongs to; spans of one operation share it.
    pub op: u64,
    pub id: u64,
    /// The span that caused this one, `None` for an operation's root.
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counts taken at the same boundary (rows out, tokens, rules…).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// One thread's span recorder. Threads share the clock origin and take ids
/// from disjoint ranges, so their spans merge by concatenation.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u64) -> Tracer {
        Tracer {
            origin,
            next_id: thread << 40,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// A fresh id, for an operation or a span.
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Times `f` as a span of operation `op` under `parent`. `f` returns its
    /// result and the work counts to attach.
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> (T, Vec<(&'static str, f64)>),
    ) -> T {
        let start = self.origin.elapsed();
        let (out, counts) = f();
        let end = self.origin.elapsed();
        let id = self.next_id();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            counts,
        });
        out
    }

    /// Closes an operation's root span — opened at `start_ns`, before its
    /// children ran — now. Returns the end time.
    pub fn close_root(
        &mut self,
        op: u64,
        root: u64,
        name: &'static str,
        start_ns: u64,
        counts: Vec<(&'static str, f64)>,
    ) -> u64 {
        let end_ns = self.now_ns();
        self.record(Span {
            op,
            id: root,
            parent: None,
            name,
            start_ns,
            end_ns,
            counts,
        });
        end_ns
    }

    /// Records a span whose bounds were measured elsewhere (a duration the
    /// engine reports itself).
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct LayerRow {
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    pub durations_ns: Vec<f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

/// The layer table: one row per span name, self time = span minus children.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.ns();
        }
    }
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.ns();
        row.self_ns += s
            .ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        row.durations_ns.push(s.ns() as f64);
        for (k, v) in &s.counts {
            *row.counts.entry(k).or_default() += v;
        }
    }
    table
}

pub fn print_layer_table(workload: &str, table: &BTreeMap<&'static str, LayerRow>) {
    eprintln!("layer table ({workload}): span, count, total ms, self ms, median us, work counts");
    for (name, row) in table {
        let counts: Vec<String> = row.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        eprintln!(
            "  {name:<22} {:>7} {:>11.3} {:>11.3} {:>11.1}  {}",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            median(&row.durations_ns) / 1e3,
            counts.join(" ")
        );
    }
}

/// One NDJSON line per span.
pub fn to_ndjson(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let mut fields = vec![
            ("workload", Json::str(workload)),
            ("op_id", Json::Num(s.op as f64)),
            ("id", Json::Num(s.id as f64)),
            ("name", Json::str(s.name)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ];
        fields.extend(s.counts.iter().map(|(k, v)| (*k, Json::Num(*v))));
        out.push_str(&Json::obj(fields).render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        let op = t.next_id();
        let root = t.next_id();
        let span = |id, parent, name, start_ns, end_ns| Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
            counts: vec![("rows", 2.0)],
        };
        t.record(span(root, None, "compile", 0, 100));
        t.record(span(root + 1, Some(root), "parse", 0, 30));
        t.record(span(root + 2, Some(root), "plan", 30, 90));
        let table = layer_table(&t.spans);
        assert_eq!(table["compile"].total_ns, 100);
        assert_eq!(table["compile"].self_ns, 10);
        assert_eq!(table["parse"].self_ns, 30);
        assert_eq!(table["plan"].counts["rows"], 2.0);
        let lines = to_ndjson("w", &t.spans);
        assert_eq!(lines.lines().count(), 3);
        assert!(crate::json::parse(lines.lines().next().unwrap()).is_ok());
    }

    #[test]
    fn threads_take_disjoint_ids() {
        let origin = Instant::now();
        let (mut a, mut b) = (Tracer::new(origin, 0), Tracer::new(origin, 1));
        assert_ne!(a.next_id(), b.next_id());
    }
}
