//! Spans the harness records around the calls it makes into each
//! layer. They are kept in memory while a pass runs and written out at
//! exit. Clocks never cross the wire: what the server reports about a
//! request travels as *durations*, attached to the request's root span
//! as attributes.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json::Json;

/// The root span of every request: client submit → reply in hand.
pub const ROOT: &str = "request";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request ID; spans of one request share it.
    pub trace: u64,
    pub name: &'static str,
    /// Name of the span (same trace) that caused this one.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Durations measured elsewhere (the server's stage times), µs.
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer; buffers are concatenated after the join.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        trace: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) -> &mut Span {
        self.spans.push(Span {
            trace,
            name,
            parent,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        });
        self.spans.last_mut().expect("just pushed")
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent and merged
/// where they overlap each other, so nothing is subtracted twice.
pub fn self_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.dur_ns() - covered
}

/// Per span name: how many, total time and total self time (µs).
pub fn summary(spans: &[Span]) -> Json {
    let mut by_trace: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    // name → (count, total ns, self ns)
    let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for group in by_trace.values() {
        for s in group {
            let children: Vec<&Span> = group
                .iter()
                .copied()
                .filter(|c| c.parent == Some(s.name))
                .collect();
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns(s, &children);
        }
    }
    let mut out = Json::obj();
    for (name, (count, total, own)) in acc {
        let mut row = Json::obj();
        row.set("count", count)
            .set("total_us", total as f64 / 1e3)
            .set("self_us", own as f64 / 1e3);
        out.set(name, row);
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut j = Json::obj();
        j.set("trace", s.trace)
            .set("name", s.name)
            .set("parent", s.parent.map_or(Json::Null, Json::from))
            .set("start_ns", s.start_ns)
            .set("end_ns", s.end_ns);
        for (k, v) in &s.attrs {
            j.set(k, *v);
        }
        writeln!(w, "{j}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, start: u64, end: u64) -> Span {
        Span {
            trace: 7,
            name,
            parent,
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let root = span(ROOT, None, 100, 1100);
        let submit = span("client.submit", Some(ROOT), 100, 300);
        let recv = span("client.recv", Some(ROOT), 700, 1100);
        assert_eq!(self_ns(&root, &[&submit, &recv]), 1000 - 200 - 400);
        assert_eq!(self_ns(&root, &[]), 1000);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_subtracted_twice() {
        let root = span(ROOT, None, 1000, 2000);
        // A reader blocked in `read` before the request was even sent:
        // only the part inside the parent counts.
        let early = span("client.recv", Some(ROOT), 400, 1500);
        let overlap = span("client.recv", Some(ROOT), 1400, 1600);
        let past = span("client.recv", Some(ROOT), 1900, 2600);
        assert_eq!(self_ns(&root, &[&early, &overlap, &past]), 1000 - 600 - 100);
        // A child that covers the parent entirely leaves no self time.
        let all = span("x", Some(ROOT), 0, 5000);
        assert_eq!(self_ns(&root, &[&all]), 0);
    }

    #[test]
    fn summary_groups_children_by_trace_and_parent_name() {
        let mut spans = vec![
            span(ROOT, None, 0, 1000),
            span("client.submit", Some(ROOT), 0, 250),
        ];
        let mut other = span(ROOT, None, 0, 4000);
        other.trace = 8;
        spans.push(other);
        let s = summary(&spans);
        let root = s.get(ROOT).unwrap();
        assert_eq!(root.get("count").unwrap().num(), Some(2.0));
        assert_eq!(root.get("total_us").unwrap().num(), Some(5.0));
        // Trace 8 has no children, so only trace 7 loses 250 ns.
        assert_eq!(root.get("self_us").unwrap().num(), Some(4.75));
    }
}
