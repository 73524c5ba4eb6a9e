//! In-memory span recorder for the traced runs.
//!
//! A span records its name, start, end, parent and unit id. Spans stay in
//! memory until the run ends ([`Tracer::write_jsonl`]); a span's *self
//! time* is its duration minus the durations of its direct children.
//! With tracing off, [`Tracer::span`] costs one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.execute`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (task or request) the span belongs to.
    pub unit: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in milliseconds (0 when no span was recorded).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Records nested spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with its epoch at `epoch`; records nothing unless `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, unit: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere, under `parent` (or the
    /// innermost open span when `parent` is `None`). Returns its index,
    /// or `None` with tracing off.
    pub fn record(
        &mut self,
        name: &str,
        unit: u64,
        start: Instant,
        duration: Duration,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: parent.or_else(|| self.open.last().copied()),
            unit,
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another tracer's spans (same epoch assumed), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// All recorded spans, in start order per thread of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its direct children's
    /// durations (saturating at zero if children overlap).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"unit\":{}}}",
                serde_json::to_string(&s.name).expect("a string serializes"),
                s.start_ns,
                s.end_ns,
                s.unit
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let until = Instant::now() + d;
        while Instant::now() < until {}
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("unit", 7, |t| {
            t.span("child.a", 7, |_| busy(Duration::from_millis(3)));
            t.span("child.b", 7, |t| {
                t.span("grandchild", 7, |_| busy(Duration::from_millis(2)))
            });
            busy(Duration::from_millis(1));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), Some(2))
        );
        assert!(s.iter().all(|s| s.unit == 7 && s.end_ns >= s.start_ns));
        let own = t.self_times();
        assert_eq!(
            own[0],
            s[0].duration_ns() - s[1].duration_ns() - s[2].duration_ns()
        );
        assert_eq!(own[2], s[2].duration_ns() - s[3].duration_ns());
        assert_eq!(own[3], s[3].duration_ns());
        assert!(own[0] >= 1_000_000, "the unit's own busy loop is self time");
        let totals = t.totals();
        assert_eq!(totals["grandchild"].count, 1);
        assert_eq!(totals["unit"].self_ns, own[0]);
    }

    #[test]
    fn recorded_children_and_absorbed_tracers_keep_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let rt = a
            .record(
                "client.round_trip",
                1,
                epoch,
                Duration::from_micros(900),
                None,
            )
            .unwrap();
        a.record(
            "server.exec",
            1,
            epoch,
            Duration::from_micros(600),
            Some(rt),
        );
        let mut b = Tracer::new(true, epoch);
        let rt2 = b
            .record(
                "client.round_trip",
                2,
                epoch,
                Duration::from_micros(500),
                None,
            )
            .unwrap();
        b.record(
            "server.exec",
            2,
            epoch,
            Duration::from_micros(100),
            Some(rt2),
        );
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        let own = a.self_times();
        assert_eq!(own, vec![300_000, 600_000, 400_000, 100_000]);
        let totals = a.totals();
        assert_eq!(totals["client.round_trip"].self_ns, 700_000);
        assert_eq!(totals["server.exec"].count, 2);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", 0, |t| t.span("y", 0, |_| 5));
        assert_eq!(v, 5);
        assert!(t
            .record("z", 0, Instant::now(), Duration::ZERO, None)
            .is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_write_as_json_lines() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("a\"quoted", 3, |t| t.span("b", 3, |_| ()));
        let dir = std::env::temp_dir().join(format!("benchsuite-trace-{}", std::process::id()));
        t.write_jsonl(&dir).unwrap();
        let text = std::fs::read_to_string(&dir).unwrap();
        std::fs::remove_file(&dir).ok();
        let lines: Vec<serde::Value> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        let name = crate::json::get(&lines[0], "name").and_then(|n| n.as_str());
        assert_eq!(name, Some("a\"quoted"));
        let parent = crate::json::get(&lines[1], "parent").and_then(crate::json::number);
        assert_eq!(parent, Some(0.0));
    }
}
