//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! simulator's crates; nothing inside the program is instrumented. Each span
//! carries a name, start and end (ns since the recorder was created), its
//! parent span and the run it belongs to, plus the number of operations it
//! covers so per-operation costs can be derived. Spans stay in memory until
//! [`Recorder::write_json`] writes them out at the end of the benchmark.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Which simulation run (basket entry) or replay the span belongs to.
    pub run: u32,
    /// Operations the span covers (pages, descriptors, events...).
    pub ops: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the time direct children cover.
    pub self_ns: u64,
    /// Summed operation counts.
    pub ops: u64,
}

impl Layer {
    /// Self time per operation, in ns.
    pub fn self_ns_per_op(&self) -> f64 {
        self.self_ns as f64 / self.ops.max(1) as f64
    }
}

/// Records nested spans against one monotonic clock.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags the spans opened from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            ops: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, crediting
    /// it with `ops` operations. Returns its duration in ns.
    pub fn end(&mut self, id: u32, ops: u64) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.ops = ops;
        s.duration_ns()
    }

    /// Closes every open span, e.g. after a run panicked inside them.
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id, 0);
        }
    }

    /// Runs `f` inside a span named `name` covering `ops` operations.
    pub fn time<T>(&mut self, name: &'static str, ops: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id, ops);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time computed from the parent links.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let l = out.entry(s.name).or_default();
            l.count += 1;
            l.total_ns += s.duration_ns();
            l.self_ns += s.duration_ns().saturating_sub(kids);
            l.ops += s.ops;
        }
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"ops\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run, s.ops
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new();
        r.spans = vec![
            span("run", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("loop", 40, 90, Some(0)),
            span("epoch", 50, 70, Some(2)),
        ];
        let l = r.layers();
        assert_eq!(l["run"].self_ns, 20);
        assert_eq!(l["run"].total_ns, 100);
        assert_eq!(l["setup"].self_ns, 30);
        // The grandchild is charged to "loop", not to "run".
        assert_eq!(l["loop"].self_ns, 30);
        assert_eq!(l["epoch"].self_ns, 20);
    }

    #[test]
    fn recorded_spans_nest_and_aggregate_by_name() {
        let mut r = Recorder::new();
        r.set_run(7);
        r.time("outer", 1, |r| {
            for _ in 0..3 {
                r.time("inner", 4, |_| std::hint::black_box(0));
            }
        });
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert!(s[1..].iter().all(|c| c.parent == Some(0) && c.run == 7));
        let l = r.layers();
        assert_eq!(l["inner"].count, 3);
        assert_eq!(l["inner"].ops, 12);
        assert!(l["outer"].self_ns <= l["outer"].total_ns);
        let mut buf = Vec::new();
        r.write_json(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new();
        let a = r.begin("a");
        let _b = r.begin("b");
        r.end(a, 0);
    }
}
