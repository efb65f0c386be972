//! Bench-side spans: recorded around calls into each layer's public
//! functions, kept in memory, written out when the run ends.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it belongs to. A span's *self time* is its duration minus the
//! part of that interval its children cover, so the self times of one
//! request's spans add up to the request.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::median_f64;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`sim.env.step`, `core.model.stage1`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 = outside any request).
    pub request: u64,
    /// How many threads ran spans like this one side by side (fleet
    /// shards): budget rows divide self time by it to stay in wall-clock
    /// terms.
    pub lanes: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Single-threaded; code that runs on other
/// threads records into its own `Trace` on the same epoch and the owner
/// [`Trace::graft`]s it in afterwards.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Trace {
    /// An empty trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace { epoch, spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts a new request; spans recorded from now on carry its id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            lanes: 1,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Moves a finished trace of the same epoch in, its roots becoming
    /// children of `parent` (default: the innermost open span). Returns
    /// the index its first span landed at.
    pub fn graft(&mut self, batch: Trace, parent: Option<usize>, lanes: u32) -> usize {
        let base = self.spans.len();
        let parent = parent.or(self.open.last().copied());
        for mut span in batch.spans {
            span.parent = span.parent.map_or(parent, |p| Some(p + base));
            span.request = self.request;
            span.lanes = lanes;
            self.spans.push(span);
        }
        base
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals (children of parallel lanes may overlap).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, span.start_ns);
                for &(s, e) in kids.iter() {
                    let (s, e) = (s.max(reach), e.min(span.end_ns));
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// The budget of the given requests: for each span name, the median
    /// over those requests of the name's summed self time in one request
    /// (milliseconds, wall-clock: parallel lanes divided out), in
    /// first-seen order. `probe.*` spans are measurements the benchmark
    /// added, not work the daemon does, and are left out.
    pub fn budget_ms(&self, requests: &[u64]) -> Vec<(&'static str, f64)> {
        let selfs = self.self_times_ns();
        let mut order: Vec<&'static str> = Vec::new();
        let mut per_request: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (span, &self_ns) in self.spans.iter().zip(&selfs) {
            if span.name.starts_with("probe.") || requests.binary_search(&span.request).is_err() {
                continue;
            }
            if !order.contains(&span.name) {
                order.push(span.name);
            }
            *per_request.entry((span.name, span.request)).or_default() +=
                self_ns as f64 / f64::from(span.lanes) / 1e6;
        }
        order
            .into_iter()
            .map(|name| {
                let mut sums: Vec<f64> = requests
                    .iter()
                    .map(|&r| per_request.get(&(name, r)).copied().unwrap_or(0.0))
                    .collect();
                (name, median_f64(&mut sums))
            })
            .collect()
    }

    /// Writes the spans as a JSON array.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"lanes\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request, s.lanes
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, start_ns, end_ns, parent, request, lanes)`.
    type Row = (&'static str, u64, u64, Option<usize>, u64, u32);

    /// A trace with hand-set timestamps (the recorder itself reads the
    /// clock, which a test cannot pin).
    fn fixed(spans: &[Row]) -> Trace {
        let mut t = Trace::new(Instant::now());
        for &(name, start_ns, end_ns, parent, request, lanes) in spans {
            t.spans.push(Span { name, start_ns, end_ns, parent, request, lanes });
        }
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = fixed(&[
            ("root", 0, 100, None, 1, 1),
            ("a", 10, 40, Some(0), 1, 1),
            // Overlaps `a` (a parallel lane): the union covers 10..60.
            ("b", 30, 60, Some(0), 1, 1),
            ("leaf", 12, 20, Some(1), 1, 1),
        ]);
        assert_eq!(t.self_times_ns(), vec![50, 22, 30, 8]);
    }

    #[test]
    fn recorder_nests_and_graft_reparents() {
        let epoch = Instant::now();
        let mut t = Trace::new(epoch);
        let r = t.next_request();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            let mut batch = Trace::new(epoch);
            batch.span("grafted", |b| b.span("grafted.child", |_| ()));
            let at = t.graft(batch, None, 2);
            assert_eq!(at, 2);
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.lanes)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 1),
                ("inner", Some(0), 1),
                ("grafted", Some(0), 2),
                ("grafted.child", Some(2), 2)
            ]
        );
        assert!(t.spans().iter().all(|s| s.request == r && s.end_ns >= s.start_ns));
    }

    #[test]
    fn budget_rows_are_medians_of_per_request_self_sums() {
        let ms = 1_000_000;
        let t = fixed(&[
            ("plan", 0, 10 * ms, None, 1, 1),
            ("step", 0, 4 * ms, Some(0), 1, 1),
            ("step", 4 * ms, 8 * ms, Some(0), 1, 1),
            ("probe.mask", 8 * ms, 9 * ms, Some(0), 1, 1),
            ("plan", 20 * ms, 40 * ms, None, 2, 1),
            ("step", 20 * ms, 32 * ms, Some(4), 2, 2),
            ("other", 50 * ms, 60 * ms, None, 3, 1),
        ]);
        let rows = t.budget_ms(&[1, 2]);
        // plan self: 10-8-1=1 and 20-12=8 -> median 4.5; step: 8 and 12/2=6 -> 7.
        assert_eq!(rows, vec![("plan", 4.5), ("step", 7.0)]);
    }
}
