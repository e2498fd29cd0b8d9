//! In-memory spans around the benchmark's own calls into each crate.
//!
//! A span holds a name, a start, an end, its parent span, and the id of the
//! simulated run (or rep) it belongs to; all spans of one run share that
//! id. Spans stay in memory and are written out once, at exit. A disabled
//! tracer records nothing and only calls through.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The run (or rep) this span belongs to.
    pub id: u64,
    /// What was called, named by layer (`sim`, `cache.store`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and only calls through
    /// otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for run `id`. Spans opened by
    /// `f` on the tracer it is handed become children of this one.
    pub fn span<T>(&mut self, id: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Each span's self time, ns: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// The layer a span belongs to: the longest of `layers` its name equals or
/// starts with followed by a dot.
pub fn layer_of<'a>(name: &str, layers: &[&'a str]) -> Option<&'a str> {
    layers
        .iter()
        .copied()
        .filter(|l| name == *l || name.strip_prefix(*l).is_some_and(|r| r.starts_with('.')))
        .max_by_key(|l| l.len())
}

/// Self time per layer, ms, and the number of spans attributed to it, in
/// the order of `layers`.
pub fn layer_self_ms(spans: &[Span], layers: &[&'static str]) -> Vec<(&'static str, f64, usize)> {
    let selfs = self_times_ns(spans);
    layers
        .iter()
        .map(|&layer| {
            let (ns, n) = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| layer_of(s.name, layers) == Some(layer))
                .fold((0u64, 0usize), |(ns, n), (_, &t)| (ns + t, n + 1));
            (layer, ns as f64 / 1e6, n)
        })
        .collect()
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\": {i}, \"id\": {}, \"name\": \"{}\", \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_at_every_depth() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 60),
            span("a.inner", Some(1), 12, 20),
            span("a.inner2", Some(1), 30, 40),
        ];
        // root: 100 - (30 + 10); a: 30 - (8 + 10); leaves keep everything.
        assert_eq!(self_times_ns(&spans), vec![60, 12, 10, 8, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", None, 0, 100),
            span("x", Some(0), 10, 50),
            span("y", Some(0), 30, 70),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_shares_run_ids() {
        let mut t = Tracer::new(true);
        let v = t.span(7, "root", |t| {
            t.span(7, "child", |t| t.span(7, "grandchild", |_| 1)) + 1
        });
        assert_eq!(v, 2);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|s| s.id == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times_ns(s);
        let total: u64 = selfs.iter().sum();
        assert_eq!(total, s[0].duration_ns(), "self times partition the root");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(1, "x", |_| 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_map_to_the_longest_matching_layer() {
        let layers = ["cache", "workloads.fleet", "workloads.machine", "oracle"];
        assert_eq!(layer_of("cache.store", &layers), Some("cache"));
        assert_eq!(
            layer_of("workloads.fleet.cold", &layers),
            Some("workloads.fleet")
        );
        assert_eq!(
            layer_of("workloads.machine", &layers),
            Some("workloads.machine")
        );
        assert_eq!(layer_of("cachex", &layers), None);
        assert_eq!(layer_of("paper-node", &layers), None);
        let spans = [
            span("paper-node", None, 0, 100),
            span("oracle", Some(0), 0, 30),
            span("cache.store", Some(0), 40, 90),
            span("cache.tracegen", Some(2), 50, 60),
        ];
        let rows = layer_self_ms(&spans, &layers);
        assert_eq!(rows[0], ("cache", 50.0 / 1e6, 2));
        assert_eq!(rows[3], ("oracle", 30.0 / 1e6, 1));
    }
}
