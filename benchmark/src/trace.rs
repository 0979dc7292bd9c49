//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library's public functions: the library itself carries no tracing yet.
//! Each span has a name, start and end (nanoseconds since the recorder was
//! created), the index of the span that was open when it began, and a run
//! id shared by every span of one unit of work (one setup, one fit, one
//! serving event). A disabled recorder records nothing, so the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new unit of work: spans begun from here on carry a fresh
    /// run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
            // Spans close in LIFO order at every call site.
            if self.stack.last() == Some(&id) {
                self.stack.pop();
            }
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Spans as JSON lines tagged with the workload name.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}

/// Total self time (seconds) and span count per span name: a span's self
/// time is its duration minus the part of it its direct children cover.
/// Children of one span run sequentially, so their durations add.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
        let slot = out.entry(s.name).or_insert((0.0, 0));
        slot.0 += own as f64 * 1e-9;
        slot.1 += 1;
    }
    out
}

/// Share of the total duration of spans called `parent` that their direct
/// children cover (1.0 = fully attributed).
pub fn coverage(spans: &[Span], parent: &str) -> f64 {
    let mut total = 0u64;
    let mut covered = 0u64;
    for (id, s) in spans.iter().enumerate() {
        if s.name != parent {
            continue;
        }
        total += s.end_ns.saturating_sub(s.start_ns);
        covered += spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns.saturating_sub(c.start_ns))
            .sum::<u64>();
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("setup", 0, 100, None),
            span("read", 0, 30, Some(0)),
            span("build", 30, 90, Some(0)),
            span("inner", 40, 60, Some(2)),
        ];
        let t = self_times(&spans);
        let ns = |name: &str| (t[name].0 * 1e9).round() as u64;
        assert_eq!(ns("setup"), 10);
        assert_eq!(ns("read"), 30);
        assert_eq!(ns("build"), 40);
        assert_eq!(ns("inner"), 20);
        let total: f64 = t.values().map(|v| v.0).sum();
        assert!(
            (total * 1e9 - 100.0).abs() < 1e-6,
            "self times partition the root"
        );
        assert!((coverage(&spans, "setup") - 0.9).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_tags_runs() {
        let mut tr = Tracer::new(true);
        tr.next_run();
        let outer = tr.begin("outer");
        let x = tr.span("leaf", || 2 + 2);
        tr.end(outer);
        tr.next_run();
        tr.span("leaf", || ());
        assert_eq!(x, 4);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!((s[0].run, s[1].run, s[2].run), (1, 1, 2));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tr.durations("leaf").len(), 2);
        assert_eq!(tr.to_json_lines("w").lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.begin("outer");
        tr.span("leaf", || ());
        tr.end(open);
        assert!(tr.spans().is_empty());
    }
}
