//! In-memory spans recorded around the public calls the benchmark makes,
//! their self times, and the trace file they are written to.
//!
//! A span is one call into a layer: name (`layer.operation`), start, end,
//! the span that caused it, and the request it belongs to (iteration,
//! arrival or query round). Spans are kept per thread in memory and
//! written out once, when the run ends. A span's self time is its
//! duration minus the part of its interval its child spans cover.

use crate::report::Outcome;
use crate::{RunConfig, Scale};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose offsets count from `epoch` (share one epoch between
    /// threads so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: untraced runs call the same code
    /// without paying for spans.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Open a span at `at`, nested in the innermost open span.
    pub fn begin_at(&mut self, name: &'static str, request: u64, at: Instant) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let offset = at.saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name,
            start: offset,
            end: offset,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span `id` at `at`.
    pub fn end_at(&mut self, id: usize, at: Instant) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = at.saturating_duration_since(self.epoch);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.begin_at(name, request, Instant::now());
        let out = f();
        self.end_at(id, Instant::now());
        out
    }

    /// Record an already finished span (such as the wait between an
    /// operation's due time and its start) inside the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let id = self.begin_at(name, request, start);
        self.end_at(id, end);
    }

    /// Forget every span recorded so far (none may be open).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "cannot clear inside an open span");
        self.spans.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to its own interval).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = Duration::ZERO;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Where the time of one kind of operation went: the total duration of
/// its root spans and the self time of every span name under them
/// (including the roots' own self time, the unattributed part).
#[derive(Debug, Default)]
pub struct Breakdown {
    pub ops: usize,
    pub total: Duration,
    pub self_time: BTreeMap<&'static str, Duration>,
}

impl Breakdown {
    /// Self time of `name` as a share of the operations' total time.
    pub fn share(&self, name: &str) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        let t = self.self_time.get(name).copied().unwrap_or_default();
        t.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Mean self time of `name` per operation, in milliseconds.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        let t = self.self_time.get(name).copied().unwrap_or_default();
        t.as_secs_f64() * 1e3 / self.ops.max(1) as f64
    }
}

/// Break down every root span named `root` (and its descendants).
pub fn breakdown(spans: &[Span], root: &str) -> Breakdown {
    let selfs = self_times(spans);
    // Parents precede children, so one pass resolves each span's root.
    let mut root_of = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
    }
    let mut out = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].name != root {
            continue;
        }
        if s.parent.is_none() {
            out.ops += 1;
            out.total += s.duration();
        }
        *out.self_time.entry(s.name).or_default() += selfs[i];
    }
    out
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration().as_secs_f64() * 1e3)
        .collect()
}

/// Write a traced run's spans to `target/e2e/trace-<workload>-<seed>.json`
/// (quick runs write nothing) and note where, or count the failure.
pub fn write_run(cfg: &RunConfig, workload: &str, threads: &[(&str, &Tracer)], out: &mut Outcome) {
    if cfg.scale == Scale::Quick {
        return;
    }
    let path = PathBuf::from(format!("target/e2e/trace-{workload}-{}.json", cfg.seed));
    match write_file(&path, threads) {
        Ok(()) => out.note(format!("trace: {}", path.display())),
        Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Write every thread's spans as one JSON document: an array of
/// `{thread, id, parent, request, name, start_us, end_us}`, ids global.
pub fn write_file(path: &Path, threads: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    let mut base = 0usize;
    let mut first = true;
    for (thread, tracer) in threads {
        for (i, s) in tracer.spans().iter().enumerate() {
            if !first {
                writeln!(w, ",")?;
            }
            first = false;
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| (base + p).to_string());
            write!(
                w,
                "{{\"thread\":\"{thread}\",\"id\":{},\"parent\":{parent},\"request\":{},\
                 \"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                base + i,
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        base += tracer.spans().len();
    }
    writeln!(w, "\n]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let root = tr.begin_at("op", 1, at(t0, 0));
        tr.record("a", 1, at(t0, 10), at(t0, 40));
        let b = tr.begin_at("b", 1, at(t0, 50));
        tr.record("c", 1, at(t0, 55), at(t0, 65));
        tr.end_at(b, at(t0, 80));
        tr.end_at(root, at(t0, 100));
        let selfs = self_times(tr.spans());
        let ms = |d: Duration| d.as_millis();
        // op: 100 - (30 + 30); a: 30; b: 30 - 10; c: 10.
        assert_eq!(
            selfs.iter().map(|&d| ms(d)).collect::<Vec<_>>(),
            [40, 30, 20, 10]
        );

        let bd = breakdown(tr.spans(), "op");
        assert_eq!(bd.ops, 1);
        assert_eq!(bd.total, Duration::from_millis(100));
        assert_eq!(bd.self_time.values().sum::<Duration>(), bd.total);
        assert!((bd.share("op") - 0.4).abs() < 1e-12);
        assert!((bd.share("b") - 0.2).abs() < 1e-12);
        assert!((bd.per_op_ms("a") - 30.0).abs() < 1e-9);
        assert_eq!(breakdown(tr.spans(), "other").ops, 0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            Span {
                name: "op",
                start: Duration::ZERO,
                end: Duration::from_millis(100),
                parent: None,
                request: 0,
            },
            Span {
                name: "x",
                start: Duration::from_millis(10),
                end: Duration::from_millis(50),
                parent: Some(0),
                request: 0,
            },
            Span {
                name: "y",
                start: Duration::from_millis(30),
                end: Duration::from_millis(120),
                parent: Some(0),
                request: 0,
            },
        ];
        // Children cover 10..100 of the parent's interval: 90 ms.
        assert_eq!(self_times(&spans)[0], Duration::from_millis(10));
    }
}
