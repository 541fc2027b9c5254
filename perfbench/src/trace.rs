//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A span is a name, a start and end (nanoseconds since the benchmark's
//! epoch), the index of the span that caused it, and the rep it belongs to.
//! Spans stay in memory until the run ends and are then written out as one
//! JSON file.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (e.g. `data.csv`).
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// The rep (solve, ingest run, or batch) the span belongs to.
    pub rep: u64,
    /// Which thread recorded it (0 = the workload's main thread).
    pub thread: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A per-thread span buffer sharing the benchmark's epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Self {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, rep: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Runs `f` inside a child span of `parent` and returns its result.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let rep = self.spans[parent].rep;
        let id = self.open(name, Some(parent), rep);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval as a span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, rep: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            rep,
            thread: self.thread,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per-rep durations of the spans named `name` whose parent is a span
    /// named `root`, summed within each root (a layer entered twice in one
    /// rep counts once, with both calls' time).
    pub fn per_root(&self, root: &str, name: &str) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = Vec::new();
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            if s.name != name || self.spans[p].name != root {
                continue;
            }
            match sums.iter_mut().find(|(id, _)| *id == p) {
                Some((_, v)) => *v += s.secs(),
                None => sums.push((p, s.secs())),
            }
        }
        sums.into_iter().map(|(_, v)| v).collect()
    }

    /// The accounting identity over every span named `root`: the share of
    /// the roots' total wall time that their child spans do not cover.
    pub fn uncovered_share(&self, root: &str) -> f64 {
        let mut total = 0.0;
        let mut covered = 0.0;
        for s in &self.spans {
            if s.name == root {
                total += s.secs();
            } else if s.parent.is_some_and(|p| self.spans[p].name == root) {
                covered += s.secs();
            }
        }
        if total > 0.0 {
            (total - covered) / total
        } else {
            0.0
        }
    }

    /// Appends another thread's spans (re-basing their parent indices).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans as a JSON array, each with its self time (duration minus
    /// the part its children cover).
    pub fn to_json(&self) -> Json {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        Json::Array(
            self.spans
                .iter()
                .zip(child_secs)
                .map(|(s, children)| {
                    Json::object()
                        .with("name", s.name)
                        .with("start_ns", s.start_ns as f64)
                        .with("end_ns", s.end_ns as f64)
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        )
                        .with("rep", s.rep as f64)
                        .with("thread", f64::from(s.thread))
                        .with("self_s", s.secs() - children)
                })
                .collect(),
        )
    }
}
