//! The benchmark's own spans, recorded around calls into the library.
//!
//! Spans stay in memory and are written once, when the run ends. A span
//! has a name, start and end (nanoseconds since the tracer's origin), the
//! span that caused it, and a request id: job id plus round. A disabled
//! tracer records nothing, so timed runs pay only for the `Instant`s the
//! end-to-end metrics need anyway.

use chef_obs::JsonWriter;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Handle to a recorded span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle of a span that was not recorded.
    pub const NONE: SpanId = SpanId(None);
}

/// Which request a span served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Request {
    /// Job id: the tenant's manager-assigned id when served, otherwise
    /// the repetition number.
    pub job: u64,
    /// Cleaning round, when the span belongs to one.
    pub round: Option<usize>,
}

impl Request {
    /// Request `job`, optionally in `round`.
    pub fn new(job: u64, round: Option<usize>) -> Self {
        Request { job, round }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `select` for `RoundLoop::next_batch`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request the span served.
    pub req: Request,
    /// Thread the work ran on: `main` for the benchmark's own calls,
    /// otherwise the program's thread the span was observed from.
    pub thread: &'static str,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`, else does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span at `start`; close it with [`Self::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: SpanId,
        req: Request,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let Some(spans) = self.spans.as_mut() else {
            return SpanId::NONE;
        };
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            req,
            thread: "main",
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Close an open span at `end`.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), id.0) {
            spans[i].end_ns = end_ns;
        }
    }

    /// Record a finished main-thread span.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: Request,
    ) -> SpanId {
        self.push_on("main", name, start, end, parent, req)
    }

    /// Record a finished span observed on another thread.
    pub fn push_on(
        &mut self,
        thread: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: Request,
    ) -> SpanId {
        let id = self.open(name, start, parent, req);
        self.close(id, end);
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), id.0) {
            spans[i].thread = thread;
        }
        id
    }

    /// Recorded spans (empty when disabled).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Time inside `id` that none of its main-thread children cover, in
    /// ns: for a repetition's root span this is the unattributed time.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        match id.0 {
            Some(i) => self_time_ns(self.spans(), i),
            None => 0,
        }
    }

    /// Write every span plus per-name self-time totals as JSON.
    pub fn write_json(&self, path: &Path, context: &[(&str, String)]) -> std::io::Result<()> {
        let spans = self.spans();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "e2ebench-trace.v1");
        w.key("context");
        w.begin_object();
        for (k, v) in context {
            w.field_str(k, v);
        }
        w.end_object();
        let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let t = totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.dur_ns();
            t.2 += self_time_ns(spans, i);
        }
        w.key("by_name");
        w.begin_object();
        for (name, (count, total, selft)) in &totals {
            w.key(name);
            w.begin_object();
            w.field_u64("count", *count);
            w.field_f64("total_ms", *total as f64 / 1e6);
            w.field_f64("self_ms", *selft as f64 / 1e6);
            w.end_object();
        }
        w.end_object();
        w.key("spans");
        w.begin_array();
        for s in spans {
            w.begin_object();
            w.field_str("name", s.name);
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            match s.parent {
                Some(p) => w.field_u64("parent", p as u64),
                None => {
                    w.key("parent");
                    w.raw("null");
                }
            }
            w.field_u64("job", s.req.job);
            match s.req.round {
                Some(r) => w.field_u64("round", r as u64),
                None => {
                    w.key("round");
                    w.raw("null");
                }
            }
            w.field_str("thread", s.thread);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, w.finish() + "\n")
    }
}

/// Self time of `spans[i]`: its duration minus the union of its
/// same-thread children's intervals, clipped to it. Children on other
/// threads run concurrently and do not consume the parent's time.
fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let me = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i) && s.thread == me.thread)
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    me.dur_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let o = Instant::now();
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.open("clean", at(0), SpanId::NONE, Request::default());
        t.push("a", at(10), at(30), root, Request::default());
        t.push("b", at(20), at(40), root, Request::default()); // overlaps a
        t.push("c", at(50), at(60), root, Request::default());
        t.push_on("host", "h", at(0), at(100), root, Request::default());
        t.close(root, at(100));
        // 100 − |[10,40] ∪ [50,60]| = 100 − 40; the host span is concurrent.
        let self_ms = t.self_ns(root) as f64 / 1e6;
        assert!((self_ms - 60.0).abs() < 1e-6, "{self_ms}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let id = t.open("x", now, SpanId::NONE, Request::default());
        t.close(id, now);
        assert_eq!(id, SpanId::NONE);
        assert!(t.spans().is_empty());
        assert_eq!(t.self_ns(id), 0);
    }
}
