//! In-memory spans around the public calls the benchmark makes.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`], which
//! read the clock either way; with recording off nothing else happens, so
//! the untraced run and the traced run time calls by the same two clock
//! reads and differ only by the span bookkeeping. Spans stay in memory and
//! are written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The public call, as `Type::method`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span of the same thread.
    pub parent: Option<usize>,
    /// The batch the call served, when it served one.
    pub batch: Option<u64>,
    /// Recording thread: 0 the writer, 1 the reader.
    pub thread: u8,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span in flight; hand it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    thread: u8,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose span clock starts at `epoch`.
    pub fn new(recording: bool, thread: u8, epoch: Instant) -> Self {
        Self {
            recording,
            thread,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether calls are being recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Pause or resume recording (timing goes on either way).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Start timing `name`; recorded as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, batch: Option<u64>) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.since_epoch(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                batch,
                thread: self.thread,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { index, start }
    }

    /// Stop timing; returns the call's duration in ns.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.since_epoch(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close innermost first");
        }
        end.duration_since(open.start).as_nanos() as f64
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        batch: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.begin(name, batch);
        let out = f();
        (out, self.end(open))
    }

    /// Recorded spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adopt another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one thread never overlap).
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self times in ms of every span called `name`, in recording order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"batch\":{},\"thread\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.batch),
                s.thread
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true, 0, Instant::now());
        let outer = t.begin("outer", Some(7));
        let (_, inner_ns) = t.time("inner", Some(7), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ns = t.end(outer);
        assert!(outer_ns >= inner_ns);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].batch),
            ("outer", None, Some(7))
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let outer_self = (spans[0].duration_ns() - spans[1].duration_ns()) as f64 / 1e6;
        assert_eq!(t.self_ms("outer"), vec![outer_self]);
        assert_eq!(
            t.self_ms("inner"),
            vec![spans[1].duration_ns() as f64 / 1e6]
        );
    }

    #[test]
    fn paused_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        let (v, ns) = t.time("call", None, || 41 + 1);
        assert_eq!(v, 42);
        assert!(ns >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, 0, epoch);
        let _ = a.time("a", None, || ());
        let mut b = Tracer::new(true, 1, epoch);
        let outer = b.begin("b.outer", None);
        let _ = b.time("b.inner", None, || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].thread, 1);
    }
}
