//! Spans recorded around the benchmark's calls into each layer's public functions.
//!
//! A span carries its name, start, end, parent span and round id. Spans stay in memory
//! while a workload runs and are written out once it ends, so recording costs one clock
//! read and one uncontended push. Closures that the library runs on pool workers (bid
//! fills, winner work) find their parent through the tracer's round context, which the
//! single driver thread sets before each round.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Round the call belongs to (1-based), 0 outside rounds.
    pub round: u32,
    /// Layer and call, as `layer.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was built.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was built.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    /// `(parent << 32) | round` of the round currently running on the driver thread.
    context: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            context: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was built.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span: reserves its id (so children can name it) and reads the clock.
    pub fn open(&self) -> (u32, u64) {
        (self.next_id.fetch_add(1, Ordering::Relaxed), self.now())
    }

    /// Closes a span opened with [`Tracer::open`] and records it.
    pub fn close(&self, id: u32, start_ns: u64, parent: u32, round: u32, name: &'static str) {
        let end_ns = self.now();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking round")
            .push(Span {
                id,
                parent,
                round,
                name,
                start_ns,
                end_ns,
            });
    }

    /// Times `f` as one span.
    pub fn span<T>(&self, name: &'static str, parent: u32, round: u32, f: impl FnOnce() -> T) -> T {
        let (id, start) = self.open();
        let out = f();
        self.close(id, start, parent, round, name);
        out
    }

    /// Sets the span that calls on pool workers nest under, and its round.
    pub fn set_context(&self, parent: u32, round: u32) {
        self.context
            .store(u64::from(parent) << 32 | u64::from(round), Ordering::SeqCst);
    }

    /// The current `(parent, round)` context.
    pub fn context(&self) -> (u32, u32) {
        let packed = self.context.load(Ordering::SeqCst);
        ((packed >> 32) as u32, packed as u32)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking round")
            .clone()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`: the part of a parent span
/// its children cover, counting overlapping children (on different threads) once.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Writes spans as tab-separated `id parent round name start_ns end_ns` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tround\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.round, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_overlaps_once_and_clips_to_the_parent() {
        let mut intervals = vec![(5, 9), (0, 3), (2, 4), (8, 20)];
        assert_eq!(covered_ns(&mut intervals, 1, 15), 3 + 10);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn spans_nest_under_the_round_context() {
        let tracer = Tracer::default();
        let (round_id, start) = tracer.open();
        tracer.set_context(round_id, 3);
        let (parent, round) = tracer.context();
        tracer.span("child", parent, round, || ());
        tracer.close(round_id, start, 0, 3, "round");
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, round_id);
        assert_eq!(spans[0].round, 3);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
