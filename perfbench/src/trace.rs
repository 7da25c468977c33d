//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`<layer>.<call>`), start and end on one
//! monotonic clock, its parent span and the request it belongs to (the
//! transaction, tick batch or churn cycle index). Tracing is switched on
//! per thread; when it is off, [`span`] costs one thread-local flag read.
//! Spans are kept in a preallocated buffer and written out when the run
//! ends; a layer's self time is its spans' durations minus the parts their
//! child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Request identifier shared by the spans of one request.
    pub req: u32,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Preallocates room for `capacity` spans on the calling thread and
/// switches tracing on. Spans beyond the capacity are counted as dropped.
pub fn start(capacity: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(64),
            dropped: 0,
        });
    });
    ON.with(|on| on.set(true));
}

/// Pauses or resumes recording (the buffer is kept).
pub fn set_enabled(enabled: bool) {
    let has_tracer = TRACER.with(|t| t.borrow().is_some());
    ON.with(|on| on.set(enabled && has_tracer));
}

/// True once the span buffer is full.
pub fn is_full() -> bool {
    TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .is_some_and(|tr| tr.spans.len() == tr.spans.capacity())
    })
}

/// Runs `f` inside a span named `name` for request `req`.
#[inline]
pub fn span<R>(name: &'static str, req: u32, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    let id = open(name, req);
    let out = f();
    close(id);
    out
}

fn open(name: &'static str, req: u32) -> Option<u32> {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let tr = guard.as_mut()?;
        if tr.spans.len() == tr.spans.capacity() {
            tr.dropped += 1;
            return None;
        }
        let id = tr.spans.len() as u32;
        let parent = tr.open.last().copied().unwrap_or(u32::MAX);
        let start = tr.epoch.elapsed().as_nanos() as u64;
        tr.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            req,
        });
        tr.open.push(id);
        Some(id)
    })
}

fn close(id: Option<u32>) {
    let Some(id) = id else { return };
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let end = tr.epoch.elapsed().as_nanos() as u64;
            tr.spans[id as usize].end = end;
            tr.open.pop();
        }
    });
}

/// Per-layer totals over the recorded spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerSelf {
    /// Spans recorded for the layer.
    pub spans: u64,
    /// Sum of the layer's self time, nanoseconds.
    pub self_ns: u64,
}

/// The layer a span belongs to: its name without the final `.call`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time per layer: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerSelf> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != u32::MAX && s.end >= s.start {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, LayerSelf> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let total = s.end.saturating_sub(s.start);
        let e = out.entry(layer_of(s.name)).or_default();
        e.spans += 1;
        e.self_ns += total.saturating_sub(children);
    }
    out
}

/// Switches tracing off and returns the recorded spans plus the count of
/// spans dropped for want of room.
pub fn finish() -> (Vec<Span>, u64) {
    ON.with(|on| on.set(false));
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map_or((Vec::new(), 0), |tr| (tr.spans, tr.dropped))
    })
}

/// Writes spans as tab-separated lines (`id parent req name start end`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.req, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "runtime.deploy.reconfigure",
                start: 0,
                end: 100,
                parent: u32::MAX,
                req: 1,
            },
            Span {
                name: "runtime.deploy.op",
                start: 10,
                end: 40,
                parent: 0,
                req: 1,
            },
            Span {
                name: "runtime.system.run_transaction",
                start: 200,
                end: 250,
                parent: u32::MAX,
                req: 2,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["runtime.deploy"].spans, 2);
        assert_eq!(st["runtime.deploy"].self_ns, 70 + 30);
        assert_eq!(st["runtime.system"].self_ns, 50);
    }

    #[test]
    fn spans_nest_and_respect_capacity() {
        start(2);
        span("a.outer", 7, || {
            span("b.inner", 7, || span("c.dropped", 7, || ()))
        });
        let (spans, dropped) = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 1);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].req, 7);
        assert!(spans[0].end >= spans[1].end);
        // Off again: nothing recorded, the closure still runs.
        assert_eq!(span("a.outer", 0, || 5), 5);
    }
}
