//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` in nanoseconds since the
//! recorder started. Spans are opened around calls into the library
//! crates from this benchmark's own code (never inside them), kept in a
//! thread-local vector and written out as JSON lines when the run ends.
//! Where one call is shorter than the clock can resolve, a single span
//! covers a fixed-size chunk of calls and carries the chunk size in
//! `calls`.
//!
//! Recording is off unless [`enable`] was called, so the untraced runs
//! pay one thread-local flag check per probe site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Calls covered by one chunk span in the replay loops.
pub const CHUNK: usize = 1024;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    calls: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    paused: bool,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (discarding anything recorded before).
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            paused: false,
        });
    });
}

/// Stops (`true`) or resumes (`false`) recording new spans, keeping what
/// was recorded.
pub fn pause(paused: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.paused = paused;
        }
    });
}

fn now_ns(rec: &Recorder) -> u64 {
    rec.origin.elapsed().as_nanos() as u64
}

/// Open span handle; closing it happens on drop.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    index: Option<usize>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end = now_ns(rec);
                rec.spans[index].end_ns = end;
                if rec.open.last() == Some(&index) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Opens a span named `name`, parented to the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    enter_calls(name, 1)
}

/// Opens a span that covers `calls` calls of the same operation.
pub fn enter_calls(name: &'static str, calls: u64) -> Guard {
    let index = RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let rec = slot.as_mut().filter(|rec| !rec.paused)?;
        let start = now_ns(rec);
        let index = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: rec.open.last().copied(),
            calls,
        });
        rec.open.push(index);
        Some(index)
    });
    Guard { index }
}

/// Records `calls` short calls made inside the innermost open span, whose
/// durations summed to `dur_ns`, as one child span starting where its
/// parent starts. Used for calls too interleaved with other work to chunk.
pub fn record_within(name: &'static str, dur_ns: u64, calls: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut().filter(|rec| !rec.paused) {
            let Some(&parent) = rec.open.last() else {
                return;
            };
            let start = rec.spans[parent].start_ns;
            rec.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start + dur_ns,
                parent: Some(parent),
                calls,
            });
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = enter(name);
    f()
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub spans: u64,
    /// Calls covered (chunk spans count their chunk size).
    pub calls: u64,
    /// Summed duration, children included.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// Per-name totals of everything recorded so far on this thread.
pub fn totals() -> BTreeMap<&'static str, Totals> {
    RECORDER.with(|r| {
        let slot = r.borrow();
        let Some(rec) = slot.as_ref() else {
            return BTreeMap::new();
        };
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in rec.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.calls += s.calls;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    })
}

/// Summed duration of spans named `name`, in seconds.
pub fn total_secs(name: &str) -> f64 {
    totals().get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9)
}

/// Writes every span as one JSON line (`name`, `start_ns`, `end_ns`,
/// `parent`, `calls`), followed by one `summary` line per name.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::new();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            for (i, s) in rec.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"calls":{}}}"#,
                    s.name, s.start_ns, s.end_ns, s.calls
                );
            }
        }
    });
    for (name, t) in totals() {
        let _ = writeln!(
            out,
            r#"{{"summary":"{name}","spans":{},"calls":{},"total_ns":{},"self_ns":{}}}"#,
            t.spans, t.calls, t.total_ns, t.self_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable();
        {
            let _outer = enter("outer");
            let _inner = enter("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let t = totals();
        let outer = t["outer"];
        let inner = t["inner"];
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        RECORDER.with(|r| *r.borrow_mut() = None);
        let _g = enter("x");
        assert!(totals().is_empty());
    }
}
