//! In-memory span recorder for the traced run.
//!
//! Spans are opened from the benchmark's own code around calls into each
//! crate's public functions; nothing inside the program under test is
//! instrumented. Each span records its name, start, end and the span that
//! was open on the same thread when it started. Records stay in memory
//! and are reduced once the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover. Layer metrics (`<crate>.<what>_s`) are
//! self times summed over every span of that name.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span, times in nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::SeqCst);
}

/// `true` once [`enable`] ran.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open span; closes when dropped. A no-op unless tracing is enabled.
pub struct Span {
    open: Option<(u64, Option<u64>, &'static str, u64)>,
}

fn now_ns() -> u64 {
    u64::try_from(recorder().origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Opens a span named `name` under the span currently open on this thread.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, now_ns())),
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        OPEN.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&id) {
                stack.pop();
            }
        });
        if let Ok(mut spans) = recorder().spans.lock() {
            spans.push(SpanRecord {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Takes every recorded span out of the recorder.
pub fn drain() -> Vec<SpanRecord> {
    recorder()
        .spans
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, summed per span name, in seconds; plus the
/// number of spans per name.
pub struct LayerTimes {
    self_s: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    pub fn from_spans(spans: &[SpanRecord]) -> LayerTimes {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut self_s = BTreeMap::new();
        let mut counts = BTreeMap::new();
        for s in spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *self_s.entry(s.name).or_insert(0.0) += dur.saturating_sub(covered) as f64 * 1e-9;
            *counts.entry(s.name).or_insert(0) += 1;
        }
        LayerTimes { self_s, counts }
    }

    /// `(name, summed self time)` for every span name recorded.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.self_s.iter().map(|(name, s)| (*name, *s))
    }

    /// Summed self time of `name` (0 when no such span was recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed self time of every span except `root`.
    pub fn sum_except(&self, root: &str) -> f64 {
        self.self_s
            .iter()
            .filter(|(name, _)| **name != root)
            .map(|(_, s)| s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered_ns(&mut iv, 0, 45), 25);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "root",
                start_ns: 0,
                end_ns: 1_000,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "leaf",
                start_ns: 100,
                end_ns: 400,
            },
        ];
        let t = LayerTimes::from_spans(&spans);
        assert!((t.get("root") - 700e-9).abs() < 1e-15);
        assert!((t.get("leaf") - 300e-9).abs() < 1e-15);
        assert!((t.sum_except("root") - 300e-9).abs() < 1e-15);
    }
}
