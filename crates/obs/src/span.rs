//! Scoped spans with monotonic timing and a per-thread span stack.
//!
//! A [`Span`] guard opened while telemetry is enabled emits `span_open` /
//! `span_close` events to the sink (if one is installed). Durations are
//! wall-clock and therefore **not** part of the deterministic metrics
//! registry: they leave the process only as telemetry, and [`SpanAgg`]
//! replays a capture into per-name statistics for profiling.
//!
//! Nesting is tracked per thread: each span records its depth at open, and
//! guards close in LIFO order by construction, so a telemetry stream's
//! open/close events per thread form a well-formed bracket sequence.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::{json, sink};

/// Monotonic origin for event timestamps, fixed at first use.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process telemetry epoch — the `ts_ns` clock all
/// emitted events share.
pub(crate) fn now_ns() -> u128 {
    epoch().elapsed().as_nanos()
}

/// The next unassigned telemetry thread id.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// This thread's telemetry id (`std::thread::ThreadId` is opaque): the id
/// [`assign_thread_id`] gave it, else the next unassigned one, taken at
/// its first span event.
fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        id.get().unwrap_or_else(|| {
            let next = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            id.set(Some(next));
            next
        })
    })
}

/// Takes the next telemetry thread id for a worker about to be spawned:
/// the returned closure, run first on the worker, makes the id that
/// worker's. A fan-out that takes its workers' ids on the spawning thread,
/// in chunk order, numbers them alike on every run, whichever worker
/// emits first (`aro-par` does).
pub fn assign_thread_id() -> impl FnOnce() + Send {
    let assigned = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    move || THREAD_ID.with(|id| id.set(Some(assigned)))
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

struct ActiveSpan {
    name: String,
    start: Instant,
    depth: usize,
}

/// RAII guard for a scoped span; closes (and reports) on drop.
///
/// Obtain via [`crate::span()`]. When telemetry is disabled the guard is
/// inert and costs one branch.
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    pub(crate) fn disabled() -> Self {
        Self { active: None }
    }

    pub(crate) fn open(name: &str) -> Self {
        let depth = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name.to_string());
            s.len()
        });
        if sink::installed() {
            let ts = epoch().elapsed().as_nanos();
            let mut line = String::from("{\"event\":\"span_open\",\"name\":");
            json::escape_into(&mut line, name);
            let _ = write!(
                line,
                ",\"thread\":{},\"depth\":{depth},\"ts_ns\":{ts}",
                thread_id()
            );
            line.push('}');
            sink::write_line(&line);
        }
        Self {
            active: Some(ActiveSpan {
                name: name.to_string(),
                start: Instant::now(),
                depth,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let dur_ns = span.start.elapsed().as_nanos();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(
                s.last().map(String::as_str),
                Some(span.name.as_str()),
                "span guards must close in LIFO order"
            );
            s.pop();
        });
        if sink::installed() {
            let ts = epoch().elapsed().as_nanos();
            let mut line = String::from("{\"event\":\"span_close\",\"name\":");
            json::escape_into(&mut line, &span.name);
            let _ = write!(
                line,
                ",\"thread\":{},\"depth\":{},\"ts_ns\":{ts},\"dur_ns\":{dur_ns}",
                thread_id(),
                span.depth
            );
            line.push('}');
            sink::write_line(&line);
        }
    }
}

/// Self-time-aware statistics for one span name, built by [`SpanAgg`]
/// from a `span_open`/`span_close` event stream.
///
/// These separate the time a span spent in its *children* from the time
/// spent in its own body, so a profile can rank phases by where the cycles
/// actually went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total (inclusive) nanoseconds across all completions.
    pub total_ns: u128,
    /// Nanoseconds spent inside child spans.
    pub child_ns: u128,
    /// Longest single (inclusive) completion.
    pub max_ns: u128,
}

impl ProfileStats {
    /// Exclusive time: total minus child time (saturating — clock jitter
    /// between open/close pairs can make children appear marginally
    /// longer than their parent).
    #[must_use]
    pub fn self_ns(&self) -> u128 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Mean inclusive duration (0 when no spans completed).
    #[must_use]
    pub fn mean_ns(&self) -> u128 {
        if self.count == 0 {
            0
        } else {
            self.total_ns / u128::from(self.count)
        }
    }
}

struct AggFrame {
    name: String,
    child_ns: u128,
}

/// Replays a `span_open`/`span_close` event stream into per-name
/// [`ProfileStats`], reconstructing each thread's bracket structure so
/// child time can be attributed to parents.
///
/// Root time is counted on the capture's first thread only: that thread
/// drives the run, and a worker thread only ever runs inside one of its
/// spans, so a worker span that closes on its own empty stack adds no
/// wall time. [`SpanAgg::closed_on_worker`] names the spans that closed
/// on any other thread.
///
/// Tolerant of truncated streams (a killed run): opens that never close
/// simply contribute nothing, and a close whose open was lost before the
/// capture started is folded in as a root-level span.
#[derive(Debug, Default)]
pub struct SpanAgg {
    stacks: BTreeMap<u64, Vec<AggFrame>>,
    stats: BTreeMap<String, ProfileStats>,
    /// The thread of the first span event fed in.
    first_thread: Option<u64>,
    root_ns: u128,
    /// Names of spans that closed away from the first thread.
    on_workers: BTreeSet<String>,
}

impl std::fmt::Debug for AggFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggFrame")
            .field("name", &self.name)
            .finish()
    }
}

impl SpanAgg {
    /// An empty aggregation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one `span_open` event.
    pub fn open(&mut self, thread: u64, name: &str) {
        self.first_thread.get_or_insert(thread);
        self.stacks.entry(thread).or_default().push(AggFrame {
            name: name.to_string(),
            child_ns: 0,
        });
    }

    /// Feeds one `span_close` event.
    pub fn close(&mut self, thread: u64, name: &str, dur_ns: u128) {
        let first_thread = *self.first_thread.get_or_insert(thread);
        let stack = self.stacks.entry(thread).or_default();
        let child_ns = match stack.iter().rposition(|f| f.name == name) {
            Some(pos) => {
                // Frames above `pos` are opens whose closes were lost
                // (truncated capture) — discard them with the pop.
                stack.truncate(pos + 1);
                stack.pop().expect("pos is in range").child_ns
            }
            None => 0, // close without a captured open: root-level span
        };
        let stats = self.stats.entry(name.to_string()).or_default();
        stats.count += 1;
        stats.total_ns += dur_ns;
        stats.child_ns += child_ns;
        stats.max_ns = stats.max_ns.max(dur_ns);
        match stack.last_mut() {
            Some(parent) => parent.child_ns += dur_ns,
            None if thread == first_thread => self.root_ns += dur_ns,
            None => {}
        }
        if thread != first_thread && !self.on_workers.contains(name) {
            self.on_workers.insert(name.to_string());
        }
    }

    /// Per-name statistics, sorted by name.
    #[must_use]
    pub fn stats(&self) -> &BTreeMap<String, ProfileStats> {
        &self.stats
    }

    /// Total nanoseconds covered by the first thread's root-level
    /// (depth-1) spans — the traced wall time of the capture.
    #[must_use]
    pub fn root_total_ns(&self) -> u128 {
        self.root_ns
    }

    /// Whether any span named `name` closed away from the capture's
    /// first thread: its self time is worker CPU time, not a share of
    /// the traced wall time.
    #[must_use]
    pub fn closed_on_worker(&self, name: &str) -> bool {
        self.on_workers.contains(name)
    }
}

#[cfg(test)]
mod agg_tests {
    use super::*;

    #[test]
    fn child_time_is_attributed_to_the_parent() {
        let mut agg = SpanAgg::new();
        agg.open(0, "run");
        agg.open(0, "aging");
        agg.close(0, "aging", 300);
        agg.open(0, "aging");
        agg.close(0, "aging", 200);
        agg.close(0, "run", 1000);
        let run = agg.stats()["run"];
        assert_eq!(run.total_ns, 1000);
        assert_eq!(run.child_ns, 500);
        assert_eq!(run.self_ns(), 500);
        let aging = agg.stats()["aging"];
        assert_eq!(aging.count, 2);
        assert_eq!(aging.total_ns, 500);
        assert_eq!(aging.self_ns(), 500);
        assert_eq!(aging.mean_ns(), 250);
        assert_eq!(agg.root_total_ns(), 1000);
    }

    #[test]
    fn threads_keep_independent_stacks() {
        let mut agg = SpanAgg::new();
        agg.open(0, "a");
        agg.open(1, "b");
        agg.close(1, "b", 10);
        agg.close(0, "a", 20);
        assert_eq!(agg.stats()["a"].child_ns, 0, "b ran on another thread");
    }

    #[test]
    fn worker_spans_are_not_wall_time() {
        let mut agg = SpanAgg::new();
        agg.open(0, "run");
        agg.open(1, "serve.reenroll");
        agg.close(1, "serve.reenroll", 600);
        agg.close(0, "run", 1000);
        assert_eq!(agg.root_total_ns(), 1000);
        assert_eq!(agg.stats()["serve.reenroll"].self_ns(), 600);
        assert!(agg.closed_on_worker("serve.reenroll"));
        assert!(!agg.closed_on_worker("run"));
    }

    #[test]
    fn truncated_captures_do_not_wedge_the_stack() {
        let mut agg = SpanAgg::new();
        agg.open(0, "lost-open"); // close was never captured
        agg.open(0, "outer");
        agg.close(0, "outer", 50);
        agg.close(0, "orphan-close", 5); // open was never captured
        assert_eq!(agg.stats()["outer"].total_ns, 50);
        assert_eq!(agg.stats()["orphan-close"].total_ns, 5);
        assert!(!agg.stats().contains_key("lost-open"));
    }
}
