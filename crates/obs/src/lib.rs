//! `aro-obs` — zero-dependency observability for the ARO-PUF reproduction.
//!
//! Three pieces, all opt-in at runtime:
//!
//! - **Spans** ([`span`](mod@span)): RAII guards with monotonic timing
//!   and a per-thread span stack, emitted as `span_open`/`span_close`
//!   telemetry events; [`span::SpanAgg`] replays a capture into a
//!   profile.
//! - **Metrics** ([`metrics::Registry`]): counters and streaming
//!   [`sketch::Sketch`] accumulators (mean / variance / quantiles over
//!   unbounded streams, one fixed bucket layout) recorded into a
//!   thread-local scratch registry. Parallel code hands worker scratches
//!   back to the spawning thread, which merges them in worker-index order;
//!   both kinds commute, so aggregates are byte-identical for any thread
//!   count (see `aro-par`).
//! - **Telemetry sink** ([`sink`]): a process-wide JSON-lines writer (file
//!   or in-memory) receiving span events and a final metrics flush.
//!
//! Everything is off by default: every entry point first checks one
//! relaxed atomic and returns immediately, so fully-disabled
//! instrumentation costs a branch per site (<5 % of any workload here).
//!
//! Naming conventions and the telemetry schema are documented in
//! `docs/OBSERVABILITY.md` at the workspace root.

pub mod json;
pub mod metrics;
pub mod sink;
pub mod sketch;
pub mod span;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};

pub use metrics::Registry;
pub use sketch::Sketch;
pub use span::Span;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when instrumentation is live. One relaxed load — this is the
/// fast-path check every recording entry point performs first.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns instrumentation on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

thread_local! {
    static SCRATCH: RefCell<Registry> = RefCell::new(Registry::new());
    // Counter fast path: name literals are 'static, so deltas accumulate in
    // a tiny vector searched by pointer identity — no string comparison and
    // no tree walk on the per-device hot paths (kernel rebuilds, BTI/HCI
    // applies fire hundreds of thousands of times per run). Two distinct
    // literals with equal text get separate slots and merge by name when
    // the slots are folded into the scratch registry on read.
    static HOT_COUNTERS: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
    // Sketch fast path: same pointer-identity trick for the streaming
    // sketches fed from those same hot paths (every kernel rebuild observes
    // the ring frequency, every stress apply the BTI drift — millions of
    // observations per run). Each slot holds a whole sketch that folds into
    // the scratch registry by name on read; sketch merge is commutative, so
    // neither the slot order nor the fold timing can perturb the bytes.
    static HOT_SKETCHES: RefCell<Vec<(&'static str, Sketch)>> = const { RefCell::new(Vec::new()) };
}

/// One hot-path metric emission teed off by an active tap recording.
///
/// Only the literal-name fast paths ([`counter`] and [`sketch()`]) are
/// tapped: they are the ones the per-device aging/readout loops drive, and
/// the aged-state snapshot layer needs to replay exactly those emissions
/// when it restores a chip instead of re-aging it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapEvent {
    /// A [`counter`] call: `(name, delta)`.
    Counter(&'static str, u64),
    /// A [`sketch()`] observation: `(name, value)`.
    Sketch(&'static str, f64),
}

thread_local! {
    // One dedicated flag so the [`counter`]/[`sketch`] fast paths pay a
    // single thread-local bool check while no tap is recording.
    static TAP_ON: Cell<bool> = const { Cell::new(false) };
    static TAP: RefCell<Vec<TapEvent>> = const { RefCell::new(Vec::new()) };
}

/// Starts (or restarts) a tap recording on this thread: every subsequent
/// [`counter`]/[`sketch()`] call is both emitted normally *and* appended to
/// the tape, until [`tap_take`] collects it. While instrumentation is
/// disabled nothing is emitted and therefore nothing is taped — replaying
/// such a tape is a no-op, exactly matching what the recorded code would
/// have emitted live.
pub fn tap_begin() {
    TAP.with(|t| t.borrow_mut().clear());
    TAP_ON.with(|on| on.set(true));
}

/// Number of events taped so far (0 without an active recording). Callers
/// bracket sub-sections of a recording — e.g. one ring's stress emissions
/// — as `(tap_position .. tap_position)` spans into the taken tape.
#[must_use]
pub fn tap_position() -> usize {
    TAP.with(|t| t.borrow().len())
}

/// Ends the recording and returns the tape.
#[must_use]
pub fn tap_take() -> Vec<TapEvent> {
    TAP_ON.with(|on| on.set(false));
    TAP.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Re-emits a slice of taped events in order. Counters commute, and
/// sketch observations are replayed in their original order, so the
/// scratch-registry state after a replay is bitwise identical to what the
/// recorded code would have produced live (same names, same values, same
/// fold order). Inert while instrumentation is disabled — like the
/// original emissions would have been.
pub fn tap_replay(events: &[TapEvent]) {
    if !enabled() {
        return;
    }
    for event in events {
        match *event {
            TapEvent::Counter(name, delta) => counter(name, delta),
            TapEvent::Sketch(name, value) => sketch(name, value),
        }
    }
}

#[inline]
fn tap_push(event: TapEvent) {
    if TAP_ON.with(Cell::get) {
        TAP.with(|t| t.borrow_mut().push(event));
    }
}

/// Folds the pointer-keyed counter and sketch slots into the scratch
/// registry. Called by every read/take/reset entry point so the fast
/// paths stay invisible.
fn flush_hot() {
    HOT_COUNTERS.with(|h| {
        let mut slots = h.borrow_mut();
        if slots.is_empty() {
            return;
        }
        SCRATCH.with(|r| {
            let mut registry = r.borrow_mut();
            for (name, delta) in slots.drain(..) {
                registry.add_counter(name, delta);
            }
        });
    });
    HOT_SKETCHES.with(|h| {
        let mut slots = h.borrow_mut();
        if slots.is_empty() {
            return;
        }
        SCRATCH.with(|r| {
            let mut registry = r.borrow_mut();
            for (name, sketch) in slots.drain(..) {
                registry.fold_sketch(name, &sketch);
            }
        });
    });
}

/// Opens a scoped span; close happens when the returned guard drops.
/// Inert (one branch, no allocation) while disabled.
#[inline]
pub fn span(name: &str) -> Span {
    if enabled() {
        Span::open(name)
    } else {
        Span::disabled()
    }
}

/// Adds `delta` to the named counter on this thread's scratch registry.
///
/// `name` must be a `'static` literal: the hot path accumulates into
/// pointer-keyed slots and only folds them into the registry when the
/// metrics are read ([`snapshot`], [`take_scratch`], [`reset`]).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        tap_push(TapEvent::Counter(name, delta));
        HOT_COUNTERS.with(|h| {
            let mut slots = h.borrow_mut();
            for slot in slots.iter_mut() {
                if slot.0.as_ptr() == name.as_ptr() && slot.0.len() == name.len() {
                    slot.1 += delta;
                    return;
                }
            }
            slots.push((name, delta));
        });
    }
}

/// Records an observation into the named streaming sketch on this
/// thread's scratch registry. Sketches ride the same
/// worker-index-order merge as every other metric, so fleet-health
/// percentiles are byte-identical at any thread count.
///
/// `name` must be a `'static` literal: like [`counter`], the hot path
/// accumulates into pointer-keyed slots (no string compare, no tree walk)
/// and only folds them into the registry when the metrics are read. For
/// names built at runtime, use [`sketch_dyn`].
#[inline]
pub fn sketch(name: &'static str, value: f64) {
    if enabled() {
        tap_push(TapEvent::Sketch(name, value));
        HOT_SKETCHES.with(|h| {
            let mut slots = h.borrow_mut();
            for slot in slots.iter_mut() {
                if slot.0.as_ptr() == name.as_ptr() && slot.0.len() == name.len() {
                    slot.1.observe(value);
                    return;
                }
            }
            let mut sketch = Sketch::new();
            sketch.observe(value);
            slots.push((name, sketch));
        });
    }
}

/// Records an observation into a sketch whose name is built at runtime
/// (e.g. the per-age `puf.ber.y…` family). Goes straight to the scratch
/// registry's name-keyed map — prefer [`sketch()`] for literal names on
/// hot paths.
#[inline]
pub fn sketch_dyn(name: &str, value: f64) {
    if enabled() {
        SCRATCH.with(|r| r.borrow_mut().sketch_observe(name, value));
    }
}

/// Emits one structured fault-injection event to the telemetry sink:
/// `{"event":"fault","kind":…,"chip":…,"count":…,<fields…>,"ts_ns":…}`.
///
/// The `aro-faults` injectors call this at every fire site alongside their
/// `faults.*` counters, so a telemetry capture carries the exact injection
/// trail (which chip, how hard) and not just the aggregate tallies.
/// Inert unless both instrumentation and a sink are live; injectors whose
/// plan rolls zero events never reach a fire site, so a zero-intensity run
/// emits nothing.
pub fn fault_event(kind: &str, chip_id: u64, count: u64, fields: &[(&str, f64)]) {
    if !enabled() || !sink::installed() {
        return;
    }
    use std::fmt::Write as _;
    let mut line = String::from("{\"event\":\"fault\",\"kind\":");
    json::escape_into(&mut line, kind);
    let _ = write!(line, ",\"chip\":{chip_id},\"count\":{count}");
    for (name, value) in fields {
        line.push(',');
        json::escape_into(&mut line, name);
        line.push(':');
        json::number_into(&mut line, *value);
    }
    let _ = write!(line, ",\"ts_ns\":{}}}", span::now_ns());
    sink::write_line(&line);
}

/// Takes this thread's scratch registry, leaving it empty.
///
/// Worker threads call this after finishing their chunk and hand the
/// registry back to the spawning thread, which folds the registries in
/// worker-index order via [`merge_scratch`].
#[must_use]
pub fn take_scratch() -> Registry {
    flush_hot();
    SCRATCH.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Folds a harvested worker registry into this thread's scratch.
pub fn merge_scratch(worker: &Registry) {
    if !worker.is_empty() {
        SCRATCH.with(|r| r.borrow_mut().merge(worker));
    }
}

/// A copy of this thread's accumulated metrics.
#[must_use]
pub fn snapshot() -> Registry {
    flush_hot();
    SCRATCH.with(|r| r.borrow().clone())
}

/// Clears this thread's metrics (between runs or tests). Does not touch
/// the sink or enablement.
pub fn reset() {
    HOT_COUNTERS.with(|h| h.borrow_mut().clear());
    HOT_SKETCHES.with(|h| h.borrow_mut().clear());
    SCRATCH.with(|r| *r.borrow_mut() = Registry::new());
}

/// Writes every metric in `registry` to the telemetry sink as one
/// contiguous block of JSONL events. No-op without a sink.
pub fn flush_metrics_to_sink(registry: &Registry) {
    if !sink::installed() {
        return;
    }
    let mut lines = Vec::new();
    registry.emit_jsonl(&mut lines);
    sink::write_lines(&lines);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global state (enablement, sink) is shared across the test binary's
    // threads; serialize the tests that touch it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_paths_record_nothing() {
        let _guard = lock();
        set_enabled(false);
        reset();
        counter("x", 1);
        sketch("s", 4.0);
        sketch_dyn("sd", 5.0);
        {
            let _span = span("quiet");
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_paths_record_and_harvest() {
        let _guard = lock();
        set_enabled(true);
        reset();
        counter("sim.chips", 2);
        {
            let _span = span("phase");
            counter("sim.chips", 3);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("sim.chips"), 5);

        let taken = take_scratch();
        assert!(snapshot().is_empty());
        merge_scratch(&taken);
        assert_eq!(snapshot().counter("sim.chips"), 5);

        set_enabled(false);
        reset();
    }

    #[test]
    fn sketch_fast_path_folds_into_the_registry_by_name() {
        let _guard = lock();
        set_enabled(true);
        reset();

        // Pointer-keyed slots vs direct registry observes: identical
        // aggregates, including when the same text arrives through both
        // the fast path and the dynamic path (distinct name storage).
        for i in 1..=100u64 {
            #[allow(clippy::cast_precision_loss)]
            sketch("hot.metric", i as f64);
        }
        sketch_dyn(&String::from("hot.metric"), 1000.0);
        let snap = snapshot();
        let folded = snap
            .sketch("hot.metric")
            .expect("fast path must fold on read");
        assert_eq!(folded.count(), 101);
        // The moment sums are exact; the median only to bucket resolution
        // (8 buckets/decade, lower-edge representative: 10^(13/8) ≈ 42.2).
        assert!((folded.mean() - 6050.0 / 101.0).abs() < 1e-3);
        assert!((30.0..60.0).contains(&folded.quantile(0.5)));
        assert_eq!(folded.max(), 1000.0);

        // A second read after more observations keeps accumulating rather
        // than double-counting the already-folded slots.
        sketch("hot.metric", 2.0);
        assert_eq!(
            snapshot().sketch("hot.metric").map(Sketch::count),
            Some(102)
        );

        set_enabled(false);
        reset();
    }

    #[test]
    fn worker_handoff_matches_sequential() {
        let _guard = lock();
        set_enabled(true);
        reset();

        // Sequential reference.
        for i in 0..100u64 {
            counter("work.items", 1);
            #[allow(clippy::cast_precision_loss)]
            sketch("work.ber", i as f64 / 100.0);
        }
        let sequential = take_scratch();

        // Scoped-thread fan-out with worker-index-order merge.
        let harvested: Vec<Registry> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|w| {
                    scope.spawn(move || {
                        for i in (w * 25)..((w + 1) * 25) {
                            counter("work.items", 1);
                            #[allow(clippy::cast_precision_loss)]
                            sketch("work.ber", i as f64 / 100.0);
                        }
                        take_scratch()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for worker in &harvested {
            merge_scratch(worker);
        }
        assert_eq!(take_scratch().dump(), sequential.dump());

        set_enabled(false);
        reset();
    }

    #[test]
    fn tap_replay_reproduces_the_recorded_registry_state() {
        let _guard = lock();
        set_enabled(true);
        reset();

        tap_begin();
        assert_eq!(tap_position(), 0);
        counter("tap.count", 2);
        let mid = tap_position();
        sketch("tap.value", 1.5);
        counter("tap.count", 3);
        let tape = tap_take();
        assert_eq!(mid, 1);
        assert_eq!(tape.len(), 3);
        let live = take_scratch();

        // Replaying the whole tape reproduces the live registry exactly.
        tap_replay(&tape);
        let replayed = take_scratch();
        assert_eq!(replayed.dump(), live.dump());

        // Spans address sub-sections: just the post-`mid` emissions.
        tap_replay(&tape[mid..]);
        let partial = take_scratch();
        assert_eq!(partial.counter("tap.count"), 3);
        assert_eq!(partial.sketch("tap.value").map(Sketch::count), Some(1));

        // Replay while a tap is not recording must not extend any tape.
        tap_begin();
        assert_eq!(tap_position(), 0);
        let _ = tap_take();

        set_enabled(false);
        reset();
    }

    #[test]
    fn tap_is_inert_while_disabled() {
        let _guard = lock();
        set_enabled(false);
        reset();
        tap_begin();
        counter("tap.off", 1);
        sketch("tap.off.s", 1.0);
        assert!(tap_take().is_empty(), "disabled emissions must not tape");
        tap_replay(&[TapEvent::Counter("tap.off", 1)]);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn sink_receives_span_events_and_metric_flush() {
        let _guard = lock();
        set_enabled(true);
        reset();
        let buf = sink::install_memory();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let mut registry = Registry::new();
        registry.add_counter("c", 1);
        flush_metrics_to_sink(&registry);
        sink::close();
        set_enabled(false);
        reset();

        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let events: Vec<json::Value> = text
            .lines()
            .map(|l| json::parse(l).expect("valid JSONL"))
            .collect();
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| e.get("event").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(
            kinds,
            [
                "span_open",
                "span_open",
                "span_close",
                "span_close",
                "counter"
            ]
        );
        // Inner closes before outer; depths mirror.
        assert_eq!(
            events[1].get("depth").and_then(json::Value::as_u64),
            Some(2)
        );
        assert_eq!(
            events[3].get("depth").and_then(json::Value::as_u64),
            Some(1)
        );
    }
}
