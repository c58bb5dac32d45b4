//! Integration tests for the observability layer as wired through the
//! experiment engine: deterministic metric aggregation across thread
//! counts, telemetry stream well-formedness, and the disabled fast path.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use aro_obs::json::{self, Value};
use aro_par::set_thread_override;
use aro_sim::experiments::run_by_id;
use aro_sim::SimConfig;

/// Enablement, the sink and the thread override are process-global; run
/// these tests one at a time.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores global state even when an assertion fails mid-test.
struct Cleanup;
impl Drop for Cleanup {
    fn drop(&mut self) {
        set_thread_override(0);
        aro_obs::set_enabled(false);
        aro_obs::sink::close();
        aro_obs::reset();
    }
}

/// The work counters each experiment books at quick scale: kernel
/// rebuilds (real and phantom), BTI applies, HCI applies and readout
/// noise draws. A decided pair of a hard or voted read draws nothing, so
/// an envelope that decides more or fewer pairs moves the draws. exp16
/// exercises every kernel-cache path: faulted soft reads under
/// excursions, snapshot replays and preloaded phantom kernels. A change
/// to the cache key, its eviction rule or the phantom bookkeeping moves
/// these. exp8 and exp15
/// pin the key bench: each fabricates, enrolls, ages and reads its own
/// chips when run alone. exp18 and exp19 fan their per-chip work out
/// (fleet enrollment, aging, re-enrollment reads, lifecycle missions and
/// impostor passes): a fan-out that skipped or repeated a read would
/// move their counts.
const PINNED_WORK: [(&str, [(&str, u64); 4]); 6] = [
    (
        "exp8",
        [
            ("circuit.kernel_rebuilds", 161_320),
            ("device.bti_applies", 969_300),
            ("device.hci_applies", 548_400),
            ("circuit.noise_draws", 32_812),
        ],
    ),
    (
        "exp15",
        [
            ("circuit.kernel_rebuilds", 405_626),
            ("device.bti_applies", 2_932_800),
            ("device.hci_applies", 1_641_540),
            ("circuit.noise_draws", 324_664),
        ],
    ),
    (
        "exp2",
        [
            ("circuit.kernel_rebuilds", 16_640),
            ("device.bti_applies", 134_400),
            ("device.hci_applies", 76_800),
            ("circuit.noise_draws", 7_598),
        ],
    ),
    (
        "exp16",
        [
            ("circuit.kernel_rebuilds", 2_125_374),
            ("device.bti_applies", 18_436_800),
            ("device.hci_applies", 9_001_950),
            ("circuit.noise_draws", 1_631_678),
        ],
    ),
    (
        "exp18",
        [
            ("circuit.kernel_rebuilds", 5_036_507),
            ("device.bti_applies", 22_105_200),
            ("device.hci_applies", 14_231_060),
            ("circuit.noise_draws", 6_172_579),
        ],
    ),
    (
        "exp19",
        [
            ("circuit.kernel_rebuilds", 953_370),
            ("device.bti_applies", 5_534_400),
            ("device.hci_applies", 2_689_230),
            ("circuit.noise_draws", 1_424_664),
        ],
    ),
];

#[test]
fn aggregates_and_results_identical_across_thread_counts() {
    let _guard = lock();
    let _cleanup = Cleanup;
    let cfg = SimConfig::quick();

    for (id, pinned) in PINNED_WORK {
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            set_thread_override(threads);
            aro_obs::reset();
            aro_obs::set_enabled(true);
            let report = run_by_id(id, &cfg).expect("experiment exists");
            aro_obs::set_enabled(false);
            let metrics = aro_obs::take_scratch();
            for (counter, value) in pinned {
                assert_eq!(
                    metrics.counter(counter),
                    value,
                    "{id} at {threads} threads: {counter} moved"
                );
            }
            runs.push((threads, metrics.dump(), report));
        }
        set_thread_override(0);

        let (_, reference_dump, reference_report) = &runs[0];
        assert!(
            reference_dump.contains("sim.chips_simulated"),
            "instrumentation recorded nothing:\n{reference_dump}"
        );
        for (threads, dump, report) in &runs[1..] {
            assert_eq!(
                dump, reference_dump,
                "{id}: metric aggregates differ at {threads} threads"
            );
            assert_eq!(
                report, reference_report,
                "{id}: experiment results differ at {threads} threads"
            );
        }
    }
}

#[test]
fn telemetry_stream_is_valid_jsonl_with_wellformed_nesting() {
    let _guard = lock();
    let _cleanup = Cleanup;

    aro_obs::reset();
    aro_obs::set_enabled(true);
    let buf = aro_obs::sink::install_memory();
    let _ = run_by_id("exp2", &SimConfig::quick()).expect("exp2 exists");
    let registry = aro_obs::snapshot();
    aro_obs::flush_metrics_to_sink(&registry);
    aro_obs::sink::close();
    aro_obs::set_enabled(false);

    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf-8 telemetry");
    assert!(!text.is_empty(), "telemetry stream is empty");

    // Every line parses as one JSON object with an event tag.
    let events: Vec<Value> = text
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}")))
        .collect();

    // Per-thread span brackets: every close matches the innermost open.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut span_events = 0;
    for event in &events {
        let kind = event
            .get("event")
            .and_then(Value::as_str)
            .expect("event tag");
        if kind != "span_open" && kind != "span_close" {
            continue;
        }
        span_events += 1;
        let name = event.get("name").and_then(Value::as_str).expect("name");
        let thread = event.get("thread").and_then(Value::as_u64).expect("thread");
        let depth = event.get("depth").and_then(Value::as_u64).expect("depth") as usize;
        let stack = stacks.entry(thread).or_default();
        if kind == "span_open" {
            stack.push(name.to_string());
            assert_eq!(stack.len(), depth, "open depth mismatch for {name}");
        } else {
            assert_eq!(
                stack.pop().as_deref(),
                Some(name),
                "close without matching open"
            );
            assert_eq!(stack.len() + 1, depth, "close depth mismatch for {name}");
            assert!(
                event.get("dur_ns").and_then(Value::as_u64).is_some(),
                "span_close must carry dur_ns"
            );
        }
    }
    assert!(span_events >= 4, "expected spans, saw {span_events} events");
    for (thread, stack) in stacks {
        assert!(
            stack.is_empty(),
            "unclosed spans on thread {thread}: {stack:?}"
        );
    }

    // The final metrics flush made it into the stream.
    assert!(
        events.iter().any(|e| {
            e.get("event").and_then(Value::as_str) == Some("counter")
                && e.get("name").and_then(Value::as_str) == Some("sim.chips_simulated")
        }),
        "metrics flush missing from telemetry"
    );
}

#[test]
fn disabled_instrumentation_emits_and_records_nothing() {
    let _guard = lock();
    let _cleanup = Cleanup;

    aro_obs::reset();
    aro_obs::set_enabled(false);
    let buf = aro_obs::sink::install_memory();
    let _ = run_by_id("exp1", &SimConfig::quick()).expect("exp1 exists");
    aro_obs::sink::close();

    assert!(
        buf.lock().unwrap().is_empty(),
        "disabled run must write no telemetry"
    );
    assert!(
        aro_obs::snapshot().is_empty(),
        "disabled run must record no metrics"
    );
}
