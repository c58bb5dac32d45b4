//! The five workloads, one rep of each, and the rep loop that turns reps
//! into metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use aro_device::rng::SeedDomain;
use aro_obs::span::{ProfileStats, SpanAgg};
use aro_obs::Registry;
use aro_serve::BenchPlan;
use aro_sim::experiments::{run_by_id, ALL_IDS};
use aro_sim::{popcache, SimConfig};

use crate::serve::{Fleet, Layers, ServeSpec};
use crate::stats::{median, percentile, tail_percentile};

/// The committed reports `repro` renders at the default seed.
const GOLDEN_QUICK: &str = include_str!("../../tests/fixtures/golden_quick.md");
const PAPER_SCALE: &str = include_str!("../../repro_paper_scale.md");

/// Set-up of the experiment workloads is timed as the median of
/// `SETUP_BATCHES` batches of `SETUPS_PER_BATCH` calls: one call takes
/// well under a microsecond.
const SETUP_BATCHES: usize = 9;
const SETUPS_PER_BATCH: u32 = 2_000;

const PAPER_PHYSICS: [&str; 12] = [
    "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp9", "exp10", "exp11", "exp12",
    "exp13",
];
const PAPER_LIFECYCLE: [&str; 6] = ["exp8", "exp14", "exp15", "exp16", "exp17", "exp19"];

/// One set of inputs the benchmark runs. Why each exists is recorded in
/// `BENCHMARK.json` and the README.
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
}

enum Kind {
    /// Experiments run by id in one population-cache scope, as
    /// `repro [--quick] ID...` runs them, at the paper's fixed seed: their
    /// work depends on the seed (EXP-19's search alone by up to 3x), and
    /// their reports are checked against the committed ones. The workload
    /// seed draws the run order instead.
    Experiments {
        quick: bool,
        ids: &'static [&'static str],
    },
    Serve(ServeSpec),
}

pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "repro-quick",
        kind: Kind::Experiments {
            quick: true,
            ids: &ALL_IDS,
        },
    },
    Workload {
        name: "paper-physics",
        kind: Kind::Experiments {
            quick: false,
            ids: &PAPER_PHYSICS,
        },
    },
    Workload {
        name: "paper-lifecycle",
        kind: Kind::Experiments {
            quick: false,
            ids: &PAPER_LIFECYCLE,
        },
    },
    Workload {
        name: "serve-steady",
        kind: Kind::Serve(ServeSpec {
            fleet: 64,
            age_years: 10.0,
            storm: None,
            plan: BenchPlan {
                genuine_rounds: 500,
                impostor_rounds: 100,
            },
        }),
    },
    Workload {
        name: "serve-heal",
        kind: Kind::Serve(ServeSpec {
            fleet: 64,
            age_years: 5.0,
            storm: Some(0.5),
            plan: BenchPlan {
                genuine_rounds: 150,
                impostor_rounds: 30,
            },
        }),
    },
];

/// The workload called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed the committed reports were rendered at, `SimConfig`'s own;
/// also the default workload seed.
#[must_use]
pub fn reference_seed() -> u64 {
    SimConfig::paper().seed
}

/// One output that must repeat exactly across reps, standing for
/// `weight` operations.
#[derive(Debug, Clone, PartialEq)]
struct Output {
    label: &'static str,
    digest: Option<u64>,
    weight: u64,
}

/// What one rep measured.
#[derive(Default)]
struct Rep {
    setup: Duration,
    wall: Duration,
    cpu_s: f64,
    /// Host time of each operation a user waits for: a request, or a
    /// whole run of experiments.
    op_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    outputs: Vec<Output>,
    experiments: Vec<(&'static str, Duration)>,
    /// Genuine requests the service did not accept (serve workloads).
    genuine_denied: u64,
    layers: Layers,
    trace: Option<Trace>,
}

/// The in-process telemetry of a traced rep.
#[derive(Default)]
struct Trace {
    registry: Registry,
    spans: BTreeMap<String, ProfileStats>,
}

impl Workload {
    fn rep(&self, seed: u64, traced: bool) -> Result<Rep, String> {
        let sink = traced.then(|| {
            aro_obs::set_enabled(true);
            aro_obs::reset();
            aro_obs::sink::install_memory()
        });
        let rep = match &self.kind {
            Kind::Experiments { quick, ids } => Ok(experiments_rep(*quick, ids, seed)),
            Kind::Serve(spec) => serve_rep(spec, seed),
        };
        let trace = sink.map(|buf| {
            let registry = aro_obs::snapshot();
            aro_obs::sink::close();
            aro_obs::set_enabled(false);
            let lines = buf.lock().expect("telemetry buffer poisoned");
            Trace {
                registry,
                spans: span_self_times(&String::from_utf8_lossy(&lines)),
            }
        });
        rep.map(|rep| Rep { trace, ..rep })
    }
}

/// Per-span-name statistics of a JSON-lines telemetry capture.
fn span_self_times(jsonl: &str) -> BTreeMap<String, ProfileStats> {
    let mut agg = SpanAgg::new();
    for event in jsonl
        .lines()
        .filter_map(|line| aro_obs::json::parse(line).ok())
    {
        let field = |key| event.get(key).and_then(aro_obs::json::Value::as_u64);
        let (Some(kind), Some(name), Some(thread)) = (
            event.get("event").and_then(aro_obs::json::Value::as_str),
            event.get("name").and_then(aro_obs::json::Value::as_str),
            field("thread"),
        ) else {
            continue;
        };
        match (kind, field("dur_ns")) {
            ("span_open", _) => agg.open(thread, name),
            ("span_close", Some(dur_ns)) => agg.close(thread, name, u128::from(dur_ns)),
            _ => {}
        }
    }
    agg.stats().clone()
}

fn experiments_rep(quick: bool, ids: &[&'static str], seed: u64) -> Rep {
    // Set-up is what `repro` does before its first experiment (build and
    // validate the config) plus drawing the run order.
    let set_up = || {
        let cfg = if quick {
            SimConfig::quick()
        } else {
            SimConfig::paper()
        };
        black_box(&cfg)
            .validate()
            .expect("the built-in configs are valid");
        (cfg, run_order(ids, black_box(seed)))
    };
    let setup = time_per_call(|| {
        black_box(set_up());
    });
    let (cfg, order) = set_up();

    let cpu = cpu_seconds();
    let start = Instant::now();
    let mut runs: Vec<(&'static str, Duration, Option<String>)> = popcache::scoped(|| {
        order
            .iter()
            .map(|&id| {
                let op = Instant::now();
                let text = catch_unwind(AssertUnwindSafe(|| {
                    run_by_id(id, &cfg).map(|report| format!("{report}\n"))
                }));
                let text = text.ok().flatten();
                if text.is_none() {
                    // A half-built experiment must not poison the rest.
                    popcache::reset();
                }
                (id, op.elapsed(), text)
            })
            .collect()
    });
    let wall = start.elapsed();
    let cpu_s = cpu_seconds() - cpu;

    // A user of `repro` waits for the whole run, so the run is the one
    // operation whose latency counts; each report is one output check.
    let mut rep = Rep {
        setup,
        wall,
        cpu_s,
        op_ns: vec![nanos(wall)],
        attempted: ids.len() as u64,
        ..Rep::default()
    };
    // Reports are checked and rendered in paper order, as `repro` prints
    // them, whatever order they ran in.
    runs.sort_by_key(|(id, _, _)| ids.iter().position(|listed| listed == id));
    let reference = if quick { GOLDEN_QUICK } else { PAPER_SCALE };
    for (id, elapsed, text) in &runs {
        rep.experiments.push((id, *elapsed));
        let error = match text {
            None => Some(format!("{id} panicked")),
            Some(text) if !reference.contains(text.as_str()) => {
                Some(format!("{id} report differs from the committed report"))
            }
            Some(_) => None,
        };
        rep.failed += u64::from(error.is_some());
        rep.errors.extend(error);
        rep.outputs.push(Output {
            label: id,
            digest: text.as_deref().map(fnv1a),
            weight: 1,
        });
    }
    let rendered: String = runs
        .iter()
        .filter_map(|(_, _, text)| text.as_deref())
        .collect();
    if quick && GOLDEN_QUICK.split_once("\n\n").map(|(_, body)| body) != Some(&rendered) {
        rep.errors
            .push("output differs from tests/fixtures/golden_quick.md".to_string());
    }
    rep
}

/// The order a rep runs its experiments in: a permutation drawn from the
/// workload seed. The set of experiments, and so the work, is the same at
/// every seed; what varies is which experiment fills the shared caches
/// and which reuses them, and every order must render the same reports.
fn run_order(ids: &[&'static str], seed: u64) -> Vec<&'static str> {
    let stream = SeedDomain::new(seed).child("experiment-order");
    let mut order = ids.to_vec();
    for i in (1..order.len()).rev() {
        let j = stream.seed(i as u64) % (i as u64 + 1);
        order.swap(i, j as usize);
    }
    order
}

/// Median over a few batches of the mean time of one `f` call, for a
/// set-up too short to time one call at a time.
fn time_per_call(f: impl Fn()) -> Duration {
    let mut batches: Vec<Duration> = (0..SETUP_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SETUPS_PER_BATCH {
                f();
            }
            start.elapsed() / SETUPS_PER_BATCH
        })
        .collect();
    batches.sort_unstable();
    batches[SETUP_BATCHES / 2]
}

fn serve_rep(spec: &ServeSpec, seed: u64) -> Result<Rep, String> {
    popcache::scoped(|| {
        let mut layers = Layers::default();
        let start = Instant::now();
        let mut fleet = Fleet::set_up(&SimConfig::paper(), seed, spec, &mut layers)?;
        let setup = start.elapsed();

        let cpu = cpu_seconds();
        let start = Instant::now();
        let traffic = fleet.drive(&spec.plan, &mut layers);
        let wall = start.elapsed();
        let cpu_s = cpu_seconds() - cpu;

        let mut errors = Vec::new();
        if traffic.impostor_accepted > 0 {
            errors.push(format!(
                "{} impostor requests accepted",
                traffic.impostor_accepted
            ));
        }
        Ok(Rep {
            setup,
            wall,
            cpu_s,
            attempted: traffic.requests(),
            failed: traffic.impostor_accepted,
            errors,
            outputs: vec![Output {
                label: "tallies",
                digest: Some(fnv1a(&traffic.outcome_text())),
                weight: traffic.requests(),
            }],
            genuine_denied: traffic.genuine_denied,
            op_ns: traffic.latencies_ns,
            layers,
            ..Rep::default()
        })
    })
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// 64-bit FNV-1a: a stable digest of output bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// User plus system CPU time of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in Linux's fixed 100 Hz ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .map(|f| f.parse().unwrap_or(0))
                .collect()
        })
        .unwrap_or_default();
    let ticks = fields.get(11).unwrap_or(&0) + fields.get(12).unwrap_or(&0);
    ticks as f64 / 100.0
}

/// This process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// One metric's per-rep samples (a single sample for per-process and
/// per-layer values). Its value is their median.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &str, samples: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            unit: unit.to_string(),
            samples,
        }
    }

    #[must_use]
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// Everything one invocation measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub workload: String,
    pub seed: u64,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Digest of the first rep's outputs.
    pub digest: u64,
    /// How the latency percentiles were taken, for the printout.
    pub latency_note: String,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the invocation was traced.
    pub per_layer: Vec<Metric>,
}

impl Measured {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Runs untraced reps of `workload` until `seconds` have passed (at least
/// one), then, if `traced`, one more rep with telemetry on.
///
/// # Errors
/// When a rep cannot be set up.
pub fn measure(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Measured, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps = vec![workload.rep(seed, false)?];
    // Read after one rep, as a user's process peaks: later reps reuse a
    // heap whose fragmentation depends on how many came before.
    let peak_rss = peak_rss_mb();
    while start.elapsed() < budget {
        reps.push(workload.rep(seed, false)?);
    }
    let traced_rep = if traced {
        Some(workload.rep(seed, true)?)
    } else {
        None
    };

    let first = &reps[0];
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    for (index, rep) in reps.iter().chain(&traced_rep).enumerate() {
        attempted += rep.attempted;
        failed += rep.failed;
        errors.extend(rep.errors.iter().cloned());
        for (now, then) in rep.outputs.iter().zip(&first.outputs) {
            if now.digest.is_some() && then.digest.is_some() && now != then {
                failed += now.weight;
                errors.push(format!("rep {index}: {} differs from rep 0", now.label));
            }
        }
    }
    let digest = fnv1a(&format!("{:?}", first.outputs));

    let wall: Vec<f64> = reps.iter().map(|rep| rep.wall.as_secs_f64()).collect();
    let cpu: Vec<f64> = reps.iter().map(|rep| rep.cpu_s).collect();
    let short_tail = reps
        .iter()
        .any(|rep| tail_percentile(&sorted(&rep.op_ns), 0.99).is_none());
    let latency_note = format!(
        "{} op(s) per rep; {}",
        first.op_ns.len(),
        if short_tail {
            "p99 needs 1000, so the slowest op is reported"
        } else {
            "p99 by nearest rank"
        }
    );
    let per_layer = traced_rep.map_or_else(Vec::new, |rep| {
        per_layer(&rep, median(&wall), median(&cpu) / median(&wall))
    });
    Ok(Measured {
        workload: workload.name.to_string(),
        seed,
        reps: reps.len(),
        attempted,
        failed,
        errors,
        digest,
        latency_note,
        end_to_end: end_to_end(&reps, peak_rss),
        per_layer,
    })
}

fn sorted(ns: &[u64]) -> Vec<u64> {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    sorted
}

/// The end-to-end metrics, one sample per untraced rep (one per process
/// for the peak resident set, read after the first rep).
fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let ms = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e6;
    vec![
        Metric::new("wall_s", "s", per_rep(&|rep| rep.wall.as_secs_f64())),
        Metric::new("cpu_s", "s", per_rep(&|rep| rep.cpu_s)),
        Metric::new("setup_s", "s", per_rep(&|rep| rep.setup.as_secs_f64())),
        Metric::new("peak_rss_mb", "MB", vec![peak_rss_mb]),
        Metric::new(
            "ops_per_s",
            "1/s",
            per_rep(&|rep| rep.op_ns.len() as f64 / rep.wall.as_secs_f64()),
        ),
        Metric::new(
            "op_p50_ms",
            "ms",
            per_rep(&|rep| ms(percentile(&sorted(&rep.op_ns), 0.5))),
        ),
        Metric::new(
            "op_p99_ms",
            "ms",
            per_rep(&|rep| {
                let ops = sorted(&rep.op_ns);
                ms(tail_percentile(&ops, 0.99).or(ops.last().copied()))
            }),
        ),
    ]
}

#[cfg(test)]
/// Names and units of every end-to-end metric, in output order.
#[must_use]
pub fn end_to_end_names() -> Vec<(String, String)> {
    end_to_end(&[Rep::default()], 0.0)
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

/// Spans the program already opens, reported by self time.
const SPANS: [&str; 8] = [
    "serve.reenroll",
    "serve.workspace",
    "serve.age_fleet",
    "serve.enroll_fleet",
    "serve.bench",
    "exp19.sweep",
    "sim.timeline_step",
    "sim.enroll",
];

/// Work counters the program already keeps, by layer.
const COUNTERS: [&str; 34] = [
    "sim.popcache_hits",
    "sim.popcache_misses",
    "sim.popcache_timeline_hits",
    "sim.popcache_timeline_misses",
    "sim.snapshot_hits",
    "sim.snapshot_misses",
    "sim.provision_hits",
    "sim.provision_misses",
    "serve.requests",
    "serve.store_writes",
    "serve.store_repairs",
    "serve.store_scrub_repairs",
    "serve.replica_fallbacks",
    "serve.attempt_timeouts",
    "serve.shed",
    "serve.reenrolled",
    "serve.reenroll_failures",
    "circuit.kernel_rebuilds",
    "device.bti_applies",
    "device.hci_applies",
    "ecc.bch_decode_attempts",
    "ecc.bch_decode_failures",
    "ecc.key_reconstructions",
    "ecc.key_reconstructions_soft",
    "ecc.erasure_aware_reconstructions",
    "ecc.helper_refreshes",
    "faults.dead_ros",
    "faults.stuck_ros",
    "faults.env_excursions",
    "faults.noise_bursts",
    "faults.response_glitches",
    "faults.helper_erasures",
    "faults.replica_wipes",
    "faults.shard_losses",
];

/// Hit rates derived from the cache counters: (metric, hits, misses).
const HIT_RATES: [(&str, &str, &str); 4] = [
    (
        "sim.popcache_hit_rate",
        "sim.popcache_hits",
        "sim.popcache_misses",
    ),
    (
        "sim.popcache_timeline_hit_rate",
        "sim.popcache_timeline_hits",
        "sim.popcache_timeline_misses",
    ),
    (
        "sim.snapshot_hit_rate",
        "sim.snapshot_hits",
        "sim.snapshot_misses",
    ),
    (
        "sim.provision_hit_rate",
        "sim.provision_hits",
        "sim.provision_misses",
    ),
];

/// The per-layer split of a traced rep. Times are shares of the rep's
/// host time (set-up plus measured phase), so a layer a workload never
/// enters reads 0 without posing as a measured time; `trace.total_s`
/// converts them back to seconds.
fn per_layer(rep: &Rep, untraced_wall_s: f64, cpu_per_wall: f64) -> Vec<Metric> {
    let empty = Trace::default();
    let trace = rep.trace.as_ref().unwrap_or(&empty);
    let total = (rep.setup + rep.wall).as_secs_f64();
    let share = |d: Duration| {
        if total > 0.0 {
            d.as_secs_f64() / total
        } else {
            0.0
        }
    };
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let one = |name: String, unit: &str, value: f64| Metric::new(name, unit, vec![value]);
    let counter = |name: &str| trace.registry.counter(name);
    let layers = &rep.layers;

    let mut out = Vec::new();
    for id in ALL_IDS {
        let time = rep
            .experiments
            .iter()
            .filter(|(ran, _)| *ran == id)
            .map(|(_, d)| *d)
            .sum();
        out.push(one(format!("exp.{id}_frac"), "ratio", share(time)));
    }
    for name in SPANS {
        let self_ns = trace.spans.get(name).map_or(0, ProfileStats::self_ns);
        let self_time = Duration::from_nanos(u64::try_from(self_ns).unwrap_or(u64::MAX));
        out.push(one(format!("span.{name}_frac"), "ratio", share(self_time)));
    }
    for name in COUNTERS {
        out.push(one(name.to_string(), "count", counter(name) as f64));
    }
    for (name, hits, misses) in HIT_RATES {
        let (hits, misses) = (counter(hits), counter(misses));
        out.push(one(name.to_string(), "ratio", ratio(hits, hits + misses)));
    }
    let timed = [
        ("serve.probe_frac", layers.probe),
        ("serve.admit_frac", layers.admit),
        ("serve.reenroll_frac", layers.reenroll),
        ("serve.scrub_frac", layers.scrub),
        ("serve.enroll_frac", layers.serve_enroll),
        ("puf.fabricate_frac", layers.fabricate),
        ("puf.golden_frac", layers.golden),
        ("device.age_frac", layers.age),
        ("ecc.provision_frac", layers.provision),
        ("ecc.enroll_frac", layers.ecc_enroll),
        ("faults.inject_frac", layers.inject),
    ];
    for (name, time) in timed {
        out.push(one(name.to_string(), "ratio", share(time)));
    }
    out.push(one(
        "serve.reenroll_calls".into(),
        "count",
        layers.reenroll_calls as f64,
    ));
    out.push(one(
        "serve.scrub_calls".into(),
        "count",
        layers.scrub_calls as f64,
    ));
    out.push(one(
        "serve.genuine_denied".into(),
        "count",
        rep.genuine_denied as f64,
    ));
    let reenrolled = counter("serve.reenrolled");
    out.push(one(
        "serve.reenroll_success_rate".into(),
        "ratio",
        ratio(reenrolled, reenrolled + counter("serve.reenroll_failures")),
    ));
    out.push(one("trace.total_s".into(), "s", total));
    let overhead = if untraced_wall_s > 0.0 {
        rep.wall.as_secs_f64() / untraced_wall_s - 1.0
    } else {
        0.0
    };
    out.push(one("trace_overhead_frac".into(), "ratio", overhead));
    out.push(one("par.cpu_per_wall".into(), "ratio", cpu_per_wall));
    out
}

#[cfg(test)]
/// Names and units of every per-layer metric, in output order.
#[must_use]
pub fn per_layer_names() -> Vec<(String, String)> {
    per_layer(&Rep::default(), 0.0, 0.0)
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_self_time_subtracts_children() {
        let jsonl = "{\"event\":\"span_open\",\"name\":\"a\",\"thread\":0,\"depth\":1,\"ts_ns\":0}\n\
                     {\"event\":\"span_open\",\"name\":\"b\",\"thread\":0,\"depth\":2,\"ts_ns\":1}\n\
                     {\"event\":\"span_close\",\"name\":\"b\",\"thread\":0,\"depth\":2,\"ts_ns\":4,\"dur_ns\":3}\n\
                     {\"event\":\"fault\",\"kind\":\"x\",\"chip\":0,\"count\":1,\"ts_ns\":5}\n\
                     {\"event\":\"span_close\",\"name\":\"a\",\"thread\":0,\"depth\":1,\"ts_ns\":10,\"dur_ns\":10}\n";
        let spans = span_self_times(jsonl);
        assert_eq!(spans["a"].self_ns(), 7);
        assert_eq!(spans["b"].self_ns(), 3);
    }

    #[test]
    fn workload_names_are_unique() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(find(w.name).expect("listed"), w), "{}", w.name);
        }
    }

    #[test]
    fn every_seed_runs_every_experiment_once() {
        for seed in [1, 7, 2014] {
            let mut order = run_order(&PAPER_LIFECYCLE, seed);
            order.sort_unstable();
            let mut listed = PAPER_LIFECYCLE.to_vec();
            listed.sort_unstable();
            assert_eq!(order, listed);
        }
        assert_ne!(run_order(&ALL_IDS, 1), run_order(&ALL_IDS, 2));
    }
}
