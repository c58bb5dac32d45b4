//! `repro report` — offline analysis over the artefacts a run leaves
//! behind: telemetry JSONL captures and run ledgers.
//!
//! ```text
//! repro report profile run.jsonl [--top K]
//! repro report diff OLD NEW [--threshold F]
//! repro report health PATH...
//! repro report trace run.jsonl
//! repro report incidents run.jsonl
//! repro report slo run.jsonl [--window N] [--availability-slo F] [--latency-slo-us N]
//! ```
//!
//! `diff` compares two run ledgers: it exits 5 when any experiment's wall
//! time regressed past the threshold (default +20 %), and it also lists
//! per-experiment metric drift and, when both sides carry summaries,
//! health drift (degradations warn on stderr — the exit code stays
//! wall-time-driven). A non-ledger input exits 1.
//!
//! `health` folds telemetry captures and/or ledgers into the fleet-health
//! tables (streaming percentiles, counter run totals, per-experiment
//! summaries, cache hit rates); the output is deterministic at any
//! `--threads N`. `trace`
//! exports a capture's spans, fault events, and serve audit verdicts as
//! Chrome-trace JSON for `chrome://tracing` / Perfetto.
//!
//! `incidents` and `slo` consume a serve audit capture (`repro --audit
//! --telemetry FILE exp18`): `incidents` reconstructs per-device causal
//! timelines, top root causes, and quarantine post-mortems; `slo` scores
//! windowed availability and simulated-latency burn rates. Both are
//! byte-identical at any `--threads N` because the audit stream is
//! emitted sequentially in admission order.

use std::path::{Path, PathBuf};

use aro_ledger::{diff, health, incidents, profile, slo, trace};

/// Exit code `repro report diff` uses for "regression past threshold".
pub const EXIT_REGRESSION: i32 = 5;

fn usage() -> String {
    "usage: repro report <SUBCOMMAND>\n\
     \n\
     subcommands:\n\
     \x20 profile PATH [--top K]        span-tree profile of a telemetry\n\
     \x20                               JSONL capture: per-phase wall time,\n\
     \x20                               self vs child time, top-K hot spans\n\
     \x20                               (default K = 10)\n\
     \x20 diff OLD NEW [--threshold F]  per-experiment wall-time and metric\n\
     \x20                               deltas between two run ledgers.\n\
     \x20                               Exits 5 when any experiment's wall\n\
     \x20                               time exceeds OLD * (1 + F)\n\
     \x20                               (default F = 0.2)\n\
     \x20 health PATH...                deterministic fleet-health tables\n\
     \x20                               (BER / decode-margin / HD\n\
     \x20                               percentiles, counter totals, cache\n\
     \x20                               hit rates) from\n\
     \x20                               telemetry captures and/or ledgers;\n\
     \x20                               byte-identical at any --threads N\n\
     \x20 trace PATH                    export a telemetry capture's spans,\n\
     \x20                               fault events, and serve audit\n\
     \x20                               verdicts as Chrome-trace JSON\n\
     \x20                               (chrome://tracing, Perfetto)\n\
     \x20 incidents PATH                forensics over a serve audit capture\n\
     \x20                               (repro --audit --telemetry FILE):\n\
     \x20                               per-device causal timelines, top\n\
     \x20                               root causes, quarantine post-mortems\n\
     \x20 slo PATH [--window N]         windowed availability and simulated-\n\
     \x20     [--availability-slo F]    latency burn rates over a serve\n\
     \x20     [--latency-slo-us N]      audit capture (defaults: window 64,\n\
     \x20                               availability 0.99, p99 1250 us)\n\
     \n\
     exit codes:\n\
     \x20 0  analysis completed (no regression, for diff)\n\
     \x20 1  unreadable or unparseable input\n\
     \x20 2  usage error\n\
     \x20 5  diff found a wall-time regression past the threshold\n\
     \x20 141 output pipe closed by the consumer"
        .to_string()
}

/// Prints one line to stdout, exiting with the conventional SIGPIPE
/// status when the consumer closed the pipe (mirrors the run-mode `emit`).
fn emit(text: impl std::fmt::Display) {
    use std::io::Write as _;
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(141);
    }
}

fn fail_usage(msg: &str) -> i32 {
    eprintln!("repro report: {msg}\n\n{}", usage());
    2
}

/// Runs `repro report <args>`; returns the process exit code.
#[must_use]
pub fn run(args: &[String]) -> i32 {
    let Some(sub) = args.first() else {
        return fail_usage("missing subcommand");
    };
    match sub.as_str() {
        "profile" => run_profile(&args[1..]),
        "diff" => run_diff(&args[1..]),
        "health" => run_health(&args[1..]),
        "trace" => run_trace(&args[1..]),
        "incidents" => run_incidents(&args[1..]),
        "slo" => run_slo(&args[1..]),
        "--help" | "-h" => {
            emit(usage());
            0
        }
        other => fail_usage(&format!("unknown subcommand `{other}`")),
    }
}

fn run_profile(args: &[String]) -> i32 {
    let mut path: Option<PathBuf> = None;
    let mut top = 10usize;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let Some(value) = args.next() else {
                    return fail_usage("--top expects a count");
                };
                match value.parse() {
                    Ok(k) if k > 0 => top = k,
                    _ => {
                        return fail_usage(&format!(
                            "--top expects a positive integer, got `{value}`"
                        ))
                    }
                }
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(PathBuf::from(other));
            }
            other => return fail_usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(path) = path else {
        return fail_usage("profile expects a telemetry JSONL path");
    };
    match profile::profile_file(&path) {
        Ok(profile) => {
            emit(profile.to_markdown(top));
            0
        }
        Err(e) => {
            eprintln!("repro report: {e}");
            1
        }
    }
}

fn run_diff(args: &[String]) -> i32 {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut threshold = 0.2f64;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(value) = args.next() else {
                    return fail_usage("--threshold expects a fraction");
                };
                match value.parse::<f64>() {
                    Ok(f) if f.is_finite() && f >= 0.0 => threshold = f,
                    _ => {
                        return fail_usage(&format!(
                            "--threshold expects a non-negative fraction, got `{value}`"
                        ))
                    }
                }
            }
            other if !other.starts_with('-') && paths.len() < 2 => {
                paths.push(PathBuf::from(other));
            }
            other => return fail_usage(&format!("unexpected argument `{other}`")),
        }
    }
    let [old, new] = paths.as_slice() else {
        return fail_usage("diff expects exactly two inputs: OLD NEW");
    };
    match diff::diff_files(old, new, threshold) {
        Ok(report) => {
            emit(report.to_markdown());
            // Health degradations are advisory: warn loudly, exit cleanly.
            // A noisy BER percentile must never fail CI on its own.
            for delta in report.health_degradations() {
                eprintln!("repro report: health DEGRADED — {}", delta.describe());
            }
            if report.has_regression() {
                eprintln!(
                    "repro report: wall-time regression past +{:.0} % in: {}",
                    threshold * 100.0,
                    report.regressed_ids().join(", ")
                );
                EXIT_REGRESSION
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("repro report: {e}");
            1
        }
    }
}

fn run_health(args: &[String]) -> i32 {
    if args.is_empty() || args.iter().any(|a| a.starts_with('-')) {
        return fail_usage("health expects one or more telemetry/ledger paths");
    }
    let paths: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    match health::health_files(&paths) {
        Ok(report) => {
            emit(report.to_markdown());
            0
        }
        Err(e) => {
            eprintln!("repro report: {e}");
            1
        }
    }
}

fn run_trace(args: &[String]) -> i32 {
    let [path] = args else {
        return fail_usage("trace expects exactly one telemetry JSONL path");
    };
    if path.starts_with('-') {
        return fail_usage(&format!("unexpected argument `{path}`"));
    }
    match trace::trace_file(Path::new(path)) {
        Ok(trace) => {
            emit(trace.to_chrome_json());
            0
        }
        Err(e) => {
            eprintln!("repro report: {e}");
            1
        }
    }
}

fn run_incidents(args: &[String]) -> i32 {
    let [path] = args else {
        return fail_usage("incidents expects exactly one telemetry JSONL path");
    };
    if path.starts_with('-') {
        return fail_usage(&format!("unexpected argument `{path}`"));
    }
    match incidents::incidents_file(Path::new(path)) {
        Ok(report) => {
            emit(report.to_markdown());
            0
        }
        Err(e) => {
            eprintln!("repro report: {e}");
            1
        }
    }
}

fn run_slo(args: &[String]) -> i32 {
    let mut path: Option<PathBuf> = None;
    let mut policy = slo::SloPolicy::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--window" => {
                let Some(value) = args.next() else {
                    return fail_usage("--window expects a request count");
                };
                match value.parse() {
                    Ok(n) if n > 0 => policy.window = n,
                    _ => {
                        return fail_usage(&format!(
                            "--window expects a positive integer, got `{value}`"
                        ))
                    }
                }
            }
            "--availability-slo" => {
                let Some(value) = args.next() else {
                    return fail_usage("--availability-slo expects a fraction");
                };
                match value.parse::<f64>() {
                    Ok(f) if f > 0.0 && f < 1.0 => policy.availability = f,
                    _ => {
                        return fail_usage(&format!(
                            "--availability-slo expects a fraction in (0, 1), got `{value}`"
                        ))
                    }
                }
            }
            "--latency-slo-us" => {
                let Some(value) = args.next() else {
                    return fail_usage("--latency-slo-us expects a duration in µs");
                };
                match value.parse() {
                    Ok(us) if us > 0 => policy.latency_p99_us = us,
                    _ => {
                        return fail_usage(&format!(
                            "--latency-slo-us expects a positive integer, got `{value}`"
                        ))
                    }
                }
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(PathBuf::from(other));
            }
            other => return fail_usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(path) = path else {
        return fail_usage("slo expects a telemetry JSONL path");
    };
    match slo::slo_file(&path) {
        Ok(report) => {
            emit(report.to_markdown(&policy));
            0
        }
        Err(e) => {
            eprintln!("repro report: {e}");
            1
        }
    }
}
