//! `repro report` — offline analysis over the artefacts a run leaves
//! behind: telemetry JSONL captures and run ledgers.
//!
//! ```text
//! repro report profile run.jsonl [--top K]
//! repro report diff OLD NEW
//! repro report health PATH...
//! repro report trace run.jsonl
//! repro report incidents run.jsonl
//! repro report slo run.jsonl [--window N] [--availability-slo F] [--latency-slo-us N]
//! ```
//!
//! `diff` compares two run ledgers per experiment: it exits 5 when an
//! experiment recorded under one fingerprint on both sides changed its
//! status or report bytes, or a counter or health stat while both records
//! share their process prefix, and names the drifted ids on stderr.
//! Different fingerprints read `not comparable`; wall time is an advisory
//! column (`aro-perf compare` judges time). A non-ledger input exits 1.
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

/// Exit code `repro report diff` uses for "outputs drifted".
const EXIT_DRIFT: i32 = 5;

fn usage() -> String {
    "usage: repro report <SUBCOMMAND>\n\
     \n\
     subcommands:\n\
     \x20 profile PATH [--top K]        span-tree profile of a telemetry\n\
     \x20                               JSONL capture: per-phase wall time,\n\
     \x20                               self vs child time, top-K hot spans\n\
     \x20                               (default K = 10)\n\
     \x20 diff OLD NEW                  per-experiment outputs of two run\n\
     \x20                               ledgers. Exits 5 when an experiment\n\
     \x20                               under one fingerprint changed its\n\
     \x20                               status or report bytes, or under one\n\
     \x20                               process prefix a counter or health\n\
     \x20                               stat; wall time is advisory\n\
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
     \x20 0  analysis completed (no drift, for diff)\n\
     \x20 1  unreadable or unparseable input\n\
     \x20 2  usage error\n\
     \x20 5  diff found an experiment whose outputs drifted\n\
     \x20 141 output pipe closed by the consumer"
        .to_string()
}

/// Prints one line to stdout and returns exit code 0, exiting with the
/// conventional SIGPIPE status when the consumer closed the pipe
/// (mirrors the run-mode `emit`).
fn emit(text: impl std::fmt::Display) -> i32 {
    use std::io::Write as _;
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(141);
    }
    0
}

fn fail_usage(msg: &str) -> i32 {
    eprintln!("repro report: {msg}\n\n{}", usage());
    2
}

/// The one path every subcommand ends in: render a loaded analysis into
/// the exit code, or print the load error and exit 1.
fn show<T>(loaded: Result<T, String>, render: impl FnOnce(T) -> i32) -> i32 {
    loaded.map_or_else(
        |e| {
            eprintln!("repro report: {e}");
            1
        },
        render,
    )
}

/// Reads the value after `flag`: a usage error when it is missing
/// (`{flag} expects {noun}`) or not `valid` (`{flag} expects {what}, got …`).
fn flag_value<T: std::str::FromStr>(
    args: &mut std::slice::Iter<'_, String>,
    flag: &str,
    noun: &str,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} expects {noun}"))?;
    match value.parse() {
        Ok(v) if valid(&v) => Ok(v),
        _ => Err(format!("{flag} expects {what}, got `{value}`")),
    }
}

fn unexpected(arg: &str) -> String {
    format!("unexpected argument `{arg}`")
}

/// Runs `repro report <args>`; returns the process exit code.
#[must_use]
pub fn run(args: &[String]) -> i32 {
    let Some(sub) = args.first() else {
        return fail_usage("missing subcommand");
    };
    let args = &args[1..];
    let ran = match sub.as_str() {
        "profile" => run_profile(args),
        "diff" => run_diff(args),
        "health" => run_health(args),
        "trace" => one_path("trace", args)
            .map(|path| show(trace::trace_file(path), |t| emit(t.to_chrome_json()))),
        "incidents" => one_path("incidents", args)
            .map(|path| show(incidents::incidents_file(path), |i| emit(i.to_markdown()))),
        "slo" => run_slo(args),
        "--help" | "-h" => Ok(emit(usage())),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    ran.unwrap_or_else(|usage_error| fail_usage(&usage_error))
}

/// The single telemetry path `trace` and `incidents` take.
fn one_path<'a>(sub: &str, args: &'a [String]) -> Result<&'a Path, String> {
    let [path] = args else {
        return Err(format!("{sub} expects exactly one telemetry JSONL path"));
    };
    if path.starts_with('-') {
        return Err(unexpected(path));
    }
    Ok(Path::new(path))
}

fn run_profile(args: &[String]) -> Result<i32, String> {
    let mut path: Option<PathBuf> = None;
    let mut top = 10usize;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                top = flag_value(&mut args, "--top", "a count", "a positive integer", |&k| {
                    k > 0
                })?;
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(PathBuf::from(other));
            }
            other => return Err(unexpected(other)),
        }
    }
    let path = path.ok_or("profile expects a telemetry JSONL path")?;
    Ok(show(profile::profile_file(&path), |profile| {
        emit(profile.to_markdown(top))
    }))
}

fn run_diff(args: &[String]) -> Result<i32, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(unexpected(flag));
    }
    let [old, new] = args else {
        return Err("diff expects exactly two ledger paths: OLD NEW".to_string());
    };
    Ok(show(
        diff::diff_files(Path::new(old), Path::new(new)),
        |report| {
            emit(report.to_markdown());
            let drifted = report.drifted_ids();
            if drifted.is_empty() {
                return 0;
            }
            eprintln!(
                "repro report: outputs drifted under an unchanged fingerprint in: {}",
                drifted.join(", ")
            );
            EXIT_DRIFT
        },
    ))
}

fn run_health(args: &[String]) -> Result<i32, String> {
    if args.is_empty() || args.iter().any(|a| a.starts_with('-')) {
        return Err("health expects one or more telemetry/ledger paths".to_string());
    }
    let paths: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    Ok(show(health::health_files(&paths), |report| {
        emit(report.to_markdown())
    }))
}

fn run_slo(args: &[String]) -> Result<i32, String> {
    let mut path: Option<PathBuf> = None;
    let mut policy = slo::SloPolicy::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--window" => {
                policy.window = flag_value(
                    &mut args,
                    "--window",
                    "a request count",
                    "a positive integer",
                    |&n| n > 0,
                )?;
            }
            "--availability-slo" => {
                policy.availability = flag_value(
                    &mut args,
                    "--availability-slo",
                    "a fraction",
                    "a fraction in (0, 1)",
                    |&f| f > 0.0 && f < 1.0,
                )?;
            }
            "--latency-slo-us" => {
                policy.latency_p99_us = flag_value(
                    &mut args,
                    "--latency-slo-us",
                    "a duration in µs",
                    "a positive integer",
                    |&us| us > 0,
                )?;
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(PathBuf::from(other));
            }
            other => return Err(unexpected(other)),
        }
    }
    let path = path.ok_or("slo expects a telemetry JSONL path")?;
    Ok(show(slo::slo_file(&path), |report| {
        emit(report.to_markdown(&policy))
    }))
}
