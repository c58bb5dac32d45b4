//! End-to-end tests for the `repro` binary: exit codes, usage output, and
//! the telemetry artifact.

use std::path::PathBuf;
use std::process::{Command, Output};

use aro_obs::json::{self, Value};
use aro_sim::experiments::ALL_IDS;
use aro_sim::servefleet::N_SHARDS;

/// Every id `repro` runs: the paper experiments plus the serve mode.
fn every_id() -> impl Iterator<Item = &'static str> {
    ALL_IDS.iter().copied().chain(["serve-bench"])
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("repro_cli_{}_{name}", std::process::id()));
    p
}

#[test]
fn unknown_option_exits_2_with_usage() {
    let out = repro(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option `--bogus`"), "{err}");
    let usage = err
        .lines()
        .find(|l| l.starts_with("usage: repro"))
        .unwrap_or_else(|| panic!("no usage line: {err}"));
    let listed: Vec<&str> = usage.split([' ', '[', ']', '|']).collect();
    for id in every_id() {
        assert!(listed.contains(&id), "usage must list {id}: {usage}");
    }
}

#[test]
fn unknown_experiment_exits_2() {
    let out = repro(&["exp99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment `exp99`"), "{err}");
}

#[test]
fn bad_seed_exits_2() {
    let out = repro(&["--seed", "pi"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--seed expects an integer"), "{err}");
}

#[test]
fn out_of_range_replicas_exit_2_naming_the_bound() {
    let out = repro(&["--quick", "--quiet", "--replicas", "0", "serve-bench"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--replicas expects a positive count"), "{err}");

    let out = repro(&["--quick", "--quiet", "--replicas", "9", "serve-bench"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("--replicas expects at most {N_SHARDS}")),
        "{err}"
    );
}

#[test]
fn missing_flag_value_exits_2() {
    let out = repro(&["--telemetry"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--telemetry expects a path"), "{err}");
}

#[test]
fn unwritable_telemetry_path_exits_1() {
    let out = repro(&["--quick", "exp1", "--telemetry", "/nonexistent-dir/t.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot open telemetry file"), "{err}");
}

#[test]
fn list_names_every_experiment() {
    let out = repro(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in every_id() {
        assert!(
            stdout.lines().any(|l| l.starts_with(&format!("{id} "))),
            "missing {id} in --list output"
        );
    }
}

#[test]
fn quick_run_emits_telemetry() {
    let telemetry = temp_path("t.jsonl");
    let out = repro(&[
        "--quick",
        "exp1",
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "--quiet must silence the report");

    let jsonl = std::fs::read_to_string(&telemetry).expect("telemetry written");
    assert!(jsonl.lines().count() > 2);
    for line in jsonl.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
    }
    let _ = std::fs::remove_file(telemetry);
}

#[test]
fn removed_wall_time_capture_and_trajectory_are_usage_errors() {
    let out = repro(&["--quick", "exp1", "--bench-json", "x"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["report", "trajectory", "."]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn removed_flags_are_unknown_options() {
    for removed in [
        &["--max-retries", "1"][..],
        &["--watchdog", "5"],
        &["--metrics"],
    ] {
        let flag = removed[0];
        let out = repro(&[removed, &["--list"]].concat());
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
    }
}

#[test]
fn telemetry_never_changes_stdout() {
    let plain = repro(&["--quick", "exp2"]);
    assert_eq!(
        plain.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );
    for threads in ["1", "4"] {
        let telemetry = temp_path(&format!("stdout_{threads}.jsonl"));
        let out = repro(&[
            "--quick",
            "--threads",
            threads,
            "exp2",
            "--telemetry",
            telemetry.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == plain.stdout,
            "--threads {threads}: --telemetry changed stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );

        let jsonl = std::fs::read_to_string(&telemetry).expect("telemetry written");
        let events: Vec<Value> = jsonl
            .lines()
            .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")))
            .collect();
        for wanted in ["span_open", "span_close", "counter"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("event").and_then(Value::as_str) == Some(wanted)),
                "--threads {threads}: no {wanted} event in the capture"
            );
        }
        let _ = std::fs::remove_file(telemetry);
    }
}

/// Whether `out` exited 0 (every experiment completed) or 3 (degraded
/// mode: survivors reported beside a failure table). Anything else — a
/// panic escaping the harness, a total failure, a signal — is a crash.
fn completed_or_degraded(out: &Output) -> bool {
    matches!(out.status.code(), Some(0 | 3))
}

#[test]
fn quick_run_survives_the_smoke_fault_plan() {
    let out = repro(&["--quick", "--quiet", "--faults", "smoke"]);
    assert!(
        completed_or_degraded(&out),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "--quiet must silence the report");
}

#[test]
fn key_lifecycle_survives_a_quarter_storm() {
    let out = repro(&["--quick", "--quiet", "--faults", "storm@0.25", "exp16"]);
    assert!(
        completed_or_degraded(&out),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn interrupted_then_resumed_ledger_run_matches_a_fresh_run() {
    let fresh = repro(&["--quick", "exp1", "exp3"]);
    assert_eq!(
        fresh.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&fresh.stderr)
    );

    // "Interrupt" after exp1 by asking only for it, then resume both.
    let ledger = temp_path("resume.ledger");
    let path = ledger.to_str().unwrap();
    let first = repro(&["--quick", "--quiet", "exp1", "--ledger", path]);
    assert_eq!(
        first.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let resumed = repro(&["--quick", "exp1", "exp3", "--resume", path]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        resumed.stdout == fresh.stdout,
        "resumed stdout differs from an uninterrupted run:\n{}",
        String::from_utf8_lossy(&resumed.stdout)
    );

    let events: Vec<Value> = std::fs::read_to_string(&ledger)
        .expect("ledger written")
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")))
        .collect();
    let of_kind = |kind: &'static str| {
        events
            .iter()
            .filter(move |e| e.get("event").and_then(Value::as_str) == Some(kind))
    };
    assert_eq!(
        of_kind("experiment").count(),
        2,
        "exp1 from the first run, exp3 from the resume"
    );
    let summary = of_kind("run_summary")
        .next_back()
        .expect("the resume journals a summary");
    assert_eq!(
        summary.get("replayed").and_then(Value::as_u64),
        Some(1),
        "the resume must replay exp1, not rerun it"
    );
    let _ = std::fs::remove_file(ledger);
}
