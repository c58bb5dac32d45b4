//! End-to-end tests for `repro report`: the fleet-health table must be
//! byte-identical at any `--threads N` and across reruns, a run's counter
//! totals must read the same from its capture, its ledger or both, the trace
//! export must be valid Chrome-trace JSON, the serve audit capture
//! behind `incidents`/`slo` must hold its schema invariants and render
//! identically at any thread count, every analysis must read a damaged
//! capture as it reads the intact one, and `diff` must fail on output
//! drift and never on wall time.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use aro_ledger::LedgerRecord;
use aro_obs::json::{self, Value};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// A per-test scratch directory. File *basenames* inside it are fixed so
/// the health report label (built from basenames) is identical across
/// thread counts.
fn scratch_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("repro_report_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create scratch dir");
    p
}

/// Runs `--quick exp2` with a telemetry capture and a ledger under the
/// given thread count, then returns `report health` stdout bytes.
fn health_output(dir: &std::path::Path, threads: &str) -> Vec<u8> {
    let telemetry = dir.join("t.jsonl");
    let ledger = dir.join("l.jsonl");
    let run = repro(&[
        "--quick",
        "exp2",
        "--threads",
        threads,
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(
        run.status.code(),
        Some(0),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = repro(&[
        "report",
        "health",
        telemetry.to_str().unwrap(),
        ledger.to_str().unwrap(),
    ]);
    assert_eq!(
        report.status.code(),
        Some(0),
        "report health failed: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    report.stdout
}

#[test]
fn report_health_is_byte_identical_across_thread_counts_and_reruns() {
    let dir1 = scratch_dir("threads1");
    let dir2 = scratch_dir("threads2");
    let dir8 = scratch_dir("threads8");
    let at1 = health_output(&dir1, "1");
    let at2 = health_output(&dir2, "2");
    let at8 = health_output(&dir8, "8");

    let text = String::from_utf8_lossy(&at1);
    assert!(
        text.contains("Fleet health — streaming percentiles"),
        "expected the fleet table:\n{text}"
    );
    assert!(
        text.contains("Per-experiment health"),
        "ledger records must contribute per-experiment stats:\n{text}"
    );
    assert!(
        text.contains("puf.ber"),
        "exp2 must feed the BER sketch:\n{text}"
    );

    assert_eq!(at1, at2, "--threads 1 vs 2 must render identical health");
    assert_eq!(at2, at8, "--threads 2 vs 8 must render identical health");

    // Rerun over the same capture: same bytes again.
    let telemetry = dir1.join("t.jsonl");
    let ledger = dir1.join("l.jsonl");
    let again = repro(&[
        "report",
        "health",
        telemetry.to_str().unwrap(),
        ledger.to_str().unwrap(),
    ]);
    assert_eq!(again.status.code(), Some(0));
    assert_eq!(again.stdout, at1, "a rerun must render identical health");

    for dir in [dir1, dir2, dir8] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The body rows of the markdown table headed `### {title}…`.
fn table_rows(md: &str, title: &str) -> Vec<String> {
    let section = md
        .split("### ")
        .find(|section| section.starts_with(title))
        .unwrap_or_else(|| panic!("no `{title}` table in:\n{md}"));
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .skip(2)
        .map(str::to_string)
        .collect()
}

/// A capture's final counter flush and its run's ledger records count the
/// same work: read alone or together, they give one set of run totals.
#[test]
fn report_health_counts_a_run_once_from_its_capture_its_ledger_or_both() {
    let dir = scratch_dir("counted_once");
    let (telemetry, ledger) = (dir.join("t.jsonl"), dir.join("l.jsonl"));
    let run = repro(&[
        "--quick",
        "exp2",
        "exp8",
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(
        run.status.code(),
        Some(0),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let health = |paths: &[&PathBuf]| -> String {
        let mut argv = vec!["report", "health"];
        argv.extend(paths.iter().map(|p| p.to_str().unwrap()));
        let out = repro(&argv);
        assert_eq!(
            out.status.code(),
            Some(0),
            "report health {paths:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8 report")
    };
    let both = health(&[&telemetry, &ledger]);
    let capture_alone = health(&[&telemetry]);
    let ledger_alone = health(&[&ledger]);
    for title in ["Counters — run totals", "Cache effectiveness"] {
        let rows = table_rows(&both, title);
        assert!(!rows.is_empty(), "{title}:\n{both}");
        assert_eq!(rows, table_rows(&capture_alone, title), "{title}");
        assert_eq!(rows, table_rows(&ledger_alone, title), "{title}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn report_trace_exports_valid_chrome_trace_json() {
    let dir = scratch_dir("trace");
    let telemetry = dir.join("t.jsonl");
    let run = repro(&[
        "--quick",
        "exp1",
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(
        run.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let out = repro(&["report", "trace", telemetry.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "report trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(text.trim()).expect("trace output must be valid JSON");
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("missing traceEvents array in:\n{text}");
    };
    assert!(!events.is_empty(), "a quick run must produce span events");
    for event in events {
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .expect("event phase");
        assert!(matches!(ph, "X" | "i"), "unexpected phase {ph}");
        assert!(event.get("name").and_then(Value::as_str).is_some());
        assert!(event.get("ts").and_then(Value::as_f64).is_some());
        if ph == "X" {
            assert!(event.get("dur").and_then(Value::as_f64).is_some());
        }
    }
    // The run span itself must be among the complete events.
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("run")
                && e.get("ph").and_then(Value::as_str) == Some("X")
        }),
        "expected the top-level run span in:\n{text}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Captures exp18 under a quarter storm with the audit trail on, at the
/// given thread count, and returns the telemetry path.
fn audited_capture(dir: &std::path::Path, threads: &str) -> PathBuf {
    let telemetry = dir.join("t.jsonl");
    let run = repro(&[
        "--quick",
        "exp18",
        "--faults",
        "storm@0.25",
        "--audit",
        "--threads",
        threads,
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        matches!(run.status.code(), Some(0 | 3)),
        "audited exp18 failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    telemetry
}

/// Checks the audit JSONL's schema invariants: `seq` strictly increases,
/// every request chain (`request`/`store_read`/`attempt`/`verdict` lines
/// sharing a 16-hex-digit `req`) opens with its one `request` and holds
/// at most one `verdict`, and verdicts, scrub outcomes and store-health
/// states come from their closed sets, with at least one verdict.
fn assert_audit_chains_well_formed(jsonl: &str) {
    const VERDICTS: [&str; 6] = [
        "accepted",
        "rejected",
        "timed_out",
        "corrupt_record",
        "missing",
        "malformed",
    ];
    const SCRUB_OUTCOMES: [&str; 2] = ["read_repair", "unrecoverable"];
    const STORE_HEALTH: [&str; 3] = ["intact", "replica-degraded", "quorum-critical"];
    let field = |ev: &Value, key: &str| -> String {
        ev.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("audit line without string `{key}`"))
            .to_string()
    };
    let mut last_seq: Option<u64> = None;
    let mut chains: std::collections::BTreeMap<String, Vec<String>> = Default::default();
    let mut verdicts = 0;
    for line in jsonl.lines().filter(|l| l.contains("\"event\":\"audit\"")) {
        let ev = json::parse(line).unwrap_or_else(|e| panic!("bad audit line {line:?}: {e}"));
        let seq = ev.get("seq").and_then(Value::as_u64).expect("audit seq");
        assert!(Some(seq) > last_seq, "seq {seq} after {last_seq:?}");
        last_seq = Some(seq);
        let stage = field(&ev, "stage");
        match stage.as_str() {
            "request" | "store_read" | "attempt" | "verdict" => {
                let req = field(&ev, "req");
                assert!(
                    req.len() == 16 && req.chars().all(|c| c.is_ascii_hexdigit()),
                    "bad request id {req:?}"
                );
                if stage == "verdict" {
                    verdicts += 1;
                    let verdict = field(&ev, "verdict");
                    assert!(VERDICTS.contains(&verdict.as_str()), "verdict {verdict}");
                }
                chains.entry(req).or_default().push(stage);
            }
            "scrub" => {
                let outcome = field(&ev, "outcome");
                assert!(
                    SCRUB_OUTCOMES.contains(&outcome.as_str()),
                    "scrub outcome {outcome}"
                );
            }
            "store_health" => {
                for key in ["from", "to"] {
                    let state = field(&ev, key);
                    assert!(
                        STORE_HEALTH.contains(&state.as_str()),
                        "store health {state}"
                    );
                }
            }
            _ => {}
        }
    }
    for (req, stages) in &chains {
        assert_eq!(
            stages[0], "request",
            "{req} must open with its request: {stages:?}"
        );
        let count = |name: &str| stages.iter().filter(|s| *s == name).count();
        assert_eq!(count("request"), 1, "{req}: {stages:?}");
        assert!(count("verdict") <= 1, "{req}: {stages:?}");
    }
    assert!(verdicts > 0, "the audit capture carried no verdicts");
}

#[test]
fn report_incidents_and_slo_are_byte_identical_across_thread_counts() {
    let dir1 = scratch_dir("audit1");
    let dir4 = scratch_dir("audit4");
    let t1 = audited_capture(&dir1, "1");
    let t4 = audited_capture(&dir4, "4");
    let audit_lines = |path: &PathBuf| -> Vec<String> {
        std::fs::read_to_string(path)
            .expect("audit capture")
            .lines()
            .filter(|line| line.contains("\"event\":\"audit\""))
            .map(str::to_string)
            .collect()
    };
    let audit1 = audit_lines(&t1);
    // The reports below would not show a reordering of the audit stream
    // (re-enrollment events are committed after a parallel prepare), so
    // the lines themselves are compared.
    assert!(
        audit1
            .iter()
            .any(|line| line.contains("\"stage\":\"reenroll\"")),
        "a quarter storm must re-enroll someone"
    );
    assert_eq!(
        audit1,
        audit_lines(&t4),
        "audit lines must not depend on --threads"
    );
    assert_audit_chains_well_formed(&std::fs::read_to_string(&t1).expect("audit capture"));

    let inc1 = repro(&["report", "incidents", t1.to_str().unwrap()]);
    let inc4 = repro(&["report", "incidents", t4.to_str().unwrap()]);
    assert_eq!(
        inc1.status.code(),
        Some(0),
        "report incidents failed: {}",
        String::from_utf8_lossy(&inc1.stderr)
    );
    assert_eq!(
        inc1.stdout, inc4.stdout,
        "incidents must not depend on --threads"
    );
    let text = String::from_utf8_lossy(&inc1.stdout);
    assert!(text.contains("Incident report"), "{text}");
    assert!(text.contains("Top root causes"), "{text}");
    assert!(
        text.contains("Quarantine post-mortem"),
        "a quarter storm must quarantine someone:\n{text}"
    );

    let slo1 = repro(&["report", "slo", t1.to_str().unwrap()]);
    let slo4 = repro(&["report", "slo", t4.to_str().unwrap()]);
    assert_eq!(
        slo1.status.code(),
        Some(0),
        "report slo failed: {}",
        String::from_utf8_lossy(&slo1.stderr)
    );
    assert_eq!(slo1.stdout, slo4.stdout, "slo must not depend on --threads");
    let text = String::from_utf8_lossy(&slo1.stdout);
    assert!(text.contains("SLO report"), "{text}");
    assert!(text.contains("burn"), "{text}");

    // Tightening the objectives via flags must change the verdicts line.
    let tight = repro(&[
        "report",
        "slo",
        t1.to_str().unwrap(),
        "--window",
        "16",
        "--availability-slo",
        "0.999",
        "--latency-slo-us",
        "200",
    ]);
    assert_eq!(tight.status.code(), Some(0));
    let tight_text = String::from_utf8_lossy(&tight.stdout);
    assert!(
        tight_text.contains("availability ≥ 99.90 %"),
        "{tight_text}"
    );
    assert!(tight_text.contains("p99 ≤ 200 µs"), "{tight_text}");

    for dir in [dir1, dir4] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn audit_flag_requires_telemetry() {
    let out = repro(&["--quick", "--audit", "exp18"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--audit without --telemetry is a usage error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--telemetry"), "{err}");
}

#[test]
fn report_health_and_trace_reject_bad_inputs() {
    let dir = scratch_dir("bad_inputs");
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "not json\n").unwrap();

    let out = repro(&["report", "health", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no sketch/counter events"), "{err}");

    let out = repro(&["report", "trace", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no span or fault events"), "{err}");

    let out = repro(&["report", "incidents", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no audit events"), "{err}");

    let out = repro(&["report", "slo", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no audit verdict events"), "{err}");

    // A sketch event naming any bucket layout but the built-in one fails
    // closed: the parser never sizes a sketch from the input.
    let mut sketch = aro_obs::Sketch::new();
    sketch.observe(0.5);
    let valid = sketch.to_jsonl("puf.ber");
    let layout = r#""per_decade":8,"min_exp":-9,"max_exp":10"#;
    assert!(valid.contains(layout), "{valid}");
    for (bad, expected) in [
        (layout, 0),
        (r#""per_decade":0,"min_exp":-9,"max_exp":10"#, 1),
        (
            r#""per_decade":4000000000,"min_exp":-2000000000,"max_exp":2000000000"#,
            1,
        ),
    ] {
        let capture = dir.join("layout.jsonl");
        std::fs::write(&capture, valid.replace(layout, bad) + "\n").unwrap();
        let out = repro(&["report", "health", capture.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(expected), "{bad}");
        if expected == 1 {
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("no sketch/counter events"), "{err}");
        }
    }

    let out = repro(&["report", "health"]);
    assert_eq!(out.status.code(), Some(2), "missing paths is a usage error");
    let out = repro(&["report", "trace", "a", "b"]);
    assert_eq!(out.status.code(), Some(2), "trace takes exactly one path");
    let out = repro(&["report", "incidents", "a", "b"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "incidents takes exactly one path"
    );
    let out = repro(&["report", "slo", "a", "--window", "0"]);
    assert_eq!(out.status.code(), Some(2), "--window 0 is a usage error");
    let _ = std::fs::remove_dir_all(dir);
}

/// The first half of `line`, cut at a character boundary, as a crash
/// mid-write leaves it.
fn torn(line: &str) -> &str {
    let mut cut = line.len() / 2;
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    &line[..cut]
}

/// Writes `text` into `dir` under `name` with non-JSON debris lines
/// inserted between its lines and a torn copy of one line appended
/// without a newline, as a crash leaves it; returns the number of
/// damaged lines.
fn write_damaged(dir: &std::path::Path, name: &str, text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let stride = (lines.len() / 3).max(1);
    let mut damaged = Vec::new();
    let mut debris = 0;
    for (i, line) in lines.iter().enumerate() {
        if i % stride == 1 {
            damaged.push(format!("crash debris {i} {{"));
            debris += 1;
        }
        damaged.push((*line).to_string());
    }
    damaged.push(torn(lines[lines.len() / 2]).to_string());
    std::fs::write(dir.join(name), damaged.join("\n")).expect("write damaged copy");
    debris + 1
}

/// Every analysis reads a damaged copy of a capture, and `diff` a ledger
/// with a torn trailing record, exactly as it reads the intact file: the
/// outputs differ only by the note that counts the skipped lines.
#[test]
fn damaged_captures_read_like_intact_ones_but_for_the_skip_note() {
    let clean = scratch_dir("damage_clean");
    let noisy = scratch_dir("damage_noisy");
    let (telemetry, ledger) = (clean.join("t.jsonl"), clean.join("l.jsonl"));
    let run = repro(&[
        "--quick",
        "exp2",
        "exp18",
        "--faults",
        "storm@0.25",
        "--audit",
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        matches!(run.status.code(), Some(0 | 3)),
        "audited run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let read = |path: &PathBuf| std::fs::read_to_string(path).expect("capture");
    let skipped_t = write_damaged(&noisy, "t.jsonl", &read(&telemetry));
    let ledger_text = read(&ledger);
    let record = ledger_text
        .lines()
        .find(|line| line.contains("\"event\":\"experiment\""))
        .expect("an experiment record");
    std::fs::write(
        noisy.join("l.jsonl"),
        format!("{ledger_text}{}", torn(record)),
    )
    .unwrap();

    let report = |sub: &str, dir: &std::path::Path, with_ledger: bool| -> String {
        let (t, l) = (dir.join("t.jsonl"), dir.join("l.jsonl"));
        let mut argv = vec!["report", sub, t.to_str().unwrap()];
        if with_ledger {
            argv.push(l.to_str().unwrap());
        }
        let out = repro(&argv);
        assert_eq!(
            out.status.code(),
            Some(0),
            "report {sub}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8 report")
    };
    let audit_note = format!("- {skipped_t} non-JSON line(s) skipped\n");
    let cases = [
        (
            "profile",
            false,
            format!(" ({skipped_t} unparsable lines skipped)"),
        ),
        (
            "health",
            true,
            format!(
                "\nskipped {} non-JSON line(s) (crash debris)\n",
                skipped_t + 1
            ),
        ),
        ("trace", false, String::new()),
        ("incidents", false, audit_note.clone()),
        ("slo", false, audit_note),
    ];
    for (sub, with_ledger, note) in cases {
        let intact = report(sub, &clean, with_ledger);
        let damaged = report(sub, &noisy, with_ledger);
        if !note.is_empty() {
            assert!(!intact.contains(&note), "report {sub}: {intact}");
            assert_eq!(damaged.matches(&note).count(), 1, "report {sub}: {damaged}");
        }
        assert_eq!(damaged.replacen(&note, "", 1), intact, "report {sub}");
    }

    let diff = |new: &PathBuf| {
        let out = repro(&[
            "report",
            "diff",
            ledger.to_str().unwrap(),
            new.to_str().unwrap(),
        ]);
        (out.status.code(), out.stdout, out.stderr)
    };
    let intact = diff(&ledger);
    assert_eq!(intact.0, Some(0), "{}", String::from_utf8_lossy(&intact.2));
    assert_eq!(
        diff(&noisy.join("l.jsonl")),
        intact,
        "a torn record changes no diff byte"
    );

    for dir in [clean, noisy] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A copy of the ledger at `from`, written to `to`, with `edit` applied
/// to the record of experiment `id` (its fingerprint kept).
fn edited_ledger(from: &Path, to: &Path, id: &str, edit: impl Fn(&mut LedgerRecord)) {
    let text = std::fs::read_to_string(from).expect("ledger");
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            let value = json::parse(line).expect("ledger line");
            match LedgerRecord::from_json(&value) {
                Some(mut record) if record.id == id => {
                    edit(&mut record);
                    record.to_jsonl()
                }
                _ => line.to_string(),
            }
        })
        .collect();
    std::fs::write(to, lines.join("\n") + "\n").expect("write edited ledger");
}

/// `report diff` judges outputs, never time: reruns and thread counts
/// never fail it, a same-fingerprint change of report bytes or of a
/// counter does, and counter drift that only follows from what the
/// process ran before (`exp5` after `exp2`, a resumed split run) is
/// shown without failing.
#[test]
fn report_diff_fails_on_output_drift_and_never_on_wall_time() {
    let dir = scratch_dir("diff_drift");
    let path = |name: &str| dir.join(name);
    let run = |flag: &str, ledger: &str, args: &[&str]| {
        let ledger = path(ledger);
        let mut argv = vec!["--quick", "--quiet", flag, ledger.to_str().unwrap()];
        argv.extend(args);
        let out = repro(&argv);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{argv:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let diff = |old: &str, new: &str| -> (Option<i32>, String, String) {
        let out = repro(&[
            "report",
            "diff",
            path(old).to_str().unwrap(),
            path(new).to_str().unwrap(),
        ]);
        let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8");
        (out.status.code(), text(out.stdout), text(out.stderr))
    };
    let four = ["exp2", "exp5", "exp8", "exp15"];
    for (ledger, threads) in [("t1.jsonl", "1"), ("t2.jsonl", "2"), ("again.jsonl", "2")] {
        let mut args = vec!["--threads", threads];
        args.extend(four);
        run("--ledger", ledger, &args);
    }
    for (old, new) in [("t2.jsonl", "again.jsonl"), ("t1.jsonl", "t2.jsonl")] {
        let (code, stdout, stderr) = diff(old, new);
        assert_eq!(code, Some(0), "{old} → {new}: {stderr}\n{stdout}");
        assert_eq!(stdout.matches("| same ").count(), 4, "{stdout}");
    }

    edited_ledger(&path("t1.jsonl"), &path("bytes.jsonl"), "exp8", |r| {
        r.report_md = r
            .report_md
            .as_ref()
            .map(|md| md.replacen("EXP-8", "EXP-8 ", 1));
    });
    edited_ledger(&path("t1.jsonl"), &path("counter.jsonl"), "exp2", |r| {
        *r.metrics
            .get_mut("sim.chips_simulated")
            .expect("exp2 counts chips") += 1;
    });
    for (edited, id) in [("bytes.jsonl", "exp8"), ("counter.jsonl", "exp2")] {
        let (code, stdout, stderr) = diff("t1.jsonl", edited);
        assert_eq!(code, Some(5), "{edited}: {stderr}\n{stdout}");
        assert!(
            stderr.contains(&format!(
                "drifted under an unchanged fingerprint in: {id}\n"
            )),
            "{stderr}"
        );
        assert_eq!(stdout.matches("DRIFTED").count(), 1, "{stdout}");
    }

    // exp5 books its flip timelines itself when it runs alone and reads
    // them from exp2's memo after it; a resumed split run books exp8 and
    // exp15 in a second process. Their report bytes are equal.
    run("--ledger", "exp5.jsonl", &["exp5"]);
    run("--ledger", "split.jsonl", &["exp2", "exp5"]);
    std::fs::copy(path("split.jsonl"), path("exp2_exp5.jsonl")).expect("copy ledger");
    run("--resume", "split.jsonl", &["exp8", "exp15"]);
    for (old, new, moved) in [
        ("exp5.jsonl", "exp2_exp5.jsonl", "| exp5 "),
        ("t1.jsonl", "split.jsonl", "| exp8 "),
    ] {
        let (code, stdout, stderr) = diff(old, new);
        assert_eq!(code, Some(0), "{old} → {new}: {stderr}\n{stdout}");
        assert!(stdout.contains("same output"), "{stdout}");
        let counters = table_rows(&stdout, "Counter drift");
        assert!(
            counters.iter().any(|row| row.starts_with(moved)),
            "{stdout}"
        );
    }

    run("--ledger", "seed7.jsonl", &["--seed", "7", "exp5"]);
    let (code, stdout, stderr) = diff("exp5.jsonl", "seed7.jsonl");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("| not comparable |"), "{stdout}");
    assert!(!stdout.contains("Counter drift"), "{stdout}");

    let out = repro(&[
        "report",
        "diff",
        path("t1.jsonl").to_str().unwrap(),
        path("t2.jsonl").to_str().unwrap(),
        "--threshold",
        "0.2",
    ]);
    assert_eq!(out.status.code(), Some(2), "--threshold is gone");
    let _ = std::fs::remove_dir_all(dir);
}
