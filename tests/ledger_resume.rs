//! Integration tests for the run ledger and `--resume` semantics beyond
//! the byte-identity proof in `golden_report.rs`: fingerprint mismatches
//! must force re-runs, crash debris must be tolerated, older ledgers must
//! still resume, and failure records must reconstruct a degraded run
//! post-mortem.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use aro_puf_repro::ledger::journal::parse_records;
use aro_puf_repro::ledger::{Ledger, RecordStatus};
use aro_puf_repro::sim::harness::{run_experiments, RunOutcome};
use aro_puf_repro::sim::SimConfig;

fn temp_ledger(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "aro-resume-test-{}-{tag}-{n}.ledger",
        std::process::id()
    ))
}

#[test]
fn replayed_and_fresh_runs_render_identical_bytes() {
    let path = temp_ledger("replay");
    let cfg = SimConfig::quick();
    let fresh = {
        let mut ledger = Ledger::create(&path).unwrap();
        run_experiments(&cfg, &["exp1"], &[], Some(&mut ledger))
    };
    let mut reopened = Ledger::open(&path).unwrap();
    let replayed = run_experiments(&cfg, &["exp1"], &[], Some(&mut reopened));
    drop(reopened);
    std::fs::remove_file(&path).unwrap();

    assert!(!fresh.successes[0].report.is_replayed());
    assert!(replayed.successes[0].report.is_replayed());
    assert_eq!(
        fresh.successes[0].report.to_string(),
        replayed.successes[0].report.to_string(),
        "replayed bytes must equal the original render"
    );
    assert_eq!(
        fresh.successes[0].report.csv_tables(),
        replayed.successes[0].report.csv_tables(),
        "replayed CSV dumps must equal the original tables"
    );
    // The replayed run's wall time is the original's, straight from the
    // record (replay itself costs microseconds).
    assert_eq!(fresh.successes[0].wall, replayed.successes[0].wall);
}

/// Rewrites a journal line into the format of ledgers written before
/// the driver stopped retrying: an `"attempts":1` field after `wall_ns`.
fn with_attempts_field(line: &str) -> String {
    let key = "\"wall_ns\":";
    let digits = line.find(key).expect("an experiment record") + key.len();
    let end = digits + line[digits..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{},\"attempts\":1{}", &line[..end], &line[end..])
}

#[test]
fn a_ledger_with_legacy_attempt_counts_still_resumes_byte_identically() {
    let path = temp_ledger("legacy");
    let cfg = SimConfig::quick();
    let ids = ["exp1", "exp3"];
    let fresh = {
        let mut ledger = Ledger::create(&path).unwrap();
        run_experiments(&cfg, &ids, &[], Some(&mut ledger))
    };
    let legacy: String = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(|line| with_attempts_field(line) + "\n")
        .collect();
    assert_eq!(legacy.matches("\"attempts\":1").count(), ids.len());
    std::fs::write(&path, legacy).unwrap();

    let mut reopened = Ledger::open(&path).unwrap();
    assert_eq!(
        reopened.skipped_lines(),
        0,
        "legacy lines are records, not debris"
    );
    let resumed = run_experiments(&cfg, &ids, &[], Some(&mut reopened));
    drop(reopened);
    std::fs::remove_file(&path).unwrap();

    assert!(resumed.successes.iter().all(|s| s.report.is_replayed()));
    let render = |outcome: &RunOutcome| -> String {
        outcome
            .successes
            .iter()
            .map(|s| format!("{}\n", s.report))
            .collect()
    };
    assert_eq!(render(&fresh), render(&resumed));
}

#[test]
fn a_different_seed_changes_the_fingerprint_and_forces_a_rerun() {
    let path = temp_ledger("mismatch");
    let cfg = SimConfig::quick();
    {
        let mut ledger = Ledger::create(&path).unwrap();
        let _ = run_experiments(&cfg, &["exp1"], &[], Some(&mut ledger));
    }
    let reseeded = cfg.clone().with_seed(cfg.seed + 1);
    let mut reopened = Ledger::open(&path).unwrap();
    let outcome = run_experiments(&reseeded, &["exp1"], &[], Some(&mut reopened));
    assert!(
        !outcome.successes[0].report.is_replayed(),
        "a seed change must invalidate the cached record"
    );
    assert_eq!(
        reopened.records().len(),
        2,
        "the re-run appends its own record alongside the stale one"
    );
    assert_ne!(
        reopened.records()[0].fingerprint,
        reopened.records()[1].fingerprint
    );
    drop(reopened);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn an_erasure_only_plan_fingerprints_apart_from_off_and_forces_a_rerun() {
    use aro_puf_repro::faults::FaultPlan;

    let path = temp_ledger("erasure");
    let cfg = SimConfig::quick();
    let eroded_at = |rate: f64| {
        cfg.clone().with_faults(FaultPlan {
            helper_erasure_rate: rate,
            ..FaultPlan::off()
        })
    };

    // Seed the ledger with a fault-free record, then run the same
    // experiment under a helper-erasure-only plan: NVM erosion alone is a
    // live fault model, so the cached record must NOT be replayed.
    {
        let mut ledger = Ledger::create(&path).unwrap();
        let _ = run_experiments(&cfg, &["exp1"], &[], Some(&mut ledger));
    }
    let eroded = {
        let mut reopened = Ledger::open(&path).unwrap();
        let outcome = run_experiments(&eroded_at(0.002), &["exp1"], &[], Some(&mut reopened));
        assert!(
            !outcome.successes[0].report.is_replayed(),
            "helper erosion alone must invalidate the fault-free record"
        );
        let records = reopened.records().to_vec();
        drop(reopened);
        records
    };
    assert_eq!(eroded.len(), 2);
    assert_ne!(eroded[0].fingerprint, eroded[1].fingerprint);

    // Same plan again: replay. Different erasure rate: re-run.
    {
        let mut reopened = Ledger::open(&path).unwrap();
        let outcome = run_experiments(&eroded_at(0.002), &["exp1"], &[], Some(&mut reopened));
        assert!(outcome.successes[0].report.is_replayed());
        drop(reopened);
    }
    {
        let mut reopened = Ledger::open(&path).unwrap();
        let outcome = run_experiments(&eroded_at(0.004), &["exp1"], &[], Some(&mut reopened));
        assert!(
            !outcome.successes[0].report.is_replayed(),
            "an erasure-rate change must force a re-run, not a replay"
        );
        drop(reopened);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_replication_change_forces_a_rerun() {
    // The serve-bench config of tests/serve_robustness.rs: 4 chips, a
    // 32-bit key.
    let mut cfg = SimConfig::quick();
    cfg.n_chips = 4;
    cfg.key_bits = 32;
    let mut replicated = cfg.clone();
    replicated.replicas = 3;
    let ids = ["serve-bench"];
    let path = temp_ledger("replicas");
    {
        let mut ledger = Ledger::create(&path).unwrap();
        let _ = run_experiments(&cfg, &ids, &[], Some(&mut ledger));
    }
    let resumed = {
        let mut reopened = Ledger::open(&path).unwrap();
        run_experiments(&replicated, &ids, &[], Some(&mut reopened))
    };
    let again = {
        let mut reopened = Ledger::open(&path).unwrap();
        run_experiments(&replicated, &ids, &[], Some(&mut reopened))
    };
    std::fs::remove_file(&path).unwrap();
    let fresh = run_experiments(&replicated, &ids, &[], None);

    let resumed = &resumed.successes[0].report;
    assert!(
        !resumed.is_replayed(),
        "a replication change must invalidate the default-factor record"
    );
    assert!(resumed.to_string().contains("3-way replicated store"));
    assert_eq!(resumed.to_string(), fresh.successes[0].report.to_string());
    assert!(
        again.successes[0].report.is_replayed(),
        "the 3-replica record must replay"
    );
    assert_eq!(again.successes[0].report.to_string(), resumed.to_string());
}

#[test]
fn a_crash_truncated_trailing_line_does_not_poison_resume() {
    let path = temp_ledger("truncated");
    let cfg = SimConfig::quick();
    {
        let mut ledger = Ledger::create(&path).unwrap();
        let _ = run_experiments(&cfg, &["exp1"], &[], Some(&mut ledger));
    }
    // Simulate a kill mid-append: an unterminated half-record.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(br#"{"event":"experiment","fingerprint":"dead"#)
            .unwrap();
    }
    let mut reopened = Ledger::open(&path).unwrap();
    assert_eq!(reopened.skipped_lines(), 1, "debris is counted, not fatal");
    let outcome = run_experiments(&cfg, &["exp1", "exp3"], &[], Some(&mut reopened));
    assert!(outcome.successes[0].report.is_replayed(), "exp1 survives");
    assert!(!outcome.successes[1].report.is_replayed(), "exp3 is fresh");
    drop(reopened);
    // The sealed journal parses cleanly end to end: 2 records, 1 skip.
    let (records, skipped) = parse_records(&std::fs::read_to_string(&path).unwrap());
    assert_eq!(records.len(), 2);
    assert_eq!(skipped, 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_tail_torn_inside_a_multi_byte_character_does_not_poison_resume() {
    let path = temp_ledger("torn-utf8");
    let cfg = SimConfig::quick();
    let fresh = {
        let mut ledger = Ledger::create(&path).unwrap();
        run_experiments(&cfg, &["exp2"], &[], Some(&mut ledger))
    };
    // A kill mid-append that cuts the next record inside its first
    // non-ASCII character (reports carry `—`, `µ`, `≥`).
    let journal = std::fs::read_to_string(&path).unwrap();
    let record = journal
        .lines()
        .find(|line| line.contains("\"event\":\"experiment\""))
        .expect("an experiment record");
    let wide = record
        .char_indices()
        .find(|(_, c)| !c.is_ascii())
        .expect("the record carries a multi-byte character");
    let cut = wide.0 + 1;
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(&record.as_bytes()[..cut]).unwrap();
    }

    let mut reopened = Ledger::open(&path).expect("a torn character is debris, not an error");
    assert_eq!(reopened.skipped_lines(), 1, "the torn line is counted");
    let resumed = run_experiments(&cfg, &["exp2"], &[], Some(&mut reopened));
    drop(reopened);
    assert!(!resumed.is_degraded(), "the resumed run exits 0");
    assert!(resumed.successes[0].report.is_replayed(), "exp2 replays");
    assert_eq!(
        resumed.successes[0].report.to_string(),
        fresh.successes[0].report.to_string(),
        "the replay is byte-identical"
    );
    // The sealed journal reopens with the record and the one skip.
    let again = Ledger::open(&path).unwrap();
    assert_eq!(again.records().len(), 1);
    assert_eq!(again.skipped_lines(), 1);
    drop(again);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn failure_records_reconstruct_a_degraded_run() {
    // Expected panics would spam the test log; silence the hook.
    let _ = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let path = temp_ledger("failure");
    let cfg = SimConfig::quick();
    let forced = ["exp3".to_string()];
    let outcome = {
        let mut ledger = Ledger::create(&path).unwrap();
        run_experiments(&cfg, &["exp1", "exp3"], &forced, Some(&mut ledger))
    };
    let _ = std::panic::take_hook();
    assert!(outcome.is_degraded());

    let reopened = Ledger::open(&path).unwrap();
    let records = reopened.records();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].status, RecordStatus::Success);
    let failure = &records[1];
    assert_eq!(failure.id, "exp3");
    assert_eq!(failure.status, RecordStatus::Failure);
    assert!(failure.error.as_deref().unwrap().contains("forced panic"));
    // Failures are never replay candidates: a resumed run re-attempts.
    assert!(reopened.cached_success(failure.fingerprint).is_none());
    drop(reopened);
    std::fs::remove_file(&path).unwrap();
}
