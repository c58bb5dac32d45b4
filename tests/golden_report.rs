//! Golden-output regression test: the full quick-config reproduction run
//! must stay byte-identical to the committed fixture.
//!
//! This is the contract every performance change in this repo is held to:
//! kernels, caches and parallel fan-out may reorder *work*, never *bits*.
//! The fixture `tests/fixtures/golden_quick.md` is the exact stdout of
//! `repro --quick`; regenerate it (and justify the diff in the PR) with
//!
//! ```text
//! cargo run --release -p aro-bench --bin repro -- --quick \
//!     > tests/fixtures/golden_quick.md
//! ```

use aro_puf_repro::ledger::Ledger;
use aro_puf_repro::sim::experiments::{run_by_id, ALL_IDS};
use aro_puf_repro::sim::harness::run_experiments;
use aro_puf_repro::sim::{popcache, SimConfig};
use std::fmt::Write;

const FIXTURE: &str = include_str!("fixtures/golden_quick.md");
/// The committed stdout of a full paper-scale `repro`.
const PAPER_SCALE: &str = include_str!("../repro_paper_scale.md");

/// Renders the quick run exactly as the `repro` binary prints it: the
/// header line, then every report's `Display` output, each followed by a
/// newline (one `writeln!` per `emit` call in `repro`).
fn render_quick_run() -> String {
    let cfg = SimConfig::quick();
    let mut out = String::new();
    writeln!(
        out,
        "# ARO-PUF (DATE 2014) reproduction — {} chips x {} ROs, seed {}\n",
        cfg.n_chips, cfg.n_ros, cfg.seed
    )
    .expect("writing to a String cannot fail");
    popcache::scoped(|| {
        for id in ALL_IDS {
            let report = run_by_id(id, &cfg).expect("every ALL_IDS entry runs");
            writeln!(out, "{report}").expect("writing to a String cannot fail");
        }
    });
    out
}

#[test]
fn quick_run_is_byte_identical_to_the_committed_fixture() {
    let rendered = render_quick_run();
    if rendered != FIXTURE {
        // Byte-level assert_eq on 17 kB of markdown is unreadable; point
        // at the first diverging line instead.
        for (i, (got, want)) in rendered.lines().zip(FIXTURE.lines()).enumerate() {
            assert_eq!(got, want, "first divergence at line {}", i + 1);
        }
        assert_eq!(
            rendered.len(),
            FIXTURE.len(),
            "outputs agree line-by-line but differ in length (trailing content)"
        );
        unreachable!("outputs differ but no line-level divergence was found");
    }
}

#[test]
fn golden_rendering_is_deterministic_across_repeated_runs() {
    // The popcache scope is per-run; two runs must not leak state into
    // each other's bytes.
    assert_eq!(render_quick_run(), render_quick_run());
}

/// Renders a hardened (harness) run exactly as `repro` prints it, with an
/// optional ledger attached.
fn render_harness_run(ids: &[&str], ledger: Option<&mut Ledger>) -> String {
    let cfg = SimConfig::quick();
    let mut out = String::new();
    writeln!(
        out,
        "# ARO-PUF (DATE 2014) reproduction — {} chips x {} ROs, seed {}\n",
        cfg.n_chips, cfg.n_ros, cfg.seed
    )
    .expect("writing to a String cannot fail");
    let outcome = run_experiments(&cfg, ids, &[], ledger);
    assert!(outcome.failures.is_empty(), "quick run never fails");
    assert!(outcome.ledger_errors.is_empty(), "ledger appends succeed");
    for success in &outcome.successes {
        writeln!(out, "{}", success.report).expect("writing to a String cannot fail");
    }
    out
}

/// The tentpole guarantee of the run ledger: a run killed after k
/// experiments and then resumed produces byte-identical stdout to an
/// uninterrupted run — replayed reports are the *exact* bytes the first
/// process rendered, fresh ones recompute deterministically.
#[test]
fn interrupted_then_resumed_run_matches_the_fixture_byte_for_byte() {
    let path =
        std::env::temp_dir().join(format!("aro-golden-resume-{}.ledger", std::process::id()));
    // First process: completes only the first 5 experiments, then dies.
    // Dropping the ledger is an honest kill simulation — every append
    // was already flushed when the experiment finished.
    {
        let mut ledger = Ledger::create(&path).expect("create ledger");
        let _ = render_harness_run(&ALL_IDS[..5], Some(&mut ledger));
    }
    // Second process: asked for everything, resumes from the journal.
    let mut resumed_ledger = Ledger::open(&path).expect("reopen ledger");
    assert_eq!(resumed_ledger.records().len(), 5);
    let resumed = render_harness_run(&ALL_IDS, Some(&mut resumed_ledger));
    // 5 replayed + the rest fresh = one record per experiment: had
    // replay silently failed, the re-runs would have appended ALL_IDS
    // more records on top (total ALL_IDS + 5).
    assert_eq!(resumed_ledger.records().len(), ALL_IDS.len());
    drop(resumed_ledger);
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(
        resumed, FIXTURE,
        "resumed run must be byte-identical to the uninterrupted fixture"
    );
}

/// The paper-scale reads whose draws the readout's noise envelope skips:
/// EXP-8's hard reads, EXP-9's voted reads, EXP-16's 5-vote anchors, and
/// EXP-18, which fabricates, ages and serves its fleets (hard probes,
/// soft gate reads and 5-vote anchors), rebuilding the wear of every ring
/// it reads. Each report, as `repro` prints it, must appear verbatim in
/// the committed paper-scale run (the check the benchmark's paper
/// workloads apply to their experiments).
#[test]
fn paper_scale_reads_match_the_committed_report() {
    let cfg = SimConfig::paper();
    popcache::scoped(|| {
        for id in ["exp8", "exp9", "exp16", "exp18"] {
            let report = run_by_id(id, &cfg).expect("the experiment is registered");
            let rendered = format!("{report}\n");
            assert!(
                PAPER_SCALE.contains(&rendered),
                "{id} differs from repro_paper_scale.md:\n{rendered}"
            );
        }
    });
}
