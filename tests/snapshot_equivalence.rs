//! Aged-state snapshot layer: resume-from-snapshot must be byte-for-bit
//! indistinguishable from aging from scratch — in experiment reports, in
//! ledger fingerprints, and in every health sketch — at any thread
//! count, under any fault plan, and for any snapshot-epoch granularity.
//!
//! See docs/PERFORMANCE.md ("Aged-state snapshots") for the design and
//! the invalidation rules these tests pin down.

use std::sync::{Mutex, MutexGuard, PoisonError};

use aro_obs::Registry;
use aro_puf_repro::circuit::ring::{RoHealth, RoStyle};
use aro_puf_repro::device::environment::Environment;
use aro_puf_repro::device::units::YEAR;
use aro_puf_repro::faults::FaultPlan;
use aro_puf_repro::ledger::record::LedgerRecord;
use aro_puf_repro::par::set_thread_override;
use aro_puf_repro::puf::{Chip, MissionProfile, PairingStrategy, PufDesign};
use aro_puf_repro::sim::experiments::run_by_id;
use aro_puf_repro::sim::fingerprint::experiment_fingerprint;
use aro_puf_repro::sim::popcache::{self, age_chip_snapshotted, AgeCursor};
use aro_puf_repro::sim::SimConfig;
use proptest::prelude::*;

/// Obs enablement, the thread override, and the popcache/snapshot
/// thread-local switches are process-global; run these tests one at a
/// time.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores global state even when an assertion fails mid-test.
struct Cleanup;
impl Drop for Cleanup {
    fn drop(&mut self) {
        set_thread_override(0);
        popcache::set_snapshots_enabled(true);
        aro_obs::set_enabled(false);
        aro_obs::reset();
    }
}

/// A registry dump with the snapshot-store instrumentation stripped.
/// `sim.snapshot_hits`/`sim.snapshot_misses` are the *only* lines allowed
/// to differ between snapshot modes — they observe the cache itself, not
/// the simulation.
fn dump_sans_snapshot_counters() -> String {
    sans_snapshot_counters(&aro_obs::take_scratch())
}

fn sans_snapshot_counters(registry: &Registry) -> String {
    registry
        .dump()
        .lines()
        .filter(|line| !line.contains("sim.snapshot_"))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// One experiment run: the rendered report, the registry dump without
/// the snapshot counters, and those counters as `[hits, misses]`.
type ExperimentRun = (String, String, [u64; 2]);

/// A small lifecycle config: EXP-16 at 4 chips over a 32-bit key keeps
/// the sweep representative (hard faults, refresh gates, soft decoding)
/// while staying test-sized.
fn small_cfg() -> SimConfig {
    let mut cfg = SimConfig::quick();
    cfg.n_chips = 4;
    cfg.key_bits = 32;
    cfg
}

/// Runs one experiment with the snapshot layer forced on or off.
fn experiment_run(
    id: &str,
    cfg: &SimConfig,
    plan: FaultPlan,
    threads: usize,
    snapshots: bool,
) -> ExperimentRun {
    set_thread_override(threads);
    popcache::set_snapshots_enabled(snapshots);
    aro_obs::reset();
    aro_obs::set_enabled(true);
    let cfg = cfg.clone().with_faults(plan);
    let report = popcache::scoped(|| run_by_id(id, &cfg).expect("experiment exists"));
    aro_obs::set_enabled(false);
    let registry = aro_obs::take_scratch();
    let counters = [
        registry.counter("sim.snapshot_hits"),
        registry.counter("sim.snapshot_misses"),
    ];
    set_thread_override(0);
    popcache::set_snapshots_enabled(true);
    (
        format!("{report}"),
        sans_snapshot_counters(&registry),
        counters,
    )
}

/// The tentpole contract on the real lifecycle sweep: EXP-16 through the
/// snapshot store is byte-identical to EXP-16 aging every trial from
/// scratch — report and health sketches both — at 1, 2, and 8 worker
/// threads, under a fault-free plan and under a half-intensity storm.
/// Its chips age on `aro-par` workers, so the cold run must stay cold
/// there too (no snapshot lookups at all), and the warm run's hits and
/// misses must not depend on the thread count.
#[test]
fn exp16_snapshotted_matches_cold_at_every_thread_count_and_plan() {
    let _guard = lock();
    let _cleanup = Cleanup;
    let cfg = small_cfg();

    for plan_text in ["off", "storm@0.5"] {
        let plan = FaultPlan::parse(plan_text).unwrap();
        let mut reference: Option<ExperimentRun> = None;
        for threads in [1usize, 2, 8] {
            let cold = experiment_run("exp16", &cfg, plan, threads, false);
            let warm = experiment_run("exp16", &cfg, plan, threads, true);
            assert_eq!(
                cold.2,
                [0, 0],
                "a cold run looked up snapshots ({plan_text}, {threads} threads)"
            );
            assert!(
                warm.2[0] > 0,
                "a warm run replayed no snapshot ({plan_text}, {threads} threads)"
            );
            assert_eq!(
                warm.0, cold.0,
                "report differs between snapshot modes ({plan_text}, {threads} threads)"
            );
            assert_eq!(
                warm.1, cold.1,
                "health sketches differ between snapshot modes ({plan_text}, {threads} threads)"
            );
            // And across thread counts, snapshot counters included.
            let reference = reference.get_or_insert(warm.clone());
            assert_eq!(
                &warm, reference,
                "outputs differ across thread counts ({plan_text}, {threads} threads)"
            );
        }
    }
}

/// EXP-8 and EXP-15 share the snapshot store (and the golden memo) with
/// EXP-16; the same on-vs-off contract holds for them.
#[test]
fn exp8_and_exp15_snapshotted_match_cold() {
    let _guard = lock();
    let _cleanup = Cleanup;
    let cfg = small_cfg();
    let plan = FaultPlan::parse("storm@0.5").unwrap();

    for id in ["exp8", "exp15"] {
        let cold = experiment_run(id, &cfg, plan, 1, false);
        let warm = experiment_run(id, &cfg, plan, 1, true);
        assert_eq!(warm.0, cold.0, "{id} report differs between snapshot modes");
        assert_eq!(
            warm.1, cold.1,
            "{id} sketches differ between snapshot modes"
        );
    }
}

/// Ledger identity: the run fingerprint hashes configuration, fault
/// plan, seed, and experiment id — never cache state — so a ledger
/// written by a snapshotted run resumes a cold run and vice versa.
#[test]
fn ledger_fingerprints_are_snapshot_mode_invariant() {
    let _guard = lock();
    let _cleanup = Cleanup;
    let cfg = small_cfg();

    let fingerprint_with = |snapshots: bool| {
        popcache::set_snapshots_enabled(snapshots);
        let fp = experiment_fingerprint(&cfg, "exp16");
        let record = LedgerRecord::success(
            fp,
            "exp16",
            1,
            String::new(),
            Vec::new(),
            std::collections::BTreeMap::new(),
        );
        popcache::set_snapshots_enabled(true);
        (fp, record.fingerprint)
    };
    assert_eq!(fingerprint_with(true), fingerprint_with(false));
}

/// One recorded walk plus one replayed walk of the same step sequence,
/// with a response read at every epoch — the unit the experiment-level
/// tests above compose.
fn walk(
    design: &PufDesign,
    profile: &MissionProfile,
    env: &Environment,
    pairs: &[(usize, usize)],
    steps: &[f64],
    chip_id: u64,
    faults: &[(usize, RoHealth)],
) -> (Chip, Vec<Vec<(bool, f64)>>) {
    let mut chip = Chip::fabricate(design, chip_id);
    for &(slot, health) in faults {
        chip.set_ro_health(slot, health);
    }
    let mut cursor = AgeCursor::new();
    let mut reads = Vec::new();
    for &duration in steps {
        age_chip_snapshotted(&mut chip, design, profile, duration, &mut cursor);
        reads.push(chip.response_soft(design, env, pairs));
    }
    popcache::harvest_kernel_hints(&chip, design, &cursor);
    (chip, reads)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Any snapshot-epoch granularity — ten years cut into 1..=8 equal
    /// steps — replays byte-identically to cold aging: same silicon,
    /// same soft responses at every epoch, same health sketches.
    #[test]
    fn any_granularity_replays_byte_identically(
        granularity in 1usize..=8,
        seed in 0u64..1_000,
        conventional in any::<bool>(),
    ) {
        let _guard = lock();
        let _cleanup = Cleanup;
        let style = if conventional { RoStyle::Conventional } else { RoStyle::AgingResistant };
        let design = PufDesign::builder(style).n_ros(16).seed(seed).build();
        let profile = MissionProfile::typical(design.tech());
        let env = Environment::nominal(design.tech());
        let pairs = PairingStrategy::Neighbor.pairs(16);
        let steps = vec![10.0 * YEAR / granularity as f64; granularity];

        let run = |snapshots: bool| {
            popcache::set_snapshots_enabled(snapshots);
            aro_obs::reset();
            aro_obs::set_enabled(true);
            let out = popcache::scoped(|| {
                // Record walk (chip 0), replay walk (chip 0 again), and a
                // second chip so prefixes can never alias across silicon.
                let a = walk(&design, &profile, &env, &pairs, &steps, 0, &[]);
                let b = walk(&design, &profile, &env, &pairs, &steps, 0, &[]);
                let c = walk(&design, &profile, &env, &pairs, &steps, 1, &[]);
                (a, b, c)
            });
            aro_obs::set_enabled(false);
            let dump = dump_sans_snapshot_counters();
            popcache::set_snapshots_enabled(true);
            (out, dump)
        };
        let cold = run(false);
        let warm = run(true);
        prop_assert_eq!(&warm.0, &cold.0, "chips/responses differ at granularity {}", granularity);
        prop_assert_eq!(&warm.1, &cold.1, "sketches differ at granularity {}", granularity);
    }

    /// Changing the fault plan between sweeps must never serve stale
    /// aged state: a snapshot recorded from a chip with hard-faulted
    /// rings only covers the rings both trials agree on — everything
    /// else ages live. A heavily-faulted record walk followed by a
    /// fault-free replay walk equals a fault-free cold run exactly.
    #[test]
    fn a_fault_plan_change_invalidates_what_it_must(
        granularity in 1usize..=4,
        seed in 0u64..1_000,
        dead_ring in 0usize..16,
        stuck_ring in 0usize..16,
    ) {
        let _guard = lock();
        let _cleanup = Cleanup;
        let design = PufDesign::builder(RoStyle::AgingResistant).n_ros(16).seed(seed).build();
        let profile = MissionProfile::typical(design.tech());
        let env = Environment::nominal(design.tech());
        let pairs = PairingStrategy::Neighbor.pairs(16);
        let steps = vec![10.0 * YEAR / granularity as f64; granularity];
        let faults = [
            (dead_ring, RoHealth::Dead),
            (stuck_ring, RoHealth::Stuck(9.9e8)),
        ];

        // Cold truth: a fault-free walk with the store disabled.
        popcache::set_snapshots_enabled(false);
        let cold = popcache::scoped(|| walk(&design, &profile, &env, &pairs, &steps, 0, &[]));

        // Snapshotted: record under the faulted "plan", replay fault-free.
        popcache::set_snapshots_enabled(true);
        let replayed = popcache::scoped(|| {
            let _ = walk(&design, &profile, &env, &pairs, &steps, 0, &faults);
            walk(&design, &profile, &env, &pairs, &steps, 0, &[])
        });
        popcache::set_snapshots_enabled(true);
        prop_assert_eq!(&replayed, &cold, "stale faulted wear leaked into a fault-free replay");
    }
}
