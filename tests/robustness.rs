//! Robustness-layer integration tests: the determinism contract of the
//! fault injector, panic isolation in the experiment harness, and the
//! zero-intensity anchor against the committed golden fixture.
//!
//! See `docs/ROBUSTNESS.md` for the contract these tests enforce.

use std::fmt::Write;

use aro_puf_repro::circuit::ring::RoStyle;
use aro_puf_repro::faults::FaultPlan;
use aro_puf_repro::par::set_thread_override;
use aro_puf_repro::puf::MissionProfile;
use aro_puf_repro::sim::experiments::{run_by_id, ALL_IDS};
use aro_puf_repro::sim::harness::run_experiments;
use aro_puf_repro::sim::runner::{build_population, measure_flip_timeline, FlipTimeline};
use aro_puf_repro::sim::{popcache, SimConfig};
use proptest::prelude::*;

const FIXTURE: &str = include_str!("fixtures/golden_quick.md");
const YEAR: f64 = aro_puf_repro::device::units::YEAR;

/// One faulted flip-timeline measurement at a forced worker-thread count.
fn timeline_at(plan: FaultPlan, seed: u64, style: RoStyle, threads: usize) -> FlipTimeline {
    let mut cfg = SimConfig::quick();
    cfg.n_chips = 4;
    cfg.n_ros = 16;
    cfg.seed = seed;
    let cfg = cfg.with_faults(plan);
    set_thread_override(threads);
    let mut population = build_population(&cfg, style);
    let profile = MissionProfile::typical(population.design().tech());
    let timeline = measure_flip_timeline(
        &mut population,
        &profile,
        &[YEAR, 5.0 * YEAR, 10.0 * YEAR],
        cfg.injector().as_ref(),
    );
    set_thread_override(0);
    timeline
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// The tentpole determinism contract: any fault plan — any preset, any
    /// intensity, any seed — produces a byte-identical fault schedule at
    /// any `--threads N`. Faults are addressed by (chip, event)
    /// coordinates, never by worker identity or execution order.
    #[test]
    fn any_fault_plan_is_byte_identical_across_thread_counts(
        preset in prop::sample::select(vec!["off", "smoke", "storm"]),
        intensity in 0.0f64..1.5,
        seed in 0u64..1_000,
        conventional in any::<bool>(),
    ) {
        let plan = FaultPlan::parse(preset).unwrap().scaled(intensity);
        let style = if conventional { RoStyle::Conventional } else { RoStyle::AgingResistant };
        let t1 = timeline_at(plan, seed, style, 1);
        let t2 = timeline_at(plan, seed, style, 2);
        let t8 = timeline_at(plan, seed, style, 8);
        prop_assert_eq!(&t1, &t2, "1 vs 2 threads");
        prop_assert_eq!(&t1, &t8, "1 vs 8 threads");
    }
}

/// Renders a report exactly as `repro` prints it (one trailing newline
/// per `emit`), for substring checks against the fixture. Generic over
/// `Display` so it accepts both live `Report`s and the harness's
/// fresh-or-replayed `ExperimentOutput`.
fn rendered(report: &impl std::fmt::Display) -> String {
    let mut out = String::new();
    writeln!(out, "{report}").expect("writing to a String cannot fail");
    out
}

#[test]
fn a_zero_intensity_plan_reproduces_the_golden_fixture_exactly() {
    // `smoke@0` parses to a plan with non-trivial magnitudes but all-zero
    // rates; the run must be indistinguishable from no fault layer.
    let plan = FaultPlan::parse("smoke@0").unwrap();
    assert!(plan.is_off());
    let cfg = SimConfig::quick().with_faults(plan);
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
            out.push_str(&rendered(&report));
        }
    });
    assert_eq!(
        out, FIXTURE,
        "a zero-intensity fault run must be byte-identical to the fault-free fixture"
    );
}

#[test]
fn a_panicking_experiment_leaves_the_other_experiments_and_the_cache_intact() {
    // Expected panics would spam the test log; silence the hook.
    let _ = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let cfg = SimConfig::quick();
    let all: Vec<&str> = ALL_IDS.to_vec();
    let outcome = run_experiments(&cfg, &all, &["exp1".to_string()], None);
    let _ = std::panic::take_hook();

    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].id, "exp1");
    assert!(outcome.failures[0].error.contains("forced panic"));
    assert_eq!(outcome.successes.len(), ALL_IDS.len() - 1);
    assert!(outcome.is_degraded());

    // Every surviving report is byte-identical to its section of the
    // golden fixture: the caught panic (and the popcache reset behind it)
    // leaked nothing into the other experiments.
    for success in &outcome.successes {
        assert!(
            FIXTURE.contains(&rendered(&success.report)),
            "{} diverged from the golden fixture after exp1 panicked",
            success.id
        );
    }

    // And the popcache is still usable afterwards: the victim runs clean.
    let report = popcache::scoped(|| run_by_id("exp1", &cfg)).expect("exp1 exists");
    assert!(FIXTURE.contains(&rendered(&report)));
}
