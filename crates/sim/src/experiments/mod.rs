//! The paper experiments, one module each. See `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for the paper-vs-measured record.

pub mod exp1;
pub mod exp10;
pub mod exp11;
pub mod exp12;
pub mod exp13;
pub mod exp14;
pub mod exp15;
pub mod exp16;
pub mod exp17;
pub mod exp18;
pub mod exp19;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod exp5;
pub mod exp6;
pub mod exp7;
pub mod exp8;
pub mod exp9;
pub mod serve_bench;

use crate::config::SimConfig;
use crate::report::Report;

/// An experiment's entry point.
pub type Run = fn(&SimConfig) -> Report;

/// Every runnable id with its `repro --list` title and entry point: the
/// paper experiments in paper order, then the `serve-bench` mode, which
/// runs only when named and so stays out of [`ALL_IDS`].
#[rustfmt::skip]
pub const REGISTRY: [(&str, &str, Run); 20] = [
    ("exp1", "RO frequency degradation vs. time", exp1::run),
    ("exp2", "Percentage of flipped bits vs. time (paper: 32 % vs 7.7 %)", exp2::run),
    ("exp3", "Inter-chip Hamming distance (paper: ~45 % vs 49.67 %)", exp3::run),
    ("exp4", "Randomness and environmental reliability", exp4::run),
    ("exp5", "PUF + ECC area for a 128-bit key (paper: ~24x)", exp5::run),
    ("exp6", "Ablation: stress duty and temperature sweep", exp6::run),
    ("exp7", "Ablation: pairing / masking strategies", exp7::run),
    ("exp8", "End-to-end key generation over ten years", exp8::run),
    ("exp9", "Ablation: temporal majority voting vs. the aging floor", exp9::run),
    ("exp10", "Ablation: margin-threshold masking trade-off", exp10::run),
    ("exp11", "Ablation: spatially correlated variation vs. pairing distance", exp11::run),
    ("exp12", "Authentication FAR/FRR after ten years", exp12::run),
    ("exp13", "Seed robustness of the headline claims", exp13::run),
    ("exp14", "Soft-decision decoding gain", exp14::run),
    ("exp15", "Key recovery under injected faults (chaos sweep)", exp15::run),
    ("exp16", "Self-healing helper-data refresh (interval sweep)", exp16::run),
    ("exp17", "Fault-aware provisioning envelope", exp17::run),
    ("exp18", "Fleet authentication service under fault storms", exp18::run),
    ("exp19", "Full-storm survival: cheapest (area, refresh, replication) triple", exp19::run),
    (
        "serve-bench",
        "Fleet authentication service benchmark (auths/sec, p50/p99, FAR/FRR; exits 3 if \
         the service ended degraded)",
        serve_bench::run,
    ),
];

/// Every paper experiment id, in paper order: the [`REGISTRY`] minus its
/// final `serve-bench` entry.
pub const ALL_IDS: [&str; 19] = {
    let mut ids = [""; 19];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = REGISTRY[i].0;
        i += 1;
    }
    ids
};

/// Wraps one experiment run in its phase span and progress counter.
fn traced(id: &str, cfg: &SimConfig, run: Run) -> Report {
    let _span = aro_obs::span(&format!("exp.{id}"));
    let report = run(cfg);
    aro_obs::counter("sim.experiments_run", 1);
    report
}

/// Runs one [`REGISTRY`] entry by id, or `None` for an unknown id. Opens
/// a population-cache scope of its own (a no-op when the caller — e.g.
/// the experiment harness — already holds one).
#[must_use]
pub fn run_by_id(id: &str, cfg: &SimConfig) -> Option<Report> {
    let &(_, _, run) = REGISTRY.iter().find(|(known, _, _)| *known == id)?;
    Some(crate::popcache::scoped(|| traced(id, cfg, run)))
}
