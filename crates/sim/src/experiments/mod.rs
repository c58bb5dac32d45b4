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

/// Every experiment id, in paper order.
pub const ALL_IDS: [&str; 19] = [
    "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8", "exp9", "exp10", "exp11",
    "exp12", "exp13", "exp14", "exp15", "exp16", "exp17", "exp18", "exp19",
];

/// Wraps one experiment run in its phase span and progress counter.
fn traced(id: &str, cfg: &SimConfig, run: fn(&SimConfig) -> Report) -> Report {
    let _span = aro_obs::span(&format!("exp.{id}"));
    let report = run(cfg);
    aro_obs::counter("sim.experiments_run", 1);
    report
}

/// Runs one experiment by id (`"exp1"`…`"exp19"`, plus the
/// `"serve-bench"` mode, which is not in [`ALL_IDS`] — it only runs when
/// asked for by name), or `None` for an unknown id. Opens a
/// population-cache scope of its own (a no-op when the caller — e.g.
/// the experiment harness — already holds one).
#[must_use]
pub fn run_by_id(id: &str, cfg: &SimConfig) -> Option<Report> {
    let run: fn(&SimConfig) -> Report = match id {
        "exp1" => exp1::run,
        "exp2" => exp2::run,
        "exp3" => exp3::run,
        "exp4" => exp4::run,
        "exp5" => exp5::run,
        "exp6" => exp6::run,
        "exp7" => exp7::run,
        "exp8" => exp8::run,
        "exp9" => exp9::run,
        "exp10" => exp10::run,
        "exp11" => exp11::run,
        "exp12" => exp12::run,
        "exp13" => exp13::run,
        "exp14" => exp14::run,
        "exp15" => exp15::run,
        "exp16" => exp16::run,
        "exp17" => exp17::run,
        "exp18" => exp18::run,
        "exp19" => exp19::run,
        "serve-bench" => serve_bench::run,
        _ => return None,
    };
    Some(crate::popcache::scoped(|| traced(id, cfg, run)))
}
