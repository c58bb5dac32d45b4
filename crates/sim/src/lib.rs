//! Experiment engine for the ARO-PUF (DATE 2014) reproduction.
//!
//! One module per paper experiment (see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured):
//!
//! | Experiment | Reproduces |
//! |---|---|
//! | [`experiments::exp1`] | frequency degradation vs. time |
//! | [`experiments::exp2`] | % flipped bits vs. time (claim: 32 % vs 7.7 % at 10 y) |
//! | [`experiments::exp3`] | inter-chip HD distribution (claim: ~45 % vs 49.67 %) |
//! | [`experiments::exp4`] | randomness & environmental reliability |
//! | [`experiments::exp5`] | ECC + PUF area for a 128-bit key (claim: ~24×) |
//! | [`experiments::exp6`] | ablation: stress duty & temperature sweep |
//! | [`experiments::exp7`] | ablation: pairing / masking strategies |
//! | [`experiments::exp8`] | end-to-end key failure over 10 years |
//! | [`experiments::exp9`] | ablation: temporal majority voting vs. the aging floor |
//! | [`experiments::exp10`] | ablation: margin-threshold masking trade-off |
//! | [`experiments::exp11`] | ablation: correlated variation vs. pairing distance |
//! | [`experiments::exp12`] | authentication FAR/FRR after ten years |
//! | [`experiments::exp13`] | seed robustness of the headline claims |
//! | [`experiments::exp14`] | soft-decision decoding gain |
//! | [`experiments::exp15`] | key recovery under injected faults (chaos sweep) |
//! | [`experiments::exp16`] | self-healing helper-data refresh (interval sweep) |
//! | [`experiments::exp17`] | fault-aware provisioning envelope |
//! | [`experiments::exp18`] | fleet authentication service under fault storms |
//! | [`experiments::exp19`] | cheapest (code area, refresh, replication) triple surviving the storm |
//! | [`experiments::serve_bench`] | `repro serve-bench` — fleet auth throughput/accuracy |
//!
//! Every experiment consumes a [`config::SimConfig`] (use
//! [`config::SimConfig::paper`] for paper-scale populations,
//! [`config::SimConfig::quick`] in tests) and returns a
//! [`report::Report`] of tables and figures that the `repro` binary
//! prints.

pub mod config;
pub mod experiments;
pub mod fingerprint;
pub mod harness;
pub(crate) mod keybench;
pub mod popcache;
pub mod report;
pub mod runner;
pub mod servefleet;
pub mod table;
#[cfg(test)]
mod testutil;

pub use config::SimConfig;
pub use report::Report;
pub use table::{Figure, Series, Table};
