//! Deterministic fault injection for the ARO-PUF reproduction.
//!
//! The simulator's reliability numbers are only trustworthy if they survive
//! physics misbehaving: supply droops and temperature spikes during a
//! measurement, RTN trap ensembles briefly multiplying the noise floor,
//! rings dying or sticking in the field, counter flip-flops glitching, and
//! NVM bits of the stored helper data eroding. This crate models all six
//! classes behind two small types:
//!
//! * [`FaultPlan`] — pure data: per-class rates and magnitudes, with
//!   presets (`off`, `smoke`, `storm`), intensity scaling, and a parseable
//!   CLI spec (`storm@0.5`).
//! * [`FaultInjector`] — the deterministic event source: every query is a
//!   pure function of `(plan, master seed, coordinates)`, so fault
//!   schedules are byte-identical at any thread count and in any call
//!   order, and the injector's streams are derived from its own seed
//!   domain so installing it never perturbs fault-free results.
//!
//! The hooks it feeds live in the layers that own the physics:
//! [`aro_device::environment::Environment::perturbed`],
//! [`aro_circuit::ring::RoHealth`],
//! [`aro_circuit::readout::ReadoutConfig::with_noise_burst`], and
//! `aro_ecc::fuzzy::HelperData::with_flipped_bits`; counter glitches flip
//! response bits where the read happens (`aro_serve::faulted_read`).
//! Every fault that fires is tallied through `aro-obs` (`faults.*`
//! counters).
//!
//! See `docs/ROBUSTNESS.md` for the taxonomy and the determinism contract.
//!
//! # Example
//!
//! ```
//! use aro_faults::{FaultInjector, FaultPlan};
//! use aro_device::environment::Environment;
//!
//! let plan = FaultPlan::parse("storm@0.5").unwrap();
//! let inj = FaultInjector::new(plan, 2014);
//! let nominal = Environment::new(25.0, 1.2);
//! // Chip 3's fourth measurement event sees a deterministic operating
//! // point — the same bytes on every run, at any thread count.
//! let seen = inj.measurement_env(3, 4, &nominal);
//! assert_eq!(seen, inj.measurement_env(3, 4, &nominal));
//! ```

pub mod inject;
pub mod plan;

pub use inject::FaultInjector;
pub use plan::{FaultPlan, ParsePlanError};
