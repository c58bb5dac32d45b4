//! Transistor-level substrate for the ARO-PUF (DATE 2014) reproduction.
//!
//! The original paper evaluates its aging-resistant ring-oscillator PUF with
//! HSPICE on a commercial PDK. No such ecosystem exists in Rust, so this crate
//! implements the closest analytic equivalent that exercises the same code
//! paths (see `DESIGN.md` at the repository root for the substitution
//! rationale):
//!
//! * [`mosfet`] — the Sakurai–Newton **alpha-power-law** MOSFET drive model,
//!   which captures exactly the dependency that matters for a ring
//!   oscillator: stage delay as a function of threshold voltage, supply
//!   voltage, and temperature.
//! * [`process`] — manufacturing **process variation**: inter-die shifts,
//!   systematic within-die gradients, Pelgrom random mismatch, and the
//!   deterministic per-position layout bias that limits the uniqueness of a
//!   conventional RO-PUF array.
//! * [`aging`] — long-term **NBTI/PBTI** (reaction–diffusion power law with
//!   duty-cycle-dependent recovery) and **HCI** wear-out, including
//!   per-device aging variability — the mechanism that flips PUF bits.
//! * [`spatial`] — the exponentially correlated within-die variation
//!   field (Cholesky-factored) behind the systematic component.
//! * [`environment`] — operating temperature and supply voltage and their
//!   effect on threshold voltage and carrier mobility.
//! * [`rng`] — deterministic, reproducible random sampling (Gaussian and
//!   log-normal variates, seed derivation) used by every Monte Carlo sweep.
//! * [`params`] — all physical constants in one place, each documented with
//!   its provenance (published 90 nm-class values, or `CALIBRATED` against
//!   the paper's headline numbers).
//! * [`units`] — time constants (`HOUR` … `YEAR`), the Boltzmann constant,
//!   the Celsius-to-kelvin conversion and the duration formatter of the
//!   experiment tables.
//!
//! # Example
//!
//! Compute how much a statically stressed PMOS transistor degrades over ten
//! years, and what that does to its drive current:
//!
//! ```
//! use aro_device::aging::{BtiBatch, BtiModel, StressInterval, TransistorAging};
//! use aro_device::environment::Environment;
//! use aro_device::mosfet::{Geometry, MosType, Mosfet};
//! use aro_device::params::TechParams;
//! use aro_device::rng::SeedDomain;
//! use aro_device::units::YEAR;
//!
//! let tech = TechParams::default();
//! let nbti = BtiModel::nbti(&tech);
//!
//! // Ten years of continuous DC stress at 25 C and nominal Vdd — the fate of
//! // a PMOS inside an idle *conventional* RO. The raw shift is shared by
//! // every device with this stress history.
//! let stress = StressInterval::static_dc(10.0 * YEAR, 25.0, tech.vdd_nominal);
//! let mut raw_dvth = 0.0;
//! BtiBatch::new(nbti.time_exp(), nbti.k_eff(&stress), stress.duration_s).apply(&mut raw_dvth);
//! assert!(raw_dvth > 0.01, "ten-year NBTI should exceed 10 mV");
//!
//! // One device scales it by its fabrication-time multiplier.
//! let mut rng = SeedDomain::new(1).rng(0);
//! let aging = TransistorAging::with_variability(&mut rng, tech.sigma_aging_rel);
//! let env = Environment::nominal(&tech);
//! let pmos = Mosfet::new(MosType::Pmos, Geometry::default(), &tech);
//! let fresh = pmos.drive_current(&tech, &env, 0.0);
//! let aged = pmos.drive_current(&tech, &env, aging.dvth_bti(raw_dvth));
//! assert!(aged < fresh, "aging reduces drive current");
//! ```

pub mod aging;
pub mod environment;
pub mod mosfet;
pub mod params;
pub mod process;
pub mod rng;
pub mod spatial;
pub mod units;

pub use aging::{BtiModel, HciModel, StressInterval, TransistorAging};
pub use environment::Environment;
pub use mosfet::{Geometry, MosType, Mosfet};
pub use params::TechParams;
pub use process::{ChipProcess, DeviceVariation, DiePosition, PositionBias};
pub use rng::SeedDomain;
pub use spatial::CorrelatedField;
