//! The ARO-PUF (DATE 2014) core library.
//!
//! This crate implements the paper's contribution: the **aging-resistant
//! ring-oscillator PUF** and the conventional RO-PUF baseline it is
//! evaluated against, on top of the device ([`aro_device`]) and circuit
//! ([`aro_circuit`]) substrates.
//!
//! * [`design`] — a [`design::PufDesign`]: cell style, array size, readout
//!   configuration, and the design-wide layout bias shared by every chip.
//! * [`chip`] — one fabricated [`chip::Chip`]: its process realization and
//!   RO array, with frequency measurement and response generation.
//! * [`pairing`] — how RO pairs map to response bits: disjoint neighbours,
//!   chained, distant, or the Suh–Devadas 1-out-of-k selection.
//! * [`challenge`] — challenge → pair-set mapping for challenge/response
//!   operation.
//! * [`enrollment`] — the factory step: measure, choose pairs, store the
//!   golden response.
//! * [`lifetime`] — mission profiles and the aging scheduler that plays a
//!   deployment (idle stress + measurement stress) onto a chip.
//! * [`snapshot`] — aged-state snapshots: record one aging step, replay
//!   it bit-identically onto chips walking the same mission history.
//! * [`population`] — Monte Carlo chip populations for the paper's
//!   inter-chip statistics.
//!
//! # Quickstart
//!
//! ```
//! use aro_puf::design::PufDesign;
//! use aro_puf::pairing::PairingStrategy;
//! use aro_puf::population::Population;
//! use aro_circuit::ring::RoStyle;
//! use aro_device::environment::Environment;
//!
//! // Fabricate five ARO-PUF chips and read 128-bit responses.
//! let design = PufDesign::standard(RoStyle::AgingResistant, 77);
//! let mut population = Population::fabricate(&design, 5);
//! let env = Environment::nominal(design.tech());
//! let responses = population.responses(&env, &PairingStrategy::Neighbor);
//! assert_eq!(responses.len(), 5);
//! assert_eq!(responses[0].len(), 128);
//! ```

pub mod auth;
pub mod challenge;
pub mod chip;
pub mod design;
pub mod enrollment;
mod kernels;
pub mod lifetime;
pub mod pairing;
pub mod population;
pub mod snapshot;

pub use auth::CrpDatabase;
pub use challenge::Challenge;
pub use chip::Chip;
pub use design::PufDesign;
pub use enrollment::Enrollment;
pub use lifetime::{MissionProfile, MissionSchedule, MissionStep, MissionStepKey};
pub use pairing::PairingStrategy;
pub use population::Population;
