//! Circuit-level substrate for the ARO-PUF (DATE 2014) reproduction.
//!
//! Builds on [`aro_device`] to model the circuits the paper simulates in
//! HSPICE:
//!
//! * [`gates`] — transistor instances (sampled mismatch + aging
//!   multipliers; the nominal device is per polarity and built by the
//!   read) and CMOS stage delay from the alpha-power law.
//! * [`ring`] — the ring oscillator itself, holding its devices' HCI wear
//!   (one cycle count; the BTI stress classes its devices read are its
//!   chip's, advanced by the stress batches), in two flavours:
//!   [`ring::RoStyle::Conventional`] (enable-NAND + inverter chain, whose
//!   *idle* state holds static DC stress on alternating stages) and
//!   [`ring::RoStyle::AgingResistant`] (the paper's ARO cell: gating
//!   transistors decouple the supply and equalize internal nodes when idle,
//!   so BTI stress shrinks to a leakage-level duty factor and recovery runs
//!   almost all the time).
//! * [`kernel`] — the frequency derivation, with the per-read context a
//!   chip-wide read shares across its rings.
//! * [`readout`] — the counter-based frequency measurement: finite gate
//!   time (quantization) plus accumulated-jitter noise, and the pairwise
//!   comparison that yields a response bit.
//! * [`netlist`] — structural cell descriptions (transistor counts, area)
//!   used by the paper's area comparison.
//!
//! # Example
//!
//! A fresh conventional RO and its frequency after ten idle years, alone
//! on its chip:
//!
//! ```
//! use aro_circuit::ring::{AgingModels, IdleStressBatch, RingOscillator, RoStyle};
//! use aro_device::environment::Environment;
//! use aro_device::params::TechParams;
//! use aro_device::process::{ChipProcess, DiePosition};
//! use aro_device::rng::SeedDomain;
//! use aro_device::units::YEAR;
//!
//! let tech = TechParams::default();
//! let env = Environment::nominal(&tech);
//! let chip = ChipProcess::typical();
//! let models = AgingModels::new(&tech);
//! let mut rng = SeedDomain::new(1).rng(0);
//!
//! let mut ro = RingOscillator::new(RoStyle::Conventional, 5, DiePosition::new(0.5, 0.5), &tech, &mut rng);
//! // The chip holds its rings' BTI wear: one raw shift per stress class.
//! let mut bti = [0.0; 4];
//! let fresh = ro.frequency(&tech, &env, &chip, &bti);
//! assert!(fresh > 1e8, "a 5-stage 90 nm ring runs near a gigahertz");
//!
//! let style = RoStyle::Conventional;
//! let batch = IdleStressBatch::new(style, &tech, &models, 25.0, tech.vdd_nominal, 10.0 * YEAR);
//! let applies = batch.advance(&mut bti, ro.n_stages());
//! ro.stress_idle(&batch, &bti, applies);
//! let aged = ro.frequency(&tech, &env, &chip, &bti);
//! assert!(aged < fresh, "static idle stress slows the conventional ring");
//!
//! // Idling stresses two of the four classes: the input-high stages'
//! // NMOS and the input-low stages' PMOS, five devices in all.
//! assert_eq!(bti.iter().filter(|&&dvth| dvth > 0.0).count(), 2);
//! assert_eq!(applies, 5);
//! ```

pub mod gates;
pub mod kernel;
pub mod logic;
pub mod netlist;
pub mod readout;
pub mod ring;
pub mod transient;

pub use gates::{InverterStage, StageKind, TransistorInst};
pub use kernel::FreqContext;
pub use logic::{GateKind, LogicCircuit, NetId, RippleCounter};
pub use netlist::{CellArea, RoCell};
pub use readout::{Measurement, ReadoutConfig};
pub use ring::{AgingModels, RingOscillator, RoHealth, RoStyle};
