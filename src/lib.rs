//! Umbrella crate for the ARO-PUF (DATE 2014) reproduction.
//!
//! Re-exports every sub-crate under one roof so examples and integration
//! tests can depend on a single crate:
//!
//! * [`device`] — transistor models, process variation, aging.
//! * [`circuit`] — ring oscillators and readout.
//! * [`puf`] — the RO-PUF / ARO-PUF architectures (the paper's
//!   contribution).
//! * [`ecc`] — BCH / repetition codes, fuzzy extractor, area
//!   models.
//! * [`metrics`] — PUF quality metrics and randomness tests.
//! * [`faults`] — deterministic fault injection (see
//!   `docs/ROBUSTNESS.md`).
//! * [`serve`] — the fault-tolerant fleet authentication service
//!   (`repro serve-bench`, see `docs/ROBUSTNESS.md`).
//! * [`sim`] — the EXP-1..EXP-19 paper experiments and the
//!   `serve-bench` mode.
//! * [`ledger`] — the crash-safe run journal behind `repro --ledger` /
//!   `--resume` and the `repro report` analyses (see
//!   `docs/OBSERVABILITY.md`).
//! * [`par`] — deterministic data parallelism (`--threads N`).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub use aro_circuit as circuit;
pub use aro_device as device;
pub use aro_ecc as ecc;
pub use aro_faults as faults;
pub use aro_ledger as ledger;
pub use aro_metrics as metrics;
pub use aro_par as par;
pub use aro_puf as puf;
pub use aro_serve as serve;
pub use aro_sim as sim;
