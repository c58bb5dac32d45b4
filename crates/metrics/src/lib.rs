//! PUF quality metrics for the ARO-PUF (DATE 2014) reproduction.
//!
//! The paper evaluates its design with the standard PUF figure-of-merit
//! suite introduced by Suh & Devadas and formalized by Maiti et al.:
//!
//! * [`bits`] — a compact, packed [`bits::BitString`] response type with
//!   fast Hamming distance.
//! * [`stats`] — summary statistics and histograms used by every figure.
//! * [`quality`] — **uniqueness** (inter-chip HD, ideal 50 %),
//!   **reliability** (intra-chip HD across environments/time, ideal 0 %),
//!   **uniformity** (fraction of 1s, ideal 50 %), **bit-aliasing**
//!   (per-position bias across chips, ideal 50 %), and aging **flip rate**.
//! * [`entropy`] — min-entropy estimators for key-strength accounting.
//! * [`special`] — the special functions (`erfc`, regularized incomplete
//!   gamma) behind real p-values.
//! * [`nist`] — a NIST SP 800-22-lite randomness battery (monobit, block
//!   frequency, runs, longest-run, serial, approximate entropy, cumulative
//!   sums), used for the paper's "keys are random" claim.
//!
//! # Example
//!
//! ```
//! use aro_metrics::bits::BitString;
//! use aro_metrics::quality;
//!
//! let a = BitString::from_bools(&[true, false, true, true]);
//! let b = BitString::from_bools(&[true, true, true, false]);
//! assert_eq!(a.hamming_distance(&b), 2);
//! assert_eq!(quality::fractional_hd(&a, &b), 0.5);
//! ```

pub mod bits;
pub mod entropy;
pub mod fft;
pub mod nist;
pub mod quality;
pub mod special;
pub mod stats;

pub use bits::BitString;
pub use quality::{bit_aliasing, fractional_hd, inter_chip_hd, intra_chip_hd, uniformity};
pub use stats::{Histogram, Summary};
