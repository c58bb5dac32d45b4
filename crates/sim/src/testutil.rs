//! Fixtures shared by the crate's unit tests.

use aro_circuit::ring::RoStyle;
use aro_ecc::keygen::KeyGenerator;

use crate::config::SimConfig;
use crate::keybench::provision;

/// The quick configuration with a 32-bit key: the small key keeps the
/// raw-bit budget, and so the array, small in debug-mode tests; the
/// physics is unchanged.
pub(crate) fn tiny_cfg() -> SimConfig {
    let mut cfg = SimConfig::quick();
    cfg.key_bits = 32;
    cfg
}

/// The key generator the key bench provisions for the ARO design under
/// `cfg`.
pub(crate) fn tiny_generator(cfg: &SimConfig) -> KeyGenerator {
    provision(cfg, RoStyle::AgingResistant).1.expect("feasible")
}
