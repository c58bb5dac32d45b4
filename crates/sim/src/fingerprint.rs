//! Experiment fingerprints: the replay-eligibility key of the run ledger.
//!
//! A ledger record may stand in for a live run only when *everything*
//! that determines the run's bytes matches: the simulation config (its
//! fault plan and replication factor included) and the experiment
//! itself. This module digests exactly those inputs into one `u64`.
//! Wall-clock, thread count, and observability settings are deliberately
//! excluded — they never change report bytes (the determinism contract
//! every perf PR re-proves against the golden fixture).

use crate::config::SimConfig;
use crate::servefleet::DEFAULT_REPLICAS;

/// The splitmix64 finalizer — the same full-avalanche mix the fault-plan
/// fingerprint uses, re-implemented locally to keep the digest stable
/// even if `aro-faults` internals move.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Digests `(config, experiment)` into the ledger key.
///
/// The fault plan enters as its injector's fingerprint, `0` for a
/// fault-free run; off plans never attach, so a `--faults smoke@0` run
/// shares fingerprints with a fault-free run — matching the byte-identity
/// the injector guarantees for such plans. The replication factor is
/// mixed in only when it differs from [`DEFAULT_REPLICAS`], so ledgers
/// written before it joined the key still replay.
#[must_use]
pub fn experiment_fingerprint(cfg: &SimConfig, id: &str) -> u64 {
    // Exhaustive on purpose: a new config field must be added here.
    let SimConfig {
        n_chips,
        n_ros,
        seed,
        key_bits,
        key_fail_target,
        replicas,
        faults: _,
    } = cfg;
    let mut h = 0xa0b9_c2d4_e6f8_1357_u64;
    for field in [
        *n_chips as u64,
        *n_ros as u64,
        *seed,
        *key_bits as u64,
        key_fail_target.to_bits(),
        cfg.injector().map_or(0, |injector| injector.fingerprint()),
    ] {
        h = mix64(h ^ field);
    }
    if *replicas != DEFAULT_REPLICAS {
        h = mix64(h ^ *replicas as u64);
    }
    for byte in id.bytes() {
        h = mix64(h ^ u64::from(byte));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_faults::FaultPlan;

    #[test]
    fn every_input_perturbs_the_digest() {
        let cfg = SimConfig::quick();
        let base = experiment_fingerprint(&cfg, "exp1");
        assert_eq!(base, experiment_fingerprint(&cfg, "exp1"), "stable");
        assert_ne!(base, experiment_fingerprint(&cfg, "exp2"));
        let reseeded = cfg.clone().with_seed(cfg.seed + 1);
        assert_ne!(base, experiment_fingerprint(&reseeded, "exp1"));
        let mut retargeted = cfg.clone();
        retargeted.key_fail_target *= 0.5;
        assert_ne!(base, experiment_fingerprint(&retargeted, "exp1"));
        let mut resized = cfg.clone();
        resized.n_chips += 1;
        assert_ne!(base, experiment_fingerprint(&resized, "exp1"));
        let mut replicated = cfg.clone();
        replicated.replicas = DEFAULT_REPLICAS + 1;
        assert_ne!(base, experiment_fingerprint(&replicated, "exp1"));
        let faulted = cfg.clone().with_faults(FaultPlan::smoke());
        assert_ne!(base, experiment_fingerprint(&faulted, "exp1"));
        let stormed = cfg.with_faults(FaultPlan::storm());
        assert_ne!(
            experiment_fingerprint(&faulted, "exp1"),
            experiment_fingerprint(&stormed, "exp1")
        );
    }

    #[test]
    fn digests_match_ledgers_written_before_the_replication_factor_joined_the_key() {
        let cfg = SimConfig::quick();
        assert_eq!(experiment_fingerprint(&cfg, "exp1"), 0xb9e9_1832_10ec_3f63);
        let smoke = cfg.with_faults(FaultPlan::smoke());
        assert_eq!(
            experiment_fingerprint(&smoke, "exp1"),
            0x0005_8cce_6f76_1949
        );
    }

    #[test]
    fn ids_do_not_collide_by_concatenation() {
        // "exp1" + "1" vs "exp11": per-byte mixing must separate them.
        let cfg = SimConfig::quick();
        assert_ne!(
            experiment_fingerprint(&cfg, "exp11"),
            experiment_fingerprint(&cfg, "exp1")
        );
    }
}
