//! Per-request pipeline policy: bounded retries, per-attempt timeouts,
//! and deterministic backoff.
//!
//! This is the PR 3 harness discipline (panic isolation aside) scaled
//! down to a single authentication request: every attempt gets a
//! simulated latency budget; blowing it counts as a timeout and costs a
//! backoff before the next try. All randomness — latency jitter and
//! backoff jitter — is drawn from seed-derived streams keyed by
//! `(device, event)`, so a rerun of the same request schedule is
//! byte-identical while the fleet still never retries in lockstep.
//!
//! Latency is *simulated* (integer microseconds), never wall-clock:
//! that is what lets `serve-bench` report p50/p99 and auths/sec that are
//! byte-identical at any `--threads N`.

use rand::Rng;

/// Bounded-retry policy for one verification request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per request (device reads) before giving up.
    pub max_attempts: u32,
    /// Simulated per-attempt latency budget; an attempt that would run
    /// longer is abandoned as a timeout.
    pub attempt_timeout_us: u64,
    /// Base of the exponential backoff between attempts.
    pub backoff_base_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            attempt_timeout_us: 400,
            backoff_base_us: 50,
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff charged before retry number `attempt`
    /// (1-based): exponential in the attempt with seed-derived jitter in
    /// `[0, base)`.
    pub fn backoff_us(&self, attempt: u32, rng: &mut impl Rng) -> u64 {
        let base = self.backoff_base_us.max(1);
        (base << attempt.min(6)) + rng.gen_range(0..base)
    }
}

/// Simulated service-side latency of one verification attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed verifier overhead (store lookup, comparison, bookkeeping).
    pub base_us: u64,
    /// Device read cost per response bit.
    pub per_bit_ns: u64,
    /// Extra cost when the read ran under an environment excursion
    /// (brownout/thermal events stall the device-side counters). Sized
    /// to blow the default attempt timeout: excursions surface as
    /// timeouts, exactly how a fielded verifier experiences them.
    pub excursion_penalty_us: u64,
    /// Uniform jitter bound added to every attempt.
    pub jitter_us: u64,
    /// Extra cost per replica hop when the quorum read falls past the
    /// home replica (replica `k` costs `k` hops). Kept well under
    /// `base_us`: fallback reads are slower, never timeouts.
    pub replica_hop_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            base_us: 60,
            per_bit_ns: 800,
            excursion_penalty_us: 600,
            jitter_us: 25,
            replica_hop_us: 15,
        }
    }
}

impl LatencyModel {
    /// Simulated cost of one attempt reading `bits` response bits.
    pub fn attempt_us(&self, bits: usize, excursion: bool, rng: &mut impl Rng) -> u64 {
        let read_ns = self.per_bit_ns * bits as u64;
        let mut us = self.base_us + read_ns.div_ceil(1000) + rng.gen_range(0..=self.jitter_us);
        if excursion {
            us += self.excursion_penalty_us;
        }
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_device::rng::SeedDomain;

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let policy = RetryPolicy::default();
        let draw = |attempt: u32| {
            let mut rng = SeedDomain::new(9).child("t").rng(attempt.into());
            policy.backoff_us(attempt, &mut rng)
        };
        assert!(draw(2) > draw(1), "backoff must grow with the attempt");
        assert_eq!(draw(1), draw(1), "same seed, same backoff");
    }

    #[test]
    fn excursions_blow_the_default_timeout() {
        let policy = RetryPolicy::default();
        let latency = LatencyModel::default();
        let mut rng = SeedDomain::new(4).child("t").rng(0);
        let clean = latency.attempt_us(32, false, &mut rng);
        let slow = latency.attempt_us(32, true, &mut rng);
        assert!(
            clean <= policy.attempt_timeout_us,
            "clean read fits: {clean}"
        );
        assert!(
            slow > policy.attempt_timeout_us,
            "excursion times out: {slow}"
        );
    }
}
