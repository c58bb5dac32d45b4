//! One fabricated chip: a process realization plus its RO array.

use aro_circuit::readout::{Measurement, ReadoutConfig, ResolvedRing};
use aro_circuit::ring::{ActiveStressBatch, AgingModels, IdleStressBatch, RingOscillator};
use aro_device::environment::Environment;
use aro_device::process::{ChipProcess, DiePosition};
use aro_device::rng::SeedDomain;
use aro_metrics::bits::BitString;

use crate::design::PufDesign;
use crate::kernels::{KernelCache, KernelRead};

/// Rings per resolve pass of a noisy read: a serve challenge's 64 pairs
/// resolve in one.
const RESOLVE_CHUNK: usize = 128;

/// One fabricated chip of a [`PufDesign`].
///
/// All randomness is deterministic: the chip's mismatch comes from the
/// design seed domain at `("chip", id)`, and every measurement draws fresh
/// noise from a per-chip nonce stream, so re-running an experiment
/// reproduces it bit for bit while repeated measurements still see fresh
/// noise.
///
/// Every noisy read runs in two passes, per chunk of up to 128 rings (a
/// 64-pair challenge is one chunk). The *resolve pass* looks up the true
/// frequency of each ring the read touches, in measurement order, through
/// one borrow of the kernel cache, and resolves its readout noise. The
/// *draw pass* then takes each measurement from the noise stream at the
/// next nonce: one nonce per measurement, a dead ring's zero count
/// included. Reads that return only bits ([`Chip::response`],
/// [`Chip::response_voted`]) skip the draws of a pair whose bit noise
/// cannot flip (`ReadoutConfig::decided_bit`), advancing the nonce by
/// its measurements; reads that return counts ([`Chip::response_soft`],
/// [`Chip::measure_all`]) draw every measurement. Each measurement seeds
/// its own RNG from its nonce, so a skip moves no later bit.
///
/// The chip holds its rings' BTI wear: one raw accumulator per stress class
/// (`aro_circuit::ring` module docs), since every ring of the chip lives
/// through the same stress intervals. Each ring holds its own HCI wear.
///
/// The chip caches its rings' derived frequencies (see
/// `crate::kernels`): every read resolves its technology and environment
/// once and hits or fills each ring's slots. The cache is interior state —
/// a clone starts cold, and two chips compare equal iff their silicon,
/// wear and noise streams match.
#[derive(Debug, Clone)]
pub struct Chip {
    id: u64,
    process: ChipProcess,
    ros: Vec<RingOscillator>,
    /// Raw BTI shift of each stress class in volts.
    bti: [f64; 4],
    /// Read by the snapshot layer's kernel-hint harvest and preload.
    pub(crate) kernels: KernelCache,
    noise_domain: SeedDomain,
    measure_nonce: u64,
    age_s: f64,
}

impl PartialEq for Chip {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.process == other.process
            && self.ros == other.ros
            && self.bti == other.bti
            && self.noise_domain == other.noise_domain
            && self.measure_nonce == other.measure_nonce
            && self.age_s == other.age_s
    }
}

impl Chip {
    /// Fabricates chip `id` of a design: samples the die's process
    /// realization and every transistor's mismatch, and stamps the
    /// design's layout bias onto each array slot.
    #[must_use]
    pub fn fabricate(design: &PufDesign, id: u64) -> Self {
        let chip_domain = design.seed_domain().child("chip");
        let mut rng = chip_domain.rng(id);
        let process = ChipProcess::sample(design.tech(), &mut rng);
        let correlated: Option<Vec<f64>> = design
            .correlated_field()
            .map(|field| field.sample(&mut rng));
        let positions = DiePosition::grid(design.n_ros());
        let ros = positions
            .into_iter()
            .enumerate()
            .map(|(slot, pos)| {
                let mut ro = RingOscillator::new(
                    design.style(),
                    design.n_stages(),
                    pos,
                    design.tech(),
                    &mut rng,
                );
                ro.set_freq_bias_rel(design.position_bias().offset_rel(slot));
                if let Some(field) = &correlated {
                    ro.set_correlated_dvth(field[slot]);
                }
                ro
            })
            .collect::<Vec<_>>();
        Self {
            id,
            process,
            kernels: KernelCache::new(ros.len()),
            ros,
            bti: [0.0; 4],
            noise_domain: chip_domain.child("noise"),
            measure_nonce: id << 32,
            age_s: 0.0,
        }
    }

    /// The chip id within its design.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Total simulated deployment time of this chip, in seconds.
    #[must_use]
    pub fn age_s(&self) -> f64 {
        self.age_s
    }

    /// The die's shared process realization.
    #[must_use]
    pub fn process(&self) -> &ChipProcess {
        &self.process
    }

    /// The ring array.
    #[must_use]
    pub fn ros(&self) -> &[RingOscillator] {
        &self.ros
    }

    /// The raw BTI shift in volts of each stress class of the rings: the
    /// chip's share of a ring's wear, as [`RingOscillator::frequency`]
    /// reads it.
    #[must_use]
    pub fn bti_classes(&self) -> &[f64; 4] {
        &self.bti
    }

    pub(crate) fn add_age(&mut self, seconds: f64) {
        self.age_s += seconds;
    }

    /// Rewinds this chip to the bitwise state `Chip::fabricate` produced:
    /// fresh silicon, healthy rings, measurement nonce back at the start
    /// of the chip's noise stream. Lets lifecycle sweeps reuse one
    /// fabricated workspace across trials instead of re-sampling the
    /// whole array (fabrication draws process variation once; it is not
    /// consumed by aging or measurement).
    pub fn reset_to_fabricated(&mut self) {
        for ro in &mut self.ros {
            ro.reset_to_fabricated();
        }
        self.bti = [0.0; 4];
        self.kernels.clear();
        self.measure_nonce = self.id << 32;
        self.age_s = 0.0;
    }

    /// Sets the hard-fault state of ring `index` — the fault-injection
    /// entry point for stuck-at and dead-ring faults (see
    /// [`aro_circuit::ring::RoHealth`]). Restoring
    /// [`RoHealth::Healthy`](aro_circuit::ring::RoHealth::Healthy) reverts
    /// to the physical model.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn set_ro_health(&mut self, index: usize, health: aro_circuit::ring::RoHealth) {
        self.ros[index].set_health(health);
    }

    /// Number of rings whose hard-fault state is not `Healthy`.
    #[must_use]
    pub fn faulted_ro_count(&self) -> usize {
        self.ros
            .iter()
            .filter(|ro| !ro.health().is_healthy())
            .count()
    }

    /// Ring BIST: the response bits of `pairs` that compare a dead or
    /// stuck ring. The device knows these are unreliable, so its decoder
    /// treats them as erasures (`aro_ecc::soft::Erasures::response`).
    #[must_use]
    pub fn bist_erasures(&self, pairs: &[(usize, usize)]) -> Vec<usize> {
        let faulted = |ring: usize| !self.ros[ring].health().is_healthy();
        pairs
            .iter()
            .enumerate()
            .filter(|&(_, &(a, b))| faulted(a) || faulted(b))
            .map(|(bit, _)| bit)
            .collect()
    }

    /// Resolves one read of this chip under `(design.tech(), env)` and its
    /// present stress classes.
    pub(crate) fn kernel_read<'d>(
        &self,
        design: &'d PufDesign,
        env: &Environment,
    ) -> KernelRead<'d> {
        self.kernels
            .read(design.style(), design.tech(), env, &self.process, &self.bti)
    }

    /// The *true* (noiseless) frequency of ring `index` under `env`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn frequency(&self, design: &PufDesign, env: &Environment, index: usize) -> f64 {
        let read = self.kernel_read(design, env);
        self.kernels.frequency(&read, index, &self.ros[index])
    }

    /// The true frequencies of every ring under `env`.
    #[must_use]
    pub fn frequencies(&self, design: &PufDesign, env: &Environment) -> Vec<f64> {
        let mut buf = Vec::new();
        self.frequencies_into(design, env, &mut buf);
        buf
    }

    /// Writes the true frequencies of every ring under `env` into `buf`,
    /// reusing its allocation — the per-checkpoint variant of
    /// [`Chip::frequencies`] for tight timeline loops.
    pub fn frequencies_into(&self, design: &PufDesign, env: &Environment, buf: &mut Vec<f64>) {
        let read = self.kernel_read(design, env);
        let mut lookup = self.kernels.lookup(&read);
        buf.clear();
        buf.extend(
            self.ros
                .iter()
                .enumerate()
                .map(|(i, ro)| lookup.frequency(i, ro)),
        );
    }

    /// A noisy read in two passes per chunk of up to [`RESOLVE_CHUNK`]
    /// rings. The resolve pass looks up each ring of `rings`, in order,
    /// through one borrow of the kernel cache and resolves its readout
    /// noise; it draws nothing. The draw pass then hands each group of
    /// `group` resolved rings to `draw`, in order, with the chip's noise
    /// stream. Lookups touch only the kernel slots and draws only the
    /// nonce, so neither the passes nor the chunking move a bit; the chunk
    /// bounds what a whole-array read holds. The read books its noise
    /// draws once, as `circuit.noise_draws`.
    fn read<T, C: FromIterator<T>>(
        &mut self,
        design: &PufDesign,
        env: &Environment,
        mut rings: impl Iterator<Item = usize>,
        group: usize,
        mut draw: impl FnMut(&mut NoiseStream, &[ResolvedRing]) -> T,
    ) -> C {
        let read = self.kernel_read(design, env);
        let mut noise = NoiseStream {
            domain: &self.noise_domain,
            nonce: &mut self.measure_nonce,
            draws: 0,
        };
        let mut resolved = Vec::with_capacity(RESOLVE_CHUNK);
        let mut out = Vec::with_capacity(rings.size_hint().0 / group);
        loop {
            let mut lookup = self.kernels.lookup(&read);
            resolved.extend(
                rings
                    .by_ref()
                    .take(RESOLVE_CHUNK)
                    .map(|i| design.readout().resolve(lookup.frequency(i, &self.ros[i]))),
            );
            drop(lookup);
            if resolved.is_empty() {
                aro_obs::counter("circuit.noise_draws", noise.draws);
                return out.into_iter().collect();
            }
            out.extend(
                resolved
                    .chunks_exact(group)
                    .map(|rings| draw(&mut noise, rings)),
            );
            resolved.clear();
        }
    }

    /// A noisy read of `pairs`, both rings of a pair resolved `i` before
    /// `j`: `per_pair` draws each pair's measurements, in pair order.
    fn read_pairs<T, C: FromIterator<T>>(
        &mut self,
        design: &PufDesign,
        env: &Environment,
        pairs: &[(usize, usize)],
        mut per_pair: impl FnMut(&mut NoiseStream, &ResolvedRing, &ResolvedRing) -> T,
    ) -> C {
        let rings = pairs.iter().flat_map(|&(i, j)| [i, j]);
        self.read(design, env, rings, 2, |noise, pair| {
            per_pair(noise, &pair[0], &pair[1])
        })
    }

    /// Measures every ring once, in index order — one enrollment read of
    /// the whole array.
    pub fn measure_all(&mut self, design: &PufDesign, env: &Environment) -> Vec<Measurement> {
        self.read(design, env, 0..self.ros.len(), 1, |noise, ring| {
            noise.draw(design.readout(), &ring[0])
        })
    }

    /// Generates the response for a list of pairs with real measurement
    /// noise. A pair whose bit noise cannot flip
    /// ([`ReadoutConfig::decided_bit`]) takes its two nonces without
    /// drawing.
    pub fn response(
        &mut self,
        design: &PufDesign,
        env: &Environment,
        pairs: &[(usize, usize)],
    ) -> BitString {
        let readout = design.readout();
        self.read_pairs(design, env, pairs, |noise, i, j| {
            noise.decided(readout, i, j, 1).unwrap_or_else(|| {
                let (a, b) = noise.draw_pair(readout, i, j);
                a.bit_against(&b)
            })
        })
    }

    /// Generates the response with **soft information**: each bit comes
    /// with the magnitude of its pair's count difference — the
    /// reliability score a soft-decision decoder
    /// (`aro_ecc::soft`) consumes. A hard response is just the `bool`
    /// halves of this. The counts are the output, so every measurement
    /// draws, decided pairs included.
    pub fn response_soft(
        &mut self,
        design: &PufDesign,
        env: &Environment,
        pairs: &[(usize, usize)],
    ) -> Vec<(bool, f64)> {
        self.read_pairs(design, env, pairs, |noise, i, j| {
            let (a, b) = noise.draw_pair(design.readout(), i, j);
            let confidence = a.count().abs_diff(b.count()) as f64;
            (a.bit_against(&b), confidence)
        })
    }

    /// Generates the response with **temporal majority voting**: each
    /// pair is measured `votes` times and the majority bit wins. TMV is
    /// the standard architectural defence against *measurement noise*; it
    /// cannot repair *aging* flips, whose sign error is persistent — the
    /// EXP-9 ablation quantifies exactly that. A pair whose bit noise
    /// cannot flip takes its `2 × votes` nonces without drawing.
    ///
    /// # Panics
    /// Panics if `votes` is even or zero.
    pub fn response_voted(
        &mut self,
        design: &PufDesign,
        env: &Environment,
        pairs: &[(usize, usize)],
        votes: usize,
    ) -> BitString {
        assert!(votes >= 1 && votes % 2 == 1, "votes must be odd");
        // True frequencies and noise sigmas are vote-invariant (noise
        // enters at the draw), so the resolve pass serves every vote.
        let readout = design.readout();
        let majority = votes / 2 + 1;
        self.read_pairs(design, env, pairs, |noise, i, j| {
            if let Some(bit) = noise.decided(readout, i, j, votes) {
                return bit;
            }
            // Early-majority cut: once either side holds a strict
            // majority of the vote budget, the remaining measurements
            // cannot change the bit. Each skipped measurement's noise
            // came from its own discarded per-measurement RNG, so
            // advancing the nonce stream by the skipped count leaves
            // every later draw — and thus every response bit — exactly
            // where the full loop would have put it.
            let mut ones = 0usize;
            for vote in 0..votes {
                let (a, b) = noise.draw_pair(readout, i, j);
                if a.bit_against(&b) {
                    ones += 1;
                }
                let zeros = vote + 1 - ones;
                if ones >= majority || zeros >= majority {
                    noise.skip(2 * (votes - vote - 1));
                    break;
                }
            }
            ones >= majority
        })
    }

    /// The *golden* (noiseless) response: the comparison of true
    /// frequencies. This is what a factory would converge to by majority
    /// voting many enrollment reads.
    #[must_use]
    pub fn golden_response(
        &self,
        design: &PufDesign,
        env: &Environment,
        pairs: &[(usize, usize)],
    ) -> BitString {
        let freqs = self.frequencies(design, env);
        pairs.iter().map(|&(a, b)| freqs[a] > freqs[b]).collect()
    }

    /// Applies idle-state stress to every ring for `duration_s` seconds at
    /// the given die conditions (the style decides what "idle" means).
    pub fn stress_idle(
        &mut self,
        design: &PufDesign,
        models: &AgingModels,
        temp_celsius: f64,
        vdd: f64,
        duration_s: f64,
    ) {
        let batch = IdleStressBatch::new(
            design.style(),
            design.tech(),
            models,
            temp_celsius,
            vdd,
            duration_s,
        );
        self.idle_phase(design, &batch, |_, age| age());
    }

    /// Applies oscillation (measurement) stress to every ring for
    /// `duration_s` seconds of accumulated gate time per ring.
    pub fn stress_active(
        &mut self,
        design: &PufDesign,
        models: &AgingModels,
        env: &Environment,
        duration_s: f64,
    ) {
        let batch = ActiveStressBatch::new(design.style(), models, env, duration_s);
        self.active_phase(design, env, &batch, |_, age| age());
    }

    /// One idle interval: the stress classes advance once for the whole
    /// chip, then `visit(index, age)` runs for each ring in array order,
    /// where `age` is the ring's own share of the interval
    /// ([`RingOscillator::stress_idle`]). The cold path calls `age`; the
    /// snapshot layer records around it or replays a recorded share.
    pub(crate) fn idle_phase(
        &mut self,
        design: &PufDesign,
        batch: &IdleStressBatch,
        mut visit: impl FnMut(usize, &mut dyn FnMut()),
    ) {
        let applies = batch.advance(&mut self.bti, design.n_stages());
        for (index, ro) in self.ros.iter_mut().enumerate() {
            visit(index, &mut || ro.stress_idle(batch, &self.bti, applies));
        }
    }

    /// One oscillation interval under `env`, visited like
    /// [`Chip::idle_phase`]. The read is resolved before the classes
    /// advance, so every ring's HCI cycle count comes from its frequency
    /// under the pre-interval classes, read through the kernel cache.
    pub(crate) fn active_phase(
        &mut self,
        design: &PufDesign,
        env: &Environment,
        batch: &ActiveStressBatch,
        mut visit: impl FnMut(usize, &mut dyn FnMut()),
    ) {
        let read = self.kernel_read(design, env);
        let applies = batch.advance(&mut self.bti, design.n_stages());
        let kernels = &self.kernels;
        for (index, ro) in self.ros.iter_mut().enumerate() {
            visit(index, &mut || {
                ro.stress_active(batch, &self.bti, applies, |ro| {
                    kernels.frequency(&read, index, ro)
                });
            });
        }
    }

    /// Restores the wear of a recorded step: the stress classes `bti`,
    /// and for every ring `restore` selects its HCI cycles from `hci` and
    /// the wear epoch, dropping its cached frequencies (the epoch may
    /// rewind).
    pub(crate) fn restore_wear(
        &mut self,
        bti: [f64; 4],
        hci: &[f64],
        wear_epoch: u64,
        restore: &[bool],
    ) {
        self.bti = bti;
        for (index, ro) in self.ros.iter_mut().enumerate() {
            if restore[index] {
                ro.restore_wear(hci[index], wear_epoch);
                self.kernels.forget(index);
            }
        }
    }
}

/// The draw pass's view of a chip: its noise stream at the next nonce,
/// one nonce per measurement, and the measurements that drew.
struct NoiseStream<'c> {
    domain: &'c SeedDomain,
    nonce: &'c mut u64,
    /// Measurements that took a draw: not a dead ring's, a decided
    /// pair's or a skipped vote's.
    draws: u64,
}

impl NoiseStream<'_> {
    /// A gated count of `ring` from the noise stream at the next nonce.
    fn draw(&mut self, readout: &ReadoutConfig, ring: &ResolvedRing) -> Measurement {
        let mut rng = self.domain.rng(*self.nonce);
        *self.nonce += 1;
        self.draws += u64::from(!ring.is_dead());
        readout.draw(ring, &mut rng)
    }

    /// One measurement of each ring of a pair, `i` first.
    fn draw_pair(
        &mut self,
        readout: &ReadoutConfig,
        i: &ResolvedRing,
        j: &ResolvedRing,
    ) -> (Measurement, Measurement) {
        (self.draw(readout, i), self.draw(readout, j))
    }

    /// Advances past `measurements` nonces without drawing. Every
    /// measurement seeds its own RNG from its nonce, so a skipped
    /// measurement leaves every later draw where it was.
    fn skip(&mut self, measurements: usize) {
        *self.nonce += measurements as u64;
    }

    /// The bit of the pair `(i, j)` when noise cannot flip it
    /// ([`ReadoutConfig::decided_bit`]): then its `votes` measurements of
    /// each ring are skipped.
    fn decided(
        &mut self,
        readout: &ReadoutConfig,
        i: &ResolvedRing,
        j: &ResolvedRing,
        votes: usize,
    ) -> Option<bool> {
        let bit = readout.decided_bit(i, j)?;
        self.skip(2 * votes);
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_circuit::ring::RoStyle;
    use aro_device::aging::{BtiModel, StressInterval};
    use aro_device::params::TechParams;
    use aro_device::units::YEAR;

    fn small_design(style: RoStyle) -> PufDesign {
        PufDesign::builder(style).n_ros(16).seed(1234).build()
    }

    #[test]
    fn fabrication_is_deterministic_per_id() {
        let design = small_design(RoStyle::Conventional);
        let a = Chip::fabricate(&design, 3);
        let b = Chip::fabricate(&design, 3);
        assert_eq!(a, b);
        let c = Chip::fabricate(&design, 4);
        assert_ne!(a.process(), c.process());
    }

    #[test]
    fn chips_have_distinct_frequency_signatures() {
        let design = small_design(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let a = Chip::fabricate(&design, 0).frequencies(&design, &env);
        let b = Chip::fabricate(&design, 1).frequencies(&design, &env);
        assert_eq!(a.len(), 16);
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert_eq!(same, 0, "no two chips share a ring frequency");
    }

    #[test]
    fn frequency_spread_within_chip_is_percent_level() {
        let design = small_design(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let freqs = Chip::fabricate(&design, 7).frequencies(&design, &env);
        let mean = freqs.iter().sum::<f64>() / freqs.len() as f64;
        let sd = (freqs.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / (freqs.len() - 1) as f64)
            .sqrt();
        let rel = sd / mean;
        assert!(rel > 0.003 && rel < 0.05, "relative sigma {rel}");
    }

    #[test]
    fn golden_response_is_reproducible_and_noisy_response_is_close() {
        let design = small_design(RoStyle::AgingResistant);
        let env = Environment::nominal(design.tech());
        let mut chip = Chip::fabricate(&design, 2);
        let pairs: Vec<(usize, usize)> = (0..8).map(|i| (2 * i, 2 * i + 1)).collect();
        let golden = chip.golden_response(&design, &env, &pairs);
        assert_eq!(golden, chip.golden_response(&design, &env, &pairs));
        let noisy = chip.response(&design, &env, &pairs);
        let hd = golden.hamming_distance(&noisy);
        assert!(
            hd <= 2,
            "noise should flip at most a couple of 8 bits, flipped {hd}"
        );
    }

    #[test]
    fn repeated_measurements_draw_fresh_noise() {
        let design = small_design(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let mut chip = Chip::fabricate(&design, 2);
        let a = chip.measure_all(&design, &env)[0];
        let b = chip.measure_all(&design, &env)[0];
        // Same true frequency, but counts may differ; at minimum the noise
        // stream must advance (no frozen RNG).
        let c = chip.measure_all(&design, &env)[0];
        assert!(a != b || b != c || a.count() > 0);
    }

    #[test]
    fn idle_stress_ages_the_whole_array() {
        let design = small_design(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let models = AgingModels::new(design.tech());
        let mut chip = Chip::fabricate(&design, 5);
        let fresh = chip.frequencies(&design, &env);
        chip.stress_idle(
            &design,
            &models,
            25.0,
            design.tech().vdd_nominal,
            5.0 * YEAR,
        );
        let aged = chip.frequencies(&design, &env);
        assert!(fresh.iter().zip(&aged).all(|(f, a)| a < f));
    }

    #[test]
    fn reset_to_fabricated_restores_fresh_state() {
        let design = small_design(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let models = AgingModels::new(design.tech());
        let mut chip = Chip::fabricate(&design, 6);
        let fresh = chip.frequencies(&design, &env);
        chip.stress_idle(&design, &models, 85.0, design.tech().vdd_nominal, YEAR);
        chip.reset_to_fabricated();
        assert_eq!(chip.frequencies(&design, &env), fresh);
        assert_eq!(chip.age_s(), 0.0);
    }

    #[test]
    fn bti_classes_participate_in_equality() {
        // Idle stress leaves every ring's own state alike at any
        // temperature: only the chip's stress classes tell a cool year
        // from a hot one, so equality must compare them.
        let design = small_design(RoStyle::Conventional);
        let models = AgingModels::new(design.tech());
        let vdd = design.tech().vdd_nominal;
        let mut cool = Chip::fabricate(&design, 4);
        let mut hot = cool.clone();
        cool.stress_idle(&design, &models, 25.0, vdd, YEAR);
        hot.stress_idle(&design, &models, 85.0, vdd, YEAR);
        assert_eq!(cool.ros(), hot.ros());
        assert_ne!(cool, hot);
    }

    #[test]
    fn stress_classes_match_a_per_device_reference() {
        // Every device's BTI shift, read through the chip's stress
        // classes, against a reference that keeps one raw accumulator per
        // device of every ring and states the idle node pattern itself
        // (`aro_circuit::ring` module docs): a disabled conventional ring
        // holds stage 0 and the odd stages at input 1 (NMOS under PBTI),
        // the other even stages at input 0 (PMOS under NBTI); an ARO ring
        // stresses every device at the residual duty. It also counts the
        // stressed device-intervals that `device.bti_applies` must book,
        // and accumulates each ring's HCI cycles from its uncached
        // frequency under the pre-interval classes. One idle interval
        // runs with the models of a technology without PBTI, so only the
        // PMOS classes advance and the two polarities book different
        // counts.
        aro_obs::set_enabled(true);
        for style in [RoStyle::Conventional, RoStyle::AgingResistant] {
            for n_stages in [5, 7] {
                let design = PufDesign::builder(style)
                    .n_ros(4)
                    .n_stages(n_stages)
                    .seed(70 + n_stages as u64)
                    .build();
                let tech = design.tech();
                let models = AgingModels::new(tech);
                let no_pbti = AgingModels::new(&TechParams {
                    pbti_a: 0.0,
                    ..tech.clone()
                });
                let env = Environment::nominal(tech);
                let hot = Environment::new(85.0, tech.vdd_nominal);
                let mut chip = Chip::fabricate(&design, 1);
                // Per ring and stage: (PMOS, NMOS) raw shift.
                let mut reference = vec![vec![(0.0f64, 0.0f64); n_stages]; 4];
                let mut hci = [0.0f64; 4];
                let mut stressed: u64 = 0;
                let mut apply = |raw: &mut f64, model: &BtiModel, interval: &StressInterval| {
                    let (n, k) = (model.time_exp(), model.k_eff(interval));
                    if k <= 0.0 || interval.duration_s <= 0.0 {
                        return;
                    }
                    let t_eq = if *raw == 0.0 {
                        0.0
                    } else {
                        (*raw / k).powf(1.0 / n)
                    };
                    *raw = k * (t_eq + interval.duration_s).powf(n);
                    stressed += 1;
                };
                let applies_before = aro_obs::snapshot().counter("device.bti_applies");
                for (idle_models, temp, years, active_env, active_s) in [
                    (&models, 25.0, 1.0, env, 30.0),
                    (&models, 85.0, 2.0, hot, 10.0),
                    (&no_pbti, 45.0, 1.0, env, 0.0),
                    (&models, 25.0, 0.5, env, 5.0),
                ] {
                    chip.stress_idle(&design, idle_models, temp, tech.vdd_nominal, years * YEAR);
                    let interval = match style {
                        RoStyle::Conventional => {
                            StressInterval::static_dc(years * YEAR, temp, tech.vdd_nominal)
                        }
                        RoStyle::AgingResistant => StressInterval::duty_cycled(
                            years * YEAR,
                            temp,
                            tech.vdd_nominal,
                            tech.aro_idle_stress_fraction,
                        ),
                    };
                    for ring in &mut reference {
                        for (i, (pmos, nmos)) in ring.iter_mut().enumerate() {
                            let input_high = i == 0 || i % 2 == 1;
                            if style == RoStyle::AgingResistant || !input_high {
                                apply(pmos, &idle_models.nbti, &interval);
                            }
                            if style == RoStyle::AgingResistant || input_high {
                                apply(nmos, &idle_models.pbti, &interval);
                            }
                        }
                    }

                    if active_s > 0.0 {
                        let factor = models.hci.equivalent_cycle_factor(active_env.vdd());
                        for (ro, hci) in chip.ros().iter().zip(&mut hci) {
                            let freq =
                                ro.frequency(tech, &active_env, chip.process(), chip.bti_classes());
                            *hci += freq * active_s * factor;
                        }
                    }
                    chip.stress_active(&design, &models, &active_env, active_s);
                    let interval = StressInterval::oscillating(
                        active_s,
                        active_env.temp_celsius(),
                        active_env.vdd(),
                    );
                    for (pmos, nmos) in reference.iter_mut().flatten() {
                        apply(pmos, &models.nbti, &interval);
                        apply(nmos, &models.pbti, &interval);
                    }
                }
                let label = format!("{style:?}/{n_stages}");
                for (r, ro) in chip.ros().iter().enumerate() {
                    assert_eq!(
                        ro.hci_eq_cycles().to_bits(),
                        hci[r].to_bits(),
                        "{label}: ring {r} HCI"
                    );
                    for (i, stage) in ro.stages().iter().enumerate() {
                        let (bti_p, bti_n) = ro.stage_bti(chip.bti_classes(), i);
                        let (pmos, nmos) = reference[r][i];
                        let (p, n) = (stage.pmos().aging(), stage.nmos().aging());
                        assert_eq!(
                            p.dvth_bti(bti_p).to_bits(),
                            p.dvth_bti(pmos).to_bits(),
                            "{label}: ring {r} stage {i} PMOS"
                        );
                        assert_eq!(
                            n.dvth_bti(bti_n).to_bits(),
                            n.dvth_bti(nmos).to_bits(),
                            "{label}: ring {r} stage {i} NMOS"
                        );
                    }
                }
                assert_eq!(
                    aro_obs::snapshot().counter("device.bti_applies") - applies_before,
                    stressed,
                    "{label}: device-intervals booked"
                );
            }
        }
    }

    #[test]
    fn voted_response_is_at_least_as_clean_as_a_single_read() {
        let design = small_design(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let mut chip = Chip::fabricate(&design, 3);
        let pairs: Vec<(usize, usize)> = (0..8).map(|i| (2 * i, 2 * i + 1)).collect();
        let golden = chip.golden_response(&design, &env, &pairs);
        let single_flips: usize = (0..30)
            .map(|_| golden.hamming_distance(&chip.response(&design, &env, &pairs)))
            .sum();
        let voted_flips: usize = (0..30)
            .map(|_| golden.hamming_distance(&chip.response_voted(&design, &env, &pairs, 9)))
            .sum();
        assert!(
            voted_flips <= single_flips,
            "9-vote TMV ({voted_flips}) must not exceed single-read flips ({single_flips})"
        );
    }

    #[test]
    #[should_panic(expected = "votes must be odd")]
    fn even_votes_panics() {
        let design = small_design(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let mut chip = Chip::fabricate(&design, 0);
        let _ = chip.response_voted(&design, &env, &[(0, 1)], 2);
    }

    #[test]
    fn correlated_field_is_sampled_when_enabled() {
        let tech = aro_device::params::TechParams {
            sigma_vth_correlated: 0.01,
            ..aro_device::params::TechParams::default()
        };
        let design = PufDesign::builder(RoStyle::Conventional)
            .n_ros(16)
            .tech(tech)
            .seed(9)
            .build();
        assert!(design.correlated_field().is_some());
        let a = Chip::fabricate(&design, 0);
        let b = Chip::fabricate(&design, 1);
        assert!(a.ros().iter().any(|ro| ro.correlated_dvth() != 0.0));
        // Per-chip realizations differ.
        assert!(a
            .ros()
            .iter()
            .zip(b.ros())
            .any(|(x, y)| x.correlated_dvth() != y.correlated_dvth()));
        // Default designs carry no field.
        let plain = small_design(RoStyle::Conventional);
        assert!(plain.correlated_field().is_none());
        assert!(Chip::fabricate(&plain, 0)
            .ros()
            .iter()
            .all(|ro| ro.correlated_dvth() == 0.0));
    }

    #[test]
    fn dead_ring_loses_its_pair_bits_and_repair_restores_them() {
        use aro_circuit::ring::RoHealth;
        let design = small_design(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let mut chip = Chip::fabricate(&design, 1);
        let pairs: Vec<(usize, usize)> = (0..8).map(|i| (2 * i, 2 * i + 1)).collect();
        let golden = chip.golden_response(&design, &env, &pairs);
        assert_eq!(chip.faulted_ro_count(), 0);
        chip.set_ro_health(0, RoHealth::Dead);
        assert_eq!(chip.faulted_ro_count(), 1);
        // Pair 0 compares (dead ring 0) against ring 1: the bit is forced
        // to 0 regardless of what the silicon said.
        let faulted = chip.golden_response(&design, &env, &pairs);
        assert!(!faulted.get(0));
        assert_eq!(chip.frequency(&design, &env, 0), 0.0);
        // A measurement of the dead ring counts zero instead of panicking.
        assert_eq!(chip.measure_all(&design, &env)[0].count(), 0);
        chip.set_ro_health(0, RoHealth::Healthy);
        assert_eq!(chip.golden_response(&design, &env, &pairs), golden);
    }

    #[test]
    fn bist_erases_exactly_the_pairs_that_touch_a_faulted_ring() {
        use aro_circuit::ring::RoHealth;
        let design = small_design(RoStyle::AgingResistant);
        let mut chip = Chip::fabricate(&design, 2);
        let pairs = [(0, 1), (1, 2), (2, 3), (4, 0), (5, 6)];
        assert!(chip.bist_erasures(&pairs).is_empty());
        chip.set_ro_health(0, RoHealth::Dead);
        chip.set_ro_health(6, RoHealth::Stuck(1e9));
        assert_eq!(chip.bist_erasures(&pairs), vec![0, 3, 4]);
    }

    #[test]
    fn layout_bias_is_stamped_onto_slots() {
        let design = small_design(RoStyle::Conventional);
        let chip = Chip::fabricate(&design, 0);
        for (slot, ro) in chip.ros().iter().enumerate() {
            assert_eq!(ro.freq_bias_rel(), design.position_bias().offset_rel(slot));
        }
    }
}
