//! The chip's frequency-kernel cache: each ring's last two derived
//! frequencies, so repeated reads between wear events cost a key compare
//! instead of a full alpha-power rederivation.
//!
//! A Monte Carlo sweep reads the same ring thousands of times between
//! wear events (enrollment reads, majority votes, flip-rate scans), and
//! the lifecycle sweeps interleave faulted measurement excursions with
//! nominal maintenance reads. Two slots per ring, most recently used
//! first, keep both derivations of such an alternating pattern warm.
//!
//! # The key
//!
//! A ring's frequency is a pure function of *(technology, environment,
//! die process, ring silicon, wear state)*. [`Chip`](crate::Chip) owns
//! the die process and the ring array and is the only holder of a
//! [`KernelCache`]; neither the process nor a ring's fabricated silicon
//! (layout bias, correlated offset) changes after fabrication, so a slot
//! keys only what can vary:
//!
//! * the **environment**, by full value;
//! * the ring's **wear epoch**, bumped by every stress application — an
//!   interval that moves the chip's BTI stress classes bumps every ring's
//!   epoch. The two operations that rewind an epoch — a wear restore and a
//!   return to fabricated state — drop the ring's slots;
//! * a **technology index** into the `TechParams` values this chip has
//!   been read under. Each read compares the technology by full value
//!   once ([`KernelCache::read`]) instead of on every ring query.
//!
//! No key uses pointer identity or a content hash (docs/PERFORMANCE.md,
//! "Rejected optimizations").
//!
//! # Telemetry
//!
//! Every real derivation books one `circuit.kernel_rebuilds` and, for
//! rings the deterministic 1-in-16 gate samples
//! ([`RingOscillator::obs_sampled`]), one `circuit.ring_freq_ghz` point.
//! A slot preloaded from an aged-state snapshot ([`KernelCache::preload`])
//! is a *phantom*: it books the skipped rebuild on its first hit, so a
//! preloaded chip's counters equal a cold one's under every read
//! sequence. Sampled and faulted rings refuse preloads, so the sketch
//! stream never misses a point.

use std::cell::{RefCell, RefMut};

use aro_circuit::kernel::FreqContext;
use aro_circuit::ring::{RingOscillator, RoHealth, RoStyle};
use aro_device::environment::Environment;
use aro_device::params::TechParams;
use aro_device::process::ChipProcess;

/// One cached derivation: its key and the frequency it produced.
#[derive(Debug, Clone, Copy)]
struct Slot {
    env: Environment,
    wear_epoch: u64,
    freq_hz: f64,
    /// Index into [`Tables::techs`].
    tech: u32,
    /// Installed by a preload whose rebuild was skipped, not performed;
    /// the first hit books it and clears the flag.
    phantom: bool,
}

/// A ring's two slots, most recently used first.
type RingSlots = [Option<Slot>; 2];

/// Installs `slot` in front, shifting the MRU slot down — into the empty
/// slot, or over the least recently used one.
fn install(slots: &mut RingSlots, slot: Slot) {
    slots[1] = slots[0].replace(slot);
}

#[derive(Debug, Default)]
struct Tables {
    /// Every technology this chip has been read under since its cache
    /// was last cleared.
    techs: Vec<TechParams>,
    /// Per-ring slots; empty until the first read, so a chip that is
    /// never read allocates none.
    rings: Vec<RingSlots>,
}

impl Tables {
    /// Ring `index`'s slots, allocating every ring's on first use.
    fn slots(&mut self, n_rings: usize, index: usize) -> &mut RingSlots {
        if self.rings.is_empty() {
            self.rings.resize(n_rings, [None; 2]);
        }
        &mut self.rings[index]
    }
}

/// Per-ring frequency cache of one chip (see the module docs).
#[derive(Debug)]
pub(crate) struct KernelCache {
    n_rings: usize,
    tables: RefCell<Tables>,
}

/// One read resolved against a [`KernelCache`]: the shared derivation
/// context and the technology's index.
pub(crate) struct KernelRead<'a> {
    ctx: FreqContext<'a>,
    tech: u32,
}

/// The lookups of one read through one borrow of the cache's tables
/// ([`KernelCache::lookup`]).
pub(crate) struct Lookup<'c, 'a> {
    n_rings: usize,
    tables: RefMut<'c, Tables>,
    read: &'c KernelRead<'a>,
}

impl KernelCache {
    /// An empty cache for an array of `n_rings` rings.
    pub(crate) fn new(n_rings: usize) -> Self {
        Self {
            n_rings,
            tables: RefCell::new(Tables::default()),
        }
    }

    /// The index of `tech` in this chip's technology table, adding it on
    /// first sight. One full-value compare per table entry.
    fn tech_index(&self, tech: &TechParams) -> u32 {
        let mut tables = self.tables.borrow_mut();
        let index = match tables.techs.iter().position(|t| t == tech) {
            Some(index) => index,
            None => {
                tables.techs.push(tech.clone());
                tables.techs.len() - 1
            }
        };
        u32::try_from(index).expect("technology table overflow")
    }

    /// Resolves one read of rings of `style` under `(tech, env)` on die
    /// `chip` with BTI stress classes `bti` — the die the holder owns.
    pub(crate) fn read<'a>(
        &self,
        style: RoStyle,
        tech: &'a TechParams,
        env: &Environment,
        chip: &ChipProcess,
        bti: &[f64; 4],
    ) -> KernelRead<'a> {
        KernelRead {
            tech: self.tech_index(tech),
            ctx: FreqContext::new(style, tech, env, chip, bti),
        }
    }

    /// Opens the lookups of one read: the tables stay borrowed until the
    /// returned [`Lookup`] drops.
    pub(crate) fn lookup<'c, 'a>(&'c self, read: &'c KernelRead<'a>) -> Lookup<'c, 'a> {
        Lookup {
            n_rings: self.n_rings,
            tables: self.tables.borrow_mut(),
            read,
        }
    }

    /// The frequency of ring `index` of the holder's array under `read`:
    /// one [`Lookup::frequency`].
    pub(crate) fn frequency(&self, read: &KernelRead, index: usize, ring: &RingOscillator) -> f64 {
        self.lookup(read).frequency(index, ring)
    }

    /// Ring `index`'s most recent slot that describes its present wear —
    /// `(tech index, environment, frequency)` — for the aged-state
    /// snapshot harvest. `None` for faulted rings.
    pub(crate) fn current(
        &self,
        index: usize,
        ring: &RingOscillator,
    ) -> Option<(u32, Environment, f64)> {
        if !ring.health().is_healthy() {
            return None;
        }
        let tables = self.tables.borrow();
        tables
            .rings
            .get(index)?
            .iter()
            .flatten()
            .find(|slot| slot.wear_epoch == ring.wear_epoch())
            .map(|slot| (slot.tech, slot.env, slot.freq_hz))
    }

    /// The technology behind a tech index [`KernelCache::current`]
    /// returned.
    pub(crate) fn tech(&self, index: u32) -> TechParams {
        self.tables.borrow().techs[index as usize].clone()
    }

    /// Installs each ring's harvested frequency (`hints[i]` for ring `i`
    /// of `ros`) for its *current* wear under `(tech, env)`, as a phantom
    /// MRU slot. Skips faulted rings and rings the observability gate
    /// samples: a sampled ring must derive live so its sketch point is
    /// emitted as on the cold path.
    ///
    /// The caller asserts each hint was derived for identical silicon at
    /// the ring's exact wear state. Preloads follow a wear restore, which
    /// empties the ring's slots.
    pub(crate) fn preload(
        &self,
        tech: &TechParams,
        env: &Environment,
        hints: &[Option<f64>],
        ros: &[RingOscillator],
    ) {
        let tech = self.tech_index(tech);
        let mut tables = self.tables.borrow_mut();
        for (index, (ring, hint)) in ros.iter().zip(hints).enumerate() {
            let Some(freq_hz) = *hint else {
                continue;
            };
            if !ring.health().is_healthy() || ring.obs_sampled() {
                continue;
            }
            let slot = Slot {
                env: *env,
                wear_epoch: ring.wear_epoch(),
                freq_hz,
                tech,
                phantom: true,
            };
            install(tables.slots(self.n_rings, index), slot);
        }
    }

    /// Drops ring `index`'s slots (its wear epoch is about to rewind).
    pub(crate) fn forget(&self, index: usize) {
        if let Some(slots) = self.tables.borrow_mut().rings.get_mut(index) {
            *slots = [None; 2];
        }
    }

    /// Drops every slot and the technology table, keeping the slot
    /// allocation for the next read.
    pub(crate) fn clear(&self) {
        let mut tables = self.tables.borrow_mut();
        tables.rings.clear();
        tables.techs.clear();
    }
}

impl Lookup<'_, '_> {
    /// The frequency of ring `index` of the holder's array under the
    /// read: a slot hit, or a derivation that becomes the ring's MRU slot.
    /// Faulted rings short-circuit before the cache.
    pub(crate) fn frequency(&mut self, index: usize, ring: &RingOscillator) -> f64 {
        match ring.health() {
            RoHealth::Healthy => {}
            RoHealth::Dead => return 0.0,
            RoHealth::Stuck(freq_hz) => return freq_hz,
        }
        let slots = self.tables.slots(self.n_rings, index);
        let (env, wear_epoch) = (*self.read.ctx.env(), ring.wear_epoch());
        for pos in 0..2 {
            let Some(slot) = &mut slots[pos] else {
                continue;
            };
            if slot.wear_epoch == wear_epoch && slot.tech == self.read.tech && slot.env == env {
                if std::mem::take(&mut slot.phantom) {
                    // Preloaded slot, first use: book the rebuild the
                    // preload skipped, where the cold path performs it.
                    aro_obs::counter("circuit.kernel_rebuilds", 1);
                }
                let freq_hz = slot.freq_hz;
                slots.swap(0, pos);
                return freq_hz;
            }
        }
        let freq_hz = self.read.ctx.derive(ring);
        aro_obs::counter("circuit.kernel_rebuilds", 1);
        install(
            slots,
            Slot {
                env,
                wear_epoch,
                freq_hz,
                tech: self.read.tech,
                phantom: false,
            },
        );
        // Sketch points come from derivations only (distinct physical
        // states, unweighted by cache re-reads), thinned through the
        // deterministic 1-in-16 gate.
        if ring.obs_sampled() {
            aro_obs::sketch("circuit.ring_freq_ghz", freq_hz * 1e-9);
        }
        freq_hz
    }
}

impl Clone for KernelCache {
    /// A clone starts cold: rebuilding its kernels is cheaper than copying
    /// them on every population clone.
    fn clone(&self) -> Self {
        Self::new(self.n_rings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chip, PufDesign};
    use aro_device::units::YEAR;
    use std::mem::size_of;

    fn design() -> PufDesign {
        PufDesign::builder(RoStyle::Conventional)
            .n_ros(8)
            .seed(43)
            .build()
    }

    /// Occupied slots of ring `index`, MRU first, as (env, epoch).
    fn slots(chip: &Chip, index: usize) -> Vec<(Environment, u64)> {
        chip.kernels
            .tables
            .borrow()
            .rings
            .get(index)
            .map_or(Vec::new(), |s| {
                s.iter().flatten().map(|s| (s.env, s.wear_epoch)).collect()
            })
    }

    #[test]
    fn slot_state_stays_small() {
        // The per-ring footprint every read chip pays: two slots of at
        // most 64 bytes each (environment, epoch, frequency, tech index,
        // phantom flag).
        assert!(
            size_of::<Option<Slot>>() <= 64,
            "{}",
            size_of::<Option<Slot>>()
        );
        assert!(size_of::<RingSlots>() <= 128, "{}", size_of::<RingSlots>());
    }

    #[test]
    fn a_chip_that_is_never_read_allocates_no_slots() {
        let design = design();
        let chip = Chip::fabricate(&design, 0);
        assert!(chip.kernels.tables.borrow().rings.is_empty());
        let _ = chip.frequency(&design, &Environment::nominal(design.tech()), 3);
        assert_eq!(chip.kernels.tables.borrow().rings.len(), 8);
        assert_eq!(slots(&chip, 3).len(), 1);
        assert!(
            slots(&chip, 2).is_empty(),
            "only the read ring fills a slot"
        );
    }

    #[test]
    fn wear_epochs_and_drop_points_invalidate() {
        let design = design();
        let env = Environment::nominal(design.tech());
        let models = aro_circuit::ring::AgingModels::new(design.tech());
        let mut chip = Chip::fabricate(&design, 3);
        let fresh = chip.frequency(&design, &env, 0);
        chip.stress_idle(&design, &models, 85.0, design.tech().vdd_nominal, YEAR);
        let aged = chip.frequency(&design, &env, 0);
        assert!(aged < fresh, "a stale slot must not survive an aging step");
        assert_eq!(slots(&chip, 0), vec![(env, 1), (env, 0)]);

        let hci: Vec<f64> = chip.ros().iter().map(|ro| ro.hci_eq_cycles()).collect();
        let restore: Vec<bool> = (0..8).map(|ring| ring == 0).collect();
        chip.restore_wear(*chip.bti_classes(), &hci, 1, &restore);
        assert!(
            slots(&chip, 0).is_empty(),
            "a wear restore drops the ring's slots"
        );

        let _ = chip.frequency(&design, &env, 1);
        assert!(
            chip.clone().kernels.tables.borrow().rings.is_empty(),
            "a clone starts cold"
        );
        chip.reset_to_fabricated();
        assert!(slots(&chip, 1).is_empty(), "reset drops every slot");
        assert!(chip.kernels.tables.borrow().techs.is_empty());
        assert_eq!(chip.frequency(&design, &env, 0).to_bits(), fresh.to_bits());
    }
}
