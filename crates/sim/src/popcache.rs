//! Run-scoped memo of pure, expensive results.
//!
//! The experiments fabricate the same silicon, measure the same standard
//! flip timeline, solve the same ECC provisioning problem and walk the
//! same ten-year aging prefix again and again. Each of those is a pure
//! function of its key, so one build per key suffices and later callers
//! get a copy.
//!
//! Every cached result lives in one `Memo`: `(key, value)` pairs in
//! least-recently-used order with a capacity and a hit and a miss
//! counter. A scope holds four kinds of them:
//!
//! | memo | key (cheap fields first) | capacity | counters |
//! |---|---|---|---|
//! | populations | chip count, design | [`CAPACITY`] | `sim.popcache_*` |
//! | flip timelines | style, config (fault plan included) | unbounded | `sim.popcache_timeline_*` |
//! | ECC specs | BER, key bits, failure target, area params | unbounded | `sim.provision_*` |
//! | aged-step snapshots, one partition per chip id | step prefix, design | [`SNAPSHOT_CAPACITY`] per partition | `sim.snapshot_*` |
//!
//! Golden responses are not memoized: every key bench reads them
//! directly (`crate::keybench`).
//!
//! Keys compare the **full design** (style, seed domain, technology,
//! readout, pairing bias — everything `PufDesign::eq` sees): exp6's duty
//! sweep shares a seed and style across designs that differ only in one
//! `TechParams` field, so a narrower key would alias them. A linear scan
//! over a few dozen entries is cheaper than hashing the design anyway.
//!
//! The memo is **scoped, not global**: it exists only inside a [`scoped`]
//! region (installed by `experiments::run_by_id`, the harness and the
//! `repro` binary's experiment loop) and is dropped when the outermost
//! scope exits. Every run therefore starts cold, which keeps repeated
//! runs — and the observability suite's thread-count determinism
//! comparison — byte-identical.
//!
//! The scope is thread-local. Per-chip loops reach it from `aro-par`
//! workers through [`par_map_chips`]: each item runs with a scope of its
//! own that holds only its chip's snapshot partition, and the partitions
//! come back when the loop joins. A partition only ever sees its own
//! chip's steps, in that chip's order, so its LRU order, its hits and
//! its misses are the same at any thread count. Outside a scope every
//! function here is exactly the computation it wraps.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use aro_circuit::ring::RoStyle;
use aro_ecc::area::{search_design, KeyGenSpec, PufAreaParams};
use aro_ecc::keygen::KeyGenerator;
use aro_puf::snapshot::{age_step_recorded, age_step_replayed, AgedStepSnapshot};
use aro_puf::{Chip, MissionProfile, MissionStepKey, Population, PufDesign};

use crate::config::SimConfig;
use crate::runner::{design_for, measure_flip_timeline, FlipTimeline};

/// Maximum retained populations per scope. At paper scale the working
/// set is the two main-config populations plus exp6's two half-size
/// temperature-sweep populations.
pub const CAPACITY: usize = 8;

/// Maximum retained aged-step snapshots per chip-id partition. One chip
/// id walks EXP-16's 15 distinct aging prefixes, EXP-19's for each of
/// its candidate codes, and the single ten-year step of EXP-8/15 and of
/// each serve fleet; an entry is ~20 KB of wear plus its telemetry tape
/// (empty on un-instrumented runs).
pub const SNAPSHOT_CAPACITY: usize = 256;

/// `(key, value)` pairs, least recently used first, holding at most
/// `capacity` entries; lookups and inserts bump the `hits` and `misses`
/// counters.
struct Memo<K, V> {
    entries: Vec<(K, V)>,
    capacity: usize,
    hits: &'static str,
    misses: &'static str,
}

impl<K: PartialEq, V: Clone> Memo<K, V> {
    const fn new(capacity: usize, hits: &'static str, misses: &'static str) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
            hits,
            misses,
        }
    }

    /// The value stored for `key`, marked most recently used.
    fn get(&mut self, key: &K) -> Option<V> {
        let index = self.entries.iter().position(|(k, _)| k == key)?;
        aro_obs::counter(self.hits, 1);
        let entry = self.entries.remove(index);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    /// The value stored for `key`, without touching the LRU order or the
    /// counters.
    fn peek(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Stores a freshly built value, evicting the least recently used
    /// entry at capacity.
    fn insert(&mut self, key: K, value: V) {
        aro_obs::counter(self.misses, 1);
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((key, value));
    }
}

/// Identity of one ECC provisioning problem. Exact float bit patterns:
/// provisioning is deterministic in its inputs, and two BERs that differ
/// in the last ulp are legitimately different problems.
type ProvisionKey = (u64, usize, u64, PufAreaParams);

/// One chip id's aged-step snapshots. Keyed by the **full step-prefix
/// sequence** and the design — BTI equivalent-time accumulation is not
/// additive, so two different partitions of the same calendar time are
/// different wear histories. Fault plans are deliberately *not* part of
/// the key: a snapshot records per-ring coverage, and replay ages any
/// ring the recording and replaying trials disagree on live (see
/// `aro_puf::snapshot`).
type SnapshotMemo = Memo<(Vec<MissionStepKey>, PufDesign), Arc<AgedStepSnapshot>>;

struct Scope {
    populations: Memo<(usize, PufDesign), Population>,
    /// The config carries the exact fault plan; off plans never attach,
    /// so zero-intensity runs share the fault-free entries.
    timelines: Memo<(RoStyle, SimConfig), FlipTimeline>,
    specs: Memo<ProvisionKey, Option<KeyGenSpec>>,
    /// Aged-step snapshots partitioned by chip id, the silicon identity
    /// every snapshot key starts with.
    snapshots: BTreeMap<u64, SnapshotMemo>,
}

impl Scope {
    const fn new() -> Self {
        Self {
            populations: Memo::new(CAPACITY, "sim.popcache_hits", "sim.popcache_misses"),
            timelines: Memo::new(
                usize::MAX,
                "sim.popcache_timeline_hits",
                "sim.popcache_timeline_misses",
            ),
            specs: Memo::new(usize::MAX, "sim.provision_hits", "sim.provision_misses"),
            snapshots: BTreeMap::new(),
        }
    }

    /// The snapshot partition of chip `id`, created empty on first use.
    fn snapshots_of(&mut self, id: u64) -> &mut SnapshotMemo {
        self.snapshots.entry(id).or_insert_with(|| {
            Memo::new(
                SNAPSHOT_CAPACITY,
                "sim.snapshot_hits",
                "sim.snapshot_misses",
            )
        })
    }
}

thread_local! {
    /// `None` = no scope active (plain computation, no caching).
    static CACHE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// `build()` memoized in the active scope's `select` memo: a hit is
/// counted on lookup, a miss on insert. Outside a scope this just builds.
/// The cache borrow is released while building, so a build may itself
/// use the cache.
fn memoized<K: PartialEq, V: Clone>(
    select: impl Fn(&mut Scope) -> &mut Memo<K, V>,
    key: K,
    build: impl FnOnce() -> V,
) -> V {
    let cached = CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        slot.as_mut().map(|scope| select(scope).get(&key))
    });
    match cached {
        None => build(),
        Some(Some(value)) => value,
        Some(None) => {
            let value = build();
            CACHE.with(|cache| {
                if let Some(scope) = cache.borrow_mut().as_mut() {
                    select(scope).insert(key, value.clone());
                }
            });
            value
        }
    }
}

/// Runs `f` with a cache installed. Re-entrant: nested scopes join the
/// outermost one instead of shadowing it, so a multi-experiment run keeps
/// its cross-experiment cache even though each `run_by_id` opens its own
/// scope.
pub fn scoped<R>(f: impl FnOnce() -> R) -> R {
    let installed = CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        if slot.is_none() {
            *slot = Some(Scope::new());
            true
        } else {
            false
        }
    });
    // Drop guard so a panicking experiment still clears the scope.
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            if self.0 {
                CACHE.with(|cache| *cache.borrow_mut() = None);
            }
        }
    }
    let _guard = Guard(installed);
    f()
}

/// Whether a cache scope is currently active on this thread.
#[must_use]
pub fn is_active() -> bool {
    CACHE.with(|cache| cache.borrow().is_some())
}

/// [`aro_par::par_map_mut`] for per-chip work that ages through the
/// snapshot store: `f(i, item)` runs with a scope of its own holding the
/// snapshot partition of `chip_id(item)` taken from this thread's scope,
/// and every partition goes back when the loop joins. Each item's chip
/// id must differ from the others'. The scope an item runs in is the
/// same at any thread count, so its hits, misses and LRU order are too.
///
/// The lane scope holds nothing but that partition: `f` must not use the
/// population, timeline or spec memos. When this thread's snapshot
/// store is not live (no scope, or [`snapshots_enabled`] off) the items
/// run with no scope at all, so a cold caller ages cold on every worker.
pub fn par_map_chips<T, R>(
    items: &mut [T],
    chip_id: impl Fn(&T) -> u64,
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let live = is_active() && snapshots_enabled();
    let mut lanes: Vec<(&mut T, Option<Scope>)> = items
        .iter_mut()
        .map(|item| {
            let lane = live.then(|| {
                let id = chip_id(item);
                let mut lane = Scope::new();
                let taken = CACHE.with(|cache| cache.borrow_mut().as_mut()?.snapshots.remove(&id));
                lane.snapshots
                    .extend(taken.map(|partition| (id, partition)));
                lane
            });
            (item, lane)
        })
        .collect();
    let results = aro_par::par_map_mut(&mut lanes, |i, (item, lane)| {
        // Restores the thread's own scope even if `f` panics.
        struct Installed<'a>(&'a mut Option<Scope>, Option<Scope>);
        impl Drop for Installed<'_> {
            fn drop(&mut self) {
                *self.0 = CACHE.replace(self.1.take());
            }
        }
        let previous = CACHE.replace(lane.take());
        let _installed = Installed(lane, previous);
        f(i, item)
    });
    if live {
        CACHE.with(|cache| {
            if let Some(scope) = cache.borrow_mut().as_mut() {
                for (_, lane) in lanes {
                    scope
                        .snapshots
                        .extend(lane.into_iter().flat_map(|l| l.snapshots));
                }
            }
        });
    }
    results
}

/// Fabricates (or re-uses) the population of `design` with `n_chips`
/// chips. Inside a [`scoped`] region the first request per key retains a
/// pristine baseline and every later request returns a clone of it —
/// bit-identical to refabricating: same seed-derived streams, no
/// accumulated wear. Outside any scope this is exactly
/// `Population::fabricate`.
#[must_use]
pub fn fabricate(design: &PufDesign, n_chips: usize) -> Population {
    memoized(
        |scope| &mut scope.populations,
        (n_chips, design.clone()),
        || Population::fabricate(design, n_chips),
    )
}

/// Empties the active scope without tearing it down: later requests
/// rebuild from scratch. The experiment harness calls this after catching
/// a panic — an experiment that died mid-build may have left the cache
/// holding entries whose construction it never finished observing, and a
/// cold cache is always correct (every entry is a pure function of its
/// key). No-op outside a scope.
pub fn reset() {
    CACHE.with(|cache| {
        if let Some(scope) = cache.borrow_mut().as_mut() {
            *scope = Scope::new();
            aro_obs::counter("sim.popcache_resets", 1);
        }
    });
}

/// The aging history a chip has walked since fabrication (or its last
/// [`Chip::reset_to_fabricated`]) — the snapshot store's step-prefix key.
///
/// The caller owns the bookkeeping: start a fresh cursor whenever the
/// chip starts from fresh silicon, and route **every** aging step of the
/// trial through [`age_chip_snapshotted`] with the same cursor. A cursor
/// that skips a step would key snapshots against the wrong wear state.
#[derive(Debug, Clone, Default)]
pub struct AgeCursor {
    steps: Vec<MissionStepKey>,
}

impl AgeCursor {
    /// A cursor for a chip at fresh (just-fabricated) silicon.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the cursor to fresh silicon (pair with
    /// [`Chip::reset_to_fabricated`] when reusing a workspace chip).
    pub fn clear(&mut self) {
        self.steps.clear();
    }
}

thread_local! {
    /// Per-thread snapshot switch (tests toggle it mid-process).
    static SNAPSHOTS_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether the aged-state snapshot store is live. Defaults to on; a
/// thread-local [`set_snapshots_enabled`] override disables it, turning
/// [`age_chip_snapshotted`] into a plain cold [`MissionProfile::age_chip`]
/// — the snapshot-equivalence tests byte-compare the two modes.
#[must_use]
pub fn snapshots_enabled() -> bool {
    SNAPSHOTS_ENABLED.with(Cell::get)
}

/// Sets the snapshot switch on this thread (on by default); `false`
/// forces cold aging, the reference path of the snapshot-equivalence
/// tests.
pub fn set_snapshots_enabled(on: bool) {
    SNAPSHOTS_ENABLED.with(|cell| cell.set(on));
}

/// [`MissionProfile::age_chip`] routed through the aged-state snapshot
/// store: the first trial to walk a given *(design, chip, step-prefix)*
/// records the step, every later trial replays it. Outside a [`scoped`]
/// region — or with snapshots disabled, see [`snapshots_enabled`] — this
/// is exactly `age_chip` (and the cursor still advances, so code paths
/// shared with un-scoped tests behave identically).
///
/// Byte-identity contract: responses, wear state, and telemetry match a
/// cold `age_chip` walk bit for bit, under any fault plan — see
/// [`aro_puf::snapshot`] for why replay is fault-safe.
pub fn age_chip_snapshotted(
    chip: &mut Chip,
    design: &PufDesign,
    profile: &MissionProfile,
    duration_s: f64,
    cursor: &mut AgeCursor,
) {
    let live = is_active() && snapshots_enabled();
    if live && !cursor.steps.is_empty() {
        // The reads since the previous step warmed this chip's kernels;
        // offer them to that step's snapshot so replays can preload.
        offer_kernel_hints(chip, design, &cursor.steps);
    }
    cursor.steps.push(profile.step_key(duration_s));
    if !live {
        profile.age_chip(chip, design, duration_s);
        return;
    }
    // Counters stay outside the recorded tape: the tap only runs inside
    // `age_step_recorded`, and the miss is counted after it returns.
    let mut recorded = false;
    let id = chip.id();
    let snapshot = memoized(
        |scope| scope.snapshots_of(id),
        (cursor.steps.clone(), design.clone()),
        || {
            recorded = true;
            Arc::new(age_step_recorded(chip, design, profile, duration_s))
        },
    );
    if !recorded {
        age_step_replayed(chip, design, profile, duration_s, &snapshot);
    }
}

/// Offers a chip's warm kernels to the snapshot stored for `steps`
/// (no-op when no such snapshot exists or its hints are already filled).
fn offer_kernel_hints(chip: &Chip, design: &PufDesign, steps: &[MissionStepKey]) {
    let key = (steps.to_vec(), design.clone());
    let snapshot = CACHE.with(|cache| {
        let slot = cache.borrow();
        let partition = slot.as_ref()?.snapshots.get(&chip.id())?;
        partition.peek(&key).map(Arc::clone)
    });
    if let Some(snapshot) = snapshot {
        snapshot.harvest_kernel_hints(chip);
    }
}

/// Offers the chip's warm kernels to the snapshot its cursor currently
/// stands on. The lifecycle sweeps call this after a trial's *final*
/// reads — mid-trial steps are harvested automatically by the next
/// [`age_chip_snapshotted`] call, but the last step of a trial sees no
/// further aging, so without this call its replays would rebuild kernels
/// cold. No-op outside a scope or with snapshots disabled.
pub fn harvest_kernel_hints(chip: &Chip, design: &PufDesign, cursor: &AgeCursor) {
    if is_active() && snapshots_enabled() && !cursor.steps.is_empty() {
        offer_kernel_hints(chip, design, &cursor.steps);
    }
}

/// The ten-year flip timeline of a style under a config — the
/// paper-standard measurement (typical mission, standard checkpoints) that
/// exp2, exp5, exp8, exp13 and exp14 all start from, under the config's
/// fault plan. Deterministic in *(config, style)*: every noise stream is
/// seeded from the design, so inside a [`scoped`] region the measurement
/// runs once per key and later callers get a memoized copy. Its
/// population is fabricated directly, not through [`fabricate`]: the
/// timeline is the result worth keeping.
#[must_use]
pub fn standard_flip_timeline(cfg: &SimConfig, style: RoStyle) -> FlipTimeline {
    memoized(
        |scope| &mut scope.timelines,
        (style, cfg.clone()),
        || {
            let mut population = Population::fabricate(&design_for(cfg, style), cfg.n_chips);
            let profile = MissionProfile::typical(population.design().tech());
            measure_flip_timeline(
                &mut population,
                &profile,
                &aro_puf::lifetime::standard_checkpoints(),
                cfg.injector().as_ref(),
            )
        },
    )
}

/// [`search_design`] memoized per scope. The search sweeps hundreds of
/// (repetition ⊗ BCH) points per call and is pure in its inputs, so one
/// run never needs to solve the same provisioning problem twice.
#[must_use]
pub fn provisioned_spec(
    p_bit: f64,
    key_bits: usize,
    p_fail_target: f64,
    puf: &PufAreaParams,
) -> Option<KeyGenSpec> {
    memoized(
        |scope| &mut scope.specs,
        (p_bit.to_bits(), key_bits, p_fail_target.to_bits(), *puf),
        || search_design(p_bit, key_bits, p_fail_target, puf),
    )
}

/// [`KeyGenerator::for_bit_error_rate`] with its design searches routed
/// through [`provisioned_spec`]: every key bench provisions for the same
/// measured BER (`crate::keybench::provision`), and only the first pays
/// for the search.
#[must_use]
pub fn provisioned_generator(
    p_bit: f64,
    key_bits: usize,
    p_fail_target: f64,
    puf: &PufAreaParams,
) -> Option<KeyGenerator> {
    KeyGenerator::for_bit_error_rate_via(provisioned_spec, p_bit, key_bits, p_fail_target, puf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_circuit::ring::RoStyle;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Number of retained populations in the active scope (0 without a
    /// scope).
    fn retained_baselines() -> usize {
        CACHE.with(|cache| {
            cache
                .borrow()
                .as_ref()
                .map_or(0, |s| s.populations.entries.len())
        })
    }

    /// Number of retained aged-step snapshots in the active scope (0
    /// without a scope).
    fn retained_snapshots() -> usize {
        CACHE.with(|cache| {
            cache
                .borrow()
                .as_ref()
                .map_or(0, |s| s.snapshots.values().map(|p| p.entries.len()).sum())
        })
    }

    fn design(style: RoStyle, seed: u64) -> PufDesign {
        PufDesign::builder(style).n_ros(8).seed(seed).build()
    }

    /// Turns instrumentation on (it is process-wide) for the tests that
    /// read counters, one at a time, and off again on drop. Counters
    /// themselves are per thread, so each test reads only its own.
    struct Counting {
        _lock: MutexGuard<'static, ()>,
    }
    impl Counting {
        fn start() -> Self {
            static LOCK: Mutex<()> = Mutex::new(());
            let _lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            aro_obs::set_enabled(true);
            let _ = aro_obs::take_scratch();
            Self { _lock }
        }
    }
    impl Drop for Counting {
        fn drop(&mut self) {
            aro_obs::set_enabled(false);
        }
    }

    #[test]
    fn memo_evicts_the_least_recently_used_counts_and_retains_nothing_unscoped() {
        let counting = Counting::start();
        let mut memo = Memo::new(2, "test.memo_hits", "test.memo_misses");
        memo.insert(1, 'a');
        memo.insert(2, 'b');
        assert_eq!(memo.get(&1), Some('a'));
        // 1 is the oldest insert but 2 the least recently used.
        memo.insert(3, 'c');
        assert_eq!(memo.get(&2), None, "the least recently used entry goes");
        assert_eq!(memo.get(&1), Some('a'));
        assert_eq!(memo.get(&3), Some('c'));
        let counters = aro_obs::take_scratch();
        assert_eq!(counters.counter("test.memo_hits"), 3);
        assert_eq!(counters.counter("test.memo_misses"), 3);
        drop(counting);

        let d = design(RoStyle::Conventional, 10);
        let mut builds = 0;
        let mut request = || {
            memoized(
                |scope| &mut scope.populations,
                (2, d.clone()),
                || {
                    builds += 1;
                    Population::fabricate(&d, 2)
                },
            )
        };
        let _ = request();
        let _ = request();
        scoped(|| {
            let _ = request();
            let _ = request();
            assert_eq!(retained_baselines(), 1);
        });
        assert_eq!(
            builds, 3,
            "unscoped requests build every time, scoped ones once"
        );
    }

    #[test]
    fn scoped_reuse_is_bit_identical_to_fresh_fabrication() {
        let d = design(RoStyle::Conventional, 7);
        let fresh = Population::fabricate(&d, 3);
        let (first, second) = scoped(|| (fabricate(&d, 3), fabricate(&d, 3)));
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
    }

    #[test]
    fn a_population_is_built_once_and_retained_on_its_first_request() {
        let _counting = Counting::start();
        let d = design(RoStyle::Conventional, 8);
        scoped(|| {
            for _ in 0..3 {
                let _ = fabricate(&d, 3);
                assert_eq!(retained_baselines(), 1);
            }
        });
        assert_eq!(retained_baselines(), 0);
        let counters = aro_obs::take_scratch();
        assert_eq!(counters.counter("sim.popcache_misses"), 1);
        assert_eq!(counters.counter("sim.popcache_hits"), 2);
    }

    #[test]
    fn different_seeds_and_styles_never_share() {
        scoped(|| {
            let a = fabricate(&design(RoStyle::Conventional, 1), 3);
            let b = fabricate(&design(RoStyle::Conventional, 2), 3);
            let c = fabricate(&design(RoStyle::AgingResistant, 1), 3);
            assert_ne!(a, b, "different seeds must fabricate differently");
            assert_ne!(a, c, "different styles must fabricate differently");
            assert_ne!(b, c);
        });
    }

    #[test]
    fn different_chip_counts_never_share() {
        let d = design(RoStyle::Conventional, 3);
        scoped(|| {
            let small = fabricate(&d, 2);
            let large = fabricate(&d, 4);
            assert_eq!(small.len(), 2);
            assert_eq!(large.len(), 4);
            // The shared prefix is still identical chips (same id streams).
            assert_eq!(small.chips(), &large.chips()[..2]);
        });
    }

    #[test]
    fn tech_difference_is_part_of_the_key() {
        // exp6's duty sweep: same seed/style/chip count, one tech field off.
        let base = design(RoStyle::AgingResistant, 4);
        let tweaked_tech = aro_device::params::TechParams {
            aro_idle_stress_fraction: 0.5,
            ..aro_device::params::TechParams::default()
        };
        let tweaked = PufDesign::builder(RoStyle::AgingResistant)
            .n_ros(8)
            .tech(tweaked_tech)
            .seed(4)
            .build();
        scoped(|| {
            let a = fabricate(&base, 2);
            let b = fabricate(&tweaked, 2);
            assert_eq!(a.design(), &base);
            assert_eq!(b.design(), &tweaked);
            assert_ne!(a.design(), b.design(), "tech params must split the key");
        });
    }

    #[test]
    fn no_scope_means_no_cache() {
        assert!(!is_active());
        let d = design(RoStyle::Conventional, 5);
        // Plain passthrough; nothing to assert beyond it working.
        let population = fabricate(&d, 2);
        assert_eq!(population.len(), 2);
        scoped(|| assert!(is_active()));
        assert!(!is_active());
    }

    #[test]
    fn nested_scopes_share_the_outer_cache() {
        let d = design(RoStyle::Conventional, 6);
        scoped(|| {
            let outer = fabricate(&d, 2);
            let inner = scoped(|| fabricate(&d, 2));
            assert_eq!(outer, inner);
            // The outer scope survives the nested region.
            assert!(is_active());
        });
        assert!(!is_active());
    }

    #[test]
    fn reset_empties_the_scope_but_keeps_it_usable() {
        let d = design(RoStyle::Conventional, 9);
        scoped(|| {
            let before = fabricate(&d, 2);
            assert_eq!(retained_baselines(), 1);
            reset();
            assert_eq!(retained_baselines(), 0);
            assert!(is_active(), "reset must not tear the scope down");
            // The cache refills and still produces identical silicon.
            let after = fabricate(&d, 2);
            assert_eq!(retained_baselines(), 1);
            assert_eq!(before, after);
        });
        reset(); // no-op outside a scope
        assert!(!is_active());
    }

    #[test]
    fn snapshotted_aging_is_bit_identical_to_cold_aging() {
        use aro_device::units::YEAR;
        let d = design(RoStyle::AgingResistant, 11);
        let profile = MissionProfile::typical(d.tech());
        let mut cold = Chip::fabricate(&d, 0);
        for _ in 0..3 {
            profile.age_chip(&mut cold, &d, 2.5 * YEAR);
        }
        scoped(|| {
            // First walk records one snapshot per step.
            let mut recorder = Chip::fabricate(&d, 0);
            let mut cursor = AgeCursor::new();
            for _ in 0..3 {
                age_chip_snapshotted(&mut recorder, &d, &profile, 2.5 * YEAR, &mut cursor);
            }
            assert_eq!(retained_snapshots(), 3);
            assert_eq!(recorder, cold);
            // Second walk replays; no new entries, same bits.
            let mut replayer = Chip::fabricate(&d, 0);
            cursor.clear();
            for _ in 0..3 {
                age_chip_snapshotted(&mut replayer, &d, &profile, 2.5 * YEAR, &mut cursor);
            }
            assert_eq!(retained_snapshots(), 3, "replays must not re-record");
            assert_eq!(replayer, cold);
        });
        assert_eq!(retained_snapshots(), 0, "store must die with the scope");
    }

    #[test]
    fn snapshot_keys_distinguish_step_partitions_and_silicon() {
        use aro_device::units::YEAR;
        let d = design(RoStyle::Conventional, 12);
        let profile = MissionProfile::typical(d.tech());
        scoped(|| {
            let mut one_step = Chip::fabricate(&d, 0);
            let mut cursor = AgeCursor::new();
            age_chip_snapshotted(&mut one_step, &d, &profile, 2.5 * YEAR, &mut cursor);
            // Same calendar time as two 1.25-year steps, but BTI
            // equivalent-time accumulation is not additive: the prefix
            // key must not alias the partitions.
            let mut two_steps = Chip::fabricate(&d, 0);
            cursor.clear();
            for _ in 0..2 {
                age_chip_snapshotted(&mut two_steps, &d, &profile, 1.25 * YEAR, &mut cursor);
            }
            assert_eq!(retained_snapshots(), 3);
            // Different chip of the same design: own entries.
            let mut other = Chip::fabricate(&d, 1);
            cursor.clear();
            age_chip_snapshotted(&mut other, &d, &profile, 2.5 * YEAR, &mut cursor);
            assert_eq!(retained_snapshots(), 4);
        });
    }

    #[test]
    fn capacity_is_bounded_lru() {
        scoped(|| {
            for seed in 0..(CAPACITY as u64 + 3) {
                let _ = fabricate(&design(RoStyle::Conventional, seed), 2);
            }
            assert_eq!(retained_baselines(), CAPACITY);
            // The oldest entry was evicted; requesting it again must still
            // produce the deterministic result.
            let again = fabricate(&design(RoStyle::Conventional, 0), 2);
            assert_eq!(
                again,
                Population::fabricate(&design(RoStyle::Conventional, 0), 2)
            );
        });
    }
}
