//! The sharded, replicated, crash-safe enrollment/helper-data store.
//!
//! A verifier backend keeps one record per enrolled device: the CRP
//! reference material, the key generator's public helper data, and the
//! verifier's copy of the current key (the re-enrollment continuity
//! anchor). Helper data is public but **unauthenticated** by the fuzzy
//! extractor itself — a flipped stored bit silently corrupts the
//! recovered key — so every record is sealed with a checksum at write
//! time and re-verified on every read. A mismatch is routed to recovery
//! ([`ReadOutcome::Corrupt`]), never panicked on and never served.
//!
//! Records live in **fixed-index shards**: the home shard of a device is
//! `device_id / ceil(fleet_capacity / n_shards)` — the same
//! `div_ceil`-chunk discipline `aro-par` uses to split work across
//! threads, so the store layout is a pure function of `(capacity,
//! shards, replicas)` and identical no matter what order records arrive
//! or which thread asks.
//!
//! On top of the shards sit **N-way replica groups**: replica `k` of a
//! device lives in shard `(home + k) mod n_shards`, so each copy sits in
//! a different failure domain. A read serves the lowest-indexed intact
//! replica and fails closed only when *every* replica is corrupt or
//! wiped; the deterministic [`ShardedStore::scrub`] anti-entropy pass
//! copies an intact replica over its damaged siblings (seal-mismatch
//! read-repair), and [`ShardedStore::repair`] — the re-enrollment path —
//! stamps a fresh **repair generation** on the group so forensics can
//! tell a new enrollment lineage from a scrub copy of the old one.
//!
//! Store corruption is injected with the *same* `aro-faults` machinery
//! the device-side NVM uses ([`ShardedStore::erode`]): helper bits erode
//! per `(device, window, replica)` in a window id space offset by
//! [`STORE_WINDOW_BASE`] (replica 0 draws the exact coordinates the
//! pre-replication store drew), whole replicas are wiped per `(device,
//! window)` and whole shards lost per `(shard, window)` — independent
//! streams, all byte-deterministic under one injector.

use aro_ecc::fuzzy::HelperData;
use aro_ecc::hash::{fnv1a, fnv1a_u64, FNV_OFFSET};
use aro_faults::FaultInjector;
use aro_metrics::bits::BitString;

/// Window-id base for store-side erosion draws, keeping the verifier's
/// NVM fault coordinates disjoint from every device-side helper window
/// (device lifecycles count mission windows from zero and stay far below
/// this).
pub const STORE_WINDOW_BASE: u64 = 1 << 40;

/// Window-id stride separating the erosion streams of sibling replicas:
/// replica `k` of a group erodes at `STORE_WINDOW_BASE + window + k ·
/// REPLICA_WINDOW_STRIDE`, so each copy takes independent damage while
/// replica 0 reproduces the pre-replication store byte-for-byte.
pub const REPLICA_WINDOW_STRIDE: u64 = 1 << 20;

/// One device's verifier-side enrollment, integrity-sealed.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    device_id: u64,
    challenge_pairs: Vec<(usize, usize)>,
    reference: BitString,
    helper: HelperData,
    key: BitString,
    /// Media-level erasure flags: `(block, bit)` helper positions the
    /// storage layer knows it lost (an NVM controller reports these on
    /// read). Recovery feeds them to the erasure-aware decoder.
    flagged: Vec<(usize, usize)>,
    /// Enrollment lineage: 0 at factory enrollment, bumped by every
    /// re-enrollment [`ShardedStore::repair`]. Scrub read-repairs copy
    /// the source replica's generation unchanged — anti-entropy
    /// propagates a lineage, re-enrollment starts one.
    repair_generation: u64,
    checksum: u64,
}

impl StoredRecord {
    /// Seals a fresh enrollment record (checksum computed here,
    /// repair generation 0).
    #[must_use]
    pub fn new(
        device_id: u64,
        challenge_pairs: Vec<(usize, usize)>,
        reference: BitString,
        helper: HelperData,
        key: BitString,
    ) -> Self {
        let mut record = Self {
            device_id,
            challenge_pairs,
            reference,
            helper,
            key,
            flagged: Vec::new(),
            repair_generation: 0,
            checksum: 0,
        };
        record.checksum = record.digest();
        record
    }

    fn digest(&self) -> u64 {
        let mut hash = fnv1a_u64(FNV_OFFSET, self.device_id);
        for &(a, b) in &self.challenge_pairs {
            hash = fnv1a_u64(hash, a as u64);
            hash = fnv1a_u64(hash, b as u64);
        }
        hash = fnv1a_u64(hash, self.reference.len() as u64);
        hash = fnv1a(hash, &self.reference.to_bytes());
        hash = fnv1a_u64(hash, self.helper.digest());
        hash = fnv1a_u64(hash, self.key.len() as u64);
        hash = fnv1a(hash, &self.key.to_bytes());
        fnv1a_u64(hash, self.repair_generation)
    }

    /// Whether the stored bytes still match the checksum sealed at
    /// enrollment.
    #[must_use]
    pub fn is_intact(&self) -> bool {
        self.digest() == self.checksum
    }

    /// The enrolled device id.
    #[must_use]
    pub fn device_id(&self) -> u64 {
        self.device_id
    }

    /// The device's challenge pair set.
    #[must_use]
    pub fn challenge_pairs(&self) -> &[(usize, usize)] {
        &self.challenge_pairs
    }

    /// The enrolled CRP reference response.
    #[must_use]
    pub fn reference(&self) -> &BitString {
        &self.reference
    }

    /// The stored (possibly eroded) helper data.
    #[must_use]
    pub fn helper(&self) -> &HelperData {
        &self.helper
    }

    /// The verifier's copy of the device's current key.
    #[must_use]
    pub fn key(&self) -> &BitString {
        &self.key
    }

    /// Helper positions the storage media has flagged as lost.
    #[must_use]
    pub fn flagged(&self) -> &[(usize, usize)] {
        &self.flagged
    }

    /// The enrollment lineage this record belongs to (0 = factory).
    #[must_use]
    pub fn repair_generation(&self) -> u64 {
        self.repair_generation
    }

    /// This record re-sealed under a new repair generation (the
    /// re-enrollment path; scrub copies never call this).
    #[must_use]
    pub fn with_repair_generation(mut self, generation: u64) -> Self {
        self.repair_generation = generation;
        self.checksum = self.digest();
        self
    }
}

/// What a store read found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadOutcome<'a> {
    /// No replica holds a record for this device id (never enrolled, or
    /// every copy wiped).
    Missing,
    /// At least one replica is present and its checksum holds.
    Intact(&'a StoredRecord),
    /// Every surviving replica fails its checksum: the group was
    /// corrupted in place. Served to *recovery* only, never to a verify
    /// decision.
    Corrupt(&'a StoredRecord),
}

/// Per-replica-group health observed by a read: how many copies were
/// intact / seal-broken / wiped, and which replica served the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaSummary {
    /// Replicas whose seal held.
    pub intact: u32,
    /// Replicas present but failing their checksum.
    pub corrupt: u32,
    /// Replicas enrolled but since wiped (replica wipe or shard loss).
    pub wiped: u32,
    /// The replica index the returned record came from, if any.
    pub served: Option<u32>,
}

impl ReplicaSummary {
    /// Whether the group has lost redundancy but can still serve.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.intact > 0 && (self.corrupt > 0 || self.wiped > 0)
    }
}

/// One scrub read-repair: `replica` of `device_id` was overwritten from
/// an intact sibling carrying `generation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubRepair {
    /// The repaired device group.
    pub device_id: u64,
    /// The replica index rewritten.
    pub replica: u32,
    /// The repair generation of the intact source replica (propagated,
    /// not bumped — scrub copies a lineage, re-enrollment starts one).
    pub generation: u64,
}

/// The outcome of one deterministic anti-entropy pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Replica groups scanned.
    pub groups: u64,
    /// Read-repairs applied, in ascending (device, replica) order.
    pub repairs: Vec<ScrubRepair>,
    /// Devices with zero intact replicas — scrub cannot help them; only
    /// re-enrollment can.
    pub unrecoverable: Vec<u64>,
}

/// One stored copy of a device's record. The slot outlives its record:
/// a wiped replica keeps its `(device, replica)` address so scrub knows
/// what to rebuild.
#[derive(Debug, Clone)]
struct ReplicaSlot {
    device_id: u64,
    replica: u32,
    record: Option<StoredRecord>,
}

/// Fixed-index sharded record store with N-way replica groups.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    shards: Vec<Vec<ReplicaSlot>>,
    chunk: usize,
    n_replicas: u32,
}

impl ShardedStore {
    /// A store laid out for `capacity` devices across `n_shards` fixed
    /// index chunks (`aro-par`'s `div_ceil` discipline), keeping
    /// `n_replicas` copies of every record. Ids at or past `capacity`
    /// clamp to the last shard. Replica `k` of a device is placed in
    /// shard `(home + k) mod n_shards` so each copy sits in a different
    /// failure domain.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero, `n_replicas` is zero, or
    /// `n_replicas` exceeds `n_shards` (there are only `n_shards`
    /// failure domains to spread copies across).
    #[must_use]
    pub fn for_fleet_replicated(capacity: usize, n_shards: usize, n_replicas: usize) -> Self {
        assert!(n_shards > 0, "a store needs at least one shard");
        assert!(n_replicas > 0, "a record needs at least one replica");
        assert!(
            n_replicas <= n_shards,
            "replicas ({n_replicas}) cannot outnumber shards ({n_shards})"
        );
        Self {
            shards: (0..n_shards).map(|_| Vec::new()).collect(),
            chunk: capacity.max(1).div_ceil(n_shards),
            n_replicas: n_replicas as u32,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Copies kept of every record.
    #[must_use]
    pub fn n_replicas(&self) -> usize {
        self.n_replicas as usize
    }

    /// The fixed home shard index of a device id (where replica 0 lives).
    #[must_use]
    pub fn shard_of(&self, device_id: u64) -> usize {
        ((device_id as usize) / self.chunk).min(self.shards.len() - 1)
    }

    /// The shard hosting replica `replica` of a device.
    #[must_use]
    pub fn replica_shard(&self, device_id: u64, replica: u32) -> usize {
        (self.shard_of(device_id) + replica as usize) % self.shards.len()
    }

    /// Enrolled device groups (a group survives even with every copy
    /// wiped — the addresses remain for scrub and forensics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .filter(|slot| slot.replica == 0)
            .count()
    }

    /// Whether the store holds no groups.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, device_id: u64, replica: u32) -> Option<&ReplicaSlot> {
        let shard = &self.shards[self.replica_shard(device_id, replica)];
        shard
            .binary_search_by_key(&(device_id, replica), |s| (s.device_id, s.replica))
            .ok()
            .map(|at| &shard[at])
    }

    fn record(&self, device_id: u64, replica: u32) -> Option<&StoredRecord> {
        self.slot(device_id, replica)
            .and_then(|slot| slot.record.as_ref())
    }

    fn put_slot(&mut self, device_id: u64, replica: u32, record: Option<StoredRecord>) {
        let idx = self.replica_shard(device_id, replica);
        let shard = &mut self.shards[idx];
        match shard.binary_search_by_key(&(device_id, replica), |s| (s.device_id, s.replica)) {
            Ok(at) => shard[at].record = record,
            Err(at) => shard.insert(
                at,
                ReplicaSlot {
                    device_id,
                    replica,
                    record,
                },
            ),
        }
    }

    /// All enrolled device ids, ascending.
    fn device_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .shards
            .iter()
            .flatten()
            .filter(|slot| slot.replica == 0)
            .map(|slot| slot.device_id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Inserts (or replaces) a record, writing every replica of its
    /// group, each to its fixed shard, keeping shards `(id, replica)`-
    /// sorted so the layout is insertion-order independent.
    pub fn insert(&mut self, record: StoredRecord) {
        aro_obs::counter("serve.store_writes", 1);
        let device_id = record.device_id;
        for replica in (1..self.n_replicas).rev() {
            self.put_slot(device_id, replica, Some(record.clone()));
        }
        self.put_slot(device_id, 0, Some(record));
    }

    /// Reads a record, verifying seals replica by replica: the lowest-
    /// indexed intact copy serves; the group fails closed only when
    /// every copy is corrupt or wiped. Corruption is *detected*,
    /// counted, and reported — never panicked on.
    #[must_use]
    pub fn read(&self, device_id: u64) -> ReadOutcome<'_> {
        self.read_with_replicas(device_id).0
    }

    /// [`ShardedStore::read`] plus the per-replica health the read saw —
    /// the audit trail records both.
    #[must_use]
    pub fn read_with_replicas(&self, device_id: u64) -> (ReadOutcome<'_>, ReplicaSummary) {
        let mut summary = ReplicaSummary::default();
        let mut intact: Option<(u32, &StoredRecord)> = None;
        let mut corrupt: Option<(u32, &StoredRecord)> = None;
        for replica in 0..self.n_replicas {
            let Some(slot) = self.slot(device_id, replica) else {
                continue;
            };
            match &slot.record {
                None => summary.wiped += 1,
                Some(record) if record.is_intact() => {
                    summary.intact += 1;
                    if intact.is_none() {
                        intact = Some((replica, record));
                    }
                }
                Some(record) => {
                    summary.corrupt += 1;
                    if corrupt.is_none() {
                        corrupt = Some((replica, record));
                    }
                }
            }
        }
        if let Some((replica, record)) = intact {
            if replica > 0 {
                aro_obs::counter("serve.store_replica_fallbacks", 1);
            }
            summary.served = Some(replica);
            (ReadOutcome::Intact(record), summary)
        } else if let Some((replica, record)) = corrupt {
            aro_obs::counter("serve.store_corrupt_reads", 1);
            summary.served = Some(replica);
            (ReadOutcome::Corrupt(record), summary)
        } else {
            (ReadOutcome::Missing, summary)
        }
    }

    /// Erodes the store in place with the fault plan's storage
    /// machinery, all of it coordinate-addressed and byte-deterministic:
    ///
    /// * helper bits flip per `(device, window, replica)` — replica `k`
    ///   draws window `window + k · `[`REPLICA_WINDOW_STRIDE`], so
    ///   sibling copies take independent damage. Flipped positions are
    ///   flagged on the record (the media knows what it lost) but the
    ///   checksum is *not* resealed — the next read detects the damage;
    /// * whole replicas are wiped per `(device, window)`
    ///   ([`FaultInjector::replica_wipes`]);
    /// * whole shards are lost per `(shard, window)`
    ///   ([`FaultInjector::shard_loss`]), costing every group hosted
    ///   there one replica.
    ///
    /// Returns the number of helper bits flipped.
    pub fn erode(&mut self, inj: &FaultInjector, window: u64, fraction: f64) -> usize {
        let mut eroded = 0;
        for shard in &mut self.shards {
            for slot in shard.iter_mut() {
                let Some(record) = slot.record.as_mut() else {
                    continue;
                };
                let positions = inj.helper_erasures_during(
                    record.device_id,
                    STORE_WINDOW_BASE + window + u64::from(slot.replica) * REPLICA_WINDOW_STRIDE,
                    fraction,
                    &record.helper.block_lens(),
                );
                if positions.is_empty() {
                    continue;
                }
                record.helper = record.helper.with_flipped_bits(&positions);
                record.flagged.extend_from_slice(&positions);
                record.flagged.sort_unstable();
                record.flagged.dedup();
                eroded += positions.len();
            }
        }
        if eroded > 0 {
            aro_obs::counter("serve.store_bits_eroded", eroded as u64);
        }
        let mut wiped = 0u64;
        for device_id in self.device_ids() {
            for replica in inj.replica_wipes(
                device_id,
                STORE_WINDOW_BASE + window,
                self.n_replicas as usize,
            ) {
                let replica = replica as u32;
                if self
                    .slot(device_id, replica)
                    .is_some_and(|s| s.record.is_some())
                {
                    self.put_slot(device_id, replica, None);
                    wiped += 1;
                }
            }
        }
        if wiped > 0 {
            aro_obs::counter("serve.store_replicas_wiped", wiped);
        }
        let mut lost = 0u64;
        for shard in 0..self.shards.len() {
            if !inj.shard_loss(shard as u64, STORE_WINDOW_BASE + window) {
                continue;
            }
            for slot in &mut self.shards[shard] {
                if slot.record.take().is_some() {
                    lost += 1;
                }
            }
        }
        if lost > 0 {
            aro_obs::counter("serve.store_shard_losses", 1);
            aro_obs::counter("serve.store_replicas_lost_to_shards", lost);
        }
        eroded
    }

    /// One deterministic anti-entropy pass: every group is scanned in
    /// ascending device order; any replica that differs from the lowest-
    /// indexed intact copy — seal-broken, wiped, or divergent — is
    /// overwritten with it (seal-mismatch read-repair). The source's
    /// repair generation propagates unchanged. Groups with zero intact
    /// replicas are reported unrecoverable; only re-enrollment
    /// ([`ShardedStore::repair`]) can bring them back.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for device_id in self.device_ids() {
            report.groups += 1;
            let source = (0..self.n_replicas).find(|&replica| {
                self.record(device_id, replica)
                    .is_some_and(StoredRecord::is_intact)
            });
            let Some(source) = source else {
                report.unrecoverable.push(device_id);
                continue;
            };
            for replica in 0..self.n_replicas {
                if replica == source
                    || self.record(device_id, replica) == self.record(device_id, source)
                {
                    continue;
                }
                let copy = self
                    .record(device_id, source)
                    .cloned()
                    .expect("the source replica holds an intact record");
                report.repairs.push(ScrubRepair {
                    device_id,
                    replica,
                    generation: copy.repair_generation(),
                });
                self.put_slot(device_id, replica, Some(copy));
            }
        }
        if !report.repairs.is_empty() {
            aro_obs::counter("serve.store_scrub_repairs", report.repairs.len() as u64);
        }
        if !report.unrecoverable.is_empty() {
            aro_obs::counter(
                "serve.store_scrub_unrecoverable",
                report.unrecoverable.len() as u64,
            );
        }
        report
    }

    /// Writes a freshly re-enrolled record over a damaged group,
    /// stamping it one repair generation past the group's highest
    /// surviving lineage (1 if nothing survives). Every replica is
    /// rewritten. Returns the stamped generation — the audit trail
    /// carries it so forensics can tell re-enrollment repairs from
    /// scrub read-repairs.
    pub fn repair(&mut self, record: StoredRecord) -> u64 {
        aro_obs::counter("serve.store_repairs", 1);
        let prior = (0..self.n_replicas)
            .filter_map(|replica| {
                self.record(record.device_id(), replica)
                    .map(StoredRecord::repair_generation)
            })
            .max();
        let generation = prior.map_or(1, |g| g + 1);
        self.insert(record.with_repair_generation(generation));
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_ecc::keygen::KeyGenerator;
    use aro_faults::FaultPlan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn record(id: u64) -> StoredRecord {
        let generator = KeyGenerator::for_bit_error_rate(
            0.05,
            32,
            1e-6,
            &aro_ecc::area::PufAreaParams {
                ro_cell_ge: 3.0,
                readout_fixed_ge: 120.0,
                readout_per_ro_ge: 3.0,
                ros_per_bit: 2.0,
            },
        )
        .expect("feasible");
        let mut rng = StdRng::seed_from_u64(id);
        let response = BitString::from_fn(generator.response_bits(), |i| {
            (i + id as usize).is_multiple_of(3)
        });
        let (key, helper) = generator.enroll(&response, &mut rng);
        let reference = BitString::from_fn(16, |i| i.is_multiple_of(2));
        StoredRecord::new(id, vec![(0, 1), (2, 3)], reference, helper, key)
    }

    /// A record whose reference crosses a word boundary and whose every
    /// bit string ends mid-byte.
    fn odd_record() -> StoredRecord {
        let base = record(7);
        let reference = BitString::from_fn(67, |i| (i * 5) % 7 < 3);
        StoredRecord::new(
            7,
            vec![(0, 1), (2, 3), (64, 1_000)],
            reference,
            base.helper,
            base.key.slice(0, 29),
        )
    }

    #[test]
    fn the_seal_of_a_fixed_record_is_pinned() {
        let record = odd_record();
        assert_eq!(
            record.helper.block_lens(),
            [315],
            "the offset ends mid-byte"
        );
        assert_eq!(record.checksum, 0x2cfc_4b43_8ed1_e77b);
        assert_eq!(
            record.with_repair_generation(3).checksum,
            0xd00b_f628_6e04_0918
        );
    }

    #[test]
    fn any_single_bit_flip_breaks_the_seal() {
        let sealed = odd_record();
        assert!(sealed.is_intact());
        let broken = |mutate: &dyn Fn(&mut StoredRecord)| {
            let mut record = sealed.clone();
            mutate(&mut record);
            !record.is_intact()
        };
        for i in 0..sealed.reference.len() {
            assert!(broken(&|r| r.reference.flip(i)), "reference bit {i}");
        }
        for i in 0..sealed.key.len() {
            assert!(broken(&|r| r.key.flip(i)), "key bit {i}");
        }
        for pair in 0..sealed.challenge_pairs.len() {
            for bit in 0..usize::BITS {
                assert!(
                    broken(&|r| r.challenge_pairs[pair].0 ^= 1 << bit),
                    "pair {pair} first index bit {bit}"
                );
                assert!(
                    broken(&|r| r.challenge_pairs[pair].1 ^= 1 << bit),
                    "pair {pair} second index bit {bit}"
                );
            }
        }
        for (block, len) in sealed.helper.block_lens().into_iter().enumerate() {
            for bit in 0..len {
                assert!(
                    broken(&|r| r.helper = r.helper.with_flipped_bits(&[(block, bit)])),
                    "helper block {block} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn scrub_repairs_one_eroded_replica_and_leaves_intact_groups_alone() {
        let mut store = ShardedStore::for_fleet_replicated(6, 3, 2);
        for id in 0..6 {
            store.insert(record(id));
        }
        let snapshot = |store: &ShardedStore| -> Vec<Option<StoredRecord>> {
            (0..6)
                .flat_map(|id| (0..2).map(move |replica| (id, replica)))
                .map(|(id, replica)| store.record(id, replica).cloned())
                .collect()
        };
        let before = snapshot(&store);
        // Erode one helper bit of device 4's replica 1 without resealing.
        let mut eroded = before[4 * 2 + 1].clone().expect("enrolled");
        eroded.helper = eroded.helper.with_flipped_bits(&[(0, 200)]);
        store.put_slot(4, 1, Some(eroded));
        let summary = store.read_with_replicas(4).1;
        assert_eq!((summary.intact, summary.corrupt), (1, 1));

        let report = store.scrub();
        assert_eq!(report.groups, 6);
        assert!(report.unrecoverable.is_empty());
        assert_eq!(
            report.repairs,
            [ScrubRepair {
                device_id: 4,
                replica: 1,
                generation: 0
            }]
        );
        assert_eq!(
            snapshot(&store),
            before,
            "the eroded copy is restored, every other slot is untouched"
        );
    }

    #[test]
    fn fresh_records_read_back_intact() {
        let mut store = ShardedStore::for_fleet_replicated(8, 3, 1);
        for id in 0..8 {
            store.insert(record(id));
        }
        assert_eq!(store.len(), 8);
        for id in 0..8 {
            assert!(matches!(store.read(id), ReadOutcome::Intact(r) if r.device_id() == id));
        }
        assert!(matches!(store.read(99), ReadOutcome::Missing));
    }

    #[test]
    fn sharding_follows_the_div_ceil_chunk_discipline() {
        let store = ShardedStore::for_fleet_replicated(10, 4, 1);
        // chunk = ceil(10 / 4) = 3: ids 0..3 -> shard 0, 3..6 -> 1, ...
        assert_eq!(store.shard_of(0), 0);
        assert_eq!(store.shard_of(2), 0);
        assert_eq!(store.shard_of(3), 1);
        assert_eq!(store.shard_of(9), 3);
        assert_eq!(store.shard_of(1000), 3, "out-of-range ids clamp");
    }

    #[test]
    fn replicas_rotate_across_failure_domains() {
        let store = ShardedStore::for_fleet_replicated(10, 4, 3);
        // Home shard of id 4 is 1; replicas 0..3 land in shards 1, 2, 3.
        assert_eq!(store.replica_shard(4, 0), 1);
        assert_eq!(store.replica_shard(4, 1), 2);
        assert_eq!(store.replica_shard(4, 2), 3);
        // The rotation wraps: id 9 is home on the last shard.
        assert_eq!(store.replica_shard(9, 0), 3);
        assert_eq!(store.replica_shard(9, 1), 0);
    }

    #[test]
    #[should_panic(expected = "replicas")]
    fn replicas_cannot_outnumber_shards() {
        let _ = ShardedStore::for_fleet_replicated(8, 2, 3);
    }

    #[test]
    fn erosion_is_detected_on_read_and_flagged() {
        let mut store = ShardedStore::for_fleet_replicated(4, 2, 1);
        for id in 0..4 {
            store.insert(record(id));
        }
        let inj = FaultInjector::new(FaultPlan::storm(), 7);
        let eroded = store.erode(&inj, 0, 1.0);
        assert!(eroded > 0, "a full-window storm must erode something");
        let mut failed_closed = 0;
        for id in 0..4 {
            match store.read(id) {
                ReadOutcome::Corrupt(r) => {
                    failed_closed += 1;
                    assert!(!r.flagged().is_empty(), "media flags must accompany damage");
                }
                ReadOutcome::Intact(r) => assert!(r.flagged().is_empty()),
                ReadOutcome::Missing => {} // a storm window may wipe a whole group
            }
        }
        let any_damage = (0..4).any(|id| {
            let s = store.read_with_replicas(id).1;
            s.corrupt + s.wiped > 0
        });
        assert!(
            failed_closed > 0 || any_damage,
            "eroded records must fail their checksum"
        );
    }

    #[test]
    fn erosion_is_deterministic() {
        let build = || {
            let mut store = ShardedStore::for_fleet_replicated(4, 2, 2);
            for id in 0..4 {
                store.insert(record(id));
            }
            let inj = FaultInjector::new(FaultPlan::storm().scaled(0.5), 11);
            store.erode(&inj, 3, 0.7);
            store
        };
        let (a, b) = (build(), build());
        for id in 0..4 {
            assert_eq!(a.read(id), b.read(id), "device {id}");
            assert_eq!(
                a.read_with_replicas(id).1,
                b.read_with_replicas(id).1,
                "device {id}"
            );
        }
    }

    #[test]
    fn sibling_replicas_take_independent_damage() {
        let mut store = ShardedStore::for_fleet_replicated(4, 4, 3);
        for id in 0..4 {
            store.insert(record(id));
        }
        let inj = FaultInjector::new(FaultPlan::storm(), 9);
        store.erode(&inj, 0, 1.0);
        // Across four devices and three replicas each, at least one group
        // must be partially damaged (degraded, not uniformly dead): that
        // is what independent per-replica erosion streams buy.
        let degraded = (0..4).any(|id| store.read_with_replicas(id).1.is_degraded());
        assert!(degraded, "independent erosion must leave mixed groups");
    }

    #[test]
    fn quorum_read_serves_any_intact_replica_and_fails_closed_on_none() {
        let mut store = ShardedStore::for_fleet_replicated(4, 3, 3);
        store.insert(record(1));
        // Wipe replica 0: the read falls back to replica 1.
        store.put_slot(1, 0, None);
        let (outcome, summary) = store.read_with_replicas(1);
        assert!(matches!(outcome, ReadOutcome::Intact(r) if r.device_id() == 1));
        assert_eq!(summary.served, Some(1));
        assert_eq!((summary.intact, summary.corrupt, summary.wiped), (2, 0, 1));
        assert!(summary.is_degraded());
        // Wipe every replica: the group reads Missing.
        store.put_slot(1, 1, None);
        store.put_slot(1, 2, None);
        assert!(matches!(store.read(1), ReadOutcome::Missing));
        assert_eq!(store.len(), 1, "a fully wiped group keeps its address");
    }

    #[test]
    fn scrub_read_repairs_from_any_intact_replica() {
        let mut store = ShardedStore::for_fleet_replicated(6, 3, 3);
        for id in 0..6 {
            store.insert(record(id));
        }
        // Device 2 loses replicas 0 and 2; device 4 loses nothing.
        store.put_slot(2, 0, None);
        store.put_slot(2, 2, None);
        let report = store.scrub();
        assert_eq!(report.groups, 6);
        assert_eq!(report.unrecoverable, Vec::<u64>::new());
        assert_eq!(report.repairs.len(), 2);
        for repair in &report.repairs {
            assert_eq!(repair.device_id, 2);
            assert_eq!(repair.generation, 0, "scrub propagates the lineage");
        }
        // Convergence: all replicas byte-identical and intact.
        let summary = store.read_with_replicas(2).1;
        assert_eq!((summary.intact, summary.corrupt, summary.wiped), (3, 0, 0));
        assert_eq!(
            store.scrub(),
            ScrubReport {
                groups: 6,
                ..ScrubReport::default()
            },
            "a second pass finds nothing"
        );
    }

    #[test]
    fn scrub_reports_groups_with_no_intact_replica_as_unrecoverable() {
        let mut store = ShardedStore::for_fleet_replicated(4, 2, 2);
        store.insert(record(0));
        store.insert(record(1));
        store.put_slot(0, 0, None);
        store.put_slot(0, 1, None);
        let report = store.scrub();
        assert_eq!(report.unrecoverable, vec![0]);
        assert!(report.repairs.is_empty());
        assert!(matches!(store.read(0), ReadOutcome::Missing));
    }

    #[test]
    fn repair_reseals_the_record_and_bumps_the_generation() {
        let mut store = ShardedStore::for_fleet_replicated(2, 1, 1);
        store.insert(record(0));
        let inj = FaultInjector::new(FaultPlan::storm(), 3);
        let mut window = 0;
        while store.erode(&inj, window, 1.0) == 0 {
            window += 1;
        }
        // At least one read must now be corrupt; repair with a fresh seal.
        let generation = store.repair(record(0));
        assert_eq!(generation, 1, "factory lineage 0 repairs to 1");
        match store.read(0) {
            ReadOutcome::Intact(r) => assert_eq!(r.repair_generation(), 1),
            other => panic!("repaired record must read intact: {other:?}"),
        }
        // A second re-enrollment keeps counting.
        assert_eq!(store.repair(record(0)), 2);
    }

    #[test]
    fn repair_restarts_a_fully_wiped_group() {
        let mut store = ShardedStore::for_fleet_replicated(2, 2, 2);
        store.insert(record(0));
        store.put_slot(0, 0, None);
        store.put_slot(0, 1, None);
        assert_eq!(
            store.repair(record(0)),
            1,
            "no surviving lineage restarts at 1"
        );
        let summary = store.read_with_replicas(0).1;
        assert_eq!((summary.intact, summary.corrupt, summary.wiped), (2, 0, 0));
    }
}
