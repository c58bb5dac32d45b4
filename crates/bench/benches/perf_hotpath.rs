//! Microbenches pinning the hot paths the performance work targets: the
//! chip's frequency-kernel cache (an all-hit read of the array, an
//! all-rebuild read, and a soft read of a serve-size chip under a fresh
//! excursion), parallel population fabrication, one aging-timeline
//! checkpoint, and the verifier store's record seal (packing a helper
//! block, a sealed replica read, a scrub pass).
//!
//! Run with `cargo bench -p aro-bench --bench perf_hotpath`. These time
//! unit operations; end-to-end wall, CPU and memory come from the
//! `aro-perf` benchmark (`benchmark/`, see `docs/PERFORMANCE.md`).

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::units::YEAR;
use aro_ecc::area::PufAreaParams;
use aro_ecc::keygen::KeyGenerator;
use aro_metrics::bits::BitString;
use aro_puf::{Chip, MissionProfile, PairingStrategy, Population, PufDesign};
use aro_serve::store::{ReadOutcome, ShardedStore, StoredRecord};
use aro_sim::runner::measure_flip_timeline;
use aro_sim::servefleet::{CRP_BITS, DEFAULT_REPLICAS, N_SHARDS};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Devices in the `serve-steady` fleet.
const FLEET: u64 = 64;

/// A `serve-steady`-shaped store: 64 groups of `DEFAULT_REPLICAS`
/// copies across `N_SHARDS` shards, each record a 64-pair challenge, its
/// 64-bit reference, a 128-bit key and a 1 778-bit helper in two blocks.
/// Every device draws its own bits, so no two seals hash the same bytes.
fn serve_store() -> ShardedStore {
    let generator = KeyGenerator::for_bit_error_rate(
        0.14,
        128,
        1e-6,
        &PufAreaParams {
            ro_cell_ge: 3.0,
            readout_fixed_ge: 120.0,
            readout_per_ro_ge: 3.0,
            ros_per_bit: 2.0,
        },
    )
    .expect("feasible");
    assert_eq!(generator.response_bits(), 1_778);
    let n_ros = 2 * generator.response_bits();
    let mut store = ShardedStore::for_fleet_replicated(FLEET as usize, N_SHARDS, DEFAULT_REPLICAS);
    for id in 0..FLEET {
        let mut rng = StdRng::seed_from_u64(id);
        let response = BitString::from_fn(generator.response_bits(), |_| rng.gen());
        let (key, helper) = generator.enroll(&response, &mut rng);
        let pairs = (0..CRP_BITS)
            .map(|_| (rng.gen_range(0..n_ros), rng.gen_range(0..n_ros)))
            .collect();
        let reference = BitString::from_fn(CRP_BITS, |_| rng.gen());
        store.insert(StoredRecord::new(id, pairs, reference, helper, key));
    }
    store
}

fn bench(c: &mut Criterion) {
    let design = PufDesign::standard(RoStyle::AgingResistant, 7);
    let tech = design.tech();
    let nominal = Environment::nominal(tech);
    // A ring keeps two warm kernels (most recently used first), so
    // alternating two environments would time cache hits. Cycling three
    // evicts the next environment's kernel before every read, so each
    // read rebuilds every ring.
    let hot = Environment::new(85.0, tech.vdd_nominal);
    let cold = Environment::new(-20.0, tech.vdd_nominal);
    let chip = Chip::fabricate(&design, 0);
    let mut freqs = Vec::new();

    c.bench_function("freq_kernel_cached_query", |b| {
        // Steady state: one read of the whole array, every ring a hit.
        chip.frequencies_into(&design, &nominal, &mut freqs);
        b.iter(|| {
            chip.frequencies_into(&design, black_box(&nominal), &mut freqs);
            black_box(freqs[0])
        })
    });

    c.bench_function("freq_kernel_rebuild", |b| {
        let envs = [&nominal, &hot, &cold];
        let mut next = 0;
        b.iter(|| {
            next = (next + 1) % envs.len();
            chip.frequencies_into(&design, black_box(envs[next]), &mut freqs);
            black_box(freqs[0])
        })
    });

    // The unit operation of EXP-18's maintenance reads: a soft read of
    // every neighbour pair of a conventional serve-size chip (the 128-bit
    // key's 57 630 rings) under a fault-plan excursion. Each iteration
    // draws a fresh environment, so every ring rebuilds.
    let serve = PufDesign::builder(RoStyle::Conventional)
        .n_ros(57_630)
        .seed(2014 ^ 0xe18)
        .build();
    let mut serve_chip = Chip::fabricate(&serve, 0);
    let pairs = PairingStrategy::Neighbor.pairs(serve.n_ros());
    let serve_nominal = Environment::nominal(serve.tech());
    c.bench_function("chip_soft_read_fresh_env", |b| {
        let mut excursion = 0u32;
        b.iter(|| {
            excursion += 1;
            let env = serve_nominal.perturbed(1e-3 * f64::from(excursion), 0.0);
            black_box(serve_chip.response_soft(&serve, &env, &pairs))
        })
    });

    c.bench_function("population_fabricate_8_chips", |b| {
        b.iter(|| black_box(Population::fabricate(black_box(&design), 8)))
    });

    // The verifier seals every record with a checksum over its packed
    // bytes; a helper block of the serve fleet is 1 778 bits.
    let helper_bits = BitString::from_fn(1_778, |i| (i * 7 + i / 3) % 5 < 2);
    c.bench_function("bitstring_to_bytes", |b| {
        b.iter(|| black_box(black_box(&helper_bits).to_bytes()))
    });

    // A quorum read checks the seal of every replica. Each iteration reads
    // the next of the 64 groups: one group read over and over lets the
    // branch predictor learn its bits and hides the cost.
    let mut store = serve_store();
    c.bench_function("store_sealed_read", |b| {
        let mut device = 0;
        b.iter(|| {
            device = (device + 1) % FLEET;
            let (outcome, summary) = store.read_with_replicas(black_box(device));
            assert!(matches!(outcome, ReadOutcome::Intact(_)));
            black_box(summary)
        })
    });

    // One maintenance scrub over the intact fleet: every group's seal is
    // checked and nothing is rewritten.
    c.bench_function("store_scrub_pass", |b| {
        b.iter(|| {
            let report = store.scrub();
            assert!(report.repairs.is_empty());
            black_box(report.groups)
        })
    });

    c.bench_function("flip_timeline_one_checkpoint", |b| {
        let pristine = Population::fabricate(&design, 4);
        let profile = MissionProfile::typical(design.tech());
        b.iter(|| {
            let mut population = pristine.clone();
            black_box(measure_flip_timeline(
                &mut population,
                &profile,
                &[10.0 * YEAR],
                None,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
