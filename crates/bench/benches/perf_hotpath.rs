//! Microbenches pinning the hot paths the performance work targets: the
//! chip's frequency-kernel cache (an all-hit read of the array, an
//! all-rebuild read, and a soft read of a serve-size chip under a fresh
//! excursion), a warm 5-vote read of that chip, parallel population
//! fabrication, one aging-timeline
//! checkpoint, the verifier store's record seal (packing a helper block,
//! a sealed replica read, a scrub pass) and one authentication probe.
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
use aro_puf::{Challenge, Chip, MissionProfile, PairingStrategy, Population, PufDesign};
use aro_serve::store::{ReadOutcome, ShardedStore, StoredRecord};
use aro_serve::{AuthService, ServicePolicy};
use aro_sim::runner::measure_flip_timeline;
use aro_sim::servefleet::{CRP_BITS, DEFAULT_REPLICAS, N_SHARDS};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Devices in the `serve-steady` fleet.
const FLEET: u64 = 64;

/// The serve fleet's key generator: a 128-bit key from 1 778 response
/// bits, so a device has 3 556 rings.
fn serve_generator() -> KeyGenerator {
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
    generator
}

/// A `serve-steady`-shaped store: 64 groups of `DEFAULT_REPLICAS`
/// copies across `N_SHARDS` shards, each record a 64-pair challenge, its
/// 64-bit reference, a 128-bit key and a 1 778-bit helper in two blocks.
/// Every device draws its own bits, so no two seals hash the same bytes.
fn serve_store() -> ShardedStore {
    let generator = serve_generator();
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

/// A `serve-steady`-shaped fleet: 64 ARO chips of 3 556 rings, each
/// enrolled on its golden reads (a 64-pair challenge record and a key)
/// and then aged 10 years, behind a replicated service.
fn serve_fleet() -> (AuthService, Vec<Chip>, PufDesign) {
    let generator = serve_generator();
    let n_ros = 2 * generator.response_bits();
    let design = PufDesign::builder(RoStyle::AgingResistant)
        .n_ros(n_ros)
        .seed(2014 ^ 0xe18)
        .build();
    let env = Environment::nominal(design.tech());
    let profile = MissionProfile::typical(design.tech());
    let key_pairs = PairingStrategy::Neighbor.pairs(n_ros);
    let policy = ServicePolicy {
        replicas: DEFAULT_REPLICAS,
        ..ServicePolicy::default()
    };
    let mut service = AuthService::new(policy, FLEET as usize, N_SHARDS, 2014);
    let chips = (0..FLEET)
        .map(|id| {
            let mut chip = Chip::fabricate(&design, id);
            let pairs = Challenge(id).pairs(n_ros, CRP_BITS);
            let reference = chip.golden_response(&design, &env, &pairs);
            let mut rng = design.seed_domain().child("serve-enroll").rng(id);
            let key_golden = chip.golden_response(&design, &env, &key_pairs);
            let (key, helper) = generator.enroll(&key_golden, &mut rng);
            service.enroll(StoredRecord::new(id, pairs, reference, helper, key));
            profile.age_chip(&mut chip, &design, 10.0 * YEAR);
            chip
        })
        .collect();
    (service, chips, design)
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

    // EXP-18's anchor read: a warm 5-vote read of the same chip's 28 815
    // neighbour pairs at nominal conditions. Pairs the readout's noise
    // envelope decides take their nonces without drawing.
    serve_chip.response_voted(&serve, &serve_nominal, &pairs, 5);
    c.bench_function("chip_voted_read", |b| {
        b.iter(|| black_box(serve_chip.response_voted(&serve, &serve_nominal, &pairs, 5)))
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

    // The unit operation of `serve-steady`: one probe, a quorum read of
    // the record and a 64-pair hard read of the device, on the next
    // device each call, as the traffic does. One probe per device first
    // warms every challenge ring's kernel.
    let (service, mut chips, fleet_design) = serve_fleet();
    let fleet_env = Environment::nominal(fleet_design.tech());
    let mut event_base = 0;
    let mut probe = |device: u64| {
        event_base += 8;
        service.probe(
            &mut chips[device as usize],
            device,
            device,
            event_base,
            &fleet_design,
            &fleet_env,
            None,
        )
    };
    for device in 0..FLEET {
        assert!(probe(device).verdict.is_accept());
    }
    c.bench_function("serve_probe", |b| {
        let mut device = 0;
        b.iter(|| {
            device = (device + 1) % FLEET;
            black_box(probe(black_box(device)).verdict)
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
