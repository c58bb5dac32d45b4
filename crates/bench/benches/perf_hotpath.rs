//! Microbenches pinning the hot paths the performance work targets: the
//! chip's frequency-kernel cache (an all-hit read of the array, an
//! all-rebuild read, and a soft read of a serve-size chip under a fresh
//! excursion), parallel population fabrication, and one aging-timeline
//! checkpoint.
//!
//! Run with `cargo bench -p aro-bench --bench perf_hotpath`. These time
//! unit operations; end-to-end wall, CPU and memory come from the
//! `aro-perf` benchmark (`benchmark/`, see `docs/PERFORMANCE.md`).

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::units::YEAR;
use aro_puf::{Chip, MissionProfile, PairingStrategy, Population, PufDesign};
use aro_sim::runner::measure_flip_timeline;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

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
