//! Microbenches pinning the three hot paths the performance work targets:
//! the precomputed frequency kernel (cached query vs forced rebuild),
//! parallel population fabrication, and one aging-timeline checkpoint.
//!
//! Run with `cargo bench -p aro-bench --bench perf_hotpath`. These time
//! unit operations; end-to-end wall, CPU and memory come from the
//! `aro-perf` benchmark (`benchmark/`, see `docs/PERFORMANCE.md`).

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::units::YEAR;
use aro_puf::{Chip, MissionProfile, Population, PufDesign};
use aro_sim::runner::measure_flip_timeline;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let design = PufDesign::standard(RoStyle::AgingResistant, 7);
    let tech = design.tech();
    let nominal = Environment::nominal(tech);
    // The ring keeps two warm kernels (most recently used first), so
    // alternating two environments would time cache hits. Cycling three
    // evicts the next environment's kernel before every query, so each
    // one measures the full rebuild.
    let hot = Environment::new(85.0, tech.vdd_nominal);
    let cold = Environment::new(-20.0, tech.vdd_nominal);
    let chip = Chip::fabricate(&design, 0);

    c.bench_function("freq_kernel_cached_query", |b| {
        // Steady state: the kernel is valid, every call is a cache hit.
        black_box(chip.frequency(&design, &nominal, 0));
        b.iter(|| black_box(chip.frequency(&design, &nominal, black_box(0))))
    });

    c.bench_function("freq_kernel_rebuild", |b| {
        let envs = [&nominal, &hot, &cold];
        let mut next = 0;
        b.iter(|| {
            next = (next + 1) % envs.len();
            black_box(chip.frequency(&design, envs[next], black_box(0)))
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
