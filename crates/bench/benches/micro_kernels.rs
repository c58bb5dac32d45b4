//! Microbenches of the hot kernels under every experiment: chip
//! fabrication, BCH encode/decode, Hamming distance, and SHA-256. Ring
//! frequency reads are timed in `perf_hotpath`.

use aro_circuit::ring::RoStyle;
use aro_ecc::bch::BchCode;
use aro_ecc::code::Code;
use aro_ecc::hash::sha256;
use aro_metrics::bits::BitString;
use aro_puf::{Chip, PufDesign};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let design = PufDesign::standard(RoStyle::Conventional, 1);

    c.bench_function("chip_fabricate_256_ros", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            black_box(Chip::fabricate(&design, id))
        })
    });

    let code = BchCode::new(8, 16);
    let message: BitString = (0..code.k()).map(|i| i % 3 == 0).collect();
    let codeword = code.encode(&message);
    let mut corrupted = codeword.clone();
    for i in 0..16 {
        corrupted.flip(i * 14 + 3);
    }
    c.bench_function("bch_255_encode", |b| {
        b.iter(|| black_box(code.encode(black_box(&message))))
    });
    c.bench_function("bch_255_decode_16_errors", |b| {
        b.iter(|| black_box(code.decode(black_box(&corrupted))))
    });

    let a = BitString::from_fn(4096, |i| i % 7 == 0);
    let bstr = BitString::from_fn(4096, |i| i % 5 == 0);
    c.bench_function("hamming_4096_bits", |b| {
        b.iter(|| black_box(a.hamming_distance(black_box(&bstr))))
    });

    let data = vec![0xabu8; 1024];
    c.bench_function("sha256_1_kib", |b| {
        b.iter(|| black_box(sha256(black_box(&data))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
