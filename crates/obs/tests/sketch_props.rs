//! Property tests for the sketch determinism contract: splitting a value
//! stream across workers and merging the per-worker sketches in
//! worker-index order must be **byte-identical** to sequential
//! accumulation — the guarantee `repro report health` leans on to stay
//! reproducible at any `--threads N`.

use aro_obs::json::{self, Value};
use aro_obs::{Registry, Sketch};
use proptest::prelude::*;

/// Values spanning every regime a sketch distinguishes: negatives, exact
/// zeros, underflow, in-range magnitudes from 1e-9 to 1e10, and overflow.
fn stream_value(seed: u64) -> f64 {
    let m = seed % 1000;
    #[allow(clippy::cast_precision_loss)]
    let mantissa = 1.0 + (m as f64) / 250.0;
    #[allow(clippy::cast_possible_wrap)]
    let exp = (seed / 1000 % 25) as i32 - 12; // 10^-12 .. 10^12
    match seed % 23 {
        0 => 0.0,
        1 => -mantissa,
        _ => mantissa * 10f64.powi(exp),
    }
}

/// Any JSON number: small integers around the layout constants,
/// full-range integers, and arbitrary `f64` bit patterns (fractions,
/// subnormals, infinities and NaN included).
#[allow(clippy::cast_precision_loss)]
fn any_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-20i64..200).prop_map(|n| n as f64),
        any::<i64>().prop_map(|n| n as f64),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// The numeric fields of a sketch event the corruption property targets;
/// the last two address the first sparse bucket's `[index, count]` pair.
const FIELDS: [&str; 10] = [
    "per_decade",
    "min_exp",
    "max_exp",
    "count",
    "neg",
    "zero",
    "low",
    "high",
    "bucket index",
    "bucket count",
];

fn dump(s: &Sketch) -> String {
    let mut out = String::new();
    s.dump_into(&mut out, "prop");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Worker-index-order merge over any contiguous partition equals
    /// sequential accumulation, byte for byte.
    #[test]
    fn split_and_merge_is_byte_identical_to_sequential(
        seeds in prop::collection::vec(any::<u64>(), 1..400),
        n_workers in 1usize..12,
    ) {
        let values: Vec<f64> = seeds.iter().map(|&s| stream_value(s)).collect();

        let mut sequential = Sketch::default();
        for &v in &values {
            sequential.observe(v);
        }

        let chunk = values.len().div_ceil(n_workers);
        let mut merged = Sketch::default();
        for worker_chunk in values.chunks(chunk) {
            let mut worker = Sketch::default();
            for &v in worker_chunk {
                worker.observe(v);
            }
            merged.merge(&worker);
        }

        prop_assert_eq!(dump(&merged), dump(&sequential));
    }

    /// Merge is insensitive to observation order entirely (all sketch
    /// accumulators are commutative), so even an adversarial scheduler
    /// that interleaves observations cannot perturb the bytes.
    #[test]
    fn observation_order_is_irrelevant(
        seeds in prop::collection::vec(any::<u64>(), 1..200),
        rot in any::<u64>(),
    ) {
        let values: Vec<f64> = seeds.iter().map(|&s| stream_value(s)).collect();
        let mut forward = Sketch::default();
        for &v in &values {
            forward.observe(v);
        }
        let mut rotated = Sketch::default();
        let pivot = (rot as usize) % values.len();
        for &v in values[pivot..].iter().chain(&values[..pivot]) {
            rotated.observe(v);
        }
        let mut reversed = Sketch::default();
        for &v in values.iter().rev() {
            reversed.observe(v);
        }
        prop_assert_eq!(dump(&forward), dump(&rotated));
        prop_assert_eq!(dump(&forward), dump(&reversed));
    }

    /// The JSONL round trip preserves every accumulator bit, so `report
    /// health` reconstructs exactly what the run recorded.
    #[test]
    fn jsonl_round_trip_preserves_bytes(
        seeds in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut s = Sketch::default();
        for &seed in &seeds {
            s.observe(stream_value(seed));
        }
        let line = s.to_jsonl("prop.metric");
        let v = aro_obs::json::parse(&line).expect("sketch JSONL parses");
        let (name, back) = Sketch::from_json(&v).expect("well-formed sketch event");
        prop_assert_eq!(name.as_str(), "prop.metric");
        prop_assert_eq!(dump(&back), dump(&s));
    }

    /// Registry-level split/merge determinism with sketches riding along
    /// counters and histograms — the exact shape of the aro-par handoff.
    #[test]
    fn registry_merge_carries_sketches_deterministically(
        seeds in prop::collection::vec(any::<u64>(), 1..200),
        n_workers in 1usize..8,
    ) {
        let mut sequential = Registry::new();
        for &seed in &seeds {
            sequential.add_counter("c", 1);
            sequential.sketch_observe("s", stream_value(seed));
        }

        let chunk = seeds.len().div_ceil(n_workers);
        let mut merged = Registry::new();
        for worker_chunk in seeds.chunks(chunk) {
            let mut worker = Registry::new();
            for &seed in worker_chunk {
                worker.add_counter("c", 1);
                worker.sketch_observe("s", stream_value(seed));
            }
            merged.merge(&worker);
        }

        prop_assert_eq!(merged.dump(), sequential.dump());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `from_json` reads captures from outside the program: overwriting
    /// one numeric field of a valid sketch event with any number yields
    /// `None` or `Some`, never a panic, and a layout field other than the
    /// built-in constant always yields `None`.
    #[test]
    fn from_json_fails_closed_on_a_corrupted_field(
        seeds in prop::collection::vec(any::<u64>(), 0..100),
        field in 0..FIELDS.len(),
        x in any_number(),
    ) {
        let mut s = Sketch::default();
        s.observe(0.5); // at least one bucket to corrupt
        for &seed in &seeds {
            s.observe(stream_value(seed));
        }
        let Ok(Value::Object(mut event)) = json::parse(&s.to_jsonl("prop.metric")) else {
            panic!("sketch JSONL parses to an object");
        };
        let target = match FIELDS[field] {
            "bucket index" | "bucket count" => {
                let Some(Value::Array(pairs)) = event.get_mut("buckets") else {
                    panic!("buckets is an array");
                };
                let Value::Array(pair) = &mut pairs[0] else {
                    panic!("a bucket is an [index, count] pair");
                };
                &mut pair[usize::from(FIELDS[field] == "bucket count")]
            }
            name => event.get_mut(name).expect("every field is present"),
        };
        let original = target.as_f64();
        *target = Value::Number(x);
        let parsed = Sketch::from_json(&Value::Object(event));
        let layout = matches!(FIELDS[field], "per_decade" | "min_exp" | "max_exp");
        if layout && original != Some(x) {
            prop_assert!(parsed.is_none(), "{} = {x} must be refused", FIELDS[field]);
        }
    }
}

#[test]
fn delta_since_then_remerge_is_identity() {
    // delta_since must be the exact inverse of merge on every counter:
    // re-merging the delta onto the earlier snapshot restores the final
    // sketch (up to the documented run-cumulative min/max).
    let mut s = Sketch::new();
    for i in 0..500u64 {
        s.observe(stream_value(i.wrapping_mul(0x9e37_79b9)));
    }
    let before = s.clone();
    for i in 500..900u64 {
        s.observe(stream_value(i.wrapping_mul(0x9e37_79b9)));
    }
    let delta = s.delta_since(&before);
    let mut rebuilt = before.clone();
    rebuilt.merge(&delta);
    assert_eq!(rebuilt.count(), s.count());
    let (mut a, mut b) = (String::new(), String::new());
    rebuilt.dump_into(&mut a, "x");
    s.dump_into(&mut b, "x");
    // min/max in the delta are run-cumulative, so the remerge restores
    // the full sketch exactly.
    assert_eq!(a, b);
}
