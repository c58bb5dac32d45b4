//! Deterministic metrics: counters and streaming sketches.
//!
//! Both accumulators are exactly associative and commutative, so merging
//! per-worker registries yields byte-identical results regardless of how
//! work was partitioned across threads:
//!
//! - counters are `u64` sums;
//! - sketches share one bucket layout and merge field by field (see
//!   [`crate::sketch`](mod@crate::sketch)); none holds a raw `f64`
//!   running sum, whose value would depend on addition order.
//!
//! Wall-clock span durations are deliberately **not** part of the registry
//! (see [`crate::span`](mod@crate::span)) so a registry snapshot can be
//! compared bit-for-bit across runs and thread counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;
use crate::sketch::Sketch;

/// A set of named counters and streaming sketches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    sketches: BTreeMap<String, Sketch>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.sketches.is_empty()
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Records an observation into the named streaming sketch, created
    /// on first use.
    pub fn sketch_observe(&mut self, name: &str, value: f64) {
        if let Some(s) = self.sketches.get_mut(name) {
            s.observe(value);
        } else {
            let mut s = Sketch::new();
            s.observe(value);
            self.sketches.insert(name.to_string(), s);
        }
    }

    /// Folds one harvested sketch into the named slot, creating it on
    /// first use. This is how the pointer-keyed sketch fast path
    /// ([`crate::sketch()`]) lands in the registry: sketch merge is
    /// commutative, so the fold order cannot perturb the aggregate.
    pub fn fold_sketch(&mut self, name: &str, sketch: &Sketch) {
        if let Some(existing) = self.sketches.get_mut(name) {
            existing.merge(sketch);
        } else {
            self.sketches.insert(name.to_string(), sketch.clone());
        }
    }

    /// Current value of a counter (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The named sketch, if any observation was recorded.
    #[must_use]
    pub fn sketch(&self, name: &str) -> Option<&Sketch> {
        self.sketches.get(name)
    }

    /// All sketches in name order.
    pub fn sketches(&self) -> impl Iterator<Item = (&str, &Sketch)> {
        self.sketches.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into `self`. Every accumulator commutes, so the
    /// result does not depend on merge order.
    pub fn merge(&mut self, other: &Registry) {
        for (name, delta) in &other.counters {
            self.add_counter(name, *delta);
        }
        for (name, sketch) in &other.sketches {
            self.fold_sketch(name, sketch);
        }
    }

    /// A canonical text dump (one metric per line, name order); two
    /// registries are byte-identical iff their dumps are equal.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} = {value}");
        }
        for (name, s) in &self.sketches {
            s.dump_into(&mut out, name);
        }
        out
    }

    /// One JSON object per metric, appended to `lines` (used by the
    /// telemetry sink's final flush).
    pub fn emit_jsonl(&self, lines: &mut Vec<String>) {
        for (name, value) in &self.counters {
            let mut line = String::from("{\"event\":\"counter\",\"name\":");
            json::escape_into(&mut line, name);
            let _ = write!(line, ",\"value\":{value}}}");
            lines.push(line);
        }
        for (name, s) in &self.sketches {
            lines.push(s.to_jsonl(name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Registry::new();
        a.add_counter("sim.chips", 3);
        a.add_counter("sim.chips", 2);
        let mut b = Registry::new();
        b.add_counter("sim.chips", 7);
        b.add_counter("ecc.decodes", 1);
        a.merge(&b);
        assert_eq!(a.counter("sim.chips"), 12);
        assert_eq!(a.counter("ecc.decodes"), 1);
        assert_eq!(a.counter("missing"), 0);
    }

    #[test]
    fn partitioned_merge_is_byte_identical_to_sequential() {
        let values: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.0137).collect();

        let mut sequential = Registry::new();
        for v in &values {
            sequential.add_counter("c", 1);
            sequential.sketch_observe("s", *v);
        }

        for parts in [2, 3, 8] {
            let mut merged = Registry::new();
            for chunk in values.chunks(values.len().div_ceil(parts)) {
                let mut worker = Registry::new();
                for v in chunk {
                    worker.add_counter("c", 1);
                    worker.sketch_observe("s", *v);
                }
                merged.merge(&worker);
            }
            assert_eq!(merged.dump(), sequential.dump(), "parts={parts}");
        }
    }

    #[test]
    fn emit_jsonl_is_valid_json() {
        let mut r = Registry::new();
        r.add_counter("a.count", 2);
        r.sketch_observe("b.sketch", 0.125);
        let mut lines = Vec::new();
        r.emit_jsonl(&mut lines);
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = crate::json::parse(line).expect("valid JSON");
            assert!(v.get("event").is_some());
            assert!(v.get("name").is_some());
        }
    }
}
