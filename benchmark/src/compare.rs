//! `aro-perf compare`: judges a change's summary against its parent's
//! with the bounds fixed in `BENCHMARK.json`.

use aro_obs::json::{self, Value};

use crate::stats::{median, spread, verdict, Bound, Verdict};
use crate::workload::Measured;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Absolute slack of `setup_s`: a set-up time near zero may double
/// without mattering to anyone.
const SETUP_FLOOR_S: f64 = 0.05;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: Bound,
}

/// The end-to-end gates `BENCHMARK.json` declares.
///
/// # Errors
/// When the file does not list its metrics as the benchmark expects.
pub fn gates() -> Result<Vec<Gate>, String> {
    let root = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = root.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("an end_to_end metric has no name")?;
            let better = m.get("better").and_then(Value::as_str);
            let share = m.get("bound").and_then(Value::as_f64);
            let (Some(better @ ("higher" | "lower")), Some(share)) = (better, share) else {
                return Err(format!(
                    "{name}: needs `better` higher|lower and a numeric `bound`"
                ));
            };
            let floor = if name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            Ok(Gate {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound: Bound { share, floor },
            })
        })
        .collect()
}

/// The verdicts of one comparison, plus every deterministic signal that
/// did not repeat.
#[derive(Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    pub mismatches: Vec<String>,
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: (f64, f64),
    pub change: (f64, f64),
    pub verdict: Verdict,
}

impl Comparison {
    /// True unless some pair got worse or some deterministic signal moved.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:<12} {:>14} {:>8} {:>14} {:>8}  verdict\n",
            "workload", "metric", "parent", "spread", "change", "spread"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:<12} {:>14.6} {:>7.1}% {:>14.6} {:>7.1}%  {}\n",
                r.workload,
                r.metric,
                r.parent.0,
                r.parent.1 * 100.0,
                r.change.0,
                r.change.1 * 100.0,
                r.verdict.label()
            ));
        }
        for m in &self.mismatches {
            out.push_str(&format!("mismatch: {m}\n"));
        }
        out
    }
}

/// Compares every workload present in both summaries. Counters and
/// output digests must match exactly when both sides ran the same seed.
#[must_use]
pub fn compare(parent: &[Measured], change: &[Measured], gates: &[Gate]) -> Comparison {
    let mut result = Comparison::default();
    for old in parent {
        let Some(new) = change.iter().find(|m| m.workload == old.workload) else {
            result
                .mismatches
                .push(format!("{}: missing from the change", old.workload));
            continue;
        };
        if new.failed > old.failed || (old.correct() && !new.correct()) {
            result.mismatches.push(format!(
                "{}: {} failed operations (parent {}); {}",
                old.workload,
                new.failed,
                old.failed,
                new.errors.join("; ")
            ));
        }
        for gate in gates {
            let samples = |m: &Measured| {
                m.end_to_end
                    .iter()
                    .find(|metric| metric.name == gate.name)
                    .map(|metric| metric.samples.clone())
            };
            let (Some(a), Some(b)) = (samples(old), samples(new)) else {
                result
                    .mismatches
                    .push(format!("{}: no {} on both sides", old.workload, gate.name));
                continue;
            };
            result.rows.push(Row {
                workload: old.workload.clone(),
                metric: gate.name.clone(),
                parent: (median(&a), spread(&a)),
                change: (median(&b), spread(&b)),
                verdict: verdict(gate.higher_is_better, gate.bound, &a, &b),
            });
        }
        if old.seed != new.seed {
            continue;
        }
        if old.digest != new.digest {
            result.mismatches.push(format!(
                "{}: outputs differ at seed {}",
                old.workload, old.seed
            ));
        }
        for counter in old.per_layer.iter().filter(|m| m.unit == "count") {
            let moved = new
                .per_layer
                .iter()
                .find(|m| m.name == counter.name)
                .is_some_and(|m| m.value() != counter.value());
            if moved {
                result
                    .mismatches
                    .push(format!("{}: counter {} moved", old.workload, counter.name));
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Metric;

    fn measured(wall: &[f64], requests: f64) -> Measured {
        Measured {
            workload: "serve-steady".into(),
            seed: 2014,
            reps: wall.len(),
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
            digest: 1,
            latency_note: String::new(),
            end_to_end: vec![Metric {
                name: "wall_s".into(),
                unit: "s".into(),
                samples: wall.to_vec(),
            }],
            per_layer: vec![Metric {
                name: "serve.requests".into(),
                unit: "count".into(),
                samples: vec![requests],
            }],
        }
    }

    fn wall_gate() -> Vec<Gate> {
        gates()
            .expect("BENCHMARK.json parses")
            .into_iter()
            .filter(|g| g.name == "wall_s")
            .collect()
    }

    #[test]
    fn setup_has_the_widest_bound_and_the_floor() {
        let gates = gates().expect("BENCHMARK.json parses");
        let setup = gates.iter().find(|g| g.name == "setup_s").expect("setup_s");
        assert_eq!(setup.bound.floor, 0.05);
        assert!(gates.iter().all(|g| g.bound.share <= setup.bound.share));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_benchmark_prints() {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(metrics)) = root.get(key) else {
                panic!("no {key} list")
            };
            metrics
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).expect("string field");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), crate::workload::end_to_end_names());
        assert_eq!(listed("per_layer"), crate::workload::per_layer_names());
    }

    #[test]
    fn a_slower_change_fails_and_a_moved_counter_is_a_mismatch() {
        let parent = [measured(&[4.0, 4.1, 4.0], 100.0)];
        let same = compare(&parent, &[measured(&[4.1, 4.0, 4.1], 100.0)], &wall_gate());
        assert!(same.passed(), "{}", same.render());
        assert_eq!(same.rows[0].verdict, Verdict::Same);

        let slow = compare(&parent, &[measured(&[6.0, 6.1, 6.0], 100.0)], &wall_gate());
        assert_eq!(slow.rows[0].verdict, Verdict::Worse);
        assert!(!slow.passed());

        let moved = compare(&parent, &[measured(&[4.0, 4.0, 4.0], 101.0)], &wall_gate());
        assert_eq!(moved.mismatches.len(), 1, "{}", moved.render());
        assert!(!moved.passed());
    }
}
