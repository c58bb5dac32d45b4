//! JSON out and back in: the result line every `run` prints last, and the
//! summary file `run --json` writes for `compare`.

use aro_obs::json::{self, Value};

use crate::workload::{Measured, Metric};

pub const SCHEMA: &str = "aro-perf-v1";

fn number(v: f64) -> String {
    let mut out = String::new();
    json::number_into(&mut out, v);
    out
}

/// The last stdout line of a run: whether every output check passed,
/// operations attempted and failed, and each metric's value and unit —
/// the end-to-end metrics, or the per-layer ones of a traced run.
#[must_use]
pub fn result_line(measured: &Measured, traced: bool) -> String {
    let metrics = if traced {
        &measured.per_layer
    } else {
        &measured.end_to_end
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(&m.name),
                number(m.value()),
                json::escape(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.correct(),
        measured.attempted,
        measured.failed,
        fields.join(", ")
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples: Vec<String> = m.samples.iter().map(|&s| number(s)).collect();
            format!(
                "{{\"name\": {}, \"unit\": {}, \"value\": {}, \"samples\": [{}]}}",
                json::escape(&m.name),
                json::escape(&m.unit),
                number(m.value()),
                samples.join(", ")
            )
        })
        .collect();
    format!("[{}]", items.join(",\n        "))
}

fn measured_json(m: &Measured) -> String {
    let errors: Vec<String> = m.errors.iter().map(|e| json::escape(e)).collect();
    format!(
        "    {{\"workload\": {}, \"seed\": {}, \"reps\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"digest\": \"{:016x}\", \
         \"latency_note\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {}}}",
        json::escape(&m.workload),
        m.seed,
        m.reps,
        m.correct(),
        m.attempted,
        m.failed,
        errors.join(", "),
        m.digest,
        json::escape(&m.latency_note),
        metrics_json(&m.end_to_end),
        metrics_json(&m.per_layer)
    )
}

/// The summary file of one or more workloads. It ends with `"claim":
/// null`: a run measures, it does not claim a gain.
#[must_use]
pub fn summary_json(results: &[Measured], seconds: u64) -> String {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let workloads: Vec<String> = results.iter().map(measured_json).collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"seconds\": {seconds},\n  \"threads\": {threads},\n  \
         \"workloads\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        workloads.join(",\n")
    )
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn count(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a whole number"))
}

fn array<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(value, key)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

fn parse_metrics(value: &Value, key: &str) -> Result<Vec<Metric>, String> {
    array(value, key)?
        .iter()
        .map(|m| {
            let samples = array(m, "samples")?
                .iter()
                .map(|s| s.as_f64().ok_or("a sample is not a number"))
                .collect::<Result<Vec<f64>, _>>()?;
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                samples,
            })
        })
        .collect()
}

/// Reads a summary file back.
///
/// # Errors
/// On malformed JSON or a missing or mistyped field.
pub fn parse_summary(input: &str) -> Result<Vec<Measured>, String> {
    let root = json::parse(input)?;
    if text(&root, "schema")? != SCHEMA {
        return Err(format!("not an {SCHEMA} summary"));
    }
    array(&root, "workloads")?
        .iter()
        .map(|w| {
            let digest = text(w, "digest")?;
            Ok(Measured {
                workload: text(w, "workload")?,
                seed: count(w, "seed")?,
                reps: usize::try_from(count(w, "reps")?).map_err(|e| e.to_string())?,
                attempted: count(w, "attempted")?,
                failed: count(w, "failed")?,
                errors: array(w, "errors")?
                    .iter()
                    .map(|e| {
                        e.as_str()
                            .map(str::to_string)
                            .ok_or("an error is not a string")
                    })
                    .collect::<Result<_, _>>()?,
                digest: u64::from_str_radix(&digest, 16).map_err(|e| format!("digest: {e}"))?,
                latency_note: text(w, "latency_note")?,
                end_to_end: parse_metrics(w, "end_to_end")?,
                per_layer: parse_metrics(w, "per_layer")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measured {
        Measured {
            workload: "serve-steady".into(),
            seed: 7,
            reps: 2,
            attempted: 76_800,
            failed: 0,
            errors: vec!["a \"quoted\" note".into()],
            digest: 0xfedc_ba98_7654_3210,
            latency_note: "38400 ops per rep".into(),
            end_to_end: vec![Metric {
                name: "wall_s".into(),
                unit: "s".into(),
                samples: vec![4.123_456_789_012_345, 0.1 + 0.2],
            }],
            per_layer: vec![Metric {
                name: "serve.requests".into(),
                unit: "count".into(),
                samples: vec![38_400.0],
            }],
        }
    }

    #[test]
    fn summaries_round_trip_exactly() {
        let written = summary_json(&[sample(), sample()], 10);
        assert!(written.trim_end().ends_with("\"claim\": null\n}"));
        assert_eq!(
            parse_summary(&written).expect("parses"),
            vec![sample(), sample()]
        );
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let line = result_line(&sample(), false);
        assert!(!line.contains('\n'));
        let value = json::parse(&line).expect("valid JSON");
        let Value::Object(keys) = &value else {
            panic!("not an object")
        };
        let names: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(names, ["attempted", "correct", "failed", "metrics"]);
        let wall = value
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        let traced = json::parse(&result_line(&sample(), true)).expect("valid JSON");
        assert!(traced
            .get("metrics")
            .and_then(|m| m.get("serve.requests"))
            .is_some());
    }

    #[test]
    fn malformed_summaries_are_errors() {
        assert!(parse_summary("{").is_err());
        assert!(parse_summary("{\"schema\": \"other\"}").is_err());
        assert!(parse_summary("{\"schema\": \"aro-perf-v1\", \"workloads\": [{}]}").is_err());
    }
}
