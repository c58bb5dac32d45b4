//! Human-readable run summaries for instrumented runs: renders the
//! `aro-obs` metrics registry and span timing table through the same
//! [`crate::table::Table`] machinery the experiments use, so `repro`
//! output stays visually uniform.

use std::collections::BTreeMap;

use aro_obs::{Registry, SpanStats};

use crate::table::Table;

fn ms(ns: u128) -> String {
    #[allow(clippy::cast_precision_loss)]
    let v = ns as f64 / 1e6;
    format!("{v:.3}")
}

/// The span timing table (name order): count, total, mean and max wall
/// time per span name.
#[must_use]
pub fn span_table(timings: &BTreeMap<String, SpanStats>) -> Table {
    let mut t = Table::new(
        "Run summary — spans",
        &["span", "count", "total ms", "mean ms", "max ms"],
    );
    for (name, stats) in timings {
        t.push_row(vec![
            name.clone(),
            stats.count.to_string(),
            ms(stats.total_ns),
            ms(stats.mean_ns()),
            ms(stats.max_ns),
        ]);
    }
    t
}

/// The metrics table (counters, then sketch summaries, each block in name
/// order).
#[must_use]
pub fn metrics_table(registry: &Registry) -> Table {
    let mut t = Table::new("Run summary — metrics", &["metric", "kind", "value"]);
    for (name, value) in registry.counters() {
        t.push_row(vec![name.to_string(), "counter".into(), value.to_string()]);
    }
    for (name, s) in registry.sketches() {
        t.push_row(vec![
            name.to_string(),
            "sketch".into(),
            format!(
                "count={} mean={:.6} p1={:.6} p50={:.6} p99={:.6}",
                s.count(),
                s.mean(),
                s.quantile(0.01),
                s.quantile(0.5),
                s.quantile(0.99),
            ),
        ]);
    }
    t
}

/// Renders the full run summary (spans + metrics) as markdown; empty
/// string when nothing was recorded, so un-instrumented runs print
/// nothing extra.
#[must_use]
pub fn render_run_summary(registry: &Registry, timings: &BTreeMap<String, SpanStats>) -> String {
    if registry.is_empty() && timings.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    if !timings.is_empty() {
        out.push_str(&span_table(timings).to_markdown());
        out.push('\n');
    }
    if !registry.is_empty() {
        out.push_str(&metrics_table(registry).to_markdown());
    }
    out
}

/// Summary of whatever the current thread has accumulated so far.
#[must_use]
pub fn current_run_summary() -> String {
    render_run_summary(&aro_obs::snapshot(), &aro_obs::timing_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_renders_nothing() {
        assert_eq!(render_run_summary(&Registry::new(), &BTreeMap::new()), "");
    }

    #[test]
    fn summary_lists_each_metric_kind_and_span() {
        let mut registry = Registry::new();
        registry.add_counter("sim.chips_simulated", 42);
        registry.sketch_observe("puf.ber", 0.125);
        let mut timings = BTreeMap::new();
        timings.insert(
            "exp.exp2".to_string(),
            SpanStats {
                count: 1,
                total_ns: 2_500_000,
                max_ns: 2_500_000,
            },
        );
        let md = render_run_summary(&registry, &timings);
        assert!(md.contains("Run summary — spans"));
        assert!(md.contains("exp.exp2"));
        assert!(md.contains("2.500"));
        assert!(md.contains("sim.chips_simulated"));
        assert!(md.contains("counter"));
        assert!(md.contains("sketch"));
        assert!(md.contains("count=1 mean=0.125"));
        assert!(md.contains("puf.ber"));
    }
}
