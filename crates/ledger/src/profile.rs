//! `repro report profile` — span-tree aggregation over a telemetry JSONL
//! capture: per-phase wall time, self vs child time, and the top-k hot
//! spans ranked by self time.
//!
//! Only well-formed `span_open`/`span_close` events are read: the metric
//! and fault lines that interleave with the span stream are ignored, and
//! the torn last line of a killed run's capture is skipped by the reader.

use std::collections::BTreeMap;
use std::path::Path;

use aro_obs::span::{ProfileStats, SpanAgg};

use crate::capture::{self, Fold, Line};
use crate::md::{ms, MdTable};

/// The aggregated profile of one telemetry capture.
#[derive(Debug, Default)]
pub struct Profile {
    agg: SpanAgg,
    /// `span_close` events folded in.
    pub closes: u64,
    /// Lines that were not valid JSON (crash debris).
    pub skipped_lines: usize,
}

impl Fold for Profile {
    fn line(&mut self, line: &Line) {
        let (Some(thread), Some(name)) = (line.u64("thread"), line.str("name")) else {
            return;
        };
        match line.event() {
            "span_open" => self.agg.open(thread, name),
            "span_close" => {
                let dur_ns = line.u64("dur_ns").unwrap_or(0);
                self.agg.close(thread, name, u128::from(dur_ns));
                self.closes += 1;
            }
            _ => {}
        }
    }

    fn skipped(&mut self, lines: usize) {
        self.skipped_lines = lines;
    }
}

impl Profile {
    /// Per-span-name statistics.
    #[must_use]
    pub fn stats(&self) -> &BTreeMap<String, ProfileStats> {
        self.agg.stats()
    }

    /// Renders the per-phase table plus the top-`k` hot-span ranking.
    /// A span's share is its self time over the traced root time; a span
    /// that closed on an `aro-par` worker reads `worker` instead, since
    /// its self time is CPU time spent inside a first-thread span.
    #[must_use]
    pub fn to_markdown(&self, top_k: usize) -> String {
        let mut phases = MdTable::new(
            "Span profile — per-phase wall time",
            &["span", "count", "total ms", "self ms", "mean ms", "max ms"],
        );
        for (name, stats) in self.stats() {
            phases.push_row(vec![
                name.clone(),
                stats.count.to_string(),
                ms(stats.total_ns),
                ms(stats.self_ns()),
                ms(stats.mean_ns()),
                ms(stats.max_ns),
            ]);
        }
        let mut out = phases.to_markdown();
        let mut hot: Vec<(&String, &ProfileStats)> = self.stats().iter().collect();
        hot.sort_by(|a, b| b.1.self_ns().cmp(&a.1.self_ns()).then(a.0.cmp(b.0)));
        hot.truncate(top_k);
        let mut ranking = MdTable::new(
            format!("Hot spans — top {top_k} by self time"),
            &["rank", "span", "self ms", "share"],
        );
        let root_ns = self.agg.root_total_ns();
        for (rank, (name, stats)) in hot.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let share = if self.agg.closed_on_worker(name) {
                "worker".to_string()
            } else if root_ns == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1} %", stats.self_ns() as f64 / root_ns as f64 * 100.0)
            };
            ranking.push_row(vec![
                (rank + 1).to_string(),
                (*name).clone(),
                ms(stats.self_ns()),
                share,
            ]);
        }
        out.push('\n');
        out.push_str(&ranking.to_markdown());
        out.push_str(&format!(
            "\ntraced root time: {} ms over {} span closes",
            ms(root_ns),
            self.closes
        ));
        if self.skipped_lines > 0 {
            out.push_str(&format!(
                " ({} unparsable lines skipped)",
                self.skipped_lines
            ));
        }
        out.push('\n');
        out
    }
}

/// Profiles a telemetry JSONL capture on disk.
///
/// # Errors
/// Returns a description when the file is unreadable or holds no span
/// events at all (the wrong file, or a run without `--telemetry`).
pub fn profile_file(path: &Path) -> Result<Profile, String> {
    let (profile, _) = capture::load::<Profile>(&[path])?;
    if profile.closes == 0 {
        return Err(format!(
            "{}: no span_close events — not a telemetry capture, or spans were disabled",
            path.display()
        ));
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(name: &str, dur_ns: u64) -> String {
        format!(
            r#"{{"event":"span_close","name":"{name}","thread":0,"depth":1,"ts_ns":0,"dur_ns":{dur_ns}}}"#
        )
    }

    fn open(name: &str) -> String {
        format!(r#"{{"event":"span_open","name":"{name}","thread":0,"depth":1,"ts_ns":0}}"#)
    }

    #[test]
    fn aggregates_a_span_stream_with_interleaved_noise() {
        let profile: Profile = capture::parse(
            &[
                open("run").as_str(),
                r#"{"event":"metric","name":"sim.chips_simulated","value":10}"#,
                open("aging").as_str(),
                close("aging", 400).as_str(),
                "garbage line",
                close("run", 1000).as_str(),
            ]
            .join("\n"),
        );
        assert_eq!(profile.closes, 2);
        assert_eq!(profile.skipped_lines, 1);
        assert_eq!(profile.stats()["run"].self_ns(), 600);
        let md = profile.to_markdown(5);
        assert!(md.contains("Span profile"));
        assert!(md.contains("Hot spans"));
        assert!(md.contains("unparsable lines skipped"));
    }

    #[test]
    fn top_k_ranks_by_self_time() {
        let text: String = [("cold", 10), ("warm", 500), ("hot", 2000)]
            .map(|(name, dur)| format!("{}\n{}\n", open(name), close(name, dur)))
            .concat();
        let md = capture::parse::<Profile>(&text).to_markdown(2);
        let ranking = md.split("Hot spans").nth(1).expect("ranking table present");
        assert!(ranking.contains("top 2"));
        assert!(ranking.contains("| 1    | hot"), "{ranking}");
        assert!(ranking.contains("| 2    | warm"), "{ranking}");
        assert!(
            !ranking.contains("cold"),
            "cold is cut by top-k in the ranking"
        );
    }

    #[test]
    fn shares_are_of_the_root_time_and_worker_spans_have_none() {
        let text = [
            open("run"),
            r#"{"event":"span_open","name":"serve.reenroll","thread":1,"depth":1,"ts_ns":0}"#
                .to_string(),
            r#"{"event":"span_close","name":"serve.reenroll","thread":1,"depth":1,"ts_ns":0,"dur_ns":600}"#
                .to_string(),
            close("run", 1000),
        ]
        .join("\n");
        let md = capture::parse::<Profile>(&text).to_markdown(5);
        let ranking = md.split("Hot spans").nth(1).expect("ranking table present");
        let share = |span: &str| {
            ranking
                .lines()
                .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
                .find(|cells| cells.get(2) == Some(&span))
                .map(|cells| cells[4].to_string())
        };
        assert_eq!(share("run").as_deref(), Some("100.0 %"), "{md}");
        assert_eq!(share("serve.reenroll").as_deref(), Some("worker"), "{md}");
    }

    #[test]
    fn profile_file_rejects_span_free_captures() {
        let path =
            std::env::temp_dir().join(format!("aro-profile-test-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"event\":\"metric\"}\n").unwrap();
        assert!(profile_file(&path).is_err());
        std::fs::write(&path, format!("{}\n{}\n", open("run"), close("run", 7))).unwrap();
        let profile = profile_file(&path).unwrap();
        assert_eq!(profile.closes, 1);
        std::fs::remove_file(&path).unwrap();
    }
}
