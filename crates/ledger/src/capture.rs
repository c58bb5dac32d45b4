//! The one reader behind every `repro report` analysis and the run
//! ledger: a capture is one or more JSONL files, and an analysis is a
//! [`Fold`] over their parsed lines.
//!
//! The reading rule lives here and nowhere else: a capture is read as
//! bytes and split at newlines; blank lines are ignored; every other line
//! is parsed once, and one that is not UTF-8 or not JSON is skipped and
//! counted once, so a crash that tears a line inside a multi-byte
//! character costs that line and nothing else; every parsed line reaches
//! the analysis, in file order. Which events an analysis reads, and the
//! default of every field it reads, belong to the analysis. Only one
//! line's parse tree is alive at a time.

use std::path::Path;

use aro_obs::json::{self, Value};

/// One parsed capture line, with typed access to its top-level fields.
#[derive(Debug)]
pub struct Line(Value);

impl Line {
    /// The `event` name (`""` when the line has none).
    #[must_use]
    pub fn event(&self) -> &str {
        self.str("event").unwrap_or_default()
    }

    /// A string field.
    #[must_use]
    pub fn str(&self, key: &str) -> Option<&str> {
        self.0.get(key).and_then(Value::as_str)
    }

    /// An unsigned integer field.
    #[must_use]
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.0.get(key).and_then(Value::as_u64)
    }

    /// A numeric field.
    #[must_use]
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.0.get(key).and_then(Value::as_f64)
    }

    /// A boolean field.
    #[must_use]
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.0.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// The whole parsed line, for readers of nested records.
    #[must_use]
    pub fn value(&self) -> &Value {
        &self.0
    }
}

/// An analysis built by folding a capture's lines.
pub trait Fold: Default {
    /// Folds one parsed line; events the analysis does not read are
    /// ignored.
    fn line(&mut self, line: &Line);

    /// Takes the number of non-JSON lines the reader skipped.
    fn skipped(&mut self, lines: usize);
}

/// Passes every parsed line of `bytes` to `each`, in order, and returns
/// the number of lines skipped for not being UTF-8 or not being JSON.
fn fold(bytes: &[u8], mut each: impl FnMut(&Line)) -> usize {
    let mut skipped = 0;
    for line in bytes.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Ok(line) = std::str::from_utf8(line) else {
            skipped += 1;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line) {
            Ok(value) => each(&Line(value)),
            Err(_) => skipped += 1,
        }
    }
    skipped
}

/// Folds a capture's bytes into a fresh analysis.
#[must_use]
pub fn parse<F: Fold>(capture: &(impl AsRef<[u8]> + ?Sized)) -> F {
    let mut analysis = F::default();
    let skipped = fold(capture.as_ref(), |line| analysis.line(line));
    analysis.skipped(skipped);
    analysis
}

/// Reads `paths` in order and folds all their lines into one analysis.
/// Returns it with the capture's label: the file names joined with
/// ` + `.
///
/// # Errors
/// `cannot read PATH: …` for the first file that cannot be read.
pub fn load<F: Fold>(paths: &[impl AsRef<Path>]) -> Result<(F, String), String> {
    let mut analysis = F::default();
    let mut skipped = 0;
    let mut labels = Vec::with_capacity(paths.len());
    for path in paths.iter().map(AsRef::as_ref) {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        labels.push(path.file_name().map_or_else(
            || path.display().to_string(),
            |name| name.to_string_lossy().into_owned(),
        ));
        skipped += fold(&bytes, |line| analysis.line(line));
    }
    analysis.skipped(skipped);
    Ok((analysis, labels.join(" + ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Events {
        names: Vec<String>,
        skipped: usize,
    }

    impl Fold for Events {
        fn line(&mut self, line: &Line) {
            self.names.push(line.event().to_string());
        }

        fn skipped(&mut self, lines: usize) {
            self.skipped = lines;
        }
    }

    #[test]
    fn blank_lines_are_ignored_and_debris_is_counted_once() {
        let text = "{\"event\":\"a\"}\n\n   \nnot json\n{\"event\":\"b\"}\n{\"event\":\"c\"";
        let events: Events = parse(text);
        assert_eq!(events.names, ["a", "b"], "parsed lines arrive in order");
        assert_eq!(events.skipped, 2, "the debris line and the torn tail");
    }

    #[test]
    fn a_line_torn_inside_a_character_is_debris() {
        let record = "{\"event\":\"a\",\"note\":\"µs ≥ 1\"}";
        let cut = record.find('µ').unwrap() + 1;
        let mut bytes = format!("{record}\r\n").into_bytes();
        bytes.extend_from_slice(&record.as_bytes()[..cut]);
        bytes.extend_from_slice(b"\n\xff\xfe\n{\"event\":\"b\"}");
        let path =
            std::env::temp_dir().join(format!("aro-capture-torn-{}.jsonl", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let (events, _) = load::<Events>(&[&path]).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            events.names,
            ["a", "b"],
            "the lines around the tear survive"
        );
        assert_eq!(events.skipped, 2, "the torn line and the stray bytes");
    }

    #[test]
    fn fields_read_by_type_and_a_missing_event_reads_empty() {
        let mut lines = Vec::new();
        fold(br#"{"s":"x","n":7,"f":0.5,"b":true}"#, |line| {
            lines.push((
                line.event().to_string(),
                line.str("s").map(str::to_string),
                line.u64("n"),
                line.f64("f"),
                line.bool("b"),
                line.u64("s"),
            ));
        });
        assert_eq!(
            lines,
            [(
                String::new(),
                Some("x".to_string()),
                Some(7),
                Some(0.5),
                Some(true),
                None
            )]
        );
    }

    #[test]
    fn files_fold_in_order_under_one_label() {
        let dir = std::env::temp_dir();
        let first = dir.join(format!("aro-capture-a-{}.jsonl", std::process::id()));
        let second = dir.join(format!("aro-capture-b-{}.jsonl", std::process::id()));
        std::fs::write(&first, "{\"event\":\"a\"}\nnot json\n").unwrap();
        std::fs::write(&second, "{\"event\":\"b\"}\n").unwrap();
        let (events, label) = load::<Events>(&[&first, &second]).unwrap();
        assert_eq!(events.names, ["a", "b"]);
        assert_eq!(events.skipped, 1);
        assert_eq!(
            label,
            format!(
                "aro-capture-a-{0}.jsonl + aro-capture-b-{0}.jsonl",
                std::process::id()
            )
        );
        std::fs::remove_file(&second).unwrap();
        let err = load::<Events>(&[&first, &second]).unwrap_err();
        assert!(err.starts_with("cannot read "), "{err}");
        std::fs::remove_file(&first).unwrap();
    }
}
