//! The append-only, crash-safe JSONL journal behind `repro --resume`.
//!
//! # Crash safety
//!
//! Every [`Ledger::append`] writes one complete line and flushes before
//! returning, so a killed process loses at most the experiment that was
//! in flight — never a record that was reported as written. On load, a
//! truncated or corrupted **trailing** line (the signature of a crash
//! mid-append) is tolerated and counted, not fatal; when the journal is
//! reopened for appending, the unterminated tail is first sealed with a
//! newline so the next record starts on a fresh line and the corrupt
//! fragment stays an isolated, skippable line forever.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use crate::capture::{self, Fold, Line};
use crate::record::{LedgerRecord, RecordStatus};

/// A run ledger: in-memory index of every parsed record plus an
/// append-mode writer.
#[derive(Debug)]
pub struct Ledger {
    path: PathBuf,
    records: Vec<LedgerRecord>,
    /// Fingerprint -> index of the latest *success* record.
    successes: BTreeMap<u64, usize>,
    skipped_lines: usize,
    writer: BufWriter<File>,
}

impl Ledger {
    /// Creates (truncating) a fresh journal at `path`.
    ///
    /// # Errors
    /// Propagates file creation errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            records: Vec::new(),
            successes: BTreeMap::new(),
            skipped_lines: 0,
            writer: BufWriter::new(file),
        })
    }

    /// Opens (or creates) the journal at `path` for resuming: existing
    /// records are parsed — tolerating a corrupt/truncated trailing line —
    /// and new records will be appended.
    ///
    /// # Errors
    /// Propagates file read/open errors (a missing file is *not* an
    /// error: resuming with no prior ledger starts a fresh one).
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, skipped_lines) = parse_records(&bytes);
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut writer = BufWriter::new(file);
        if !bytes.is_empty() && !bytes.ends_with(b"\n") {
            // Seal the crash-truncated tail (already counted by
            // parse_records) so the next append starts on a fresh line.
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        let mut ledger = Self {
            path: path.to_path_buf(),
            records: Vec::new(),
            successes: BTreeMap::new(),
            skipped_lines,
            writer,
        };
        for record in records {
            ledger.index(record);
        }
        Ok(ledger)
    }

    fn index(&mut self, record: LedgerRecord) {
        if record.status == RecordStatus::Success {
            self.successes
                .insert(record.fingerprint, self.records.len());
        }
        self.records.push(record);
    }

    /// Appends one record and flushes it to disk (crash safety: once this
    /// returns `Ok`, the record survives a kill).
    ///
    /// # Errors
    /// Propagates write/flush errors.
    pub fn append(&mut self, record: &LedgerRecord) -> std::io::Result<()> {
        self.writer.write_all(record.to_jsonl().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.index(record.clone());
        Ok(())
    }

    /// Appends a non-record journal event (header/summary) and flushes.
    ///
    /// # Errors
    /// Propagates write/flush errors.
    pub fn append_raw_event(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal events are single lines");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// The latest success record whose fingerprint matches, if any — the
    /// replay candidate for a resumed experiment.
    #[must_use]
    pub fn cached_success(&self, fingerprint: u64) -> Option<&LedgerRecord> {
        self.successes
            .get(&fingerprint)
            .map(|&index| &self.records[index])
    }

    /// Every parsed record, in journal order.
    #[must_use]
    pub fn records(&self) -> &[LedgerRecord] {
        &self.records
    }

    /// Lines that failed to parse on load (crash debris, foreign text).
    #[must_use]
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The journal path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The records of a journal, and the lines that were not records.
#[derive(Default)]
struct Journal {
    records: Vec<LedgerRecord>,
    skipped: usize,
}

impl Fold for Journal {
    /// Non-record events (header/summary lines) are journal metadata and
    /// pass silently; an `experiment` line missing required fields is
    /// debris, like a non-JSON line.
    fn line(&mut self, line: &Line) {
        match LedgerRecord::from_json(line.value()) {
            Some(record) => self.records.push(record),
            None if line.event() == "experiment" => self.skipped += 1,
            None => {}
        }
    }

    fn skipped(&mut self, lines: usize) {
        self.skipped += lines;
    }
}

/// Parses a journal's bytes into records, counting the lines skipped.
#[must_use]
pub fn parse_records(journal: &(impl AsRef<[u8]> + ?Sized)) -> (Vec<LedgerRecord>, usize) {
    let journal: Journal = capture::parse(journal);
    (journal.records, journal.skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "aro-ledger-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn record(fingerprint: u64, id: &str) -> LedgerRecord {
        LedgerRecord::success(
            fingerprint,
            id,
            42,
            format!("## {id}\n"),
            vec![],
            BTreeMap::new(),
        )
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let path = temp_path("roundtrip");
        {
            let mut ledger = Ledger::create(&path).unwrap();
            ledger
                .append_raw_event(r#"{"event":"ledger_open","schema":"aro-ledger-v1"}"#)
                .unwrap();
            ledger.append(&record(1, "exp1")).unwrap();
            ledger.append(&record(2, "exp2")).unwrap();
        }
        let reopened = Ledger::open(&path).unwrap();
        assert_eq!(reopened.records().len(), 2);
        assert_eq!(reopened.skipped_lines(), 0);
        assert_eq!(reopened.cached_success(1).unwrap().id, "exp1");
        assert_eq!(reopened.cached_success(2).unwrap().id, "exp2");
        assert!(reopened.cached_success(3).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_opens_empty() {
        let path = temp_path("missing");
        let ledger = Ledger::open(&path).unwrap();
        assert!(ledger.records().is_empty());
        assert_eq!(ledger.skipped_lines(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_trailing_line_is_tolerated_and_sealed() {
        let path = temp_path("truncated");
        {
            let mut ledger = Ledger::create(&path).unwrap();
            ledger.append(&record(1, "exp1")).unwrap();
        }
        // Simulate a crash mid-append: an unterminated JSON fragment.
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(br#"{"event":"experiment","fingerprint":"0000"#)
                .unwrap();
        }
        let mut reopened = Ledger::open(&path).unwrap();
        assert_eq!(reopened.records().len(), 1, "the good record survives");
        assert_eq!(reopened.skipped_lines(), 1, "the fragment is counted");
        // Appending after the seal produces a parseable journal.
        reopened.append(&record(2, "exp2")).unwrap();
        drop(reopened);
        let (records, skipped) = parse_records(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_middle_line_is_skipped_without_losing_neighbours() {
        let good = record(9, "exp9").to_jsonl();
        let text = format!("{good}\nnot json at all\n{good}\n");
        let (records, skipped) = parse_records(&text);
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn latest_success_wins_for_a_fingerprint() {
        let path = temp_path("latest");
        let mut ledger = Ledger::create(&path).unwrap();
        let mut first = record(5, "exp5");
        first.wall_ns = 1;
        let mut second = record(5, "exp5");
        second.wall_ns = 2;
        ledger.append(&first).unwrap();
        ledger.append(&second).unwrap();
        assert_eq!(ledger.cached_success(5).unwrap().wall_ns, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failures_are_recorded_but_never_replayed() {
        let path = temp_path("failure");
        let mut ledger = Ledger::create(&path).unwrap();
        let failure = LedgerRecord::failure(6, "exp6", 9, "boom", BTreeMap::new());
        ledger.append(&failure).unwrap();
        assert_eq!(ledger.records().len(), 1);
        assert!(ledger.cached_success(6).is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
