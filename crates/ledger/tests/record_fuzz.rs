//! Fuzz properties for the ledger journal parser: a record line with any
//! one field overwritten by any JSON value never panics the parser and
//! never costs the valid record journalled after it. The corrupted line
//! either parses into a record that round-trips through `to_jsonl`, or
//! is counted as skipped. Arbitrary bytes between records, invalid UTF-8
//! and records torn inside a multi-byte character included, never stop a
//! journal from opening and never cost an intact record.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use aro_ledger::journal::parse_records;
use aro_ledger::{HealthStat, Ledger, LedgerRecord};
use aro_obs::json;
use proptest::prelude::*;

/// Every field a corruption can hit, as `(prefix, value)`: the exact
/// JSON text `valid_record().to_jsonl()` writes for it.
const TARGETS: [(&str, &str); 13] = [
    (r#""fingerprint":"#, r#""0123456789abcdef""#),
    (r#""status":"#, r#""success""#),
    (r#""wall_ns":"#, "1234567"),
    (r#""sim.chips_simulated":"#, "120"),
    (r#""faults.env_excursions":"#, "3"),
    (r#""count":"#, "240"),
    (r#""mean":"#, "0.0125"),
    (r#""p01":"#, "0.001"),
    (r#""p50":"#, "0.01"),
    (r#""p99":"#, "0.05"),
    (r#""csv":["#, r#""a,b\n1,2\n""#),
    (r#""a,b\n1,2\n","#, r#""x\n0.5\n""#),
    (r#""report_md":"#, r###""## EXP-2\n\n| a |\n""###),
];

fn valid_record() -> LedgerRecord {
    let metrics = BTreeMap::from([
        ("sim.chips_simulated".to_string(), 120),
        ("faults.env_excursions".to_string(), 3),
    ]);
    let stat = HealthStat {
        count: 240,
        mean: 0.0125,
        p01: 0.001,
        p50: 0.01,
        p99: 0.05,
    };
    LedgerRecord::success(
        0x0123_4567_89ab_cdef,
        "exp2",
        1_234_567,
        "## EXP-2\n\n| a |\n".to_string(),
        vec!["a,b\n1,2\n".to_string(), "x\n0.5\n".to_string()],
        metrics,
    )
    .with_health(BTreeMap::from([("puf.ber".to_string(), stat)]))
}

/// Strings close to what a field accepts: both statuses; short, signed,
/// empty and overlong fingerprint hex.
const NEAR_MISSES: [&str; 6] = ["success", "failure", "00ff", "+1", "", "0123456789abcdef0"];

/// Raw JSON text of an arbitrary replacement value.
fn arb_json() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..12)
            .prop_map(|bytes| json::escape(&bytes.into_iter().map(char::from).collect::<String>())),
        prop::sample::select(NEAR_MISSES.to_vec()).prop_map(json::escape),
        (0u64..100_000).prop_map(|n| n.to_string()),
        any::<u64>().prop_map(|n| n.to_string()),
        any::<u64>().prop_map(|n| format!("-{}", n.max(1))),
        any::<(i32, u16)>().prop_map(|(whole, frac)| format!("{whole}.{frac}")),
        Just("true".to_string()),
        Just("null".to_string()),
        Just("[]".to_string()),
        Just("{}".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_corrupted_field_never_panics_and_never_costs_the_next_record(
        target in 0..TARGETS.len(),
        replacement in arb_json(),
    ) {
        let valid = valid_record();
        let line = valid.to_jsonl();
        let (prefix, value) = TARGETS[target];
        let field = format!("{prefix}{value}");
        prop_assert!(line.contains(&field), "{field} is not in {line}");
        let bad = line.replacen(&field, &format!("{prefix}{replacement}"), 1);
        let (records, skipped) = parse_records(&format!("{bad}\n{line}\n"));

        prop_assert_eq!(records.last(), Some(&valid), "the valid record survives: {}", bad);
        match records.len() {
            1 => prop_assert_eq!(skipped, 1, "an unparsed record is counted: {}", bad),
            2 => {
                prop_assert_eq!(skipped, 0);
                let back = json::parse(&records[0].to_jsonl())
                    .ok()
                    .and_then(|v| LedgerRecord::from_json(&v));
                prop_assert_eq!(back.as_ref(), Some(&records[0]), "round trip: {}", bad);
            }
            n => panic!("{n} records from two lines: {bad}"),
        }
    }
}

/// A record whose report carries multi-byte characters, as real reports do.
fn non_ascii_record() -> LedgerRecord {
    let mut record = valid_record();
    record.report_md = Some("## EXP-2 — 12 µs, p ≥ 0.95\n".to_string());
    record
}

/// Junk a crash or a foreign writer can leave between two records: raw
/// bytes (mostly invalid UTF-8), or a record line torn at any byte,
/// inside a multi-byte character or not.
fn arb_junk(record_line: &[u8]) -> impl Strategy<Value = Vec<u8>> {
    let line = record_line.to_vec();
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..48),
        (0..line.len()).prop_map(move |cut| line[..cut].to_vec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_between_records_never_cost_an_intact_record(
        junk in prop::collection::vec(arb_junk(non_ascii_record().to_jsonl().as_bytes()), 1..4),
    ) {
        let valid = non_ascii_record();
        let line = valid.to_jsonl();
        let mut journal = Vec::new();
        for chunk in &junk {
            journal.extend_from_slice(line.as_bytes());
            journal.push(b'\n');
            journal.extend_from_slice(chunk);
            journal.push(b'\n');
        }
        journal.extend_from_slice(line.as_bytes());
        let junk_lines: usize = junk.iter().map(|chunk| chunk.split(|&b| b == b'\n').count()).sum();

        let (records, skipped) = parse_records(&journal);
        prop_assert_eq!(records.len(), junk.len() + 1, "{:?}", junk);
        prop_assert!(records.iter().all(|r| *r == valid), "{:?}", junk);
        prop_assert!(skipped <= junk_lines, "{} skips from {} junk lines", skipped, junk_lines);

        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "aro-record-fuzz-{}-{}.jsonl",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &journal).unwrap();
        let opened = Ledger::open(&path);
        std::fs::remove_file(&path).unwrap();
        let opened = opened.map_err(|e| e.to_string());
        prop_assert!(opened.is_ok(), "{:?}", opened.err());
        let ledger = opened.unwrap();
        prop_assert_eq!(ledger.records(), records.as_slice());
        prop_assert_eq!(ledger.skipped_lines(), skipped);
    }
}
