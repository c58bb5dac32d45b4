//! Fuzz properties for the audit-JSONL readers behind `repro report
//! incidents|slo|trace`: damaged capture lines — truncated at any byte,
//! with one field overwritten by any JSON value, or interleaved with
//! noise — never panic a parser or its renderer, and never cost the valid
//! lines around them.

use aro_ledger::capture;
use aro_ledger::incidents::Incidents;
use aro_ledger::slo::{SloPolicy, SloReport};
use aro_ledger::trace::Trace;
use aro_obs::json;
use proptest::prelude::*;

/// Capture lines from the parsers' unit-test fixtures: the incident
/// chain, an SLO verdict and shed, and the trace spans and fault. The
/// verdicts carry `device`, as `repro --audit` writes them.
const LINES: [&str; 17] = [
    r#"{"event":"audit","stage":"scope","seq":0,"trial":1,"label":"ARO age=10y storm@0.5"}"#,
    r#"{"event":"fault","kind":"env_excursion","chip":3,"count":2,"ts_ns":111}"#,
    r#"{"event":"audit","stage":"request","seq":1,"trial":1,"req":"00000000000000aa","device":3,"target":3,"kind":"genuine","event_base":24}"#,
    r#"{"event":"audit","stage":"store_read","seq":2,"trial":1,"req":"00000000000000aa","outcome":"intact","shard":1,"replica":1,"replicas_lost":1}"#,
    r#"{"event":"audit","stage":"attempt","seq":3,"trial":1,"req":"00000000000000aa","attempt":1,"latency_us":400,"timeout":true,"backoff_us":75,"excursion":true,"burst":false,"glitches":0}"#,
    r#"{"event":"audit","stage":"attempt","seq":4,"trial":1,"req":"00000000000000aa","attempt":2,"latency_us":120,"timeout":false,"backoff_us":0,"distance":0.375,"excursion":true,"burst":false,"glitches":0}"#,
    r#"{"event":"audit","stage":"verdict","seq":5,"trial":1,"req":"00000000000000aa","device":3,"verdict":"rejected","distance":0.375,"attempts":2,"latency_us":595,"quarantined":true,"at_us":595}"#,
    r#"{"event":"audit","stage":"health","seq":6,"trial":1,"from":"healthy","to":"degraded","error_rate":0.28,"at_us":595}"#,
    r#"{"event":"audit","stage":"scrub","seq":7,"trial":1,"device":2,"replica":1,"generation":0,"outcome":"read_repair","at_us":595}"#,
    r#"{"event":"audit","stage":"store_health","seq":9,"trial":1,"from":"intact","to":"quorum-critical","unrecoverable":1,"at_us":595}"#,
    r#"{"event":"audit","stage":"reenroll","seq":10,"trial":1,"req":"00000000000000bb","device":3,"outcome":"readmitted","attempts":1,"generation":2,"at_us":595}"#,
    r#"{"event":"audit","stage":"shed","seq":11,"trial":1,"device":0,"retry_after_us":100,"at_us":0}"#,
    r#"{"event":"audit","stage":"verdict","seq":12,"trial":1,"req":"0000000000000001","device":0,"verdict":"timed_out","attempts":1,"latency_us":2000,"quarantined":false,"at_us":2000}"#,
    r#"{"event":"span_open","name":"run","thread":1,"depth":1,"ts_ns":1000}"#,
    r#"{"event":"span_close","name":"step","thread":2,"depth":2,"ts_ns":8000,"dur_ns":3000}"#,
    r#"{"event":"fault","kind":"dead_ro","chip":7,"count":2,"ts_ns":5000}"#,
    r#"{"event":"fault","kind":"env_excursion","chip":3,"count":1,"ts_ns":6000}"#,
];

/// Valid lines every reader must still see after the damaged ones: a
/// scope, a request and its verdict, and a span, all with marker names.
const SENTINEL: [&str; 4] = [
    r#"{"event":"audit","stage":"scope","seq":90,"trial":9,"label":"sentinel-scope"}"#,
    r#"{"event":"audit","stage":"request","seq":91,"trial":9,"req":"5e5e5e5e5e5e5e5e","device":9,"target":9,"kind":"genuine"}"#,
    r#"{"event":"audit","stage":"verdict","seq":92,"trial":9,"req":"5e5e5e5e5e5e5e5e","device":9,"verdict":"accepted","distance":0.0,"attempts":1,"latency_us":100,"quarantined":false,"at_us":100}"#,
    r#"{"event":"span_close","name":"sentinel-span","thread":9,"depth":1,"ts_ns":100,"dur_ns":50}"#,
];

/// Runs every reader and renderer on `text`, and checks that the
/// sentinel lines appended after it were all read. A panic anywhere
/// fails the calling test with `text` in the message.
fn read_all_and_find_the_sentinel(text: &str) {
    let text = format!("{text}\n{}\n", SENTINEL.join("\n"));
    let incidents = capture::parse::<Incidents>(&text);
    let _ = incidents.to_markdown();
    let sentinel = incidents
        .scopes
        .last()
        .map(|s| (s.label.as_str(), s.requests.len()));
    assert_eq!(
        sentinel,
        Some(("sentinel-scope", 1)),
        "incidents lost the sentinel:\n{text}"
    );

    let slo = capture::parse::<SloReport>(&text);
    let windows = slo.windows(&SloPolicy::default());
    assert!(
        windows
            .iter()
            .any(|w| w.scope == "sentinel-scope" && w.requests == 1),
        "slo lost the sentinel:\n{text}"
    );
    let _ = slo.to_markdown(&SloPolicy::default());

    let trace = capture::parse::<Trace>(&text);
    assert!(
        trace.spans.iter().any(|s| s.0 == "sentinel-span")
            && trace.audit_spans.iter().any(|s| s.1 == 9),
        "trace lost the sentinel:\n{text}"
    );
    assert!(
        json::parse(&trace.to_chrome_json()).is_ok(),
        "trace export is not JSON:\n{text}"
    );
}

/// The `(key, raw value)` members of a flat fixture line.
fn fields(line: &str) -> Vec<(&str, &str)> {
    let inner = &line[1..line.len() - 1];
    let fields: Vec<(&str, &str)> = inner
        .split(",\"")
        .map(|member| {
            let member = member.strip_prefix('"').unwrap_or(member);
            member.split_once("\":").expect("fixture member")
        })
        .collect();
    assert_eq!(
        rebuild(&fields, usize::MAX, ""),
        line,
        "fixture is not flat"
    );
    fields
}

/// Reassembles `fields`, with member `target`'s value replaced.
fn rebuild(fields: &[(&str, &str)], target: usize, replacement: &str) -> String {
    let members: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, (key, value))| {
            let value = if i == target { replacement } else { value };
            format!("\"{key}\":{value}")
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Raw JSON text of an arbitrary replacement value: strings (the stage
/// and event names among them), numbers at and past every integer
/// boundary, `null`, booleans, arrays and objects.
fn arb_json() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..12)
            .prop_map(|bytes| json::escape(&bytes.into_iter().map(char::from).collect::<String>())),
        prop::sample::select(vec![
            "audit",
            "fault",
            "scope",
            "request",
            "verdict",
            "shed",
            "span_close",
            "",
        ])
        .prop_map(json::escape),
        (0u64..100_000).prop_map(|n| n.to_string()),
        any::<u64>().prop_map(|n| n.to_string()),
        Just(u64::MAX.to_string()),
        Just("1e308".to_string()),
        Just("-1e308".to_string()),
        any::<i64>().prop_map(|n| n.to_string()),
        any::<(i32, u16)>().prop_map(|(whole, frac)| format!("{whole}.{frac}")),
        Just("null".to_string()),
        Just("true".to_string()),
        Just("[]".to_string()),
        Just("[1,\"a\",null]".to_string()),
        Just("{}".to_string()),
        Just("{\"event\":\"audit\"}".to_string()),
    ]
}

/// A noise line: arbitrary text, or JSON that is not a capture event.
fn arb_noise() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::collection::vec(32u8..127, 0..40)
            .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII")),
        Just("{".to_string()),
        Just("}".to_string()),
        Just("[]".to_string()),
        Just("null".to_string()),
        Just("42".to_string()),
        Just("\"audit\"".to_string()),
        Just("{\"evt\":\"audit\",\"stage\":\"verdict\"}".to_string()),
        Just("{\"event\":7}".to_string()),
        Just("\u{feff}{\"event\":\"audit\"".to_string()),
    ]
}

#[test]
fn every_truncation_of_every_line_reads_cleanly() {
    for (index, line) in LINES.iter().enumerate() {
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            let mut lines: Vec<&str> = LINES.to_vec();
            lines[index] = &line[..cut];
            read_all_and_find_the_sentinel(&lines.join("\n"));
            read_all_and_find_the_sentinel(&line[..cut]);
        }
    }
}

#[test]
fn boundary_values_in_every_field_read_cleanly() {
    // Every field of every line, set to each integer and float boundary:
    // counts and latencies near `u64::MAX` must not overflow a total.
    const BOUNDARIES: [&str; 7] = [
        "18446744073709551615",
        "18446744073709551614",
        "-1",
        "0",
        "1e308",
        "-1e308",
        "9007199254740993",
    ];
    for (index, line) in LINES.iter().enumerate() {
        let members = fields(line);
        for target in 0..members.len() {
            for value in BOUNDARIES {
                let mut lines: Vec<String> = LINES.iter().map(|l| (*l).to_string()).collect();
                lines[index] = rebuild(&members, target, value);
                read_all_and_find_the_sentinel(&lines.join("\n"));
            }
        }
    }
}

#[test]
fn the_intact_capture_reads_every_line() {
    let text = LINES.join("\n");
    let incidents = capture::parse::<Incidents>(&text);
    assert_eq!(incidents.skipped_lines, 0);
    assert_eq!(incidents.n_requests(), 1);
    assert_eq!(incidents.scopes[0].requests[0].attempts.len(), 2);
    let slo = capture::parse::<SloReport>(&text);
    let windows = slo.windows(&SloPolicy::default());
    assert_eq!(
        (windows.len(), windows[0].requests, windows[0].errors),
        (1, 3, 2)
    );
    let trace = capture::parse::<Trace>(&text);
    assert_eq!(
        (
            trace.spans.len(),
            trace.faults.len(),
            trace.audit_spans.len()
        ),
        (1, 3, 2)
    );
    read_all_and_find_the_sentinel(&text);
}

prop_compose! {
    /// A noise line and the capture position it is inserted at.
    fn arb_placed_noise()(at in 0..=LINES.len(), text in arb_noise()) -> (usize, String) {
        (at, text)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn an_overwritten_field_never_panics_or_costs_a_valid_line(
        line in 0..LINES.len(),
        target in 0..16usize,
        replacement in arb_json(),
    ) {
        let members = fields(LINES[line]);
        let bad = rebuild(&members, target % members.len(), &replacement);
        let mut lines: Vec<String> = LINES.iter().map(|l| (*l).to_string()).collect();
        lines[line] = bad;
        read_all_and_find_the_sentinel(&lines.join("\n"));
    }

    #[test]
    fn noise_lines_change_nothing_but_the_skip_count(
        noise in prop::collection::vec(arb_placed_noise(), 1..8),
    ) {
        let mut lines: Vec<String> = LINES.iter().map(|l| (*l).to_string()).collect();
        for (at, text) in noise.iter().rev() {
            lines.insert(*at, text.clone());
        }
        let noisy = lines.join("\n");
        read_all_and_find_the_sentinel(&noisy);

        let clean = LINES.join("\n");
        let (a, b) = (capture::parse::<Trace>(&noisy), capture::parse::<Trace>(&clean));
        prop_assert_eq!(
            (&a.spans, &a.faults, &a.audit_spans, &a.audit_marks),
            (&b.spans, &b.faults, &b.audit_spans, &b.audit_marks)
        );
        let (a, b) = (capture::parse::<Incidents>(&noisy), capture::parse::<Incidents>(&clean));
        prop_assert_eq!(a.n_requests(), b.n_requests());
        prop_assert_eq!(&a.fault_totals, &b.fault_totals);
        let policy = SloPolicy::default();
        let (a, b) = (capture::parse::<SloReport>(&noisy).windows(&policy), capture::parse::<SloReport>(&clean).windows(&policy));
        prop_assert_eq!(a, b);
    }
}
