//! Property tests for the JSON parser every telemetry and ledger reader
//! goes through: it must fail closed on any input — an `Err`, never a
//! panic or a stack overflow — and round-trip whatever the writer side
//! emits.

use aro_obs::json::{self, Value, MAX_DEPTH};
use aro_obs::Sketch;
use proptest::prelude::*;

/// Fragments JSON text is made of: punctuation, digits and signs, the
/// literal words and their prefixes, backslash escapes (valid, truncated
/// and bogus), whitespace, a multi-byte char, and bracket runs deep
/// enough to cross [`MAX_DEPTH`] in one document.
const FRAGMENTS: [&str; 36] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "0",
    "7",
    "-",
    "+",
    ".",
    "e",
    "E",
    "1e308",
    "true",
    "false",
    "null",
    "t",
    "nul",
    "\\",
    "\\\"",
    "\\\\",
    "\\n",
    "\\u00e9",
    "\\u12",
    "\\x",
    " ",
    "\n",
    "\t",
    "é",
    "\"k\":",
    "[[[[[[[[",
    "]]]]]]]]",
    "{\"a\":{\"b\":",
    "}}",
];

/// A code point from each UTF-8 width, controls included; surrogates
/// (not chars) fall back to U+FFFD.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        0x20u32..0x80,
        0x80u32..0x800,
        0x800u32..0x1_0000,
        0x1_0000u32..0x11_0000
    ]
    .prop_map(|code| char::from_u32(code).unwrap_or('\u{fffd}'))
}

/// One real line of each kind a reader meets: a sketch flush event and a
/// ledger experiment record (as `LedgerRecord::to_jsonl` writes it).
fn real_lines() -> [String; 2] {
    let mut sketch = Sketch::default();
    for v in [1e-3, 2.5e-3, 0.0, -4.0, 7e12] {
        sketch.observe(v);
    }
    let record = concat!(
        r#"{"event":"experiment","fingerprint":"0123456789abcdef","id":"exp2","#,
        r#""status":"success","wall_ns":1234567,"#,
        r#""metrics":{"faults.env_excursions":3,"sim.chips_simulated":120},"#,
        r#""health":{"puf.ber":{"count":240,"mean":0.0125,"p01":0.001,"p50":0.01,"p99":0.05}},"#,
        r###""report_md":"## EXP-2 — flips\n\n| a |\n","csv":["a,b\n1,2\n"]}"###,
    );
    [sketch.to_jsonl("puf.ber"), record.to_string()]
}

/// One number inside `kinds.len()` nested containers: an array where
/// `kinds` is true, an object otherwise.
fn nested(kinds: &[bool]) -> String {
    let open: String = kinds
        .iter()
        .map(|&array| if array { "[" } else { "{\"k\":" })
        .collect();
    let close: String = kinds
        .iter()
        .rev()
        .map(|&array| if array { "]" } else { "}" })
        .collect();
    format!("{open}0{close}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_json_shaped_noise(
        picks in prop::collection::vec(0..FRAGMENTS.len(), 0..80),
    ) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        // Any outcome is fine as long as it is a value, not a panic.
        let _ = json::parse(&text);
    }

    #[test]
    fn escape_then_parse_round_trips_any_string(
        chars in prop::collection::vec(any_char(), 0..64),
    ) {
        let s: String = chars.into_iter().collect();
        prop_assert_eq!(json::parse(&json::escape(&s)), Ok(Value::String(s)));
    }

    #[test]
    fn number_into_then_parse_round_trips_finite_bits(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let mut text = String::new();
        json::number_into(&mut text, v);
        let parsed = json::parse(&text);
        if v.is_finite() {
            let back = parsed.ok().and_then(|p| p.as_f64()).map(f64::to_bits);
            prop_assert_eq!(back, Some(bits), "{} from {}", text, v);
        } else {
            prop_assert_eq!(parsed, Ok(Value::Null));
        }
    }

    #[test]
    fn nesting_parses_up_to_max_depth_and_fails_past_it(
        kinds in prop::collection::vec(any::<bool>(), 1..=MAX_DEPTH + 16),
    ) {
        let doc = nested(&kinds);
        prop_assert_eq!(json::parse(&doc).is_ok(), kinds.len() <= MAX_DEPTH, "depth {}", kinds.len());
    }
}

#[test]
fn pathological_nesting_is_an_error_not_a_stack_overflow() {
    for doc in [
        "[".repeat(100_000),
        format!("{}{}", "[".repeat(100_000), "]".repeat(100_000)),
        "{\"k\":".repeat(100_000),
    ] {
        let err = json::parse(&doc).expect_err("nesting past MAX_DEPTH");
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}

#[test]
fn real_lines_parse_whole_and_fail_truncated_at_every_byte() {
    for line in real_lines() {
        assert!(json::parse(&line).is_ok(), "{line}");
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            assert!(
                json::parse(&line[..cut]).is_err(),
                "accepted a truncation: {}",
                &line[..cut]
            );
        }
    }
}
