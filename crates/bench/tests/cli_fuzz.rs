//! Fuzzes `repro`'s argument parsing: any argument list, however
//! malformed, must end in a clean exit — 0, 1 or 2, with a `repro` line
//! on stderr for every failure — and never in a panic (exit 101) or a
//! signal.
//!
//! Every case ends in `--list --list`, so a parse that succeeds lists the
//! experiments instead of starting a run: a flag that takes a value can
//! swallow one `--list` (`repro --csv --list` is a CSV directory named
//! `--list`), never both.
#![cfg(unix)]

use std::ffi::OsString;
use std::os::unix::ffi::OsStringExt;
use std::process::{Command, Output};

use aro_sim::experiments::REGISTRY;
use proptest::prelude::*;

/// Every run-mode flag; `report`, its subcommands and their flags, and
/// `diff`'s removed `--threshold`; numbers at and past the numeric
/// bounds; fault-plan specs, valid and not. The experiment ids come from
/// the registry.
const WORDS: &str = "--quick --seed --csv --telemetry --audit --threads --replicas --faults \
    --fail --ledger --resume --quiet --list --help -h \
    report profile diff health trace incidents slo --top --threshold --window \
    --availability-slo --latency-slo-us \
    0 4 5 -1 18446744073709551615 18446744073709551616 1e309 NaN \
    off smoke@0.5 storm@-1 storm@nan bogus";

/// Spawns `repro` with `args` plus `--list --list`, asserts a clean exit
/// and returns the output.
fn assert_exits_cleanly(args: Vec<OsString>) -> Output {
    let mut args = args;
    args.extend(["--list", "--list"].map(OsString::from));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        matches!(out.status.code(), Some(0..=2)),
        "{args:?} exited {:?} (101 is a panic, no code a signal)\n{stderr}",
        out.status
    );
    assert!(
        out.status.success() || stderr.lines().any(|line| line.starts_with("repro")),
        "{args:?} failed without a `repro` line on stderr: {stderr}"
    );
    out
}

/// A flag, subcommand, experiment id, number or plan spec.
fn word() -> impl Strategy<Value = OsString> {
    let ids = REGISTRY.iter().map(|&(id, _, _)| id);
    let words: Vec<&'static str> = WORDS.split_whitespace().chain(ids).collect();
    prop::sample::select(words).prop_map(OsString::from)
}

fn token() -> impl Strategy<Value = OsString> {
    prop_oneof![
        word(),
        word(),
        word(),
        // Short arbitrary strings: printable ASCII, and raw bytes that
        // are mostly not UTF-8 (NUL cannot be passed to a process).
        prop::collection::vec(b' '..=b'~', 0..6).prop_map(OsString::from_vec),
        prop::collection::vec(1u8..=255, 1..6).prop_map(OsString::from_vec),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_argument_list_exits_cleanly(args in prop::collection::vec(token(), 1..=6)) {
        assert_exits_cleanly(args);
    }
}

/// A non-UTF-8 argument, in run mode and in `report` mode:
/// `std::env::args` panicked on it.
#[test]
fn a_non_utf8_argument_is_a_usage_error() {
    for args in [vec![vec![0xff]], vec![b"report".to_vec(), vec![0xc3, 0x28]]] {
        let out = assert_exits_cleanly(args.into_iter().map(OsString::from_vec).collect());
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("is not valid UTF-8"), "{stderr}");
    }
}
