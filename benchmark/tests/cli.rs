//! `aro-perf` behaviour that needs the built binary or the manifests.

use std::process::{Command, Output};

fn aro_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aro-perf"))
        .args(args)
        .output()
        .expect("aro-perf runs")
}

#[test]
fn usage_errors_exit_2_without_a_panic() {
    let cases: [&[&str]; 9] = [
        &[],
        &["bogus"],
        &["run", "--workload", "nope"],
        &["run", "--frobnicate"],
        &["run", "--seed"],
        &["run", "--seed", "x"],
        &["run", "--trace", "2"],
        &["run", "--seconds", "0"],
        &["compare", "only-one.json"],
    ];
    for args in cases {
        let out = aro_perf(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// The `[profile.release]` table of a manifest, without comments or
/// blank lines.
fn release_profile(manifest: &str) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest is readable");
    text.lines()
        .skip_while(|line| line.trim() != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let ours = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(ours, root, "the benchmark must build with repro's codegen");
}
