//! The `repro` binary and its offline `repro report` analyses.
//!
//! The [`repro` binary](../src/bin/repro.rs) regenerates every table and
//! figure of the paper (`cargo run --release -p aro-bench --bin repro`).
//! The Criterion benches (`cargo bench -p aro-bench`) time unit operations
//! of the hot kernels; end-to-end timing lives in the `aro-perf`
//! benchmark (`benchmark/`).

pub mod report_cli;
