//! `aro-ledger` — the read side of observability: a durable run ledger
//! and the analyses that consume it.
//!
//! `aro-obs` makes the engine *emit* telemetry (spans, metrics, JSONL);
//! this crate makes runs *durable and analyzable*:
//!
//! - **Capture** ([`capture`]): the one reader. It loads one or more
//!   JSONL files, ignores blank lines, skips and counts each non-JSON
//!   line once, and folds every parsed line, in file order, into an
//!   analysis ([`capture::Fold`]). The journal, the diff and every
//!   analysis below read through it; each keeps its own field defaults
//!   and its own message for a capture that carries nothing it reads.
//! - **Journal** ([`journal::Ledger`]): an append-only, crash-safe JSONL
//!   file holding one [`record::LedgerRecord`] per completed experiment,
//!   keyed by a config+faults+seed fingerprint. The experiment harness
//!   (`aro-sim::harness`) writes records as experiments finish and flushes
//!   after every append, so a killed paper-scale run loses at most the
//!   experiment in flight. `repro --resume <ledger>` replays cached
//!   reports byte-identically instead of re-running matching experiments.
//! - **Profile** ([`profile`]): span-tree aggregation over a telemetry
//!   JSONL stream — per-phase wall time, self-time vs child-time, top-k
//!   hot spans.
//! - **Diff** ([`diff`]): two ledgers compared per experiment under one
//!   exact verdict: report bytes under one fingerprint, and counters and
//!   health summaries under one process prefix. Wall time is shown,
//!   never judged.
//! - **Health** ([`health`]): fleet-health tables from the streaming
//!   sketches — BER / decode-margin / HD percentiles and cache hit
//!   rates, deterministic at any `--threads N`.
//! - **Trace** ([`trace`]): spans, fault events, and serve audit
//!   verdicts exported as Chrome `chrome://tracing` / Perfetto JSON.
//! - **Incidents** ([`incidents`]): request-scoped forensics over a
//!   serve audit capture — per-device causal timelines, top root
//!   causes, quarantine post-mortems.
//! - **SLO** ([`slo`]): windowed availability and simulated-latency
//!   burn rates over the same audit stream.
//!
//! Schemas and examples live in `docs/OBSERVABILITY.md` ("Run ledger &
//! resume", "Analysis (`repro report`)", and "Serve audit trail &
//! incident forensics").

pub mod capture;
pub mod diff;
pub mod health;
pub mod incidents;
pub mod journal;
pub mod md;
pub mod profile;
pub mod record;
pub mod slo;
pub mod trace;

pub use health::HealthStat;
pub use journal::Ledger;
pub use record::{LedgerRecord, RecordStatus};
