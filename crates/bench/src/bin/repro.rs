//! `repro` — regenerates every table and figure of the ARO-PUF paper.
//!
//! ```text
//! repro                          # all experiments at paper scale (100 chips)
//! repro exp2 exp5                # a subset
//! repro --quick                  # all experiments at smoke-test scale
//! repro --seed 7 exp3            # a different Monte Carlo seed
//! repro --csv out/               # additionally dump every table as CSV
//! repro --telemetry run.jsonl    # JSON-lines span/metric telemetry
//! repro --audit --telemetry run.jsonl exp18  # request-scoped serve audit trail
//! repro --threads 4              # force the worker-thread count
//! repro --replicas 3             # store replication factor (serve modes)
//! repro --faults smoke           # run under an injected-fault plan
//! repro --fail exp3              # force exp3 to panic (chaos testing)
//! repro --quiet                  # suppress report output (for timing runs)
//! repro --ledger run.ledger      # journal every experiment outcome
//! repro --resume run.ledger      # resume: replay completed experiments
//!                                # from the journal, run only the rest
//! repro report profile run.jsonl # span-tree profile of a telemetry file
//! repro report diff OLD NEW      # per-experiment ledger diff, exit 5
//!                                # when outputs drifted
//! repro report incidents run.jsonl  # serve-audit forensics (root causes,
//!                                # quarantine post-mortems, timelines)
//! repro report slo run.jsonl     # windowed availability & latency burn
//! repro serve-bench              # fleet auth service benchmark (exits 3
//!                                # if the service ended degraded)
//! repro --list                   # what is available
//! ```
//!
//! Output is markdown: tables render as pipe tables, figures as data
//! listings (x column + one y column per series). A run where some — but
//! not all — experiments fail still prints every surviving report plus a
//! failure table (degraded mode). Exit codes: 0 success, 1 runtime/I-O
//! failure, 2 usage error, 3 partial failure (degraded report emitted),
//! 4 total failure (no experiment completed), 141 closed output pipe.

use aro_faults::FaultPlan;
use aro_ledger::Ledger;
use aro_sim::experiments::{ALL_IDS, REGISTRY};
use aro_sim::harness;
use aro_sim::SimConfig;
use std::ffi::OsString;
use std::fmt;
use std::path::{Path, PathBuf};

/// Everything that can go wrong, with the exit code it maps to.
#[derive(Debug)]
enum CliError {
    /// Malformed command line (exit 2).
    Usage(String),
    /// An experiment id that does not exist (exit 2).
    UnknownExperiment(String),
    /// A filesystem operation failed (exit 1).
    Io {
        what: &'static str,
        path: PathBuf,
        source: std::io::Error,
    },
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) | CliError::UnknownExperiment(_) => 2,
            CliError::Io { .. } => 1,
        }
    }

    fn io<'a>(what: &'static str, path: &'a Path) -> impl FnOnce(std::io::Error) -> CliError + 'a {
        move |source| CliError::Io {
            what,
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::UnknownExperiment(id) => {
                write!(f, "unknown experiment `{id}` (try --list)")
            }
            CliError::Io { what, path, source } => {
                write!(f, "cannot {what} `{}`: {source}", path.display())
            }
        }
    }
}

fn usage() -> String {
    let ids = ALL_IDS.join(" | ");
    format!(
        "usage: repro [OPTIONS] [{ids} | serve-bench]...\n\
         \n\
         modes (run only when named; never part of a bare `repro` run):\n\
         \x20 serve-bench          fleet authentication service benchmark:\n\
         \x20                      auths/sec, p50/p99 simulated latency, and\n\
         \x20                      FAR/FRR vs. fleet age under the --faults\n\
         \x20                      plan; exits 3 if the service ended a sweep\n\
         \x20                      point degraded/read-only\n\
         \n\
         options:\n\
         \x20 --quick              smoke-test scale (10 chips x 64 ROs)\n\
         \x20 --seed N             override the Monte Carlo seed\n\
         \x20 --csv DIR            additionally dump every table as CSV\n\
         \x20 --telemetry PATH     write span/metric telemetry as JSON lines\n\
         \x20 --audit              capture the request-scoped serve audit\n\
         \x20                      trail (exp18 / serve-bench) into the\n\
         \x20                      --telemetry file: one causal JSONL chain\n\
         \x20                      per verification, byte-identical at any\n\
         \x20                      --threads N; requires --telemetry\n\
         \x20 --threads N          force N worker threads (1 = sequential,\n\
         \x20                      results are bit-identical at any count)\n\
         \x20 --replicas N         enrollment-store replication factor for\n\
         \x20                      exp18/serve-bench (1..=4; default 2); a\n\
         \x20                      record survives any damage that leaves\n\
         \x20                      one replica intact\n\
         \x20 --faults PLAN        inject deterministic faults; PLAN is\n\
         \x20                      off | smoke | storm, optionally scaled\n\
         \x20                      as PLAN@INTENSITY (e.g. storm@0.5)\n\
         \x20 --fail ID            force experiment ID to panic (repeatable;\n\
         \x20                      exercises degraded mode end to end)\n\
         \x20 --ledger PATH        start a fresh run ledger at PATH: every\n\
         \x20                      experiment outcome is journalled (JSONL,\n\
         \x20                      flushed per experiment, crash-safe)\n\
         \x20 --resume PATH        resume from the ledger at PATH: completed\n\
         \x20                      experiments whose config+faults+seed\n\
         \x20                      fingerprint matches are replayed byte-\n\
         \x20                      identically, the rest run and extend it\n\
         \x20 --quiet              suppress report output\n\
         \x20 --list               list every experiment with its title\n\
         \x20 --help               this message\n\
         \n\
         analysis (see `repro report --help`):\n\
         \x20 report profile PATH [--top K]     span-tree telemetry profile\n\
         \x20 report diff OLD NEW               per-experiment ledger diff:\n\
         \x20                                   report bytes, counters, health\n\
         \x20 report health PATH...             deterministic fleet-health\n\
         \x20                                   tables (BER / decode-margin /\n\
         \x20                                   HD percentiles, counter totals,\n\
         \x20                                   cache rates)\n\
         \x20 report trace PATH                 Chrome-trace JSON export\n\
         \x20 report incidents PATH             serve-audit forensics: causal\n\
         \x20                                   timelines, top root causes,\n\
         \x20                                   quarantine post-mortems\n\
         \x20 report slo PATH                   windowed availability and\n\
         \x20                                   simulated-latency burn rates\n\
         \n\
         exit codes:\n\
         \x20 0  every requested experiment completed\n\
         \x20 1  runtime/I-O failure\n\
         \x20 2  usage error\n\
         \x20 3  partial failure: some experiments failed, the rest were\n\
         \x20    reported together with a failure table (degraded mode);\n\
         \x20    also: `serve-bench` ended with the service degraded\n\
         \x20 4  total failure: no requested experiment completed\n\
         \x20 5  `report diff` found an experiment whose outputs drifted\n\
         \x20 141 output pipe closed by the consumer"
    )
}

#[derive(Debug)]
struct Options {
    cfg: SimConfig,
    ids: Vec<String>,
    csv_dir: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    audit: bool,
    threads: Option<usize>,
    fault_spec: Option<String>,
    forced_panics: Vec<String>,
    ledger: Option<PathBuf>,
    resume: Option<PathBuf>,
    quiet: bool,
    quick: bool,
}

enum Parsed {
    Run(Box<Options>),
    List,
    Help,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Parsed, CliError> {
    let mut opts = Options {
        cfg: SimConfig::paper(),
        ids: Vec::new(),
        csv_dir: None,
        telemetry: None,
        audit: false,
        threads: None,
        fault_spec: None,
        forced_panics: Vec::new(),
        ledger: None,
        resume: None,
        quiet: false,
        quick: false,
    };
    let mut seed: Option<u64> = None;
    let mut replicas: Option<usize> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--seed expects a value".into()))?;
                seed = Some(value.parse().map_err(|_| {
                    CliError::Usage(format!("--seed expects an integer, got `{value}`"))
                })?);
            }
            "--csv" => {
                let dir = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--csv expects a directory".into()))?;
                opts.csv_dir = Some(PathBuf::from(dir));
            }
            "--telemetry" => {
                let path = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--telemetry expects a path".into()))?;
                opts.telemetry = Some(PathBuf::from(path));
            }
            "--audit" => opts.audit = true,
            "--threads" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--threads expects a value".into()))?;
                let threads: usize = value.parse().map_err(|_| {
                    CliError::Usage(format!("--threads expects an integer, got `{value}`"))
                })?;
                if threads == 0 {
                    return Err(CliError::Usage(
                        "--threads expects a positive count (omit the flag for automatic sizing)"
                            .into(),
                    ));
                }
                opts.threads = Some(threads);
            }
            "--replicas" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--replicas expects a value".into()))?;
                let count: usize = value.parse().map_err(|_| {
                    CliError::Usage(format!("--replicas expects an integer, got `{value}`"))
                })?;
                if count == 0 {
                    return Err(CliError::Usage(
                        "--replicas expects a positive count (a record needs at least one copy)"
                            .into(),
                    ));
                }
                if count > aro_sim::servefleet::N_SHARDS {
                    return Err(CliError::Usage(format!(
                        "--replicas expects at most {} (replicas cannot outnumber store shards)",
                        aro_sim::servefleet::N_SHARDS
                    )));
                }
                replicas = Some(count);
            }
            "--faults" => {
                let spec = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--faults expects a plan".into()))?;
                faults = Some(FaultPlan::parse(&spec).map_err(|e| CliError::Usage(e.to_string()))?);
                opts.fault_spec = Some(spec);
            }
            "--fail" => {
                let id = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--fail expects an experiment id".into()))?;
                if !ALL_IDS.contains(&id.as_str()) {
                    return Err(CliError::UnknownExperiment(id));
                }
                opts.forced_panics.push(id);
            }
            "--ledger" => {
                let path = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--ledger expects a path".into()))?;
                opts.ledger = Some(PathBuf::from(path));
            }
            "--resume" => {
                let path = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--resume expects a path".into()))?;
                opts.resume = Some(PathBuf::from(path));
            }
            "--quiet" => opts.quiet = true,
            "--list" => return Ok(Parsed::List),
            "--help" | "-h" => return Ok(Parsed::Help),
            id if !id.starts_with('-') => {
                if !REGISTRY.iter().any(|&(known, _, _)| known == id) {
                    return Err(CliError::UnknownExperiment(id.to_string()));
                }
                opts.ids.push(id.to_string());
            }
            flag => return Err(CliError::Usage(format!("unknown option `{flag}`"))),
        }
    }
    if opts.audit && opts.telemetry.is_none() {
        return Err(CliError::Usage(
            "--audit needs somewhere to write the trail: pass --telemetry PATH too".into(),
        ));
    }
    if opts.ledger.is_some() && opts.resume.is_some() {
        return Err(CliError::Usage(
            "--ledger and --resume are mutually exclusive (--resume appends to an existing ledger)"
                .into(),
        ));
    }
    if opts.quick {
        opts.cfg = SimConfig::quick();
    }
    if let Some(seed) = seed {
        opts.cfg = opts.cfg.with_seed(seed);
    }
    if let Some(replicas) = replicas {
        opts.cfg.replicas = replicas;
    }
    // Attached last, so the fault schedule derives from the final seed.
    if let Some(plan) = faults {
        opts.cfg = opts.cfg.with_faults(plan);
    }
    Ok(Parsed::Run(Box::new(opts)))
}

/// Writes a report's CSV table dumps as `DIR/<exp>_<index>.csv`. Takes
/// the rendered CSV strings rather than the report so replayed
/// experiments (which carry no live `Report`) dump the same files a
/// fresh run would — `id` is the harness id (`"exp1"`), which matches
/// the lowercased, dash-stripped report id the old naming used.
fn dump_csv(id: &str, tables: &[String], dir: &Path) -> Result<(), CliError> {
    std::fs::create_dir_all(dir).map_err(CliError::io("create directory", dir))?;
    for (i, table) in tables.iter().enumerate() {
        let path = dir.join(format!("{id}_{i}.csv"));
        std::fs::write(&path, table).map_err(CliError::io("write", &path))?;
    }
    Ok(())
}

/// The `ledger_open` header event: enough context to identify which run a
/// journal belongs to when it is read post-mortem.
fn ledger_header(cfg: &SimConfig, quick: bool, fault_spec: Option<&str>) -> String {
    format!(
        "{{\"event\":\"ledger_open\",\"schema\":\"aro-ledger-v1\",\"chips\":{},\"ros\":{},\"seed\":{},\"quick\":{},\"faults\":{}}}",
        cfg.n_chips,
        cfg.n_ros,
        cfg.seed,
        quick,
        aro_obs::json::escape(fault_spec.unwrap_or("off"))
    )
}

/// Prints one line to stdout, exiting quietly with the conventional
/// SIGPIPE status when a downstream consumer (e.g. `| head`) has closed
/// the pipe — `println!` would panic instead.
fn emit(text: impl std::fmt::Display) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(141);
    }
}

fn run(opts: &Options) -> Result<i32, CliError> {
    opts.cfg
        .validate()
        .map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
    if let Some(threads) = opts.threads {
        aro_par::set_thread_override(threads);
    }
    // A ledger needs obs enabled so records carry the per-experiment
    // counter deltas (incl. the faults.* tallies). Instrumentation never
    // writes to stdout: spans and metrics leave only through the sink.
    let mut ledger = match (&opts.ledger, &opts.resume) {
        (Some(path), None) => {
            Some(Ledger::create(path).map_err(CliError::io("create ledger", path))?)
        }
        (None, Some(path)) => Some(Ledger::open(path).map_err(CliError::io("open ledger", path))?),
        _ => None,
    };
    let instrumented = opts.telemetry.is_some() || ledger.is_some();
    if instrumented {
        aro_obs::set_enabled(true);
        aro_obs::reset();
    }
    if let Some(path) = &opts.telemetry {
        aro_obs::sink::install_file(path).map_err(CliError::io("open telemetry file", path))?;
    }
    // Audit capture piggybacks on the telemetry sink (parse_args already
    // rejected --audit without --telemetry). With the flag off the serve
    // path never builds an audit trail, so fixtures stay byte-identical.
    aro_serve::audit::set_enabled(opts.audit);
    if let Some(ledger) = &mut ledger {
        if ledger.skipped_lines() > 0 {
            eprintln!(
                "repro: ledger {}: tolerating {} corrupt/truncated line(s) from a previous crash",
                ledger.path().display(),
                ledger.skipped_lines()
            );
        }
        let fault_spec = opts.fault_spec.as_deref();
        let header = ledger_header(&opts.cfg, opts.quick, fault_spec);
        let path = ledger.path().to_path_buf();
        ledger
            .append_raw_event(&header)
            .map_err(CliError::io("write ledger header", &path))?;
    }

    if !opts.quiet {
        emit(format_args!(
            "# ARO-PUF (DATE 2014) reproduction — {} chips x {} ROs, seed {}\n",
            opts.cfg.n_chips, opts.cfg.n_ros, opts.cfg.seed
        ));
        // A live fault plan changes the bytes anyway, so it may announce
        // itself; a zero-intensity plan attaches no faults and must stay
        // byte-identical to a run with no --faults at all, so it stays
        // silent.
        if let (Some(_), Some(spec)) = (opts.cfg.injector(), &opts.fault_spec) {
            emit(format_args!("> fault plan: {spec}\n"));
        }
    }

    let ids: Vec<&str> = if opts.ids.is_empty() {
        ALL_IDS.to_vec()
    } else {
        opts.ids.iter().map(String::as_str).collect()
    };

    // One population cache for the whole invocation: experiments sharing
    // a (design, chip count) fabricate it once and clone thereafter. The
    // harness isolates each experiment and collects whatever survives.
    let outcome = aro_sim::popcache::scoped(|| {
        let _run_span = aro_obs::span("run");
        harness::run_experiments(&opts.cfg, &ids, &opts.forced_panics, ledger.as_mut())
    });

    if let Some(ledger) = &mut ledger {
        let replayed = outcome
            .successes
            .iter()
            .filter(|s| s.report.is_replayed())
            .count();
        let summary = format!(
            "{{\"event\":\"run_summary\",\"requested\":{},\"succeeded\":{},\"replayed\":{replayed},\"failed\":{}}}",
            ids.len(),
            outcome.successes.len(),
            outcome.failures.len()
        );
        if let Err(e) = ledger.append_raw_event(&summary) {
            eprintln!("repro: ledger {}: {e}", ledger.path().display());
        }
    }
    for error in &outcome.ledger_errors {
        eprintln!("repro: ledger append failed (run unaffected): {error}");
    }

    // `serve-bench` reports carry a marker note when the service finished
    // a sweep point outside its healthy state; that maps to exit 3
    // (degraded-but-served) for fresh and ledger-replayed runs alike.
    let mut serve_degraded = false;
    for success in &outcome.successes {
        if success.id == "serve-bench"
            && success
                .report
                .to_string()
                .contains(aro_sim::experiments::serve_bench::DEGRADED_MARKER)
        {
            serve_degraded = true;
        }
        if !opts.quiet {
            emit(&success.report);
        }
        if let Some(dir) = &opts.csv_dir {
            dump_csv(&success.id, &success.report.csv_tables(), dir)?;
        }
    }
    for failure in &outcome.failures {
        eprintln!("repro: {} failed: {}", failure.id, failure.error);
    }
    if let Some(table) = outcome.failure_table() {
        if !opts.quiet {
            emit(format_args!(
                "## FAILURES — degraded run\n\n{}",
                table.to_markdown()
            ));
        }
    }

    if instrumented {
        aro_obs::flush_metrics_to_sink(&aro_obs::snapshot());
        aro_obs::sink::close();
    }
    Ok(if outcome.is_total_failure() {
        4
    } else if outcome.is_degraded() || serve_degraded {
        3
    } else {
        0
    })
}

fn main() {
    let args: Vec<String> = match std::env::args_os()
        .skip(1)
        .map(OsString::into_string)
        .collect()
    {
        Ok(args) => args,
        Err(arg) => {
            eprintln!("repro: argument {arg:?} is not valid UTF-8\n\n{}", usage());
            std::process::exit(2);
        }
    };
    // `repro report …` is a separate, run-free mode: offline analysis
    // over ledgers and telemetry captures.
    if args.first().map(String::as_str) == Some("report") {
        std::process::exit(aro_bench::report_cli::run(&args[1..]));
    }
    match parse_args(args.into_iter()) {
        Ok(Parsed::List) => {
            for (id, title, _) in REGISTRY {
                emit(format_args!("{id}  {title}"));
            }
        }
        Ok(Parsed::Help) => emit(usage()),
        Ok(Parsed::Run(opts)) => match run(&opts) {
            Ok(0) => {}
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("repro: {e}");
                std::process::exit(e.exit_code());
            }
        },
        Err(e) => {
            eprintln!("repro: {e}");
            if e.exit_code() == 2 {
                eprintln!("\n{}", usage());
            }
            std::process::exit(e.exit_code());
        }
    }
}
