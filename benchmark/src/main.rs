//! `aro-perf` — host-time benchmark of the ARO-PUF reproduction and its
//! fleet authentication service.
//!
//! ```text
//! aro-perf run                          # every workload, one child process each
//! aro-perf run --workload serve-heal    # one workload, in this process
//! aro-perf run --seed 7 --seconds 20    # workload seed, measured seconds per workload
//! aro-perf run --trace 1                # plus one traced rep: the per-layer split
//! aro-perf run --json set.json          # also write the summary `compare` reads
//! aro-perf compare PARENT.json CHANGE.json
//! ```
//!
//! Exit codes: 0 success, 1 a failed output check, a regression or an
//! I/O error, 2 a usage error.

mod compare;
mod serve;
mod stats;
mod summary;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;

use workload::{Measured, Workload, WORKLOADS};

const USAGE: &str =
    "usage: aro-perf run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--json OUT]\n\
                     \x20      aro-perf compare PARENT.json CHANGE.json\n\
                     workloads: repro-quick paper-physics paper-lifecycle serve-steady serve-heal";

/// Measured seconds per workload when `--seconds` is not given: enough
/// reps per workload for `compare` to judge spreads. `BENCHMARK.json`'s
/// command passes its own, shorter `run_seconds`.
const DEFAULT_SECONDS: u64 = 30;

struct RunOptions {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<PathBuf>,
}

enum Cli {
    Run(RunOptions),
    Compare(PathBuf, PathBuf),
    Help,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(Cli::Run),
        Some("compare") => match &args[1..] {
            [parent, change] => Ok(Cli::Compare(parent.into(), change.into())),
            _ => Err("compare expects two summary files".into()),
        },
        Some("--help" | "-h" | "help") => Ok(Cli::Help),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".into()),
    }
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: None,
        seed: workload::reference_seed(),
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let seed = value()?;
                opts.seed = seed
                    .parse()
                    .map_err(|_| format!("--seed expects a whole number, got `{seed}`"))?;
            }
            "--seconds" => {
                let seconds = value()?;
                opts.seconds = seconds.parse().ok().filter(|&s| s > 0).ok_or_else(|| {
                    format!("--seconds expects a positive whole number, got `{seconds}`")
                })?;
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                };
            }
            "--json" => opts.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn print_measured(m: &Measured) {
    println!(
        "== {}  seed {}  reps {}  threads {}",
        m.workload,
        m.seed,
        m.reps,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for metric in &m.end_to_end {
        println!(
            "   {:<14} {:>14.6} {:<5} spread {:.1} % over {} samples",
            metric.name,
            metric.value(),
            metric.unit,
            stats::spread(&metric.samples) * 100.0,
            metric.samples.len()
        );
    }
    println!("   latency: {}", m.latency_note);
    if !m.per_layer.is_empty() {
        println!("   per layer (one traced rep):");
        for metric in &m.per_layer {
            println!(
                "   {:<36} {:>16.6} {}",
                metric.name,
                metric.value(),
                metric.unit
            );
        }
    }
    for error in &m.errors {
        println!("   FAILED: {error}");
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))
}

/// Measures one workload in this process.
fn run_one(opts: &RunOptions, workload: &Workload) -> Result<i32, String> {
    let measured = workload::measure(workload, opts.seed, opts.seconds, opts.trace)?;
    print_measured(&measured);
    if let Some(path) = &opts.json {
        write(
            path,
            &summary::summary_json(std::slice::from_ref(&measured), opts.seconds),
        )?;
    }
    println!("{}", summary::result_line(&measured, opts.trace));
    Ok(if measured.correct() { 0 } else { 1 })
}

/// Measures every workload, each in a child process of its own so peak
/// memory and thread-local caches stay per workload.
fn run_all(opts: &RunOptions) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut code = 0;
    let mut parts = Vec::new();
    for w in &WORKLOADS {
        let mut child = Command::new(&exe);
        child.args(["run", "--workload", w.name]);
        child.args(["--seed", &opts.seed.to_string()]);
        child.args(["--seconds", &opts.seconds.to_string()]);
        child.args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(path) = &opts.json {
            let part = PathBuf::from(format!("{}.{}.part", path.display(), w.name));
            child.arg("--json").arg(&part);
            parts.push(part);
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot run workload {}: {e}", w.name))?;
        if !status.success() {
            eprintln!("aro-perf: workload {} exited with {status}", w.name);
            code = 1;
        }
    }
    if let Some(path) = &opts.json {
        let mut all = Vec::new();
        for part in &parts {
            all.extend(summary::parse_summary(&read(part)?)?);
            std::fs::remove_file(part)
                .map_err(|e| format!("cannot remove `{}`: {e}", part.display()))?;
        }
        write(path, &summary::summary_json(&all, opts.seconds))?;
        println!("summary: {}", path.display());
    }
    Ok(code)
}

fn run_compare(parent: &Path, change: &Path) -> Result<i32, String> {
    let gates = compare::gates()?;
    let parent = summary::parse_summary(&read(parent)?)?;
    let change = summary::parse_summary(&read(change)?)?;
    let comparison = compare::compare(&parent, &change, &gates);
    print!("{}", comparison.render());
    Ok(if comparison.passed() { 0 } else { 1 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Ok(Cli::Help) => {
            println!("{USAGE}");
            Ok(0)
        }
        Ok(Cli::Run(opts)) => match opts.workload {
            Some(w) => run_one(&opts, w),
            None => run_all(&opts),
        },
        Ok(Cli::Compare(parent, change)) => run_compare(&parent, &change),
        Err(msg) => {
            eprintln!("aro-perf: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("aro-perf: {msg}");
            std::process::exit(1);
        }
    }
}
