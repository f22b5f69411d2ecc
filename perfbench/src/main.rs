//! The service benchmark: three closed-loop workloads against an
//! in-process `Service` behind loopback TCP, every output checked.
//!
//! ```text
//! perfbench --workload <cold-auctions|hot-auctions|durable-rounds>
//!           --seed <n> --seconds <s> --trace <0|1> [--tamper <check>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs a traced
//! pass and prints the per-layer metrics. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; lines before it
//! start with `#` and carry the run header and the trace breakdown.
//! `--tamper` corrupts one expected value so the checks must fail; it
//! exists to prove they can (see `tests/selftest.rs`).

mod auctions;
mod durable;
mod harness;
mod layers;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Ops sent and ops that failed: a refusal, a transport error, or an
/// output that did not match its check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// What a workload run produced.
pub struct Outcome {
    pub tally: Tally,
    /// Check failures, each naming the op and what differed.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdAuctions,
    HotAuctions,
    DurableRounds,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-auctions" => Some(Workload::ColdAuctions),
            "hot-auctions" => Some(Workload::HotAuctions),
            "durable-rounds" => Some(Workload::DurableRounds),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAuctions => "cold-auctions",
            Workload::HotAuctions => "hot-auctions",
            Workload::DurableRounds => "durable-rounds",
        }
    }
}

/// Which expected value `--tamper` corrupts.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// The first auction outcome.
    Outcome,
    /// The first committed round's receipt.
    Receipt,
    /// The first stream's accepted set.
    Stream,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub tamper: Tamper,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tamper = Tamper::None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a number")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".to_string()),
                };
            }
            "--tamper" => {
                tamper = match value.as_str() {
                    "outcome" => Tamper::Outcome,
                    "receipt" => Tamper::Receipt,
                    "stream" => Tamper::Stream,
                    _ => return Err(format!("unknown --tamper {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        workload.name(),
        seed,
        std::process::id()
    ));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
        tamper,
        work,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The common run header: revision, cores, toolchain, seed, and the op
/// and connection counts of the workload.
fn print_header(args: &Args, ops: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# git={} nproc={nproc} rustc=\"{}\"",
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["--version"])
    );
    println!("# ops: {ops}; connections={}", harness::CONNECTIONS);
}

fn json_result(outcome: &Outcome, correct: bool) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value
        } else {
            f64::MAX
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed
    )
}

/// Writes a traced phase's spans next to the run's scratch directory,
/// which is removed at exit while the span file stays.
pub fn write_spans(args: &Args, tracer: &trace::Tracer) -> Result<(), String> {
    let path = args.work.with_extension("spans.tsv");
    std::fs::write(&path, tracer.to_tsv()).map_err(|e| format!("write spans: {e}"))?;
    println!("# spans written to {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("create work dir: {e}"))?;
    match args.workload {
        Workload::ColdAuctions | Workload::HotAuctions => {
            print_header(args, &auctions::describe(args));
            auctions::run(args)
        }
        Workload::DurableRounds => {
            print_header(args, &durable::describe(args));
            durable::run(args)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(outcome) => {
            for m in &outcome.mismatches {
                println!("# MISMATCH {m}");
            }
            let correct = outcome.mismatches.is_empty() && outcome.tally.failed == 0;
            for m in &outcome.metrics {
                println!("# {:<28} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", json_result(&outcome, correct));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
