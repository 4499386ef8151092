//! The repository benchmark: three closed-loop workloads driven through the
//! workspace's public API, with end-to-end metrics (`--trace 0`) or a
//! traced per-layer run (`--trace 1`). See `amrbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path amrbench/Cargo.toml -- \
//!     --workload sedov_blast --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every output check passed.

mod cli;
mod procfs;
mod report;
mod service;
mod simrun;
mod stats;
mod trace;
mod wrap;

use cli::{Args, WorkloadName};
use report::{Outcome, SPAN_METRICS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Recorder;

/// Worker threads of every simulator and service (the host's core count
/// when the benchmark was defined).
pub const THREADS: usize = 2;
/// Set-ups timed per invocation, after one untimed warm-up; `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 9;

/// Spans written to the Chrome trace (the folded stacks cover all).
const CHROME_SPANS: usize = 50_000;

/// A failure that prevents measuring at all.
#[derive(Debug)]
pub enum BenchError {
    Setup(String),
    Io(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Setup(e) => write!(f, "set-up failed: {e}"),
            BenchError::Io(e) => write!(f, "writing trace artifacts failed: {e}"),
        }
    }
}

/// Wall and process CPU time of one measured window.
pub struct Window {
    rec: Arc<Recorder>,
    start: Instant,
    cpu0: Option<f64>,
    wall_s: f64,
    cpu_s: Option<f64>,
}

impl Window {
    pub fn start(rec: Arc<Recorder>) -> Window {
        Window {
            rec,
            start: Instant::now(),
            cpu0: procfs::cpu_seconds(),
            wall_s: 0.0,
            cpu_s: None,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn stop(&mut self) {
        self.wall_s = self.elapsed_s();
        self.cpu_s = procfs::cpu_seconds().zip(self.cpu0).map(|(b, a)| b - a);
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Process CPU time over wall × threads (NaN without `/proc`).
    pub fn cpu_util(&self, threads: usize) -> f64 {
        self.cpu_s
            .map_or(f64::NAN, |c| c / (self.wall_s * threads as f64))
    }
}

/// Directory the traced run writes to.
fn out_dir(args: &Args) -> PathBuf {
    args.out
        .clone()
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"))
}

/// Turn a traced window's spans into self-time metrics (per unit of work),
/// a printed self-time table, and the Chrome-trace and folded-stack files.
pub fn finish_trace(
    out: &mut Outcome,
    window: Window,
    units: f64,
    args: &Args,
) -> Result<(), BenchError> {
    let spans = window.rec.take_spans();
    let self_ns = trace::self_times(&spans);
    let root_s = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum::<f64>();
    let by_name = trace::self_by_name(&spans, &self_ns);
    let total: f64 = by_name.iter().map(|(_, s)| s).sum();
    out.notes.push(format!(
        "self time by span over the traced wall of {root_s:.3} s ({units} units):"
    ));
    for (name, s) in &by_name {
        let label = if *name == "bench" {
            "bench/other"
        } else {
            name
        };
        out.notes.push(format!(
            "  {label:<22} {s:>10.4} s  {:>5.1}%",
            100.0 * s / root_s
        ));
    }
    out.check(
        format!("self times sum to the traced wall ({total:.6} s of {root_s:.6} s)"),
        (total - root_s).abs() <= 1e-6 * root_s.max(1.0),
    );
    for (span, metric) in SPAN_METRICS {
        let s = by_name
            .iter()
            .find(|(n, _)| *n == span)
            .map_or(0.0, |x| x.1);
        out.metrics.set(metric, s / units);
    }
    out.metrics.set("units", units);

    let dir = out_dir(args);
    let stem = format!("{}-seed{}", args.workload.as_str(), args.seed);
    let io = |e: std::io::Error| BenchError::Io(format!("{}: {e}", dir.display()));
    std::fs::create_dir_all(&dir).map_err(io)?;
    let chrome = dir.join(format!("{stem}.trace.json"));
    let folded = dir.join(format!("{stem}.folded"));
    std::fs::write(&chrome, trace::chrome_trace(&spans, CHROME_SPANS)).map_err(io)?;
    std::fs::write(&folded, trace::folded(&spans, &self_ns)).map_err(io)?;
    out.notes.push(format!(
        "wrote the first {} of {} spans to {}, and folded stacks of all to {}",
        spans.len().min(CHROME_SPANS),
        spans.len(),
        chrome.display(),
        folded.display()
    ));
    Ok(())
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("amrbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "amrbench workload={} seed={} seconds={} trace={} threads={THREADS} host_cores={cores}",
        args.workload.as_str(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let outcome = match args.workload {
        WorkloadName::SedovBlast => simrun::run(simrun::SimKind::Sedov, &args),
        WorkloadName::StaticScale => simrun::run(simrun::SimKind::Static, &args),
        WorkloadName::ServiceChurn => service::run(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("amrbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for problem in outcome.metrics.problems() {
        println!("check FAIL: {problem}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    print!("{}", outcome.metrics.lines());
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
