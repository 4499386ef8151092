//! The two MacroSim workloads: `sedov_blast` and `static_scale`.
//!
//! One client runs whole simulations back to back (a closed loop of one):
//! each run gets fresh inputs and a fresh `MacroSim`, is timed step by step
//! through [`TimedWorkload`], and must reproduce the virtual fingerprint of
//! every other run and of a single-threaded reference run.

use crate::cli::Args;
use crate::procfs;
use crate::report::{Metrics, Outcome, E2E, LAYERS};
use crate::stats::{self, median};
use crate::trace::Recorder;
use crate::wrap::{StepTimes, TimedPolicy, TimedWorkload, VirtualFingerprint};
use crate::{finish_trace, BenchError, Window, SETUP_REPS, THREADS};
use amr_core::{Cplx, RebalanceTrigger};
use amr_mesh::AmrMesh;
use amr_sim::{MacroSim, RunReport, SimConfig, Workload, WorkloadStep};
use amr_workloads::{random_refined_mesh, SedovScenario, SedovWorkload};
use std::sync::Arc;
use std::time::Instant;

/// Table I row the Sedov workload reproduces.
const SEDOV_RANKS: usize = 4096;
/// Paper steps divided by this: 53 459 / 50 = 1069 steps.
const SEDOV_STEP_SCALE: u64 = 50;
/// Telemetry sampling of the Sedov runs.
const SEDOV_SAMPLING: u32 = 16;
const STATIC_RANKS: usize = 65536;
const STATIC_BLOCKS_PER_RANK: f64 = 1.6;
/// Steps of one static run.
pub const STATIC_STEPS: u64 = 120;
/// Sampling interval longer than any run: telemetry records step 0 only.
const TELEMETRY_OFF: u32 = 1_000_000;
/// The paper's placement budget.
const BUDGET_NS: u64 = 50_000_000;
/// CPLX-50: the paper's best policy.
const CPLX_X: u32 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Sedov,
    Static,
}

/// A static workload over a borrowed mesh: no remesh, fixed costs.
struct StaticWorkload<'a> {
    mesh: &'a AmrMesh,
    costs: &'a [f64],
    steps: u64,
}

impl Workload for StaticWorkload<'_> {
    fn mesh(&self) -> &AmrMesh {
        self.mesh
    }
    fn advance(&mut self, _step: u64) -> WorkloadStep {
        WorkloadStep::default()
    }
    fn block_compute_ns(&self) -> &[f64] {
        self.costs
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
}

/// Skewed deterministic per-block costs (1.0–5.4 ms, period 13).
fn static_costs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64))
        .collect()
}

/// Inputs shared by every run of one invocation.
struct Inputs {
    kind: SimKind,
    seed: u64,
    /// The static mesh and its costs (built once; runs borrow them).
    mesh: Option<AmrMesh>,
    costs: Vec<f64>,
}

impl Inputs {
    fn ranks(&self) -> usize {
        match self.kind {
            SimKind::Sedov => SEDOV_RANKS,
            SimKind::Static => STATIC_RANKS,
        }
    }

    fn config(&self, threads: usize) -> SimConfig {
        let mut cfg = SimConfig::tuned(self.ranks());
        cfg.threads = threads;
        // The seed drives the per-step OS-jitter stream.
        cfg.seed = self.seed;
        cfg.telemetry_sampling = match self.kind {
            SimKind::Sedov => SEDOV_SAMPLING,
            SimKind::Static => TELEMETRY_OFF,
        };
        cfg
    }
}

fn sedov_workload() -> SedovWorkload {
    SedovScenario::for_ranks(SEDOV_RANKS, SEDOV_STEP_SCALE).workload()
}

/// Walls of one set-up, seconds.
struct SetupTimes {
    /// Inputs and simulator construction.
    setup_s: f64,
    /// The mesh (or Sedov workload) alone.
    mesh_s: f64,
    /// One `neighbor_graph()` of the initial mesh (not part of set-up).
    graph_s: f64,
}

/// Build the inputs once, timed.
fn setup_once(
    kind: SimKind,
    seed: u64,
    rec: &Recorder,
) -> Result<(Inputs, SetupTimes), BenchError> {
    rec.begin("setup", None);
    let t0 = Instant::now();
    rec.begin("mesh.build", None);
    let (mesh, costs, sedov) = match kind {
        SimKind::Sedov => (None, Vec::new(), Some(sedov_workload())),
        SimKind::Static => {
            let mesh = random_refined_mesh(STATIC_RANKS, STATIC_BLOCKS_PER_RANK, seed);
            let costs = static_costs(mesh.num_blocks());
            (Some(mesh), costs, None)
        }
    };
    rec.end("mesh.build");
    let mesh_s = t0.elapsed().as_secs_f64();
    let inputs = Inputs {
        kind,
        seed,
        mesh,
        costs,
    };
    let sim = MacroSim::try_new(inputs.config(THREADS)).map_err(BenchError::Setup)?;
    let setup_s = t0.elapsed().as_secs_f64();
    drop(sim);
    rec.end("setup");
    // One timed neighbor-graph build of the initial mesh (outside set-up:
    // the simulator builds its own inside every run).
    rec.begin("mesh.graph_build", None);
    let t = Instant::now();
    let initial = match (&sedov, &inputs.mesh) {
        (Some(w), _) => w.mesh(),
        (_, Some(m)) => m,
        _ => unreachable!("one mesh per workload"),
    };
    let relations = std::hint::black_box(initial.neighbor_graph()).total_relations();
    let graph_s = t.elapsed().as_secs_f64();
    rec.end("mesh.graph_build");
    if relations == 0 {
        return Err(BenchError::Setup(
            "initial mesh has no neighbor relations".into(),
        ));
    }
    Ok((
        inputs,
        SetupTimes {
            setup_s,
            mesh_s,
            graph_s,
        },
    ))
}

/// One timed run.
struct Run {
    report: Result<RunReport, String>,
    /// Wall of the run's own set-up (fresh workload and simulator).
    setup_ns: u64,
    /// Recorder time at which `try_run` was called.
    start_ns: u64,
    wall_ns: u64,
    times: StepTimes,
    /// Wall of each `place_into` call.
    place_ns: Vec<u64>,
}

fn run_once(
    inputs: &Inputs,
    threads: usize,
    rec: &Arc<Recorder>,
    policy: &TimedPolicy<Cplx>,
) -> Run {
    rec.begin("setup", None);
    let t_setup = rec.now_ns();
    let mut sedov = (inputs.kind == SimKind::Sedov).then(sedov_workload);
    let mut fixed = inputs.mesh.as_ref().map(|mesh| StaticWorkload {
        mesh,
        costs: &inputs.costs,
        steps: STATIC_STEPS,
    });
    let sim = MacroSim::try_new(inputs.config(threads));
    rec.end("setup");
    let inner: &mut dyn Workload = match (&mut sedov, &mut fixed) {
        (Some(w), _) => w,
        (_, Some(w)) => w,
        _ => unreachable!("one workload per kind"),
    };
    rec.begin("sim.run", None);
    let t0 = rec.now_ns();
    let mut timed = TimedWorkload::new(inner, rec);
    let report =
        sim.and_then(|mut sim| sim.try_run(&mut timed, policy, RebalanceTrigger::OnMeshChange));
    let t1 = rec.now_ns();
    let times = timed.finish(t1);
    rec.end("sim.run");
    Run {
        report,
        setup_ns: t0 - t_setup,
        start_ns: t0,
        wall_ns: t1 - t0,
        times,
        place_ns: rec.take_place_ns(),
    }
}

/// Runs of one measured window.
struct SimWindow {
    runs: Vec<Run>,
    window: Window,
}

fn window(
    inputs: &Inputs,
    seconds: u64,
    tracing: bool,
    seed: u64,
) -> Result<SimWindow, BenchError> {
    let rec = Arc::new(Recorder::new(tracing));
    let policy = TimedPolicy::new(Cplx::new(CPLX_X), rec.clone());
    let mut w = Window::start(rec.clone());
    rec.begin("bench", None);
    if tracing {
        // Set-up is part of the traced wall.
        setup_once(inputs.kind, seed, &rec)?;
    }
    let mut runs = Vec::new();
    while runs.is_empty() || w.elapsed_s() < seconds as f64 {
        runs.push(run_once(inputs, THREADS, &rec, &policy));
    }
    rec.end("bench");
    w.stop();
    Ok(SimWindow { runs, window: w })
}

/// Run the workload and fill in the metrics of the requested mode.
pub fn run(kind: SimKind, args: &Args) -> Result<Outcome, BenchError> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut out = Outcome::new(if trace { &LAYERS } else { &E2E });
    let quiet = Recorder::new(false);
    let mut setups = Vec::new();
    let mut inputs = None;
    // Rep 0 warms the allocator and is not timed.
    for rep in 0..=SETUP_REPS {
        let (i, s) = setup_once(kind, seed, &quiet)?;
        if rep > 0 {
            setups.push(s);
        }
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let median_of = |f: fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).expect("set-up samples")
    };

    // Single-threaded reference run: the baseline for the thread-count
    // fingerprint check and for `sim.speedup_vs_1t`.
    let quiet = Arc::new(quiet);
    let reference = run_once(
        &inputs,
        1,
        &quiet,
        &TimedPolicy::new(Cplx::new(CPLX_X), quiet.clone()),
    );
    // Read before any multi-threaded run: single-threaded allocation makes
    // the peak repeat exactly for a seed.
    let peak_rss_mb = procfs::peak_rss_mb().unwrap_or(f64::NAN);
    let plain = window(&inputs, seconds, false, seed)?;
    let traced = if trace {
        Some(window(&inputs, seconds, true, seed)?)
    } else {
        None
    };

    // Output checks over every run.
    let all_runs = || {
        std::iter::once(&reference)
            .chain(&plain.runs)
            .chain(traced.iter().flat_map(|t| &t.runs))
    };
    let steps = match kind {
        SimKind::Sedov => sedov_workload().total_steps(),
        SimKind::Static => STATIC_STEPS,
    };
    let mut prints = Vec::new();
    for run in all_runs() {
        out.attempted += 1;
        match &run.report {
            Ok(r) => prints.push(VirtualFingerprint::of(r)),
            Err(e) => {
                out.failed += 1;
                out.check(format!("run failed: {e}"), false);
            }
        }
        let ran = run.report.as_ref().map_or(0, |r| r.steps);
        if run.report.is_ok() && (ran != steps || !run.times.steps_in_order) {
            out.check(format!("run simulated {ran} of {steps} steps"), false);
        }
    }
    let reference_print = reference.report.as_ref().map(VirtualFingerprint::of);
    out.check(
        format!(
            "virtual fingerprint identical across {} runs and 1 vs {THREADS} threads",
            prints.len()
        ),
        reference_print.is_ok() && prints.iter().all(|p| Ok(p) == reference_print.as_ref()),
    );
    let ok_reports: Vec<&RunReport> = plain
        .runs
        .iter()
        .filter_map(|r| r.report.as_ref().ok())
        .collect();
    if ok_reports.is_empty() {
        return Ok(out);
    }

    match traced {
        None => e2e(
            &mut out.metrics,
            &plain,
            &ok_reports,
            median_of(|t| t.setup_s),
            peak_rss_mb,
        ),
        Some(traced) => {
            let m = &mut out.metrics;
            per_layer(m, &traced, &plain, &reference);
            m.set("mesh.build_s", median_of(|t| t.mesh_s));
            m.set("mesh.graph_build_s", median_of(|t| t.graph_s));
            let units = traced.runs.len() as f64;
            finish_trace(&mut out, traced.window, units, args)?;
        }
    }
    Ok(out)
}

fn e2e(m: &mut Metrics, plain: &SimWindow, reports: &[&RunReport], setup_s: f64, peak_rss_mb: f64) {
    let runs = &plain.runs;
    let per_run_median = |f: &dyn Fn(&Run) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>()).expect("at least one run")
    };
    // Latency samples: each step index over the window's runs.
    let steps: Vec<Vec<f64>> = (0..runs[0].times.step_ns.len())
        .map(|k| {
            runs.iter()
                .filter_map(|r| r.times.step_ns.get(k))
                .map(|&ns| ns as f64 / 1e6)
                .collect()
        })
        .collect();
    let step_ms = stats::item_medians(&steps);
    // The typical run: its lead-in before step 0 (graph build, cold
    // placement), then every step at its median.
    let lead_s =
        per_run_median(&|r| r.times.first_start_ns.map_or(0, |t| t - r.start_ns) as f64 / 1e9);
    let run_s = lead_s + step_ms.iter().sum::<f64>() / 1e3;
    m.set("setup_s", setup_s);
    m.set("steps_per_s", step_ms.len() as f64 / run_s);
    if let Some((p50, tail, note)) = stats::median_and_tail(&step_ms, runs.len()) {
        // A step is the closed loop's request on these workloads.
        for (p50_name, tail_name) in [
            ("step_p50_ms", "step_tail_ms"),
            ("request_p50_ms", "request_tail_ms"),
        ] {
            m.set(p50_name, p50);
            m.set_noted(tail_name, tail, note.clone());
        }
    }
    let virt: Vec<f64> = reports.iter().map(|r| r.total_ns / 1e9).collect();
    m.set("virtual_s", median(&virt).expect("at least one report"));
    // A session is one whole run, its own set-up included.
    let run_setup_s = per_run_median(&|r| r.setup_ns as f64 / 1e9);
    m.set("sessions_per_s", 1.0 / (run_setup_s + run_s));
    m.set("peak_rss_mb", peak_rss_mb);
}

fn per_layer(m: &mut Metrics, traced: &SimWindow, plain: &SimWindow, reference: &Run) {
    let runs: Vec<(&Run, &RunReport)> = traced
        .runs
        .iter()
        .filter_map(|r| r.report.as_ref().ok().map(|rep| (r, rep)))
        .collect();
    let n = runs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Run, &RunReport) -> f64| {
        runs.iter().map(|(r, rep)| f(r, rep)).sum::<f64>() / n
    };
    let place_s = |r: &Run| r.place_ns.iter().sum::<u64>() as f64 / 1e9;
    m.set(
        "workloads.advance_s",
        mean(&|r, _| r.times.advance_ns as f64 / 1e9),
    );
    m.set(
        "workloads.advance_calls",
        mean(&|r, _| r.times.step_ns.len() as f64),
    );
    m.set("mesh.blocks_final", mean(&|_, rep| rep.final_blocks as f64));
    m.set(
        "mesh.changed_steps",
        mean(&|_, rep| rep.mesh_change_steps as f64),
    );
    m.set("core.place_s", mean(&|r, _| place_s(r)));
    m.set("core.place_calls", mean(&|r, _| r.place_ns.len() as f64));
    let mut place_ms: Vec<f64> = runs
        .iter()
        .flat_map(|(r, _)| r.place_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    place_ms.sort_by(f64::total_cmp);
    m.set(
        "core.place_p50_ms",
        stats::percentile(&place_ms, 50_000).unwrap_or(0.0),
    );
    m.set("core.place_max_ms", place_ms.last().copied().unwrap_or(0.0));
    m.set(
        "core.over_budget_calls",
        mean(&|r, _| r.place_ns.iter().filter(|&&ns| ns > BUDGET_NS).count() as f64),
    );
    m.set(
        "core.blocks_migrated",
        mean(&|_, rep| rep.blocks_migrated as f64),
    );
    m.set(
        "sim.self_s",
        mean(&|r, _| r.wall_ns as f64 / 1e9 - place_s(r) - r.times.advance_ns as f64 / 1e9),
    );
    // From the start of the run to the end of step 0: graph build, cold
    // placement, first epoch fill and the first step's kernels.
    m.set(
        "sim.first_step_s",
        mean(&|r, _| {
            let step0_end = r.times.first_start_ns.unwrap_or(r.start_ns)
                + r.times.step_ns.first().copied().unwrap_or(0);
            (step0_end - r.start_ns) as f64 / 1e9
        }),
    );
    m.set(
        "sim.virt_compute_s",
        mean(&|_, rep| rep.phases.compute_ns / 1e9),
    );
    m.set("sim.virt_comm_s", mean(&|_, rep| rep.phases.comm_ns / 1e9));
    m.set("sim.virt_sync_s", mean(&|_, rep| rep.phases.sync_ns / 1e9));
    m.set(
        "sim.virt_redist_s",
        mean(&|_, rep| rep.phases.redist_ns / 1e9),
    );
    m.set("sim.sync_frac", mean(&|_, rep| rep.phases.sync_fraction()));
    m.set("sim.msgs_local", mean(&|_, rep| rep.messages.local as f64));
    m.set(
        "sim.msgs_remote",
        mean(&|_, rep| rep.messages.remote as f64),
    );
    m.set(
        "sim.lb_invocations",
        mean(&|_, rep| rep.lb_invocations as f64),
    );
    let plain_walls: Vec<f64> = plain.runs.iter().map(|r| r.wall_ns as f64).collect();
    m.set(
        "sim.speedup_vs_1t",
        reference.wall_ns as f64 / median(&plain_walls).expect("at least one run"),
    );
    m.set("pool.cpu_util", plain.window.cpu_util(THREADS));
    m.set("telemetry.rows", mean(&|_, rep| rep.telemetry.len() as f64));
    for name in [
        "service.open_s",
        "service.drain_s",
        "service.close_s",
        "service.serve_s",
        "service.serve_p50_us",
        "service.serve_tail_us",
        "service.queue_wait_s",
        "service.warm_hit_rate",
        "service.opens",
        "service.requests",
        "service.failed",
    ] {
        m.set(name, 0.0);
    }
    let per_step = |w: &SimWindow| {
        let wall: u64 = w.runs.iter().map(|r| r.wall_ns).sum();
        let steps: usize = w.runs.iter().map(|r| r.times.step_ns.len()).sum();
        wall as f64 / steps.max(1) as f64
    };
    m.set(
        "bench.trace_overhead",
        per_step(traced) / per_step(plain) - 1.0,
    );
}
