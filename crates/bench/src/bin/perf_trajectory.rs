//! Perf-trajectory runner: measure the end-to-end macrosim pipeline (mesh
//! build → neighbor graph → rebalance → simulated steps), the evolving-mesh
//! trajectory and the guard arms below, and emit `BENCH_macrosim.json` — the
//! committed baseline future changes are compared against.
//!
//! ```text
//! cargo run --release -p amr-bench --bin perf_trajectory                      # full
//! cargo run --release -p amr-bench --bin perf_trajectory -- --smoke --threads 2 --out BENCH_macrosim.json  # CI
//! ```
//!
//! Three flags:
//! - `--smoke`: each arm's small sizes and one rep (full runs take three);
//! - `--threads N`: worker threads of the threaded passes (default 2 under
//!   `--smoke`, 4 in full runs);
//! - `--out PATH`: the JSON report (default `BENCH_macrosim.json`). The
//!   trace arm writes `TRACE_macrosim.trace.json` and `TRACE_macrosim.folded`
//!   into the same directory.
//!
//! Every other size is a constant of the arm table ([`ARMS`]), which runs in
//! order; each arm asserts its guards (the process panics, failing CI) and
//! then writes its JSON members:
//!
//! | arm            | smoke / full size          | guard |
//! |----------------|----------------------------|-------|
//! | `noop_adapt`   | 256 / 4096 ranks           | an all-`Keep` adapt takes the identity fast path |
//! | `scales`       | 256 / 1024, 4096, 16384    | — (min-of-reps stage walls) |
//! | `evolving`     | 256 / 1024, 4096, 16384    | incremental and full-rebuild remeshing end on the same mesh |
//! | `trace`        | 256 / 1024 ranks           | traced sim wall < 2% or < 250 µs over untraced |
//! | `faulty`       | 256 / 4096 ranks           | reweight beats oblivious, prune beats reweight; full: reweight recovers ≥ 40% |
//! | `partition`    | 256 / 4096 ranks           | multilevel cut ≤ greedy, balance slack, warm 0 B, both trade-off directions |
//! | `network`      | 64 + 1024 ranks            | Fig. 7a inversion both ways, trigger fired, bitwise across threads |
//! | `sharded`      | 256 / 16384 ranks          | bit-identical flat vs 1 vs 8 shards, streamed graph peak ≤ half |
//! | `parallel`     | 256 / 16384 ranks          | bit-identical at `--threads`; full, ≥ 4 threads on ≥ 4 cores: ≥ 2.5× |
//! | `hierarchical` | — / 2^20 ranks             | threaded trajectory bit-identical |
//! | `service`      | 16×4 / 96×32 sessions      | bitwise vs direct engine, warm 0 B, warm hits, p99 ≥ p50 > 0 |

use amr_bench::e2e::{
    assert_noop_adapt_fast, run_evolving, run_evolving_traced, run_faulty, run_pipeline,
    run_pipeline_traced, run_sharded, run_sharded_threaded, skewed_costs, EvolvingTimings,
    FaultyArm, ShardedRun, StaticPipelineWorkload,
};
use amr_bench::service_load::run_service_load;
use amr_bench::Args;
use amr_core::engine::{PlacementCtx, PlacementEngine, PlacementError, PlacementReport};
use amr_core::placement::Placement;
use amr_core::policies::{
    weighted_edge_cut, Cplx, CutWeights, GreedyEdgeCut, Hierarchical, Lpt, Multilevel,
    PlacementPolicy,
};
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{build_shard, plan_shard_bounds, AmrMesh, ShardGraph};
use amr_service::{session_costs, Request, Response, Service, ServiceConfig, SessionSpec};
use amr_sim::{CollectiveSelect, MacroSim, SimConfig, Topology, Workload, WorkloadStep};
use amr_telemetry::trace::{chrome_trace_json, collapsed_stacks};
use amr_telemetry::TraceHandle;
use amr_workloads::{large_refined_mesh, random_refined_mesh};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::{Display, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Byte-accurate live/peak heap meter. The sharded arm's claim is about
/// *peak resident bytes* (can a node hold its slice of the topology?), so
/// the bench binary swaps in an allocator that tracks the high-water mark;
/// [`measured`] resets it around each stage. Single atomic adds per
/// alloc/free — far below measurement noise for the timed stages.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static A: PeakAlloc = PeakAlloc;

/// Run `f`, returning its result plus wall nanoseconds and the peak heap
/// growth (bytes above the live heap at entry) it caused.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as u64;
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(live) as u64;
    (r, ns, peak)
}

/// Streaming JSON writer. Members of the top-level object and of its direct
/// children go one per line; anything nested deeper stays inline.
struct Json {
    s: String,
    /// Open containers: closing bracket, and whether a member was written.
    open: Vec<(char, bool)>,
}

impl Json {
    fn new() -> Json {
        Json {
            s: "{".into(),
            open: vec![('}', false)],
        }
    }

    /// Separator and layout before the next member, then its key.
    fn member(&mut self, key: Option<&str>) {
        let depth = self.open.len();
        let top = self.open.last_mut().expect("writer already finished");
        let first = !std::mem::replace(&mut top.1, true);
        if !first {
            self.s.push(',');
        }
        if depth <= 2 {
            self.s.push('\n');
            self.s.push_str(&"  ".repeat(depth));
        } else if !first {
            self.s.push(' ');
        }
        if let Some(key) = key {
            let _ = write!(self.s, "\"{key}\": ");
        }
    }

    /// A number or boolean member.
    fn kv(&mut self, key: &str, value: impl Display) -> &mut Json {
        self.member(Some(key));
        let _ = write!(self.s, "{value}");
        self
    }

    /// A string member.
    fn str(&mut self, key: &str, value: &str) -> &mut Json {
        self.member(Some(key));
        let _ = write!(self.s, "{value:?}");
        self
    }

    /// Open an object; `None` for an array element.
    fn obj(&mut self, key: Option<&str>) -> &mut Json {
        self.member(key);
        self.s.push('{');
        self.open.push(('}', false));
        self
    }

    /// Open an array.
    fn arr(&mut self, key: &str) -> &mut Json {
        self.member(Some(key));
        self.s.push('[');
        self.open.push((']', false));
        self
    }

    /// Close the innermost open object or array.
    fn end(&mut self) -> &mut Json {
        let depth = self.open.len();
        let (close, any) = self.open.pop().expect("nothing to close");
        if depth <= 2 && any {
            self.s.push('\n');
            self.s.push_str(&"  ".repeat(depth - 1));
        }
        self.s.push(close);
        self
    }

    fn finish(mut self) -> String {
        self.end();
        assert!(self.open.is_empty(), "unclosed JSON container");
        self.s.push('\n');
        self.s
    }
}

/// `x` with `digits` decimals.
fn fixed(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Settings every arm sees.
struct Run {
    smoke: bool,
    threads: usize,
    /// Min-of-N repetitions of the timed scale, evolving and parallel passes.
    reps: usize,
    /// Path prefix of the trace artifacts.
    trace_prefix: String,
}

/// One measured arm: a name, its sizes under `--smoke` and in full runs (an
/// empty list skips the arm; what the numbers mean is the arm's own), and a
/// run step that asserts the arm's guards and writes its JSON members.
struct Arm {
    name: &'static str,
    smoke: &'static [usize],
    full: &'static [usize],
    run: fn(&Run, &[usize], &mut Json),
}

impl Arm {
    const fn new(
        name: &'static str,
        smoke: &'static [usize],
        full: &'static [usize],
        run: fn(&Run, &[usize], &mut Json),
    ) -> Arm {
        Arm {
            name,
            smoke,
            full,
            run,
        }
    }
}

/// The arms, in run order (which is also JSON order).
const ARMS: &[Arm] = &[
    Arm::new("noop_adapt", &[256], &[4096], noop_adapt_arm),
    Arm::new("scales", &[256], &[1024, 4096, 16384], scales_arm),
    Arm::new("evolving", &[256], &[1024, 4096, 16384], evolving_arm),
    Arm::new("trace", &[256], &[1024], trace_arm),
    Arm::new("faulty", &[256], &[4096], faulty_arm),
    Arm::new("partition", &[256], &[4096], partition_arm),
    // Small deep-credit enclosure, large credit-starved fabric.
    Arm::new("network", &[64, 1024], &[64, 1024], network_arm),
    Arm::new("sharded", &[256], &[16384], sharded_arm),
    Arm::new("parallel", &[256], &[16384], parallel_arm),
    Arm::new("hierarchical", &[], &[1 << 20], hier_arm),
    // Concurrent sessions per wave, waves.
    Arm::new("service", &[16, 4], &[96, 32], service_arm),
];

/// Simulated steps of the static pipeline (scales, sharded, parallel arms).
const STEPS: u64 = 3;

fn main() {
    let mut args = Args::from_env();
    let smoke = args.flag("smoke");
    let threads = args.get_usize("threads", if smoke { 2 } else { 4 });
    let out_path = args.get("out", "BENCH_macrosim.json");
    args.finish();
    if threads == 0 {
        eprintln!("error: --threads must be at least 1");
        std::process::exit(2);
    }
    let trace_prefix = Path::new(&out_path).with_file_name("TRACE_macrosim");
    let run = Run {
        smoke,
        threads,
        reps: if smoke { 1 } else { 3 },
        trace_prefix: trace_prefix.to_string_lossy().into_owned(),
    };

    let mut j = Json::new();
    j.str("bench", "macrosim_e2e")
        .str(
            "pipeline",
            &format!(
                "random_refined_mesh(1.6 blocks/rank) -> neighbor_graph -> cplx50 rebalance -> {STEPS} macrosim steps"
            ),
        )
        .kv("reps", run.reps)
        .kv("smoke", smoke);
    for arm in ARMS {
        let sizes = if smoke { arm.smoke } else { arm.full };
        if sizes.is_empty() {
            continue;
        }
        let t = Instant::now();
        (arm.run)(&run, sizes, &mut j);
        eprintln!("arm {}: {:.3} s", arm.name, t.elapsed().as_secs_f64());
    }
    let json = j.finish();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("wrote {out_path}");
}

/// Fast-path guard, first: cheap, and everything else is meaningless if
/// no-op adapts silently pay for full rebuilds. An all-`Keep` adapt must
/// take the identity fast path (identity delta, far cheaper than a full
/// index rebuild) or the process panics.
fn noop_adapt_arm(_: &Run, sizes: &[usize], _: &mut Json) {
    let (noop_ns, full_ns) = assert_noop_adapt_fast(sizes[0]);
    eprintln!(
        "no-op adapt fast path: {:.3} ms vs full rebuild {:.3} ms",
        noop_ns as f64 / 1e6,
        full_ns as f64 / 1e6
    );
}

/// The static pipeline at each scale, min-of-reps by end-to-end wall (fixed
/// seed: same mesh every rep).
fn scales_arm(run: &Run, scales: &[usize], j: &mut Json) {
    j.arr("scales");
    for &ranks in scales {
        let t = (0..run.reps)
            .map(|rep| {
                let t = run_pipeline(ranks, STEPS, 1);
                eprintln!(
                    "ranks {:>6} rep {}: blocks {:>6} e2e {:>10.3} ms (mesh {:.3} / graph {:.3} / place {:.3} / sim {:.3})",
                    ranks,
                    rep,
                    t.blocks,
                    t.e2e_ns as f64 / 1e6,
                    t.mesh_build_ns as f64 / 1e6,
                    t.graph_build_ns as f64 / 1e6,
                    t.rebalance_ns as f64 / 1e6,
                    t.sim_ns as f64 / 1e6,
                );
                t
            })
            .min_by_key(|t| t.e2e_ns)
            .expect("at least one rep");
        j.obj(None)
            .kv("ranks", t.ranks)
            .kv("blocks", t.blocks)
            .kv("relations", t.relations)
            .kv("mesh_build_ns", t.mesh_build_ns)
            .kv("graph_build_ns", t.graph_build_ns)
            .kv("rebalance_ns", t.rebalance_ns)
            .kv("sim_ns", t.sim_ns)
            .kv("e2e_ns", t.e2e_ns)
            .end();
    }
    j.end();
}

/// Incremental vs full-rebuild remeshing over the same tilted front sweep;
/// identical tag sequences must yield identical meshes.
fn evolving_arm(run: &Run, scales: &[usize], j: &mut Json) {
    const EVOLVE_STEPS: u64 = 40;
    j.str(
        "evolving_pipeline",
        &format!("tilted front sweep, {EVOLVE_STEPS} steps, per changed step: adapt -> graph maintenance -> lpt rebalance; incremental (splice + CSR patch + delta origins) vs full (index rebuild + graph build + cold order)"),
    )
    .arr("evolving");
    for &ranks in scales {
        let (inc, full) = (0..run.reps)
            .map(|rep| {
                let inc = run_evolving(ranks, EVOLVE_STEPS, false);
                let full = run_evolving(ranks, EVOLVE_STEPS, true);
                assert_eq!(
                    inc.blocks, full.blocks,
                    "evolving arms diverged: identical tag sequences must yield identical meshes"
                );
                eprintln!(
                    "evolve {:>6} rep {}: blocks {:>6} chg {:>5.1}%/step | inc remesh+graph {:>8.3} ms e2e {:>8.3} ms | full remesh+graph {:>8.3} ms e2e {:>8.3} ms",
                    ranks,
                    rep,
                    inc.blocks,
                    100.0 * inc.changed_blocks as f64
                        / (inc.changed_steps.max(1) * inc.blocks as u64) as f64,
                    (inc.remesh_ns + inc.graph_ns) as f64 / 1e6,
                    inc.e2e_ns as f64 / 1e6,
                    (full.remesh_ns + full.graph_ns) as f64 / 1e6,
                    full.e2e_ns as f64 / 1e6,
                );
                (inc, full)
            })
            .min_by_key(|(inc, _)| inc.e2e_ns)
            .expect("at least one rep");
        let timings = |j: &mut Json, key: &str, t: &EvolvingTimings| {
            j.obj(Some(key))
                .kv("remesh_ns", t.remesh_ns)
                .kv("graph_ns", t.graph_ns)
                .kv("place_ns", t.place_ns)
                .kv("e2e_ns", t.e2e_ns)
                .end();
        };
        j.obj(None)
            .kv("ranks", inc.ranks)
            .kv("blocks", inc.blocks)
            .kv("steps", inc.steps)
            .kv("changed_steps", inc.changed_steps)
            .kv("changed_blocks", inc.changed_blocks);
        timings(j, "incremental", &inc);
        timings(j, "full", &full);
        let rg_speedup =
            (full.remesh_ns + full.graph_ns) as f64 / (inc.remesh_ns + inc.graph_ns).max(1) as f64;
        j.kv("remesh_graph_speedup", fixed(rg_speedup, 2))
            .kv(
                "e2e_speedup",
                fixed(full.e2e_ns as f64 / inc.e2e_ns.max(1) as f64, 2),
            )
            .end();
    }
    j.end();
}

/// Bound the tracing overhead and emit the trace artifacts (no JSON keys).
///
/// Interleaves untraced and traced passes of the identical static pipeline
/// (same mesh seed, same step count) and compares min-of-reps
/// simulated-loop wall time. Tracing is a handful of `Cell` stores and ring
/// writes per step, so it must stay under 2% — with a 250 µs absolute noise
/// floor, because the smoke sim is only ~4 ms and scheduler jitter exceeds
/// 2% of that — or the process panics. A traced evolving trajectory then
/// fills the remesh-side phases (`remesh`/`splice_index`/`graph_patch`) that
/// a static mesh never enters, and both artifacts are written:
/// `TRACE_macrosim.trace.json` (Chrome trace-event JSON, load in Perfetto)
/// and `TRACE_macrosim.folded` (collapsed stacks, feed to flamegraph.pl /
/// inferno).
fn trace_arm(run: &Run, sizes: &[usize], _: &mut Json) {
    const TRACE_STEPS: u64 = 100;
    const TRACE_REPS: usize = 5;
    let ranks = sizes[0];
    let trace = TraceHandle::new(1 << 16);
    // Warm both arms (allocator, page cache, branch predictors) untimed.
    run_pipeline(ranks, TRACE_STEPS, 1);
    run_pipeline_traced(ranks, TRACE_STEPS, 1, &trace);

    let mut untraced = u64::MAX;
    let mut traced = u64::MAX;
    for _ in 0..TRACE_REPS {
        // Interleave so slow drift (thermal, scheduler) hits both arms alike.
        untraced = untraced.min(run_pipeline(ranks, TRACE_STEPS, 1).sim_ns);
        traced = traced.min(run_pipeline_traced(ranks, TRACE_STEPS, 1, &trace).sim_ns);
    }
    let overhead = traced as f64 / untraced as f64 - 1.0;
    let abs_ns = traced.saturating_sub(untraced);
    eprintln!(
        "trace overhead: untraced sim {:.3} ms, traced sim {:.3} ms ({:+.2}%, {:+.1} us)",
        untraced as f64 / 1e6,
        traced as f64 / 1e6,
        overhead * 100.0,
        abs_ns as f64 / 1e3
    );
    // Per-step tracing cost is what we guard. 2% of the full-scale 25 ms sim
    // is ~500 us; the 250 us absolute floor is tighter per step than that and
    // only lifts the bound where the relative test drowns in timer jitter.
    assert!(
        overhead < 0.02 || abs_ns < 250_000,
        "tracing must cost < 2% of simulated-loop wall time or < 250 us absolute \
         (untraced {untraced} ns, traced {traced} ns, {:+.2}%)",
        overhead * 100.0
    );

    run_evolving_traced(ranks, 20, false, &trace);

    let spans = trace.sink.snapshot();
    let json_path = format!("{}.trace.json", run.trace_prefix);
    let folded_path = format!("{}.folded", run.trace_prefix);
    std::fs::write(&json_path, chrome_trace_json(&spans))
        .unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    std::fs::write(&folded_path, collapsed_stacks(&spans))
        .unwrap_or_else(|e| panic!("write {folded_path}: {e}"));
    eprintln!(
        "wrote {json_path} + {folded_path} ({} spans, {} overwritten in ring)",
        spans.len(),
        trace.sink.dropped()
    );
    eprint!("{}", trace.metrics.render_summary());
}

/// The closed fault loop on the canned mid-run episode: detect-and-reweight
/// must beat fault-oblivious, detect-and-prune must beat both, and at full
/// scale reweighting must recover at least 40% of the fault-induced
/// slowdown.
fn faulty_arm(run: &Run, sizes: &[usize], j: &mut Json) {
    const FAULT_STEPS: u64 = 60;
    let ranks = sizes[0];
    let f = run_faulty(ranks, FAULT_STEPS, 1);
    let rec_rew = f.recovery(&f.reweight);
    let rec_prune = f.recovery(&f.prune);
    eprintln!(
        "faulty {:>6}: oblivious {:>9.3} ms | reweight {:>9.3} ms (rec {:>5.1}%) | prune {:>9.3} ms (rec {:>5.1}%) | healthy {:>9.3} ms",
        ranks,
        f.oblivious.total_ns / 1e6,
        f.reweight.total_ns / 1e6,
        rec_rew * 100.0,
        f.prune.total_ns / 1e6,
        rec_prune * 100.0,
        f.healthy.total_ns / 1e6,
    );
    assert!(
        f.reweight.total_ns < f.oblivious.total_ns,
        "detect-and-reweight must beat fault-oblivious ({} !< {})",
        f.reweight.total_ns,
        f.oblivious.total_ns
    );
    assert!(
        f.prune.total_ns < f.reweight.total_ns,
        "detect-and-prune escapes the degraded NIC too and must beat \
         reweighting ({} !< {})",
        f.prune.total_ns,
        f.reweight.total_ns
    );
    assert_eq!(f.prune.nodes_pruned, 1, "prune arm never re-hosted");
    if !run.smoke {
        assert!(
            rec_rew >= 0.4,
            "reweight recovered only {:.1}% of the slowdown at full scale",
            rec_rew * 100.0
        );
    }

    j.str(
        "faulty_pipeline",
        &format!(
            "static mesh, lpt, {} steps; node 1 throttled 4x + NIC renegotiated to 1/10 rate on steps [{}, {}); arms share workload/seed and differ only in fault response",
            f.steps, f.onset_step, f.recovery_step
        ),
    )
    .obj(Some("faulty"))
    .kv("ranks", f.ranks)
    .kv("blocks", f.blocks)
    .kv("steps", f.steps);
    for (key, a) in [
        ("healthy", &f.healthy),
        ("oblivious", &f.oblivious),
        ("reweight", &f.reweight),
        ("prune", &f.prune),
    ] {
        emit_fault_arm(j, key, a);
    }
    j.kv("reweight_recovery", fixed(rec_rew, 3))
        .kv("prune_recovery", fixed(rec_prune, 3))
        .end();
}

fn emit_fault_arm(j: &mut Json, key: &str, a: &FaultyArm) {
    j.obj(Some(key))
        .kv("total_ns", fixed(a.total_ns, 0))
        .kv("sync_ns", fixed(a.sync_ns, 0))
        .kv("lb_invocations", a.lb_invocations)
        .kv("capacity_updates", a.capacity_updates)
        .kv("nodes_pruned", a.nodes_pruned)
        .kv("blocks_migrated", a.blocks_migrated)
        .kv("wall_ns", a.wall_ns)
        .end();
}

/// Static workload over a prebuilt mesh with a caller-chosen cost vector,
/// so the partition and network arms can dial the compute/communication
/// ratio.
struct PartitionWorkload {
    mesh: AmrMesh,
    costs: Vec<f64>,
    steps: u64,
}

impl Workload for PartitionWorkload {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }
    fn advance(&mut self, _step: u64) -> WorkloadStep {
        WorkloadStep::default()
    }
    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
}

/// Deterministic virtual phases of one macro-simulated pass (mean-per-rank
/// virtual nanoseconds; no host wall clock).
struct PolicyPhases {
    compute_ns: f64,
    comm_ns: f64,
    sync_ns: f64,
    remote_messages: u64,
    blocks_migrated: u64,
    lb_invocations: u64,
}

impl PolicyPhases {
    /// Run `sim` on `w` under `policy` and keep the virtual phases.
    fn simulate(
        sim: &mut MacroSim,
        w: &mut PartitionWorkload,
        policy: &dyn PlacementPolicy,
        trigger: RebalanceTrigger,
    ) -> PolicyPhases {
        let rep = sim.try_run(w, policy, trigger).expect("macrosim run");
        PolicyPhases {
            compute_ns: rep.phases.compute_ns,
            comm_ns: rep.phases.comm_ns,
            sync_ns: rep.phases.sync_ns,
            remote_messages: rep.messages.remote,
            blocks_migrated: rep.blocks_migrated,
            lb_invocations: rep.lb_invocations,
        }
    }

    /// Communication-side total: where edge-cut quality lands.
    fn exchange_sync(&self) -> f64 {
        self.comm_ns + self.sync_ns
    }

    /// Wall-clock-free virtual step total (compute + comm + sync; the
    /// redistribution phase folds in *host* placement wall time, so it is
    /// excluded from cross-policy comparisons).
    fn virt(&self) -> f64 {
        self.compute_ns + self.comm_ns + self.sync_ns
    }

    /// Virtual bits the thread-count proofs compare.
    fn bits(&self) -> (u64, u64, u64, u64) {
        (
            self.compute_ns.to_bits(),
            self.comm_ns.to_bits(),
            self.sync_ns.to_bits(),
            self.remote_messages,
        )
    }

    /// Write the phases as `key`, with `total` (name, value) after sync.
    fn emit(&self, j: &mut Json, key: &str, total: (&str, f64)) {
        j.obj(Some(key))
            .kv("compute_ns", fixed(self.compute_ns, 0))
            .kv("comm_ns", fixed(self.comm_ns, 0))
            .kv("sync_ns", fixed(self.sync_ns, 0))
            .kv(total.0, fixed(total.1, 0))
            .kv("remote_messages", self.remote_messages)
            .kv("blocks_migrated", self.blocks_migrated)
            .end();
    }
}

/// Prove the multilevel partitioner on three axes, against the incumbent
/// policies.
///
/// **Cut** — on the same refined mesh and skewed costs, the multilevel
/// placement's topological edge cut must not exceed `GreedyEdgeCut`'s (the
/// direct greedy it delegates to below the coarsening threshold), and its
/// load balance must respect the 1.05 slack (plus one-block granularity).
///
/// **Cost** — cold (full coarsen→seed→refine pipeline) and warm (refine-only
/// against the engine arena) repartition walls are recorded, and the warm
/// pass must not grow the heap by a single byte — the bench-binary allocator
/// double-checks what the zero-alloc test already pins.
///
/// **Payoff** — the same static mesh macro-simulated under CPLX-50 vs the
/// ledger-fed multilevel policy, in two regimes. Comm-bound (flat cheap
/// compute, many exchanges per step): multilevel must win the virtual
/// exchange+sync total — cut quality is the paper's lever there. Compute-bound
/// (skewed expensive compute, one exchange per step): CPLX must win the
/// virtual step total — makespan optimality beats locality when compute
/// dominates. Both directions asserted, so CI catches the day either side
/// of the trade-off collapses.
fn partition_arm(_: &Run, sizes: &[usize], j: &mut Json) {
    const PARTITION_STEPS: u64 = 24;
    let ranks = sizes[0];
    let mesh = random_refined_mesh(ranks, 1.6, 1);
    let blocks = mesh.num_blocks();
    let graph = mesh.neighbor_graph();
    let relations = graph.total_relations();
    let costs = skewed_costs(blocks);
    let topo = CutWeights::topological(&mesh);

    // Reference cut: the direct greedy on the identical inputs.
    let greedy = GreedyEdgeCut::default().place_on_mesh(&mesh, &costs, ranks);
    let greedy_cut = weighted_edge_cut(&greedy, &graph, &topo);

    // Multilevel through the engine (arena attached, like the sim).
    let policy = Multilevel::default();
    let mut engine = PlacementEngine::new();
    let rebalance = |engine: &mut PlacementEngine, costs: &[f64], what: &str| {
        engine
            .rebalance_weighted(&policy, costs, ranks, Some(&mesh), None, Some(&graph), None)
            .unwrap_or_else(|e| panic!("{what} multilevel rebalance failed: {e}"));
    };
    let ((), place_cold_ns, place_cold_peak) = measured(|| rebalance(&mut engine, &costs, "cold"));
    let placed = engine.placement().expect("engine holds a placement");
    let multilevel_cut = weighted_edge_cut(placed, &graph, &topo);
    assert!(
        multilevel_cut <= greedy_cut,
        "multilevel cut must not exceed the direct greedy's \
         ({multilevel_cut} !<= {greedy_cut})"
    );
    let total: f64 = costs.iter().sum();
    let max_cost = costs.iter().cloned().fold(0.0, f64::max);
    let max_load = placed.rank_loads(&costs).into_iter().fold(0.0f64, f64::max);
    let cap = total / ranks as f64 * 1.05;
    assert!(
        max_load <= cap + max_cost + 1e-6,
        "multilevel balance blew the slack: max load {max_load} > cap {cap} \
         + granularity {max_cost}"
    );

    // Warm repartitions: rotated costs (placements keep changing), refine-only
    // path, and the heap high-water mark must not move at all.
    let mut shifted = costs.clone();
    for _ in 0..2 {
        shifted.rotate_right(1);
        rebalance(&mut engine, &shifted, "warm-up");
    }
    // Min-of-5 for both wall and peak (the zero-alloc suite's methodology):
    // a rotated cost vector can steer FM into a gain bucket never touched
    // before, growing one small pooled Vec once — the *steady state* is what
    // must be allocation-free, and min-of-N is exactly that state.
    let mut place_warm_ns = u64::MAX;
    let mut place_warm_peak = u64::MAX;
    for _ in 0..5 {
        shifted.rotate_right(1);
        let ((), ns, peak) = measured(|| rebalance(&mut engine, &shifted, "warm"));
        place_warm_ns = place_warm_ns.min(ns);
        place_warm_peak = place_warm_peak.min(peak);
    }
    assert_eq!(
        place_warm_peak, 0,
        "warm multilevel repartition grew the heap by {place_warm_peak} bytes \
         in every one of 5 steady-state rounds"
    );
    eprintln!(
        "partition {:>6}: cut multilevel {} vs greedy {} ({:.1}% lower), cold {:.3} ms, warm {:.3} ms / 0 B",
        ranks,
        multilevel_cut,
        greedy_cut,
        100.0 * (1.0 - multilevel_cut as f64 / greedy_cut.max(1) as f64),
        place_cold_ns as f64 / 1e6,
        place_warm_ns as f64 / 1e6,
    );

    // Macro-simulated A/B: identical mesh/costs/seed per regime, the policy
    // is the only difference. The ledger is armed only under multilevel —
    // it is the feedback path being measured (and it is proven invisible to
    // weight-blind policies by the sim proptests).
    let mut observed_bytes = 0u64;
    let mut sim_arm = |step_costs: &[f64], exchanges: u32, multilevel: bool| -> PolicyPhases {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 1_000_000;
        cfg.exchanges_per_step = exchanges;
        cfg.observe_exchange_bytes = multilevel;
        let mut w = PartitionWorkload {
            mesh: mesh.clone(),
            costs: step_costs.to_vec(),
            steps: PARTITION_STEPS,
        };
        let mut sim = MacroSim::try_new(cfg).expect("valid SimConfig");
        let trigger = RebalanceTrigger::Periodic(4);
        if multilevel {
            let p = PolicyPhases::simulate(&mut sim, &mut w, &Multilevel::default(), trigger);
            observed_bytes = observed_bytes.max(sim.exchange_ledger().observed_total());
            p
        } else {
            PolicyPhases::simulate(&mut sim, &mut w, &Cplx::new(50), trigger)
        }
    };

    // Comm-bound regime: flat cheap compute, heavy per-step exchange.
    let flat: Vec<f64> = vec![40_000.0; blocks];
    let comm_cplx = sim_arm(&flat, 12, false);
    let comm_multilevel = sim_arm(&flat, 12, true);
    eprintln!(
        "partition {:>6}: comm-bound exchange+sync cplx {:.3} ms vs multilevel {:.3} ms ({:.1}% lower), remote msgs {} vs {}",
        ranks,
        comm_cplx.exchange_sync() / 1e6,
        comm_multilevel.exchange_sync() / 1e6,
        100.0 * (1.0 - comm_multilevel.exchange_sync() / comm_cplx.exchange_sync()),
        comm_cplx.remote_messages,
        comm_multilevel.remote_messages,
    );
    assert!(
        comm_multilevel.exchange_sync() < comm_cplx.exchange_sync(),
        "on the comm-bound mesh the ledger-fed multilevel must beat CPLX on \
         virtual exchange+sync ({} !< {})",
        comm_multilevel.exchange_sync(),
        comm_cplx.exchange_sync()
    );

    // Compute-bound regime: skewed expensive compute, minimal exchange.
    let compute_cplx = sim_arm(&costs, 1, false);
    let compute_multilevel = sim_arm(&costs, 1, true);
    eprintln!(
        "partition {:>6}: compute-bound virtual step total cplx {:.3} ms vs multilevel {:.3} ms",
        ranks,
        compute_cplx.virt() / 1e6,
        compute_multilevel.virt() / 1e6,
    );
    assert!(
        compute_cplx.virt() <= compute_multilevel.virt(),
        "on the compute-bound mesh CPLX's makespan optimum must still win the \
         virtual step total ({} !<= {})",
        compute_cplx.virt(),
        compute_multilevel.virt()
    );

    j.str(
        "partition_pipeline",
        &format!("static refined mesh; multilevel vs GreedyEdgeCut on topological cut, cold/warm repartition walls (warm asserted 0 heap growth); macrosim {PARTITION_STEPS} steps cplx50 vs ledger-fed multilevel, comm-bound (flat compute, 12 exchanges/step, multilevel must win exchange+sync) and compute-bound (skewed compute, 1 exchange/step, cplx must win the virtual step total)"),
    )
    .obj(Some("partition"))
    .kv("ranks", ranks)
    .kv("blocks", blocks)
    .kv("relations", relations)
    .kv("greedy_cut", greedy_cut)
    .kv("multilevel_cut", multilevel_cut)
    .kv(
        "cut_ratio",
        fixed(multilevel_cut as f64 / greedy_cut.max(1) as f64, 4),
    )
    .kv("place_cold_ns", place_cold_ns)
    .kv("place_cold_peak_bytes", place_cold_peak)
    .kv("place_warm_ns", place_warm_ns)
    .kv("place_warm_peak_bytes", place_warm_peak)
    .kv("observed_bytes", observed_bytes);
    let xs = |p: &PolicyPhases| ("exchange_sync_ns", p.exchange_sync());
    j.obj(Some("comm_bound"));
    comm_cplx.emit(j, "cplx", xs(&comm_cplx));
    comm_multilevel.emit(j, "multilevel", xs(&comm_multilevel));
    j.kv(
        "exchange_sync_speedup",
        fixed(
            comm_cplx.exchange_sync() / comm_multilevel.exchange_sync().max(1.0),
            3,
        ),
    )
    .end()
    .obj(Some("compute_bound"));
    compute_cplx.emit(j, "cplx", xs(&compute_cplx));
    compute_multilevel.emit(j, "multilevel", xs(&compute_multilevel));
    j.kv(
        "cplx_virt_advantage",
        fixed(compute_multilevel.virt() / compute_cplx.virt().max(1.0), 3),
    )
    .end()
    .end();
}

/// Deliberate anti-locality placement for the network arm: blocks are
/// dealt to ranks round-robin in a deterministically shuffled order, so
/// SFC-neighbor blocks land on effectively random rank (and therefore
/// node) pairs. Nearly every boundary message rides the fabric — but the
/// bytes spread across ~nodes² directed links instead of concentrating on
/// the few SFC-adjacent node pairs a contiguous placement produces. That
/// is exactly the Fig. 7a trade: more remote bytes in total, far fewer
/// bytes per link.
struct Scatter;

impl PlacementPolicy for Scatter {
    fn name(&self) -> String {
        "scatter".into()
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        let n = ctx.costs().len();
        let r = ctx.num_ranks();
        // Fixed-seed Fisher–Yates over an inline xorshift: the same blocks
        // always shuffle the same way, so the policy stays a pure function
        // of its context like every other placement.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for k in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(k, (state % (k as u64 + 1)) as usize);
        }
        let mut ranks = vec![0u32; n];
        for (k, &b) in order.iter().enumerate() {
            ranks[b as usize] = (k % r) as u32;
        }
        // A fresh allocation per call (no access to the crate-private
        // storage-reuse path) — irrelevant for a bench-local policy.
        *out = Placement::new(ranks, r);
        Ok(ctx.finish(out))
    }
}

/// Reproduce the paper's Fig. 7a locality inversion on the credit/congestion
/// fabric model, both directions asserted on wall-free virtual phases.
///
/// Two regimes share one workload shape (static refined mesh, flat costs,
/// 12 exchanges/step) and one adaptive control plane (sync-fraction
/// rebalance trigger, adaptive collectives). The **small enclosure**
/// (`sizes[0]` ranks, 16 per node) has deep per-port credits — the
/// congestion model is armed but never binds, so strict locality's shorter
/// message list must win the virtual step total. The **large fabric**
/// (`sizes[1]` ranks) starves the per-link credit window: a contiguous
/// placement concentrates every node's boundary on a couple of SFC-adjacent
/// links whose outstanding bytes blow the window each round, while the
/// scattered placement's per-link bytes stay under it, so spread must win —
/// locality *loses* exactly where the paper's Fig. 7a says it does.
///
/// The congested locality pass must also drive the sync-fraction trigger
/// (congestion stalls hit boundary-heavy nodes asymmetrically, inflating
/// the measured sync share) — asserted via a second rebalance beyond the
/// step-0 bootstrap — and re-running it on 2 worker threads must reproduce
/// every virtual phase bit for bit.
fn network_arm(_: &Run, sizes: &[usize], j: &mut Json) {
    const NETWORK_STEPS: u64 = 16;
    const RANKS_PER_NODE: usize = 16; // Topology::paper's node width
    /// Deep credits: ~3x the whole mesh's per-round traffic, never binding.
    const SMALL_CREDIT: u64 = 64 << 20;
    /// Starved credits: between the scattered placement's worst per-link
    /// bytes and the contiguous placement's (tuned against the defaults of
    /// `random_refined_mesh(1024, 1.6)`; the asserts below re-verify the
    /// ordering on every run).
    const LARGE_CREDIT: u64 = 160 << 10;
    const BACKOFF: f64 = 2.0;
    const SYNC_TRIGGER: f64 = 0.05;
    const BITWISE_THREADS: usize = 2;
    let (small_ranks, large_ranks) = (sizes[0], sizes[1]);

    let sim_pass = |mesh: &AmrMesh, ranks: usize, credit: u64, spread: bool, threads: usize| {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.topology = Topology::new(ranks, RANKS_PER_NODE);
        cfg.telemetry_sampling = 1_000_000;
        cfg.exchanges_per_step = 12;
        cfg.network.fabric_credit_bytes = credit;
        cfg.network.congestion_backoff = BACKOFF;
        cfg.collectives = CollectiveSelect::Adaptive;
        cfg.collective_payload_bytes = 1 << 18;
        cfg.threads = threads;
        let mut w = PartitionWorkload {
            mesh: mesh.clone(),
            costs: vec![40_000.0; mesh.num_blocks()],
            steps: NETWORK_STEPS,
        };
        let mut sim = MacroSim::try_new(cfg).expect("valid SimConfig");
        let trigger = RebalanceTrigger::SyncFractionAbove(SYNC_TRIGGER);
        let policy: &dyn PlacementPolicy = if spread { &Scatter } else { &Cplx::new(0) };
        PolicyPhases::simulate(&mut sim, &mut w, policy, trigger)
    };

    j.str(
        "network_pipeline",
        &format!("static refined mesh, flat costs, {NETWORK_STEPS} steps x 12 exchanges; CPL0 (strict locality) vs shuffled round-robin scatter under the credit/congestion fabric, sync-fraction trigger ({SYNC_TRIGGER}) + adaptive collectives; deep credits: locality must win the virtual step total, starved credits: scatter must win (Fig. 7a inversion), congested pass asserted bit-identical at {BITWISE_THREADS} threads"),
    )
    .obj(Some("network"))
    .kv("steps", NETWORK_STEPS)
    .kv("congestion_backoff", BACKOFF)
    .kv("sync_trigger", SYNC_TRIGGER)
    .kv("virtual_phases_bitwise_threads", BITWISE_THREADS);

    // One regime: locality and scatter on the same mesh and credit depth,
    // written as `key`; returns (local, spread) for the asserts.
    let mut regime = |key: &str, ranks: usize, credit: u64| {
        let mesh = random_refined_mesh(ranks, 1.6, 1);
        let local = sim_pass(&mesh, ranks, credit, false, 1);
        let spread = sim_pass(&mesh, ranks, credit, true, 1);
        eprintln!(
            "network {:>5} ({:>2} nodes, credits {:>6} KiB): local virt {:>9.3} ms (comm {:.3} / sync {:.3}) vs spread virt {:>9.3} ms (comm {:.3} / sync {:.3}), remote msgs {} vs {}",
            ranks,
            ranks.div_ceil(RANKS_PER_NODE),
            credit >> 10,
            local.virt() / 1e6,
            local.comm_ns / 1e6,
            local.sync_ns / 1e6,
            spread.virt() / 1e6,
            spread.comm_ns / 1e6,
            spread.sync_ns / 1e6,
            local.remote_messages,
            spread.remote_messages,
        );
        j.obj(Some(key))
            .kv("ranks", ranks)
            .kv("blocks", mesh.num_blocks())
            .kv("nodes", ranks.div_ceil(RANKS_PER_NODE))
            .kv("credit_bytes", credit);
        local.emit(j, "local", ("virt_ns", local.virt()));
        spread.emit(j, "spread", ("virt_ns", spread.virt()));
        j.kv("local_lb_invocations", local.lb_invocations)
            .kv("spread_lb_invocations", spread.lb_invocations)
            .kv(
                "local_over_spread_virt",
                fixed(local.virt() / spread.virt().max(1.0), 4),
            )
            .end();
        (local, spread)
    };

    let (local, spread) = regime("small", small_ranks, SMALL_CREDIT);
    assert!(
        local.virt() < spread.virt(),
        "on the deep-credit enclosure strict locality must win the virtual \
         step total ({} !< {})",
        local.virt(),
        spread.virt()
    );

    let (local, spread) = regime("large", large_ranks, LARGE_CREDIT);
    j.end();
    assert!(
        spread.virt() < local.virt(),
        "on the credit-starved fabric the scattered placement must win the \
         virtual step total — the Fig. 7a inversion ({} !< {})",
        spread.virt(),
        local.virt()
    );
    assert!(
        local.lb_invocations > 1,
        "congestion stalls must push the measured sync share over the \
         {SYNC_TRIGGER} trigger at least once beyond the step-0 bootstrap \
         (lb_invocations = {})",
        local.lb_invocations
    );

    // The congested locality pass again, on a worker pool: the credit
    // stalls, the trigger decisions and the adaptive collective choice are
    // all pure functions of virtual time, so every phase must reproduce bit
    // for bit.
    let mesh = random_refined_mesh(large_ranks, 1.6, 1);
    let serial = sim_pass(&mesh, large_ranks, LARGE_CREDIT, false, 1);
    let pooled = sim_pass(&mesh, large_ranks, LARGE_CREDIT, false, BITWISE_THREADS);
    assert_eq!(
        serial.bits(),
        pooled.bits(),
        "congested virtual phases at {BITWISE_THREADS} threads must be \
         bit-identical to serial"
    );
    assert_eq!(
        serial.lb_invocations, pooled.lb_invocations,
        "the sync-fraction trigger fired a different number of times across \
         thread counts"
    );
    eprintln!(
        "network {:>5}: inversion holds both ways, trigger fired (lb {}), \
         virtual phases bit-identical at {} threads",
        large_ranks, local.lb_invocations, BITWISE_THREADS,
    );
}

/// Stream the shard graphs of `mesh` one at a time through [`build_shard`]
/// into a single reused [`ShardGraph`] (a node's view in a distributed run);
/// returns (relations, halo blocks, cross relations) summed over shards.
fn stream_shards(mesh: &AmrMesh, shards: usize) -> (usize, usize, usize) {
    let bounds = plan_shard_bounds(mesh, shards);
    let mut g = ShardGraph::default();
    let (mut rel, mut halo, mut cross) = (0usize, 0usize, 0usize);
    for s in 0..shards {
        build_shard(mesh, &bounds, s, &mut g);
        rel += g.total_relations();
        halo += g.halo().len();
        cross += g.cross_relations();
    }
    (rel, halo, cross)
}

/// Prove the sharded data path on two axes.
///
/// **Memory** — build the resident global CSR (the flat engine's working
/// set), then stream the identical topology one shard at a time. Peak heap
/// growth of the streaming pass must be under half the resident graph's, or
/// the process panics.
///
/// **Determinism** — macro-simulate the same mesh flat, at 1 shard, and at
/// `SHARDS` shards. Shard rows keep global neighbor ids in global SFC row
/// order, so the virtual compute/comm/sync totals must be *bit-identical*
/// across all three (asserted via `f64::to_bits`); at 1 shard the halo is
/// empty so even the redistribution charge is untouched.
fn sharded_arm(_: &Run, sizes: &[usize], j: &mut Json) {
    const SHARDS: usize = 8;
    let ranks = sizes[0];
    let mesh = random_refined_mesh(ranks, 1.6, 1);
    let blocks = mesh.num_blocks();

    let (relations, flat_graph_ns, flat_peak) =
        measured(|| mesh.neighbor_graph().total_relations());
    let ((stream_relations, halo_blocks, cross_relations), stream_graph_ns, stream_peak) =
        measured(|| stream_shards(&mesh, SHARDS));
    assert_eq!(
        stream_relations, relations,
        "streamed shard rows must cover exactly the global graph"
    );
    let ratio = flat_peak as f64 / stream_peak.max(1) as f64;
    eprintln!(
        "sharded {:>6}: flat graph {:.2} MiB peak / {:.3} ms, streamed x{} {:.2} MiB peak / {:.3} ms ({:.1}x less memory)",
        ranks,
        flat_peak as f64 / (1 << 20) as f64,
        flat_graph_ns as f64 / 1e6,
        SHARDS,
        stream_peak as f64 / (1 << 20) as f64,
        stream_graph_ns as f64 / 1e6,
        ratio,
    );
    assert!(
        ratio >= 2.0,
        "streaming {SHARDS} shards must peak at less than half the resident \
         graph ({flat_peak} vs {stream_peak} bytes, {ratio:.2}x)"
    );

    let flat = run_sharded(&mesh, ranks, STEPS, 1, 0);
    let s1 = run_sharded(&mesh, ranks, STEPS, 1, 1);
    let sn = run_sharded(&mesh, ranks, STEPS, 1, SHARDS);
    let bits = |r: &ShardedRun| {
        (
            r.compute_ns.to_bits(),
            r.comm_ns.to_bits(),
            r.sync_ns.to_bits(),
        )
    };
    assert_eq!(
        bits(&flat),
        bits(&s1),
        "virtual phases at 1 shard must be bit-identical to the flat engine"
    );
    assert_eq!(
        bits(&flat),
        bits(&sn),
        "virtual phases at {SHARDS} shards must be bit-identical to the flat engine"
    );
    assert_eq!(
        flat.mpi_messages, sn.mpi_messages,
        "message totals diverged"
    );
    assert_eq!(
        s1.halo_blocks, 0,
        "a single shard owns everything: no ghosts"
    );
    assert_eq!(
        s1.halo_exchange_ns.to_bits(),
        0.0f64.to_bits(),
        "no ghosts, no halo charge"
    );
    assert_eq!(
        sn.halo_blocks as usize, halo_blocks,
        "simulator and streaming pass disagree on the halo"
    );
    eprintln!(
        "sharded {:>6}: virtual phases bit-identical flat vs S=1 vs S={} ({} halo blocks, {} cross relations)",
        ranks, SHARDS, halo_blocks, cross_relations,
    );

    j.str(
        "sharded_pipeline",
        &format!("static random mesh; resident global CSR vs one streamed per-shard CSR at a time ({SHARDS} shards); macrosim virtual phases asserted bit-identical flat vs S=1 vs S={SHARDS}"),
    )
    .obj(Some("sharded"))
    .kv("ranks", ranks)
    .kv("blocks", blocks)
    .kv("relations", relations)
    .kv("shards", SHARDS)
    .kv("flat_graph_build_ns", flat_graph_ns)
    .kv("flat_graph_peak_bytes", flat_peak)
    .kv("stream_graph_build_ns", stream_graph_ns)
    .kv("stream_graph_peak_bytes", stream_peak)
    .kv("graph_peak_ratio", fixed(ratio, 2))
    .kv("halo_blocks", halo_blocks)
    .kv("cross_relations", cross_relations)
    .kv("halo_exchange_ns", fixed(sn.halo_exchange_ns, 0))
    .kv("virtual_phases_bitwise_flat", true)
    .kv("compute_ns", fixed(flat.compute_ns, 0))
    .kv("comm_ns", fixed(flat.comm_ns, 0))
    .kv("sync_ns", fixed(flat.sync_ns, 0))
    .kv("mpi_messages", flat.mpi_messages)
    .kv("flat_sim_wall_ns", flat.sim_wall_ns)
    .kv("sharded_sim_wall_ns", sn.sim_wall_ns)
    .end();
}

/// The same static trajectory, serial vs `--threads` worker threads,
/// min-of-reps walls.
///
/// Bit-identity of every virtual number is asserted unconditionally — on
/// any host, at any thread count, that is the contract of the slot-ownership
/// kernels. The ≥ 2.5x speedup floor is only enforced on full runs at ≥ 4
/// threads when the host exposes at least `threads` cores: on an undersized
/// box the workers timeshare a core and the measured "speedup" reports the
/// dispatch overhead instead (still recorded, honestly, in the JSON).
fn parallel_arm(run: &Run, sizes: &[usize], j: &mut Json) {
    let (ranks, threads) = (sizes[0], run.threads);
    let mesh = random_refined_mesh(ranks, 1.6, 1);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut serial: Option<ShardedRun> = None;
    let mut parallel: Option<ShardedRun> = None;
    for _ in 0..run.reps {
        let s = run_sharded_threaded(&mesh, ranks, STEPS, 1, 0, 1);
        let p = run_sharded_threaded(&mesh, ranks, STEPS, 1, 0, threads);
        let bits = |r: &ShardedRun| {
            (
                r.compute_ns.to_bits(),
                r.comm_ns.to_bits(),
                r.sync_ns.to_bits(),
                r.mpi_messages,
            )
        };
        assert_eq!(
            bits(&s),
            bits(&p),
            "virtual phases at {threads} threads must be bit-identical to serial"
        );
        let keep = |best: &mut Option<ShardedRun>, run: ShardedRun| match best {
            Some(b) if b.sim_wall_ns <= run.sim_wall_ns => {}
            _ => *best = Some(run),
        };
        keep(&mut serial, s);
        keep(&mut parallel, p);
    }
    let serial = serial.expect("at least one rep");
    let parallel = parallel.expect("at least one rep");
    let speedup = serial.sim_wall_ns as f64 / parallel.sim_wall_ns.max(1) as f64;
    eprintln!(
        "parallel {:>6}: serial {:.3} ms vs {} threads {:.3} ms = {:.2}x (host cores: {}), virtual phases bit-identical",
        ranks,
        serial.sim_wall_ns as f64 / 1e6,
        threads,
        parallel.sim_wall_ns as f64 / 1e6,
        speedup,
        host_cores,
    );
    if !run.smoke && host_cores >= threads && threads >= 4 {
        assert!(
            speedup >= 2.5,
            "{threads}-thread trajectory must be >= 2.5x over serial on a \
             {host_cores}-core host (got {speedup:.2}x)"
        );
    }
    j.str(
        "parallel_pipeline",
        &format!("same static trajectory serial vs {threads} worker threads (slot-ownership kernels); virtual phases asserted bit-identical before any wall is reported"),
    )
    .obj(Some("parallel"))
    .kv("ranks", ranks)
    .kv("blocks", mesh.num_blocks())
    .kv("threads", threads)
    .kv("host_cores", host_cores)
    .kv("serial_wall_ns", serial.sim_wall_ns)
    .kv("parallel_wall_ns", parallel.sim_wall_ns)
    .kv("speedup", fixed(speedup, 2))
    .kv("virtual_phases_bitwise_serial", true)
    .end();
}

/// The full sharded trajectory at a rank count the flat data path has no
/// business at (2^20 ranks, ~1.7M blocks). Solo column — no flat comparison
/// is run here; the flat-vs-sharded ratios are measured by the sharded arm
/// and only grow with rank count (resident CSR bytes scale linearly,
/// streamed per-node bytes stay ~constant at fixed blocks/node).
///
/// Stages, each timed with peak heap growth: random refined mesh build →
/// streamed per-node CSR (one [`ShardGraph`] resident at a time, one shard
/// per 16-rank node) → two-stage hierarchical placement (cold, then warm to
/// show the steady state is allocation-free) → a short macro-simulated
/// trajectory on the sharded topology under the same policy, serial and on
/// `--threads` workers (bit-identical virtual time, asserted).
fn hier_arm(run: &Run, sizes: &[usize], j: &mut Json) {
    const HIER_STEPS: u64 = 4;
    let (ranks, threads) = (sizes[0], run.threads);
    let ranks_per_node = 16; // Topology::paper's node width
    let nodes = (ranks / ranks_per_node).max(1);
    let mesh_shards = nodes;
    // ~6 blocks per stage-1 unit: enough resolution for the cut refinement
    // to balance nodes without drowning stage 1 in degenerate shards.
    let policy_shards = nodes * 4;

    // Past 2^16 ranks the root grid hits the Morton budget, so block count
    // comes from refinement depth instead of root count.
    let (mesh, mesh_build_ns, _) = measured(|| {
        if ranks > 65_536 {
            large_refined_mesh((ranks as f64 * 1.6) as usize, 1)
        } else {
            random_refined_mesh(ranks, 1.6, 1)
        }
    });
    let blocks = mesh.num_blocks();
    eprintln!(
        "hier {:>8}: mesh built, {} blocks in {:.3} s",
        ranks,
        blocks,
        mesh_build_ns as f64 / 1e9
    );

    let ((relations, halo_blocks, cross_relations), stream_graph_ns, stream_graph_peak_bytes) =
        measured(|| stream_shards(&mesh, mesh_shards));
    eprintln!(
        "hier {:>8}: streamed {} per-node shards in {:.3} s, peak {:.2} MiB ({} relations, {} halo blocks)",
        ranks,
        mesh_shards,
        stream_graph_ns as f64 / 1e9,
        stream_graph_peak_bytes as f64 / (1 << 20) as f64,
        relations,
        halo_blocks,
    );

    let policy = Hierarchical::new(policy_shards, ranks_per_node);
    let costs = skewed_costs(blocks);
    let mut engine = PlacementEngine::new();
    let mut rebalance = |what: &str| {
        engine
            .rebalance(&policy, &costs, ranks)
            .unwrap_or_else(|e| panic!("{what} hierarchical rebalance failed: {e}"));
    };
    let ((), place_cold_ns, place_cold_peak) = measured(|| rebalance("cold"));
    rebalance("warm-up");
    let ((), place_warm_ns, place_warm_peak) = measured(|| rebalance("warm"));
    eprintln!(
        "hier {:>8}: two-stage placement cold {:.3} ms / {:.2} MiB, warm {:.3} ms / {} B",
        ranks,
        place_cold_ns as f64 / 1e6,
        place_cold_peak as f64 / (1 << 20) as f64,
        place_warm_ns as f64 / 1e6,
        place_warm_peak,
    );

    // Short end-to-end trajectory on the sharded topology: a resident
    // per-shard granularity coarser than per-node keeps the epoch walk
    // cache-friendly without changing any virtual number (phase totals are
    // shard-count-invariant, proven by the sharded arm and the proptests).
    let sim_shards = 256.min(mesh_shards);
    let run_traj = |threads: usize| {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 1_000_000;
        cfg.num_shards = sim_shards;
        cfg.threads = threads;
        let mut w = StaticPipelineWorkload::new(mesh.clone(), HIER_STEPS);
        let mut sim = MacroSim::try_new(cfg).expect("valid SimConfig");
        let t = Instant::now();
        let rep = sim
            .try_run(&mut w, &policy, RebalanceTrigger::OnMeshChange)
            .expect("macrosim run");
        (rep, t.elapsed().as_nanos() as u64)
    };
    let (rep, sim_wall_ns) = run_traj(1);
    eprintln!(
        "hier {:>8}: {} macrosim steps in {:.3} s (virtual {:.3} ms)",
        ranks,
        HIER_STEPS,
        sim_wall_ns as f64 / 1e9,
        rep.total_ns / 1e6,
    );
    // Same trajectory on the worker pool: the static pipeline never
    // rebalances mid-run, so even total virtual time is wall-clock-free and
    // must match the serial pass bit for bit.
    let (sim_threads, sim_wall_threaded_ns) = if threads > 1 {
        let (trep, tw) = run_traj(threads);
        assert_eq!(
            trep.total_ns.to_bits(),
            rep.total_ns.to_bits(),
            "hier trajectory at {threads} threads diverged from serial"
        );
        eprintln!(
            "hier {:>8}: {} threads {:.3} s ({:.2}x), virtual time bit-identical",
            ranks,
            threads,
            tw as f64 / 1e9,
            sim_wall_ns as f64 / tw.max(1) as f64,
        );
        (threads, tw)
    } else {
        (0, 0)
    };

    j.str(
        "hierarchical_pipeline",
        &format!("solo sharded trajectory at {ranks} ranks ({nodes} nodes x {ranks_per_node}): mesh -> streamed per-node CSR -> two-stage hier placement ({policy_shards} stage-1 shards) -> {HIER_STEPS} macrosim steps on {sim_shards} resident shards"),
    )
    .obj(Some("hierarchical"))
    .kv("ranks", ranks)
    .kv("blocks", blocks)
    .kv("relations", relations)
    .kv("nodes", nodes)
    .kv("ranks_per_node", ranks_per_node)
    .kv("mesh_shards", mesh_shards)
    .kv("policy_shards", policy_shards)
    .kv("mesh_build_ns", mesh_build_ns)
    .kv("stream_graph_build_ns", stream_graph_ns)
    .kv("stream_graph_peak_bytes", stream_graph_peak_bytes)
    .kv("halo_blocks", halo_blocks)
    .kv("cross_relations", cross_relations)
    .kv("place_cold_ns", place_cold_ns)
    .kv("place_cold_peak_bytes", place_cold_peak)
    .kv("place_warm_ns", place_warm_ns)
    .kv("place_warm_peak_bytes", place_warm_peak)
    .kv("sim_steps", HIER_STEPS)
    .kv("sim_shards", sim_shards)
    .kv("sim_wall_ns", sim_wall_ns)
    .kv("sim_threads", sim_threads)
    .kv("sim_wall_threaded_ns", sim_wall_threaded_ns)
    .kv("virtual_total_ns", fixed(rep.total_ns, 0))
    .end();
}

/// Guard the placement-as-a-service path, then load it.
///
/// **Bitwise** — one session's `Rebalance` routed through the service must
/// produce a placement bit-identical to a direct `PlacementEngine` call on
/// the same mesh/costs/policy, or the process panics — the service is a
/// multiplexer, never a different solver.
///
/// **Zero-alloc warm hits** — close parks the engine in the fingerprint
/// LRU; reopening the same shape must check it out warm (asserted on the
/// stats), and a steady-state warm serve cycle — submit, batch drain, warm
/// placement, response + latency logging — must not grow the heap by one
/// byte, min-of-5 against the bench allocator's high-water mark (the
/// dedicated counting-allocator test pins the same claim per-allocation).
///
/// **Load** — `sizes[0]` concurrent sessions per wave times `sizes[1]` waves
/// of mixed adapt/rebalance/simulate/query traffic through a
/// `--threads`-worker batch dispatch. Warm-hit rate must come out positive
/// and the recorded latency percentiles ordered (p99 >= p50 > 0).
fn service_arm(run: &Run, sizes: &[usize], j: &mut Json) {
    let (shapes, waves, threads) = (sizes[0], sizes[1], run.threads);
    // Bitwise spot check: service route vs direct engine call.
    let mesh = random_refined_mesh(16, 6.0, 7);
    let mut svc = Service::new(ServiceConfig::default());
    let id = svc.open_session(mesh.clone(), SessionSpec::tuned(16, Box::new(Lpt)));
    svc.submit(id, Request::Rebalance);
    svc.drain();
    let mut costs = Vec::new();
    session_costs(mesh.num_blocks(), &mut costs);
    let mut engine = PlacementEngine::new();
    engine
        .rebalance_with(&Lpt, &costs, 16, Some(&mesh), None)
        .expect("direct rebalance failed");
    assert_eq!(
        svc.session_placement(id)
            .expect("service session holds a placement")
            .as_slice(),
        engine
            .placement()
            .expect("direct engine holds a placement")
            .as_slice(),
        "service-path placement must be bitwise identical to the direct engine call"
    );
    svc.close_session(id);

    // Warm serve cycle: the reopen must hit the LRU, and the steady state
    // must be allocation-free.
    let id = svc.open_session(mesh, SessionSpec::tuned(16, Box::new(Lpt)));
    assert_eq!(
        svc.stats().warm_hits,
        1,
        "reopening a parked shape must hit the engine LRU"
    );
    for _ in 0..3 {
        svc.submit(id, Request::Rebalance);
        svc.drain();
        svc.clear_responses(id);
    }
    let (mut warm_serve_ns, mut warm_serve_peak) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        let ((), ns, peak) = measured(|| {
            svc.submit(id, Request::Rebalance);
            svc.drain();
        });
        assert!(
            matches!(
                svc.responses(id)[0],
                Response::Rebalanced { warm: true, .. }
            ),
            "steady-state serve must ride the warm engine"
        );
        svc.clear_responses(id);
        warm_serve_ns = warm_serve_ns.min(ns);
        warm_serve_peak = warm_serve_peak.min(peak);
    }
    assert_eq!(
        warm_serve_peak, 0,
        "warm-hit serve cycle grew the heap by {warm_serve_peak} bytes in \
         every one of 5 steady-state rounds"
    );

    let load = run_service_load(shapes, waves, threads);
    eprintln!(
        "service {:>4}x{:<3} ({} threads): {} sessions / {} requests in {:.3} s = {:.0} sess/s, {:.0} req/s | warm rate {:.1}% | p50 {:.1} us p99 {:.1} us max {:.1} us | warm serve {:.1} us / 0 B",
        shapes,
        waves,
        threads,
        load.sessions,
        load.requests,
        load.wall_ns as f64 / 1e9,
        load.sessions_per_sec,
        load.requests_per_sec,
        load.warm_hit_rate * 100.0,
        load.p50_ns as f64 / 1e3,
        load.p99_ns as f64 / 1e3,
        load.max_ns as f64 / 1e3,
        warm_serve_ns as f64 / 1e3,
    );
    assert!(
        load.warm_hit_rate > 0.0,
        "the load run must produce warm engine-cache hits (rate = {})",
        load.warm_hit_rate
    );
    assert!(
        load.p50_ns > 0 && load.p99_ns >= load.p50_ns,
        "latency percentiles must be recorded and ordered (p50 {} / p99 {})",
        load.p50_ns,
        load.p99_ns
    );

    j.str(
        "service_pipeline",
        &format!("{} concurrent sessions x {} waves of mixed adapt/rebalance/simulate/query traffic batched over {} worker threads; close parks warm engines in the fingerprint LRU, reopen checks them out; service placements asserted bit-identical to direct engine calls and a warm serve cycle asserted 0 heap growth", load.shapes, load.waves, load.threads),
    )
    .obj(Some("service"))
    .kv("shapes", load.shapes)
    .kv("waves", load.waves)
    .kv("threads", load.threads)
    .kv("sessions", load.sessions)
    .kv("requests", load.requests)
    .kv("wall_ns", load.wall_ns)
    .kv("sessions_per_sec", fixed(load.sessions_per_sec, 1))
    .kv("requests_per_sec", fixed(load.requests_per_sec, 1))
    .kv("warm_hits", load.warm_hits)
    .kv("cold_misses", load.cold_misses)
    .kv("warm_hit_rate", fixed(load.warm_hit_rate, 4))
    .kv("p50_ns", load.p50_ns)
    .kv("p99_ns", load.p99_ns)
    .kv("max_ns", load.max_ns)
    .kv("warm_serve_ns", warm_serve_ns)
    .kv("warm_serve_peak_bytes", warm_serve_peak)
    .kv("placements_bitwise_direct", true)
    .end();
}
