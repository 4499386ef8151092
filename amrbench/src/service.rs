//! The `service_churn` workload: a closed loop of [`CLIENTS`] clients
//! against one `amr-service` instance.
//!
//! Each wave every client opens a session over its own 16-rank mesh shape,
//! submits its request mix, and waits for the batch `drain` that answers
//! it; then every session closes, parking its warm engine in the
//! fingerprint LRU for the next wave. A wave is this workload's step.

use crate::cli::Args;
use crate::report::{Metrics, Outcome, E2E, LAYERS};
use crate::stats::{self, median, Tail};
use crate::trace::Recorder;
use crate::wrap::TimedPolicy;
use crate::{finish_trace, BenchError, Window, SETUP_REPS, THREADS};
use amr_core::engine::PlacementEngine;
use amr_core::Lpt;
use amr_mesh::AmrMesh;
use amr_service::{
    front_tag, session_costs, QuerySpec, Request, Response, Service, ServiceConfig, SessionId,
    SessionSpec,
};
use amr_telemetry::Phase;
use amr_workloads::random_refined_mesh;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop clients, one session (and one mesh shape) each per wave.
pub const CLIENTS: usize = 96;
/// Ranks every session places onto.
const RANKS: usize = 16;
const BLOCKS_PER_RANK: f64 = 6.0;
/// The adapt front repeats every this many waves.
const FRONT_CYCLE: usize = 8;
/// Waves of the single-threaded reference service (two front cycles).
const REFERENCE_WAVES: usize = 2 * FRONT_CYCLE;
/// Consecutive steady cycles one wave-time sample is the median of.
const WAVE_REPEATS: usize = 4;
/// Fewest waves a window serves: the cold cycle plus enough steady cycles
/// for a wave-time tail (20 samples).
const MIN_WAVES: usize = FRONT_CYCLE * (1 + 3 * WAVE_REPEATS);
/// Wave whose sampled session is checked against a direct engine call
/// (the second wave, so the check covers the warm path).
const SAMPLE_WAVE: usize = 1;

/// SplitMix64 finalizer: decorrelates (seed, client) into a mesh seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The client fleet's mesh shapes.
fn fleet(seed: u64) -> Vec<AmrMesh> {
    (0..CLIENTS)
        .map(|i| random_refined_mesh(RANKS, BLOCKS_PER_RANK, mix(seed ^ mix(i as u64))))
        .collect()
}

/// Client `i`'s requests in `wave`: every session rebalances; every third
/// adapts to the wave's front and rebalances again; every fifth simulates
/// two steps and queries the compute telemetry.
fn requests(i: usize, wave: usize) -> Vec<Request> {
    let mut v = vec![Request::Rebalance];
    if i.is_multiple_of(3) {
        v.push(Request::Adapt {
            front: 0.35 + 0.04 * (wave % FRONT_CYCLE) as f64,
        });
        v.push(Request::Rebalance);
    }
    if i.is_multiple_of(5) {
        v.push(Request::Simulate { steps: 2 });
        v.push(Request::Query(QuerySpec {
            phase: Some(Phase::Compute),
            ..QuerySpec::default()
        }));
    }
    v
}

/// FNV-1a over the wall-free content of a wave's responses (the `warm`
/// flag is cache state, not a result, and is left out).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct WaveHash(u64);

impl WaveHash {
    fn new() -> WaveHash {
        WaveHash(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn response(&mut self, r: &Response) {
        match r {
            Response::Adapted { blocks, changed } => {
                self.word(1);
                self.word(*blocks as u64);
                self.word(*changed as u64);
            }
            Response::Rebalanced {
                makespan,
                imbalance,
                moved,
                warm: _,
            } => {
                self.word(2);
                self.word(makespan.to_bits());
                self.word(imbalance.to_bits());
                self.word(*moved);
            }
            Response::Simulated {
                total_ns,
                steps,
                lb_invocations,
            } => {
                self.word(3);
                self.word(total_ns.to_bits());
                self.word(*steps);
                self.word(*lb_invocations);
            }
            Response::Queried {
                count,
                total_duration_ns,
                max_duration_ns,
            } => {
                self.word(4);
                self.word(*count as u64);
                self.word(*total_duration_ns);
                self.word(*max_duration_ns);
            }
            Response::Failed { .. } => self.word(5),
        }
    }
}

/// What one wave measured.
#[derive(Default)]
struct Wave {
    wall_ns: u64,
    open_ns: u64,
    drain_ns: u64,
    close_ns: u64,
    /// Submit-to-drain-return latency of every request.
    client_ns: Vec<u64>,
    /// Service-side serve time of every request (`take_latencies`).
    serve_ns: Vec<u64>,
    place_ns: Vec<u64>,
    requests: u64,
    failed: u64,
    hash: u64,
    virtual_ns: f64,
    blocks: u64,
    changed: u64,
    moved: u64,
    lb_invocations: u64,
    rows: u64,
    /// Placement of the sampled session (sample wave only).
    sampled: Option<Vec<u32>>,
}

/// The service under load, with the fleet it serves.
struct Churn<'a> {
    svc: Service,
    fleet: &'a [AmrMesh],
    seed: u64,
    rec: Arc<Recorder>,
    /// Waves served so far (the next wave's index).
    waves: usize,
    ids: Vec<SessionId>,
    submitted_ns: Vec<u64>,
}

impl<'a> Churn<'a> {
    fn new(fleet: &'a [AmrMesh], seed: u64, threads: usize, rec: Arc<Recorder>) -> Churn<'a> {
        Churn {
            svc: Service::new(ServiceConfig {
                threads,
                engine_cache_capacity: CLIENTS,
                session_queue_capacity: 8,
            }),
            fleet,
            seed,
            rec,
            waves: 0,
            ids: Vec::with_capacity(CLIENTS),
            submitted_ns: Vec::new(),
        }
    }

    fn spec(&self) -> SessionSpec {
        let mut spec = SessionSpec::tuned(RANKS, Box::new(TimedPolicy::new(Lpt, self.rec.clone())));
        spec.sim.seed = self.seed;
        spec
    }

    /// Serve one wave. Its sessions are numbered `wave * CLIENTS + client`
    /// in the trace.
    fn wave(&mut self) -> Wave {
        let wave = self.waves;
        self.waves += 1;
        let serial0 = (wave * CLIENTS) as u64;
        let rec = self.rec.clone();
        let mut w = Wave::default();
        let t_wave = rec.now_ns();
        self.ids.clear();
        self.submitted_ns.clear();
        for (i, mesh) in self.fleet.iter().enumerate() {
            let mesh = mesh.clone();
            let spec = self.spec();
            let session = Some(serial0 + i as u64);
            rec.begin("service.open", session);
            let t = rec.now_ns();
            let id = self.svc.open_session(mesh, spec);
            w.open_ns += rec.now_ns() - t;
            rec.end("service.open");
            for req in requests(i, wave) {
                rec.begin("service.submit", session);
                self.submitted_ns.push(rec.now_ns());
                self.svc.submit(id, req);
                rec.end("service.submit");
            }
            self.ids.push(id);
        }
        rec.begin("service.drain", None);
        let t = rec.now_ns();
        self.svc.drain();
        let answered = rec.now_ns();
        rec.end("service.drain");
        w.drain_ns = answered - t;
        w.requests = self.submitted_ns.len() as u64;
        w.client_ns = self.submitted_ns.iter().map(|&s| answered - s).collect();
        self.svc.take_latencies(&mut w.serve_ns);
        w.place_ns = rec.take_place_ns();
        // A request the drain did not answer counts as failed.
        let mut answered_requests = 0u64;
        let mut hash = WaveHash::new();
        let sample = (wave == SAMPLE_WAVE).then_some(self.seed as usize % CLIENTS);
        for (i, &id) in self.ids.iter().enumerate() {
            for r in self.svc.responses(id) {
                answered_requests += 1;
                hash.response(r);
                match r {
                    Response::Adapted { changed, .. } => w.changed += *changed as u64,
                    Response::Rebalanced { moved, .. } => w.moved += moved,
                    Response::Simulated {
                        total_ns,
                        lb_invocations,
                        ..
                    } => {
                        w.virtual_ns += total_ns;
                        w.lb_invocations += lb_invocations;
                    }
                    Response::Queried { count, .. } => w.rows += *count as u64,
                    Response::Failed { .. } => w.failed += 1,
                }
            }
            w.blocks += self.svc.session_blocks(id) as u64;
            if sample == Some(i) {
                w.sampled = self
                    .svc
                    .session_placement(id)
                    .map(|p| p.as_slice().to_vec());
            }
        }
        w.hash = hash.0;
        w.failed += w.requests.saturating_sub(answered_requests);
        for (i, &id) in self.ids.iter().enumerate() {
            rec.begin("service.close", Some(serial0 + i as u64));
            let t = rec.now_ns();
            self.svc.close_session(id);
            w.close_ns += rec.now_ns() - t;
            rec.end("service.close");
        }
        w.wall_ns = rec.now_ns() - t_wave;
        w
    }
}

/// The sampled session's placement recomputed by a direct
/// [`PlacementEngine`] call sequence on the same mesh.
fn direct_placement(mesh: &AmrMesh, client: usize, wave: usize) -> Result<Vec<u32>, String> {
    let mut mesh = mesh.clone();
    let mut engine = PlacementEngine::new();
    let mut costs = Vec::new();
    session_costs(mesh.num_blocks(), &mut costs);
    for req in requests(client, wave) {
        match req {
            Request::Rebalance => {
                engine
                    .rebalance_with(&Lpt, &costs, RANKS, Some(&mesh), None)
                    .map_err(|e| e.to_string())?;
            }
            Request::Adapt { front } => {
                let max_level = mesh.config().max_level;
                if mesh.adapt(|b| front_tag(b, front, max_level)).changed() {
                    session_costs(mesh.num_blocks(), &mut costs);
                }
            }
            Request::Simulate { .. } | Request::Query(_) => {}
        }
    }
    let p = engine.placement().ok_or("no placement")?;
    Ok(p.as_slice().to_vec())
}

struct ChurnWindow {
    waves: Vec<Wave>,
    window: Window,
    warm_hits: u64,
    opens: u64,
}

fn window(fleet: &[AmrMesh], seed: u64, seconds: u64, tracing: bool) -> ChurnWindow {
    let rec = Arc::new(Recorder::new(tracing));
    let mut w = Window::start(rec.clone());
    rec.begin("bench", None);
    if tracing {
        // Set-up is part of the traced wall.
        rec.begin("setup", None);
        rec.begin("mesh.build", None);
        std::hint::black_box(self::fleet(seed));
        rec.end("mesh.build");
        rec.end("setup");
    }
    let mut churn = Churn::new(fleet, seed, THREADS, rec.clone());
    let mut waves = Vec::new();
    while waves.len() < MIN_WAVES || w.elapsed_s() < seconds as f64 {
        waves.push(churn.wave());
    }
    rec.end("bench");
    w.stop();
    let stats = churn.svc.stats();
    ChurnWindow {
        waves,
        window: w,
        warm_hits: stats.warm_hits,
        opens: stats.warm_hits + stats.cold_misses,
    }
}

pub fn run(args: &Args) -> Result<Outcome, BenchError> {
    let seed = args.seed;
    let mut out = Outcome::new(if args.trace { &LAYERS } else { &E2E });
    let mut setup_s = Vec::new();
    let mut mesh_s = Vec::new();
    let mut shapes = Vec::new();
    // Rep 0 warms the allocator and is not timed.
    for rep in 0..=SETUP_REPS {
        let t = Instant::now();
        shapes = fleet(seed);
        let mesh = t.elapsed().as_secs_f64();
        std::hint::black_box(Service::new(ServiceConfig {
            threads: THREADS,
            engine_cache_capacity: CLIENTS,
            session_queue_capacity: 8,
        }));
        if rep > 0 {
            mesh_s.push(mesh);
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    let t = Instant::now();
    std::hint::black_box(shapes[0].neighbor_graph());
    let graph_s = t.elapsed().as_secs_f64();

    // Single-threaded reference: the same waves must answer bit-identically.
    let quiet = Arc::new(Recorder::new(false));
    let mut reference = Churn::new(&shapes, seed, 1, quiet);
    let ref_waves: Vec<Wave> = (0..REFERENCE_WAVES).map(|_| reference.wave()).collect();
    drop(reference);
    // Read before any multi-threaded wave: single-threaded allocation makes
    // the peak repeat exactly for a seed.
    let peak_rss_mb = crate::procfs::peak_rss_mb().unwrap_or(f64::NAN);
    let plain = window(&shapes, seed, args.seconds, false);
    let traced = args
        .trace
        .then(|| window(&shapes, seed, args.seconds, true));

    // Output checks.
    let mut mismatched = 0usize;
    let mut compared = 0usize;
    let all = ref_waves
        .iter()
        .enumerate()
        .chain(plain.waves.iter().enumerate())
        .chain(traced.iter().flat_map(|t| t.waves.iter().enumerate()));
    for (wave, w) in all {
        out.attempted += w.requests;
        out.failed += w.failed;
        compared += 1;
        // The first cycle starts from a cold cache; later ones are steady.
        let expected = if wave < FRONT_CYCLE {
            &ref_waves[wave]
        } else {
            &ref_waves[FRONT_CYCLE + wave % FRONT_CYCLE]
        };
        mismatched += (w.hash != expected.hash) as usize;
    }
    out.check(
        format!("{compared} waves answer like the 1-thread service ({mismatched} differ)"),
        mismatched == 0,
    );
    let sample = seed as usize % CLIENTS;
    let direct = direct_placement(&shapes[sample], sample, SAMPLE_WAVE);
    for (label, waves) in [("1-thread", &ref_waves), ("2-thread", &plain.waves)] {
        out.check(
            format!(
                "{label} session {sample} of wave {SAMPLE_WAVE} places like a direct engine call"
            ),
            matches!((&waves[SAMPLE_WAVE].sampled, &direct), (Some(a), Ok(b)) if a == b),
        );
    }

    match traced {
        None => e2e(
            &mut out.metrics,
            &plain,
            median(&setup_s).expect("set-up samples"),
            peak_rss_mb,
        ),
        Some(traced) => {
            let m = &mut out.metrics;
            per_layer(m, &traced, &plain, &ref_waves);
            m.set("mesh.build_s", median(&mesh_s).expect("set-up samples"));
            m.set("mesh.graph_build_s", graph_s);
            let units = traced.waves.len() as f64;
            finish_trace(&mut out, traced.window, units, args)?;
        }
    }
    Ok(out)
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / 1e6).collect()
}

fn e2e(m: &mut Metrics, plain: &ChurnWindow, setup_s: f64, peak_rss_mb: f64) {
    let waves = &plain.waves;
    // Latency samples repeat identical work: every cycle after the cold
    // first one serves the same eight waves.
    let steady = &waves[FRONT_CYCLE..waves.len() - waves.len() % FRONT_CYCLE];
    let cycles: Vec<&[Wave]> = steady.chunks_exact(FRONT_CYCLE).collect();
    // Each wave phase over WAVE_REPEATS consecutive cycles.
    let wave_items: Vec<Vec<f64>> = cycles
        .chunks_exact(WAVE_REPEATS)
        .flat_map(|block| {
            (0..FRONT_CYCLE)
                .map(move |ph| block.iter().map(|c| c[ph].wall_ns as f64 / 1e6).collect())
        })
        .collect();
    let wave_ms = stats::item_medians(&wave_items);
    let waves_per_s = 1e3 * wave_ms.len() as f64 / wave_ms.iter().sum::<f64>();
    m.set("setup_s", setup_s);
    m.set("steps_per_s", waves_per_s);
    m.set("sessions_per_s", waves_per_s * CLIENTS as f64);
    if let Some((p50, tail, note)) = stats::median_and_tail(&wave_ms, WAVE_REPEATS) {
        m.set("step_p50_ms", p50);
        m.set_noted("step_tail_ms", tail, note);
    }
    // One front cycle is deterministic per seed: its mean simulated time.
    let virt: f64 = waves[..FRONT_CYCLE].iter().map(|w| w.virtual_ns).sum();
    m.set("virtual_s", virt / FRONT_CYCLE as f64 / 1e9);
    // Each request (wave phase, submit position) over every steady cycle.
    let request_items: Vec<Vec<f64>> = (0..FRONT_CYCLE)
        .flat_map(|ph| {
            let cycles = &cycles;
            (0..cycles[0][ph].client_ns.len()).map(move |k| {
                cycles
                    .iter()
                    .map(|c| c[ph].client_ns[k] as f64 / 1e6)
                    .collect()
            })
        })
        .collect();
    let request_ms = stats::item_medians(&request_items);
    if let Some((p50, tail, note)) = stats::median_and_tail(&request_ms, cycles.len()) {
        m.set("request_p50_ms", p50);
        m.set_noted("request_tail_ms", tail, note);
    }
    m.set("peak_rss_mb", peak_rss_mb);
}

fn per_layer(m: &mut Metrics, traced: &ChurnWindow, plain: &ChurnWindow, reference: &[Wave]) {
    let waves = &traced.waves;
    let n = waves.len() as f64;
    let mean = |f: &dyn Fn(&Wave) -> f64| waves.iter().map(f).sum::<f64>() / n;
    let sum_s = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
    for name in [
        "workloads.advance_s",
        "workloads.advance_calls",
        "sim.self_s",
        "sim.first_step_s",
        "sim.virt_compute_s",
        "sim.virt_comm_s",
        "sim.virt_sync_s",
        "sim.virt_redist_s",
        "sim.sync_frac",
        "sim.msgs_local",
        "sim.msgs_remote",
    ] {
        // The service runs its simulations internally: not observable here.
        m.set(name, 0.0);
    }
    m.set("mesh.blocks_final", mean(&|w| w.blocks as f64));
    m.set("mesh.changed_steps", mean(&|w| w.changed as f64));
    m.set("core.place_s", mean(&|w| sum_s(&w.place_ns)));
    m.set("core.place_calls", mean(&|w| w.place_ns.len() as f64));
    let mut place: Vec<f64> = waves.iter().flat_map(|w| ms(&w.place_ns)).collect();
    place.sort_by(f64::total_cmp);
    m.set(
        "core.place_p50_ms",
        stats::percentile(&place, 50_000).unwrap_or(0.0),
    );
    m.set("core.place_max_ms", place.last().copied().unwrap_or(0.0));
    m.set(
        "core.over_budget_calls",
        mean(&|w| w.place_ns.iter().filter(|&&ns| ns > 50_000_000).count() as f64),
    );
    m.set("core.blocks_migrated", mean(&|w| w.moved as f64));
    m.set("sim.lb_invocations", mean(&|w| w.lb_invocations as f64));
    // Steady-state wave wall: second front cycle of the 1-thread reference
    // against every warm wave of the untraced 2-thread window.
    let warm = |ws: &[Wave]| {
        let v: Vec<f64> = ws[FRONT_CYCLE..].iter().map(|w| w.wall_ns as f64).collect();
        median(&v)
    };
    let speedup = match (warm(reference), warm(&plain.waves)) {
        (Some(one), Some(two)) => one / two,
        _ => f64::NAN,
    };
    m.set("sim.speedup_vs_1t", speedup);
    m.set("pool.cpu_util", plain.window.cpu_util(THREADS));
    m.set("telemetry.rows", mean(&|w| w.rows as f64));
    m.set("service.open_s", mean(&|w| w.open_ns as f64 / 1e9));
    m.set("service.drain_s", mean(&|w| w.drain_ns as f64 / 1e9));
    m.set("service.close_s", mean(&|w| w.close_ns as f64 / 1e9));
    m.set("service.serve_s", mean(&|w| sum_s(&w.serve_ns)));
    let mut serve_us: Vec<f64> = waves
        .iter()
        .flat_map(|w| w.serve_ns.iter().map(|&x| x as f64 / 1e3))
        .collect();
    serve_us.sort_by(f64::total_cmp);
    m.set(
        "service.serve_p50_us",
        stats::percentile(&serve_us, 50_000).unwrap_or(f64::NAN),
    );
    if let Some(t) = Tail::of_sorted(&serve_us) {
        m.set_noted("service.serve_tail_us", t.value, t.describe());
    }
    m.set(
        "service.queue_wait_s",
        mean(&|w| sum_s(&w.client_ns) - sum_s(&w.serve_ns)),
    );
    m.set_noted(
        "service.warm_hit_rate",
        traced.warm_hits as f64 / traced.opens.max(1) as f64,
        format!("{} of {} opens", traced.warm_hits, traced.opens),
    );
    m.set("service.opens", traced.opens as f64);
    m.set("service.requests", mean(&|w| w.requests as f64));
    m.set(
        "service.failed",
        waves.iter().map(|w| w.failed as f64).sum(),
    );
    let per_wave = |w: &ChurnWindow| {
        w.waves.iter().map(|x| x.wall_ns).sum::<u64>() as f64 / w.waves.len() as f64
    };
    m.set(
        "bench.trace_overhead",
        per_wave(traced) / per_wave(plain) - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_and_fleet_follow_the_seed() {
        assert_eq!(requests(1, 0), vec![Request::Rebalance]);
        assert_eq!(requests(3, 0).len(), 3);
        assert_eq!(requests(0, 9).len(), 5);
        assert_eq!(requests(0, 1), requests(0, 1 + FRONT_CYCLE));
        let a = fleet(7);
        let b = fleet(7);
        let c = fleet(8);
        assert_eq!(a.len(), CLIENTS);
        let keys = |m: &AmrMesh| m.num_blocks();
        assert!(a.iter().zip(&b).all(|(x, y)| keys(x) == keys(y)));
        assert!(a.iter().zip(&c).any(|(x, y)| keys(x) != keys(y)));
    }

    #[test]
    fn sampled_session_matches_direct_engine() {
        let shapes = fleet(3);
        let rec = Arc::new(Recorder::new(false));
        let mut churn = Churn::new(&shapes, 3, 2, rec);
        let waves: Vec<Wave> = (0..=SAMPLE_WAVE).map(|_| churn.wave()).collect();
        let sampled = waves[SAMPLE_WAVE].sampled.clone().expect("sampled");
        let client = 3 % CLIENTS;
        assert_eq!(
            Ok(sampled),
            direct_placement(&shapes[client], client, SAMPLE_WAVE)
        );
        assert!(waves.iter().all(|w| w.failed == 0 && w.requests > 0));
    }
}
