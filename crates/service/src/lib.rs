//! # amr-service — placement-as-a-service
//!
//! The north star asks the paper's placement machinery to serve "millions
//! of users": the zero-alloc [`PlacementEngine`] and the delta pipeline were
//! built for *reuse*, and this crate is the front end that sells that reuse
//! under traffic. A [`Service`] hosts many independent **sessions** — each a
//! mesh epoch plus a warm engine — and multiplexes batched requests over the
//! existing [`WorkerPool`]:
//!
//! * **Request batching.** Clients [`submit`](Service::submit) adapt /
//!   rebalance / simulate / telemetry-query requests; [`drain`](Service::drain)
//!   dispatches every queued session over the pool in one fork-join.
//!   Requests within a session are served FIFO; sessions are independent,
//!   so the batch parallelizes across them.
//! * **Cross-session work stealing.** `drain` orders sessions
//!   heaviest-queue-first and hands the order to
//!   [`WorkerPool::run_order`]: the pool's shared task counter lets workers
//!   that finish light sessions steal the remaining heavy ones — no
//!   dedicated scheduler thread.
//! * **Warm-engine LRU.** Closing a session parks its engine in a cache
//!   keyed by [`MeshFingerprint`] (SFC keys + rank count). A returning
//!   session with the same fingerprint checks the engine back out with its
//!   placement still primed — the first rebalance is *warm* (order-reuse,
//!   zero allocation) instead of cold.
//! * **Telemetry queries.** A session's last simulated epoch keeps its
//!   [`EventTable`]; [`Request::Query`] runs the `amr-telemetry` query
//!   engine over it and returns a flat
//!   [`QuerySummary`](amr_telemetry::QuerySummary)-shaped response.
//!
//! Determinism contract: a session's responses are a pure function of its
//! own request sequence — the per-session FIFO plus slot ownership in the
//! pool make batch service bitwise identical to serial service at any
//! thread count (pinned by unit tests here and a property test against
//! direct `MacroSim`/engine calls in `tests/`).

use amr_core::engine::{MeshFingerprint, PlacementEngine};
use amr_core::policies::PlacementPolicy;
use amr_core::trigger::RebalanceTrigger;
use amr_core::Placement;
use amr_mesh::pool::WorkerPool;
use amr_mesh::{AmrMesh, MeshBlock, RefineTag};
use amr_sim::{MacroSim, SimConfig, Workload, WorkloadStep};
use amr_telemetry::{EventTable, Phase, Query};
use std::collections::VecDeque;
use std::time::Instant;

/// A placement policy a session can own: policies are stateless unit-like
/// values, and boxing them `Send + Sync` lets sessions travel to pool
/// workers.
pub type BoxedPolicy = Box<dyn PlacementPolicy + Send + Sync>;

/// Service-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads serving a batch (including the caller). 1 = serial.
    pub threads: usize,
    /// Warm engines kept after session close (LRU evicts past this).
    pub engine_cache_capacity: usize,
    /// Per-session request/response buffers are pre-sized to this, so a
    /// session whose queue stays within it serves without allocating.
    pub session_queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            threads: 1,
            engine_cache_capacity: 32,
            session_queue_capacity: 16,
        }
    }
}

/// Everything a new session needs besides its mesh.
pub struct SessionSpec {
    /// Ranks the session places onto.
    pub num_ranks: usize,
    /// Placement policy serving `Rebalance` and `Simulate`.
    pub policy: BoxedPolicy,
    /// Simulator config for `Simulate` requests (validated lazily on first
    /// use via [`MacroSim::try_new`]; an invalid config yields a `Failed`
    /// response, never a panic).
    pub sim: SimConfig,
}

impl SessionSpec {
    /// The tuned-stack spec: `SimConfig::tuned(num_ranks)` with full
    /// telemetry (sampling 1) so `Query` requests have data to scan.
    pub fn tuned(num_ranks: usize, policy: BoxedPolicy) -> SessionSpec {
        SessionSpec {
            num_ranks,
            policy,
            sim: SimConfig::tuned(num_ranks),
        }
    }
}

/// Telemetry query filters, mirroring the composable `Query` refinements.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuerySpec {
    /// Keep rows with this phase.
    pub phase: Option<Phase>,
    /// Keep rows from this rank.
    pub rank: Option<u32>,
    /// Keep rows whose step lies in `[lo, hi)`.
    pub step_range: Option<(u32, u32)>,
}

/// One unit of session traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Sweep the session's refinement front to `x = front`: blocks the
    /// tilted front plane crosses refine, blocks it has left coarsen (the
    /// same propagating-feature regime as the evolving-mesh bench).
    Adapt {
        /// Front position in the unit domain.
        front: f64,
    },
    /// Recompute the placement of the session's mesh epoch with its warm
    /// engine.
    Rebalance,
    /// Run `steps` macro-simulated timesteps over the current epoch,
    /// refreshing the session's telemetry table.
    Simulate {
        /// Virtual timesteps to run.
        steps: u64,
    },
    /// Aggregate the last simulated epoch's telemetry.
    Query(QuerySpec),
}

/// Outcome of one request, pushed to the session's response log in request
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `Adapt` outcome.
    Adapted {
        /// Blocks after the sweep.
        blocks: usize,
        /// Did any block refine or coarsen?
        changed: bool,
    },
    /// `Rebalance` outcome.
    Rebalanced {
        /// Bottleneck-rank completion time of the new placement.
        makespan: f64,
        /// `max/mean - 1` rank load imbalance.
        imbalance: f64,
        /// Blocks that changed rank (0 on the first placement: nothing to
        /// migrate from).
        moved: u64,
        /// Served by a primed engine (cache hit or steady-state repeat) —
        /// the warm, allocation-free path.
        warm: bool,
    },
    /// `Simulate` outcome.
    Simulated {
        /// Virtual run time (ns) — bitwise comparable across service and
        /// direct execution.
        total_ns: f64,
        /// Steps simulated.
        steps: u64,
        /// Rebalances the trigger fired.
        lb_invocations: u64,
    },
    /// `Query` outcome (the saturating one-pass summary).
    Queried {
        /// Rows selected.
        count: usize,
        /// Saturating duration sum (ns).
        total_duration_ns: u64,
        /// Max single duration (ns).
        max_duration_ns: u64,
    },
    /// The request could not be served; the session survives and continues
    /// with the next request.
    Failed {
        /// Human-readable cause.
        error: String,
    },
}

/// Handle to an open session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

/// Aggregate service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Sessions opened over the service lifetime.
    pub sessions_opened: u64,
    /// Sessions closed (engines offered to the cache).
    pub sessions_closed: u64,
    /// Requests served across all drains.
    pub requests_served: u64,
    /// Session opens that checked a warm engine out of the LRU.
    pub warm_hits: u64,
    /// Session opens that built a cold engine.
    pub cold_misses: u64,
    /// `drain` calls that dispatched at least one session.
    pub batches: u64,
}

/// Deterministic skewed per-block cost pattern shared by the service, its
/// tests and the load bench (mirrors the macrosim bench's `skewed_costs`,
/// refreshed in place so steady-state epochs don't allocate).
pub fn session_costs(n: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..n).map(|i| 1.0e6 * (1.0 + 0.37 * (i % 13) as f64)));
}

/// Tag function of the service's `Adapt` sweep: a tilted planar front at
/// `x = s + 0.3·y`, margin 0.01 — identical shape to the evolving-mesh
/// bench so adapt traffic exercises the delta pipeline, not a toy. Public
/// so tests and the load bench can replicate `Adapt` semantics directly
/// against a raw mesh.
pub fn front_tag(b: &MeshBlock, s: f64, max_level: u8) -> RefineTag {
    let slope = 0.3;
    let w = 0.01;
    let f_lo = s + slope * b.bounds.lo.y;
    let f_hi = s + slope * b.bounds.hi.y;
    let crosses = f_hi >= b.bounds.lo.x - w && f_lo <= b.bounds.hi.x + w;
    if crosses && b.level() < max_level {
        RefineTag::Refine
    } else if !crosses && b.level() > 0 {
        RefineTag::Coarsen
    } else {
        RefineTag::Keep
    }
}

/// Borrowed static workload over a session's epoch: `Simulate` runs the
/// macro-simulator against the session's mesh and costs without cloning
/// either.
struct EpochWorkload<'a> {
    mesh: &'a AmrMesh,
    costs: &'a [f64],
    steps: u64,
}

impl Workload for EpochWorkload<'_> {
    fn mesh(&self) -> &AmrMesh {
        self.mesh
    }
    fn advance(&mut self, _step: u64) -> WorkloadStep {
        WorkloadStep {
            mesh_changed: false,
            origins: None,
        }
    }
    fn block_compute_ns(&self) -> &[f64] {
        self.costs
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
}

/// One hosted session: a mesh epoch, its costs, a (possibly warm) engine,
/// a lazily built simulator, the last epoch's telemetry, and the FIFO
/// request queue with its response/latency logs.
struct Session {
    mesh: AmrMesh,
    costs: Vec<f64>,
    num_ranks: usize,
    policy: BoxedPolicy,
    sim_config: SimConfig,
    engine: PlacementEngine,
    sim: Option<MacroSim>,
    telemetry: Option<EventTable>,
    queue: VecDeque<Request>,
    responses: Vec<Response>,
    latencies_ns: Vec<u64>,
    /// Fingerprint of the *current* mesh epoch at this rank count.
    fingerprint: MeshFingerprint,
    /// Fingerprint the engine's primed placement solves (diverges from
    /// `fingerprint` after an `Adapt` until the next `Rebalance`); this is
    /// the key the engine parks under at close.
    placed_fp: Option<MeshFingerprint>,
}

impl Session {
    /// Serve the queued requests FIFO, logging one response and one wall
    /// latency per request. Runs on exactly one pool worker per drain.
    fn process_queue(&mut self) {
        while let Some(req) = self.queue.pop_front() {
            let t = Instant::now();
            let resp = self.handle(req);
            self.latencies_ns.push(t.elapsed().as_nanos() as u64);
            self.responses.push(resp);
        }
    }

    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Adapt { front } => {
                let max_level = self.mesh.config().max_level;
                let changed = self
                    .mesh
                    .adapt(|b| front_tag(b, front, max_level))
                    .changed();
                if changed {
                    session_costs(self.mesh.num_blocks(), &mut self.costs);
                    self.fingerprint = MeshFingerprint::of_mesh(&self.mesh, self.num_ranks);
                }
                Response::Adapted {
                    blocks: self.mesh.num_blocks(),
                    changed,
                }
            }
            Request::Rebalance => {
                let warm = self.engine.placement().is_some();
                match self.engine.rebalance_with(
                    self.policy.as_ref(),
                    &self.costs,
                    self.num_ranks,
                    Some(&self.mesh),
                    None,
                ) {
                    Ok(report) => {
                        self.placed_fp = Some(self.fingerprint);
                        Response::Rebalanced {
                            makespan: report.makespan,
                            imbalance: report.imbalance,
                            moved: report.migration.map_or(0, |m| m.moved as u64),
                            warm,
                        }
                    }
                    Err(e) => Response::Failed {
                        error: e.to_string(),
                    },
                }
            }
            Request::Simulate { steps } => {
                if self.sim.is_none() {
                    // The hardened constructor: a bad per-session config
                    // fails *this* request, not the process.
                    match MacroSim::try_new(self.sim_config.clone()) {
                        Ok(sim) => self.sim = Some(sim),
                        Err(error) => return Response::Failed { error },
                    }
                }
                let sim = self.sim.as_mut().expect("just constructed");
                let mut workload = EpochWorkload {
                    mesh: &self.mesh,
                    costs: &self.costs,
                    steps,
                };
                match sim.try_run(
                    &mut workload,
                    self.policy.as_ref(),
                    RebalanceTrigger::OnMeshChange,
                ) {
                    Ok(report) => {
                        let resp = Response::Simulated {
                            total_ns: report.total_ns,
                            steps,
                            lb_invocations: report.lb_invocations,
                        };
                        self.telemetry = Some(report.telemetry);
                        resp
                    }
                    Err(error) => Response::Failed { error },
                }
            }
            Request::Query(spec) => match &self.telemetry {
                None => Response::Failed {
                    error: "no telemetry: run Simulate first".to_string(),
                },
                Some(table) => {
                    let mut q = Query::new(table);
                    if let Some(p) = spec.phase {
                        q = q.phase(p);
                    }
                    if let Some(rank) = spec.rank {
                        q = q.rank(rank);
                    }
                    if let Some((lo, hi)) = spec.step_range {
                        q = q.step_range(lo, hi);
                    }
                    let s = q.summary();
                    Response::Queried {
                        count: s.count,
                        total_duration_ns: s.total_duration_ns,
                        max_duration_ns: s.max_duration_ns,
                    }
                }
            },
        }
    }
}

/// One session slot, nullable so closed slots are reused.
///
/// `Session` is not auto-`Send`: `PlacementEngine` and `MacroSim` carry an
/// `Option<TraceHandle>` (`Rc`-based) field even though the service never
/// attaches one.
struct Slot(Option<Session>);

// SAFETY: the service constructs every engine and simulator itself and
// never calls `set_trace`, so no slot holds a live `Rc`/`RefCell` shared
// outside it; `WorkerPool::run_order` hands each slot to exactly one worker
// per dispatch (distinctness asserted there), and between dispatches slots
// are touched only by the owning `Service` thread.
unsafe impl Send for Slot {}

/// LRU of warm engines keyed by mesh fingerprint. Small by design (tens of
/// entries): a linear scan of a `Vec` beats a hash map at this size and
/// keeps eviction order trivial — oldest entry at the front, most recently
/// parked at the back.
struct EngineCache {
    capacity: usize,
    entries: Vec<(MeshFingerprint, PlacementEngine)>,
}

impl EngineCache {
    fn new(capacity: usize) -> EngineCache {
        EngineCache {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Remove and return the warm engine for `fp`, if cached.
    fn checkout(&mut self, fp: MeshFingerprint) -> Option<PlacementEngine> {
        let i = self.entries.iter().position(|(f, _)| *f == fp)?;
        Some(self.entries.remove(i).1)
    }

    /// Park an engine under `fp`, evicting the least-recently-parked entry
    /// past capacity. A same-fingerprint entry is replaced (the newer
    /// engine's scratch is at least as warm).
    fn park(&mut self, fp: MeshFingerprint, engine: PlacementEngine) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|(f, _)| *f == fp) {
            self.entries.remove(i);
        } else if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((fp, engine));
    }
}

/// The session server. See the crate docs for the architecture.
pub struct Service {
    pool: WorkerPool,
    slots: Vec<Slot>,
    cache: EngineCache,
    /// Drain-order scratch, reused across batches.
    order: Vec<usize>,
    stats: ServiceStats,
    queue_capacity: usize,
}

impl Service {
    /// Build a service with `config.threads` workers and an empty cache.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            pool: WorkerPool::new(config.threads.max(1)),
            slots: Vec::new(),
            cache: EngineCache::new(config.engine_cache_capacity),
            order: Vec::new(),
            stats: ServiceStats::default(),
            queue_capacity: config.session_queue_capacity,
        }
    }

    /// Open a session over `mesh`. The warm-engine LRU is consulted with
    /// the (mesh, ranks) fingerprint: a hit hands the parked engine — its
    /// placement still primed — to the new session, so its first
    /// `Rebalance` runs the warm, allocation-free path.
    pub fn open_session(&mut self, mesh: AmrMesh, spec: SessionSpec) -> SessionId {
        let fp = MeshFingerprint::of_mesh(&mesh, spec.num_ranks);
        let (engine, placed_fp) = match self.cache.checkout(fp) {
            Some(engine) => {
                debug_assert_eq!(engine.fingerprint(), Some(fp));
                self.stats.warm_hits += 1;
                (engine, Some(fp))
            }
            None => {
                self.stats.cold_misses += 1;
                (PlacementEngine::new(), None)
            }
        };
        let mut costs = Vec::new();
        session_costs(mesh.num_blocks(), &mut costs);
        let session = Session {
            mesh,
            costs,
            num_ranks: spec.num_ranks,
            policy: spec.policy,
            sim_config: spec.sim,
            engine,
            sim: None,
            telemetry: None,
            queue: VecDeque::with_capacity(self.queue_capacity),
            responses: Vec::with_capacity(self.queue_capacity),
            latencies_ns: Vec::with_capacity(self.queue_capacity),
            fingerprint: fp,
            placed_fp,
        };
        self.stats.sessions_opened += 1;
        match self.slots.iter().position(|s| s.0.is_none()) {
            Some(i) => {
                self.slots[i].0 = Some(session);
                SessionId(i)
            }
            None => {
                self.slots.push(Slot(Some(session)));
                SessionId(self.slots.len() - 1)
            }
        }
    }

    /// Close a session. If its engine holds a primed placement, the engine
    /// is stamped with the fingerprint that placement solves and parked in
    /// the LRU for the next same-shaped tenant.
    pub fn close_session(&mut self, id: SessionId) {
        let slot = self.slots.get_mut(id.0).expect("invalid session id");
        let session = slot.0.take().expect("session already closed");
        self.stats.sessions_closed += 1;
        if let (Some(fp), true) = (session.placed_fp, session.engine.placement().is_some()) {
            let mut engine = session.engine;
            engine.set_fingerprint(Some(fp));
            self.cache.park(fp, engine);
        }
    }

    /// Queue a request on an open session (FIFO within the session).
    pub fn submit(&mut self, id: SessionId, req: Request) {
        let slot = self.slots.get_mut(id.0).expect("invalid session id");
        let session = slot.0.as_mut().expect("session closed");
        session.queue.push_back(req);
    }

    /// Serve every queued request as one batch over the pool; returns the
    /// number of requests served. Sessions with the deepest queues are
    /// dispatched first so workers finishing light sessions steal the heavy
    /// tail. Serial at `threads == 1` (and allocation-free once warm).
    pub fn drain(&mut self) -> usize {
        self.order.clear();
        let mut served = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(session) = slot.0.as_ref() {
                if !session.queue.is_empty() {
                    self.order.push(i);
                    served += session.queue.len();
                }
            }
        }
        if self.order.is_empty() {
            return 0;
        }
        let slots = &self.slots;
        self.order.sort_unstable_by(|&a, &b| {
            let qa = slots[a].0.as_ref().map_or(0, |s| s.queue.len());
            let qb = slots[b].0.as_ref().map_or(0, |s| s.queue.len());
            qb.cmp(&qa).then(a.cmp(&b))
        });
        self.pool
            .run_order(&self.order, &mut self.slots, |_, slot| {
                if let Some(session) = slot.0.as_mut() {
                    session.process_queue();
                }
            });
        self.stats.requests_served += served as u64;
        self.stats.batches += 1;
        served
    }

    /// Responses logged so far for `id`, in request order.
    pub fn responses(&self, id: SessionId) -> &[Response] {
        self.slots[id.0]
            .0
            .as_ref()
            .map_or(&[], |s| &s.responses[..])
    }

    /// Forget `id`'s logged responses and latencies (keeps capacity).
    pub fn clear_responses(&mut self, id: SessionId) {
        if let Some(s) = self.slots[id.0].0.as_mut() {
            s.responses.clear();
            s.latencies_ns.clear();
        }
    }

    /// The session's current placement, if it has rebalanced.
    pub fn session_placement(&self, id: SessionId) -> Option<&Placement> {
        self.slots[id.0].0.as_ref()?.engine.placement()
    }

    /// Current block count of the session's mesh epoch.
    pub fn session_blocks(&self, id: SessionId) -> usize {
        self.slots[id.0]
            .0
            .as_ref()
            .map_or(0, |s| s.mesh.num_blocks())
    }

    /// Raw fingerprint of the session's current epoch (test plumbing).
    pub fn session_fingerprint(&self, id: SessionId) -> Option<u64> {
        Some(self.slots[id.0].0.as_ref()?.fingerprint.raw())
    }

    /// Whether the warm-engine LRU currently holds `raw` (test plumbing).
    pub fn cache_contains(&self, raw: u64) -> bool {
        self.cache.entries.iter().any(|(f, _)| f.raw() == raw)
    }

    /// Warm engines currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.entries.len()
    }

    /// Drain every session's recorded per-request wall latencies into
    /// `out` (appended; session buffers keep their capacity).
    pub fn take_latencies(&mut self, out: &mut Vec<u64>) {
        for slot in &mut self.slots {
            if let Some(s) = slot.0.as_mut() {
                out.extend_from_slice(&s.latencies_ns);
                s.latencies_ns.clear();
            }
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Threads serving a batch (including the caller).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

#[cfg(test)]
mod tests;
