//! Step-level simulation of a full AMR run.
//!
//! Message-level simulation of 30k–53k timesteps at 4096 ranks is neither
//! feasible nor necessary: the Fig. 6 findings are about per-step phase
//! times and their propagation through synchronization. `MacroSim` computes,
//! per timestep:
//!
//! 1. **Compute** — per-rank sums of per-block costs from the workload,
//!    scaled by node fault multipliers and OS jitter ([`crate::faults`]);
//! 2. **Boundary exchange** — per-rank dispatch + receive-service times from
//!    the placement-classified message aggregates (intra-rank relations are
//!    memcpys), plus the two-rank-critical-path wait: a rank blocks until its
//!    slowest sending neighbor has dispatched (§IV-D);
//! 3. **Synchronization** — a binomial-tree barrier over per-rank finish
//!    times ([`crate::collectives`]): stragglers charge everyone;
//! 4. **Redistribution** — when the trigger fires, the placement policy runs
//!    through a reused [`amr_core::engine::PlacementEngine`] (wall-clock
//!    measured against the paper's 50 ms budget, allocation-free in steady
//!    state) and the engine's migration accounting is charged at fabric
//!    bandwidth.
//!
//! Per-block compute telemetry feeds an EWMA cost model
//! ([`amr_core::cost::TelemetryCostModel`]) which in turn feeds the policy —
//! the full telemetry-driven placement loop of the paper.

use crate::collectives::{self, CollectiveAlgo, CollectiveSelect};
use crate::faults::{FaultResponse, FaultTimeline};
use crate::health::blacklist_and_rehost;
use crate::network::NetworkConfig;
use crate::par;
use crate::report::{MessageTotals, PhaseBreakdown};
use crate::topology::{NodeMap, Topology};
use amr_core::cost::{CostModel, CostOrigin, TelemetryCostModel};
use amr_core::engine::PlacementEngine;
use amr_core::policies::PlacementPolicy;
use amr_core::trigger::{RebalanceTrigger, TriggerContext};
use amr_core::Placement;
use amr_mesh::pool::WorkerPool;
use amr_mesh::{AmrMesh, BlockId, Neighbor, NeighborGraph, PatchScratch, ShardedMesh};
use amr_telemetry::anomaly::{OnlineDetectorConfig, OnlineThrottleDetector};
use amr_telemetry::trace::{
    Counter as TraceCounter, Gauge as TraceGauge, MetricsRegistry, TraceHandle, TracePhase,
};
use amr_telemetry::{Collector, EventTable, Phase, WorkerLane};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Bytes per ghost-block metadata record in the inter-shard halo exchange:
/// SFC key (8) + level/owner (8) + cost estimate (8) + bounds tag (8).
const GHOST_META_BYTES: f64 = 32.0;

/// Measured sync share above which [`CollectiveSelect::Adaptive`] abandons
/// the binomial-tree default and re-selects the cheapest algorithm for the
/// current scale and payload. Below it, synchronization isn't the problem
/// and switching would only churn the collective schedule.
const ADAPTIVE_SYNC_THRESHOLD: f64 = 0.15;

/// What a workload reports after advancing one step.
#[derive(Debug, Clone, Default)]
pub struct WorkloadStep {
    /// Did the mesh refine/coarsen (requiring redistribution)?
    pub mesh_changed: bool,
    /// When the mesh changed: for each *new* block, where its cost history
    /// comes from.
    pub origins: Option<Vec<CostOrigin>>,
}

/// A simulation workload: evolving mesh + per-block compute costs.
///
/// Implementations live in `amr-workloads` (Sedov blast wave, galaxy-cooling
/// style, synthetic). The contract: after `advance(step)`, `mesh()` and
/// `block_compute_ns()` describe the state for step `step`.
pub trait Workload {
    /// The current mesh snapshot.
    fn mesh(&self) -> &AmrMesh;
    /// Advance the physics to `step` (0-based), possibly adapting the mesh.
    fn advance(&mut self, step: u64) -> WorkloadStep;
    /// Ground-truth expected compute cost (ns) per block, SFC order, for the
    /// current step. The simulator adds fault/jitter multipliers on top.
    fn block_compute_ns(&self) -> &[f64];
    /// Number of steps this scenario runs.
    fn total_steps(&self) -> u64;
}

/// Macro-simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub topology: Topology,
    pub network: NetworkConfig,
    /// Dynamic fault schedule (a plain [`crate::faults::FaultConfig`]
    /// converts via `.into()` for whole-run static faults).
    pub faults: FaultTimeline,
    /// How the run reacts when the online detector flags a node: ignore it,
    /// reweight placement capacities, or blacklist-and-migrate to spares.
    pub fault_response: FaultResponse,
    /// Tuning for the online throttle detector (only consulted when
    /// `fault_response` is not [`FaultResponse::Oblivious`]).
    pub detector: OnlineDetectorConfig,
    /// Spare machines overprovisioned for [`FaultResponse::PruneAndMigrate`]
    /// (the paper's §IV-A launch workflow).
    pub spare_nodes: usize,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Record telemetry every `n`-th step (1 = all).
    pub telemetry_sampling: u32,
    /// Record per-block compute events (heavier) in addition to rank-level.
    pub per_block_telemetry: bool,
    /// Feed measured (EWMA) costs to the policy instead of uniform 1.0 —
    /// the paper's §V-A3 change (1). With `false`, even cost-aware policies
    /// see the production default of "every block costs 1".
    pub use_measured_costs: bool,
    /// EWMA smoothing for the telemetry cost model.
    pub cost_alpha: f64,
    /// The paper's placement computation budget (50 ms), for reporting.
    pub placement_budget_ns: u64,
    /// Coupling between a sender's compute time and its boundary-send
    /// dispatch time. 0.0 models the fully tuned sends-first schedule
    /// (§IV-B: sends dispatched before compute); 1.0 models the untuned
    /// compute-before-send order where receivers wait out their slowest
    /// neighbor's entire compute. The tuned default keeps a small residue:
    /// later blocks' sends still trail their own kernels.
    pub send_coupling: f64,
    /// Boundary exchanges per timestep. Multi-stage time integrators
    /// exchange ghost zones once per stage plus flux correction (Parthenon's
    /// drivers typically run 2–3 stages), so each step carries several
    /// rounds of the per-round message aggregates.
    pub exchanges_per_step: u32,
    /// Asynchronous-runtime masking efficiency (§IV-D "overlapping
    /// computation to hide wait stalls"): the fraction of point-to-point
    /// wait hidden by independent work from *other blocks on the same
    /// rank*. 0.0 models strict BSP execution; 1.0 a perfect task runtime.
    /// A rank holding only one block has nothing to overlap with, so the
    /// effective masking scales with `1 - 1/blocks_on_rank` — the
    /// counterintuitive locality tension the paper points out.
    pub overlap_efficiency: f64,
    /// Number of SFC shards the mesh topology is partitioned into
    /// (hierarchical-scale runs). `0` (the default) keeps the flat path: one
    /// resident global [`NeighborGraph`], incrementally patched. Any value
    /// ≥ 1 switches the run to a [`ShardedMesh`] — per-shard CSR graphs with
    /// halo tables, refreshed per shard on mesh change — and charges a
    /// ghost-metadata exchange between shards on mesh-change steps. With
    /// `num_shards == 1` the halo is empty, the charge is exactly zero, and
    /// virtual time is bit-identical to the flat path (the shard rows keep
    /// global block ids, so every float accumulates in the same order).
    pub num_shards: usize,
    /// Accumulate per-relation observed exchange bytes in an
    /// [`ExchangeByteLedger`](crate::ledger::ExchangeByteLedger) and feed
    /// them to the placement policy as measured edge weights
    /// ([`PlacementCtx::edge_weights`](amr_core::engine::PlacementCtx)) —
    /// the closed observe→partition loop that lets the multilevel family
    /// optimize real traffic instead of the static model (§VIII). Flat-path
    /// only (`num_shards == 0`): the ledger is entry-parallel to the
    /// resident global [`NeighborGraph`]. Policies that ignore edge weights
    /// see bit-identical virtual time with this on or off.
    pub observe_exchange_bytes: bool,
    /// OS threads of the simulator-owned worker pool every kernel runs on —
    /// epoch fill, compute scatter, ready/finish, ledger flushes and
    /// (sharded runs) shard rebuilds. `1` (the default) spawns no thread:
    /// each kernel runs inline as a single task that owns every rank. Larger
    /// values split the same kernels over real threads under the
    /// slot-ownership rule (DESIGN.md §14), which keeps virtual time
    /// **bitwise identical** at any thread count. The pool is sized exactly
    /// `threads`, not the host's core count, so the parallel code paths are
    /// genuinely exercised (timesharing if need be) even on small machines.
    pub threads: usize,
    /// Which allreduce algorithm closes each step's synchronization: a fixed
    /// [`CollectiveAlgo`] (the default pins the legacy binomial tree,
    /// bit-identical to the pre-enum simulator) or
    /// [`CollectiveSelect::Adaptive`], which watches the run's own
    /// sync-fraction feedback gauge and switches to the cheapest algorithm
    /// for the current scale/payload once synchronization dominates.
    pub collectives: CollectiveSelect,
    /// Payload of the per-step timestep-control allreduce (dt plus CFL
    /// diagnostics), bytes. The historical hard-coded value was 64.
    pub collective_payload_bytes: u64,
}

impl SimConfig {
    /// Tuned, healthy defaults at the given scale.
    pub fn tuned(num_ranks: usize) -> SimConfig {
        SimConfig {
            topology: Topology::paper(num_ranks),
            network: NetworkConfig::tuned(),
            faults: FaultTimeline::healthy(),
            fault_response: FaultResponse::Oblivious,
            detector: OnlineDetectorConfig::default(),
            spare_nodes: 0,
            seed: 0xA17,
            telemetry_sampling: 1,
            per_block_telemetry: false,
            use_measured_costs: true,
            cost_alpha: 0.5,
            placement_budget_ns: 50_000_000,
            send_coupling: 0.05,
            exchanges_per_step: 3,
            overlap_efficiency: 0.0,
            observe_exchange_bytes: false,
            num_shards: 0,
            threads: 1,
            collectives: CollectiveSelect::default(),
            collective_payload_bytes: 64,
        }
    }

    /// Boundary validation run by [`MacroSim::new`]: reject degenerate
    /// bandwidths and fault multipliers before they can poison the cost
    /// model mid-run. A zero/non-finite `bytes_per_ns` — reachable through a
    /// struct-literal [`crate::faults::FaultEpisode`] with
    /// `nic_bandwidth_mult: 0.0` — would saturate every allreduce to
    /// `u64::MAX` and (pre-fix) overflow the completion sum in debug builds.
    pub fn validate(&self) -> Result<(), String> {
        self.network
            .validate()
            .map_err(|e| format!("network.{e}"))?;
        self.faults.validate().map_err(|e| format!("faults: {e}"))?;
        if self.threads == 0 {
            return Err("threads must be >= 1 (1 = run inline)".to_string());
        }
        if self.observe_exchange_bytes && self.num_shards > 0 {
            return Err(
                "observe_exchange_bytes requires the flat path (num_shards == 0): \
                 the ledger is entry-parallel to the resident global graph"
                    .to_string(),
            );
        }
        if !self.cost_alpha.is_finite() || !(0.0..=1.0).contains(&self.cost_alpha) {
            return Err(format!(
                "cost_alpha must be finite and in [0, 1] (got {})",
                self.cost_alpha
            ));
        }
        if self.collective_payload_bytes == 0 {
            return Err(
                "collective_payload_bytes must be >= 1 (the dt allreduce always carries data)"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Outcome of a macro-simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy name used.
    pub policy: String,
    /// Steps simulated.
    pub steps: u64,
    /// Phase totals, mean per rank (ns).
    pub phases: PhaseBreakdown,
    /// Virtual wall time of the whole run (sum of step completions), ns.
    pub total_ns: f64,
    /// Number of redistribution invocations.
    pub lb_invocations: u64,
    /// Steps on which the mesh changed.
    pub mesh_change_steps: u64,
    /// Message totals over the run.
    pub messages: MessageTotals,
    /// Blocks migrated across all redistributions.
    pub blocks_migrated: u64,
    /// Initial / final block counts (Table I's n_init / n_final).
    pub initial_blocks: usize,
    pub final_blocks: usize,
    /// Host wall-clock time spent computing placements (total and max per
    /// invocation) — checked against the paper's 50 ms budget.
    pub placement_wall_total_ns: u64,
    pub placement_wall_max_ns: u64,
    /// Nodes blacklisted and re-hosted onto spares by the online loop.
    pub nodes_pruned: u64,
    /// Times the detector's verdict changed the capacity vector handed to
    /// the placement engine (onsets and recoveries both count).
    pub capacity_updates: u64,
    /// Shards the run's mesh topology was partitioned into (0 = flat path).
    pub num_shards: usize,
    /// Total virtual time charged for inter-shard ghost-metadata exchange
    /// across all mesh-change steps (exactly 0.0 on the flat path and at
    /// `num_shards == 1`, where the halo is empty).
    pub halo_exchange_ns: f64,
    /// Halo (ghost) blocks of the final epoch, summed over shards.
    pub final_halo_blocks: u64,
    /// Collected telemetry.
    pub telemetry: EventTable,
}

impl RunReport {
    /// Did every placement computation meet the budget?
    pub fn placement_within_budget(&self, budget_ns: u64) -> bool {
        self.placement_wall_max_ns <= budget_ns
    }
}

/// The topology source an epoch is filled from: the flat resident
/// [`NeighborGraph`], or a [`ShardedMesh`] walked shard by shard. Shard rows
/// store *global* neighbor ids in the same per-row order as the flat graph,
/// and shards tile the SFC index space contiguously, so both variants visit
/// identical `(block, neighbor)` pairs in identical order — the float
/// accumulation in [`par::fill_epoch`] is bit-for-bit the same.
#[derive(Clone, Copy)]
pub(crate) enum GraphView<'a> {
    Flat(&'a NeighborGraph),
    Sharded(&'a ShardedMesh),
}

impl GraphView<'_> {
    /// Visit every block's neighbor row in global SFC order.
    pub(crate) fn for_each_row(&self, mut f: impl FnMut(BlockId, &[Neighbor])) {
        match *self {
            GraphView::Flat(g) => {
                for (block, nbs) in g.iter() {
                    f(block, nbs);
                }
            }
            GraphView::Sharded(sm) => {
                for s in 0..sm.num_shards() {
                    let shard = sm.shard(s);
                    let base = shard.range().start;
                    for local in 0..shard.num_blocks() {
                        f(BlockId((base + local) as u32), shard.neighbors_local(local));
                    }
                }
            }
        }
    }
}

/// Per-rank communication aggregates for the current (mesh, placement)
/// epoch. Recomputed only when either changes.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommEpoch {
    /// Dispatch time per rank (MPI sends only).
    pub(crate) dispatch_ns: Vec<f64>,
    /// Receive service time per rank (incl. shm contention).
    pub(crate) service_ns: Vec<f64>,
    /// Intra-rank memcpy time per rank.
    pub(crate) memcpy_ns: Vec<f64>,
    /// Ranks that send to each rank (for the arrival/wait model), sorted
    /// and deduplicated, as CSR: rank `r`'s senders are
    /// `senders[sender_offsets[r]..sender_offsets[r + 1]]`.
    pub(crate) sender_offsets: Vec<u32>,
    pub(crate) senders: Vec<u32>,
    /// Per-round message counts by class.
    pub(crate) intra_msgs: u64,
    pub(crate) local_msgs: u64,
    pub(crate) remote_msgs: u64,
    /// Flux-correction traffic (fine→coarse face pairs, §II-B): per-rank
    /// dispatch+service time and MPI message count per step.
    pub(crate) flux_ns: Vec<f64>,
    pub(crate) flux_msgs: u64,
    /// Representative per-message transfer latency into each rank (max over
    /// classes present), for the arrival model.
    pub(crate) transfer_tail_ns: Vec<f64>,
    /// Blocks hosted per rank (for overlap availability).
    pub(crate) blocks_per_rank: Vec<u32>,
    /// One round's remote boundary+flux bytes per directed node link, flat
    /// `src_node * num_nodes + dst_node`. Sized only while the credit model
    /// is enabled ([`NetworkConfig::congestion_enabled`]); empty otherwise.
    pub(crate) link_bytes: Vec<u64>,
    /// Per-rank worst-outgoing-link congestion stall (ns/round): the sender
    /// blocks for credit returns, so it lands in the rank's ready time.
    pub(crate) cong_send_ns: Vec<f64>,
    /// Per-rank worst-incoming-link congestion stall (ns/round): retransmits
    /// delay the receive service tail.
    pub(crate) cong_recv_ns: Vec<f64>,
}

impl CommEpoch {
    /// Clear all aggregates and size the per-rank vectors for `r` ranks,
    /// keeping every buffer's capacity (epochs are refilled in place).
    pub(crate) fn reset(&mut self, r: usize) {
        for v in [
            &mut self.dispatch_ns,
            &mut self.service_ns,
            &mut self.memcpy_ns,
            &mut self.flux_ns,
            &mut self.transfer_tail_ns,
            &mut self.cong_send_ns,
            &mut self.cong_recv_ns,
        ] {
            v.clear();
            v.resize(r, 0.0);
        }
        self.blocks_per_rank.clear();
        self.blocks_per_rank.resize(r, 0);
        self.link_bytes.clear();
        self.sender_offsets.clear();
        self.sender_offsets.resize(r + 1, 0);
        self.senders.clear();
        self.intra_msgs = 0;
        self.local_msgs = 0;
        self.remote_msgs = 0;
        self.flux_msgs = 0;
    }

    /// The deduplicated ranks that send to `rank`.
    #[inline]
    pub(crate) fn senders_of(&self, rank: usize) -> &[u32] {
        &self.senders[self.sender_offsets[rank] as usize..self.sender_offsets[rank + 1] as usize]
    }
}

/// The step-level simulator.
pub struct MacroSim {
    config: SimConfig,
    rng: StdRng,
    /// Placement engine reused across rebalances (and runs): its scratch and
    /// double-buffered placements make the steady-state rebalance loop
    /// allocation-free for the sequential policies.
    engine: PlacementEngine,
    /// Staging buffers for incremental neighbor-graph repair on mesh change
    /// (reused across adapts and runs).
    patch_scratch: PatchScratch,
    /// Optional trace handle shared with the engine (and, by callers, the
    /// mesh): per-step virtual spans plus pipeline counters/gauges.
    trace: Option<TraceHandle>,
    /// Pool every kernel runs on, sized `config.threads` (one thread runs
    /// each job inline). Owned by the simulator, not the process-global
    /// pool, so workers persist across steps and runs — steady-state
    /// dispatch allocates nothing.
    pool: WorkerPool,
    /// Observed exchange-byte accumulator (active only with
    /// `config.observe_exchange_bytes`); owned by the simulator so its
    /// buffers stay warm across runs.
    ledger: crate::ledger::ExchangeByteLedger,
    /// The always-on feedback plane: the same metrics registry shape the
    /// trace pipeline uses, but owned by the simulator and updated every
    /// step whether or not tracing is attached. The rebalance trigger reads
    /// its sync-fraction gauge, and [`CollectiveSelect::Adaptive`] reads the
    /// gauge plus the per-phase histograms — control decisions consume the
    /// run's *measured* signals, not the cost model's estimates.
    feedback: MetricsRegistry,
}

impl MacroSim {
    /// Create a simulator from a config.
    ///
    /// # Panics
    /// On an invalid config (see [`SimConfig::validate`]): degenerate
    /// network bandwidth or malformed fault timeline. Servers hosting many
    /// tenants use [`MacroSim::try_new`] instead — one bad request must not
    /// kill the process.
    pub fn new(config: SimConfig) -> MacroSim {
        MacroSim::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MacroSim::new`]: an invalid config (see
    /// [`SimConfig::validate`]) comes back as `Err` instead of a panic.
    pub fn try_new(config: SimConfig) -> Result<MacroSim, String> {
        config
            .validate()
            .map_err(|e| format!("invalid SimConfig: {e}"))?;
        let seed = config.seed;
        let pool = WorkerPool::new(config.threads);
        Ok(MacroSim {
            config,
            rng: StdRng::seed_from_u64(seed),
            engine: PlacementEngine::new(),
            patch_scratch: PatchScratch::default(),
            trace: None,
            pool,
            ledger: crate::ledger::ExchangeByteLedger::default(),
            feedback: MetricsRegistry::new(),
        })
    }

    /// The live feedback registry (sync-fraction gauge, per-phase
    /// histograms). Meaningful after (or during) a run; reset at run start.
    pub fn feedback(&self) -> &MetricsRegistry {
        &self.feedback
    }

    /// The observed exchange-byte ledger (meaningful after a run with
    /// `observe_exchange_bytes`; tests and benches inspect it).
    pub fn exchange_ledger(&self) -> &crate::ledger::ExchangeByteLedger {
        &self.ledger
    }

    /// Attach (or detach, with `None`) a trace handle; the placement engine
    /// shares it, so `place` spans and rebalance metrics ride along.
    /// Tracing observes simulated time and never perturbs it: traced and
    /// untraced runs are bit-identical in virtual time (pinned by a property
    /// test in `tests/sim_properties.rs`).
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.engine.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Run `workload` under `policy`, rebalancing per `trigger`.
    ///
    /// # Panics
    /// If a placement fails (zero ranks, degenerate costs). Servers use
    /// [`MacroSim::try_run`], which surfaces the failure as `Err`.
    pub fn run(
        &mut self,
        workload: &mut dyn Workload,
        policy: &dyn PlacementPolicy,
        trigger: RebalanceTrigger,
    ) -> RunReport {
        self.try_run(workload, policy, trigger)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MacroSim::run`]: initial and mid-run placement failures
    /// come back as `Err` with the offending step named, leaving the
    /// simulator reusable, instead of panicking.
    pub fn try_run(
        &mut self,
        workload: &mut dyn Workload,
        policy: &dyn PlacementPolicy,
        trigger: RebalanceTrigger,
    ) -> Result<RunReport, String> {
        let cfg = self.config.clone();
        let r = cfg.topology.num_ranks;
        let steps = workload.total_steps();
        let mut collector = Collector::with_sampling(cfg.telemetry_sampling);
        // Each run starts with a clean feedback plane; the registry is owned
        // by the simulator so its histogram buffers stay warm across runs.
        self.feedback.reset();

        // The closed fault loop: the collector's per-step compute series
        // feeds an online throttle detector; its verdicts feed back as
        // placement capacities (Reweight) or node blacklisting
        // (PruneAndMigrate). Oblivious runs skip all of it.
        let respond = cfg.fault_response != FaultResponse::Oblivious;
        let mut detector = if respond {
            collector.track_step_compute(r);
            Some(OnlineThrottleDetector::new(
                r,
                cfg.topology.ranks_per_node,
                cfg.detector,
            ))
        } else {
            None
        };
        let mut node_map = NodeMap::with_spares(cfg.topology.num_nodes(), cfg.spare_nodes);
        // Capacity vector currently applied to the engine (empty ⇔ inactive).
        let mut caps: Vec<f64> = Vec::new();
        let mut caps_active = false;
        let mut det_signal = vec![0.0f64; r];
        let mut force_rebalance = false;
        let mut pending_migration_ns = 0.0f64;
        let mut nodes_pruned = 0u64;
        let mut capacity_updates = 0u64;
        // Per-rank NIC slowdowns stay pinned at 1.0 on compute-only
        // timelines; multiplying by 1.0 is bit-exact, so the healthy path's
        // arithmetic is unchanged.
        let nic_dynamic = cfg.faults.any_nic_degradation();
        let mut nic_slow = vec![1.0f64; r];
        let mut nic_hop_mult = 1.0f64;

        let initial_blocks = workload.mesh().num_blocks();
        let mut cost_model = TelemetryCostModel::new(initial_blocks, cfg.cost_alpha, 1.0e6);
        let spec = workload.mesh().config().spec;
        let dim = workload.mesh().config().dim;
        let block_bytes = spec.cells(workload.mesh().config().dim)
            * spec.num_vars as u64
            * spec.bytes_per_value as u64;

        // Scratch reused across steps and rebalances.
        let mut uniform: Vec<f64> = Vec::new();
        let mut cost_spare: Vec<f64> = Vec::new();
        let mut shm_in: Vec<usize> = Vec::new();
        let mut epoch_partials: Vec<par::EpochPartial> = Vec::new();

        self.engine.reset();
        {
            let costs: &[f64] = if cfg.use_measured_costs {
                cost_model.costs()
            } else {
                uniform.resize(initial_blocks, 1.0);
                &uniform
            };
            self.engine
                .rebalance_with(policy, costs, r, Some(workload.mesh()), None)
                .map_err(|e| format!("initial placement failed: {e}"))?;
        }
        // The neighbor topology depends only on the mesh, not the placement:
        // cache it across epochs and rebuild only when the mesh changes
        // (placement-only rebalances — e.g. a periodic trigger — refill the
        // epoch from the cached topology). Flat runs hold one resident
        // global graph; sharded runs hold per-shard CSR graphs with halo
        // tables instead and never materialize the global CSR.
        let mut flat_graph: Option<NeighborGraph> = if cfg.num_shards == 0 {
            Some(workload.mesh().neighbor_graph())
        } else {
            None
        };
        let mut sharded_mesh: Option<ShardedMesh> = if cfg.num_shards > 0 {
            // Shard builds distribute over the simulator's own pool; the
            // rows are pure functions of (tree, range), so chunking does not
            // change their contents.
            Some(ShardedMesh::new(
                workload.mesh(),
                cfg.num_shards,
                &self.pool,
            ))
        } else {
            None
        };
        // Arm the exchange-byte ledger against the resident flat graph
        // (validate() already rejected the sharded combination).
        let observe = cfg.observe_exchange_bytes;
        if observe {
            let g = flat_graph
                .as_ref()
                .expect("validate() pinned observe_exchange_bytes to the flat path");
            self.ledger.begin_run(g);
        }
        let mut halo_exchange_ns = 0.0f64;
        let mut epoch = CommEpoch::default();
        {
            let placement = self
                .engine
                .placement()
                .expect("initial placement primed the engine");
            let view = match (&flat_graph, &sharded_mesh) {
                (Some(g), _) => GraphView::Flat(g),
                (_, Some(sm)) => GraphView::Sharded(sm),
                _ => unreachable!("one topology source is always live"),
            };
            self.fill_epoch(
                workload.mesh(),
                placement,
                view,
                &mut epoch,
                &mut shm_in,
                &mut epoch_partials,
            );
        }

        let mut phases = PhaseBreakdown::default();
        let mut total_ns = 0.0f64;
        let mut messages = MessageTotals::default();
        let mut lb_invocations = 0u64;
        let mut mesh_change_steps = 0u64;
        let mut blocks_migrated = 0u64;
        let mut placement_wall_total = 0u64;
        let mut placement_wall_max = 0u64;

        // Tracing clones the handle once (an Rc bump) so span guards never
        // borrow `self` across the engine calls below. Everything recorded
        // is derived from values the untraced run computes anyway: tracing
        // observes virtual time, never perturbs it.
        let trace = self.trace.clone();
        if let Some(t) = &trace {
            t.metrics.set(TraceGauge::Ranks, r as f64);
        }

        // Scratch buffers reused across steps.
        let mut compute = vec![0.0f64; r];
        let mut ready = vec![0.0f64; r];
        let mut finish = vec![0.0f64; r];
        let mut send_arrival = vec![0.0f64; r];
        let mut rank_loads: Vec<f64> = Vec::new();
        let mut rank_mult = vec![0.0f64; r];
        let mut measured: Vec<f64> = Vec::new();
        let mut arrivals: Vec<u64> = Vec::with_capacity(r);
        let mut coll_wait: Vec<u64> = Vec::with_capacity(r);

        for step in 0..steps {
            collector.begin_step(step as u32);
            if let Some(t) = &trace {
                t.sink.set_step(step as u32);
                t.metrics.incr(TraceCounter::Steps, 1);
            }
            let ws = workload.advance(step);

            // --- Redistribution (placement + migration) -------------------
            // Pruning decided at the end of the previous step charges its
            // state migration here, at the top of the step it takes effect.
            let mut redist_per_rank = pending_migration_ns;
            pending_migration_ns = 0.0;
            let mut redist_moved = 0u64;
            let mut redist_bytes = 0u64;
            if ws.mesh_changed {
                mesh_change_steps += 1;
                if let Some(g) = flat_graph.as_mut() {
                    // The remesh invalidates the ledger's relation space:
                    // flush pending observations against the dying graph and
                    // stage its layout before the patch rewrites it...
                    if observe {
                        self.ledger.prepare_remesh(&self.pool, g, spec, dim);
                    }
                    // Incremental repair: only CSR rows touching changed
                    // octants are rebuilt (falls back to a full build when
                    // the workload's last delta doesn't describe this
                    // graph's mesh).
                    workload
                        .mesh()
                        .patch_neighbor_graph(g, &mut self.patch_scratch);
                    // ...then carry bytes for relations whose endpoints both
                    // survived (`CostOrigin::Same`); the rest start at zero.
                    if observe {
                        self.ledger.apply_remesh(ws.origins.as_deref(), g);
                    }
                }
                if let Some(sm) = sharded_mesh.as_mut() {
                    // Per-shard splice of the same delta; a stale delta
                    // degrades to a full per-shard rebuild (still streaming,
                    // never a global CSR) and is reported like the flat
                    // path's fallback.
                    let patched = {
                        let _span = trace.as_ref().map(|t| t.span(TracePhase::GraphPatch));
                        // The incremental splice stays on this thread (a
                        // single in-order pass); only the full-rebuild
                        // fallback fans out over the pool.
                        sm.refresh(workload.mesh(), &self.pool)
                    };
                    if let Some(t) = &trace {
                        if patched {
                            t.metrics.incr(TraceCounter::GraphPatches, 1);
                        } else {
                            t.metrics.incr(TraceCounter::GraphFullBuilds, 1);
                            t.metrics.incr(TraceCounter::GraphPatchFallbacks, 1);
                        }
                    }
                    // Remeshing republishes ghost-block metadata across every
                    // shard boundary before the next exchange epoch can run:
                    // each shard ships (key, level, owner) records for its
                    // halo over the fabric. The slowest shard gates the step
                    // (the refresh precedes redistribution). Exactly zero
                    // when the halo is empty — i.e. always at one shard — so
                    // the flat path's arithmetic is untouched.
                    let mut worst_ns = 0.0f64;
                    for s in 0..sm.num_shards() {
                        let halo = sm.shard(s).halo().len() as f64;
                        if halo > 0.0 {
                            let ns = cfg.network.fabric.latency_ns as f64
                                + halo * GHOST_META_BYTES / cfg.network.fabric.bytes_per_ns;
                            if ns > worst_ns {
                                worst_ns = ns;
                            }
                        }
                    }
                    halo_exchange_ns += worst_ns;
                    redist_per_rank += worst_ns;
                }
                if let Some(origins) = &ws.origins {
                    // Warm remap: children inherit the parent's estimate,
                    // merges average — staged in the reused spare buffer.
                    cost_model.remap_in_place(origins, &mut cost_spare);
                } else {
                    cost_model = TelemetryCostModel::new(
                        workload.mesh().num_blocks(),
                        cfg.cost_alpha,
                        1.0e6,
                    );
                }
            }
            // Only the imbalance trigger reads the estimate; every other
            // trigger skips the O(n + r) load pass.
            let imbalance = if !trigger.reads_imbalance() {
                f64::NAN
            } else {
                match self.engine.placement() {
                    Some(p) if p.num_blocks() == cost_model.len() => {
                        p.imbalance_into(cost_model.costs(), &mut rank_loads)
                    }
                    _ => f64::INFINITY,
                }
            };
            let ctx = TriggerContext {
                step,
                mesh_changed: ws.mesh_changed,
                imbalance,
                // The previous step's measured sync share (0.0 at step 0):
                // the trace-driven trigger reacts to what the run actually
                // lost, congestion and fault stalls included.
                sync_fraction: self.feedback.gauge(TraceGauge::SyncFraction),
            };
            let count_mismatch = self
                .engine
                .placement()
                .is_none_or(|p| p.num_blocks() != cost_model.len());
            if trigger.should_rebalance(&ctx) || count_mismatch || force_rebalance {
                force_rebalance = false;
                lb_invocations += 1;
                let n = workload.mesh().num_blocks();
                let costs: &[f64] = if cfg.use_measured_costs {
                    cost_model.costs()
                } else {
                    uniform.clear();
                    uniform.resize(n, 1.0);
                    &uniform
                };
                // Observed weights: materialize everything noted so far and
                // hand the per-relation bytes to the policy alongside the
                // cached graph. Weight-blind policies ignore both, so this
                // leaves their virtual time bit-identical (pinned by test).
                let edge_weights = if observe {
                    let g = flat_graph.as_ref().expect("flat path");
                    self.ledger.flush(&self.pool, g, spec, dim);
                    self.ledger.has_observations().then(|| self.ledger.bytes())
                } else {
                    None
                };
                let t0 = Instant::now();
                let report = self
                    .engine
                    .rebalance_weighted(
                        policy,
                        costs,
                        r,
                        Some(workload.mesh()),
                        ws.origins.as_deref(),
                        flat_graph.as_ref(),
                        edge_weights,
                    )
                    .map_err(|e| format!("rebalance at step {step} failed: {e}"))?;
                let wall = t0.elapsed().as_nanos() as u64;
                placement_wall_total += wall;
                placement_wall_max = placement_wall_max.max(wall);

                // Migration is an all-to-all of moved blocks: each rank's
                // cost is bounded by the larger of its outgoing and incoming
                // volume over the fabric, and the phase ends with the
                // slowest rank (it precedes a synchronization). The engine
                // charges it — diffed against the previous placement, or
                // flowed through the cost-origin remap across block-count
                // changes.
                let migration_ns = match report.migration {
                    Some(m) => {
                        redist_moved = m.moved as u64;
                        m.max_rank_flow as f64 * block_bytes as f64
                            / cfg.network.fabric.bytes_per_ns
                    }
                    None => {
                        // No comparable history (block count changed without
                        // origin tracking): every payload is rebuilt and
                        // shipped once; approximate by the mean per-rank
                        // volume.
                        redist_moved = report.num_blocks as u64;
                        redist_moved as f64 * block_bytes as f64
                            / cfg.network.fabric.bytes_per_ns
                            / r as f64
                    }
                };
                blocks_migrated += redist_moved;
                redist_bytes = redist_moved * block_bytes;
                redist_per_rank += wall as f64 + migration_ns;

                let placement = self
                    .engine
                    .placement()
                    .expect("rebalance primed the engine");
                let view = match (&flat_graph, &sharded_mesh) {
                    (Some(g), _) => GraphView::Flat(g),
                    (_, Some(sm)) => GraphView::Sharded(sm),
                    _ => unreachable!("one topology source is always live"),
                };
                self.fill_epoch(
                    workload.mesh(),
                    placement,
                    view,
                    &mut epoch,
                    &mut shm_in,
                    &mut epoch_partials,
                );
            }

            // --- Compute phase --------------------------------------------
            let block_ns = workload.block_compute_ns();
            let placement = self.engine.placement().expect("engine holds a placement");
            debug_assert_eq!(block_ns.len(), placement.num_blocks());
            measured.resize(block_ns.len(), 0.0);
            // Per-rank multiplier for this step (node fault + jitter),
            // sampled from the timeline at the node's *physical* machine —
            // a pruned node re-hosted on a spare escapes its episode.
            for (rank, m) in rank_mult.iter_mut().enumerate() {
                let phys = node_map.physical(cfg.topology.node_of(rank));
                *m = cfg.faults.compute_multiplier(step, phys, &mut self.rng);
            }
            if nic_dynamic {
                nic_hop_mult = 1.0;
                for (rank, s) in nic_slow.iter_mut().enumerate() {
                    let phys = node_map.physical(cfg.topology.node_of(rank));
                    *s = cfg.faults.nic_slowdown(step, phys);
                    if *s > nic_hop_mult {
                        nic_hop_mult = *s;
                    }
                }
            }
            par::compute_phase(
                &self.pool,
                block_ns,
                placement,
                &rank_mult,
                &mut compute,
                &mut measured,
            );
            // Per-block records go through the collector on this thread, in
            // block order, after the scatter.
            if cfg.per_block_telemetry && collector.observes_step() {
                for (b, &t) in measured.iter().enumerate() {
                    let rank = placement.rank_of(b);
                    collector.record_block(rank, b as u32, Phase::Compute, t as u64);
                }
            }
            // With capacities applied, deflate observations back to
            // intrinsic block cost — otherwise the fault inflation would be
            // counted twice (once in the cost estimate, once in the
            // capacity) and placement would oscillate.
            if caps_active {
                cost_model.observe_all_deflated(&measured, placement.as_slice(), &caps);
            } else {
                cost_model.observe_all(&measured);
            }

            // --- Boundary exchange ----------------------------------------
            // ready = compute + dispatch + memcpy; arrival-constrained finish.
            // Per-rank NIC slowdowns (1.0 on healthy timelines — multiplying
            // by 1.0 is bit-exact) stretch the fabric-facing terms: dispatch,
            // service, flux, and the transfer tail. Memcpys don't ride the NIC.
            par::ready_finish(
                &self.pool,
                cfg.exchanges_per_step as f64,
                cfg.send_coupling,
                cfg.overlap_efficiency,
                &epoch,
                &compute,
                &nic_slow,
                &mut send_arrival,
                &mut ready,
                &mut finish,
            );

            // --- Synchronization ------------------------------------------
            // Timestep control is a blocking allreduce over a small vector
            // (dt and CFL diagnostics), not a bare barrier (§II-B).
            arrivals.clear();
            arrivals.extend(finish.iter().map(|&f| f as u64));
            // A degraded-NIC participant gates the whole collective: every
            // tree level waits on the slowest link, so the hop cost scales
            // with the worst per-rank NIC slowdown this step. Healthy
            // timelines keep the integer latency untouched.
            let hop_ns = if nic_hop_mult > 1.0 {
                (cfg.network.fabric.latency_ns as f64 * nic_hop_mult) as u64
            } else {
                cfg.network.fabric.latency_ns
            };
            // Algorithm selection. Fixed pins one variant for the whole run
            // (the binomial default reproduces the legacy simulator bit for
            // bit). Adaptive consults the feedback plane: once the measured
            // sync share crosses the threshold — and at least one collective
            // has actually been observed, so step 0 never switches on a
            // zeroed gauge — it picks the cheapest algorithm for this scale
            // and payload. The decision reads only virtual-time signals, so
            // it is identical at any thread count.
            let algo = match cfg.collectives {
                CollectiveSelect::Fixed(a) => a,
                CollectiveSelect::Adaptive => {
                    if self.feedback.gauge(TraceGauge::SyncFraction) > ADAPTIVE_SYNC_THRESHOLD
                        && self.feedback.phase_count(TracePhase::Collective) > 0
                    {
                        collectives::cheapest_algo(
                            r,
                            hop_ns,
                            cfg.collective_payload_bytes,
                            cfg.network.fabric.bytes_per_ns,
                        )
                    } else {
                        CollectiveAlgo::BinomialTree
                    }
                }
            };
            let completion_ns = collectives::allreduce_with_into(
                algo,
                &arrivals,
                hop_ns,
                cfg.collective_payload_bytes,
                cfg.network.fabric.bytes_per_ns,
                &mut coll_wait,
            );
            // Virtual-time base of this step (for trace spans).
            let step_base_ns = total_ns as u64;
            let step_total = completion_ns as f64 + redist_per_rank;
            total_ns += step_total;

            // --- Accounting ------------------------------------------------
            // Steps the collector neither keeps nor tracks skip the
            // per-rank record calls.
            let record = collector.observes_step();
            let msgs_per_rank = (epoch.local_msgs + epoch.remote_msgs) as u32 / r as u32;
            let mut step_phases = PhaseBreakdown::default();
            for rank in 0..r {
                let comm = finish[rank] - compute[rank];
                let sync = coll_wait[rank] as f64;
                step_phases.compute_ns += compute[rank];
                step_phases.comm_ns += comm;
                step_phases.sync_ns += sync;
                if !record {
                    continue;
                }
                collector.record_rank(rank as u32, Phase::Compute, compute[rank] as u64);
                if epoch.flux_ns[rank] > 0.0 {
                    collector.record_rank(
                        rank as u32,
                        Phase::FluxCorrection,
                        epoch.flux_ns[rank] as u64,
                    );
                }
                collector.record_comm_rank(
                    rank as u32,
                    Phase::BoundaryComm,
                    comm as u64,
                    msgs_per_rank,
                    0,
                );
                collector.record_rank(rank as u32, Phase::Synchronization, sync as u64);
            }
            step_phases.redist_ns = redist_per_rank * r as f64;
            if redist_per_rank > 0.0 {
                // The placement report's migration accounting rides along:
                // moved blocks as the message count, shipped payload as bytes.
                collector.record_comm_rank(
                    0,
                    Phase::Redistribution,
                    (redist_per_rank * r as f64) as u64,
                    redist_moved.min(u32::MAX as u64) as u32,
                    redist_bytes,
                );
            }
            phases.accumulate(&step_phases.scaled(1.0 / r as f64));

            // The feedback plane updates unconditionally — the trigger and
            // the adaptive collective selector read it whether or not a
            // trace handle is attached, so traced and untraced runs make
            // identical control decisions.
            let inv_r = 1.0 / r as f64;
            let mean_compute = (step_phases.compute_ns * inv_r) as u64;
            let mean_comm = (step_phases.comm_ns * inv_r) as u64;
            let mean_sync = (step_phases.sync_ns * inv_r) as u64;
            let denom = step_phases.compute_ns + step_phases.comm_ns + step_phases.sync_ns;
            if denom > 0.0 {
                self.feedback
                    .set(TraceGauge::SyncFraction, step_phases.sync_ns / denom);
            }
            self.feedback
                .observe_phase_ns(TracePhase::Exchange, mean_comm);
            self.feedback
                .observe_phase_ns(TracePhase::Collective, mean_sync);

            if let Some(t) = &trace {
                // Virtual spans replay the step's mean-rank timeline:
                // exchange from end-of-compute to end-of-comm, then the
                // collective's tree+payload term after the last arrival.
                // Per-rank waits land in the sync_fraction gauge instead of
                // r separate spans.
                t.record_virtual(
                    TracePhase::Exchange,
                    step_base_ns.saturating_add(mean_compute),
                    mean_comm,
                );
                let last_arrival = arrivals.iter().copied().max().unwrap_or(0);
                t.record_virtual(
                    TracePhase::Collective,
                    step_base_ns.saturating_add(last_arrival),
                    completion_ns.saturating_sub(last_arrival),
                );
                t.metrics.incr(TraceCounter::Collectives, 1);
                if denom > 0.0 {
                    t.metrics
                        .set(TraceGauge::SyncFraction, step_phases.sync_ns / denom);
                }
                t.metrics
                    .set(TraceGauge::Blocks, workload.mesh().num_blocks() as f64);
            }

            let xm = cfg.exchanges_per_step as u64;
            messages.intra += epoch.intra_msgs * xm;
            messages.local += epoch.local_msgs * xm;
            messages.remote += epoch.remote_msgs * xm;
            if observe {
                // O(1): the per-relation charge materializes lazily at the
                // next flush point (rebalance or remesh).
                self.ledger.note_step(cfg.exchanges_per_step);
            }

            // --- Online fault response (detect → reweight / prune) --------
            if let Some(det) = detector.as_mut() {
                let _fr_span = trace.as_ref().map(|t| t.span(TracePhase::FaultResponse));
                // Normalize the collector's compute series by the capacity
                // already applied to each rank: a derated rank legitimately
                // holds less work, so its *raw* time looks healthy — the
                // normalized signal keeps measuring the machine, not the
                // placement, and the flag stays stable after reweighting.
                let series = collector.step_compute();
                for rank in 0..r {
                    let applied = if caps_active { caps[rank] } else { 1.0 };
                    det_signal[rank] = series[rank] / applied;
                }
                if det.observe(&det_signal) {
                    if cfg.fault_response == FaultResponse::PruneAndMigrate {
                        let flagged = det.flagged_nodes();
                        let moved = blacklist_and_rehost(&mut node_map, &flagged);
                        for &(node, _spare) in &moved {
                            // The flagged machine is gone; its window
                            // history and flag describe dead hardware.
                            det.clear_flag(node);
                            // Every block on the node's ranks ships to the
                            // spare over the fabric, charged next step.
                            let node_blocks: u64 = cfg
                                .topology
                                .ranks_on_node(node)
                                .map(|rank| epoch.blocks_per_rank[rank] as u64)
                                .sum();
                            pending_migration_ns += node_blocks as f64 * block_bytes as f64
                                / cfg.network.fabric.bytes_per_ns;
                            blocks_migrated += node_blocks;
                            nodes_pruned += 1;
                        }
                        if !moved.is_empty() {
                            det.reset_window();
                        }
                    }
                    // Reweight is the primary response, and the fallback for
                    // flagged nodes the spare pool couldn't absorb.
                    caps_active = det.capacities_into(&mut caps);
                    if caps_active {
                        self.engine.set_capacities(&caps);
                    } else {
                        self.engine.clear_capacities();
                    }
                    capacity_updates += 1;
                    force_rebalance = true;
                    if let Some(t) = &trace {
                        t.metrics.incr(TraceCounter::CapacityUpdates, 1);
                    }
                }
            }
        }
        if let Some(t) = &trace {
            t.metrics.incr(TraceCounter::NodesPruned, nodes_pruned);
            if observe {
                t.metrics
                    .incr(TraceCounter::LedgerFlushes, self.ledger.flushes());
                t.metrics
                    .incr(TraceCounter::LedgerRemaps, self.ledger.remaps());
                t.metrics.incr(
                    TraceCounter::LedgerObservedBytes,
                    self.ledger.observed_total(),
                );
            }
        }

        Ok(RunReport {
            policy: policy.name(),
            steps,
            phases,
            total_ns,
            lb_invocations,
            mesh_change_steps,
            messages,
            blocks_migrated,
            initial_blocks,
            final_blocks: workload.mesh().num_blocks(),
            placement_wall_total_ns: placement_wall_total,
            placement_wall_max_ns: placement_wall_max,
            nodes_pruned,
            capacity_updates,
            num_shards: cfg.num_shards,
            halo_exchange_ns,
            final_halo_blocks: sharded_mesh
                .as_ref()
                .map_or(0, |sm| sm.total_halo_blocks() as u64),
            telemetry: collector.finish(),
        })
    }

    /// Fill per-rank communication aggregates for a (mesh, placement) epoch
    /// into the reused `e` through [`par::fill_epoch`] on the simulator's
    /// pool. `graph` is the cached neighbor topology of `mesh` —
    /// flat or sharded, both walk identical rows in identical order;
    /// `shm_in` and `partials` are pooled scratch buffers.
    fn fill_epoch(
        &self,
        mesh: &AmrMesh,
        placement: &Placement,
        graph: GraphView<'_>,
        e: &mut CommEpoch,
        shm_in: &mut Vec<usize>,
        partials: &mut Vec<par::EpochPartial>,
    ) {
        let cfg = &self.config;
        let mut fill = |lanes: Option<(&mut [WorkerLane], u32)>| {
            par::fill_epoch(
                &self.pool,
                &cfg.topology,
                &cfg.network,
                mesh.config().spec,
                mesh.config().dim,
                placement,
                graph,
                e,
                shm_in,
                partials,
                lanes,
            )
        };
        // Worker lanes observe wall clock per task (host track only) when
        // the fill runs on more than one thread; they feed nothing back, so
        // traced and untraced runs stay bit-identical in virtual time.
        match &self.trace {
            Some(t) if self.pool.threads() > 1 => {
                let tasks = self.pool.threads().min(cfg.topology.num_ranks).max(1);
                t.sink.ensure_lanes(tasks, par::LANE_SPAN_CAPACITY);
                let step = t.sink.step();
                t.sink.with_lanes_mut(|lanes| fill(Some((lanes, step))));
            }
            _ => fill(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_core::policies::{Baseline, Lpt};
    use amr_mesh::{Dim, MeshConfig, RefineTag};

    /// Minimal synthetic workload: static mesh, fixed skewed costs.
    pub(super) struct StaticWorkload {
        mesh: AmrMesh,
        costs: Vec<f64>,
        steps: u64,
    }

    impl StaticWorkload {
        pub(super) fn new(roots: u32, steps: u64, skew: f64) -> StaticWorkload {
            let mesh = AmrMesh::new(MeshConfig::from_cells(
                Dim::D3,
                (roots * 16, roots * 16, roots * 16),
                2,
            ));
            let n = mesh.num_blocks();
            let costs = (0..n)
                .map(|i| 1.0e6 * (1.0 + skew * (i % 7) as f64))
                .collect();
            StaticWorkload { mesh, costs, steps }
        }
    }

    impl Workload for StaticWorkload {
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

    fn small_config(ranks: usize) -> SimConfig {
        let mut c = SimConfig::tuned(ranks);
        c.topology = Topology::new(ranks, 4);
        c
    }

    #[test]
    fn phases_sum_to_total() {
        let mut sim = MacroSim::new(small_config(16));
        let mut w = StaticWorkload::new(4, 10, 0.5); // 64 blocks, 16 ranks
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        assert_eq!(rep.steps, 10);
        // Mean-per-rank phases ≈ total virtual time (within redist rounding
        // and tree overheads).
        let ratio = rep.phases.total_ns() / rep.total_ns;
        assert!((0.9..=1.1).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn lpt_reduces_sync_on_skewed_costs() {
        let mut w1 = StaticWorkload::new(4, 20, 2.0);
        let mut w2 = StaticWorkload::new(4, 20, 2.0);
        // Force one rebalance so LPT sees measured costs.
        let trig = RebalanceTrigger::MeshChangeOrImbalance(1.01);
        let mut sim1 = MacroSim::new(small_config(16));
        let base = sim1.run(&mut w1, &Baseline, trig);
        let mut sim2 = MacroSim::new(small_config(16));
        let lpt = sim2.run(&mut w2, &Lpt, trig);
        assert!(
            lpt.phases.sync_ns < base.phases.sync_ns,
            "LPT sync {} vs baseline {}",
            lpt.phases.sync_ns,
            base.phases.sync_ns
        );
        assert!(lpt.total_ns < base.total_ns);
    }

    #[test]
    fn compute_invariant_across_policies() {
        // Total compute work must not depend on placement (Fig. 6a's flat
        // compute row).
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, 10, 1.0);
        let mut w2 = StaticWorkload::new(4, 10, 1.0);
        let a = MacroSim::new(small_config(16)).run(&mut w1, &Baseline, trig);
        let b = MacroSim::new(small_config(16)).run(&mut w2, &Lpt, trig);
        let rel = (a.phases.compute_ns - b.phases.compute_ns).abs() / a.phases.compute_ns;
        assert!(rel < 0.05, "compute differs by {rel}");
    }

    #[test]
    fn telemetry_collected_per_phase() {
        let mut sim = MacroSim::new(small_config(8));
        let mut w = StaticWorkload::new(2, 5, 0.3); // 8 blocks
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        use amr_telemetry::Query;
        let t = &rep.telemetry;
        assert!(Query::new(t).phase(Phase::Compute).count() >= 8 * 5);
        assert!(Query::new(t).phase(Phase::Synchronization).count() >= 8 * 5);
        assert!(Query::new(t).phase(Phase::BoundaryComm).count() >= 8 * 5);
    }

    #[test]
    fn throttled_node_inflates_sync() {
        let mut cfg = small_config(16); // 4 nodes x 4 ranks
        cfg.faults = crate::faults::FaultConfig::with_throttled_nodes([1]).into();
        let mut w1 = StaticWorkload::new(4, 10, 0.0);
        let rep_faulty = MacroSim::new(cfg).run(&mut w1, &Baseline, RebalanceTrigger::OnMeshChange);
        let mut w2 = StaticWorkload::new(4, 10, 0.0);
        let rep_ok =
            MacroSim::new(small_config(16)).run(&mut w2, &Baseline, RebalanceTrigger::OnMeshChange);
        assert!(rep_faulty.phases.sync_ns > 2.0 * rep_ok.phases.sync_ns);
        assert!(rep_faulty.total_ns > rep_ok.total_ns);
    }

    #[test]
    fn online_reweight_recovers_midrun_throttle() {
        use crate::faults::{FaultEpisode, FaultResponse, FaultTimeline};
        let steps = 60u64;
        let mk = |response| {
            let mut cfg = small_config(16); // 4 nodes x 4 ranks
            cfg.faults = FaultTimeline::with_episode(FaultEpisode::throttle(20, 40, [1], 4.0));
            cfg.fault_response = response;
            cfg
        };
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, steps, 0.5);
        let obliv = MacroSim::new(mk(FaultResponse::Oblivious)).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, steps, 0.5);
        let rew = MacroSim::new(mk(FaultResponse::Reweight)).run(&mut w2, &Lpt, trig);
        // The flag must rise after onset and clear after recovery.
        assert!(
            rew.capacity_updates >= 2,
            "capacity updates = {}",
            rew.capacity_updates
        );
        assert_eq!(rew.nodes_pruned, 0);
        assert!(rew.lb_invocations > obliv.lb_invocations);
        assert!(
            rew.total_ns < obliv.total_ns,
            "reweight {} !< oblivious {}",
            rew.total_ns,
            obliv.total_ns
        );
    }

    #[test]
    fn prune_migrates_to_spare_and_escapes_episode() {
        use crate::faults::{FaultEpisode, FaultResponse, FaultTimeline};
        let steps = 50u64;
        // Permanent episode with NIC degradation: reweighting can shed
        // compute but not escape the slow NIC; pruning escapes both.
        let mk = |response, spares| {
            let mut cfg = small_config(16);
            cfg.faults = FaultTimeline::with_episode(
                FaultEpisode::throttle(15, u64::MAX, [1], 4.0).with_nic_degradation(0.5),
            );
            cfg.fault_response = response;
            cfg.spare_nodes = spares;
            cfg
        };
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, steps, 0.5);
        let obliv = MacroSim::new(mk(FaultResponse::Oblivious, 0)).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, steps, 0.5);
        let prune = MacroSim::new(mk(FaultResponse::PruneAndMigrate, 1)).run(&mut w2, &Lpt, trig);
        assert_eq!(prune.nodes_pruned, 1);
        assert!(prune.blocks_migrated > 0);
        assert!(
            prune.total_ns < obliv.total_ns,
            "prune {} !< oblivious {}",
            prune.total_ns,
            obliv.total_ns
        );
        // With no spares the response degrades to reweighting, not a panic.
        let mut w3 = StaticWorkload::new(4, steps, 0.5);
        let starved = MacroSim::new(mk(FaultResponse::PruneAndMigrate, 0)).run(&mut w3, &Lpt, trig);
        assert_eq!(starved.nodes_pruned, 0);
        assert!(starved.capacity_updates >= 1);
        assert!(starved.total_ns < obliv.total_ns);
    }

    /// Workload that refines once at a given step.
    pub(super) struct RefiningWorkload {
        mesh: AmrMesh,
        costs: Vec<f64>,
        steps: u64,
        refine_at: u64,
    }

    impl RefiningWorkload {
        pub(super) fn new(steps: u64, refine_at: u64) -> Self {
            let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (32, 32, 32), 2));
            let n = mesh.num_blocks();
            RefiningWorkload {
                mesh,
                costs: vec![1.0e6; n],
                steps,
                refine_at,
            }
        }
    }

    impl Workload for RefiningWorkload {
        fn mesh(&self) -> &AmrMesh {
            &self.mesh
        }
        fn advance(&mut self, step: u64) -> WorkloadStep {
            if step == self.refine_at {
                let delta = self.mesh.adapt(|b| {
                    if b.id.index() == 0 {
                        RefineTag::Refine
                    } else {
                        RefineTag::Keep
                    }
                });
                assert!(delta.changed());
                self.costs = vec![1.0e6; self.mesh.num_blocks()];
                // No origin tracking in this toy: rebuild cost model.
                WorkloadStep {
                    mesh_changed: true,
                    origins: None,
                }
            } else {
                WorkloadStep::default()
            }
        }
        fn block_compute_ns(&self) -> &[f64] {
            &self.costs
        }
        fn total_steps(&self) -> u64 {
            self.steps
        }
    }

    #[test]
    fn flux_correction_recorded_on_refined_meshes() {
        // A refined mesh has fine-coarse face pairs; flux telemetry must
        // appear. A uniform mesh has none.
        let mut sim = MacroSim::new(small_config(8));
        let mut w = RefiningWorkload::new(6, 1);
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        use amr_telemetry::Query;
        assert!(
            Query::new(&rep.telemetry)
                .phase(Phase::FluxCorrection)
                .count()
                > 0,
            "no flux records after refinement"
        );

        let mut sim2 = MacroSim::new(small_config(8));
        let mut w2 = StaticWorkload::new(2, 6, 0.0); // uniform mesh
        let rep2 = sim2.run(&mut w2, &Baseline, RebalanceTrigger::OnMeshChange);
        assert_eq!(
            Query::new(&rep2.telemetry)
                .phase(Phase::FluxCorrection)
                .count(),
            0
        );
    }

    #[test]
    fn mesh_change_triggers_redistribution() {
        let mut sim = MacroSim::new(small_config(8));
        let mut w = RefiningWorkload::new(6, 3);
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        assert_eq!(rep.mesh_change_steps, 1);
        assert!(rep.lb_invocations >= 1);
        assert!(rep.final_blocks > rep.initial_blocks);
        assert!(rep.phases.redist_ns > 0.0);
        assert!(rep.blocks_migrated > 0);
    }

    #[test]
    fn placement_wall_time_tracked() {
        let mut sim = MacroSim::new(small_config(8));
        let mut w = StaticWorkload::new(2, 3, 0.1);
        let rep = sim.run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
        // Initial placement happens outside run's wall tracking; with no mesh
        // change there may be no invocation — force one with Periodic.
        let mut sim2 = MacroSim::new(small_config(8));
        let mut w2 = StaticWorkload::new(2, 3, 0.1);
        let rep2 = sim2.run(&mut w2, &Baseline, RebalanceTrigger::Periodic(1));
        assert!(rep2.lb_invocations >= 3);
        assert!(rep2.placement_wall_max_ns > 0);
        assert!(rep.placement_within_budget(50_000_000));
    }
}

#[cfg(test)]
mod knob_tests {
    use super::tests::StaticWorkload;
    use super::*;
    use amr_core::policies::Baseline;

    fn cfg16() -> SimConfig {
        let mut c = SimConfig::tuned(16);
        c.topology = Topology::new(16, 4);
        c
    }

    #[test]
    fn more_exchanges_per_step_cost_more_comm() {
        let mut prev = 0.0;
        for xs in [1u32, 2, 4] {
            let mut cfg = cfg16();
            cfg.exchanges_per_step = xs;
            let mut w = StaticWorkload::new(4, 10, 0.5);
            let rep = MacroSim::new(cfg).run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
            assert!(
                rep.phases.comm_ns > prev,
                "comm did not grow with exchanges: {} vs {}",
                rep.phases.comm_ns,
                prev
            );
            prev = rep.phases.comm_ns;
        }
    }

    #[test]
    fn higher_send_coupling_means_more_comm_wait() {
        let mut prev = -1.0;
        for coupling in [0.0f64, 0.5, 1.0] {
            let mut cfg = cfg16();
            cfg.send_coupling = coupling;
            let mut w = StaticWorkload::new(4, 10, 2.0);
            let rep = MacroSim::new(cfg).run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
            assert!(
                rep.phases.comm_ns >= prev,
                "comm fell as coupling rose: {} < {}",
                rep.phases.comm_ns,
                prev
            );
            prev = rep.phases.comm_ns;
        }
    }

    #[test]
    fn overlap_masks_coupled_waits() {
        // With strong coupling, masking must reduce comm; totals must be
        // monotone non-increasing in overlap.
        let mut prev = f64::INFINITY;
        for overlap in [0.0f64, 0.5, 1.0] {
            let mut cfg = cfg16();
            cfg.send_coupling = 1.0;
            cfg.overlap_efficiency = overlap;
            let mut w = StaticWorkload::new(4, 10, 2.0);
            let rep = MacroSim::new(cfg).run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange);
            assert!(
                rep.total_ns <= prev * 1.0001,
                "total rose with masking: {} vs {}",
                rep.total_ns,
                prev
            );
            prev = rep.total_ns;
        }
    }

    #[test]
    fn exchanges_scale_message_totals_linearly() {
        let count = |xs: u32| {
            let mut cfg = cfg16();
            cfg.exchanges_per_step = xs;
            let mut w = StaticWorkload::new(4, 10, 0.0);
            MacroSim::new(cfg)
                .run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange)
                .messages
                .mpi()
        };
        assert_eq!(count(2), 2 * count(1));
    }

    /// Regression for the degenerate-bandwidth overflow: a struct-literal
    /// episode with `nic_bandwidth_mult: 0.0` (bypassing the constructor
    /// asserts) used to drive `bytes_per_ns` to 0 mid-run and overflow the
    /// allreduce completion in debug builds. The boundary check now rejects
    /// the config before the run starts.
    #[test]
    #[should_panic(expected = "nic_bandwidth_mult")]
    fn zero_nic_bandwidth_multiplier_is_rejected_at_construction() {
        let mut cfg = cfg16();
        cfg.faults.episodes.push(crate::faults::FaultEpisode {
            onset_step: 2,
            recovery_step: 8,
            nodes: [1].into_iter().collect(),
            throttle_factor: 1.0,
            nic_bandwidth_mult: 0.0,
        });
        let _ = MacroSim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "bytes_per_ns")]
    fn zero_fabric_bandwidth_is_rejected_at_construction() {
        let mut cfg = cfg16();
        cfg.network.fabric.bytes_per_ns = 0.0;
        let _ = MacroSim::new(cfg);
    }

    /// The service-facing constructor returns the same rejection as `Err`
    /// instead of panicking — one bad request must not kill a process
    /// hosting many sessions — and a `try_new` simulator runs identically
    /// to a `new` one.
    #[test]
    fn try_new_rejects_without_panicking_and_runs_identically() {
        use amr_core::policies::Lpt;
        let mut bad = cfg16();
        bad.network.fabric.bytes_per_ns = 0.0;
        let Err(err) = MacroSim::try_new(bad) else {
            panic!("degenerate bandwidth accepted");
        };
        assert!(err.contains("invalid SimConfig"), "{err}");
        assert!(err.contains("bytes_per_ns"), "{err}");

        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, 10, 1.0);
        let base = MacroSim::new(cfg16()).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, 10, 1.0);
        let fallible = MacroSim::try_new(cfg16())
            .unwrap()
            .try_run(&mut w2, &Lpt, trig)
            .unwrap();
        assert_eq!(fallible.total_ns.to_bits(), base.total_ns.to_bits());
        assert_eq!(fallible.messages, base.messages);
    }

    /// Tracing observes without perturbing, and the artifacts are populated:
    /// same virtual phases bit-for-bit, spans in the sink, counters and the
    /// sync-fraction gauge live in the registry.
    #[test]
    fn traced_run_matches_untraced_and_fills_artifacts() {
        use amr_core::policies::Lpt;
        use amr_telemetry::trace::{chrome_trace_json, collapsed_stacks};
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, 10, 1.0);
        let base = MacroSim::new(cfg16()).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, 10, 1.0);
        let mut sim = MacroSim::new(cfg16());
        let handle = TraceHandle::new(1024);
        sim.set_trace(Some(handle.clone()));
        let traced = sim.run(&mut w2, &Lpt, trig);
        assert_eq!(
            traced.phases.sync_ns.to_bits(),
            base.phases.sync_ns.to_bits()
        );
        assert_eq!(
            traced.phases.comm_ns.to_bits(),
            base.phases.comm_ns.to_bits()
        );
        assert_eq!(traced.total_ns.to_bits(), base.total_ns.to_bits());
        assert_eq!(handle.metrics.counter(TraceCounter::Steps), 10);
        assert_eq!(handle.metrics.counter(TraceCounter::Collectives), 10);
        // Static mesh + OnMeshChange trigger: only the initial placement.
        assert_eq!(
            handle.metrics.counter(TraceCounter::Rebalances),
            traced.lb_invocations + 1
        );
        let sf = handle.metrics.gauge(TraceGauge::SyncFraction);
        assert!((0.0..1.0).contains(&sf), "sync fraction {sf}");
        let spans = handle.sink.snapshot();
        assert!(spans.iter().any(|s| s.phase == TracePhase::Collective));
        assert!(spans.iter().any(|s| s.phase == TracePhase::Exchange));
        assert!(spans.iter().any(|s| s.phase == TracePhase::Place));
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"name\":\"collective\""));
        assert!(collapsed_stacks(&spans).contains("amr;virtual;exchange"));
    }

    #[test]
    fn zero_threads_config_is_rejected() {
        let mut cfg = cfg16();
        cfg.threads = 0;
        assert!(cfg.validate().unwrap_err().contains("threads"));
    }

    /// The determinism proof at unit scale: every phase kernel — epoch
    /// fill, compute scatter, ready/finish, shard rebuilds — follows the
    /// slot-ownership rule, so a multi-threaded run reproduces the
    /// single-owner (`threads == 1`) run's virtual time **bit for bit** at
    /// any thread count, through mesh adaptation, a throttle episode with NIC
    /// degradation, and both graph paths (flat and sharded). Virtual phases
    /// and counters are compared; `total_ns`/`redist_ns` are excluded
    /// because redistribution charges real placement wall-clock.
    #[test]
    fn parallel_run_is_bitwise_identical_to_serial() {
        use super::tests::RefiningWorkload;
        use crate::faults::{FaultEpisode, FaultTimeline};
        use amr_core::policies::Lpt;
        let trig = RebalanceTrigger::OnMeshChange;
        let mk = |shards: usize, threads: usize| {
            let mut cfg = cfg16();
            cfg.num_shards = shards;
            cfg.threads = threads;
            cfg.faults = FaultTimeline::with_episode(
                FaultEpisode::throttle(3, 9, [1], 3.0).with_nic_degradation(0.6),
            );
            cfg
        };
        for shards in [0usize, 3] {
            let mut w = RefiningWorkload::new(12, 4);
            let base = MacroSim::new(mk(shards, 1)).run(&mut w, &Lpt, trig);
            for threads in [2usize, 4] {
                let mut w = RefiningWorkload::new(12, 4);
                let rep = MacroSim::new(mk(shards, threads)).run(&mut w, &Lpt, trig);
                assert_eq!(
                    rep.phases.compute_ns.to_bits(),
                    base.phases.compute_ns.to_bits(),
                    "compute diverged at {threads} threads, {shards} shards"
                );
                assert_eq!(
                    rep.phases.comm_ns.to_bits(),
                    base.phases.comm_ns.to_bits(),
                    "comm diverged at {threads} threads, {shards} shards"
                );
                assert_eq!(
                    rep.phases.sync_ns.to_bits(),
                    base.phases.sync_ns.to_bits(),
                    "sync diverged at {threads} threads, {shards} shards"
                );
                assert_eq!(
                    rep.halo_exchange_ns.to_bits(),
                    base.halo_exchange_ns.to_bits()
                );
                assert_eq!(&rep.messages, &base.messages);
                assert_eq!(rep.lb_invocations, base.lb_invocations);
                assert_eq!(rep.mesh_change_steps, base.mesh_change_steps);
                assert_eq!(rep.blocks_migrated, base.blocks_migrated);
                assert_eq!(rep.final_blocks, base.final_blocks);
                assert_eq!(rep.final_halo_blocks, base.final_halo_blocks);
            }
        }
    }

    /// Worker lanes observe parallel epoch fills without perturbing them: a
    /// traced 4-thread run matches the untraced one bit for bit, and the
    /// sink's snapshot carries host-track `Exchange` spans from lanes ≥ 1.
    #[test]
    fn traced_parallel_run_matches_and_records_worker_lanes() {
        use amr_core::policies::Lpt;
        let trig = RebalanceTrigger::OnMeshChange;
        let mk = || {
            let mut cfg = cfg16();
            cfg.threads = 4;
            cfg
        };
        let mut w1 = StaticWorkload::new(4, 8, 1.0);
        let base = MacroSim::new(mk()).run(&mut w1, &Lpt, trig);
        let mut w2 = StaticWorkload::new(4, 8, 1.0);
        let mut sim = MacroSim::new(mk());
        let handle = TraceHandle::new(1024);
        sim.set_trace(Some(handle.clone()));
        let traced = sim.run(&mut w2, &Lpt, trig);
        assert_eq!(traced.total_ns.to_bits(), base.total_ns.to_bits());
        assert_eq!(
            traced.phases.comm_ns.to_bits(),
            base.phases.comm_ns.to_bits()
        );
        // 16 ranks at 4 threads ⇒ 4 lanes, each with one span per epoch fill.
        assert_eq!(handle.sink.lane_count(), 4);
        let spans = handle.sink.snapshot();
        use amr_telemetry::trace::Track;
        assert!(
            spans
                .iter()
                .any(|s| s.lane >= 1 && s.track == Track::Host && s.phase == TracePhase::Exchange),
            "no worker-lane exchange spans in the snapshot"
        );
    }

    /// The new control-plane knobs go through the same boundary validation
    /// as the bandwidth regression above — rejected before a run can start.
    #[test]
    fn degenerate_control_plane_knobs_are_rejected() {
        let cases: Vec<(SimConfig, &str)> = vec![
            (
                {
                    let mut c = cfg16();
                    c.network.fabric_credit_bytes = 0;
                    c
                },
                "fabric_credit_bytes",
            ),
            (
                {
                    let mut c = cfg16();
                    c.network.congestion_backoff = -1.0;
                    c
                },
                "congestion_backoff",
            ),
            (
                {
                    let mut c = cfg16();
                    c.network.ack_loss_prob = 2.0;
                    c
                },
                "ack_loss_prob",
            ),
            (
                {
                    let mut c = cfg16();
                    c.network.shm_queue_size = 0;
                    c
                },
                "shm_queue_size",
            ),
            (
                {
                    let mut c = cfg16();
                    c.collective_payload_bytes = 0;
                    c
                },
                "collective_payload_bytes",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "{err} does not mention {needle}");
        }
    }

    /// An *enabled but never exhausted* credit window adds exactly-0.0
    /// congestion terms everywhere, so its virtual time is bit-identical to
    /// the disabled default — the wiring itself costs nothing.
    #[test]
    fn idle_credit_window_is_bit_identical_to_disabled() {
        let trig = RebalanceTrigger::OnMeshChange;
        let mut w1 = StaticWorkload::new(4, 10, 1.0);
        let base = MacroSim::new(cfg16()).run(&mut w1, &Baseline, trig);
        let mut cfg = cfg16();
        cfg.network.fabric_credit_bytes = u64::MAX - 1; // enabled, unreachable
        cfg.network.congestion_backoff = 4.0;
        let mut w2 = StaticWorkload::new(4, 10, 1.0);
        let idle = MacroSim::new(cfg).run(&mut w2, &Baseline, trig);
        assert_eq!(idle.total_ns.to_bits(), base.total_ns.to_bits());
        assert_eq!(idle.phases.comm_ns.to_bits(), base.phases.comm_ns.to_bits());
        assert_eq!(idle.phases.sync_ns.to_bits(), base.phases.sync_ns.to_bits());
    }

    /// A window the epoch's hot links actually exceed charges the run:
    /// strictly more comm than the same run with credits disabled, and
    /// monotone — tightening the window never speeds anything up.
    #[test]
    fn exhausted_credit_window_charges_comm() {
        let trig = RebalanceTrigger::OnMeshChange;
        let run = |credit: u64| {
            let mut cfg = cfg16();
            if credit > 0 {
                cfg.network.fabric_credit_bytes = credit;
                cfg.network.congestion_backoff = 2.0;
            }
            let mut w = StaticWorkload::new(4, 10, 0.5);
            MacroSim::new(cfg).run(&mut w, &Baseline, trig)
        };
        let off = run(0);
        let loose = run(1 << 22);
        let tight = run(1 << 16);
        assert!(
            tight.phases.comm_ns > off.phases.comm_ns,
            "tight window {} !> uncongested {}",
            tight.phases.comm_ns,
            off.phases.comm_ns
        );
        assert!(tight.total_ns > off.total_ns);
        assert!(
            tight.total_ns >= loose.total_ns,
            "tightening the window sped the run up"
        );
    }

    /// Adaptive collective selection reads the feedback plane mid-run: under
    /// heavy sync pressure and a fat payload it abandons the binomial tree
    /// for a bandwidth-optimal algorithm and beats the fixed default, while
    /// the switching decision itself is thread-invariant (checked bitwise in
    /// `congested_adaptive_run_is_bitwise_identical_across_threads`).
    #[test]
    fn adaptive_collectives_switch_under_sync_pressure() {
        let trig = RebalanceTrigger::Never; // keep the imbalance (and sync) high
        let mk = |select: CollectiveSelect| {
            let mut cfg = cfg16();
            cfg.collectives = select;
            cfg.collective_payload_bytes = 1 << 20; // diagnostics-heavy dt vector
            cfg
        };
        let mut w1 = StaticWorkload::new(4, 20, 2.0);
        let mut fixed_sim = MacroSim::new(mk(CollectiveSelect::default()));
        let fixed = fixed_sim.run(&mut w1, &Baseline, trig);
        let mut w2 = StaticWorkload::new(4, 20, 2.0);
        let mut adaptive_sim = MacroSim::new(mk(CollectiveSelect::Adaptive));
        let adaptive = adaptive_sim.run(&mut w2, &Baseline, trig);
        // The skewed static mesh keeps measured sync share above threshold...
        let sf = adaptive_sim.feedback().gauge(TraceGauge::SyncFraction);
        assert!(sf > ADAPTIVE_SYNC_THRESHOLD, "sync fraction only {sf}");
        // ...and at 16 ranks with a 1 MiB payload the bandwidth-optimal
        // variants clearly beat the tree, so the switch must pay off.
        assert!(
            adaptive.total_ns < fixed.total_ns,
            "adaptive {} !< fixed binomial {}",
            adaptive.total_ns,
            fixed.total_ns
        );
        assert_ne!(
            collectives::cheapest_algo(16, 2_500, 1 << 20, 5.0),
            CollectiveAlgo::BinomialTree
        );
    }

    /// The full new control plane at once — congested fabric, adaptive
    /// collectives, sync-fraction trigger — stays on the slot-ownership
    /// rails: virtual time is bitwise identical at any thread count.
    #[test]
    fn congested_adaptive_run_is_bitwise_identical_across_threads() {
        use super::tests::RefiningWorkload;
        use amr_core::policies::Lpt;
        let trig = RebalanceTrigger::SyncFractionAbove(0.1);
        let mk = |threads: usize| {
            let mut cfg = cfg16();
            cfg.threads = threads;
            cfg.network = NetworkConfig {
                fabric_credit_bytes: 1 << 16,
                congestion_backoff: 2.0,
                ..NetworkConfig::tuned()
            };
            cfg.collectives = CollectiveSelect::Adaptive;
            cfg.collective_payload_bytes = 1 << 18;
            cfg
        };
        let mut w = RefiningWorkload::new(12, 4);
        let base = MacroSim::new(mk(1)).run(&mut w, &Lpt, trig);
        for threads in [2usize, 4] {
            let mut w = RefiningWorkload::new(12, 4);
            let rep = MacroSim::new(mk(threads)).run(&mut w, &Lpt, trig);
            assert_eq!(
                rep.phases.compute_ns.to_bits(),
                base.phases.compute_ns.to_bits(),
                "compute diverged at {threads} threads"
            );
            assert_eq!(
                rep.phases.comm_ns.to_bits(),
                base.phases.comm_ns.to_bits(),
                "comm diverged at {threads} threads"
            );
            assert_eq!(
                rep.phases.sync_ns.to_bits(),
                base.phases.sync_ns.to_bits(),
                "sync diverged at {threads} threads"
            );
            assert_eq!(rep.lb_invocations, base.lb_invocations);
            assert_eq!(&rep.messages, &base.messages);
        }
        // The measured-signal trigger actually fired beyond the initial
        // mesh-change placements (sync share over the refining run is high).
        assert!(
            base.lb_invocations > base.mesh_change_steps,
            "sync-fraction trigger never fired: {} invocations over {} mesh changes",
            base.lb_invocations,
            base.mesh_change_steps
        );
    }
}
