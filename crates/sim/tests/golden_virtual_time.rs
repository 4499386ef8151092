//! Golden virtual-time oracle for the macro-simulator's exchange kernels.
//!
//! The pinned values below were captured from the simulator before its epoch
//! fill, compute scatter and ready/finish kernels were merged into one
//! slot-ownership implementation (`threads == 1` running it as a single
//! owner). They take the place of the deleted serial bodies as the oracle:
//! every config must reproduce the same `f64` bits of the compute, comm and
//! sync phase totals and the same message, rebalance and migration counts at
//! 1 and at 2 threads. `total_ns` and the redistribution phase are left out
//! because they include real placement wall-clock.
//!
//! The second test pins the telemetry table the collector emits (row count
//! plus a hash of every row, wall-clock redistribution durations excluded)
//! at sampling 1, 16 and 1 000 000, with and without the closed fault loop,
//! so the collector's unsampled-step fast path cannot drop or add a row.
//!
//! On a mismatch the assertion prints the observed table in the same
//! format as the pinned one.

use amr_core::policies::{Baseline, Cplx, Lpt, PlacementPolicy};
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{AmrMesh, Dim, MeshConfig, RefineTag};
use amr_sim::{
    CollectiveSelect, FaultEpisode, FaultResponse, FaultTimeline, MacroSim, NetworkConfig,
    RunReport, SimConfig, Topology, Workload, WorkloadStep,
};
use amr_telemetry::Phase;

/// A mesh that refines twice and then coarsens, with skewed per-block
/// costs, so placement, remeshing and flux fix-ups all take part.
struct AdaptingWorkload {
    mesh: AmrMesh,
    costs: Vec<f64>,
    steps: u64,
    adapts: bool,
}

impl AdaptingWorkload {
    fn new(dim: Dim, steps: u64, adapts: bool) -> AdaptingWorkload {
        let cells = match dim {
            Dim::D2 => (128, 128, 1),
            _ => (64, 64, 64),
        };
        let mesh = AmrMesh::new(MeshConfig::from_cells(dim, cells, 2));
        let mut w = AdaptingWorkload {
            mesh,
            costs: Vec::new(),
            steps,
            adapts,
        };
        w.refresh_costs();
        w
    }

    fn refresh_costs(&mut self) {
        self.costs = (0..self.mesh.num_blocks())
            .map(|i| 1.0e6 * (1.0 + 0.25 * (i % 7) as f64))
            .collect();
    }
}

impl Workload for AdaptingWorkload {
    fn mesh(&self) -> &AmrMesh {
        &self.mesh
    }

    fn advance(&mut self, step: u64) -> WorkloadStep {
        if !self.adapts {
            return WorkloadStep::default();
        }
        let tag: Option<fn(usize) -> RefineTag> = match step {
            3 => Some(|i| {
                if i % 9 == 0 {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            }),
            7 => Some(|i| {
                if i % 13 == 1 {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            }),
            10 => Some(|_| RefineTag::Coarsen),
            _ => None,
        };
        let Some(tag) = tag else {
            return WorkloadStep::default();
        };
        let changed = self.mesh.adapt(|b| tag(b.id.index())).changed();
        if changed {
            self.refresh_costs();
        }
        WorkloadStep {
            mesh_changed: changed,
            origins: None,
        }
    }

    fn block_compute_ns(&self) -> &[f64] {
        &self.costs
    }

    fn total_steps(&self) -> u64 {
        self.steps
    }
}

fn base_config(ranks: usize, per_node: usize) -> SimConfig {
    let mut c = SimConfig::tuned(ranks);
    c.topology = Topology::new(ranks, per_node);
    c
}

fn nic_episode() -> FaultTimeline {
    FaultTimeline::with_episode(FaultEpisode::throttle(4, 11, [1], 3.0).with_nic_degradation(0.6))
}

/// One golden scenario: its config, workload shape, policy and trigger.
struct Case {
    name: &'static str,
    config: SimConfig,
    dim: Dim,
    adapts: bool,
    policy: Box<dyn PlacementPolicy>,
    trigger: RebalanceTrigger,
}

fn cases() -> Vec<Case> {
    let flat_static = base_config(16, 4);

    let mut sharded = base_config(16, 4);
    sharded.num_shards = 3;
    sharded.faults = nic_episode();

    let mut congested = base_config(16, 4);
    congested.network = NetworkConfig {
        fabric_credit_bytes: 1 << 16,
        congestion_backoff: 2.0,
        ..NetworkConfig::tuned()
    };
    congested.faults = nic_episode();
    congested.collectives = CollectiveSelect::Adaptive;
    congested.collective_payload_bytes = 1 << 18;

    let mut overlap = base_config(24, 8);
    overlap.per_block_telemetry = true;
    overlap.overlap_efficiency = 0.5;
    overlap.send_coupling = 1.0;
    overlap.faults = FaultTimeline::with_episode(FaultEpisode::throttle(2, 9, [1], 4.0));
    overlap.fault_response = FaultResponse::Reweight;
    overlap.telemetry_sampling = 4;

    let mut prune = base_config(16, 4);
    prune.faults = FaultTimeline::with_episode(
        FaultEpisode::throttle(3, u64::MAX, [2], 4.0).with_nic_degradation(0.5),
    );
    prune.fault_response = FaultResponse::PruneAndMigrate;
    prune.spare_nodes = 1;
    prune.telemetry_sampling = 1_000_000;

    vec![
        Case {
            name: "flat_static_imbalance",
            config: flat_static,
            dim: Dim::D3,
            adapts: false,
            policy: Box::new(Lpt),
            trigger: RebalanceTrigger::MeshChangeOrImbalance(1.05),
        },
        Case {
            name: "sharded3_adapting_nic",
            config: sharded,
            dim: Dim::D3,
            adapts: true,
            policy: Box::new(Cplx::new(50)),
            trigger: RebalanceTrigger::OnMeshChange,
        },
        Case {
            name: "congested_nic_adapting",
            config: congested,
            dim: Dim::D3,
            adapts: true,
            policy: Box::new(Lpt),
            trigger: RebalanceTrigger::SyncFractionAbove(0.1),
        },
        Case {
            name: "per_block_overlap_reweight",
            config: overlap,
            dim: Dim::D3,
            adapts: true,
            policy: Box::new(Baseline),
            trigger: RebalanceTrigger::Periodic(3),
        },
        Case {
            name: "d2_prune_unsampled",
            config: prune,
            dim: Dim::D2,
            adapts: true,
            policy: Box::new(Lpt),
            trigger: RebalanceTrigger::OnMeshChange,
        },
    ]
}

/// The wall-free fingerprint of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    compute: u64,
    comm: u64,
    sync: u64,
    intra: u64,
    local: u64,
    remote: u64,
    lb_invocations: u64,
    blocks_migrated: u64,
}

fn fingerprint(rep: &RunReport) -> Golden {
    Golden {
        compute: rep.phases.compute_ns.to_bits(),
        comm: rep.phases.comm_ns.to_bits(),
        sync: rep.phases.sync_ns.to_bits(),
        intra: rep.messages.intra,
        local: rep.messages.local,
        remote: rep.messages.remote,
        lb_invocations: rep.lb_invocations,
        blocks_migrated: rep.blocks_migrated,
    }
}

fn run_case(case: &Case, threads: usize) -> RunReport {
    let mut cfg = case.config.clone();
    cfg.threads = threads;
    let mut w = AdaptingWorkload::new(case.dim, 14, case.adapts);
    MacroSim::try_new(cfg)
        .expect("valid golden config")
        .try_run(&mut w, case.policy.as_ref(), case.trigger)
        .expect("golden run completes")
}

const GOLDEN: &[(&str, Golden)] = &[
    (
        "flat_static_imbalance",
        Golden {
            compute: 0x4197_37ce_b11a_0d5d,
            comm: 0x416a_336d_6000_0000,
            sync: 0x4153_ad1c_f400_0000,
            intra: 1950,
            local: 7710,
            remote: 29652,
            lb_invocations: 1,
            blocks_migrated: 60,
        },
    ),
    (
        "sharded3_adapting_nic",
        Golden {
            compute: 0x41b0_6808_4030_8aa8,
            comm: 0x417c_ef08_82aa_aaab,
            sync: 0x41ae_48ef_b6c0_0000,
            intra: 17004,
            local: 28101,
            remote: 38883,
            lb_invocations: 3,
            blocks_migrated: 486,
        },
    ),
    (
        "congested_nic_adapting",
        Golden {
            compute: 0x41b0_5398_8d7b_4a76,
            comm: 0x4195_3ab3_8a00_0000,
            sync: 0x41af_650b_59e0_0000,
            intra: 3504,
            local: 18399,
            remote: 62643,
            lb_invocations: 8,
            blocks_migrated: 1290,
        },
    ),
    (
        "per_block_overlap_reweight",
        Golden {
            compute: 0x41a9_5b2e_2dd0_657f,
            comm: 0x4197_ce44_dbff_d2a5,
            sync: 0x419c_d6b2_b7aa_aaa9,
            intra: 23496,
            local: 40974,
            remote: 18972,
            lb_invocations: 7,
            blocks_migrated: 486,
        },
    ),
    (
        "d2_prune_unsampled",
        Golden {
            compute: 0x41a3_2b0a_9d7d_8221,
            comm: 0x4154_a0c5_2000_0000,
            sync: 0x4199_00e1_2c80_0000,
            intra: 234,
            local: 10257,
            remote: 15792,
            lb_invocations: 3,
            blocks_migrated: 314,
        },
    ),
];

#[test]
fn virtual_time_matches_golden_at_1_and_2_threads() {
    let mut observed = String::new();
    let mut ok = true;
    for case in cases() {
        let expected = GOLDEN.iter().find(|(n, _)| *n == case.name).map(|g| g.1);
        for threads in [1usize, 2] {
            let got = fingerprint(&run_case(&case, threads));
            if threads == 1 {
                observed.push_str(&format!(
                    "    (\"{}\", Golden {{ compute: {:#018x}, comm: {:#018x}, sync: {:#018x}, \
                     intra: {}, local: {}, remote: {}, lb_invocations: {}, blocks_migrated: {} }}),\n",
                    case.name,
                    got.compute,
                    got.comm,
                    got.sync,
                    got.intra,
                    got.local,
                    got.remote,
                    got.lb_invocations,
                    got.blocks_migrated
                ));
            }
            if expected != Some(got) {
                ok = false;
                eprintln!("{} at {threads} threads: {got:#x?}", case.name);
            }
        }
    }
    assert!(
        ok,
        "virtual time left the golden values; observed:\n{observed}"
    );
}

/// FNV-1a over every row of a finished table. Redistribution rows keep
/// their step, rank, counts and bytes but not their duration, which
/// includes placement wall-clock.
fn table_hash(rep: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in rep.telemetry.iter() {
        eat(row.step as u64);
        eat(row.rank as u64);
        eat(row.block as u64);
        eat(row.phase as u64);
        if row.phase != Phase::Redistribution {
            eat(row.duration_ns);
        }
        eat(row.msg_count as u64);
        eat(row.msg_bytes);
    }
    h
}

const GOLDEN_ROWS: &[(u32, bool, bool, usize, u64)] = &[
    (1, false, false, 2507, 0x9c92_3286_a548_c7bb),
    (1, false, true, 7517, 0x9288_2dab_aa2e_cb63),
    (1, true, false, 2509, 0xd178_358b_2144_e933),
    (1, true, true, 7519, 0x2038_2ca4_05de_f7f7),
    (16, false, false, 176, 0xbdaa_09f2_7374_77a5),
    (16, false, true, 480, 0xb015_ffeb_ff51_5c7c),
    (16, true, false, 176, 0x5e30_1b5a_234b_c252),
    (16, true, true, 480, 0x24d0_77c5_3404_5ea1),
    (1_000_000, false, false, 48, 0xfb50_ec26_30f7_351a),
    (1_000_000, false, true, 112, 0xd725_5a7d_836f_d388),
    (1_000_000, true, false, 48, 0xfb50_ec26_30f7_351a),
    (1_000_000, true, true, 112, 0xd725_5a7d_836f_d388),
];

#[test]
fn telemetry_rows_match_golden_across_sampling_and_fault_response() {
    let mut observed = String::new();
    let mut ok = true;
    for sampling in [1u32, 16, 1_000_000] {
        for respond in [false, true] {
            for per_block in [false, true] {
                let mut cfg = base_config(16, 4);
                cfg.telemetry_sampling = sampling;
                cfg.per_block_telemetry = per_block;
                cfg.faults = FaultTimeline::with_episode(FaultEpisode::throttle(5, 30, [1], 4.0));
                if respond {
                    cfg.fault_response = FaultResponse::Reweight;
                }
                let expected = GOLDEN_ROWS
                    .iter()
                    .find(|g| g.0 == sampling && g.1 == respond && g.2 == per_block)
                    .map(|g| (g.3, g.4));
                for threads in [1usize, 2] {
                    cfg.threads = threads;
                    let mut w = AdaptingWorkload::new(Dim::D3, 40, true);
                    let rep = MacroSim::try_new(cfg.clone())
                        .unwrap()
                        .try_run(&mut w, &Lpt, RebalanceTrigger::OnMeshChange)
                        .unwrap();
                    let got = (rep.telemetry.len(), table_hash(&rep));
                    if threads == 1 {
                        observed.push_str(&format!(
                            "    ({sampling}, {respond}, {per_block}, {}, {:#018x}),\n",
                            got.0, got.1
                        ));
                    }
                    if expected != Some(got) {
                        ok = false;
                        eprintln!(
                            "sampling {sampling}, respond {respond}, per-block {per_block}, \
                             {threads} threads: {got:?}"
                        );
                    }
                }
            }
        }
    }
    assert!(
        ok,
        "telemetry rows left the golden values; observed:\n{observed}"
    );
}
