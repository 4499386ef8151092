//! End-to-end integration tests: the full telemetry → placement → runtime
//! loop across crates, asserting the paper's qualitative findings at small
//! scale.

use amr_tools::mesh::{Dim, MeshConfig};
use amr_tools::placement::policies::{Baseline, Cplx, PlacementPolicy};
use amr_tools::placement::trigger::RebalanceTrigger;
use amr_tools::sim::{FaultConfig, MacroSim, RunReport, SimConfig};
use amr_tools::telemetry::{Phase, Query};
use amr_tools::workloads::{SedovConfig, SedovWorkload};

fn sedov_run(policy: &dyn PlacementPolicy, ranks: usize, steps: u64, seed: u64) -> RunReport {
    let mesh = MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1);
    let mut workload = SedovWorkload::new(SedovConfig::new(mesh, steps));
    let mut cfg = SimConfig::tuned(ranks);
    cfg.seed = seed;
    cfg.telemetry_sampling = 4;
    MacroSim::try_new(cfg)
        .unwrap()
        .try_run(&mut workload, policy, RebalanceTrigger::OnMeshChange)
        .unwrap()
}

#[test]
fn cplx_beats_baseline_on_sedov() {
    let base = sedov_run(&Baseline, 64, 300, 9);
    let cpl50 = sedov_run(&Cplx::new(50), 64, 300, 9);
    assert!(
        cpl50.total_ns < base.total_ns * 0.98,
        "cpl50 {} vs baseline {}",
        cpl50.total_ns,
        base.total_ns
    );
    // The gain comes from synchronization, not compute (Finding 2).
    assert!(cpl50.phases.sync_ns < base.phases.sync_ns);
    let compute_drift =
        (cpl50.phases.compute_ns - base.phases.compute_ns).abs() / base.phases.compute_ns;
    assert!(compute_drift < 0.02, "compute drifted {compute_drift}");
}

#[test]
fn locality_monotone_in_x() {
    // Finding 4: remote message share rises monotonically with X.
    let mut prev_remote = 0u64;
    for x in [0u32, 50, 100] {
        let rep = sedov_run(&Cplx::new(x), 64, 150, 11);
        assert!(
            rep.messages.remote >= prev_remote,
            "remote messages fell from {prev_remote} at x={x}"
        );
        prev_remote = rep.messages.remote;
    }
}

#[test]
fn mesh_grows_and_lb_invocations_track_changes() {
    let rep = sedov_run(&Baseline, 64, 300, 5);
    assert!(rep.final_blocks > rep.initial_blocks);
    assert!(rep.lb_invocations >= rep.mesh_change_steps);
    assert!(rep.mesh_change_steps > 0);
    assert!(rep.blocks_migrated > 0);
}

#[test]
fn placement_stays_within_budget_at_small_scale() {
    let rep = sedov_run(&Cplx::new(50), 64, 100, 3);
    // The paper's 50 ms budget is trivially met at 64 ranks.
    assert!(rep.placement_within_budget(50_000_000));
}

#[test]
fn telemetry_phases_cover_runtime() {
    let rep = sedov_run(&Baseline, 32, 100, 1);
    let t = &rep.telemetry;
    for phase in [Phase::Compute, Phase::BoundaryComm, Phase::Synchronization] {
        assert!(Query::new(t).phase(phase).count() > 0, "no {phase} records");
    }
    // Per-rank compute from telemetry matches the report's phase totals
    // (sampled steps only, so compare per-step means).
    let sampled_steps = (0..100).step_by(4).count() as f64;
    let per_step_telemetry =
        Query::new(t).phase(Phase::Compute).total_duration_ns() as f64 / sampled_steps / 32.0;
    let per_step_report = rep.phases.compute_ns / 100.0;
    let ratio = per_step_telemetry / per_step_report;
    assert!(
        (0.8..1.2).contains(&ratio),
        "telemetry/report compute ratio {ratio}"
    );
}

#[test]
fn throttled_run_slower_and_diagnosable_from_telemetry() {
    let mesh = MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1);
    let mut w = SedovWorkload::new(SedovConfig::new(mesh.clone(), 100));
    let mut cfg = SimConfig::tuned(64);
    cfg.faults = FaultConfig::with_throttled_nodes([1]).into();
    cfg.telemetry_sampling = 1;
    let faulty = MacroSim::try_new(cfg)
        .unwrap()
        .try_run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange)
        .unwrap();

    let mut w2 = SedovWorkload::new(SedovConfig::new(mesh, 100));
    let healthy = MacroSim::try_new(SimConfig::tuned(64))
        .unwrap()
        .try_run(&mut w2, &Baseline, RebalanceTrigger::OnMeshChange)
        .unwrap();
    assert!(faulty.total_ns > 1.5 * healthy.total_ns);

    let per_rank = Query::new(&faulty.telemetry)
        .phase(Phase::Compute)
        .per_rank_secs(64);
    let diag = amr_tools::telemetry::anomaly::detect_throttling(&per_rank, 16, 2.0, 0.75);
    assert_eq!(diag.throttled_nodes, vec![1]);
    assert!(diag.inflation > 3.0);
}

#[test]
fn runs_are_reproducible_given_seed_modulo_wall_clock() {
    // Virtual phases other than redistribution (which charges real
    // wall-clock placement time) are exactly reproducible.
    let a = sedov_run(&Cplx::new(25), 32, 120, 77);
    let b = sedov_run(&Cplx::new(25), 32, 120, 77);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.final_blocks, b.final_blocks);
    assert_eq!(a.lb_invocations, b.lb_invocations);
    assert!((a.phases.compute_ns - b.phases.compute_ns).abs() < 1.0);
    assert!((a.phases.sync_ns - b.phases.sync_ns).abs() / a.phases.sync_ns < 1e-9);
}

#[test]
fn two_dimensional_pipeline_works_end_to_end() {
    // The mesh, policies and simulator are dimension-generic; run a 2D
    // cylindrical Sedov through the whole stack.
    let mesh = MeshConfig::from_cells(Dim::D2, (128, 128, 0), 1);
    let mut workload = SedovWorkload::new(SedovConfig::new(mesh, 150));
    let mut cfg = SimConfig::tuned(32);
    cfg.telemetry_sampling = 8;
    let base = MacroSim::try_new(cfg.clone())
        .unwrap()
        .try_run(&mut workload, &Baseline, RebalanceTrigger::OnMeshChange)
        .unwrap();
    assert!(
        base.final_blocks > base.initial_blocks,
        "2D mesh never refined"
    );
    assert!(base.mesh_change_steps > 0);

    let mesh = MeshConfig::from_cells(Dim::D2, (128, 128, 0), 1);
    let mut workload = SedovWorkload::new(SedovConfig::new(mesh, 150));
    let cplx = MacroSim::try_new(cfg)
        .unwrap()
        .try_run(
            &mut workload,
            &Cplx::new(50),
            RebalanceTrigger::OnMeshChange,
        )
        .unwrap();
    assert!(
        cplx.total_ns < base.total_ns,
        "2D: cplx {} vs baseline {}",
        cplx.total_ns,
        base.total_ns
    );
}

#[test]
fn micro_and_macro_agree_on_migration_volume() {
    use amr_tools::placement::policies::{Baseline as B2, Lpt, PlacementPolicy as _};
    use amr_tools::sim::{MicroSim, NetworkConfig, RoundSpec, TaskOrder, Topology};
    use amr_tools::workloads::exchange::build_migration_messages;
    let mesh = amr_tools::mesh::AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1));
    // Aperiodic costs: a periodic pattern can make LPT land exactly on the
    // contiguous baseline (zero migration, nothing to measure).
    let costs: Vec<f64> = (0..mesh.num_blocks())
        .map(|i| 1.0 + ((i * 7) % 13) as f64)
        .collect();
    let old = B2.place(&costs, 16);
    let new = Lpt.place(&costs, 16);
    let messages = build_migration_messages(&mesh, &old, &new);
    let moved = new.migration_count(&old);
    assert_eq!(messages.len(), moved);
    // The micro engine prices the same migration the macro model charges.
    let mut sim = MicroSim::new(
        Topology::paper(16),
        NetworkConfig {
            ack_loss_prob: 0.0,
            ..NetworkConfig::tuned()
        },
        1,
    );
    let res = sim.run_round(&RoundSpec {
        num_ranks: 16,
        compute_ns: vec![0; 16],
        messages,
        order: TaskOrder::SendsFirst,
    });
    assert_eq!((res.local_msgs + res.remote_msgs) as usize, moved);
    // Micro round latency is within a small factor of the macro estimate
    // (max per-rank volume over fabric bandwidth).
    let block_bytes = 16u64 * 16 * 16 * 5 * 8;
    let mut out = [0u64; 16];
    let mut inb = [0u64; 16];
    for b in 0..old.num_blocks() {
        if old.rank_of(b) != new.rank_of(b) {
            out[old.rank_of(b) as usize] += 1;
            inb[new.rank_of(b) as usize] += 1;
        }
    }
    let max_vol = (0..16).map(|r| out[r].max(inb[r])).max().unwrap() * block_bytes;
    assert!(max_vol > 0, "degenerate instance: no migration happened");
    let macro_ns = max_vol as f64 / 5.0; // fabric bytes/ns
    let ratio = res.round_latency_ns as f64 / macro_ns;
    assert!(
        (0.3..=4.0).contains(&ratio),
        "micro {} vs macro {macro_ns} (ratio {ratio})",
        res.round_latency_ns
    );
}
