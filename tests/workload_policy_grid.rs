//! Cross-workload integration grid: the paper's qualitative findings must
//! hold for every workload the repo ships, not just the Sedov headline run.

use amr_tools::mesh::{Dim, MeshConfig};
use amr_tools::placement::policies::{Baseline, Cplx, PlacementPolicy};
use amr_tools::placement::trigger::RebalanceTrigger;
use amr_tools::sim::{MacroSim, RunReport, SimConfig, Workload};
use amr_tools::workloads::cooling::{CoolingConfig, CoolingWorkload};
use amr_tools::workloads::{InterfaceConfig, InterfaceWorkload, SedovConfig, SedovWorkload};

const RANKS: usize = 64;
const STEPS: u64 = 150;

fn run(workload: &mut dyn Workload, policy: &dyn PlacementPolicy, seed: u64) -> RunReport {
    let mut cfg = SimConfig::tuned(RANKS);
    cfg.seed = seed;
    cfg.telemetry_sampling = 8;
    // Slowly adapting workloads (the interface sheet) can go many steps
    // without a mesh change; an imbalance-aware trigger keeps the placement
    // tracking measured costs (see `ablation_trigger`).
    MacroSim::try_new(cfg)
        .unwrap()
        .try_run(
            workload,
            policy,
            RebalanceTrigger::MeshChangeOrImbalance(1.3),
        )
        .unwrap()
}

fn mesh() -> MeshConfig {
    MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1)
}

/// Build a fresh workload of each kind.
fn workloads() -> Vec<(&'static str, Box<dyn Workload>)> {
    vec![
        (
            "sedov",
            Box::new(SedovWorkload::new(SedovConfig::new(mesh(), STEPS))),
        ),
        (
            "interface",
            Box::new(InterfaceWorkload::new(InterfaceConfig::new(mesh(), STEPS))),
        ),
        (
            "cooling",
            Box::new(CoolingWorkload::new(CoolingConfig::new(mesh(), STEPS))),
        ),
    ]
}

#[test]
fn cplx_never_loses_badly_on_any_workload() {
    for (name, _) in workloads() {
        let mut base_w = make(name);
        let mut cplx_w = make(name);
        let base = run(base_w.as_mut(), &Baseline, 5);
        let cplx = run(cplx_w.as_mut(), &Cplx::new(50), 5);
        // CPLX must not regress total runtime by more than noise on any
        // workload, and must win where variability exists.
        assert!(
            cplx.total_ns <= base.total_ns * 1.02,
            "{name}: cplx {} vs base {}",
            cplx.total_ns,
            base.total_ns
        );
        if name != "cooling" {
            assert!(
                cplx.total_ns < base.total_ns * 0.99,
                "{name}: no gain on a variable workload"
            );
        }
    }
}

fn make(name: &str) -> Box<dyn Workload> {
    workloads()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| w)
        .unwrap()
}

#[test]
fn compute_work_is_policy_invariant_everywhere() {
    for (name, _) in workloads() {
        let mut a_w = make(name);
        let mut b_w = make(name);
        let a = run(a_w.as_mut(), &Baseline, 7);
        let b = run(b_w.as_mut(), &Cplx::new(100), 7);
        let drift = (a.phases.compute_ns - b.phases.compute_ns).abs() / a.phases.compute_ns;
        assert!(drift < 0.03, "{name}: compute drifted {drift}");
    }
}

#[test]
fn adaptive_workloads_trigger_redistribution_static_ones_do_not() {
    for (name, _) in workloads() {
        let mut w = make(name);
        let rep = run(w.as_mut(), &Cplx::new(25), 9);
        match name {
            "cooling" => assert_eq!(rep.mesh_change_steps, 0, "{name} adapted unexpectedly"),
            _ => assert!(rep.mesh_change_steps > 0, "{name} never adapted"),
        }
    }
}

#[test]
fn telemetry_volume_scales_with_sampling() {
    let mut dense_w = make("sedov");
    let mut sparse_w = make("sedov");
    let mut cfg_dense = SimConfig::tuned(RANKS);
    cfg_dense.telemetry_sampling = 1;
    let mut cfg_sparse = SimConfig::tuned(RANKS);
    cfg_sparse.telemetry_sampling = 16;
    let dense = MacroSim::try_new(cfg_dense)
        .unwrap()
        .try_run(dense_w.as_mut(), &Baseline, RebalanceTrigger::OnMeshChange)
        .unwrap();
    let sparse = MacroSim::try_new(cfg_sparse)
        .unwrap()
        .try_run(sparse_w.as_mut(), &Baseline, RebalanceTrigger::OnMeshChange)
        .unwrap();
    // Sampling-1 vs sampling-16 should differ by roughly 16x in rows while
    // leaving virtual results identical.
    let ratio = dense.telemetry.len() as f64 / sparse.telemetry.len() as f64;
    assert!((10.0..=22.0).contains(&ratio), "sampling ratio {ratio}");
    assert!((dense.phases.sync_ns - sparse.phases.sync_ns).abs() / dense.phases.sync_ns < 1e-9);
}
