//! Run a scaled-down Sedov blast wave end to end and sweep CPLX's X.
//!
//! ```text
//! cargo run --release --example sedov_blast
//! ```
//!
//! This is Fig. 6 in miniature: a shock front sweeps the domain, the mesh
//! refines along it, redistribution fires on every mesh change, and the
//! phase decomposition shows the load–locality tradeoff as X varies.

use amr_tools::mesh::{Dim, MeshConfig};
use amr_tools::placement::policies::{Baseline, Cplx, PlacementPolicy};
use amr_tools::placement::trigger::RebalanceTrigger;
use amr_tools::sim::{MacroSim, SimConfig};
use amr_tools::workloads::{SedovConfig, SedovWorkload};

fn main() {
    let ranks = 64;
    let steps = 400;

    println!("Sedov blast wave, {ranks} ranks, {steps} steps, CPLX sweep\n");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "policy", "compute", "comm", "sync", "redist", "total", "vs base"
    );

    let mut base_total = None;
    let policies: Vec<Box<dyn PlacementPolicy>> = {
        let mut v: Vec<Box<dyn PlacementPolicy>> = vec![Box::new(Baseline)];
        for x in [0, 25, 50, 75, 100] {
            v.push(Box::new(Cplx::new(x)));
        }
        v
    };
    for policy in &policies {
        // 64 initial blocks (one per rank), refinable once.
        let mesh = MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1);
        let mut workload = SedovWorkload::new(SedovConfig::new(mesh, steps));
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 8;
        let mut sim = MacroSim::try_new(cfg).expect("valid SimConfig");
        let rep = sim
            .try_run(
                &mut workload,
                policy.as_ref(),
                RebalanceTrigger::OnMeshChange,
            )
            .expect("macrosim run");
        let base = *base_total.get_or_insert(rep.total_ns);
        println!(
            "{:<10} {:>8.2}s {:>8.2}s {:>8.2}s {:>8.2}s {:>8.2}s {:>+6.1}%",
            rep.policy,
            rep.phases.compute_ns / 1e9,
            rep.phases.comm_ns / 1e9,
            rep.phases.sync_ns / 1e9,
            rep.phases.redist_ns / 1e9,
            rep.total_ns / 1e9,
            (rep.total_ns - base) / base * 100.0,
        );
    }
    println!(
        "\nCompute is placement-invariant; sync falls and comm rises with X — \
         the tunable tradeoff CPLX exposes (paper Fig. 6)."
    );
}
