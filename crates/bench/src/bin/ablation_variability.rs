//! Ablation: compute variability vs placement benefit.
//!
//! §VI: "results were directionally similar: codes with high compute
//! variability benefit more from better placement, and vice-versa" — the
//! paper's observation across Phoebus (Sedov) and AthenaPK (galaxy
//! cooling). This ablation makes the relationship a curve: sweep the Sedov
//! gradient amplification (the shock's compute-cost contrast) from nearly
//! uniform to strongly peaked and report CPL50's runtime gain; the cooling
//! workload anchors the low-variability end.
//!
//! ```text
//! cargo run -p amr-bench --release --bin ablation_variability -- [--ranks 512] [--step-scale 400]
//! ```

use amr_bench::{fmt_pct_delta, render_table, Args};
use amr_core::policies::{Baseline, Cplx, PlacementPolicy};
use amr_core::trigger::RebalanceTrigger;
use amr_mesh::{Dim, MeshConfig};
use amr_sim::{MacroSim, SimConfig, Workload};
use amr_workloads::cooling::{CoolingConfig, CoolingWorkload};
use amr_workloads::{InterfaceConfig, InterfaceWorkload, SedovScenario};

fn main() {
    let mut args = Args::from_env();
    let ranks = args.get_usize("ranks", 512);
    let step_scale = args.get_u64("step-scale", 400);
    let seed = args.get_u64("seed", 1);
    args.finish();

    println!("== Ablation: compute variability vs placement benefit (CPL50) ==\n");

    let run = |workload: &mut dyn Workload, policy: &dyn PlacementPolicy| {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.seed = seed;
        cfg.telemetry_sampling = 64;
        MacroSim::try_new(cfg)
            .expect("valid SimConfig")
            .try_run(workload, policy, RebalanceTrigger::OnMeshChange)
            .expect("macrosim run")
    };

    let mut rows = Vec::new();

    // Low-variability anchor: the cooling-style workload.
    {
        let mesh = MeshConfig::from_cells(Dim::D3, (128, 128, 128), 1);
        let steps = SedovScenario::for_ranks(ranks, step_scale)
            .config
            .total_steps;
        let mut wb = CoolingWorkload::new(CoolingConfig::new(mesh.clone(), steps));
        let base = run(&mut wb, &Baseline);
        let mut wc = CoolingWorkload::new(CoolingConfig::new(mesh, steps));
        let cpl = run(&mut wc, &Cplx::new(50));
        rows.push(vec![
            "cooling (amp n/a)".to_string(),
            format!("{:.2}", base.phases.sync_fraction() * 100.0),
            fmt_pct_delta(cpl.total_ns, base.total_ns),
        ]);
    }

    // Mid-variability: the shear-interface (KH-style) workload.
    {
        let mesh = MeshConfig::from_cells(Dim::D3, (128, 128, 128), 1);
        let steps = SedovScenario::for_ranks(ranks, step_scale)
            .config
            .total_steps;
        let mut wb = InterfaceWorkload::new(InterfaceConfig::new(mesh.clone(), steps));
        let base = run(&mut wb, &Baseline);
        let mut wc = InterfaceWorkload::new(InterfaceConfig::new(mesh, steps));
        let cpl = run(&mut wc, &Cplx::new(50));
        rows.push(vec![
            "interface (boost 2.5)".to_string(),
            format!("{:.2}", base.phases.sync_fraction() * 100.0),
            fmt_pct_delta(cpl.total_ns, base.total_ns),
        ]);
    }

    // Sedov with increasing shock contrast.
    for amp in [0.5f64, 1.0, 2.2, 4.0, 8.0] {
        let mut scenario = SedovScenario::for_ranks(ranks, step_scale);
        scenario.config.gradient_amp = amp;
        let mut wb = scenario.workload();
        let base = run(&mut wb, &Baseline);
        let mut wc = scenario.workload();
        let cpl = run(&mut wc, &Cplx::new(50));
        rows.push(vec![
            format!("sedov amp={amp}"),
            format!("{:.2}", base.phases.sync_fraction() * 100.0),
            fmt_pct_delta(cpl.total_ns, base.total_ns),
        ]);
    }

    println!(
        "{}",
        render_table(&["workload", "baseline sync %", "cpl50 vs baseline"], &rows)
    );
    println!(
        "\nExpected: the benefit of telemetry-driven placement grows with the\n\
         workload's compute variability; near-uniform codes gain little (the\n\
         paper's Phoebus-vs-AthenaPK observation as a curve)."
    );
}
