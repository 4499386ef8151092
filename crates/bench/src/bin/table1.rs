//! Table I — Sedov Blast Wave 3D problem configurations.
//!
//! Runs each Table I scenario under the baseline policy and reports, next to
//! the paper's values: total timesteps, timesteps invoking load-balancing
//! (`t_lb`), and initial/final block counts. Step counts are scaled by
//! `--step-scale` (default 50); `t_total` and `t_lb` are reported both as
//! simulated and as extrapolated back to paper scale (`× step-scale`).
//!
//! ```text
//! cargo run -p amr-bench --release --bin table1 -- [--step-scale 50] [--ranks 512,...]
//! ```

use amr_bench::{render_table, Args};
use amr_core::policies::Baseline;
use amr_core::trigger::RebalanceTrigger;
use amr_sim::{MacroSim, SimConfig};
use amr_workloads::SedovScenario;

fn main() {
    let mut args = Args::from_env();
    let step_scale = args.get_u64("step-scale", 50);
    let scales = args.get_usize_list("ranks", &[512, 1024, 2048, 4096]);
    args.finish();

    println!("== Table I: Sedov Blast Wave 3D configurations ==");
    println!(
        "   (simulated steps = paper steps / {step_scale}; 16^3 blocks, 1 initial block/rank)\n"
    );

    let mut rows = Vec::new();
    for &ranks in &scales {
        let scenario = SedovScenario::for_ranks(ranks, step_scale);
        let row = scenario.row;
        let mut workload = scenario.workload();
        let mut cfg = SimConfig::tuned(ranks);
        cfg.telemetry_sampling = 64;
        let mut sim = MacroSim::try_new(cfg).expect("valid SimConfig");
        let rep = sim
            .try_run(&mut workload, &Baseline, RebalanceTrigger::OnMeshChange)
            .expect("macrosim run");

        rows.push(vec![
            ranks.to_string(),
            format!(
                "{}x{}x{}",
                row.mesh_cells.0, row.mesh_cells.1, row.mesh_cells.2
            ),
            row.t_total.to_string(),
            rep.steps.to_string(),
            row.t_lb.to_string(),
            rep.lb_invocations.to_string(),
            format!("{:.1}%", row.t_lb as f64 / row.t_total as f64 * 100.0),
            format!(
                "{:.1}%",
                rep.lb_invocations as f64 / rep.steps as f64 * 100.0
            ),
            row.n_initial.to_string(),
            rep.initial_blocks.to_string(),
            row.n_final.to_string(),
            rep.final_blocks.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "ranks",
                "mesh",
                "t_tot(p)",
                "t_tot(sim)",
                "t_lb(p)",
                "t_lb(sim)",
                "lb%(p)",
                "lb%(sim)",
                "n_init(p)",
                "n_init",
                "n_final(p)",
                "n_final"
            ],
            &rows
        )
    );
    println!("(p) = paper-reported value; sim step counts are paper/{step_scale}.");
}
