//! Ablation: telemetry-measured costs vs the production default of
//! "every block costs 1" (§V-A3, change 1).
//!
//! The paper's first infrastructure change populates the per-block cost
//! hooks with measured compute times. This ablation runs the same policies
//! with that change switched off: cost-aware policies see uniform costs and
//! collapse onto count balancing — quantifying how much of CPLX's gain is
//! the *telemetry*, not the algorithm.
//!
//! ```text
//! cargo run -p amr-bench --release --bin ablation_costs -- [--ranks 512] [--step-scale 200]
//! ```

use amr_bench::{fmt_pct_delta, fmt_s, render_table, Args};
use amr_core::policies::{Baseline, Cplx, Lpt, PlacementPolicy};
use amr_core::trigger::RebalanceTrigger;
use amr_sim::{MacroSim, SimConfig};
use amr_workloads::SedovScenario;

fn main() {
    let mut args = Args::from_env();
    let ranks = args.get_usize("ranks", 512);
    let step_scale = args.get_u64("step-scale", 200);
    let seed = args.get_u64("seed", 1);
    args.finish();

    println!("== Ablation: measured (telemetry) costs vs uniform cost=1 hooks ==");
    println!("   ({ranks} ranks, Sedov, steps = Table I / {step_scale})\n");

    let policies: Vec<Box<dyn PlacementPolicy>> =
        vec![Box::new(Baseline), Box::new(Cplx::new(50)), Box::new(Lpt)];

    let mut rows = Vec::new();
    let mut baseline_total = None;
    for measured in [true, false] {
        for policy in &policies {
            let mut workload = SedovScenario::for_ranks(ranks, step_scale).workload();
            let mut cfg = SimConfig::tuned(ranks);
            cfg.seed = seed;
            cfg.use_measured_costs = measured;
            cfg.telemetry_sampling = 64;
            let rep = MacroSim::try_new(cfg)
                .expect("valid SimConfig")
                .try_run(
                    &mut workload,
                    policy.as_ref(),
                    RebalanceTrigger::OnMeshChange,
                )
                .expect("macrosim run");
            let base = *baseline_total.get_or_insert(rep.total_ns);
            rows.push(vec![
                if measured { "measured" } else { "uniform" }.to_string(),
                rep.policy.clone(),
                fmt_s(rep.phases.sync_ns),
                fmt_s(rep.total_ns),
                fmt_pct_delta(rep.total_ns, base),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "cost hooks",
                "policy",
                "sync (s)",
                "total (s)",
                "vs baseline"
            ],
            &rows
        )
    );
    println!(
        "\nExpected: with uniform hooks, cpl50/lpt lose most of their advantage — the\n\
         gain comes from telemetry-driven costs, not from shuffling blocks."
    );
}
