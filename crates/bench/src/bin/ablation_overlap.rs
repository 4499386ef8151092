//! Ablation: asynchronous masking vs placement (§II/§IV-D).
//!
//! Two complementary weapons against variability: balancing work (placement)
//! and overlapping waits with independent work (async runtimes). The §IV-D
//! analysis predicts a tension: masking needs co-resident independent
//! blocks, and its payoff shrinks as placement removes the waits. This
//! ablation sweeps the simulator's masking efficiency and shows placement's
//! marginal benefit under increasingly capable async runtimes.
//!
//! ```text
//! cargo run -p amr-bench --release --bin ablation_overlap -- [--ranks 512] [--step-scale 200]
//! ```

use amr_bench::{fmt_pct_delta, fmt_s, render_table, Args};
use amr_core::policies::{Baseline, Cplx, PlacementPolicy};
use amr_core::trigger::RebalanceTrigger;
use amr_sim::{MacroSim, SimConfig};
use amr_workloads::SedovScenario;

fn main() {
    let mut args = Args::from_env();
    let ranks = args.get_usize("ranks", 512);
    let step_scale = args.get_u64("step-scale", 200);
    let seed = args.get_u64("seed", 1);
    args.finish();

    println!("== Ablation: async wait-masking vs placement (Sedov, {ranks} ranks) ==\n");

    let policies: Vec<Box<dyn PlacementPolicy>> = vec![Box::new(Baseline), Box::new(Cplx::new(50))];
    let mut rows = Vec::new();
    for overlap in [0.0f64, 0.5, 0.9] {
        let mut baseline_total = None;
        for policy in &policies {
            let mut workload = SedovScenario::for_ranks(ranks, step_scale).workload();
            let mut cfg = SimConfig::tuned(ranks);
            cfg.seed = seed;
            cfg.overlap_efficiency = overlap;
            // A partially tuned application: sends still trail half the
            // kernel work, so P2P waits exist for the runtime to mask.
            // (In the fully tuned sends-first stack there is almost nothing
            // left to overlap — masking and send-prioritization compete for
            // the same slack.)
            cfg.send_coupling = 0.5;
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
                format!("{overlap:.1}"),
                rep.policy.clone(),
                fmt_s(rep.phases.comm_ns),
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
                "masking",
                "policy",
                "comm (s)",
                "sync (s)",
                "total (s)",
                "cpl50 vs base"
            ],
            &rows
        )
    );
    println!(
        "\nExpected: masking trims the P2P-wait share, but the synchronization cost of\n\
         compute imbalance is untouched by overlap — placement remains the lever for\n\
         the dominant term (the paper's argument for why placement still matters in\n\
         task-based runtimes)."
    );
}
