//! Ablation: when to rebalance.
//!
//! The paper's codes redistribute on every mesh change (§II-B); related
//! work (Meta-Balancer) studies smarter triggers. This ablation sweeps the
//! trigger policy under CPL50: never, on mesh change, periodic, and
//! mesh-change-or-imbalance — trading staleness of the placement against
//! redistribution (placement + migration) overhead.
//!
//! ```text
//! cargo run -p amr-bench --release --bin ablation_trigger -- [--ranks 512] [--step-scale 200]
//! ```

use amr_bench::{fmt_pct_delta, fmt_s, render_table, Args};
use amr_core::policies::Cplx;
use amr_core::trigger::RebalanceTrigger;
use amr_sim::{MacroSim, SimConfig};
use amr_workloads::SedovScenario;

fn main() {
    let mut args = Args::from_env();
    let ranks = args.get_usize("ranks", 512);
    let step_scale = args.get_u64("step-scale", 200);
    let seed = args.get_u64("seed", 1);
    args.finish();

    println!("== Ablation: redistribution trigger policies (CPL50) ==");
    println!("   ({ranks} ranks, Sedov, steps = Table I / {step_scale})\n");

    let triggers: Vec<(&str, RebalanceTrigger)> = vec![
        ("never", RebalanceTrigger::Never),
        ("on-mesh-change", RebalanceTrigger::OnMeshChange),
        ("periodic-10", RebalanceTrigger::Periodic(10)),
        ("periodic-50", RebalanceTrigger::Periodic(50)),
        (
            "mesh-or-imb>1.2",
            RebalanceTrigger::MeshChangeOrImbalance(1.2),
        ),
    ];

    let policy = Cplx::new(50);
    let mut rows = Vec::new();
    let mut reference = None;
    for (label, trigger) in triggers {
        let mut workload = SedovScenario::for_ranks(ranks, step_scale).workload();
        let mut cfg = SimConfig::tuned(ranks);
        cfg.seed = seed;
        cfg.telemetry_sampling = 64;
        let rep = MacroSim::try_new(cfg)
            .expect("valid SimConfig")
            .try_run(&mut workload, &policy, trigger)
            .expect("macrosim run");
        let base = *reference.get_or_insert(rep.total_ns);
        rows.push(vec![
            label.to_string(),
            rep.lb_invocations.to_string(),
            rep.blocks_migrated.to_string(),
            fmt_s(rep.phases.sync_ns),
            fmt_s(rep.phases.redist_ns),
            fmt_s(rep.total_ns),
            fmt_pct_delta(rep.total_ns, base),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "trigger",
                "lb calls",
                "blocks moved",
                "sync (s)",
                "redist (s)",
                "total (s)",
                "vs never"
            ],
            &rows
        )
    );
    println!(
        "\nNote: 'never' still places once at startup (and when block counts change the\n\
         mapping must be rebuilt); the trigger governs *voluntary* rebalances. More\n\
         frequent rebalancing tracks the shock better at higher migration cost."
    );
}
