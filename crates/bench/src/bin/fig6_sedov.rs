//! Figure 6 — Sedov Blast Wave runtime study.
//!
//! Reproduces all three panels:
//!
//! * **6a** — total runtime decomposed into compute / communication /
//!   synchronization / rebalancing, for baseline + CPL{0,25,50,75,100}
//!   across scales;
//! * **6b** — P2P communication and synchronization time normalized to
//!   baseline (the load–locality tradeoff), at the smallest and largest
//!   scale;
//! * **6c** — local (intra-node) vs remote (inter-node) MPI message volume,
//!   normalized to the baseline's total.
//!
//! Usage:
//! ```text
//! cargo run -p amr-bench --release --bin fig6_sedov -- \
//!     [--ranks 512,1024,2048,4096] [--step-scale 50] [--seed 1]
//! ```
//!
//! The paper's full runs take 30k–53k steps on real hardware; `--step-scale`
//! divides Table I step counts (default 50). Policy orderings and phase
//! fractions are stable under this scaling (see EXPERIMENTS.md).

use amr_bench::{fmt_pct_delta, fmt_s, policy_roster, render_table, Args};
use amr_core::trigger::RebalanceTrigger;
use amr_sim::{MacroSim, RunReport, SimConfig};
use amr_workloads::SedovScenario;

fn main() {
    let mut args = Args::from_env();
    let scales = args.get_usize_list("ranks", &[512, 1024, 2048, 4096]);
    let step_scale = args.get_u64("step-scale", 50);
    let seed = args.get_u64("seed", 1);
    let csv_dir = args.get("csv", "");
    args.finish();

    println!("== Fig. 6: Sedov Blast Wave 3D, policies vs scale ==");
    println!("   (step counts = Table I / {step_scale}; virtual time; 16 ranks/node)\n");

    let mut all_reports: Vec<(usize, Vec<RunReport>)> = Vec::new();

    for &ranks in &scales {
        let policies = policy_roster();
        let mut reports = Vec::new();
        for policy in &policies {
            let scenario = SedovScenario::for_ranks(ranks, step_scale);
            let mut workload = scenario.workload();
            let mut cfg = SimConfig::tuned(ranks);
            cfg.seed = seed ^ (ranks as u64);
            cfg.telemetry_sampling = 16;
            let mut sim = MacroSim::try_new(cfg).expect("valid SimConfig");
            let report = sim
                .try_run(
                    &mut workload,
                    policy.as_ref(),
                    RebalanceTrigger::OnMeshChange,
                )
                .expect("macrosim run");
            reports.push(report);
        }
        print_fig6a(ranks, &reports);
        all_reports.push((ranks, reports));
    }

    // 6b/6c for smallest and largest scales (matching the paper's panels).
    for (ranks, reports) in all_reports
        .iter()
        .filter(|(r, _)| *r == *scales.first().unwrap() || *r == *scales.last().unwrap())
    {
        print_fig6b(*ranks, reports);
        print_fig6c(*ranks, reports);
    }

    print_findings(&all_reports);

    // Optional plot-ready CSV export (`--csv <dir>`).
    if !csv_dir.is_empty() {
        std::fs::create_dir_all(&csv_dir).expect("create csv dir");
        let mut csv = String::from(
            "ranks,policy,compute_s,comm_s,sync_s,redist_s,total_s,local_msgs,remote_msgs,lb_invocations,blocks_migrated\n",
        );
        for (ranks, reports) in &all_reports {
            for r in reports {
                csv.push_str(&format!(
                    "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{}\n",
                    ranks,
                    r.policy,
                    r.phases.compute_ns / 1e9,
                    r.phases.comm_ns / 1e9,
                    r.phases.sync_ns / 1e9,
                    r.phases.redist_ns / 1e9,
                    r.total_ns / 1e9,
                    r.messages.local,
                    r.messages.remote,
                    r.lb_invocations,
                    r.blocks_migrated,
                ));
            }
        }
        let path = format!("{csv_dir}/fig6.csv");
        std::fs::write(&path, csv).expect("write csv");
        println!("\nwrote {path}");
    }
}

fn print_fig6a(ranks: usize, reports: &[RunReport]) {
    let base_total = reports[0].total_ns;
    let max_total = reports
        .iter()
        .map(|r| r.phases.total_ns())
        .fold(0.0f64, f64::max);
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            // Bars share one scale so shorter runs show shorter bars.
            let width = (32.0 * r.phases.total_ns() / max_total).round() as usize;
            vec![
                r.policy.clone(),
                fmt_s(r.phases.compute_ns),
                fmt_s(r.phases.comm_ns),
                fmt_s(r.phases.sync_ns),
                fmt_s(r.phases.redist_ns),
                fmt_s(r.total_ns),
                format!("{:.1}%", r.phases.sync_fraction() * 100.0),
                fmt_pct_delta(r.total_ns, base_total),
                format!("{:<32}", r.phases.render_bar(width)),
            ]
        })
        .collect();
    println!("-- Fig. 6a @ {ranks} ranks (seconds, mean per rank) --");
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "compute",
                "comm",
                "sync",
                "redist",
                "total",
                "sync%",
                "vs base",
                "#=compute ~=comm ==sync %=redist"
            ],
            &rows
        )
    );
}

fn print_fig6b(ranks: usize, reports: &[RunReport]) {
    let base = &reports[0];
    let rows: Vec<Vec<String>> = reports
        .iter()
        .skip(1) // CPLX variants vs baseline
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.3}", r.phases.comm_ns / base.phases.comm_ns),
                format!("{:.3}", r.phases.sync_ns / base.phases.sync_ns),
            ]
        })
        .collect();
    println!("-- Fig. 6b @ {ranks} ranks (normalized to baseline) --");
    println!(
        "{}",
        render_table(&["policy", "comm (norm)", "sync (norm)"], &rows)
    );
}

fn print_fig6c(ranks: usize, reports: &[RunReport]) {
    let base_total = reports[0].messages.mpi() as f64;
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.3}", r.messages.local as f64 / base_total),
                format!("{:.3}", r.messages.remote as f64 / base_total),
                format!("{:.3}", r.messages.mpi() as f64 / base_total),
                format!("{:.1}%", r.messages.remote_fraction() * 100.0),
            ]
        })
        .collect();
    println!("-- Fig. 6c @ {ranks} ranks (message volume / baseline MPI total) --");
    println!(
        "{}",
        render_table(
            &["policy", "local", "remote", "mpi total", "remote%"],
            &rows
        )
    );
}

fn print_findings(all: &[(usize, Vec<RunReport>)]) {
    println!("== Findings check (paper: §VI-B) ==");
    for (ranks, reports) in all {
        let base = &reports[0];
        let best = reports
            .iter()
            .skip(1)
            .min_by(|a, b| a.total_ns.total_cmp(&b.total_ns))
            .unwrap();
        let reduction = (base.total_ns - best.total_ns) / base.total_ns * 100.0;
        println!(
            "  {ranks} ranks: blocks {}->{}; baseline sync {:.1}% of runtime; best {} at {:.1}% total-runtime reduction \
             (paper: up to 21.6%); non-compute reduction {:.1}%; baseline remote msgs {:.0}%",
            base.initial_blocks,
            base.final_blocks,
            base.phases.sync_fraction() * 100.0,
            best.policy,
            reduction,
            (base.phases.non_compute_ns() - best.phases.non_compute_ns())
                / base.phases.non_compute_ns()
                * 100.0,
            base.messages.remote_fraction() * 100.0,
        );
    }
}
