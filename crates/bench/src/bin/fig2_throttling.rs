//! Fig. 2 — profiling runs affected by CPU throttling, and the pruning fix.
//!
//! Reproduces the §IV-A experience: thermally throttled nodes inflate
//! compute times ~4× on all 16 ranks of the node, which propagates into
//! global synchronization and dominates runtime. The health-check workflow
//! detects the node clusters from per-rank telemetry and prunes them,
//! recovering a multiple of the runtime (the paper went from 10 h to 2.5 h).
//!
//! ```text
//! cargo run -p amr-bench --release --bin fig2_throttling -- \
//!     [--ranks 256] [--throttled-nodes 3] [--steps 150] [--seed 2]
//! ```

use amr_bench::{render_table, Args};
use amr_core::policies::Baseline;
use amr_core::trigger::RebalanceTrigger;
use amr_sim::health::{prune_faulty_nodes, run_health_check};
use amr_sim::{FaultConfig, MacroSim, SimConfig};
use amr_telemetry::anomaly::detect_throttling;
use amr_telemetry::{Phase, Query};
use amr_workloads::{CoolingWorkload, SedovScenario};

fn main() {
    let mut args = Args::from_env();
    let ranks = args.get_usize("ranks", 256);
    let n_throttled = args.get_usize("throttled-nodes", 3);
    let seed = args.get_u64("seed", 2);
    let _ = args.get_u64("steps", 0); // step count comes from the scenario
    args.finish();

    // Throttle a few interior nodes at the paper's observed 4x.
    let num_nodes = ranks / 16;
    assert!(n_throttled < num_nodes, "too many throttled nodes");
    let throttled: Vec<usize> = (0..n_throttled)
        .map(|i| 1 + i * (num_nodes - 1) / n_throttled.max(1))
        .collect();
    let faults = FaultConfig::with_throttled_nodes(throttled.iter().copied());

    println!("== Fig. 2: throttled compute, cluster signature, pruning ==");
    println!(
        "   ({ranks} ranks, 16/node; nodes {:?} throttled at 4x)\n",
        throttled
    );

    // Use a Sedov run when the rank count matches Table I, else cooling.
    let run = |faults: FaultConfig, label: &str| {
        let mut cfg = SimConfig::tuned(ranks);
        cfg.faults = faults.into();
        cfg.seed = seed;
        cfg.telemetry_sampling = 1;
        let mut sim = MacroSim::try_new(cfg).expect("valid SimConfig");
        let report = if [512, 1024, 2048, 4096].contains(&ranks) {
            let mut w = SedovScenario::for_ranks(ranks, 200).workload();
            sim.try_run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange)
                .expect("macrosim run")
        } else {
            let mesh = amr_mesh::MeshConfig::from_cells(amr_mesh::Dim::D3, (128, 128, 128), 1);
            let mut w = CoolingWorkload::new(amr_workloads::cooling::CoolingConfig::new(mesh, 150));
            sim.try_run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange)
                .expect("macrosim run")
        };
        println!(
            "-- {label}: total {:.2}s | compute {:.2}s | sync {:.2}s ({:.1}%) --",
            report.total_ns / 1e9,
            report.phases.compute_ns / 1e9,
            report.phases.sync_ns / 1e9,
            report.phases.sync_fraction() * 100.0
        );
        report
    };

    let faulty = run(faults.clone(), "faulty run");

    // Telemetry-side diagnosis: per-rank compute means -> cluster detector.
    let per_rank: Vec<f64> = Query::new(&faulty.telemetry)
        .phase(Phase::Compute)
        .per_rank_secs(ranks);
    let rep = detect_throttling(&per_rank, 16, 2.0, 0.75);
    println!("\ntelemetry diagnosis:");
    println!(
        "  slow ranks: {} (in clusters of 16: {:?})",
        rep.slow_ranks.len(),
        rep.throttled_nodes
    );
    println!(
        "  compute inflation vs median rank: {:.1}x (paper: ~4x)\n",
        rep.inflation
    );
    assert_eq!(
        rep.throttled_nodes, throttled,
        "detector must find exactly the injected nodes"
    );

    // Health-check + prune workflow (pre-job screening).
    let topo = amr_sim::Topology::paper(ranks);
    let check = run_health_check(&topo, &faults, 1.0e6, seed);
    let (cleaned, blacklisted) = prune_faulty_nodes(&faults, &check);
    println!("health check blacklisted nodes {blacklisted:?}; re-running on healthy nodes\n");

    let pruned = run(cleaned, "pruned run");

    let speedup = faulty.total_ns / pruned.total_ns;
    println!("\n== Summary ==");
    let rows = vec![
        vec![
            "faulty".into(),
            format!("{:.2}", faulty.total_ns / 1e9),
            format!("{:.1}%", faulty.phases.sync_fraction() * 100.0),
        ],
        vec![
            "pruned".into(),
            format!("{:.2}", pruned.total_ns / 1e9),
            format!("{:.1}%", pruned.phases.sync_fraction() * 100.0),
        ],
    ];
    println!(
        "{}",
        render_table(&["run", "total (s)", "sync share"], &rows)
    );
    println!(
        "runtime recovered: {speedup:.2}x (paper: 10 h -> 2.5 h = 4x; >70% of time in sync before pruning)"
    );
}
