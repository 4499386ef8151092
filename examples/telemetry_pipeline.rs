//! The telemetry pipeline: collect, store, query, diagnose, mitigate.
//!
//! ```text
//! cargo run --release --example telemetry_pipeline
//! ```
//!
//! Reenacts §IV's diagnostic loop on a cluster with an injected fail-slow
//! node:
//!
//! 1. run a simulation and collect structured, columnar telemetry;
//! 2. query it (group-by rank/phase, correlations) the way the paper ran
//!    SQL over ClickHouse;
//! 3. detect the throttled node cluster with the anomaly detector;
//! 4. prune it via the health-check workflow and quantify the recovery;
//! 5. round-trip the telemetry through the binary codec and CSV.

use amr_tools::mesh::{Dim, MeshConfig};
use amr_tools::placement::policies::Baseline;
use amr_tools::placement::trigger::RebalanceTrigger;
use amr_tools::sim::health::{prune_faulty_nodes, run_health_check};
use amr_tools::sim::{FaultConfig, MacroSim, SimConfig, Topology};
use amr_tools::telemetry::anomaly::detect_throttling;
use amr_tools::telemetry::{codec, Phase, Query};
use amr_tools::workloads::cooling::{CoolingConfig, CoolingWorkload};

fn main() {
    let ranks = 64;
    let faults = FaultConfig::with_throttled_nodes([2]);

    // 1. Faulty run with per-step telemetry.
    let mut cfg = SimConfig::tuned(ranks);
    cfg.faults = faults.clone().into();
    let run = |cfg: SimConfig| {
        let mesh = MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1);
        let mut w = CoolingWorkload::new(CoolingConfig::new(mesh, 100));
        MacroSim::try_new(cfg)
            .expect("valid SimConfig")
            .try_run(&mut w, &Baseline, RebalanceTrigger::OnMeshChange)
            .expect("macrosim run")
    };
    let report = run(cfg.clone());
    println!(
        "faulty run: total {:.2}s, sync share {:.1}%, {} telemetry rows",
        report.total_ns / 1e9,
        report.phases.sync_fraction() * 100.0,
        report.telemetry.len()
    );

    // 2. Query: per-rank compute totals, per-phase totals, correlation.
    let t = &report.telemetry;
    let by_phase = Query::new(t).by_phase();
    println!("\nper-phase totals (s):");
    for (phase, agg) in &by_phase {
        println!("  {:<8} {:>8.2}", phase.to_string(), agg.total_secs());
    }
    let per_rank = Query::new(t).phase(Phase::Compute).per_rank_secs(ranks);

    // 3. Diagnose: compute times cluster by node -> hardware, not workload.
    let diag = detect_throttling(&per_rank, 16, 2.0, 0.75);
    println!(
        "\ndiagnosis: {} slow ranks, node clusters {:?}, inflation {:.1}x",
        diag.slow_ranks.len(),
        diag.throttled_nodes,
        diag.inflation
    );

    // 4. Health-check + prune, then re-run.
    let check = run_health_check(&Topology::paper(ranks), &faults, 1e6, 7);
    let (cleaned, blacklisted) = prune_faulty_nodes(&faults, &check);
    println!("pruned nodes {blacklisted:?}");
    let mut cfg2 = SimConfig::tuned(ranks);
    cfg2.faults = cleaned.into();
    let healthy = run(cfg2);
    println!(
        "healthy run: total {:.2}s ({:.2}x faster), sync share {:.1}%",
        healthy.total_ns / 1e9,
        report.total_ns / healthy.total_ns,
        healthy.phases.sync_fraction() * 100.0
    );

    // 5. Persistence: binary codec round-trip + CSV export.
    let bin = codec::encode(&report.telemetry);
    let back = codec::decode(&bin).expect("decode");
    assert_eq!(back.len(), report.telemetry.len());
    let csv = codec::to_csv(&report.telemetry);
    println!(
        "\ntelemetry: {} rows -> {} KiB binary / {} KiB CSV; binary round-trip exact",
        report.telemetry.len(),
        bin.len() / 1024,
        csv.len() / 1024,
    );
}
