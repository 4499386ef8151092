//! Straggler hunting with telemetry views and zone-map pushdown.
//!
//! ```text
//! cargo run --release --example straggler_hunt
//! ```
//!
//! The paper's diagnosis loop (§IV), end to end: run a simulation with a
//! *persistent* hardware straggler and a *rotating* workload straggler,
//! collect per-step telemetry, then let the analytics tell them apart —
//! persistent stragglers cluster on ranks/nodes (hardware), rotating ones
//! follow the physics. Finishes with a zone-map pushdown query picking the
//! slow events out of the full table without scanning it.

use amr_tools::mesh::{Dim, MeshConfig};
use amr_tools::placement::policies::Baseline;
use amr_tools::placement::trigger::RebalanceTrigger;
use amr_tools::sim::{FaultConfig, MacroSim, SimConfig};
use amr_tools::telemetry::chunked::{ChunkedStore, Predicate};
use amr_tools::telemetry::views;
use amr_tools::telemetry::Phase;
use amr_tools::workloads::{SedovConfig, SedovWorkload};

fn main() {
    let ranks = 64;
    // Sedov provides the rotating (physics) straggler; node 2 is the
    // persistent (hardware) one.
    let mesh = MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1);
    let mut workload = SedovWorkload::new(SedovConfig::new(mesh, 200));
    let mut cfg = SimConfig::tuned(ranks);
    cfg.faults = FaultConfig::with_throttled_nodes([2]).into();
    cfg.telemetry_sampling = 1;
    let report = MacroSim::try_new(cfg)
        .expect("valid SimConfig")
        .try_run(&mut workload, &Baseline, RebalanceTrigger::OnMeshChange)
        .expect("macrosim run");
    let table = &report.telemetry;
    println!(
        "run complete: {} steps, {} telemetry rows\n",
        report.steps,
        table.len()
    );

    // View 1: who gates each step? The throttled node's ranks take turns
    // being the worst, so aggregate gating counts per *node* — the paper's
    // cluster signature.
    let per_node = views::straggler_histogram_by_node(table, ranks, 16);
    let (worst_node, node_count) = per_node
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(n, &c)| (n, c))
        .unwrap();
    println!(
        "straggler attribution by node: {:?} (gating steps per node)",
        per_node
    );
    let persistence = node_count as f64 / report.steps as f64;
    println!(
        "  -> node {worst_node} gates {:.0}% of steps: {}",
        persistence * 100.0,
        if persistence > 0.5 {
            "hardware-suspect — pin that node (Fig. 2 workflow)"
        } else {
            "rotating workload straggler"
        }
    );

    // View 2: imbalance evolution.
    let (mean_imb, p95_imb) = views::imbalance_summary(table);
    println!("imbalance factor: mean {mean_imb:.2}, p95 {p95_imb:.2}");

    // View 3: phase fractions from raw telemetry.
    println!("phase fractions:");
    for (phase, frac) in views::phase_fractions(table) {
        println!("  {:<8} {:>5.1}%", phase.to_string(), frac * 100.0);
    }

    // Zone-map pushdown: the slowest sync events, without a full scan.
    let store = ChunkedStore::build(table, 2048);
    let threshold = 3 * report.phases.sync_ns as u64 / report.steps / 2; // 1.5x mean step sync
    let pred = Predicate {
        phase: Some(Phase::Synchronization),
        min_duration_ns: Some(threshold),
        ..Predicate::default()
    };
    let scan = store.scan(&pred);
    println!(
        "\npushdown query (sync events > {:.2} ms): {} hits; {} of {} chunks pruned by zone maps",
        threshold as f64 / 1e6,
        scan.rows.len(),
        scan.chunks_pruned,
        store.num_chunks()
    );
    let on_bad_node = scan
        .rows
        .iter()
        .filter(|r| r.rank / 16 != 2) // healthy ranks waiting on node 2
        .count();
    println!(
        "{on_bad_node}/{} of those waits are healthy ranks stalled behind the throttled node",
        scan.rows.len()
    );
}
