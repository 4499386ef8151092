//! Ablation: is the edge cut a good proxy for communication cost?
//!
//! Related work (§VIII): "all graph-based approaches model communication as
//! edge cuts, which we find poorly correlated with runtime communication
//! overhead." This experiment places one mesh with seven policies — from
//! locality-maximizing to locality-blind, plus a real greedy edge-cut
//! partitioner and RCB — and compares each placement's *edge cut* with its
//! *measured* boundary-round latency and per-rank comm hotspots from the
//! message-level simulator.
//!
//! ```text
//! cargo run -p amr-bench --release --bin ablation_edgecut -- [--ranks 512] [--rounds 40]
//! ```

use amr_bench::{render_table, Args};
use amr_core::placement::Placement;
use amr_core::policies::{
    edge_cut_bytes, Baseline, Cdp, Cplx, GreedyEdgeCut, Lpt, PlacementPolicy, Rcb,
};
use amr_sim::{MicroSim, NetworkConfig, RoundSpec, TaskOrder, Topology};
use amr_telemetry::stats;
use amr_workloads::exchange::build_round_messages;
use amr_workloads::exchange::placement_ctx;
use amr_workloads::{random_refined_mesh, CostDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = Args::from_env();
    let ranks = args.get_usize("ranks", 512);
    let rounds = args.get_usize("rounds", 40);
    let seed = args.get_u64("seed", 23);
    args.finish();

    let mesh = random_refined_mesh(ranks, 1.6, seed);
    let n = mesh.num_blocks();
    let graph = mesh.neighbor_graph();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xEC);
    let costs = CostDistribution::Exponential { mean: 1.0 }.sample_vec(n, &mut rng);

    println!("== Ablation: edge cut vs measured communication ==");
    println!("   ({ranks} ranks, {n} blocks, {rounds} measured rounds/policy)\n");

    let placements: Vec<(String, Placement)> = vec![
        ("baseline".into(), Baseline.place(&costs, ranks)),
        ("cdp".into(), Cdp.place(&costs, ranks)),
        ("cpl50".into(), Cplx::new(50).place(&costs, ranks)),
        ("lpt".into(), Lpt.place(&costs, ranks)),
        ("edge-cut".into(), {
            // Thread the prebuilt neighbor graph through the context so the
            // partitioner does not rebuild it.
            let ctx = placement_ctx(&mesh, &costs, ranks).with_graph(&graph);
            let mut out = Placement::default();
            GreedyEdgeCut::default()
                .place_into(&ctx, &mut out)
                .expect("edge-cut placement");
            out
        }),
        ("rcb".into(), Rcb.place_on_mesh(&mesh, &costs, ranks)),
    ];

    let mut cuts = Vec::new();
    let mut lats = Vec::new();
    let mut rows = Vec::new();
    for (name, placement) in &placements {
        let cut = edge_cut_bytes(placement, &graph, &mesh);
        let spec = RoundSpec {
            num_ranks: ranks,
            compute_ns: vec![0; ranks],
            messages: build_round_messages(&mesh, placement),
            order: TaskOrder::SendsFirst,
        };
        let mut sim = MicroSim::new(Topology::paper(ranks), NetworkConfig::tuned(), seed);
        let mut lat = 0.0;
        for _ in 0..rounds {
            lat += sim.run_round(&spec).round_latency_ns as f64;
        }
        lat /= rounds as f64;
        cuts.push(cut as f64);
        lats.push(lat);
        rows.push(vec![
            name.clone(),
            format!("{:.1}", cut as f64 / 1e6),
            format!("{:.1}", lat / 1e3),
            format!("{:.3}", placement.makespan(&costs)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["policy", "edge cut (MB)", "round latency (us)", "makespan"],
            &rows
        )
    );
    let r = stats::pearson(&cuts, &lats);
    println!(
        "\nPearson(edge cut, measured round latency) across policies: r = {r:.3}\n\
         Paper claim: edge cuts are a poor proxy for runtime communication cost —\n\
         receiver hotspots and the local/remote path split matter more than total\n\
         crossing volume."
    );
}
