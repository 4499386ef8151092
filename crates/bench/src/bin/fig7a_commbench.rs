//! Fig. 7 (top) — `commbench`: boundary-exchange round latency vs locality.
//!
//! Isolates point-to-point communication: random realistic AMR meshes
//! (1–2 blocks/rank), a full placement pipeline (CPLX sweep over X), and
//! message-level simulation of boundary-exchange rounds with realistic
//! per-surface message sizes (face > edge > vertex). Following §VI-C:
//! results average 100 rounds over several random meshes per policy,
//! discarding cold-start rounds and rounds above 10 ms (fabric recovery
//! noise unrelated to placement).
//!
//! The paper's finding: at small scales locality wins (latency rises with
//! X); at larger scales a U-shape appears — strict locality clusters
//! high-traffic neighbors onto hotspot ranks, so intermediate X wins.
//!
//! ```text
//! cargo run -p amr-bench --release --bin fig7a_commbench -- \
//!     [--ranks 512,2048] [--meshes 10] [--rounds 100] [--seed 11]
//! ```

use amr_bench::{cplx_roster, render_table, Args};
use amr_core::policies::PlacementPolicy;
use amr_sim::{MicroSim, NetworkConfig, RoundSpec, TaskOrder, Topology};
use amr_workloads::exchange::build_round_messages;
use amr_workloads::{random_refined_mesh, CostDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = Args::from_env();
    let scales = args.get_usize_list("ranks", &[512, 2048]);
    let meshes = args.get_usize("meshes", 10);
    let rounds = args.get_usize("rounds", 100);
    let seed = args.get_u64("seed", 11);
    args.finish();
    let cold = 3usize; // discarded cold-start rounds per (mesh, policy)
    let outlier_ns = 10_000_000u64; // the paper's 10 ms discard threshold

    println!("== Fig. 7a: commbench — round latency vs locality (ms) ==");
    println!("   ({meshes} meshes x {rounds} rounds; cold-start + >10 ms rounds discarded)\n");

    let dist = CostDistribution::Exponential { mean: 1.0 };
    let mut rows = Vec::new();
    for &ranks in &scales {
        let mut cells = vec![ranks.to_string()];
        for policy in cplx_roster() {
            let mut lat_sum = 0.0f64;
            let mut lat_n = 0usize;
            for mesh_i in 0..meshes {
                let mesh_seed = seed ^ ((mesh_i as u64) << 16) ^ ranks as u64;
                let mesh = random_refined_mesh(ranks, 1.6, mesh_seed);
                let mut rng = StdRng::seed_from_u64(mesh_seed ^ 0xC057);
                let costs = dist.sample_vec(mesh.num_blocks(), &mut rng);
                let placement = policy.place(&costs, ranks);
                let messages = build_round_messages(&mesh, &placement);
                let spec = RoundSpec {
                    num_ranks: ranks,
                    compute_ns: vec![0; ranks],
                    messages,
                    order: TaskOrder::SendsFirst,
                };
                let mut sim = MicroSim::new(
                    Topology::paper(ranks),
                    NetworkConfig::tuned(),
                    mesh_seed ^ 0x51,
                );
                for round in 0..rounds {
                    let res = sim.run_round(&spec);
                    if round < cold || res.round_latency_ns > outlier_ns {
                        continue;
                    }
                    lat_sum += res.round_latency_ns as f64;
                    lat_n += 1;
                }
            }
            cells.push(format!("{:.3}", lat_sum / lat_n.max(1) as f64 / 1e6));
        }
        rows.push(cells);
    }
    println!(
        "{}",
        render_table(
            &["ranks", "cpl0", "cpl25", "cpl50", "cpl75", "cpl100"],
            &rows
        )
    );
    println!(
        "Paper shape check: latency differences within ~±0.5 ms; strict locality (cpl0)\n\
         loses its edge at larger scales as clustered face traffic forms hotspots."
    );
}
