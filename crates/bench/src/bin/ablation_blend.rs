//! Ablation: the naive CDP/LPT blend vs CPLX — the §V-D design story.
//!
//! "Our initial attempts to blend the policies produced unpredictable
//! results... we eventually realized that it was easier to selectively
//! break locality in a contiguous placement than to restore locality in an
//! arbitrary one." This binary retraces that dead end: sweep the blend's
//! heavy-block fraction and CPLX's X over a Sedov-like hot-ball instance and
//! print both operating points on the (makespan, locality) plane — blend
//! points sit above/right of the CPLX frontier.
//!
//! ```text
//! cargo run -p amr-bench --release --bin ablation_blend -- [--ranks 64] [--seed 31]
//! ```

use amr_bench::{render_table, Args};
use amr_core::policies::{Blend, Cplx, PlacementPolicy};
use amr_mesh::{AmrMesh, Dim, MeshConfig, Point, RefineTag};

fn main() {
    let mut args = Args::from_env();
    let ranks = args.get_usize("ranks", 64);
    let seed = args.get_u64("seed", 31);
    args.finish();

    // A hot spherical band, like a Sedov front frozen in time.
    let hot = Point::new(
        0.3 + (seed % 3) as f64 * 0.1,
        0.4,
        0.35 + (seed % 5) as f64 * 0.05,
    );
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 128), 1));
    mesh.adapt(|b| {
        if b.bounds.distance_to_point(&hot) < 0.18 {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
    let costs: Vec<f64> = mesh
        .blocks()
        .iter()
        .map(|b| {
            if b.bounds.center().distance(&hot) < 0.28 {
                5.0
            } else {
                1.0
            }
        })
        .collect();
    let graph = mesh.neighbor_graph();
    let spec = mesh.config().spec;

    println!("== Ablation: naive blend vs CPLX on the (makespan, locality) plane ==");
    println!(
        "   ({} blocks, {ranks} ranks; lower is better on both axes)\n",
        mesh.num_blocks()
    );

    let mut rows = Vec::new();
    let point = |name: String, p: &amr_core::Placement, rows: &mut Vec<Vec<String>>| {
        let loc = p.locality_stats(&graph, 16, &spec, Dim::D3);
        rows.push(vec![
            name,
            format!("{:.2}", p.makespan(&costs)),
            loc.mpi_msgs().to_string(),
            format!("{:.1}%", loc.remote_fraction() * 100.0),
        ]);
    };
    for x in [0u32, 25, 50, 75, 100] {
        let p = Cplx::new(x).place(&costs, ranks);
        point(format!("cpl{x}"), &p, &mut rows);
    }
    for w in [0.1f64, 0.25, 0.5, 0.75] {
        let p = Blend::new(w).place(&costs, ranks);
        point(format!("blend{}", (w * 100.0) as u32), &p, &mut rows);
    }
    println!(
        "{}",
        render_table(&["policy", "makespan", "mpi msgs", "remote%"], &rows)
    );
    println!(
        "\nReading the table: CPLX's makespan falls monotonically as X rises — the\n\
         dial works. The blend's does not: small w values pay locality *and* end\n\
         up with a worse makespan than no blending at all (splicing LPT's heavy\n\
         blocks onto CDP's residual loads concentrates, rather than relieves, the\n\
         stragglers). That non-monotone response is the 'unpredictable results'\n\
         that pushed the paper from blending to rank-based selective rebalancing."
    );
}
