//! Fig. 5 — mesh, octree and Z-order SFC, rendered in the terminal.
//!
//! Recreates the paper's illustrative figure in 2D: an adaptively refined
//! mesh, the block IDs assigned by the depth-first (Z-order) traversal, and
//! the contiguous ID ranges the baseline assigns to ranks. Pass `--hilbert`
//! to draw the Hilbert ordering instead and compare the curves' locality.
//!
//! ```text
//! cargo run -p amr-bench --release --bin fig5_meshviz -- [--ranks 4] [--hilbert]
//! ```

use amr_bench::Args;
use amr_core::policies::Baseline;
use amr_core::reorder::{order_by_key, permuted_place};
use amr_mesh::{hilbert_key, sfc_key, AmrMesh, Dim, MeshConfig, Point, RefineTag};

fn main() {
    let mut args = Args::from_env();
    let ranks = args.get_usize("ranks", 4);
    let hilbert = args.flag("hilbert");
    args.finish();

    // A 4x4-root 2D mesh refined near one corner, like the paper's figure.
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (64, 64, 0), 1));
    mesh.adapt(|b| {
        if b.bounds.distance_to_point(&Point::new2(0.8, 0.8)) < 0.3 {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
    let n = mesh.num_blocks();
    println!(
        "== Fig. 5: adaptively refined 2D mesh, {} blocks, {} ordering ==\n",
        n,
        if hilbert { "Hilbert" } else { "Z-order (SFC)" }
    );

    // Ordering and placement.
    let perm: Vec<usize> = if hilbert {
        order_by_key(n, |i| hilbert_key(&mesh.blocks()[i].octant, Dim::D2))
    } else {
        order_by_key(n, |i| sfc_key(&mesh.blocks()[i].octant, Dim::D2))
    };
    // Position of each block along the curve.
    let mut curve_pos = vec![0usize; n];
    for (pos, &b) in perm.iter().enumerate() {
        curve_pos[b] = pos;
    }
    let costs = vec![1.0; n];
    let placement = permuted_place(&Baseline, &costs, &perm, ranks);

    // Raster the domain on a grid of the finest block size (8x8 cells of
    // the 4x4-root level-1 lattice).
    let grid = 8usize;
    let cell = 1.0 / grid as f64;
    println!("block IDs along the curve (each cell = finest block size):");
    for gy in (0..grid).rev() {
        let mut id_row = String::new();
        let mut rank_row = String::new();
        for gx in 0..grid {
            let p = Point::new2((gx as f64 + 0.5) * cell, (gy as f64 + 0.5) * cell);
            let b = mesh
                .blocks()
                .iter()
                .position(|blk| blk.bounds.contains(&p))
                .expect("point inside some block");
            id_row.push_str(&format!("{:>4}", curve_pos[b]));
            rank_row.push_str(&format!("{:>4}", placement.rank_of(b)));
        }
        println!("  {id_row}     |{rank_row}");
    }
    println!("\n  left: position along the curve; right: rank assignment ({ranks} ranks,");
    println!("  contiguous curve ranges). Coarse blocks repeat their value over 2x2 cells.");

    // Locality summary for the chosen curve.
    let graph = mesh.neighbor_graph();
    let spec = mesh.config().spec;
    let loc = placement.locality_stats(&graph, 1, &spec, Dim::D2);
    println!(
        "\ncut relations (different ranks): {} of {} ({:.1}%)",
        loc.mpi_msgs(),
        loc.total_relations(),
        100.0 * loc.mpi_msgs() as f64 / loc.total_relations() as f64
    );
    println!("try `--hilbert` to see the jump-free curve's effect on the cut.");
}
