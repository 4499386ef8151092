//! Fig. 7 (middle) — `scalebench`: normalized makespan of CPLX placements
//! under synthetic cost distributions.
//!
//! Block costs are drawn from exponential, Gaussian and power-law
//! distributions (§VI-C) at 1–2 blocks per rank, "with variability bounds
//! chosen to create meaningful balancing opportunities" — heavy tails are
//! capped (exponential at 6x its mean, power-law at 12x) so a single
//! monster block cannot floor every policy alike. Each policy's makespan is
//! normalized by the lower bound `max(mean load, max block cost)`, so 1.0
//! is a provably optimal placement. The
//! paper's finding: CPL100 (LPT) achieves the lowest makespan everywhere,
//! but CPL0/CPL25 capture the bulk of the benefit with far higher locality
//! retention.
//!
//! ```text
//! cargo run -p amr-bench --release --bin fig7b_scalebench -- \
//!     [--ranks 512,4096,32768] [--blocks-per-rank 2] [--reps 5] [--seed 7]
//! ```

use amr_bench::{cplx_roster, render_table, Args};
use amr_core::policies::{Baseline, PlacementPolicy};
use amr_workloads::CostDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = Args::from_env();
    let scales = args.get_usize_list("ranks", &[512, 4096, 32768]);
    let bpr = args.get_usize("blocks-per-rank", 2);
    let reps = args.get_usize("reps", 5);
    let seed = args.get_u64("seed", 7);
    args.finish();

    println!("== Fig. 7b: scalebench — normalized makespan (lower is better) ==");
    println!("   ({bpr} blocks/rank, mean over {reps} seeds; 1.0 = perfect balance)\n");

    for dist in CostDistribution::scalebench_suite() {
        let mut rows = Vec::new();
        for &ranks in &scales {
            let n = ranks * bpr;
            let mut cells = vec![ranks.to_string()];
            // Baseline first, then the CPLX sweep.
            let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![Box::new(Baseline)];
            for c in cplx_roster() {
                policies.push(Box::new(c));
            }
            let cap = match dist {
                CostDistribution::Exponential { mean } => 6.0 * mean,
                CostDistribution::Gaussian { .. } => f64::INFINITY,
                CostDistribution::PowerLaw { .. } => 12.0 * dist.mean(),
            };
            for policy in &policies {
                let mut acc = 0.0;
                for rep in 0..reps {
                    let mut rng = StdRng::seed_from_u64(seed ^ (rep as u64) << 32 ^ ranks as u64);
                    let costs: Vec<f64> = dist
                        .sample_vec(n, &mut rng)
                        .into_iter()
                        .map(|c| c.min(cap))
                        .collect();
                    let placement = policy.place(&costs, ranks);
                    let total: f64 = costs.iter().sum();
                    let max_block = costs.iter().cloned().fold(0.0, f64::max);
                    let lower_bound = (total / ranks as f64).max(max_block);
                    acc += placement.makespan(&costs) / lower_bound;
                }
                cells.push(format!("{:.3}", acc / reps as f64));
            }
            rows.push(cells);
        }
        println!("-- {} --", dist.label());
        println!(
            "{}",
            render_table(
                &["ranks", "baseline", "cpl0", "cpl25", "cpl50", "cpl75", "cpl100"],
                &rows
            )
        );
    }
    println!("Paper shape check: cpl100 lowest; cpl0/cpl25 capture most of the gap from baseline.");
}
