//! Hierarchically chunked CDP (§V-C, "Scaling CDP With Chunking").
//!
//! Plain CDP's placement overhead "became noticeable at 4096 ranks". The
//! paper's fix: divide blocks into `c` contiguous chunks of approximately
//! equal cost, then apply CDP *independently* to each chunk using a subset
//! of ranks — at 4096 ranks with chunk size 512 this creates 8
//! parallel-processed chunks. Chunking may miss the globally optimal CDP
//! solution, but the output only seeds CPLX, so the approximation "has
//! minimal impact".
//!
//! The paper processes the chunks in parallel; here they are solved one
//! after another through the engine's CDP scratch, so the cost of a
//! chunked solve is the sum of its chunks' restricted DPs (each over only
//! its own ranks) and a warm solve allocates nothing.

use super::cdp::{cdp_assign, solve_append, with_scratch};
use super::PlacementPolicy;
use crate::engine::{PlacementCtx, PlacementError, PlacementReport};
use crate::placement::Placement;
use std::ops::Range;

/// Chunked CDP.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedCdp {
    /// Target number of ranks handled by one chunk (the paper used 512).
    pub ranks_per_chunk: usize,
}

impl Default for ChunkedCdp {
    fn default() -> Self {
        ChunkedCdp {
            ranks_per_chunk: 512,
        }
    }
}

impl ChunkedCdp {
    /// Chunked CDP with a custom chunk size.
    pub fn new(ranks_per_chunk: usize) -> Self {
        assert!(ranks_per_chunk >= 1);
        ChunkedCdp { ranks_per_chunk }
    }

    /// Partition ranks as evenly as possible into `c` chunks, and blocks into
    /// contiguous runs whose cost share is proportional to each chunk's rank
    /// share. Yields `(block_range, rank_range)` per chunk, in order.
    fn chunks<'a>(
        &self,
        costs: &'a [f64],
        num_ranks: usize,
    ) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + 'a {
        let c = num_ranks.div_ceil(self.ranks_per_chunk);
        let total: f64 = costs.iter().sum();
        let n = costs.len();

        // Rank ranges: as even as possible.
        let base_ranks = num_ranks / c;
        let extra_ranks = num_ranks % c;

        let mut rank_start = 0usize;
        let mut block_start = 0usize;
        let mut cost_acc = 0.0f64;
        let mut cost_target = 0.0f64;
        (0..c).map(move |chunk| {
            let nranks = base_ranks + usize::from(chunk < extra_ranks);
            let rank_range = rank_start..rank_start + nranks;
            rank_start += nranks;

            let block_end = if chunk == c - 1 {
                n
            } else {
                // Advance until this chunk's cumulative cost share matches
                // its rank share; leave at least one block per remaining
                // rank so downstream CDP stays well-formed when possible.
                cost_target += total * nranks as f64 / num_ranks as f64;
                let mut end = block_start;
                while end < n && (cost_acc < cost_target || total == 0.0 && end < block_start) {
                    cost_acc += costs[end];
                    end += 1;
                }
                if total == 0.0 {
                    // Zero-cost mesh: fall back to count-proportional split.
                    end = n * rank_range.end / num_ranks;
                }
                end.min(n)
            };
            let blocks = block_start..block_end;
            block_start = block_end;
            (blocks, rank_range)
        })
    }
}

/// The chunked-CDP assignment shared by [`ChunkedCdp`], [`super::Cplx`] and
/// [`super::Blend`] (which all seed from it): solve into `out` without
/// computing a report. Each chunk's restricted DP runs in the context's
/// scratch and appends its rank run straight into `out`, so a warm solve
/// allocates nothing.
pub(crate) fn chunked_assign(cfg: &ChunkedCdp, ctx: &PlacementCtx, out: &mut Placement) {
    let costs = ctx.costs();
    let num_ranks = ctx.num_ranks();
    if num_ranks <= cfg.ranks_per_chunk {
        cdp_assign(ctx, out);
        return;
    }
    let ranks_out = out.reset(num_ranks);
    ranks_out.clear();
    with_scratch(ctx, |s| {
        for (blocks, ranks) in cfg.chunks(costs, num_ranks) {
            solve_append(s, &costs[blocks], ranks.len(), ranks.start, ranks_out);
        }
    });
    debug_assert_eq!(ranks_out.len(), costs.len());
}

impl PlacementPolicy for ChunkedCdp {
    fn name(&self) -> String {
        format!("cdp-chunked{}", self.ranks_per_chunk)
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        chunked_assign(self, ctx, out);
        Ok(ctx.finish(out))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::random_costs;
    use super::super::Cdp;
    use super::*;

    #[test]
    fn small_case_delegates_to_plain_cdp() {
        let costs = random_costs(40, 3);
        let chunked = ChunkedCdp::new(64).place(&costs, 8);
        let plain = Cdp.place(&costs, 8);
        assert_eq!(chunked, plain);
    }

    #[test]
    fn preserves_contiguity() {
        let costs = random_costs(512, 5);
        let p = ChunkedCdp::new(32).place(&costs, 128);
        assert!(p.is_contiguous());
        assert_eq!(p.num_blocks(), 512);
    }

    #[test]
    fn near_plain_cdp_quality() {
        // Chunking is an approximation; allow modest slack.
        let costs = random_costs(1024, 11);
        let plain = Cdp.place(&costs, 256);
        let chunked = ChunkedCdp::new(64).place(&costs, 256);
        let ratio = chunked.makespan(&costs) / plain.makespan(&costs);
        assert!(ratio < 1.3, "chunked/plain = {ratio}");
    }

    #[test]
    fn every_rank_used_with_two_blocks_per_rank() {
        let costs = random_costs(512, 9);
        let p = ChunkedCdp::new(64).place(&costs, 256);
        let counts = p.counts_per_rank();
        assert_eq!(counts.iter().sum::<usize>(), 512);
        // With equal-cost-share chunking and 2 blocks/rank, no rank should
        // starve badly: all get between 0 and 4.
        assert!(counts.iter().all(|&c| c <= 5));
    }

    #[test]
    fn zero_cost_mesh_falls_back_to_counts() {
        let costs = vec![0.0; 128];
        let p = ChunkedCdp::new(16).place(&costs, 64);
        assert_eq!(p.counts_per_rank().iter().sum::<usize>(), 128);
        assert!(p.is_contiguous());
    }

    /// The scratch path must equal the chunking it implements: plain CDP on
    /// each chunk's cost sub-slice, ranks offset by the chunk's first rank.
    #[test]
    fn scratch_path_matches_stitched_plain_cdp() {
        use crate::engine::PlacementEngine;
        for (n, r) in [(2600usize, 1024usize), (9000, 4096)] {
            let costs = random_costs(n, r as u64);
            let cfg = ChunkedCdp::default();
            let mut oracle = vec![0u32; n];
            for (blocks, ranks) in cfg.chunks(&costs, r) {
                let p = Cdp.place(&costs[blocks.clone()], ranks.len());
                for (local, global) in blocks.enumerate() {
                    oracle[global] = ranks.start as u32 + p.rank_of(local);
                }
            }
            let mut engine = PlacementEngine::new();
            for _ in 0..2 {
                // Cold, then warm through the engine's scratch.
                let placed = engine
                    .rebalance(&cfg, &costs, r)
                    .expect("chunked rebalance");
                assert_eq!(placed.num_blocks, n);
                let got = engine.placement().expect("engine holds a placement");
                assert_eq!(got.as_slice(), oracle.as_slice(), "{n} blocks on {r} ranks");
            }
            assert_eq!(cfg.place(&costs, r).as_slice(), oracle.as_slice());
        }
    }

    #[test]
    fn deterministic() {
        let costs = random_costs(2048, 21);
        let a = ChunkedCdp::new(128).place(&costs, 1024);
        let b = ChunkedCdp::new(128).place(&costs, 1024);
        assert_eq!(a, b);
    }
}
