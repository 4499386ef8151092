//! Zonal placement: the paper's mitigation for placement overhead at the
//! largest scales (§VI-C).
//!
//! "At the largest scales, zonal placement architectures can be adopted to
//! mitigate placement overhead — dividing ranks into k zones to compute
//! placement independently and in parallel" (after Zheng et al.'s periodic
//! hierarchical load balancing). [`Zonal`] wraps *any* inner policy: blocks
//! (in SFC order) and ranks are split into `zones` contiguous groups with
//! cost-proportional block shares, and the inner policy runs per zone. The
//! zones are solved one after another: the partition is what the paper's
//! parallel zones would compute, and each zone solve only sees its own
//! blocks and ranks.
//!
//! Unlike [`super::ChunkedCdp`] — which chunks only the CDP stage — zonal
//! wrapping also confines LPT/CPLX rebalancing inside each zone, trading a
//! little global balance for an `O(zones)` wall-time speedup and bounded
//! migration distance.

use super::PlacementPolicy;
use crate::engine::{PlacementCtx, PlacementError, PlacementReport};
use crate::placement::Placement;

/// Run an inner policy independently per zone.
#[derive(Debug, Clone, Copy)]
pub struct Zonal<P> {
    /// Number of zones (each gets `num_ranks / zones` ranks, ±1).
    pub zones: usize,
    /// The policy executed inside each zone.
    pub inner: P,
}

impl<P> Zonal<P> {
    /// Wrap `inner`, splitting work into `zones` zones.
    pub fn new(zones: usize, inner: P) -> Zonal<P> {
        assert!(zones >= 1);
        Zonal { zones, inner }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for Zonal<P> {
    fn name(&self) -> String {
        format!("zonal{}-{}", self.zones, self.inner.name())
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        ctx.validate()?;
        let costs = ctx.costs();
        let num_ranks = ctx.num_ranks();
        let zones = self.zones.min(num_ranks);
        if zones == 1 {
            // Identity wrapper: the inner policy sees the full context
            // (scratch, prev, mesh) and its report stands as ours.
            return self.inner.place_into(ctx, out);
        }
        let n = costs.len();
        let total: f64 = costs.iter().sum();

        // Rank shares per zone (as even as possible), then block boundaries
        // at matching cumulative-cost fractions.
        let base = num_ranks / zones;
        let extra = num_ranks % zones;
        let mut splits: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> =
            Vec::with_capacity(zones);
        let mut rank_start = 0usize;
        let mut block_start = 0usize;
        let mut acc = 0.0f64;
        let mut target = 0.0f64;
        for z in 0..zones {
            let nranks = base + usize::from(z < extra);
            let rank_range = rank_start..rank_start + nranks;
            rank_start += nranks;
            let block_end = if z == zones - 1 {
                n
            } else if total == 0.0 {
                n * rank_range.end / num_ranks
            } else {
                target += total * nranks as f64 / num_ranks as f64;
                let mut end = block_start;
                while end < n && acc < target {
                    acc += costs[end];
                    end += 1;
                }
                end
            };
            splits.push((block_start..block_end, rank_range));
            block_start = block_end;
        }

        // Each zone solve is a cold `place` on its own sub-slice (the inner
        // policy's context covers only that zone's blocks and ranks).
        let assignment = out.reset(num_ranks);
        assignment.clear();
        assignment.resize(n, 0);
        for (blocks, ranks) in splits {
            let zp = self.inner.place(&costs[blocks.clone()], ranks.len());
            for (local, global) in blocks.enumerate() {
                assignment[global] = ranks.start as u32 + zp.rank_of(local);
            }
        }
        Ok(ctx.finish(out))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::random_costs;
    use super::super::{Cplx, Lpt};
    use super::*;

    #[test]
    fn one_zone_is_identity() {
        let costs = random_costs(64, 1);
        let z = Zonal::new(1, Lpt).place(&costs, 8);
        let plain = Lpt.place(&costs, 8);
        assert_eq!(z, plain);
    }

    #[test]
    fn zones_confine_ranks() {
        let costs = random_costs(128, 2);
        let z = Zonal::new(4, Lpt).place(&costs, 16);
        // Blocks in the first quarter of the curve (by cost share) must map
        // into the first 4 ranks, etc. Verify zone monotonicity: rank zone
        // index is non-decreasing along the curve.
        let zone_of = |r: u32| r / 4;
        let zones: Vec<u32> = z.as_slice().iter().map(|&r| zone_of(r)).collect();
        assert!(zones.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn quality_close_to_global() {
        let costs = random_costs(2048, 3);
        let global = Cplx::new(50).place(&costs, 256).makespan(&costs);
        let zonal = Zonal::new(8, Cplx::new(50))
            .place(&costs, 256)
            .makespan(&costs);
        assert!(
            zonal <= global * 1.5,
            "zonal {zonal} too far from global {global}"
        );
    }

    #[test]
    fn name_encodes_structure() {
        assert_eq!(Zonal::new(8, Lpt).name(), "zonal8-lpt");
    }

    #[test]
    fn more_zones_than_ranks_clamped() {
        let costs = random_costs(8, 4);
        let z = Zonal::new(64, Lpt).place(&costs, 4);
        assert_eq!(z.num_blocks(), 8);
        assert!(z.as_slice().iter().all(|&r| r < 4));
    }

    #[test]
    fn deterministic_despite_parallelism() {
        let costs = random_costs(4096, 5);
        let a = Zonal::new(16, Cplx::new(25)).place(&costs, 512);
        let b = Zonal::new(16, Cplx::new(25)).place(&costs, 512);
        assert_eq!(a, b);
    }
}
