//! Observed exchange-byte accounting: the feedback half of the
//! measured-weight placement loop.
//!
//! The paper's §VIII finding is that *static* edge cuts — weights derived
//! from message sizes the topology implies — correlate poorly with runtime
//! communication. The placement side of the fix is
//! [`CutWeights::Observed`](amr_core::policies::CutWeights): partition on
//! what was measured, not what was modeled. This module is the measuring
//! instrument: an [`ExchangeByteLedger`] rides along with the macro-sim's
//! flat [`NeighborGraph`] and accumulates, per *directed relation*, the
//! bytes the simulated run actually pushed across it — ghost exchanges every
//! round, flux corrections once per step on fine→coarse faces.
//!
//! Design constraints, in order:
//!
//! - **O(1) on the step path.** Steps only bump pending round/step tallies
//!   ([`note_step`](ExchangeByteLedger::note_step)); the O(relations)
//!   materialization ([`flush`](ExchangeByteLedger::flush)) runs only when a
//!   consumer needs the numbers — before a rebalance or a remesh.
//! - **Delta-aware across remeshes.** A remesh invalidates the relation
//!   space, but most relations survive (both endpoints
//!   [`CostOrigin::Same`]). [`prepare_remesh`](ExchangeByteLedger::prepare_remesh)
//!   flushes against the dying graph and stages its layout;
//!   [`apply_remesh`](ExchangeByteLedger::apply_remesh) carries bytes onto
//!   the patched graph for surviving relations and zeros the rest, so
//!   observations persist through AMR instead of resetting every adapt.
//! - **Deterministic, and invisible to virtual time.** The ledger only
//!   *reads* simulation state. Its one flush runs on a [`WorkerPool`] under
//!   the same contiguous-ownership rule as the simulator's exchange kernels
//!   (each task owns a block range, hence a disjoint CSR entry range), and
//!   the per-task byte totals are `u64` (associative), merged in task order,
//!   so the bytes are identical at any thread count. A run with the ledger on
//!   is bitwise identical in virtual time to the same run with it off until
//!   a policy actually consumes the weights (pinned by tests).

use amr_core::cost::CostOrigin;
use amr_mesh::pool::{Disjoint, WorkerPool};
use amr_mesh::{BlockSpec, Dim, NeighborGraph, NeighborKind};

/// Per-relation observed-byte accumulator for a flat [`NeighborGraph`].
#[derive(Debug, Default)]
pub struct ExchangeByteLedger {
    /// Observed bytes per directed relation, parallel to the graph's CSR
    /// entry space ([`NeighborGraph::row_start`] indexing).
    bytes: Vec<u64>,
    /// Ghost-exchange rounds noted since the last flush.
    pending_rounds: u64,
    /// Steps noted since the last flush (flux correction is once per step).
    pending_steps: u64,
    /// Staged layout of the pre-remesh graph: CSR offsets, neighbor block
    /// ids, and flushed bytes — consumed by [`apply_remesh`](Self::apply_remesh).
    old_offsets: Vec<u32>,
    old_neighbor: Vec<u32>,
    old_bytes: Vec<u64>,
    staged: bool,
    /// Per-task byte totals of the last flush (capacity reused).
    partials: Vec<u64>,
    /// Lifetime tallies (reported via trace counters).
    flushes: u64,
    remaps: u64,
    observed_total: u64,
}

impl ExchangeByteLedger {
    /// Re-arm the ledger for a run over `graph`: one zeroed slot per
    /// directed relation, pendings cleared. Buffer capacity survives across
    /// runs.
    pub fn begin_run(&mut self, graph: &NeighborGraph) {
        self.bytes.clear();
        self.bytes.resize(graph.total_relations(), 0);
        self.pending_rounds = 0;
        self.pending_steps = 0;
        self.staged = false;
        self.flushes = 0;
        self.remaps = 0;
        self.observed_total = 0;
    }

    /// Note one simulated step carrying `exchanges` ghost rounds. O(1).
    #[inline]
    pub fn note_step(&mut self, exchanges: u32) {
        self.pending_rounds += exchanges as u64;
        self.pending_steps += 1;
    }

    /// Materialize pending rounds/steps into per-relation bytes: every
    /// relation gains `rounds · message_bytes(codim)`, and fine→coarse Face
    /// relations additionally gain `steps · message_bytes(1)/4` of flux
    /// correction — exactly the per-relation charges the epoch fill models.
    ///
    /// Tasks on `pool` own contiguous *block* ranges, hence pairwise-disjoint
    /// CSR entry ranges (`row_start(lo)..row_start(hi)`), so each byte slot
    /// has exactly one writer; the per-task `u64` totals are associative and
    /// merge in task order. Bitwise identical at any thread count.
    pub fn flush(&mut self, pool: &WorkerPool, graph: &NeighborGraph, spec: BlockSpec, dim: Dim) {
        if self.pending_rounds == 0 && self.pending_steps == 0 {
            return;
        }
        debug_assert_eq!(self.bytes.len(), graph.total_relations());
        let (rounds, steps) = (self.pending_rounds, self.pending_steps);
        let n = graph.num_blocks();
        let t_n = pool.threads().min(n).max(1);
        self.partials.clear();
        self.partials.resize(t_n, 0);
        let out = Disjoint::new(&mut self.bytes);
        pool.run_with(&mut self.partials, |t, total| {
            let (blo, bhi) = (t * n / t_n, (t + 1) * n / t_n);
            let (elo, ehi) = (graph.row_start(blo), graph.row_start(bhi));
            // SAFETY: block ranges are pairwise disjoint and contiguous, so
            // the CSR entry ranges they map to are as well.
            let out = unsafe { out.slice(elo, ehi) };
            let mut entry = elo;
            for b in blo..bhi {
                for nb in graph.neighbors(amr_mesh::BlockId(b as u32)) {
                    let add = relation_bytes(spec, dim, nb.kind, nb.level_delta, rounds, steps);
                    out[entry - elo] = out[entry - elo].saturating_add(add);
                    *total = total.saturating_add(add);
                    entry += 1;
                }
            }
        });
        let added = self.partials.iter().fold(0u64, |a, &p| a.saturating_add(p));
        self.finish_flush(added);
    }

    fn finish_flush(&mut self, added: u64) {
        self.pending_rounds = 0;
        self.pending_steps = 0;
        self.flushes += 1;
        self.observed_total = self.observed_total.saturating_add(added);
    }

    /// Stage for a remesh: flush everything pending against the *current*
    /// (about-to-be-patched) graph, then capture its layout so
    /// [`apply_remesh`](Self::apply_remesh) can carry surviving relations'
    /// bytes across. Call before `patch_neighbor_graph`.
    pub fn prepare_remesh(
        &mut self,
        pool: &WorkerPool,
        graph: &NeighborGraph,
        spec: BlockSpec,
        dim: Dim,
    ) {
        self.flush(pool, graph, spec, dim);
        let n = graph.num_blocks();
        self.old_offsets.clear();
        self.old_offsets.push(0);
        self.old_neighbor.clear();
        for (_, nbs) in graph.iter() {
            for nb in nbs {
                self.old_neighbor.push(nb.block.index() as u32);
            }
            self.old_offsets.push(self.old_neighbor.len() as u32);
        }
        debug_assert_eq!(self.old_offsets.len(), n + 1);
        std::mem::swap(&mut self.old_bytes, &mut self.bytes);
        self.staged = true;
    }

    /// Rebuild the byte vector for the patched graph. A relation `a → b`
    /// keeps its observation iff both endpoints are [`CostOrigin::Same`]
    /// survivors and the old graph had the relation (binary search on the
    /// old sorted row); everything else — split children, merge parents,
    /// fresh blocks, relations the remesh created — starts at zero. Without
    /// origins there is no ancestry to follow: observations reset.
    pub fn apply_remesh(&mut self, origins: Option<&[CostOrigin]>, graph: &NeighborGraph) {
        debug_assert!(self.staged, "prepare_remesh must precede apply_remesh");
        self.staged = false;
        self.bytes.clear();
        self.bytes.resize(graph.total_relations(), 0);
        let Some(origins) = origins else {
            self.observed_total = 0;
            return;
        };
        if origins.len() != graph.num_blocks() {
            self.observed_total = 0;
            return;
        }
        self.remaps += 1;
        let mut carried = 0u64;
        let mut entry = 0usize;
        for (block, nbs) in graph.iter() {
            let src_old = match origins[block.index()] {
                CostOrigin::Same(i) => Some(i),
                _ => None,
            };
            for nb in nbs {
                if let (Some(sa), CostOrigin::Same(sb)) = (src_old, &origins[nb.block.index()]) {
                    if sa + 1 < self.old_offsets.len() {
                        let row = self.old_offsets[sa] as usize..self.old_offsets[sa + 1] as usize;
                        if let Ok(pos) = self.old_neighbor[row.clone()].binary_search(&(*sb as u32))
                        {
                            let b = self.old_bytes[row.start + pos];
                            self.bytes[entry] = b;
                            carried = carried.saturating_add(b);
                        }
                    }
                }
                entry += 1;
            }
        }
        // Lifetime total keeps only what survived (plus future flushes).
        self.observed_total = carried;
    }

    /// Per-relation observed bytes (valid after a flush; entry-parallel to
    /// the graph it was flushed against).
    pub fn bytes(&self) -> &[u64] {
        &self.bytes
    }

    /// True once at least one flush has landed nonzero observations —
    /// before that, the weights would be all zeros and the topological
    /// model is strictly more informative.
    pub fn has_observations(&self) -> bool {
        self.observed_total > 0
    }

    /// Lifetime flush count (trace counter feed).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Lifetime successful remap count (trace counter feed).
    pub fn remaps(&self) -> u64 {
        self.remaps
    }

    /// Observed bytes currently represented in the ledger.
    pub fn observed_total(&self) -> u64 {
        self.observed_total
    }
}

/// Bytes one directed relation accumulates over `rounds` ghost rounds and
/// `steps` steps — mirrors the charges `fill_epoch` models: every relation
/// ships its codim message each round; fine→coarse faces add a quarter-face
/// flux correction once per step.
#[inline]
fn relation_bytes(
    spec: BlockSpec,
    dim: Dim,
    kind: NeighborKind,
    level_delta: i8,
    rounds: u64,
    steps: u64,
) -> u64 {
    let mut b = rounds.saturating_mul(spec.message_bytes(dim, kind.codim()));
    if level_delta == -1 && kind == NeighborKind::Face {
        b = b.saturating_add(steps.saturating_mul(spec.message_bytes(dim, 1) / 4));
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::{AmrMesh, MeshConfig};

    fn pool() -> WorkerPool {
        WorkerPool::new(1)
    }

    fn mesh() -> AmrMesh {
        AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1))
    }

    #[test]
    fn flush_charges_every_relation_once_per_round() {
        let m = mesh();
        let g = m.neighbor_graph();
        let spec = m.config().spec;
        let dim = m.config().dim;
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.note_step(3);
        led.note_step(3);
        led.flush(&pool(), &g, spec, dim);
        assert!(led.has_observations());
        let mut entry = 0usize;
        for (_, nbs) in g.iter() {
            for n in nbs {
                let expect = relation_bytes(spec, dim, n.kind, n.level_delta, 6, 2);
                assert_eq!(led.bytes()[entry], expect);
                entry += 1;
            }
        }
    }

    #[test]
    fn parallel_flush_is_bitwise_identical() {
        let m = mesh();
        let g = m.neighbor_graph();
        let spec = m.config().spec;
        let dim = m.config().dim;
        let flushed = |threads: usize| {
            let mut led = ExchangeByteLedger::default();
            led.begin_run(&g);
            led.note_step(3);
            led.flush(&WorkerPool::new(threads), &g, spec, dim);
            led
        };
        let one = flushed(1);
        for threads in [2usize, 3] {
            let pooled = flushed(threads);
            assert_eq!(one.bytes(), pooled.bytes(), "threads = {threads}");
            assert_eq!(one.observed_total(), pooled.observed_total());
        }
    }

    #[test]
    fn flush_is_lazy_and_idempotent() {
        let m = mesh();
        let g = m.neighbor_graph();
        let (spec, dim) = (m.config().spec, m.config().dim);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.flush(&pool(), &g, spec, dim); // nothing pending: no flush recorded
        assert_eq!(led.flushes(), 0);
        led.note_step(1);
        led.flush(&pool(), &g, spec, dim);
        let snapshot: Vec<u64> = led.bytes().to_vec();
        led.flush(&pool(), &g, spec, dim); // still nothing new pending
        assert_eq!(led.bytes(), &snapshot[..]);
        assert_eq!(led.flushes(), 1);
    }

    #[test]
    fn remesh_with_identity_origins_carries_all_bytes() {
        let m = mesh();
        let g = m.neighbor_graph();
        let (spec, dim) = (m.config().spec, m.config().dim);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.note_step(3);
        led.prepare_remesh(&pool(), &g, spec, dim);
        let before: Vec<u64> = led.old_bytes.clone();
        let origins: Vec<CostOrigin> = (0..g.num_blocks()).map(CostOrigin::Same).collect();
        led.apply_remesh(Some(&origins), &g);
        assert_eq!(led.bytes(), &before[..], "identity remap must be lossless");
        assert_eq!(led.remaps(), 1);
    }

    #[test]
    fn remesh_without_origins_resets() {
        let m = mesh();
        let g = m.neighbor_graph();
        let (spec, dim) = (m.config().spec, m.config().dim);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.note_step(1);
        led.prepare_remesh(&pool(), &g, spec, dim);
        led.apply_remesh(None, &g);
        assert!(!led.has_observations());
        assert!(led.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn remesh_zeroes_fresh_blocks_only() {
        let m = mesh();
        let g = m.neighbor_graph();
        let (spec, dim) = (m.config().spec, m.config().dim);
        let mut led = ExchangeByteLedger::default();
        led.begin_run(&g);
        led.note_step(2);
        led.prepare_remesh(&pool(), &g, spec, dim);
        // Pretend block 0 was replaced: everything touching it resets.
        let origins: Vec<CostOrigin> = (0..g.num_blocks())
            .map(|i| {
                if i == 0 {
                    CostOrigin::Fresh
                } else {
                    CostOrigin::Same(i)
                }
            })
            .collect();
        led.apply_remesh(Some(&origins), &g);
        let mut entry = 0usize;
        for (block, nbs) in g.iter() {
            for n in nbs {
                let touches0 = block.index() == 0 || n.block.index() == 0;
                if touches0 {
                    assert_eq!(led.bytes()[entry], 0, "relations of a fresh block reset");
                } else {
                    assert!(led.bytes()[entry] > 0, "surviving relations carry");
                }
                entry += 1;
            }
        }
    }
}
