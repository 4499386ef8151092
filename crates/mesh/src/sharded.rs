//! Sharded mesh view: contiguous per-node SFC partitions with shard-local
//! CSR neighbor graphs and a halo (boundary-exchange) table.
//!
//! A single global [`NeighborGraph`] caps the simulator far below the
//! operating regime of extreme-scale BAMR frameworks, which never hold
//! global mesh state: each node owns a contiguous window of the
//! space-filling curve plus ghost metadata for the blocks its window talks
//! to. [`ShardedMesh`] reproduces that layout on top of [`AmrMesh`]:
//!
//! * The SFC **key space** is split into `S` contiguous ranges at
//!   construction (`bounds`). Keys are stable across adaptation (a surviving
//!   block keeps its key; children subdivide the parent's key range), so the
//!   partition never has to be renegotiated — only the block-index window of
//!   each shard (`starts`) moves.
//! * Each shard owns a **shard-local CSR** ([`ShardGraph`]): the rows of its
//!   blocks, with neighbor ids kept global (rows are bit-identical to the
//!   global graph's rows — the flat/sharded equivalence proof reduces to
//!   concatenation), plus a sorted **halo table** of the out-of-shard blocks
//!   its rows reference and a count of cross-shard relations.
//! * [`ShardedMesh::refresh`] repairs all shards from the
//!   [`RefinementDelta`](crate::mesh::RefinementDelta) of the latest adapt
//!   using the same affected-row analysis as [`NeighborGraph::patch`]:
//!   unaffected rows are copied with ids renumbered through the fate table,
//!   affected rows are rebuilt, and everything stages through pooled
//!   scratch so steady-state refreshes allocate nothing. [`AmrMesh::neighbor_graph`] stays the
//!   correctness oracle (see `flatten_into` and the property tests).
//!
//! ## Why shard boundaries never split a changed span
//!
//! Shard bounds are SFC keys of blocks that existed at planning time. Block
//! key ranges are disjoint, so a bound falls inside exactly one block's
//! range — at its start. A refined parent's children all lie inside the
//! parent's key range, hence in the parent's shard. A coarsened family's
//! parent takes the first sibling's key; if a bound pointed at a later
//! sibling, the merged parent simply lands in the preceding shard and the
//! window boundaries (`starts`) move — recomputed per refresh by binary
//! search, O(S log n).

use crate::block::{BlockId, MeshBlock};
use crate::geom::Dim;
use crate::mesh::{AmrMesh, BlockFate};
use crate::neighbors::{build_row, BlockIndex, Neighbor, NeighborGraph};
use crate::octant::Direction;
use crate::pool::{Disjoint, WorkerPool};
use crate::tree::Octree;

/// One shard's view of the neighbor topology: the CSR rows of the blocks in
/// `start..end` (global ids in the entries, rows sorted by id — identical to
/// the same rows of the global graph) plus the halo table.
#[derive(Debug, Clone, Default)]
pub struct ShardGraph {
    /// Global index of the first owned block.
    start: u32,
    /// One past the global index of the last owned block.
    end: u32,
    /// Local row boundaries; `offsets.len() == num_blocks() + 1`.
    offsets: Vec<u32>,
    /// Packed rows; neighbor ids are global [`BlockId`]s.
    entries: Vec<Neighbor>,
    /// Sorted, deduplicated global indices of out-of-shard blocks referenced
    /// by the rows — the ghost metadata this shard must import each exchange.
    halo: Vec<u32>,
    /// Directed relations whose target lies outside the shard.
    cross: u32,
}

impl ShardGraph {
    /// Number of blocks owned by the shard.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Global block-index window `start..end`.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Row of the block with local index `local` (global id `start + local`),
    /// sorted by global neighbor id.
    #[inline]
    pub fn neighbors_local(&self, local: usize) -> &[Neighbor] {
        &self.entries[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }

    /// The halo table: sorted global indices of ghost blocks.
    #[inline]
    pub fn halo(&self) -> &[u32] {
        &self.halo
    }

    /// Directed relations leaving the shard.
    #[inline]
    pub fn cross_relations(&self) -> usize {
        self.cross as usize
    }

    /// Total directed relations stored in the shard.
    #[inline]
    pub fn total_relations(&self) -> usize {
        self.entries.len()
    }

    /// Slot of a global block id in the halo table, if it is a ghost.
    #[inline]
    pub fn halo_slot(&self, global: u32) -> Option<usize> {
        self.halo.binary_search(&global).ok()
    }

    /// Recompute the halo table and cross-relation count from the rows.
    fn rebuild_halo(&mut self) {
        self.halo.clear();
        let (lo, hi) = (self.start, self.end);
        let mut cross = 0u32;
        for e in &self.entries {
            let g = e.block.0;
            if g < lo || g >= hi {
                cross += 1;
                self.halo.push(g);
            }
        }
        self.cross = cross;
        self.halo.sort_unstable();
        self.halo.dedup();
    }
}

/// Pooled scratch for [`ShardedMesh::refresh`]: staging CSR arrays swap with
/// each shard's own, so steady-state refreshes run allocation-free.
#[derive(Debug, Clone, Default)]
struct ShardScratch {
    /// Direction table (fixed per mesh dimensionality, filled once).
    dirs: Vec<Direction>,
    /// Per-new-block flag: row must be rebuilt (vs copied + renumbered).
    affected: Vec<bool>,
    /// Shard windows of the pre-adapt index, saved before recomputation.
    old_starts: Vec<u32>,
    /// Staging CSR arrays for the shard currently being emitted.
    offsets: Vec<u32>,
    entries: Vec<Neighbor>,
    row: Vec<Neighbor>,
    /// One row buffer per shard for [`ShardedMesh::rebuild`]'s tasks.
    rows: Vec<Vec<Neighbor>>,
}

/// Per-node SFC partition of an [`AmrMesh`]: `S` contiguous key ranges, each
/// owning a [`ShardGraph`]. See the module docs for the layout and the
/// incremental-refresh contract.
#[derive(Debug, Clone)]
pub struct ShardedMesh {
    /// Key-space partition, `len == num_shards + 1`; shard `s` owns keys in
    /// `bounds[s]..bounds[s+1]`. Fixed at construction.
    bounds: Vec<u64>,
    /// Block-index windows for the current snapshot, `len == num_shards + 1`.
    starts: Vec<u32>,
    shards: Vec<ShardGraph>,
    scratch: ShardScratch,
}

/// Plan the key-space partition for `num_shards` shards over the current
/// snapshot of `mesh`, balanced by block count. Bound `s` is the SFC key of
/// the block at index `s·n/S`, so shard windows start equal-sized.
pub fn plan_shard_bounds(mesh: &AmrMesh, num_shards: usize) -> Vec<u64> {
    assert!(num_shards >= 1, "at least one shard");
    let keys = mesh.sfc_keys();
    let n = keys.len();
    let mut bounds = Vec::with_capacity(num_shards + 1);
    bounds.push(0u64);
    for s in 1..num_shards {
        let idx = s * n / num_shards;
        bounds.push(if idx < n { keys[idx] } else { u64::MAX });
    }
    bounds.push(u64::MAX);
    bounds
}

/// Build one shard's rows into caller-owned buffers: the streaming entry
/// point that lets a driver hold only one shard's CSR at a time (the
/// peak-memory story of the sharded trajectory benchmarks). `bounds` comes
/// from [`plan_shard_bounds`]; the buffers are cleared and refilled.
pub fn build_shard(mesh: &AmrMesh, bounds: &[u64], s: usize, g: &mut ShardGraph) {
    let keys = mesh.sfc_keys();
    let lo = keys.partition_point(|&k| k < bounds[s]);
    let hi = keys.partition_point(|&k| k < bounds[s + 1]);
    let dim = mesh.config().dim;
    let dirs = Direction::all(dim);
    let mut row = Vec::with_capacity(32);
    build_shard_rows_parts(
        mesh.tree(),
        mesh.blocks(),
        mesh.sfc_keys(),
        dim,
        lo,
        hi,
        &dirs,
        &mut row,
        g,
    );
}

/// Fill `g` with the rows of blocks `lo..hi`, from the mesh's plain-data
/// parts. Worker tasks need this form: `AmrMesh` itself is not `Sync` (it
/// may hold a trace handle), but the tree/blocks/keys snapshot the rows are
/// a pure function of is.
#[allow(clippy::too_many_arguments)]
fn build_shard_rows_parts(
    tree: &Octree,
    blocks: &[MeshBlock],
    keys: &[u64],
    dim: Dim,
    lo: usize,
    hi: usize,
    dirs: &[Direction],
    row: &mut Vec<Neighbor>,
    g: &mut ShardGraph,
) {
    g.start = lo as u32;
    g.end = hi as u32;
    g.offsets.clear();
    g.offsets.push(0);
    g.entries.clear();
    let index = BlockIndex { blocks, keys, dim };
    for b in &blocks[lo..hi] {
        build_row(tree, &index, dirs, &b.octant, row);
        g.entries.extend_from_slice(row);
        g.offsets.push(g.entries.len() as u32);
    }
    g.rebuild_halo();
}

impl ShardedMesh {
    /// Partition `mesh` into `num_shards` contiguous SFC shards (balanced by
    /// block count at planning time) and build every shard graph on `pool`
    /// (see [`ShardedMesh::rebuild`]).
    pub fn new(mesh: &AmrMesh, num_shards: usize, pool: &WorkerPool) -> ShardedMesh {
        let bounds = plan_shard_bounds(mesh, num_shards);
        let mut sharded = ShardedMesh {
            bounds,
            starts: Vec::with_capacity(num_shards + 1),
            shards: vec![ShardGraph::default(); num_shards],
            scratch: ShardScratch {
                dirs: Direction::all(mesh.config().dim),
                ..ShardScratch::default()
            },
        };
        sharded.rebuild(mesh, pool);
        sharded
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s graph.
    #[inline]
    pub fn shard(&self, s: usize) -> &ShardGraph {
        &self.shards[s]
    }

    /// Block-index window boundaries, `len == num_shards + 1`: shard `s`
    /// owns global blocks `starts[s]..starts[s+1]`.
    #[inline]
    pub fn shard_starts(&self) -> &[u32] {
        &self.starts
    }

    /// Total blocks across all shards (== the mesh's block count).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        *self.starts.last().unwrap_or(&0) as usize
    }

    /// The shard owning global block index `g`.
    #[inline]
    pub fn shard_of(&self, g: u32) -> usize {
        debug_assert!((g as usize) < self.num_blocks());
        self.starts.partition_point(|&x| x <= g) - 1
    }

    /// The row of a global block, resolved through its owning shard —
    /// bit-identical to the same row of the global graph.
    #[inline]
    pub fn neighbors(&self, b: BlockId) -> &[Neighbor] {
        let sh = &self.shards[self.shard_of(b.0)];
        sh.neighbors_local((b.0 - sh.start) as usize)
    }

    /// Ghost blocks summed over all shards (a block neighboring `k` shards
    /// is counted `k` times — each imports its own copy).
    pub fn total_halo_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.halo.len()).sum()
    }

    /// Directed cross-shard relations summed over all shards.
    pub fn total_cross_relations(&self) -> usize {
        self.shards.iter().map(|s| s.cross as usize).sum()
    }

    /// Directed relations summed over all shards (== the global graph's
    /// `total_relations`).
    pub fn total_relations(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// Concatenate the shard rows into a global [`NeighborGraph`] — the
    /// bridge to the oracle: `flatten_into` of a fresh/refreshed
    /// `ShardedMesh` must equal [`AmrMesh::neighbor_graph`] exactly.
    pub fn flatten_into(&self, g: &mut NeighborGraph) {
        g.offsets.clear();
        g.offsets.push(0);
        g.entries.clear();
        for sh in &self.shards {
            let base = g.entries.len() as u32;
            g.entries.extend_from_slice(&sh.entries);
            for &o in &sh.offsets[1..] {
                g.offsets.push(base + o);
            }
        }
    }

    /// Recompute every shard window and rebuild every shard graph from
    /// scratch — the fallback when the mesh's stored delta cannot vouch for
    /// the shards (and the initial build). One task per shard on `pool`:
    /// shard rows are pure functions of the mesh snapshot and every task
    /// writes only its own [`ShardGraph`], so the result is bitwise
    /// identical at any thread count. Each task builds through its shard's
    /// pooled row buffer, so a warm rebuild allocates nothing.
    pub fn rebuild(&mut self, mesh: &AmrMesh, pool: &WorkerPool) {
        self.recompute_starts(mesh);
        if self.scratch.dirs.is_empty() {
            self.scratch.dirs = Direction::all(mesh.config().dim);
        }
        let ShardedMesh {
            starts,
            shards,
            scratch,
            ..
        } = self;
        scratch.rows.resize_with(shards.len(), Vec::new);
        let (dirs, rows) = (&scratch.dirs, &mut scratch.rows);
        let (tree, blocks, keys, dim) = (
            mesh.tree(),
            mesh.blocks(),
            mesh.sfc_keys(),
            mesh.config().dim,
        );
        let out = Disjoint::new(shards);
        pool.run_with(rows, |s, row| {
            // SAFETY: task `s` is the only one touching shard `s`.
            let g = unsafe { &mut out.slice(s, s + 1)[0] };
            build_shard_rows_parts(
                tree,
                blocks,
                keys,
                dim,
                starts[s] as usize,
                starts[s + 1] as usize,
                dirs,
                row,
                g,
            );
        });
    }

    fn recompute_starts(&mut self, mesh: &AmrMesh) {
        let keys = mesh.sfc_keys();
        self.starts.clear();
        for &b in &self.bounds {
            self.starts.push(keys.partition_point(|&k| k < b) as u32);
        }
        debug_assert_eq!(*self.starts.last().unwrap() as usize, keys.len());
    }

    /// Bring every shard up to date with the mesh after the most recent
    /// [`AmrMesh::adapt`]: the per-shard analogue of
    /// [`NeighborGraph::patch`]. Unaffected rows are copied with neighbor
    /// ids renumbered through the fate table; rows whose neighborhoods touch
    /// changed octants are rebuilt; each shard's halo table is refreshed.
    /// All staging goes through pooled scratch (steady state allocates
    /// nothing). Falls back to [`ShardedMesh::rebuild`] on `pool` when the
    /// stored delta cannot vouch for the current shards. The incremental
    /// path stays on the calling thread: it is a single in-order splice over
    /// the fate table (already O(changed rows)), and keeping it on one
    /// thread preserves its zero-allocation staging discipline. Returns
    /// `true` iff the incremental path ran.
    pub fn refresh(&mut self, mesh: &AmrMesh, pool: &WorkerPool) -> bool {
        if !self.delta_vouches(mesh) {
            self.rebuild(mesh, pool);
            return false;
        }
        self.refresh_incremental(mesh);
        true
    }

    /// Can the mesh's stored delta vouch for the current shards?
    fn delta_vouches(&self, mesh: &AmrMesh) -> bool {
        let d = mesh.last_delta();
        d.remap.len() == d.blocks_before
            && !d.remap.is_empty()
            && self.num_blocks() == d.blocks_before
            && mesh.num_blocks() == d.blocks_after
    }

    fn refresh_incremental(&mut self, mesh: &AmrMesh) {
        let d = mesh.last_delta();
        let n_new = d.blocks_after;
        let num_shards = self.shards.len();

        // Save the pre-adapt windows, then move the windows to the new index.
        let mut old_starts = std::mem::take(&mut self.scratch.old_starts);
        old_starts.clear();
        old_starts.extend_from_slice(&self.starts);
        self.scratch.old_starts = old_starts;
        self.recompute_starts(mesh);
        let ShardedMesh {
            starts,
            shards,
            scratch,
            ..
        } = self;

        // Phase 1: mark affected new rows — same completeness argument as
        // `NeighborGraph::patch`: a block touches a new child only if it
        // touched the refined parent, and a coarsened parent's neighbors
        // were neighbors of some child, both recorded in the old (sharded)
        // symmetric graph.
        scratch.affected.clear();
        scratch.affected.resize(n_new, false);
        let mut os = 0usize; // old-shard cursor (old ids ascend)
        for (old, fate) in d.remap.iter().enumerate() {
            while old >= scratch.old_starts[os + 1] as usize {
                os += 1;
            }
            let changed = match *fate {
                BlockFate::Same(_) => false,
                BlockFate::Refined { first, count } => {
                    scratch.affected[first.index()..first.index() + count as usize].fill(true);
                    true
                }
                BlockFate::Coarsened(new) => {
                    scratch.affected[new.index()] = true;
                    true
                }
            };
            if changed {
                let sh = &shards[os];
                let local = old - sh.start as usize;
                let r = sh.offsets[local] as usize..sh.offsets[local + 1] as usize;
                for e in &sh.entries[r] {
                    if let BlockFate::Same(new) = d.remap[e.block.index()] {
                        scratch.affected[new.index()] = true;
                    }
                }
            }
        }

        // Phase 2: walk old ids globally (new ids come out ascending) and
        // emit each shard's rows into the staging arrays; when a shard's
        // window fills, swap the staging in and refresh its halo.
        let index = BlockIndex {
            blocks: mesh.blocks(),
            keys: mesh.sfc_keys(),
            dim: mesh.config().dim,
        };
        let tree = mesh.tree();
        let blocks = mesh.blocks();
        scratch.offsets.clear();
        scratch.offsets.push(0);
        scratch.entries.clear();
        let mut emitted = 0usize;
        let mut s = 0usize;
        let finalize_full = |s: &mut usize,
                             emitted: usize,
                             shards: &mut Vec<ShardGraph>,
                             scratch: &mut ShardScratch| {
            while *s < num_shards && emitted == starts[*s + 1] as usize {
                let g = &mut shards[*s];
                g.start = starts[*s];
                g.end = starts[*s + 1];
                std::mem::swap(&mut g.offsets, &mut scratch.offsets);
                std::mem::swap(&mut g.entries, &mut scratch.entries);
                g.rebuild_halo();
                scratch.offsets.clear();
                scratch.offsets.push(0);
                scratch.entries.clear();
                *s += 1;
            }
        };
        finalize_full(&mut s, emitted, shards, scratch);
        let mut os = 0usize;
        for (old, fate) in d.remap.iter().enumerate() {
            while old >= scratch.old_starts[os + 1] as usize {
                os += 1;
            }
            match *fate {
                BlockFate::Same(new) => {
                    debug_assert_eq!(new.index(), emitted);
                    if scratch.affected[new.index()] {
                        build_row(
                            tree,
                            &index,
                            &scratch.dirs,
                            &blocks[new.index()].octant,
                            &mut scratch.row,
                        );
                        scratch.entries.extend_from_slice(&scratch.row);
                    } else {
                        // A surviving block keeps its key, so its old row
                        // lives in the shard being emitted right now.
                        debug_assert_eq!(os, s);
                        let sh = &shards[os];
                        let local = old - sh.start as usize;
                        let r = sh.offsets[local] as usize..sh.offsets[local + 1] as usize;
                        for e in &sh.entries[r.clone()] {
                            let BlockFate::Same(nb) = d.remap[e.block.index()] else {
                                unreachable!("unaffected row references a changed block");
                            };
                            scratch.entries.push(Neighbor { block: nb, ..*e });
                        }
                    }
                    scratch.offsets.push(scratch.entries.len() as u32);
                    emitted += 1;
                    finalize_full(&mut s, emitted, shards, scratch);
                }
                BlockFate::Refined { first, count } => {
                    debug_assert_eq!(first.index(), emitted);
                    for child in &blocks[first.index()..first.index() + count as usize] {
                        build_row(tree, &index, &scratch.dirs, &child.octant, &mut scratch.row);
                        scratch.entries.extend_from_slice(&scratch.row);
                        scratch.offsets.push(scratch.entries.len() as u32);
                    }
                    emitted += count as usize;
                    finalize_full(&mut s, emitted, shards, scratch);
                }
                BlockFate::Coarsened(new) => {
                    if new.index() == emitted {
                        build_row(
                            tree,
                            &index,
                            &scratch.dirs,
                            &blocks[new.index()].octant,
                            &mut scratch.row,
                        );
                        scratch.entries.extend_from_slice(&scratch.row);
                        scratch.offsets.push(scratch.entries.len() as u32);
                        emitted += 1;
                        finalize_full(&mut s, emitted, shards, scratch);
                    }
                }
            }
        }
        debug_assert_eq!(emitted, n_new);
        debug_assert_eq!(s, num_shards, "every shard finalized");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dim;
    use crate::mesh::{MeshConfig, RefineTag};
    use std::sync::OnceLock;

    /// The one-thread pool: every job runs inline on the caller.
    fn inline() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(1))
    }

    fn random_mesh_steps(dim: Dim, steps: usize, salt: u64) -> (AmrMesh, Vec<u64>) {
        let cells = match dim {
            Dim::D2 => (64, 64, 64),
            Dim::D3 => (32, 32, 32),
        };
        let mesh = AmrMesh::new(MeshConfig::from_cells(dim, cells, 2));
        let keys: Vec<u64> = (0..steps as u64).map(|k| salt.wrapping_add(k)).collect();
        (mesh, keys)
    }

    fn hash_adapt(mesh: &mut AmrMesh, key: u64) {
        mesh.adapt(|b| {
            let h = (b.id.index() as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(key);
            match h % 5 {
                0 => RefineTag::Refine,
                1 => RefineTag::Coarsen,
                _ => RefineTag::Keep,
            }
        });
    }

    fn assert_matches_oracle(sharded: &ShardedMesh, mesh: &AmrMesh) {
        let mut flat = NeighborGraph::default();
        sharded.flatten_into(&mut flat);
        let oracle = mesh.neighbor_graph();
        assert_eq!(flat, oracle);
        assert_eq!(sharded.num_blocks(), mesh.num_blocks());
        assert_eq!(sharded.total_relations(), oracle.total_relations());
        // Halo tables are consistent: sorted, deduped, strictly out-of-shard,
        // and exactly the ids referenced outside the window.
        for s in 0..sharded.num_shards() {
            let sh = sharded.shard(s);
            let r = sh.range();
            assert!(sh.halo().windows(2).all(|w| w[0] < w[1]));
            for &g in sh.halo() {
                assert!(!r.contains(&(g as usize)));
            }
            let mut cross = 0usize;
            for local in 0..sh.num_blocks() {
                for e in sh.neighbors_local(local) {
                    if !r.contains(&e.block.index()) {
                        cross += 1;
                        assert!(sh.halo_slot(e.block.0).is_some());
                    }
                }
            }
            assert_eq!(cross, sh.cross_relations());
        }
    }

    #[test]
    fn single_shard_equals_global_graph() {
        for dim in [Dim::D2, Dim::D3] {
            let (mut mesh, keys) = random_mesh_steps(dim, 3, 42);
            for k in keys {
                hash_adapt(&mut mesh, k);
            }
            let sharded = ShardedMesh::new(&mesh, 1, inline());
            assert_matches_oracle(&sharded, &mesh);
            assert_eq!(sharded.shard(0).cross_relations(), 0);
            assert!(sharded.shard(0).halo().is_empty());
        }
    }

    #[test]
    fn multi_shard_build_matches_global_graph() {
        for shards in [2usize, 3, 8, 17] {
            let (mut mesh, keys) = random_mesh_steps(Dim::D3, 2, 7);
            for k in keys {
                hash_adapt(&mut mesh, k);
            }
            let sharded = ShardedMesh::new(&mesh, shards, inline());
            assert_matches_oracle(&sharded, &mesh);
            assert!(sharded.total_cross_relations() > 0);
        }
    }

    #[test]
    fn refresh_tracks_adapt_sequence() {
        for dim in [Dim::D2, Dim::D3] {
            let (mut mesh, keys) = random_mesh_steps(dim, 5, 3);
            let mut sharded = ShardedMesh::new(&mesh, 4, inline());
            for k in keys {
                hash_adapt(&mut mesh, k);
                let incremental = sharded.refresh(&mesh, inline());
                assert!(incremental || !mesh.last_delta().changed());
                assert_matches_oracle(&sharded, &mesh);
            }
        }
    }

    #[test]
    fn refresh_falls_back_on_stale_delta() {
        let (mut mesh, _) = random_mesh_steps(Dim::D3, 0, 0);
        hash_adapt(&mut mesh, 11);
        let mut sharded = ShardedMesh::new(&mesh, 4, inline());
        // A full rebuild resets the delta to identity: refresh cannot vouch
        // for the shards and must fall back (and still be correct).
        mesh.force_full_rebuild();
        assert!(!sharded.refresh(&mesh, inline()));
        assert_matches_oracle(&sharded, &mesh);
    }

    #[test]
    fn streaming_build_matches_resident_shards() {
        let (mut mesh, keys) = random_mesh_steps(Dim::D3, 2, 19);
        for k in keys {
            hash_adapt(&mut mesh, k);
        }
        let resident = ShardedMesh::new(&mesh, 6, inline());
        let bounds = plan_shard_bounds(&mesh, 6);
        let mut g = ShardGraph::default();
        for s in 0..6 {
            build_shard(&mesh, &bounds, s, &mut g);
            assert_eq!(g.range(), resident.shard(s).range());
            assert_eq!(g.entries, resident.shard(s).entries);
            assert_eq!(g.offsets, resident.shard(s).offsets);
            assert_eq!(g.halo, resident.shard(s).halo);
        }
    }

    #[test]
    fn neighbors_resolve_through_owning_shard() {
        let (mut mesh, keys) = random_mesh_steps(Dim::D3, 2, 23);
        for k in keys {
            hash_adapt(&mut mesh, k);
        }
        let sharded = ShardedMesh::new(&mesh, 5, inline());
        let oracle = mesh.neighbor_graph();
        for b in 0..mesh.num_blocks() {
            let id = BlockId(b as u32);
            assert_eq!(sharded.neighbors(id), oracle.neighbors(id));
        }
    }

    #[test]
    fn parallel_rebuild_is_bitwise_identical_to_serial() {
        // Construction, incremental refreshes and the full-rebuild fallback
        // on pools of 1, 2 and 3 threads all produce the same shards.
        let run = |pool: &WorkerPool| -> Vec<ShardedMesh> {
            let (mut mesh, keys) = random_mesh_steps(Dim::D3, 3, 29);
            let mut sharded: Option<ShardedMesh> = None;
            let mut snapshots = Vec::new();
            for (i, k) in keys.iter().enumerate() {
                hash_adapt(&mut mesh, *k);
                match sharded.as_mut() {
                    None => sharded = Some(ShardedMesh::new(&mesh, 6, pool)),
                    Some(sm) => {
                        sm.refresh(&mesh, pool);
                        if i == 2 {
                            mesh.force_full_rebuild();
                            assert!(!sm.refresh(&mesh, pool), "stale delta must rebuild");
                        }
                    }
                }
                let sm = sharded.as_ref().unwrap();
                assert_matches_oracle(sm, &mesh);
                snapshots.push(sm.clone());
            }
            snapshots
        };
        let one = run(&WorkerPool::new(1));
        for threads in [2usize, 3] {
            let pooled = run(&WorkerPool::new(threads));
            for (s, p) in one.iter().zip(&pooled) {
                assert_eq!(s.shard_starts(), p.shard_starts());
                for sh in 0..s.num_shards() {
                    assert_eq!(s.shard(sh).entries, p.shard(sh).entries);
                    assert_eq!(s.shard(sh).offsets, p.shard(sh).offsets);
                    assert_eq!(s.shard(sh).halo, p.shard(sh).halo);
                    assert_eq!(s.shard(sh).cross, p.shard(sh).cross);
                }
            }
        }
    }

    #[test]
    fn more_shards_than_blocks_degenerates_gracefully() {
        let mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (32, 32, 1), 1));
        let n = mesh.num_blocks();
        let mut sharded = ShardedMesh::new(&mesh, n * 2, inline());
        assert_matches_oracle(&sharded, &mesh);
        let mut mesh = mesh;
        hash_adapt(&mut mesh, 5);
        sharded.refresh(&mesh, inline());
        assert_matches_oracle(&sharded, &mesh);
    }
}
