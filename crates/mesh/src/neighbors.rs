//! Neighbor topology: which blocks exchange boundary data with which.
//!
//! Each block communicates with up to 26 neighbors in 3D — faces, edges and
//! vertices (§II-B). Under 2:1 balance a neighbor is at most one refinement
//! level away; a coarse block can face up to four fine blocks across one
//! face. The neighbor graph drives both boundary-exchange simulation and the
//! locality accounting of placement policies.
//!
//! ## Storage and construction
//!
//! The graph is stored in CSR (compressed sparse row) form: one packed
//! [`Neighbor`] array plus per-block offsets. This keeps every adjacency
//! query a slice borrow, every full-graph sweep a linear scan over one
//! contiguous allocation, and (because rows are sorted by block id) reverse
//! edges a binary search — the flat, pointer-free adjacency that lets
//! extreme-scale BAMR frameworks traverse neighborhoods at memory bandwidth.
//!
//! Construction does not hash: leaves arrive in SFC (ascending Morton key)
//! order, so coverage classification of a candidate cell is one binary
//! search over the leaf key array. Large meshes build rows on a
//! [`WorkerPool`] over contiguous leaf chunks and concatenate the per-chunk
//! rows into the CSR arrays.

use crate::block::{BlockId, MeshBlock};
use crate::geom::Dim;
use crate::mesh::{BlockFate, RefinementDelta};
use crate::octant::{Direction, Octant};
use crate::pool::WorkerPool;
use crate::sfc::sfc_key;
use crate::tree::{Coverage, Octree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Classification of a shared boundary surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NeighborKind {
    /// Codimension-1 contact (largest messages).
    Face,
    /// Codimension-2 contact.
    Edge,
    /// Codimension-3 contact (smallest messages).
    Vertex,
}

impl NeighborKind {
    /// Map a direction's codimension to a kind, given the mesh dimension.
    ///
    /// In 2D, codim-1 contact is an edge of the square but plays the "face"
    /// role (largest message), and codim-2 is the corner/vertex.
    #[inline]
    pub fn from_codim(codim: u8) -> NeighborKind {
        match codim {
            1 => NeighborKind::Face,
            2 => NeighborKind::Edge,
            3 => NeighborKind::Vertex,
            _ => unreachable!("codim must be 1..=3"),
        }
    }

    /// Codimension of the contact (1, 2 or 3).
    #[inline]
    pub fn codim(self) -> u8 {
        match self {
            NeighborKind::Face => 1,
            NeighborKind::Edge => 2,
            NeighborKind::Vertex => 3,
        }
    }
}

/// One directed neighbor relation: the owning block sends a ghost-zone
/// message to `block` across a `kind` surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The neighboring block.
    pub block: BlockId,
    /// Surface classification (sets the message size).
    pub kind: NeighborKind,
    /// `neighbor.level - self.level` ∈ {-1, 0, +1} under 2:1 balance.
    pub level_delta: i8,
}

/// Meshes at or above this leaf count build their rows on multiple threads.
const PARALLEL_BUILD_MIN_LEAVES: usize = 8192;

/// The full neighbor graph of a mesh snapshot in CSR form: the neighbors of
/// the block with `BlockId(i)` are `entries[offsets[i]..offsets[i+1]]`,
/// sorted by neighbor block id. Relations are symmetric as sets of block
/// pairs (kinds match; level deltas are negated).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NeighborGraph {
    /// Row boundaries; `offsets.len() == num_blocks + 1` (empty graph: `[0]`
    /// or empty).
    pub(crate) offsets: Vec<u32>,
    /// Packed neighbor entries, rows sorted by `block`.
    pub(crate) entries: Vec<Neighbor>,
}

/// Where a same-level candidate cell sits relative to the (SFC-sorted) leaf
/// array — the binary-search replacement for `Octree::coverage` plus the
/// `HashMap<Octant, BlockId>` id lookup.
pub(crate) enum Cover {
    /// The cell is leaf number `i` (same level).
    Leaf(u32),
    /// The cell is interior to coarser leaf number `i`.
    CoveredBy(u32),
    /// The cell is subdivided into finer leaves.
    Subdivided,
}

/// Binary-search cover classification over a strictly ascending SFC key
/// array — the shared core of the leaf-slice builder ([`LeafIndex`]) and the
/// block-array patcher ([`BlockIndex`]).
pub(crate) trait CoverIndex {
    fn keys(&self) -> &[u64];
    fn octant(&self, i: u32) -> Octant;
    fn dim(&self) -> Dim;

    /// Classify an in-lattice cell. Correctness of the `Err` arm: leaves
    /// tile the domain, so if `cell`'s key is absent the leaf with the
    /// greatest smaller key is the (unique) coarser leaf whose key range
    /// contains it; if the key is present at a coarser level, that leaf's
    /// lower corner coincides with `cell`'s, making it an ancestor.
    #[inline]
    fn classify(&self, cell: &Octant) -> Cover {
        match self.keys().binary_search(&sfc_key(cell, self.dim())) {
            Ok(i) => {
                let found = self.octant(i as u32).level;
                if found == cell.level {
                    Cover::Leaf(i as u32)
                } else if found < cell.level {
                    Cover::CoveredBy(i as u32)
                } else {
                    Cover::Subdivided
                }
            }
            Err(pos) => {
                debug_assert!(pos > 0, "in-lattice cell below every leaf key");
                let i = (pos - 1) as u32;
                debug_assert!(
                    cell.level > self.octant(i).level
                        && cell.ancestor_at(self.octant(i).level) == self.octant(i),
                    "Err(pos) must land inside a coarser covering leaf"
                );
                Cover::CoveredBy(i)
            }
        }
    }
}

/// Sorted Morton-key index over the leaf array (keys computed on build).
struct LeafIndex<'a> {
    leaves: &'a [Octant],
    keys: Vec<u64>,
    dim: Dim,
}

impl<'a> LeafIndex<'a> {
    fn new(leaves: &'a [Octant], dim: Dim) -> LeafIndex<'a> {
        let keys: Vec<u64> = leaves.iter().map(|o| sfc_key(o, dim)).collect();
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "leaves must arrive in strict SFC order"
        );
        LeafIndex { leaves, keys, dim }
    }
}

impl CoverIndex for LeafIndex<'_> {
    #[inline]
    fn keys(&self) -> &[u64] {
        &self.keys
    }
    #[inline]
    fn octant(&self, i: u32) -> Octant {
        self.leaves[i as usize]
    }
    #[inline]
    fn dim(&self) -> Dim {
        self.dim
    }
}

/// Cover index borrowing a mesh's maintained block array and key array
/// (no per-call key computation) — the patch path's (and the sharded
/// builder's) view of the mesh.
pub(crate) struct BlockIndex<'a> {
    pub(crate) blocks: &'a [MeshBlock],
    pub(crate) keys: &'a [u64],
    pub(crate) dim: Dim,
}

impl CoverIndex for BlockIndex<'_> {
    #[inline]
    fn keys(&self) -> &[u64] {
        self.keys
    }
    #[inline]
    fn octant(&self, i: u32) -> Octant {
        self.blocks[i as usize].octant
    }
    #[inline]
    fn dim(&self) -> Dim {
        self.dim
    }
}

/// Pooled scratch for [`NeighborGraph::patch`]: the staging CSR arrays swap
/// with the graph's own on every patch, so after the first call both sides
/// run allocation-free at steady state.
#[derive(Debug, Clone, Default)]
pub struct PatchScratch {
    /// Per-new-block flag: row must be rebuilt (vs copied + renumbered).
    affected: Vec<bool>,
    offsets: Vec<u32>,
    entries: Vec<Neighbor>,
    row: Vec<Neighbor>,
}

impl NeighborGraph {
    /// Build the neighbor graph for all leaves of `tree`, with `leaves`
    /// given in SFC order (defining the `BlockId` of each leaf), on `pool`.
    ///
    /// The input size sets the chunk count. Below
    /// `PARALLEL_BUILD_MIN_LEAVES` leaves, or on a one-thread pool, the rows
    /// are built as one chunk straight into the CSR arrays. Larger meshes
    /// split into `4 × threads` contiguous leaf chunks (more chunks than
    /// threads, so the task-pulling pool smooths residual imbalance); each
    /// task builds one chunk's rows and the chunks concatenate. Rows are pure
    /// functions of the tree, so the output is independent of chunking and
    /// thread count.
    ///
    /// Chunks are balanced by *estimated relation count*, not leaf count:
    /// a leaf adjacent to a refinement-level transition fans out to more
    /// neighbors (up to 4 fine blocks per face in 3D), so equal-leaf chunks
    /// skew badly on deeply refined meshes. A cheap O(n) pre-pass weights
    /// each leaf by its SFC-adjacent level deltas as a proxy for transitions.
    pub fn build(tree: &Octree, leaves: &[Octant], pool: &WorkerPool) -> NeighborGraph {
        let n = leaves.len();
        let index = LeafIndex::new(leaves, tree.dim());
        let dirs = Direction::all(tree.dim());
        // Rows of one chunk, appended with chunk-local offsets.
        let build_chunk =
            |chunk: &[Octant], offsets: &mut Vec<u32>, entries: &mut Vec<Neighbor>| {
                let mut row: Vec<Neighbor> = Vec::with_capacity(32);
                for leaf in chunk {
                    build_row(tree, &index, &dirs, leaf, &mut row);
                    entries.extend_from_slice(&row);
                    offsets.push(entries.len() as u32);
                }
            };
        if n < PARALLEL_BUILD_MIN_LEAVES || pool.threads() == 1 {
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0u32);
            let mut entries = Vec::with_capacity(n * dirs.len());
            build_chunk(leaves, &mut offsets, &mut entries);
            return NeighborGraph { offsets, entries };
        }

        // Base weight ~= face count; transition bonus ~= extra fine
        // neighbors per level jump seen along the curve.
        let (base_w, jump_w) = if tree.dim() == Dim::D3 {
            (8u64, 4u64)
        } else {
            (4u64, 2u64)
        };
        let weight = |i: usize| -> u64 {
            let l = leaves[i].level as i64;
            let before = if i > 0 {
                (leaves[i - 1].level as i64 - l).unsigned_abs()
            } else {
                0
            };
            let after = if i + 1 < n {
                (leaves[i + 1].level as i64 - l).unsigned_abs()
            } else {
                0
            };
            base_w + jump_w * (before + after)
        };
        let total_weight: u64 = (0..n).map(weight).sum();
        let chunks = (pool.threads() * 4).min(n);
        let per_chunk = total_weight.div_ceil(chunks as u64).max(1);
        let mut bounds = Vec::with_capacity(chunks + 1);
        bounds.push(0usize);
        let mut acc = 0u64;
        for i in 0..n {
            acc += weight(i);
            if acc >= per_chunk * bounds.len() as u64 && i + 1 < n {
                bounds.push(i + 1);
            }
        }
        bounds.push(n);

        let mut parts: Vec<(Vec<u32>, Vec<Neighbor>)> = bounds
            .windows(2)
            .map(|w| {
                (
                    Vec::with_capacity(w[1] - w[0]),
                    Vec::with_capacity((w[1] - w[0]) * dirs.len()),
                )
            })
            .collect();
        pool.run_with(&mut parts, |t, (offsets, entries)| {
            build_chunk(&leaves[bounds[t]..bounds[t + 1]], offsets, entries)
        });

        let total: usize = parts.iter().map(|(_, e)| e.len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut entries = Vec::with_capacity(total);
        for (part_offsets, part_entries) in parts {
            let base = entries.len() as u32;
            offsets.extend(part_offsets.iter().map(|&o| base + o));
            entries.extend_from_slice(&part_entries);
        }
        NeighborGraph { offsets, entries }
    }

    /// Reference builder: the original hash-based algorithm
    /// (`HashMap<Octant, BlockId>` id lookup, per-leaf `HashMap` dedup,
    /// `Octree::coverage` classification). Kept as the oracle for the
    /// CSR/legacy equivalence property tests and for before/after
    /// benchmarking; production code paths use [`NeighborGraph::build`].
    pub fn build_legacy(tree: &Octree, leaves: &[Octant]) -> NeighborGraph {
        let dim = tree.dim();
        let id_of: HashMap<Octant, BlockId> = leaves
            .iter()
            .enumerate()
            .map(|(i, o)| (*o, BlockId(i as u32)))
            .collect();
        let dirs = Direction::all(dim);
        let mut offsets = Vec::with_capacity(leaves.len() + 1);
        offsets.push(0u32);
        let mut entries = Vec::new();
        for leaf in leaves {
            let mut seen: HashMap<BlockId, Neighbor> = HashMap::new();
            for dir in &dirs {
                let Some(nb_cell) = tree.lattice_neighbor(leaf, *dir) else {
                    continue;
                };
                let kind = NeighborKind::from_codim(dir.codim());
                match tree.coverage(&nb_cell) {
                    Coverage::Leaf => {
                        let id = id_of[&nb_cell];
                        seen.entry(id).or_insert(Neighbor {
                            block: id,
                            kind,
                            level_delta: 0,
                        });
                    }
                    Coverage::CoveredBy(coarse) => {
                        let id = id_of[&coarse];
                        let delta = coarse.level as i8 - leaf.level as i8;
                        seen.entry(id).or_insert(Neighbor {
                            block: id,
                            kind,
                            level_delta: delta,
                        });
                    }
                    Coverage::Subdivided => {
                        for fine in touching_descendant_leaves(tree, &nb_cell, *dir) {
                            let id = id_of[&fine];
                            let delta = fine.level as i8 - leaf.level as i8;
                            seen.entry(id).or_insert(Neighbor {
                                block: id,
                                kind,
                                level_delta: delta,
                            });
                        }
                    }
                    Coverage::Outside => {}
                }
            }
            let mut list: Vec<Neighbor> = seen.into_values().collect();
            list.sort_by_key(|n| n.block);
            entries.extend_from_slice(&list);
            offsets.push(entries.len() as u32);
        }
        NeighborGraph { offsets, entries }
    }

    /// Number of blocks in the graph.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Neighbors of a block, sorted by neighbor block id.
    #[inline]
    pub fn neighbors(&self, b: BlockId) -> &[Neighbor] {
        let i = b.index();
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate over `(block, neighbors)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &[Neighbor])> {
        self.offsets.windows(2).enumerate().map(|(i, w)| {
            (
                BlockId(i as u32),
                &self.entries[w[0] as usize..w[1] as usize],
            )
        })
    }

    /// Total number of directed neighbor relations (messages per exchange
    /// round, before placement-dependent local/remote classification).
    #[inline]
    pub fn total_relations(&self) -> usize {
        self.entries.len()
    }

    /// Index into the flat relation space (`0..total_relations()`) where
    /// block `i`'s row begins. Rows are contiguous and sorted by block id,
    /// so `row_start(i)..row_start(i + 1)` addresses exactly the entries
    /// returned by [`neighbors`](NeighborGraph::neighbors) — this is how
    /// entry-parallel side tables (observed-traffic ledgers, partitioner
    /// edge weights) line up with the CSR without touching its internals.
    /// `i == num_blocks()` is allowed and returns `total_relations()`.
    #[inline]
    pub fn row_start(&self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    /// Verify symmetry: if `a` lists `b`, then `b` lists `a` with the same
    /// kind and negated level delta. Returns a description of the first
    /// violation found. Rows are sorted by block id, so each back-edge
    /// lookup is a binary search — O(E log deg) overall, not O(E · deg).
    pub fn check_symmetry(&self) -> Result<(), String> {
        for (a, nbs) in self.iter() {
            for n in nbs {
                let row = self.neighbors(n.block);
                match row.binary_search_by_key(&a, |m| m.block) {
                    Err(_) => return Err(format!("{} lists {} but not vice versa", a, n.block)),
                    Ok(j) => {
                        let m = &row[j];
                        if m.kind != n.kind || m.level_delta != -n.level_delta {
                            return Err(format!(
                                "asymmetric relation {}<->{}: {:?} vs {:?}",
                                a, n.block, n, m
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Repair `self` — the graph of the *pre-adapt* mesh — into the graph of
    /// the post-adapt mesh described by (`tree`, `blocks`, `keys`, `delta`),
    /// rebuilding only the rows whose neighborhoods touch changed octants.
    ///
    /// Affected rows are (a) every new block inside a changed region and
    /// (b) the surviving old neighbors of every changed old block. That set
    /// is complete: a block touches a new child only if it touches the
    /// parent's region (so it was a neighbor of the refined parent), and a
    /// coarsened parent occupies exactly its children's union (so its
    /// neighbors were neighbors of some child) — both already recorded in
    /// the old symmetric graph. Every other row is byte-copied with its
    /// neighbor ids renumbered through the fate table, which preserves the
    /// per-row sort because the surviving-block renumbering is monotonic.
    ///
    /// Cost: O(blocks + copied entries) memcpy plus full row builds only for
    /// the O(changed × degree) affected set. The staging arrays in `scratch`
    /// swap with the graph's own, so steady-state patching allocates
    /// nothing. [`NeighborGraph::build`] is the oracle; callers unsure the
    /// graph matches `delta.blocks_before` should use
    /// `AmrMesh::patch_neighbor_graph`, which falls back to it.
    pub fn patch(
        &mut self,
        tree: &Octree,
        blocks: &[MeshBlock],
        keys: &[u64],
        delta: &RefinementDelta,
        scratch: &mut PatchScratch,
    ) {
        assert_eq!(
            self.num_blocks(),
            delta.blocks_before,
            "patch: graph does not match the pre-adapt mesh"
        );
        assert_eq!(delta.remap.len(), delta.blocks_before, "patch: stale delta");
        assert_eq!(blocks.len(), delta.blocks_after, "patch: stale block array");
        let n_new = blocks.len();
        let index = BlockIndex {
            blocks,
            keys,
            dim: tree.dim(),
        };
        let dirs = Direction::all(tree.dim());

        // Phase 1: mark affected new rows.
        scratch.affected.clear();
        scratch.affected.resize(n_new, false);
        for (old, fate) in delta.remap.iter().enumerate() {
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
                let r = self.offsets[old] as usize..self.offsets[old + 1] as usize;
                for e in &self.entries[r] {
                    if let BlockFate::Same(new) = delta.remap[e.block.index()] {
                        scratch.affected[new.index()] = true;
                    }
                }
            }
        }

        // Phase 2: emit the new CSR arrays into the staging buffers, walking
        // old ids; the fate table yields new ids in ascending order.
        scratch.offsets.clear();
        scratch.offsets.push(0);
        scratch.entries.clear();
        let mut emitted = 0usize;
        for (old, fate) in delta.remap.iter().enumerate() {
            match *fate {
                BlockFate::Same(new) => {
                    debug_assert_eq!(new.index(), emitted);
                    if scratch.affected[new.index()] {
                        build_row(
                            tree,
                            &index,
                            &dirs,
                            &blocks[new.index()].octant,
                            &mut scratch.row,
                        );
                        scratch.entries.extend_from_slice(&scratch.row);
                    } else {
                        let r = self.offsets[old] as usize..self.offsets[old + 1] as usize;
                        for e in &self.entries[r] {
                            let BlockFate::Same(nb) = delta.remap[e.block.index()] else {
                                unreachable!("unaffected row references a changed block");
                            };
                            scratch.entries.push(Neighbor { block: nb, ..*e });
                        }
                    }
                    scratch.offsets.push(scratch.entries.len() as u32);
                    emitted += 1;
                }
                BlockFate::Refined { first, count } => {
                    debug_assert_eq!(first.index(), emitted);
                    for child in &blocks[first.index()..first.index() + count as usize] {
                        build_row(tree, &index, &dirs, &child.octant, &mut scratch.row);
                        scratch.entries.extend_from_slice(&scratch.row);
                        scratch.offsets.push(scratch.entries.len() as u32);
                    }
                    emitted += count as usize;
                }
                BlockFate::Coarsened(new) => {
                    // Only the first sibling emits the parent's row.
                    if new.index() == emitted {
                        build_row(
                            tree,
                            &index,
                            &dirs,
                            &blocks[new.index()].octant,
                            &mut scratch.row,
                        );
                        scratch.entries.extend_from_slice(&scratch.row);
                        scratch.offsets.push(scratch.entries.len() as u32);
                        emitted += 1;
                    }
                }
            }
        }
        debug_assert_eq!(emitted, n_new);

        // Phase 3: swap the staging arrays in; the displaced arrays become
        // the next patch's staging storage.
        std::mem::swap(&mut self.offsets, &mut scratch.offsets);
        std::mem::swap(&mut self.entries, &mut scratch.entries);
    }
}

/// Assemble one block's neighbor row into `row` (cleared first): probe all
/// directions, then sort by block id and keep the first entry per block —
/// directions are enumerated faces-first, so ties resolve to the lowest
/// codimension (largest message), matching the legacy builder's
/// first-insertion-wins dedup.
pub(crate) fn build_row<I: CoverIndex>(
    tree: &Octree,
    index: &I,
    dirs: &[Direction],
    leaf: &Octant,
    row: &mut Vec<Neighbor>,
) {
    row.clear();
    for dir in dirs {
        let Some(nb_cell) = tree.lattice_neighbor(leaf, *dir) else {
            continue;
        };
        let kind = NeighborKind::from_codim(dir.codim());
        match index.classify(&nb_cell) {
            Cover::Leaf(i) => row.push(Neighbor {
                block: BlockId(i),
                kind,
                level_delta: 0,
            }),
            Cover::CoveredBy(i) => row.push(Neighbor {
                block: BlockId(i),
                kind,
                level_delta: index.octant(i).level as i8 - leaf.level as i8,
            }),
            Cover::Subdivided => {
                collect_touching_fine(index, &nb_cell, *dir, kind, leaf.level, row)
            }
        }
    }
    row.sort_by_key(|n| n.block); // stable: keeps the lowest-codim duplicate first
    row.dedup_by_key(|n| n.block); // dedup_by_key keeps the first of each run
}

/// Push the fine leaves inside subdivided `cell` that touch the boundary
/// shared with the cell the direction came from (the near side w.r.t.
/// `dir`). Under corner-inclusive 2:1 balance these are direct children,
/// but the recursion mirrors the legacy builder for defense in depth.
fn collect_touching_fine<I: CoverIndex>(
    index: &I,
    cell: &Octant,
    dir: Direction,
    kind: NeighborKind,
    base_level: u8,
    row: &mut Vec<Neighbor>,
) {
    let l = cell.level + 1;
    let (bx, by, bz) = (cell.x << 1, cell.y << 1, cell.z << 1);
    let zrange: u32 = match index.dim() {
        Dim::D2 => 1,
        Dim::D3 => 2,
    };
    for cz in 0..zrange {
        if dir.dz != 0 && (dir.dz > 0) != (cz == 0) {
            continue;
        }
        for cy in 0..2u32 {
            if dir.dy != 0 && (dir.dy > 0) != (cy == 0) {
                continue;
            }
            for cx in 0..2u32 {
                if dir.dx != 0 && (dir.dx > 0) != (cx == 0) {
                    continue;
                }
                let child = Octant::new(l, bx + cx, by + cy, bz + cz);
                match index.classify(&child) {
                    Cover::Leaf(i) => row.push(Neighbor {
                        block: BlockId(i),
                        kind,
                        level_delta: index.octant(i).level as i8 - base_level as i8,
                    }),
                    Cover::Subdivided => {
                        collect_touching_fine(index, &child, dir, kind, base_level, row)
                    }
                    Cover::CoveredBy(_) => {}
                }
            }
        }
    }
}

/// Leaves that are descendants of `cell` and touch the boundary shared with
/// the cell the direction came from (i.e. on the near side w.r.t. `dir`).
/// Used by the legacy reference builder only.
fn touching_descendant_leaves(tree: &Octree, cell: &Octant, dir: Direction) -> Vec<Octant> {
    let mut out = Vec::new();
    collect(tree, cell, dir, &mut out);
    fn collect(tree: &Octree, cell: &Octant, dir: Direction, out: &mut Vec<Octant>) {
        match tree.coverage(cell) {
            Coverage::Leaf => out.push(*cell),
            Coverage::Subdivided => {
                for child in cell.children(tree.dim()) {
                    let near_x = dir.dx == 0 || (dir.dx > 0) == (child.x & 1 == 0);
                    let near_y = dir.dy == 0 || (dir.dy > 0) == (child.y & 1 == 0);
                    let near_z = dir.dz == 0 || (dir.dz > 0) == (child.z & 1 == 0);
                    if near_x && near_y && near_z {
                        collect(tree, &child, dir, out);
                    }
                }
            }
            Coverage::CoveredBy(_) | Coverage::Outside => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dim;
    use crate::mesh::{AmrMesh, MeshConfig, RefineTag};
    use crate::tree::Octree;

    fn build(tree: &Octree, leaves: &[Octant]) -> NeighborGraph {
        NeighborGraph::build(tree, leaves, &WorkerPool::new(1))
    }

    fn graph_of(tree: &Octree) -> NeighborGraph {
        let leaves = tree.leaves_sorted();
        build(tree, &leaves)
    }

    #[test]
    fn uniform_3d_interior_block_has_26_neighbors() {
        let tree = Octree::uniform_roots(Dim::D3, (4, 4, 4));
        let leaves = tree.leaves_sorted();
        let g = build(&tree, &leaves);
        g.check_symmetry().unwrap();
        // Find an interior leaf (coordinates 1..3 on each axis).
        let (idx, _) = leaves
            .iter()
            .enumerate()
            .find(|(_, o)| (1..3).contains(&o.x) && (1..3).contains(&o.y) && (1..3).contains(&o.z))
            .unwrap();
        assert_eq!(g.neighbors(BlockId(idx as u32)).len(), 26);
    }

    #[test]
    fn uniform_3d_corner_block_has_7_neighbors() {
        let tree = Octree::uniform_roots(Dim::D3, (4, 4, 4));
        let leaves = tree.leaves_sorted();
        let g = build(&tree, &leaves);
        let (idx, _) = leaves
            .iter()
            .enumerate()
            .find(|(_, o)| o.x == 0 && o.y == 0 && o.z == 0)
            .unwrap();
        assert_eq!(g.neighbors(BlockId(idx as u32)).len(), 7);
    }

    #[test]
    fn uniform_2d_interior_block_has_8_neighbors() {
        let tree = Octree::uniform_roots(Dim::D2, (4, 4, 1));
        let leaves = tree.leaves_sorted();
        let g = build(&tree, &leaves);
        let (idx, _) = leaves
            .iter()
            .enumerate()
            .find(|(_, o)| o.x == 1 && o.y == 1)
            .unwrap();
        assert_eq!(g.neighbors(BlockId(idx as u32)).len(), 8);
    }

    #[test]
    fn neighbor_kinds_counted_for_interior_block() {
        let tree = Octree::uniform_roots(Dim::D3, (3, 3, 3));
        let leaves = tree.leaves_sorted();
        let g = build(&tree, &leaves);
        let (idx, _) = leaves
            .iter()
            .enumerate()
            .find(|(_, o)| o.x == 1 && o.y == 1 && o.z == 1)
            .unwrap();
        let nbs = g.neighbors(BlockId(idx as u32));
        let faces = nbs.iter().filter(|n| n.kind == NeighborKind::Face).count();
        let edges = nbs.iter().filter(|n| n.kind == NeighborKind::Edge).count();
        let verts = nbs
            .iter()
            .filter(|n| n.kind == NeighborKind::Vertex)
            .count();
        assert_eq!((faces, edges, verts), (6, 12, 8));
    }

    #[test]
    fn refined_mesh_graph_is_symmetric_with_level_deltas() {
        let mut tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        tree.refine(&Octant::new(0, 0, 0, 0));
        tree.check_invariants().unwrap();
        let leaves = tree.leaves_sorted();
        let g = build(&tree, &leaves);
        g.check_symmetry().unwrap();
        // Some fine leaf must list a coarse neighbor (delta = -1): the
        // refined root's children on the +x/+y/+z sides touch level-0 roots.
        let has_coarse = leaves
            .iter()
            .enumerate()
            .filter(|(_, o)| o.level == 1)
            .any(|(i, _)| {
                g.neighbors(BlockId(i as u32))
                    .iter()
                    .any(|n| n.level_delta == -1)
            });
        assert!(has_coarse);
    }

    #[test]
    fn coarse_block_sees_four_fine_face_neighbors() {
        // Refine root (0,0,0); root (1,0,0)'s -x face now touches 4 fine leaves.
        let mut tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        tree.refine(&Octant::new(0, 0, 0, 0));
        let leaves = tree.leaves_sorted();
        let g = build(&tree, &leaves);
        let coarse_idx = leaves
            .iter()
            .position(|o| o.level == 0 && o.x == 1 && o.y == 0 && o.z == 0)
            .unwrap();
        let fine_face_nbs = g
            .neighbors(BlockId(coarse_idx as u32))
            .iter()
            .filter(|n| n.kind == NeighborKind::Face && n.level_delta == 1)
            .count();
        assert_eq!(fine_face_nbs, 4);
    }

    #[test]
    fn total_relations_even() {
        let mut tree = Octree::uniform_roots(Dim::D3, (2, 2, 2));
        tree.refine(&Octant::new(0, 1, 1, 0));
        let g = graph_of(&tree);
        // Directed relations pair up.
        assert_eq!(g.total_relations() % 2, 0);
    }

    #[test]
    fn csr_matches_legacy_on_refined_trees() {
        for dim in [Dim::D2, Dim::D3] {
            let mut tree = Octree::uniform_roots(dim, (2, 2, 2));
            tree.refine(&Octant::new(0, 0, 0, 0));
            tree.refine(&Octant::new(0, 1, 1, 0));
            let leaves = tree.leaves_sorted();
            let csr = build(&tree, &leaves);
            let legacy = NeighborGraph::build_legacy(&tree, &leaves);
            assert_eq!(csr, legacy, "dim {dim:?}");
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        // Both trees are past PARALLEL_BUILD_MIN_LEAVES, so pools above one
        // thread really split the rows into chunks, and level transitions
        // land inside chunk interiors and at chunk boundaries alike.
        // 3D: 24x24x16 roots plus a few refined octants.
        let mut tree_3d = Octree::uniform_roots(Dim::D3, (24, 24, 16));
        for &(x, y, z) in &[(1, 1, 1), (2, 2, 2), (7, 3, 9), (12, 20, 5), (23, 23, 15)] {
            tree_3d.refine(&Octant::new(0, x, y, z));
        }
        // 2D: 24x24 roots refined twice (9216 blocks), then two hash-salted
        // refine/coarsen rounds scatter level 1..4 transitions along the
        // curve.
        let mut mesh_2d = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (384, 384, 16), 4));
        for round in 0..4u64 {
            mesh_2d.adapt(|b| {
                if round < 2 {
                    return RefineTag::Refine;
                }
                let h = (b.id.index() as u64 ^ round).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
                match h % 5 {
                    0 => RefineTag::Refine,
                    1 => RefineTag::Coarsen,
                    _ => RefineTag::Keep,
                }
            });
        }
        for tree in [&tree_3d, mesh_2d.tree()] {
            let leaves = tree.leaves_sorted();
            assert!(leaves.len() >= PARALLEL_BUILD_MIN_LEAVES);
            let (lo, hi) = leaves.iter().fold((u8::MAX, 0), |(lo, hi), o| {
                (lo.min(o.level), hi.max(o.level))
            });
            assert!(hi > lo, "{:?} tree has no level transitions", tree.dim());
            let one_chunk = build(tree, &leaves);
            one_chunk.check_symmetry().unwrap();
            for threads in [2, 3] {
                let chunked = NeighborGraph::build(tree, &leaves, &WorkerPool::new(threads));
                assert_eq!(chunked, one_chunk, "{:?} threads = {threads}", tree.dim());
            }
        }
    }

    #[test]
    fn periodic_wrap_handled_by_csr_builder() {
        let mut tree = Octree::uniform_roots_periodic(Dim::D3, (2, 2, 2));
        tree.refine(&Octant::new(0, 0, 0, 0));
        let leaves = tree.leaves_sorted();
        let csr = build(&tree, &leaves);
        let legacy = NeighborGraph::build_legacy(&tree, &leaves);
        assert_eq!(csr, legacy);
        csr.check_symmetry().unwrap();
    }

    #[test]
    fn empty_and_single_leaf_graphs() {
        let g = NeighborGraph::default();
        assert_eq!(g.num_blocks(), 0);
        assert_eq!(g.total_relations(), 0);
        let tree = Octree::uniform_roots(Dim::D3, (1, 1, 1));
        let g = graph_of(&tree);
        assert_eq!(g.num_blocks(), 1);
        assert_eq!(g.neighbors(BlockId(0)), &[]);
    }
}
