//! `AmrMesh`: the top-level mesh API tying together tree, blocks, SFC
//! ordering and neighbor topology.
//!
//! This is the interface the rest of the workspace consumes: workloads tag
//! blocks for (de)refinement, the mesh adapts while keeping 2:1 balance,
//! block IDs are re-assigned in SFC order (exactly the redistribution
//! pipeline of §V-A: *assign block IDs via Z-order SFC → compute placement →
//! migrate*), and placement policies read the SFC-ordered cost vector plus
//! the neighbor graph.
//!
//! ## Incremental remeshing
//!
//! A real AMR step changes only a few percent of blocks near the front, so
//! [`AmrMesh::adapt`] is O(changed blocks), not O(mesh): block IDs live in a
//! Morton-sorted array where every refine/coarsen edits a contiguous span
//! (children are consecutive on the curve), so the post-adapt index is a
//! single merge walk that copies surviving blocks and splices changed spans.
//! The walk also fills [`RefinementDelta::remap`] — the old→new [`BlockId`]
//! fate of every pre-adapt block — which downstream consumers use to patch
//! the neighbor graph ([`NeighborGraph::patch`]) and remap placement state
//! instead of rebuilding from scratch.

use crate::block::{BlockId, BlockSpec, MeshBlock};
use crate::geom::{Aabb, Dim};
use crate::neighbors::{NeighborGraph, PatchScratch};
use crate::octant::Octant;
use crate::sfc::sfc_key;
use crate::tree::{Coverage, Octree, NORM_LEVEL};
use amr_telemetry::trace::{Counter as TraceCounter, TraceHandle, TracePhase};
use serde::{Deserialize, Serialize};

/// Static configuration of an AMR mesh.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeshConfig {
    pub dim: Dim,
    /// Root grid (initial blocks per axis). One initial block per root.
    pub roots: (u32, u32, u32),
    /// Physical domain covered by the root grid.
    pub domain: Aabb,
    /// Per-block cell counts / ghost width / variables.
    pub spec: BlockSpec,
    /// Maximum refinement level (relative to the roots).
    pub max_level: u8,
    /// Periodic domain boundaries (opposite faces are neighbors).
    pub periodic: bool,
}

impl MeshConfig {
    /// Config for the paper's Sedov setups: `mesh_cells` total cells per axis
    /// with `16³` blocks gives `mesh_cells/16` roots per axis (Table I).
    pub fn from_cells(dim: Dim, mesh_cells: (u32, u32, u32), max_level: u8) -> MeshConfig {
        let spec = BlockSpec::default();
        let b = spec.cells_per_axis;
        assert!(
            mesh_cells.0.is_multiple_of(b)
                && mesh_cells.1.is_multiple_of(b)
                && (dim == Dim::D2 || mesh_cells.2.is_multiple_of(b)),
            "mesh cells must be a multiple of the block size"
        );
        MeshConfig {
            dim,
            roots: (
                mesh_cells.0 / b,
                mesh_cells.1 / b,
                if dim == Dim::D2 { 1 } else { mesh_cells.2 / b },
            ),
            domain: Aabb::unit(),
            spec,
            max_level,
            periodic: false,
        }
    }

    /// Same configuration with periodic domain boundaries.
    pub fn with_periodic(mut self) -> MeshConfig {
        self.periodic = true;
        self
    }
}

/// Per-block adaptation decision produced by a workload's tagging criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineTag {
    /// Split the block into `2^d` children.
    Refine,
    /// Merge with siblings into the parent (only applied if all siblings
    /// agree and 2:1 balance permits).
    Coarsen,
    /// Leave as is.
    Keep,
}

/// The fate of one pre-adapt block across an adaptation step, indexed by its
/// old [`BlockId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFate {
    /// The octant survived; this is its post-adapt id.
    Same(BlockId),
    /// The octant was subdivided; its region is now covered by `count` new
    /// leaves at contiguous ids `first .. first + count` (children are
    /// consecutive on the SFC, so the span covers ripple re-refinement too).
    Refined { first: BlockId, count: u32 },
    /// The octant merged with its siblings; the parent leaf has this
    /// post-adapt id (all `2^d` siblings map to the same id).
    Coarsened(BlockId),
}

/// Changeset of one adaptation step: summary counters plus the full old→new
/// block remap that incremental consumers (graph patching, placement-state
/// remapping) key off.
///
/// The changeset is pooled inside the mesh — [`AmrMesh::adapt`] returns a
/// borrow and [`AmrMesh::last_delta`] re-exposes it — so a steady-state adapt
/// allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefinementDelta {
    /// Leaves refined (including balance-induced ripples).
    pub refined: usize,
    /// Parents created by coarsening.
    pub coarsened: usize,
    /// Block count before adaptation.
    pub blocks_before: usize,
    /// Block count after adaptation.
    pub blocks_after: usize,
    /// Fate of every pre-adapt block, indexed by old [`BlockId`]. Empty when
    /// the adapt was a no-op (`!changed()`): the identity remap is implied
    /// and nothing is materialized.
    pub remap: Vec<BlockFate>,
    /// Pre-adapt leaves that were subdivided (in old SFC order).
    pub refined_parents: Vec<Octant>,
    /// Parent leaves created by merging complete families (in SFC order).
    pub coarsened_parents: Vec<Octant>,
}

impl RefinementDelta {
    /// Did the mesh change (requiring redistribution)?
    pub fn changed(&self) -> bool {
        self.refined > 0 || self.coarsened > 0
    }

    /// True when the adapt took the no-op fast path: nothing changed and no
    /// remap was materialized (identity implied).
    pub fn is_identity(&self) -> bool {
        !self.changed() && self.remap.is_empty()
    }

    /// Number of pre-adapt blocks whose fate is not [`BlockFate::Same`].
    pub fn changed_old_blocks(&self) -> usize {
        self.remap
            .iter()
            .filter(|f| !matches!(f, BlockFate::Same(_)))
            .count()
    }

    /// Post-adapt ids of blocks created by refinement, ascending.
    pub fn new_child_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.remap.iter().flat_map(|f| {
            let span = match f {
                BlockFate::Refined { first, count } => {
                    first.index()..first.index() + *count as usize
                }
                _ => 0..0,
            };
            span.map(|i| BlockId(i as u32))
        })
    }
}

/// A block-structured AMR mesh: 2:1-balanced octree forest + SFC-ordered
/// block index.
///
/// ```
/// use amr_mesh::{AmrMesh, Dim, MeshConfig, Point, RefineTag};
/// // 64^3 cells, 16^3 blocks -> 4x4x4 roots.
/// let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2));
/// assert_eq!(mesh.num_blocks(), 64);
/// let hot = Point::new(0.25, 0.25, 0.25);
/// mesh.adapt(|b| if b.bounds.contains(&hot) { RefineTag::Refine } else { RefineTag::Keep });
/// assert_eq!(mesh.num_blocks(), 64 + 7); // one block split into 8
/// mesh.check_invariants().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct AmrMesh {
    config: MeshConfig,
    tree: Octree,
    blocks: Vec<MeshBlock>,
    /// SFC key of each block, parallel to `blocks` and strictly ascending;
    /// `id_of` is a binary search over this array (no per-leaf hash map).
    keys: Vec<u64>,
    /// Last adapt's changeset (pooled; see [`AmrMesh::last_delta`]).
    delta: RefinementDelta,
    // Pooled scratch so steady-state adapts allocate nothing.
    tags_scratch: Vec<(MeshBlock, RefineTag)>,
    coarsen_scratch: Vec<(Octant, u32)>,
    blocks_spare: Vec<MeshBlock>,
    keys_spare: Vec<u64>,
    leaves_scratch: Vec<Octant>,
    /// Optional trace handle: when set, adapts record `remesh`/`splice_index`
    /// spans and graph repairs record `graph_patch` spans (plus counters).
    /// `None` — the default — leaves every path untouched.
    trace: Option<TraceHandle>,
}

impl AmrMesh {
    /// Build the initial mesh: one block per root-grid cell.
    pub fn new(config: MeshConfig) -> AmrMesh {
        assert!(config.max_level <= NORM_LEVEL);
        let mut tree = Octree::uniform_roots(config.dim, config.roots);
        tree.set_periodic(config.periodic);
        let mut mesh = AmrMesh::empty(config, tree);
        mesh.rebuild_index();
        mesh
    }

    /// Rebuild a mesh from a config and a validated tree (checkpoint
    /// restore). Fails if the tree's dimensionality or root grid disagrees
    /// with the config.
    pub fn from_parts(config: MeshConfig, tree: Octree) -> Result<AmrMesh, String> {
        if tree.dim() != config.dim {
            return Err("tree/config dimensionality mismatch".into());
        }
        let rz = match config.dim {
            Dim::D2 => 1,
            Dim::D3 => config.roots.2,
        };
        if tree.roots() != (config.roots.0, config.roots.1, rz) {
            return Err("tree/config root grid mismatch".into());
        }
        if config.max_level > NORM_LEVEL {
            return Err("max_level beyond supported depth".into());
        }
        let mut tree = tree;
        tree.set_periodic(config.periodic);
        // Re-validate: periodic domains impose extra 2:1 constraints across
        // the wrap that a non-periodic check would not see.
        if config.periodic {
            tree.check_invariants()?;
        }
        let mut mesh = AmrMesh::empty(config, tree);
        mesh.rebuild_index();
        Ok(mesh)
    }

    fn empty(config: MeshConfig, tree: Octree) -> AmrMesh {
        AmrMesh {
            config,
            tree,
            blocks: Vec::new(),
            keys: Vec::new(),
            delta: RefinementDelta::default(),
            tags_scratch: Vec::new(),
            coarsen_scratch: Vec::new(),
            blocks_spare: Vec::new(),
            keys_spare: Vec::new(),
            leaves_scratch: Vec::new(),
            trace: None,
        }
    }

    /// Attach (or detach, with `None`) a trace handle; see
    /// [`amr_telemetry::trace`]. Instrumentation only observes — traced and
    /// untraced adapts produce identical meshes and deltas.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// Mesh configuration.
    #[inline]
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Underlying tree (read-only).
    #[inline]
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks in SFC order (index == `BlockId`).
    #[inline]
    pub fn blocks(&self) -> &[MeshBlock] {
        &self.blocks
    }

    /// SFC key of each block, parallel to [`AmrMesh::blocks`] and strictly
    /// ascending.
    #[inline]
    pub fn sfc_keys(&self) -> &[u64] {
        &self.keys
    }

    /// Look up a block by ID.
    #[inline]
    pub fn block(&self, id: BlockId) -> &MeshBlock {
        &self.blocks[id.index()]
    }

    /// The changeset of the most recent [`AmrMesh::adapt`] call. Default
    /// (identity) before any adapt or after a full index rebuild.
    #[inline]
    pub fn last_delta(&self) -> &RefinementDelta {
        &self.delta
    }

    /// The `BlockId` of a leaf octant, if it is a current leaf: a binary
    /// search over the sorted key array (an ancestor or descendant of a leaf
    /// can share the leaf's key, hence the octant equality check).
    pub fn id_of(&self, o: &Octant) -> Option<BlockId> {
        match self.keys.binary_search(&sfc_key(o, self.config.dim)) {
            Ok(i) if self.blocks[i].octant == *o => Some(BlockId(i as u32)),
            _ => None,
        }
    }

    /// Blocks whose bounds intersect `region` (positive-measure overlap),
    /// in SFC order. Used by diagnostics and region-of-interest tooling.
    pub fn blocks_in_region(&self, region: &Aabb) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.blocks_in_region_into(region, &mut out);
        out
    }

    /// Allocation-reusing variant of [`AmrMesh::blocks_in_region`]: clears
    /// `out` and fills it with the intersecting block ids in SFC (ascending)
    /// order. Per-step callers keep `out` pooled.
    pub fn blocks_in_region_into(&self, region: &Aabb, out: &mut Vec<BlockId>) {
        out.clear();
        out.extend(
            self.blocks
                .iter()
                .filter(|b| b.bounds.intersects(region))
                .map(|b| b.id),
        );
    }

    /// The block containing a physical point, if the point lies inside the
    /// domain (half-open block bounds: exactly one block matches).
    pub fn block_at(&self, p: &crate::geom::Point) -> Option<BlockId> {
        self.blocks
            .iter()
            .find(|b| b.bounds.contains(p))
            .map(|b| b.id)
    }

    /// Build the neighbor graph for the current mesh snapshot on the
    /// process-wide [`WorkerPool::global`](crate::pool::WorkerPool::global).
    pub fn neighbor_graph(&self) -> NeighborGraph {
        let leaves: Vec<Octant> = self.blocks.iter().map(|b| b.octant).collect();
        NeighborGraph::build(&self.tree, &leaves, crate::pool::WorkerPool::global())
    }

    /// Bring `graph` (the neighbor graph of the *pre-adapt* mesh) up to date
    /// with the mesh after the most recent [`AmrMesh::adapt`], repairing only
    /// the CSR rows whose neighborhoods touch changed octants. Falls back to
    /// a full [`AmrMesh::neighbor_graph`] build when the stored delta cannot
    /// vouch for `graph` (identity delta, stale delta, or a block-count
    /// mismatch). Returns `true` iff the incremental patch path ran.
    pub fn patch_neighbor_graph(
        &self,
        graph: &mut NeighborGraph,
        scratch: &mut PatchScratch,
    ) -> bool {
        let _span = self.trace.as_ref().map(|t| t.span(TracePhase::GraphPatch));
        let d = &self.delta;
        if d.remap.len() == d.blocks_before
            && !d.remap.is_empty()
            && graph.num_blocks() == d.blocks_before
            && self.blocks.len() == d.blocks_after
        {
            graph.patch(&self.tree, &self.blocks, &self.keys, d, scratch);
            if let Some(t) = &self.trace {
                t.metrics.incr(TraceCounter::GraphPatches, 1);
            }
            true
        } else {
            *graph = self.neighbor_graph();
            if let Some(t) = &self.trace {
                t.metrics.incr(TraceCounter::GraphFullBuilds, 1);
                // Distinct from GraphFullBuilds so callers can tell "the
                // patch entry point gave up" apart from intentional builds.
                t.metrics.incr(TraceCounter::GraphPatchFallbacks, 1);
            }
            false
        }
    }

    /// Apply one adaptation step driven by a per-block tagging criterion.
    ///
    /// Refinement is capped at `config.max_level` and triggers 2:1 ripple
    /// refinement; coarsening requires all `2^d` siblings tagged `Coarsen`
    /// and balance to permit the merge. Block IDs are re-assigned in SFC
    /// order by splicing the changed spans into the sorted block array —
    /// O(changed blocks), not O(mesh) — and the returned changeset records
    /// every pre-adapt block's fate. A no-op adapt (nothing refined or
    /// coarsened) leaves the index untouched and allocates nothing.
    pub fn adapt<F>(&mut self, tag: F) -> &RefinementDelta
    where
        F: Fn(&MeshBlock) -> RefineTag,
    {
        // Cheap Rc bump (no allocation) so the span guard doesn't hold a
        // borrow of `self` across the mutations below.
        let trace = self.trace.clone();
        let _span = trace.as_ref().map(|t| t.span(TracePhase::Remesh));
        let blocks_before = self.blocks.len();
        let mut tags = std::mem::take(&mut self.tags_scratch);
        tags.clear();
        tags.extend(self.blocks.iter().map(|b| (*b, tag(b))));

        let mut refined = 0usize;
        for (b, t) in &tags {
            if *t == RefineTag::Refine && b.level() < self.config.max_level {
                refined += self.tree.refine(&b.octant);
            }
        }

        // Group coarsen tags by parent without hashing: blocks arrive in SFC
        // order, and a complete sibling family is always one contiguous run
        // of `2^d` Coarsen tags (siblings are consecutive on the curve; any
        // interloper between two siblings is a descendant of a refined
        // sibling, which already disqualifies the family). Count run lengths.
        let mut cands = std::mem::take(&mut self.coarsen_scratch);
        cands.clear();
        for (b, t) in &tags {
            if *t == RefineTag::Coarsen {
                if let Some(p) = b.octant.parent() {
                    match cands.last_mut() {
                        Some((q, c)) if *q == p => *c += 1,
                        _ => cands.push((p, 1)),
                    }
                }
            }
        }
        let family = self.config.dim.children_per_octant() as u32;
        let mut coarsened = 0usize;
        for (p, c) in &cands {
            // A sibling may have been refined by a balance ripple above; the
            // can_coarsen check inside coarsen() guards that.
            if *c == family && self.tree.coarsen(p) {
                coarsened += 1;
            }
        }
        cands.clear();
        self.coarsen_scratch = cands;
        tags.clear();
        self.tags_scratch = tags;

        self.delta.refined = refined;
        self.delta.coarsened = coarsened;
        self.delta.blocks_before = blocks_before;
        if refined == 0 && coarsened == 0 {
            // No-op fast path: the index is already current; the empty remap
            // means identity.
            self.delta.remap.clear();
            self.delta.refined_parents.clear();
            self.delta.coarsened_parents.clear();
        } else {
            let _splice = trace.as_ref().map(|t| t.span(TracePhase::SpliceIndex));
            self.splice_index();
        }
        self.delta.blocks_after = self.blocks.len();
        if let Some(t) = &trace {
            t.metrics.incr(TraceCounter::Adapts, 1);
            if refined == 0 && coarsened == 0 {
                t.metrics.incr(TraceCounter::NoopAdapts, 1);
            }
            t.metrics.incr(TraceCounter::BlocksRefined, refined as u64);
            t.metrics
                .incr(TraceCounter::BlocksCoarsened, coarsened as u64);
        }
        &self.delta
    }

    /// Incremental index update: one merge walk over the pre-adapt block
    /// array. Surviving leaves are copied (bounds reused); a subdivided
    /// block's slot expands into the leaves now within it (recursion covers
    /// ripples that re-refined same-pass children); a coarsened family's
    /// `2^d` contiguous slots collapse into one parent emitted at the first
    /// child. Children are consecutive on the SFC, so the output stays
    /// sorted without re-sorting, and the walk doubles as the fate recorder.
    fn splice_index(&mut self) {
        std::mem::swap(&mut self.blocks, &mut self.blocks_spare);
        std::mem::swap(&mut self.keys, &mut self.keys_spare);
        // `blocks_spare`/`keys_spare` now hold the pre-adapt index; the new
        // index builds into the (cleared) pooled arrays.
        self.blocks.clear();
        self.keys.clear();
        self.delta.remap.clear();
        self.delta.refined_parents.clear();
        self.delta.coarsened_parents.clear();
        let domain = &self.config.domain;
        let roots = self.tree.roots();
        let dim = self.config.dim;
        let mut within = std::mem::take(&mut self.leaves_scratch);
        for (i, b) in self.blocks_spare.iter().enumerate() {
            if self.tree.is_leaf(&b.octant) {
                let id = BlockId(self.blocks.len() as u32);
                self.delta.remap.push(BlockFate::Same(id));
                self.keys.push(self.keys_spare[i]);
                self.blocks.push(MeshBlock {
                    id,
                    octant: b.octant,
                    bounds: b.bounds,
                });
                continue;
            }
            match self.tree.coverage(&b.octant) {
                Coverage::Subdivided => {
                    within.clear();
                    self.tree.collect_leaves_within(&b.octant, &mut within);
                    let first = BlockId(self.blocks.len() as u32);
                    self.delta.remap.push(BlockFate::Refined {
                        first,
                        count: within.len() as u32,
                    });
                    self.delta.refined_parents.push(b.octant);
                    for o in &within {
                        let id = BlockId(self.blocks.len() as u32);
                        self.keys.push(sfc_key(o, dim));
                        self.blocks.push(MeshBlock {
                            id,
                            octant: *o,
                            bounds: o.bounds(domain, roots, dim),
                        });
                    }
                }
                Coverage::CoveredBy(p) => {
                    debug_assert_eq!(b.octant.parent(), Some(p), "multi-level collapse");
                    match self.blocks.last() {
                        Some(last) if last.octant == p => {
                            // Later sibling of an already-emitted parent.
                            self.delta.remap.push(BlockFate::Coarsened(last.id));
                        }
                        _ => {
                            let id = BlockId(self.blocks.len() as u32);
                            self.delta.remap.push(BlockFate::Coarsened(id));
                            self.delta.coarsened_parents.push(p);
                            self.keys.push(sfc_key(&p, dim));
                            self.blocks.push(MeshBlock {
                                id,
                                octant: p,
                                bounds: p.bounds(domain, roots, dim),
                            });
                        }
                    }
                }
                Coverage::Leaf | Coverage::Outside => {
                    unreachable!("pre-adapt block neither survived nor changed")
                }
            }
        }
        self.leaves_scratch = within;
        debug_assert_eq!(self.blocks.len(), self.tree.num_leaves());
        debug_assert!(self.keys.windows(2).all(|w| w[0] < w[1]));
    }

    /// Recompute SFC-ordered block IDs and physical bounds from scratch
    /// (initial construction and checkpoint restore).
    fn rebuild_index(&mut self) {
        let leaves = self.tree.leaves_sorted();
        self.blocks.clear();
        self.keys.clear();
        self.blocks.reserve(leaves.len());
        self.keys.reserve(leaves.len());
        for (i, o) in leaves.iter().enumerate() {
            let id = BlockId(i as u32);
            self.blocks.push(MeshBlock {
                id,
                octant: *o,
                bounds: o.bounds(&self.config.domain, self.tree.roots(), self.config.dim),
            });
            self.keys.push(sfc_key(o, self.config.dim));
        }
    }

    /// Rebuild the block index from scratch, discarding the incremental
    /// state. The stored delta is invalidated (reset to identity) so
    /// [`AmrMesh::patch_neighbor_graph`] falls back to a full build. Kept as
    /// the oracle for the incremental-vs-full equivalence tests and the
    /// full-rebuild arm of the evolving-mesh benchmarks.
    pub fn force_full_rebuild(&mut self) {
        self.rebuild_index();
        self.delta = RefinementDelta {
            blocks_before: self.blocks.len(),
            blocks_after: self.blocks.len(),
            ..RefinementDelta::default()
        };
    }

    /// Validate structural invariants (tiling, balance, index coherence).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tree.check_invariants()?;
        if self.blocks.len() != self.tree.num_leaves() {
            return Err("block index out of sync with tree".into());
        }
        if self.keys.len() != self.blocks.len() {
            return Err("key array out of sync with blocks".into());
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.id.index() != i {
                return Err(format!("block {i} has id {}", b.id));
            }
            if !self.tree.is_leaf(&b.octant) {
                return Err(format!("block {} is not a tree leaf", b.id));
            }
            if self.keys[i] != sfc_key(&b.octant, self.config.dim) {
                return Err(format!("stale SFC key for block {}", b.id));
            }
            if i > 0 && self.keys[i - 1] >= self.keys[i] {
                return Err(format!("keys not strictly ascending at block {i}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    fn cfg(roots: u32, max_level: u8) -> MeshConfig {
        MeshConfig {
            dim: Dim::D3,
            roots: (roots, roots, roots),
            domain: Aabb::unit(),
            spec: BlockSpec::default(),
            max_level,
            periodic: false,
        }
    }

    #[test]
    fn table1_configs_have_one_block_per_rank() {
        // Table I: 512 ranks <-> 128^3 cells, 16^3 blocks -> 512 roots.
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 128), 3));
        assert_eq!(m.num_blocks(), 512);
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 128, 256), 3));
        assert_eq!(m.num_blocks(), 1024);
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (128, 256, 256), 3));
        assert_eq!(m.num_blocks(), 2048);
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (256, 256, 256), 3));
        assert_eq!(m.num_blocks(), 4096);
    }

    #[test]
    fn adapt_refines_tagged_blocks() {
        let mut m = AmrMesh::new(cfg(2, 3));
        let delta = m.adapt(|b| {
            if b.bounds.contains(&Point::new(0.1, 0.1, 0.1)) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        assert!(delta.changed());
        assert_eq!(delta.refined, 1);
        assert_eq!(delta.blocks_before, 8);
        assert_eq!(delta.blocks_after, 15);
        m.check_invariants().unwrap();
    }

    #[test]
    fn adapt_respects_max_level() {
        let mut m = AmrMesh::new(cfg(1, 1));
        let d1 = m.adapt(|_| RefineTag::Refine);
        assert_eq!(d1.blocks_after, 8);
        // All at max level now; further refinement is a no-op.
        let d2 = m.adapt(|_| RefineTag::Refine);
        assert!(!d2.changed());
        assert_eq!(d2.blocks_after, 8);
    }

    #[test]
    fn adapt_coarsens_complete_families_only() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant == Octant::new(0, 0, 0, 0) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        assert_eq!(m.num_blocks(), 15);
        // Tag only some of the children: nothing merges.
        let d = m.adapt(|b| {
            if b.level() == 1 && b.octant.x == 0 && b.octant.y == 0 && b.octant.z == 0 {
                RefineTag::Coarsen
            } else {
                RefineTag::Keep
            }
        });
        assert_eq!(d.coarsened, 0);
        // Tag the whole family: merges back.
        let d = m.adapt(|b| {
            if b.level() == 1 {
                RefineTag::Coarsen
            } else {
                RefineTag::Keep
            }
        });
        assert_eq!(d.coarsened, 1);
        assert_eq!(m.num_blocks(), 8);
        m.check_invariants().unwrap();
    }

    #[test]
    fn block_ids_are_sfc_sequential_after_adapt() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m.check_invariants().unwrap();
        let keys: Vec<u64> = m
            .blocks()
            .iter()
            .map(|b| crate::sfc::sfc_key(&b.octant, Dim::D3))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys, m.sfc_keys());
    }

    #[test]
    fn incremental_index_matches_full_rebuild() {
        let mut m = AmrMesh::new(cfg(2, 2));
        // Refine, then coarsen part of it back, then refine elsewhere: every
        // splice case (copy, expand, collapse) in play.
        m.adapt(|b| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m.adapt(|b| {
            if b.level() == 1 && b.octant.y < 2 {
                RefineTag::Coarsen
            } else if b.level() == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m.check_invariants().unwrap();
        let mut full = m.clone();
        full.force_full_rebuild();
        assert_eq!(m.blocks(), full.blocks());
        assert_eq!(m.sfc_keys(), full.sfc_keys());
    }

    #[test]
    fn patch_fallback_is_reported_via_trace_counter() {
        use amr_telemetry::trace::Counter as TC;
        let mut m = AmrMesh::new(cfg(2, 3));
        let handle = TraceHandle::new(64);
        m.set_trace(Some(handle.clone()));
        let mut graph = m.neighbor_graph();
        let mut scratch = PatchScratch::default();
        // A live delta patches incrementally: no fallback recorded.
        m.adapt(|b| {
            if b.id.index() == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        assert!(m.patch_neighbor_graph(&mut graph, &mut scratch));
        assert_eq!(handle.metrics.counter(TC::GraphPatches), 1);
        assert_eq!(handle.metrics.counter(TC::GraphPatchFallbacks), 0);
        // Invalidate the stored delta: the entry point must degrade to a
        // full rebuild — and say so, distinctly from intentional builds.
        m.force_full_rebuild();
        assert!(!m.patch_neighbor_graph(&mut graph, &mut scratch));
        assert_eq!(handle.metrics.counter(TC::GraphPatchFallbacks), 1);
        assert_eq!(handle.metrics.counter(TC::GraphFullBuilds), 1);
        assert_eq!(graph, m.neighbor_graph());
    }

    #[test]
    fn remap_tracks_every_old_block() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant == Octant::new(0, 0, 0, 0) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let old_blocks: Vec<MeshBlock> = m.blocks().to_vec();
        let delta = m
            .adapt(|b| {
                if b.level() == 1 && b.octant.x < 2 && b.octant.y < 2 && b.octant.z < 2 {
                    RefineTag::Coarsen
                } else if b.octant == Octant::new(0, 1, 1, 1) {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            })
            .clone();
        assert_eq!(delta.remap.len(), old_blocks.len());
        assert!(delta.refined >= 1 && delta.coarsened == 1);
        for (old, fate) in delta.remap.iter().enumerate() {
            let o = old_blocks[old].octant;
            match *fate {
                BlockFate::Same(new) => {
                    // Every surviving octant maps to its new id.
                    assert_eq!(m.block(new).octant, o);
                    assert_eq!(m.id_of(&o), Some(new));
                }
                BlockFate::Refined { first, count } => {
                    // The span covers exactly the leaves now within the old
                    // block, in SFC order.
                    let within = m.tree().leaves_within(&o);
                    assert_eq!(within.len(), count as usize);
                    for (k, w) in within.iter().enumerate() {
                        assert_eq!(m.block(BlockId((first.index() + k) as u32)).octant, *w);
                    }
                }
                BlockFate::Coarsened(new) => {
                    // Every coarsened child maps to its parent's new id.
                    assert_eq!(m.block(new).octant, o.parent().unwrap());
                }
            }
        }
        m.check_invariants().unwrap();
    }

    #[test]
    fn noop_adapt_is_identity_and_preserves_index() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let before: Vec<MeshBlock> = m.blocks().to_vec();
        let d = m.adapt(|_| RefineTag::Keep);
        assert!(d.is_identity());
        assert_eq!(d.blocks_before, d.blocks_after);
        assert_eq!(m.blocks(), &before[..]);
    }

    #[test]
    fn id_of_binary_search_matches_leaves() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 && b.octant.y == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        for b in m.blocks() {
            assert_eq!(m.id_of(&b.octant), Some(b.id));
        }
        // Non-leaves: refined parent (shares first child's key) and a
        // descendant of a leaf (shares the leaf's key) both miss.
        assert_eq!(m.id_of(&Octant::new(0, 0, 0, 0)), None);
        assert_eq!(m.id_of(&Octant::new(3, 15, 15, 15)), None);
    }

    #[test]
    fn neighbor_graph_matches_block_count() {
        let mut m = AmrMesh::new(cfg(2, 2));
        m.adapt(|b| {
            if b.octant.x == 0 && b.octant.y == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let g = m.neighbor_graph();
        assert_eq!(g.num_blocks(), m.num_blocks());
        g.check_symmetry().unwrap();
    }

    #[test]
    fn patch_neighbor_graph_matches_full_build() {
        let mut m = AmrMesh::new(cfg(2, 2));
        let mut g = m.neighbor_graph();
        let mut scratch = PatchScratch::default();
        // Refine -> mixed refine/coarsen -> no-op: patch must track each.
        type TagFn = Box<dyn Fn(&MeshBlock) -> RefineTag>;
        let tags: Vec<TagFn> = vec![
            Box::new(|b: &MeshBlock| {
                if b.octant.x == 0 {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            }),
            Box::new(|b: &MeshBlock| {
                if b.level() == 1 && b.octant.y < 2 {
                    RefineTag::Coarsen
                } else if b.level() == 0 && b.octant.x == 1 {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            }),
            Box::new(|_: &MeshBlock| RefineTag::Keep),
        ];
        for tag in &tags {
            m.adapt(|b| tag(b));
            m.patch_neighbor_graph(&mut g, &mut scratch);
            assert_eq!(g, m.neighbor_graph());
            g.check_symmetry().unwrap();
        }
    }

    #[test]
    fn periodic_mesh_has_full_neighborhoods() {
        // Every block of a uniform periodic 3D mesh has exactly 26 neighbors
        // (wrap-around removes the domain boundary).
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 1).with_periodic());
        let g = m.neighbor_graph();
        g.check_symmetry().unwrap();
        for (_, nbs) in g.iter() {
            assert_eq!(nbs.len(), 26);
        }
    }

    #[test]
    fn periodic_refinement_ripples_across_the_wrap() {
        // Deep refinement at the domain corner must ripple to the opposite
        // corner blocks through the periodic boundary.
        let mut m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2).with_periodic());
        m.adapt(|b| {
            if b.octant == Octant::new(0, 0, 0, 0) {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let d2 = m
            .adapt(|b| {
                if b.octant == Octant::new(1, 0, 0, 0) {
                    RefineTag::Refine
                } else {
                    RefineTag::Keep
                }
            })
            .clone();
        // The level-2 corner leaf touches the far corner root (3,3,3) across
        // the wrap; that root must have been ripple-refined.
        assert!(d2.refined > 1, "no periodic ripple: {d2:?}");
        assert!(!m.tree().is_leaf(&Octant::new(0, 3, 3, 3)));
        m.tree().check_invariants().unwrap();
        let g = m.neighbor_graph();
        g.check_symmetry().unwrap();
    }

    #[test]
    fn spatial_queries() {
        let m = AmrMesh::new(cfg(4, 1));
        // The whole domain returns every block.
        assert_eq!(m.blocks_in_region(&Aabb::unit()).len(), 64);
        // A thin slab returns one layer of the 4x4x4 grid.
        let slab = Aabb::new(Point::new(0.0, 0.0, 0.3), Point::new(1.0, 1.0, 0.4));
        assert_eq!(m.blocks_in_region(&slab).len(), 16);
        // The pooled variant returns the same ids and reuses the buffer.
        let mut buf = Vec::new();
        m.blocks_in_region_into(&slab, &mut buf);
        assert_eq!(buf, m.blocks_in_region(&slab));
        let cap = buf.capacity();
        m.blocks_in_region_into(&slab, &mut buf);
        assert_eq!(buf.capacity(), cap);
        // Point lookup is unique and consistent with bounds.
        let p = Point::new(0.6, 0.1, 0.9);
        let id = m.block_at(&p).unwrap();
        assert!(m.block(id).bounds.contains(&p));
        // Outside the domain: none.
        assert!(m.block_at(&Point::new(1.5, 0.0, 0.0)).is_none());
    }

    #[test]
    fn bounds_cover_domain() {
        let m = AmrMesh::new(cfg(2, 1));
        let total_vol: f64 = m
            .blocks()
            .iter()
            .map(|b| {
                let e = b.bounds.extent();
                e.x * e.y * e.z
            })
            .sum();
        assert!((total_vol - 1.0).abs() < 1e-9);
    }
}
