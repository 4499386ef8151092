//! Proof of the sharded steady states: after warm-up,
//!
//! 1. repeated `PlacementEngine::rebalance` calls with the two-stage
//!    [`Hierarchical`] policy at the same problem size perform no heap
//!    allocation — stage-1 shard aggregation/cuts and the per-node stage-2
//!    LPT heaps all live in policy-owned pools, and
//! 2. a warm `ShardedMesh::refresh` across an oscillating refine/coarsen
//!    cycle performs no heap allocation — per-shard CSR staging, the
//!    affected-row flags, and every halo table are pooled and rebuilt in
//!    place, and
//! 3. a warm `ShardedMesh::rebuild` (the stale-delta fallback) performs no
//!    heap allocation on a 1- or 2-thread pool.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, so a concurrently running sibling test would pollute the
//! measurement. (All steady states therefore live in the one test fn.)

use amr_core::engine::PlacementEngine;
use amr_core::policies::Hierarchical;
use amr_mesh::{AmrMesh, Dim, MeshConfig, RefineTag, ShardedMesh, WorkerPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_sharded_rebalance_and_refresh_are_allocation_free() {
    // ---- Hierarchical placement steady state ------------------------------
    // 8 shards of 20 blocks onto 16 nodes of 4 ranks; rotate costs each
    // round so shard costs (and hence stage-1 cuts) keep moving, exercising
    // the warm-order invalidation path as well as the happy path.
    let num_ranks = 64;
    let costs: Vec<f64> = (0..160).map(|i| 1.0 + (i % 13) as f64 * 0.37).collect();
    let mut shifted = costs.clone();
    let policy = Hierarchical::new(8, 4);
    let mut engine = PlacementEngine::new();
    for _ in 0..3 {
        shifted.rotate_right(1);
        engine
            .rebalance(&policy, &shifted, num_ranks)
            .unwrap_or_else(|e| panic!("warm-up failed: {e}"));
    }
    // Take the minimum delta over several rounds so unrelated background
    // allocation cannot produce a false positive; the engine must hit zero.
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        shifted.rotate_right(1);
        let before = alloc_count();
        let report = engine
            .rebalance(&policy, &shifted, num_ranks)
            .unwrap_or_else(|e| panic!("rebalance failed: {e}"));
        let delta = alloc_count() - before;
        min_delta = min_delta.min(delta);
        assert_eq!(report.num_blocks, shifted.len());
    }
    assert_eq!(
        min_delta, 0,
        "steady-state hierarchical rebalance allocated {min_delta} times"
    );

    // ---- ShardedMesh refresh steady state ---------------------------------
    // Oscillate the mesh between its 8-root shape and fully refined (64
    // blocks): every cycle produces two real deltas, so every `refresh` runs
    // the incremental per-shard splice+patch path — including the halo-table
    // rebuild — against staging buffers that have already seen both shapes.
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (32, 32, 32), 2));
    let pool = WorkerPool::new(1);
    let mut sharded = ShardedMesh::new(&mesh, 4, &pool);
    let cycle = |mesh: &mut AmrMesh, sharded: &mut ShardedMesh, measure: bool| -> u64 {
        let mut spent = 0u64;
        mesh.adapt(|b| {
            if b.level() == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        let before = alloc_count();
        assert!(
            sharded.refresh(mesh, &pool),
            "refine delta must patch, not rebuild"
        );
        spent += alloc_count() - before;
        mesh.adapt(|b| {
            if b.level() > 0 {
                RefineTag::Coarsen
            } else {
                RefineTag::Keep
            }
        });
        let before = alloc_count();
        assert!(
            sharded.refresh(mesh, &pool),
            "coarsen delta must patch, not rebuild"
        );
        spent += alloc_count() - before;
        if measure {
            spent
        } else {
            0
        }
    };
    for _ in 0..2 {
        cycle(&mut mesh, &mut sharded, false); // warm both shapes
    }
    let blocks_at_rest = mesh.num_blocks();
    let mut min_delta = u64::MAX;
    for _ in 0..3 {
        min_delta = min_delta.min(cycle(&mut mesh, &mut sharded, true));
    }
    assert_eq!(
        min_delta, 0,
        "steady-state sharded refresh allocated {min_delta} times"
    );
    assert_eq!(
        mesh.num_blocks(),
        blocks_at_rest,
        "cycle must be shape-stable"
    );
    assert_eq!(sharded.num_blocks(), blocks_at_rest);

    // ---- ShardedMesh rebuild fallback, warm --------------------------------
    // A forced from-scratch rebuild reuses every shard's CSR arrays and its
    // pooled row buffer, inline on one thread and dispatched on two.
    for threads in [1, 2] {
        let pool = WorkerPool::new(threads);
        sharded.rebuild(&mesh, &pool); // warm
        let mut min_delta = u64::MAX;
        for _ in 0..3 {
            let before = alloc_count();
            sharded.rebuild(&mesh, &pool);
            min_delta = min_delta.min(alloc_count() - before);
        }
        assert_eq!(
            min_delta, 0,
            "warm sharded rebuild on {threads} thread(s) allocated {min_delta} times"
        );
        assert_eq!(sharded.num_blocks(), blocks_at_rest);
    }
}
