//! Edge cases of the exchange kernels: empty sender lists, duplicate
//! senders, same-rank flux fix-ups, and warm refills.

use super::*;
use amr_mesh::{AmrMesh, MeshConfig, NeighborGraph, RefineTag};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the allocations of the calling thread only, so tests running
/// concurrently in this binary cannot pollute a measurement.
struct ThreadCountingAlloc;

thread_local! {
    static THREAD_ALLOCS: AtomicU64 = const { AtomicU64::new(0) };
}

fn count_alloc() {
    let _ = THREAD_ALLOCS.try_with(|n| n.fetch_add(1, Ordering::Relaxed));
}

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|n| n.load(Ordering::Relaxed))
}

/// Eight root blocks with block 0 refined once: 15 blocks, with
/// fine→coarse faces around the refined octant.
fn refined_mesh() -> AmrMesh {
    let mut mesh = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (32, 32, 32), 2));
    mesh.adapt(|b| {
        if b.id.index() == 0 {
            RefineTag::Refine
        } else {
            RefineTag::Keep
        }
    });
    mesh
}

/// Scratch a fill reuses across calls, as `MacroSim` holds it.
#[derive(Default)]
struct Scratch {
    e: CommEpoch,
    shm: Vec<usize>,
    partials: Vec<EpochPartial>,
}

fn fill(
    pool: &WorkerPool,
    mesh: &AmrMesh,
    graph: &NeighborGraph,
    network: &NetworkConfig,
    placement: &Placement,
    s: &mut Scratch,
) {
    fill_epoch(
        pool,
        &Topology::new(placement.num_ranks(), 2),
        network,
        mesh.config().spec,
        mesh.config().dim,
        placement,
        GraphView::Flat(graph),
        &mut s.e,
        &mut s.shm,
        &mut s.partials,
        None,
    );
}

fn round_robin(blocks: usize, r: usize) -> Placement {
    Placement::new((0..blocks).map(|b| (b % r) as u32).collect(), r)
}

#[test]
fn rank_without_senders_gets_zero_arrival_and_no_transfer_tail() {
    let mut e = CommEpoch::default();
    e.reset(2);
    e.blocks_per_rank.copy_from_slice(&[1, 1]);
    e.dispatch_ns.copy_from_slice(&[100.0, 50.0]);
    // Rank 0 hears from nobody; rank 1 hears from rank 0. Rank 0's tail
    // is deliberately nonzero: it must not be charged without senders.
    e.sender_offsets.copy_from_slice(&[0, 0, 1]);
    e.senders.push(0);
    e.transfer_tail_ns.copy_from_slice(&[7_000.0, 300.0]);
    fn check(pool: &WorkerPool, e: &CommEpoch) {
        let (mut arrival, mut ready, mut finish) = ([0.0; 2], [0.0; 2], [0.0; 2]);
        let (compute, nic) = ([1_000.0, 10.0], [1.0, 1.0]);
        let (xs, coupling, overlap) = (1.0, 1.0, 0.0);
        ready_finish(
            pool,
            xs,
            coupling,
            overlap,
            e,
            &compute,
            &nic,
            &mut arrival,
            &mut ready,
            &mut finish,
        );
        assert_eq!(ready, [1_100.0, 60.0]);
        assert_eq!(finish[0], ready[0], "no senders: no wait, no tail");
        // Rank 1 waits for rank 0's send (1·1000 + 100) plus its tail.
        assert_eq!(finish[1], 1_400.0);
    }
    check(&WorkerPool::new(1), &e);
    check(&WorkerPool::new(2), &e);
}

#[test]
fn duplicate_senders_are_deduplicated_in_the_csr() {
    let mesh = refined_mesh();
    let graph = mesh.neighbor_graph();
    let r = 3;
    let placement = round_robin(mesh.num_blocks(), r);
    let mut expected = vec![BTreeSet::new(); r];
    let mut raw = 0;
    for (block, nbs) in graph.iter() {
        let src = placement.rank_of(block.index());
        for n in nbs {
            let dst = placement.rank_of(n.block.index());
            if dst != src {
                expected[dst as usize].insert(src);
                raw += 1;
            }
        }
    }
    let unique: usize = expected.iter().map(BTreeSet::len).sum();
    assert!(raw > unique, "the mesh must produce duplicate senders");

    let network = NetworkConfig::tuned();
    let mut single = Scratch::default();
    fill(
        &WorkerPool::new(1),
        &mesh,
        &graph,
        &network,
        &placement,
        &mut single,
    );
    for (dst, want) in expected.iter().enumerate() {
        let want: Vec<u32> = want.iter().copied().collect();
        assert_eq!(single.e.senders_of(dst), want.as_slice(), "rank {dst}");
    }
    assert_eq!(single.e.senders.len(), unique);

    // The pooled fill builds the same epoch, floats bit for bit.
    let mut pooled = Scratch::default();
    fill(
        &WorkerPool::new(2),
        &mesh,
        &graph,
        &network,
        &placement,
        &mut pooled,
    );
    assert_eq!(format!("{:?}", pooled.e), format!("{:?}", single.e));
}

#[test]
fn same_rank_fine_to_coarse_face_charges_flux_memcpy_not_dispatch() {
    let mesh = refined_mesh();
    let graph = mesh.neighbor_graph();
    let placement = Placement::new(vec![0; mesh.num_blocks()], 2);
    let network = NetworkConfig::tuned();
    let mut s = Scratch::default();
    fill(
        &WorkerPool::new(1),
        &mesh,
        &graph,
        &network,
        &placement,
        &mut s,
    );

    let spec = mesh.config().spec;
    let quarter_face = spec.message_bytes(Dim::D3, 1) / 4;
    let mut expected = 0.0f64;
    let mut faces = 0;
    for (_, nbs) in graph.iter() {
        for n in nbs {
            if n.level_delta == -1 && n.kind == NeighborKind::Face {
                expected += quarter_face as f64 / network.shm.bytes_per_ns;
                faces += 1;
            }
        }
    }
    assert!(faces > 0, "the refined octant must have fine→coarse faces");
    assert_eq!(s.e.flux_ns[0].to_bits(), expected.to_bits());
    assert_eq!(s.e.dispatch_ns[0], 0.0);
    assert_eq!(s.e.flux_msgs, 0);
    assert_eq!(s.e.local_msgs + s.e.remote_msgs, 0);
    assert_eq!(s.e.intra_msgs as usize, graph.total_relations());
}

#[test]
fn warm_refill_at_a_different_rank_count_allocates_nothing() {
    let mesh = refined_mesh();
    let graph = mesh.neighbor_graph();
    // A live credit model, so the link-byte matrices are refilled too.
    let network = NetworkConfig {
        fabric_credit_bytes: 1 << 12,
        congestion_backoff: 2.0,
        ..NetworkConfig::tuned()
    };
    let small = round_robin(mesh.num_blocks(), 4);
    let large = round_robin(mesh.num_blocks(), 7);
    let mut s = Scratch::default();
    let pool = WorkerPool::new(1);
    let cold = thread_allocs();
    for p in [&small, &large] {
        fill(&pool, &mesh, &graph, &network, p, &mut s);
    }
    assert!(thread_allocs() > cold, "cold fills must grow the scratch");
    let before = thread_allocs();
    for p in [&small, &large, &small] {
        fill(&pool, &mesh, &graph, &network, p, &mut s);
    }
    assert_eq!(thread_allocs() - before, 0, "warm refills allocated");
    assert!(s.e.cong_send_ns.iter().any(|&c| c > 0.0));
}
