//! The macro-simulator's per-step exchange kernels: epoch fill, compute
//! scatter and ready/finish. Each exists once. The simulator drives them
//! through a [`SimCommunicator`]: `threads == 1` is the single-owner case
//! ([`SerialCommunicator`](crate::exec::SerialCommunicator) runs one task
//! that owns every rank), and more threads split the same work over a
//! [`PooledCommunicator`](crate::exec::PooledCommunicator).
//!
//! Every kernel follows one rule — **slot ownership**: the rank space `0..r`
//! is split into `threads` contiguous ranges, and each task writes only the
//! per-rank slots inside its own range. Where the input is indexed by
//! *block* (the epoch's graph rows, the compute scatter), each task scans
//! the whole input in row order and applies only the updates whose target
//! slot it owns, so per-slot floating-point accumulation happens in exactly
//! one order at any thread count and virtual time is **bitwise identical**
//! (f64 addition is not associative; merging per-chunk partial sums would
//! reorder it). Integer message counters are associative, so those use
//! per-task partials ([`EpochPartial`]) summed in task order after the join.
//! The golden test `crates/sim/tests/golden_virtual_time.rs` pins the bits
//! at 1 and 2 threads.
//!
//! The kernels receive only plain-data views (`Topology`, `NetworkConfig`,
//! `Placement`, `GraphView`) — never `&AmrMesh`, which holds an `Rc`-based
//! trace handle and is not `Sync`. This module is policed by the workspace
//! `disallowed_types` clippy guard: no `Rc`, `RefCell`, or `Cell`; shared
//! mutable state crosses the dispatch boundary only through
//! [`Disjoint`](amr_mesh::pool::Disjoint) range ownership.

use crate::exec::SimCommunicator;
use crate::macrosim::{CommEpoch, GraphView};
use crate::network::NetworkConfig;
use crate::topology::Topology;
use amr_core::Placement;
use amr_mesh::pool::Disjoint;
use amr_mesh::{BlockSpec, Dim, NeighborKind};
use amr_telemetry::{TracePhase, WorkerLane};

/// Span slots pre-allocated per worker lane the first time a traced
/// simulator dispatches in parallel (one host span per task per epoch fill,
/// so this covers hundreds of fills before the ring recycles).
pub(crate) const LANE_SPAN_CAPACITY: usize = 256;

/// One task's private state for an epoch fill: associative `u64` counters
/// merged in task-index order after the join, plus the bookkeeping of the
/// task's slice of the sender CSR. Float accumulation stays in owned
/// [`CommEpoch`] slots. Buffers keep their capacity across fills.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochPartial {
    intra: u64,
    local: u64,
    remote: u64,
    flux: u64,
    /// Per-directed-node-link remote bytes seen by this task (src-owned
    /// messages only, so each message lands in exactly one partial). Sized
    /// `nodes²` only while the credit model is enabled; empty otherwise.
    link_bytes: Vec<u64>,
    /// Start of this task's slice of `CommEpoch::senders` during the fill.
    start: usize,
    /// Per owned receiver, the bound of its run within the slice, as
    /// offsets (one more entry than owned receivers).
    bounds: Vec<u32>,
    /// Per owned receiver, the next free position of its run.
    cursor: Vec<u32>,
    /// Senders left at the front of the slice after deduplication.
    unique: usize,
}

impl EpochPartial {
    /// Sort and deduplicate each owned receiver's run of `senders` (the
    /// task's slice), compacting the runs toward the front of the slice.
    /// Writes each receiver's deduplicated count to `counts[dst - lo]`.
    fn dedup_runs(&mut self, senders: &mut [u32], counts: &mut [u32]) {
        let mut write = 0usize;
        for (i, (&start, &end)) in self.bounds.iter().zip(&self.cursor).enumerate() {
            senders[start as usize..end as usize].sort_unstable();
            let run_start = write;
            for j in start as usize..end as usize {
                let s = senders[j];
                if write == run_start || senders[write - 1] != s {
                    senders[write] = s;
                    write += 1;
                }
            }
            counts[i] = (write - run_start) as u32;
        }
        self.unique = write;
    }
}

/// Contiguous rank range owned by task `t` of `t_n`.
#[inline]
fn own_range(t: usize, t_n: usize, r: usize) -> (usize, usize) {
    (t * r / t_n, (t + 1) * r / t_n)
}

/// Per-relation charges, priced once per fill with the same
/// [`NetworkConfig`] and [`BlockSpec`] functions a relation would call, so
/// every table entry is bit-identical to the per-message value. Boundary
/// entries are indexed by `codim - 1` and, where the path matters, by
/// `local as usize`; flux entries price the quarter-face fix-up.
#[derive(Debug, Default)]
struct RelationCosts {
    bytes: [u64; 3],
    dispatch: [f64; 3],
    memcpy: [f64; 3],
    service: [[f64; 2]; 3],
    tail: [[f64; 2]; 3],
    flux_bytes: u64,
    flux_dispatch: f64,
    flux_memcpy: f64,
    flux_service: [f64; 2],
}

impl RelationCosts {
    fn new(network: &NetworkConfig, spec: BlockSpec, dim: Dim) -> RelationCosts {
        let mut c = RelationCosts::default();
        for codim in 1..=dim.rank() as u8 {
            let k = codim as usize - 1;
            let bytes = spec.message_bytes(dim, codim);
            c.bytes[k] = bytes;
            c.dispatch[k] = network.dispatch_ns(bytes) as f64;
            // Intra-rank relations are memcpys at shared-memory bandwidth.
            c.memcpy[k] = bytes as f64 / network.shm.bytes_per_ns;
            for local in [false, true] {
                c.service[k][local as usize] = network.service_ns(bytes, local) as f64;
                c.tail[k][local as usize] = network.transfer_ns(bytes, local) as f64;
            }
        }
        // Flux correction: the fine face restricted onto the coarse grid, a
        // quarter of a face exchange, one round per step (§II-B).
        let bytes = spec.message_bytes(dim, 1) / 4;
        c.flux_bytes = bytes;
        c.flux_dispatch = network.dispatch_ns(bytes) as f64;
        c.flux_memcpy = bytes as f64 / network.shm.bytes_per_ns;
        for local in [false, true] {
            c.flux_service[local as usize] = network.service_ns(bytes, local) as f64;
        }
        c
    }
}

/// Epoch fill into the reused `e` (no allocation once its buffers, `shm_in`
/// and `partials` are warm): an O(n + r) serial prologue (reset, block
/// counts, sender-run bounds), then one fused pass over the graph followed
/// by each task's contention charge and sender deduplication, in a single
/// dispatch, then the congestion epilogue when the credit model is live.
///
/// Every relation charges the boundary exchange (dispatch at the sender;
/// service, transfer tail, shm fan-in and a sender entry at the receiver;
/// a memcpy when both ends share a rank). Fine→coarse faces additionally
/// charge the flux fix-up into `flux_ns`. Each f64 slot array is written by
/// only one of those two charges, and a task applies src-slot updates when
/// it owns `src` and dst-slot updates when it owns `dst`, so every slot's
/// contributions arrive from one task in global row order.
///
/// Sender lists are written straight into `e.senders`. Relations are
/// symmetric, so a rank receives at most one message per relation of its
/// own blocks: the prologue reserves each receiver a run of that length,
/// and tasks own the contiguous runs of their receivers. Each task then
/// sorts, deduplicates and compacts its runs to the front of its slice and
/// stores the counts at `sender_offsets[dst + 1]`; after the join the
/// slices are moved together in task order and the counts prefix-summed.
///
/// When `lanes` is given, each task records one host-track
/// [`TracePhase::Exchange`] span into its own [`WorkerLane`] — lanes observe
/// wall clock only and feed nothing back, so traced runs stay bit-identical
/// to untraced ones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_epoch<C: SimCommunicator>(
    comm: &C,
    topology: &Topology,
    network: &NetworkConfig,
    spec: BlockSpec,
    dim: Dim,
    placement: &Placement,
    graph: GraphView<'_>,
    e: &mut CommEpoch,
    shm_in: &mut Vec<usize>,
    partials: &mut Vec<EpochPartial>,
    lanes: Option<(&mut [WorkerLane], u32)>,
) {
    let r = topology.num_ranks;
    let t_n = comm.threads().min(r).max(1);
    let nodes = topology.num_nodes();
    let congestion = network.congestion_enabled();
    let costs = RelationCosts::new(network, spec, dim);
    e.reset(r);
    for b in 0..placement.num_blocks() {
        e.blocks_per_rank[placement.rank_of(b) as usize] += 1;
    }
    graph.for_each_row(|block, nbs| {
        e.sender_offsets[placement.rank_of(block.index()) as usize + 1] += nbs.len() as u32;
    });
    for i in 0..r {
        e.sender_offsets[i + 1] += e.sender_offsets[i];
    }
    e.senders.resize(e.sender_offsets[r] as usize, 0);
    shm_in.clear();
    shm_in.resize(r, 0);
    partials.resize_with(t_n, EpochPartial::default);
    for (t, p) in partials.iter_mut().enumerate() {
        let (lo, hi) = own_range(t, t_n, r);
        p.intra = 0;
        p.local = 0;
        p.remote = 0;
        p.flux = 0;
        p.link_bytes.clear();
        if congestion {
            p.link_bytes.resize(nodes * nodes, 0);
        }
        let base = e.sender_offsets[lo];
        p.start = base as usize;
        p.bounds.clear();
        p.bounds
            .extend(e.sender_offsets[lo..=hi].iter().map(|&o| o - base));
        p.cursor.clear();
        p.cursor.extend_from_slice(&p.bounds[..hi - lo]);
    }

    let dispatch = Disjoint::new(&mut e.dispatch_ns);
    let service = Disjoint::new(&mut e.service_ns);
    let memcpy = Disjoint::new(&mut e.memcpy_ns);
    let flux = Disjoint::new(&mut e.flux_ns);
    let tail = Disjoint::new(&mut e.transfer_tail_ns);
    let senders = Disjoint::new(&mut e.senders);
    let counts = Disjoint::new(&mut e.sender_offsets[1..]);
    let shm = Disjoint::new(shm_in);
    let (lanes, step) = match lanes {
        Some((l, s)) => (Some(Disjoint::new(l)), s),
        None => (None, 0),
    };

    comm.run_with(partials, |t, p| {
        let (lo, hi) = own_range(t, t_n, r);
        // SAFETY: tasks own pairwise-disjoint rank ranges [lo, hi); every
        // slice below is indexed only by owned ranks (rk - lo), and the
        // sender slices are the owned receivers' contiguous runs. Lanes are
        // indexed by the task id itself, also pairwise disjoint.
        let _span = lanes.as_ref().map(|l| {
            let lane = unsafe { &mut l.slice(t, t + 1)[0] };
            lane.span(TracePhase::Exchange, step)
        });
        let dispatch = unsafe { dispatch.slice(lo, hi) };
        let service = unsafe { service.slice(lo, hi) };
        let memcpy = unsafe { memcpy.slice(lo, hi) };
        let flux = unsafe { flux.slice(lo, hi) };
        let tail = unsafe { tail.slice(lo, hi) };
        let senders = unsafe { senders.slice(p.start, p.start + p.bounds[hi - lo] as usize) };
        let counts = unsafe { counts.slice(lo, hi) };
        let shm = unsafe { shm.slice(lo, hi) };

        graph.for_each_row(|block, nbs| {
            let src = placement.rank_of(block.index()) as usize;
            let src_owned = src >= lo && src < hi;
            for n in nbs {
                let dst = placement.rank_of(n.block.index()) as usize;
                let dst_owned = dst >= lo && dst < hi;
                if !src_owned && !dst_owned {
                    continue;
                }
                let k = n.kind.codim() as usize - 1;
                // Only fine→coarse faces carry flux fix-ups.
                let flux_face = n.level_delta == -1 && n.kind == NeighborKind::Face;
                if dst == src {
                    p.intra += 1;
                    memcpy[src - lo] += costs.memcpy[k];
                    if flux_face {
                        flux[src - lo] += costs.flux_memcpy;
                    }
                    continue;
                }
                let local = topology.same_node(src, dst);
                if src_owned {
                    let msgs = 1 + flux_face as u64;
                    if local {
                        p.local += msgs;
                    } else {
                        p.remote += msgs;
                        if congestion {
                            let idx = topology.node_of(src) * nodes + topology.node_of(dst);
                            p.link_bytes[idx] +=
                                costs.bytes[k] + if flux_face { costs.flux_bytes } else { 0 };
                        }
                    }
                    dispatch[src - lo] += costs.dispatch[k];
                    if flux_face {
                        p.flux += 1;
                        flux[src - lo] += costs.flux_dispatch;
                    }
                }
                if dst_owned {
                    if local {
                        shm[dst - lo] += 1;
                    }
                    service[dst - lo] += costs.service[k][local as usize];
                    let tl = costs.tail[k][local as usize];
                    if tl > tail[dst - lo] {
                        tail[dst - lo] = tl;
                    }
                    let c = &mut p.cursor[dst - lo];
                    assert!(
                        *c < p.bounds[dst - lo + 1],
                        "neighbor graph relations must be symmetric"
                    );
                    senders[*c as usize] = src as u32;
                    *c += 1;
                    if flux_face {
                        flux[dst - lo] += costs.flux_service[local as usize];
                    }
                }
            }
        });
        for (svc, &arrivals) in service.iter_mut().zip(shm.iter()) {
            *svc += network.shm_contention_ns(arrivals) as f64;
        }
        p.dedup_runs(senders, counts);
    });

    // Fixed-order merge of the associative integer partials. The link-byte
    // matrices are u64 sums too, so the merged matrix is independent of how
    // rows were split across tasks; the congestion epilogue reads only the
    // merged result.
    if congestion {
        e.link_bytes.resize(nodes * nodes, 0);
    }
    let mut len = 0;
    for p in partials.iter() {
        e.intra_msgs += p.intra;
        e.local_msgs += p.local;
        e.remote_msgs += p.remote;
        e.flux_msgs += p.flux;
        for (acc, &b) in e.link_bytes.iter_mut().zip(&p.link_bytes) {
            *acc += b;
        }
        e.senders.copy_within(p.start..p.start + p.unique, len);
        len += p.unique;
    }
    e.senders.truncate(len);
    for i in 0..r {
        e.sender_offsets[i + 1] += e.sender_offsets[i];
    }
    if congestion {
        fill_congestion(topology, network, e);
    }
}

/// Congestion epilogue of [`fill_epoch`]: convert the merged per-link byte
/// matrix into per-rank stalls. A rank's round is gated by its node's most
/// congested outgoing link (the send side blocks for credit returns) and
/// incoming link (retransmits delay the service tail).
/// [`NetworkConfig::congestion_ns`] is monotone, so taking the byte max
/// first equals maxing the stalls — and prices each worst link exactly
/// once. Pure integer maxima over the merged matrix: identical at any
/// thread count.
fn fill_congestion(topology: &Topology, network: &NetworkConfig, e: &mut CommEpoch) {
    let nodes = topology.num_nodes();
    for rank in 0..topology.num_ranks {
        let sn = topology.node_of(rank);
        let mut worst_out = 0u64;
        let mut worst_in = 0u64;
        for peer in 0..nodes {
            worst_out = worst_out.max(e.link_bytes[sn * nodes + peer]);
            worst_in = worst_in.max(e.link_bytes[peer * nodes + sn]);
        }
        e.cong_send_ns[rank] = network.congestion_ns(worst_out) as f64;
        e.cong_recv_ns[rank] = network.congestion_ns(worst_in) as f64;
    }
}

/// Compute-phase scatter: `compute[rank] = Σ block_ns[b] * rank_mult[rank]`
/// over the rank's blocks in block order, plus the per-block `measured`
/// record. Each task zeroes and accumulates only its owned ranks' `compute`
/// slots; `measured[b]` is written exactly once, by the owner of block
/// `b`'s rank. `measured` must already hold one slot per block.
pub(crate) fn compute_phase<C: SimCommunicator>(
    comm: &C,
    block_ns: &[f64],
    placement: &Placement,
    rank_mult: &[f64],
    compute: &mut [f64],
    measured: &mut [f64],
) {
    let r = compute.len();
    let t_n = comm.threads().min(r).max(1);
    let comp = Disjoint::new(compute);
    let meas = Disjoint::new(measured);
    comm.run(t_n, |t| {
        let (lo, hi) = own_range(t, t_n, r);
        // SAFETY: rank ranges are pairwise disjoint; each `measured[b]` has
        // exactly one writer (the owner of `placement.rank_of(b)`).
        let comp = unsafe { comp.slice(lo, hi) };
        comp.fill(0.0);
        for (b, &base) in block_ns.iter().enumerate() {
            let rank = placement.rank_of(b) as usize;
            if rank < lo || rank >= hi {
                continue;
            }
            let v = base * rank_mult[rank];
            comp[rank - lo] += v;
            unsafe { meas.write(b, v) };
        }
    });
}

/// Ready/finish in two dispatches. The first computes each rank's `ready`
/// time and its `send_arrival` — the time its last boundary send leaves,
/// `send_coupling·compute + xs·dispatch·nic + xs·cong_send·nic` — once per
/// rank. The second takes each receiver's max `send_arrival` over its
/// senders (plus the transfer tail when it has any), then the masked wait
/// and receive service. Congestion terms are exactly 0.0 while the credit
/// model is disabled, and NIC slowdowns 1.0 on healthy timelines, so both
/// are bit-exact no-ops there.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ready_finish<C: SimCommunicator>(
    comm: &C,
    xs: f64,
    send_coupling: f64,
    overlap_efficiency: f64,
    e: &CommEpoch,
    compute: &[f64],
    nic_slow: &[f64],
    send_arrival: &mut [f64],
    ready: &mut [f64],
    finish: &mut [f64],
) {
    let r = compute.len();
    let t_n = comm.threads().min(r).max(1);
    {
        let arrival = Disjoint::new(send_arrival);
        let ready = Disjoint::new(ready);
        comm.run(t_n, |t| {
            let (lo, hi) = own_range(t, t_n, r);
            // SAFETY: tasks own pairwise-disjoint rank ranges [lo, hi).
            let arrival = unsafe { arrival.slice(lo, hi) };
            let ready = unsafe { ready.slice(lo, hi) };
            for rank in lo..hi {
                ready[rank - lo] = compute[rank]
                    + xs * (e.dispatch_ns[rank] * nic_slow[rank] + e.memcpy_ns[rank])
                    + e.flux_ns[rank] * nic_slow[rank]
                    + xs * e.cong_send_ns[rank] * nic_slow[rank];
                arrival[rank - lo] = send_coupling * compute[rank]
                    + xs * e.dispatch_ns[rank] * nic_slow[rank]
                    + xs * e.cong_send_ns[rank] * nic_slow[rank];
            }
        });
    }
    let (send_arrival, ready) = (&*send_arrival, &*ready);
    let finish = Disjoint::new(finish);
    comm.run(t_n, |t| {
        let (lo, hi) = own_range(t, t_n, r);
        // SAFETY: tasks own pairwise-disjoint rank ranges [lo, hi).
        let finish = unsafe { finish.slice(lo, hi) };
        for rank in lo..hi {
            // Last inbound message ~ slowest sender's dispatch + tail. With
            // the tuned sends-first schedule, dispatch times are only weakly
            // coupled to the sender's compute (§IV-B/§IV-D).
            let senders = e.senders_of(rank);
            let mut arrival = 0.0f64;
            for &s in senders {
                let a = send_arrival[s as usize];
                if a > arrival {
                    arrival = a;
                }
            }
            if !senders.is_empty() {
                arrival += e.transfer_tail_ns[rank] * nic_slow[rank];
            }
            // Async masking: independent work from co-resident blocks hides
            // part of the arrival wait (§IV-D).
            let rd = ready[rank];
            let raw_wait = (arrival - rd).max(0.0);
            let nb = e.blocks_per_rank[rank].max(1) as f64;
            let masking = overlap_efficiency * (1.0 - 1.0 / nb);
            finish[rank - lo] = rd
                + raw_wait * (1.0 - masking)
                + xs * e.service_ns[rank] * nic_slow[rank]
                + xs * e.cong_recv_ns[rank] * nic_slow[rank];
        }
    });
}

#[cfg(test)]
mod tests;
