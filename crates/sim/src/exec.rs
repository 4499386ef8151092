//! Execution layer for the macro-simulator: a communicator abstraction over
//! thread-pool dispatch.
//!
//! The real codes the paper profiles run one MPI rank per core; this crate's
//! simulator instead models all ranks in one process, which historically made
//! it strictly serial. [`SimCommunicator`] is the seam that lets the
//! embarrassingly-parallel macrosim phases (epoch fill, per-rank service/flux
//! accumulation, the ready/finish pass, shard rebuilds) execute on real
//! threads while keeping a provable determinism story:
//!
//! * [`SerialCommunicator`] runs every task inline on the caller. The
//!   simulator uses it at `threads == 1`, where one task owns every rank.
//! * [`PooledCommunicator`] dispatches onto a persistent
//!   [`WorkerPool`](amr_mesh::pool::WorkerPool) sized by
//!   `SimConfig::threads`. The pool is owned by the simulator (not the
//!   process-global pool), so `threads: 4` genuinely runs four OS threads
//!   even on smaller hosts — timesharing, but exercising the exact code
//!   paths a big host would.
//!
//! Determinism contract: tasks dispatched through a communicator must follow
//! the *slot-ownership* rule (see `DESIGN.md` §14) — every mutable slot is
//! written by exactly one task, and per-slot floating-point accumulation
//! happens in one fixed order. Under that rule the thread count and
//! interleaving are unobservable, which is what the
//! `parallel_runs_are_bitwise_identical_to_serial` property test and the
//! golden virtual-time test assert.
//!
//! This module is policed by the workspace `disallowed_types` clippy guard:
//! no `Rc`, `RefCell`, or `Cell` — state crossing a dispatch boundary is
//! either owned per task or wrapped in [`Disjoint`](amr_mesh::pool::Disjoint).

use amr_mesh::pool::WorkerPool;

/// Rank/shard work dispatcher for the macro-simulator's parallel phases.
///
/// Mirrors the shape of an MPI communicator: a fixed member count
/// ([`threads`](Self::threads)) and collective entry points that return only
/// after every member finished. Implementations must run task indices
/// `0..tasks` exactly once each; they may use any schedule.
pub trait SimCommunicator {
    /// Number of OS threads that participate in a dispatch (including the
    /// caller). Always ≥ 1.
    fn threads(&self) -> usize;

    /// Run `f(i, &mut states[i])` for every `i in 0..states.len()`, possibly
    /// on worker threads, returning once all tasks completed.
    fn run_with<S: Send, F: Fn(usize, &mut S) + Sync>(&self, states: &mut [S], f: F);

    /// Run `f(i)` for every `i in 0..tasks`.
    fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        let mut units = vec![(); tasks];
        self.run_with(&mut units, |i, _| f(i));
    }
}

/// Inline execution on the calling thread, in index order.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialCommunicator;

impl SimCommunicator for SerialCommunicator {
    fn threads(&self) -> usize {
        1
    }

    fn run_with<S: Send, F: Fn(usize, &mut S) + Sync>(&self, states: &mut [S], f: F) {
        for (i, s) in states.iter_mut().enumerate() {
            f(i, s);
        }
    }

    fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        for i in 0..tasks {
            f(i);
        }
    }
}

/// Dispatch onto a simulator-owned [`WorkerPool`]. Created once per
/// [`MacroSim`](crate::macrosim::MacroSim) when `SimConfig::threads > 1`;
/// workers persist across steps so steady-state dispatch allocates nothing.
#[derive(Debug)]
pub struct PooledCommunicator {
    pool: WorkerPool,
}

impl PooledCommunicator {
    /// Pool with `threads` participants (caller + `threads - 1` workers).
    pub fn new(threads: usize) -> PooledCommunicator {
        assert!(threads >= 1, "a communicator needs at least one thread");
        PooledCommunicator {
            pool: WorkerPool::new(threads),
        }
    }

    /// The underlying pool, for phases that talk to pool-native APIs
    /// (e.g. `ShardedMesh::rebuild_on`).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

impl SimCommunicator for PooledCommunicator {
    fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn run_with<S: Send, F: Fn(usize, &mut S) + Sync>(&self, states: &mut [S], f: F) {
        self.pool.run_with(states, f);
    }

    fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        self.pool.run(tasks, f);
    }
}

/// The macro-simulator's communicator: [`SerialCommunicator`] at one
/// thread — the single-owner case of every kernel in `crate::par` — and a
/// [`PooledCommunicator`] above that.
#[derive(Debug)]
pub(crate) enum SimExec {
    Serial(SerialCommunicator),
    Pooled(PooledCommunicator),
}

impl SimExec {
    pub(crate) fn new(threads: usize) -> SimExec {
        if threads > 1 {
            SimExec::Pooled(PooledCommunicator::new(threads))
        } else {
            SimExec::Serial(SerialCommunicator)
        }
    }

    /// The pool, for phases with pool-native entry points.
    pub(crate) fn pooled(&self) -> Option<&PooledCommunicator> {
        match self {
            SimExec::Serial(_) => None,
            SimExec::Pooled(p) => Some(p),
        }
    }
}

impl SimCommunicator for SimExec {
    fn threads(&self) -> usize {
        match self {
            SimExec::Serial(c) => c.threads(),
            SimExec::Pooled(c) => c.threads(),
        }
    }

    fn run_with<S: Send, F: Fn(usize, &mut S) + Sync>(&self, states: &mut [S], f: F) {
        match self {
            SimExec::Serial(c) => c.run_with(states, f),
            SimExec::Pooled(c) => c.run_with(states, f),
        }
    }

    fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        match self {
            SimExec::Serial(c) => c.run(tasks, f),
            SimExec::Pooled(c) => c.run(tasks, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_sum<C: SimCommunicator>(comm: &C, n: usize) -> u64 {
        let mut partials = vec![0u64; comm.threads().min(n.max(1))];
        let t = partials.len();
        comm.run_with(&mut partials, |i, acc| {
            let lo = i * n / t;
            let hi = (i + 1) * n / t;
            for v in lo..hi {
                *acc += (v * v) as u64;
            }
        });
        partials.iter().sum()
    }

    #[test]
    fn serial_and_pooled_communicators_agree() {
        let serial = square_sum(&SerialCommunicator, 1000);
        for threads in [1, 2, 4] {
            let pooled = PooledCommunicator::new(threads);
            assert_eq!(pooled.threads(), threads);
            assert_eq!(square_sum(&pooled, 1000), serial);
        }
    }

    #[test]
    fn default_run_covers_every_index_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits: Vec<AtomicU32> = (0..37).map(|_| AtomicU32::new(0)).collect();
        let pooled = PooledCommunicator::new(3);
        pooled.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        SerialCommunicator.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
    }
}
