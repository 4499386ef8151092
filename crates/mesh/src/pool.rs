//! Persistent worker pool for deterministic in-process parallelism.
//!
//! Every parallel phase in the workspace (CSR builds, shard refreshes,
//! macrosim rank loops, ledger flushes, hierarchical stage-2 placement,
//! multilevel proposal sweeps) dispatches through [`WorkerPool`], and each
//! of those kernels has exactly one body: the thread count is a property of
//! the pool, not a second code path. The pool keeps `threads - 1` parked OS
//! threads alive for its whole lifetime so steady-state dispatch allocates
//! nothing and pays no thread-spawn cost; the calling thread always
//! participates as worker 0. `WorkerPool::new(1)` spawns nothing and runs
//! every job inline on the caller, in task-index order.
//!
//! A pool runs one job at a time. A caller that finds it busy — another
//! thread dispatching on the same pool (two service workers sharing
//! [`WorkerPool::global`]), or a task dispatching from inside a running job
//! — does not wait: it runs its own tasks inline, in index order. Slot
//! ownership makes that output identical to a pooled run, so contention
//! costs parallelism, never correctness, and nested dispatch cannot
//! deadlock.
//!
//! Determinism contract: the pool intentionally exposes *only* fork-join
//! task-index parallelism. Tasks are pulled from an atomic counter, so the
//! assignment of task -> OS thread is racy, but callers are required to make
//! each task's *output* a pure function of its task index (slot ownership:
//! a task owns a contiguous index range and is the only writer of it). Under
//! that rule the merged result is bitwise identical to a serial loop over
//! task indices regardless of thread count or scheduling.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// An erased fork-join job. `data` points at a stack-allocated context in
/// `dispatch`; workers only dereference it between the generation bump and
/// the matching `active == 0` hand-back, which the caller blocks on, so the
/// borrow is always live while a worker can observe the pointer.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: `data` is only dereferenced by the monomorphized `call` trampoline,
// which requires the referenced context to be `Sync`; `dispatch` enforces
// that via its `F: Sync` / `S: Send` bounds.
unsafe impl Send for Job {}

struct PoolState {
    generation: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current generation's job.
    active: usize,
    shutdown: bool,
}

struct Shared {
    /// Dispatch guard: held (true) while one caller owns the pool's job
    /// slot. A caller that fails to take it runs its tasks inline.
    busy: AtomicBool,
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A persistent fork-join pool; see the module docs for the determinism
/// contract callers must follow.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// Context shared between the caller and the workers for one dispatch.
struct Ctx<'a, S, F> {
    next: AtomicUsize,
    tasks: usize,
    states: *mut S,
    f: &'a F,
    panicked: &'a AtomicBool,
}

// SAFETY: workers only access disjoint `states` elements (guarded by the
// atomic task counter: each index is claimed exactly once) and the shared
// `f`/`panicked` references, which the bounds below require to be Sync.
unsafe impl<S: Send, F: Sync> Sync for Ctx<'_, S, F> {}

fn pull_tasks<S: Send, F: Fn(usize, &mut S) + Sync>(ctx: &Ctx<'_, S, F>) {
    loop {
        if ctx.panicked.load(Ordering::Relaxed) {
            break;
        }
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.tasks {
            break;
        }
        // SAFETY: `i < tasks == states.len()` and the atomic counter hands
        // each index to exactly one worker, so this &mut is unaliased.
        let state = unsafe { &mut *ctx.states.add(i) };
        if catch_unwind(AssertUnwindSafe(|| (ctx.f)(i, state))).is_err() {
            ctx.panicked.store(true, Ordering::SeqCst);
        }
    }
}

unsafe fn trampoline<S: Send, F: Fn(usize, &mut S) + Sync>(data: *const (), worker: usize) {
    // SAFETY: `data` was erased from a `&Ctx<S, F>` with these exact type
    // parameters in `dispatch`, and the caller keeps the context alive until
    // every worker has checked back in.
    let ctx = unsafe { &*(data as *const Ctx<'_, S, F>) };
    let _ = worker;
    pull_tasks(ctx);
}

impl WorkerPool {
    /// Create a pool that runs jobs on `threads` OS threads total
    /// (`threads - 1` spawned workers plus the calling thread).
    /// `threads == 1` spawns nothing and every job runs inline.
    pub fn new(threads: usize) -> WorkerPool {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            busy: AtomicBool::new(false),
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..=workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("amr-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Total threads that can work on a job, including the caller.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Process-wide pool sized to the host's available parallelism (capped
    /// at 8, matching the historical CSR-build thread cap). Lives for the
    /// whole process so repeated builds never pay thread-spawn overhead.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(8);
            WorkerPool::new(threads)
        })
    }

    /// Run `f(i, &mut states[i])` for every `i`, distributing tasks across
    /// the pool. Blocks until all tasks finish. Panics in tasks are caught,
    /// remaining tasks are abandoned, and the panic is re-raised here.
    ///
    /// If the pool is already running a job (a concurrent caller, or a
    /// nested call from inside a task), the tasks run inline on the calling
    /// thread in index order instead.
    pub fn run_with<S: Send, F: Fn(usize, &mut S) + Sync>(&self, states: &mut [S], f: F) {
        let tasks = states.len();
        let guard = if tasks <= 1 { None } else { self.try_acquire() };
        let Some(_guard) = guard else {
            for (i, state) in states.iter_mut().enumerate() {
                f(i, state);
            }
            return;
        };
        let panicked = AtomicBool::new(false);
        let ctx = Ctx {
            next: AtomicUsize::new(0),
            tasks,
            states: states.as_mut_ptr(),
            f: &f,
            panicked: &panicked,
        };
        self.dispatch(Job {
            data: (&ctx as *const Ctx<'_, S, F>).cast(),
            call: trampoline::<S, F>,
        });
        if panicked.load(Ordering::SeqCst) {
            panic!("worker pool task panicked");
        }
    }

    /// Multi-tenant dispatch: run `f(slot, &mut states[slot])` for every
    /// slot named in `order`, distributing the tasks across the pool.
    /// Unlike [`run_with`](Self::run_with), only the named slots are
    /// touched, and *priority* is the caller's: the pool's shared task
    /// counter hands out `order` front to back, so listing heavy tenants
    /// first lets light ones backfill idle workers — cross-tenant work
    /// stealing without a scheduler.
    ///
    /// `order` entries must be distinct, in-bounds indices into `states`
    /// (distinctness is enforced whenever the call actually dispatches in
    /// parallel — a duplicate would alias one state across workers; the
    /// serial fallback processes entries in order, where a duplicate cannot
    /// alias). Single-thread pools and `order.len() <= 1` run inline with
    /// zero allocation, preserving the warm dispatch path.
    pub fn run_order<S: Send, F: Fn(usize, &mut S) + Sync>(
        &self,
        order: &[usize],
        states: &mut [S],
        f: F,
    ) {
        let n = states.len();
        for &slot in order {
            assert!(
                slot < n,
                "run_order: slot {slot} out of bounds ({n} states)"
            );
        }
        if order.len() <= 1 || self.handles.is_empty() {
            for &slot in order {
                f(slot, &mut states[slot]);
            }
            return;
        }
        let mut seen = vec![false; n];
        for &slot in order {
            assert!(!seen[slot], "run_order: duplicate slot {slot}");
            seen[slot] = true;
        }
        let out = Disjoint::new(states);
        self.run(order.len(), |i| {
            let slot = order[i];
            // SAFETY: `order` entries are distinct and in-bounds (asserted
            // above) and the task counter hands each `i` to exactly one
            // worker, so each named state is mutated by exactly one task.
            let state = unsafe { &mut out.slice(slot, slot + 1)[0] };
            f(slot, state);
        });
    }

    /// Run `f(i)` for every `i in 0..tasks` with no per-task state.
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        // Zero-sized states: `states.add(i)` never materializes storage.
        let mut states = [(); 0];
        let tasks_arr: &mut [()] = if tasks == 0 {
            &mut states
        } else {
            unsafe { make_unit_slice(tasks) }
        };
        self.run_with(tasks_arr, |i, _unit| f(i));
    }

    /// Take the dispatch guard, or `None` when the pool has no workers or
    /// another dispatch holds it (the caller then runs inline).
    fn try_acquire(&self) -> Option<DispatchGuard<'_>> {
        if self.handles.is_empty() {
            return None;
        }
        self.shared
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| DispatchGuard(&self.shared.busy))
    }

    /// Post `job`, help run it, and wait for all workers to check back in.
    /// The caller must hold the dispatch guard.
    fn dispatch(&self, job: Job) {
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(st.active == 0, "dispatch without the guard");
            st.generation = st.generation.wrapping_add(1);
            st.job = Some(job);
            st.active = self.handles.len();
            self.shared.work_cv.notify_all();
        }
        // The caller is worker 0 and always participates.
        unsafe { (job.call)(job.data, 0) };
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
    }
}

/// Releases the dispatch guard on drop, including when a task panic is
/// re-raised after the join.
struct DispatchGuard<'a>(&'a AtomicBool);

impl Drop for DispatchGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Build a `&mut [()]` of arbitrary length without backing storage.
///
/// SAFETY: `()` is a ZST, so any well-aligned dangling pointer is valid for
/// any number of elements; no reads or writes ever touch memory.
unsafe fn make_unit_slice<'a>(len: usize) -> &'a mut [()] {
    unsafe { std::slice::from_raw_parts_mut(std::ptr::NonNull::<()>::dangling().as_ptr(), len) }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    break st.job.expect("generation bumped without a job");
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // SAFETY: the dispatching caller keeps the job context alive until
        // `active` drains back to zero below.
        unsafe { (job.call)(job.data, index) };
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Caller-guaranteed disjoint mutable access to one slice from many tasks.
///
/// The pool's slot-ownership pattern hands each task a contiguous range of a
/// shared output buffer. Rust cannot express "these `&mut` subslices are
/// disjoint" across a `Fn` closure captured by many threads, so `Disjoint`
/// erases the borrow to a raw pointer and re-materializes bounds-checked
/// subslices on the worker side.
///
/// Safety contract (asserted where checkable, otherwise on the caller):
/// ranges taken via [`slice`](Disjoint::slice) and indices written via
/// [`write`](Disjoint::write) must not overlap between concurrent tasks.
pub struct Disjoint<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: Disjoint is a borrow of `&mut [T]` split across tasks; sending or
// sharing it is safe for T: Send because every element has exactly one
// writer (the caller's disjointness contract).
unsafe impl<T: Send> Send for Disjoint<'_, T> {}
unsafe impl<T: Send> Sync for Disjoint<'_, T> {}

impl<'a, T> Disjoint<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Disjoint<'a, T> {
        Disjoint {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrow `lo..hi` as a mutable slice.
    ///
    /// # Safety
    /// No other live reborrow (from any task) may overlap `lo..hi`.
    pub unsafe fn slice(&self, lo: usize, hi: usize) -> &'a mut [T] {
        assert!(lo <= hi && hi <= self.len, "disjoint range out of bounds");
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// Write a single element.
    ///
    /// # Safety
    /// No other task may concurrently read or write index `i`.
    pub unsafe fn write(&self, i: usize, value: T) {
        assert!(i < self.len, "disjoint write out of bounds");
        unsafe { self.ptr.add(i).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_with_matches_serial_loop() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let mut states: Vec<u64> = vec![0; 33];
            pool.run_with(&mut states, |i, s| *s = (i as u64) * 3 + 1);
            let expect: Vec<u64> = (0..33).map(|i| i * 3 + 1).collect();
            assert_eq!(states, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_order_touches_named_slots_only_at_any_thread_count() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let mut states: Vec<u64> = vec![0; 16];
            // Priority order: heavy tenants first, several slots skipped.
            let order = [9, 3, 14, 0, 7, 11, 2];
            pool.run_order(&order, &mut states, |slot, s| *s = slot as u64 + 100);
            for (i, &v) in states.iter().enumerate() {
                let expect = if order.contains(&i) {
                    i as u64 + 100
                } else {
                    0
                };
                assert_eq!(v, expect, "threads={threads} slot={i}");
            }
        }
    }

    #[test]
    fn run_order_empty_and_single_are_inline() {
        let pool = WorkerPool::new(4);
        let mut states: Vec<u64> = vec![0; 4];
        pool.run_order(&[], &mut states, |_, s| *s = 1);
        assert_eq!(states, vec![0; 4]);
        pool.run_order(&[2], &mut states, |slot, s| *s = slot as u64 + 1);
        assert_eq!(states, vec![0, 0, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate slot")]
    fn run_order_rejects_duplicates_when_parallel() {
        let pool = WorkerPool::new(4);
        let mut states: Vec<u64> = vec![0; 4];
        pool.run_order(&[1, 2, 1], &mut states, |_, s| *s += 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn run_order_rejects_out_of_bounds_slots() {
        let pool = WorkerPool::new(2);
        let mut states: Vec<u64> = vec![0; 4];
        pool.run_order(&[0, 4], &mut states, |_, s| *s += 1);
    }

    #[test]
    fn run_covers_every_task_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let mut total = 0u64;
        for round in 0..50u64 {
            let mut states: Vec<u64> = vec![0; 8];
            pool.run_with(&mut states, |i, s| *s = round + i as u64);
            total += states.iter().sum::<u64>();
        }
        let expect: u64 = (0..50u64).map(|r| (0..8).map(|i| r + i).sum::<u64>()).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn panicking_task_propagates_to_caller() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must stay usable after a panicked job.
        let mut states = vec![0u32; 4];
        pool.run_with(&mut states, |i, s| *s = i as u32);
        assert_eq!(states, [0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_dispatchers_share_one_pool() {
        // Two threads hammer one pool: whichever finds it busy runs its
        // tasks inline, so neither corrupts the other's job nor hangs.
        use std::sync::atomic::AtomicU64;
        let pool = WorkerPool::new(2);
        std::thread::scope(|scope| {
            for caller in 0..2u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..20_000u64 {
                        let hits: [AtomicU64; 8] = std::array::from_fn(|_| AtomicU64::new(0));
                        pool.run(hits.len(), |i| {
                            hits[i].fetch_add(caller + round + i as u64, Ordering::Relaxed);
                        });
                        for (i, h) in hits.iter().enumerate() {
                            let got = h.load(Ordering::Relaxed);
                            assert_eq!(got, caller + round + i as u64, "round {round}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn nested_run_inside_a_task_runs_inline() {
        let pool = WorkerPool::new(3);
        let mut outer = vec![0u64; 6];
        pool.run_with(&mut outer, |i, total| {
            let mut inner = vec![0u64; 5];
            pool.run_with(&mut inner, |j, s| *s = (i * 10 + j) as u64);
            *total = inner.iter().sum();
        });
        let expect: Vec<u64> = (0..6u64).map(|i| 5 * i * 10 + 10).collect();
        assert_eq!(outer, expect);
    }

    #[test]
    fn disjoint_ranges_partition_one_buffer() {
        let pool = WorkerPool::new(4);
        let mut buf = vec![0u32; 100];
        let bounds = [0usize, 13, 50, 77, 100];
        {
            let out = Disjoint::new(&mut buf);
            pool.run(bounds.len() - 1, |t| {
                let chunk = unsafe { out.slice(bounds[t], bounds[t + 1]) };
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (bounds[t] + k) as u32;
                }
            });
        }
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(buf, expect);
    }

    #[test]
    fn zero_tasks_and_single_thread_paths_are_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        pool.run(0, |_| panic!("must not run"));
        let mut states: Vec<u8> = vec![];
        pool.run_with(&mut states, |_, _| panic!("must not run"));
        let mut one = [7u8];
        pool.run_with(&mut one, |i, s| *s = i as u8);
        assert_eq!(one, [0]);
    }
}
