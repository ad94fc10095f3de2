//! Persistent worker pool: OS threads spawned once per
//! [`Engine`](crate::engine::Engine) and parked between solve calls.
//!
//! Before this module, every pooled sweep ran inside `std::thread::scope`:
//! correct and borrow-friendly, but it spawned and joined one OS thread per
//! worker on *every* solve call — a fixed cost of tens to hundreds of
//! microseconds that dominates exactly the serving path the residual
//! localization made cheap (single-edge refreshes in low-single-digit
//! milliseconds). `WorkerPool` moves the spawn to engine construction:
//! workers park on a reusable `Barrier` pair, a solve publishes its
//! per-call shared state as a type-erased job, and the same threads serve
//! every iteration of every solve for the engine's whole lifetime
//! (including [`EngineState`](crate::engine::EngineState) revivals, which
//! carry the pool across snapshot generations).
//!
//! # Soundness protocol
//!
//! A job is a `&(dyn Fn(usize) + Sync)` whose lifetime is erased to be
//! storable in the long-lived pool. The erasure is sound because
//! `WorkerPool::run` brackets every access: the job pointer is published
//! *before* the start barrier and workers only dereference it *between*
//! the start barrier and their return to the parking loop, which `run`
//! does not outlive (it blocks on the end barrier until every worker has
//! finished the job). The barriers establish the happens-before edges in
//! both directions, exactly like the scoped version did.

use crate::exec::{sim_event, spawn_worker, ExecBarrier, ExecJoin};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cumulative OS threads spawned by all [`WorkerPool`]s in this process.
/// Observability hook for the zero-spawns-per-solve contract: steady-state
/// serving must leave this counter untouched (asserted in
/// `tests/pool_contract.rs`, which runs as its own process because this
/// counter is process-global).
static POOL_THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total worker threads spawned process-wide (see `POOL_THREADS_SPAWNED`).
pub fn pool_threads_spawned() -> usize {
    POOL_THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// Type-erased job pointer (see module docs for the soundness protocol).
type JobPtr = *const (dyn Fn(usize) + Sync + 'static);

/// State shared between the pool owner and its parked workers.
struct PoolCore {
    /// Workers + owner rendezvous releasing a job (or the exit signal).
    start: ExecBarrier,
    /// Workers + owner rendezvous after every worker finished the job.
    end: ExecBarrier,
    /// The published job; `None` between runs.
    job: UnsafeCell<Option<JobPtr>>,
    /// Set (before a final `start` wait) to terminate the workers.
    exit: AtomicBool,
}

// SAFETY: `job` is written only by the pool owner while workers are parked
// before the start barrier and read by workers only after it — the barrier
// pair serializes every access. The raw job pointer always targets a
// `Sync` closure (enforced by `WorkerPool::run`'s signature), so sharing
// and moving the cell across threads is sound.
unsafe impl Sync for PoolCore {}
unsafe impl Send for PoolCore {}

/// A set of parked OS worker threads that outlives individual solve calls.
pub(crate) struct WorkerPool {
    core: Arc<PoolCore>,
    handles: Vec<ExecJoin>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` parked threads (the only place this crate spawns
    /// solver threads).
    pub(crate) fn spawn(workers: usize) -> Self {
        let core = Arc::new(PoolCore {
            start: ExecBarrier::new(workers + 1),
            end: ExecBarrier::new(workers + 1),
            job: UnsafeCell::new(None),
            exit: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|w| {
                let core = Arc::clone(&core);
                spawn_worker(format!("d2pr-pool-{w}"), move || worker_main(w, &core))
            })
            .collect();
        POOL_THREADS_SPAWNED.fetch_add(workers, Ordering::Relaxed);
        Self {
            core,
            handles,
            workers,
        }
    }

    /// Number of worker threads (the pool owner participates in barriers
    /// but is not counted).
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Run `job(w)` on every parked worker `w` while `driver()` runs on the
    /// calling thread; returns `driver`'s result once every worker has
    /// finished the job.
    ///
    /// The driver must make the job return — jobs that park on their own
    /// internal barriers (the sweep's `worker_loop`, the parallel push's
    /// phase loop) are released by a shutdown broadcast the driver issues
    /// before returning; a driver that forgets deadlocks, exactly as the
    /// scoped version would have.
    pub(crate) fn run<R>(&self, job: &(dyn Fn(usize) + Sync), driver: impl FnOnce() -> R) -> R {
        // SAFETY (lifetime erasure): `job` outlives this call, and workers
        // dereference the pointer only between the two barriers below.
        let ptr: JobPtr = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), JobPtr>(
                job as *const (dyn Fn(usize) + Sync),
            )
        };
        // SAFETY: workers are parked before `start`; exclusive access.
        unsafe { *self.core.job.get() = Some(ptr) };
        self.core.start.wait();
        let guard = AbortOnUnwind("driver");
        let out = driver();
        drop(guard);
        self.core.end.wait();
        // SAFETY: workers are parked again after `end`.
        unsafe { *self.core.job.get() = None };
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.core.exit.store(true, Ordering::Release);
        self.core.start.wait();
        for h in self.handles.drain(..) {
            h.join();
        }
    }
}

/// Aborts the process if dropped during a panic. Unwinding cannot be
/// allowed on either side of the barrier protocol: a *worker* that
/// unwinds out of its job never reaches the end barrier (the owner hangs
/// forever), and a *driver* that unwinds out of [`WorkerPool::run`] frees
/// the job closure and the shared state — barriers included — while
/// workers still reference them (use-after-free). `thread::scope` offered
/// at worst a deadlock with memory kept alive; with parked threads the
/// only safe response is to abort, which also surfaces the bug
/// immediately with the panic message already printed.
struct AbortOnUnwind(&'static str);

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "d2pr pool {} panicked; aborting (the barrier protocol cannot recover)",
                self.0
            );
            std::process::abort();
        }
    }
}

/// Parking loop of one pool worker.
fn worker_main(w: usize, core: &PoolCore) {
    loop {
        core.start.wait();
        if core.exit.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: published before the start barrier; see module docs.
        let job = unsafe { (*core.job.get()).expect("job published before start barrier") };
        let guard = AbortOnUnwind("worker");
        // Inside the abort guard on purpose: a fault the harness injects
        // at this point must take the real abort path.
        sim_event("pool.job.run", w);
        // SAFETY: the pointee outlives the run (the owner blocks on the
        // end barrier until this call returns).
        unsafe { (*job)(w) };
        drop(guard);
        core.end.wait();
    }
}

/// Test support for `tests/pool_contract.rs`: run one pool job that
/// panics on worker 0. Must never return — [`AbortOnUnwind`] turns the
/// worker's unwind into a process abort (the subprocess test asserts
/// exactly that: abort, not a deadlocked barrier pair).
#[doc(hidden)]
pub fn run_panicking_job_for_tests(workers: usize) {
    let pool = WorkerPool::spawn(workers);
    let job = |w: usize| {
        if w == 0 {
            panic!("injected job panic (pool contract test)");
        }
    };
    pool.run(&job, || ());
    unreachable!("a panicking pool job must abort the process");
}

/// Test support for the sim harness's chaos layer: spawn a pool, run one
/// benign job, drop the pool. On its own this returns normally; with a
/// `pool.job.run` panic injected by the harness it must abort the process
/// (the injection point sits inside the worker's abort-on-unwind guard).
#[doc(hidden)]
pub fn run_benign_job_for_tests(workers: usize) {
    let pool = WorkerPool::spawn(workers);
    let job = |_w: usize| {};
    pool.run(&job, || ());
}

/// A `&mut [T]` smuggled across the pool boundary — the one shared-slice
/// carrier for every barrier-phased protocol in this crate (the engine's
/// pooled sweep and the residual module's parallel drain). Soundness
/// protocol: phases (delimited by barriers) assign each index to exactly
/// one accessor — workers touch disjoint index sets, or the owner has
/// exclusive access while workers are parked; the barriers publish the
/// writes between phases.
#[derive(Debug)]
pub(crate) struct SharedMut<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Send for SharedMut<T> {}
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    pub(crate) fn new(v: &mut [T]) -> Self {
        Self {
            ptr: v.as_mut_ptr(),
            len: v.len(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// SAFETY: caller must hold exclusive access to index `i` under the
    /// phase protocol.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn at_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        unsafe { &mut *self.ptr.add(i) }
    }

    /// SAFETY: caller must guarantee no concurrent writer of index `i`.
    pub(crate) unsafe fn at(&self, i: usize) -> &T {
        debug_assert!(i < self.len);
        unsafe { &*self.ptr.add(i) }
    }

    /// SAFETY: caller must hold exclusive access to the whole slice.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice_mut(&self) -> &mut [T] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// SAFETY: caller must guarantee no concurrent writes to the window.
    pub(crate) unsafe fn slice(&self) -> &[T] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// SAFETY: caller must hold exclusive access to `range` specifically.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn range_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        debug_assert!(range.end <= self.len);
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
        }
    }
}

/// Cache-line-padded per-worker output cell, written by exactly one worker
/// during a phase and read by the pool owner between phases — the shared
/// partials carrier of every barrier-phased protocol in this crate.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PadCell<T>(pub(crate) UnsafeCell<T>);

// SAFETY: per the phase protocol above — cell `w` is written only by
// worker `w` during a phase and read only while workers are parked.
unsafe impl<T: Send> Sync for PadCell<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_jobs_repeatedly_on_the_same_workers() {
        // NOTE: no assertions on the process-wide spawn counter here —
        // other tests in this binary create pooled engines concurrently.
        // The race-free zero-spawn contract test lives in its own
        // integration binary (`tests/pool_contract.rs`).
        let pool = WorkerPool::spawn(3);
        assert_eq!(pool.workers(), 3);
        let hits = AtomicU64::new(0);
        for round in 0..10u64 {
            let job = |w: usize| {
                hits.fetch_add(1 + w as u64 + round, Ordering::Relaxed);
            };
            pool.run(&job, || ());
        }
        // 10 rounds × (3 workers + Σw) + Σ_round 3·round.
        let expect: u64 = (0..10u64).map(|r| 3 + (1 + 2) + 3 * r).sum();
        assert_eq!(hits.load(Ordering::Relaxed), expect);
        drop(pool);
    }

    #[test]
    fn driver_result_is_returned_after_workers_finish() {
        let pool = WorkerPool::spawn(2);
        let sum = AtomicU64::new(0);
        let job = |w: usize| {
            sum.fetch_add(w as u64 + 1, Ordering::Relaxed);
        };
        let r = pool.run(&job, || 42);
        assert_eq!(r, 42);
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }
}
