//! Execution shim for the concurrency surface: real `std` primitives in
//! production, scheduler-controlled ones under deterministic simulation.
//!
//! Every concurrency decision this crate makes — spawning a pool worker,
//! parking on a barrier, spinning on a pin count — funnels through the
//! tiny indirection layer in this module. In a normal build (feature
//! `sim` off) the layer compiles down to the exact `std::sync::Barrier` /
//! `std::thread::spawn` calls the code used before it existed, and the
//! yield-point markers (`sim_event`) compile to nothing: the hot path
//! pays zero cost. With feature `sim` enabled, a harness (the `d2pr-sim`
//! crate) can install per-thread [`hooks::SimHooks`] that take over those
//! decisions: barriers block inside the harness scheduler, spawned
//! workers become cooperatively-stepped logical tasks, and every
//! `sim_event` becomes a scheduling point where the harness may run any
//! other task — which is what lets a single `u64` seed drive a
//! reproducible interleaving of readers, writers, and pool workers.
//!
//! The hook is **thread-local**: code running on a thread without an
//! installed hook (every production thread, even in a `sim`-enabled test
//! build) takes the `std` path unconditionally. Mixing is sound because
//! the choice is made per object at construction time — a barrier built
//! on a hooked thread is a simulated barrier for *all* its participants
//! (the harness spawns those participants itself).
//!
//! # Yield-point placement
//!
//! Labels are stable identifiers consumed by the harness's shadow model
//! (see `d2pr-sim`): the event fires *immediately before* the operation
//! it names executes, with no other event in between, so the shadow state
//! machine tracks the real protocol state exactly at scheduling
//! granularity. The placement map:
//!
//! | label | site | operation it precedes |
//! |---|---|---|
//! | `serving.pin.load` | `PublishCore::pin` | load of `front` |
//! | `serving.pin.inc` | `PublishCore::pin` | `fetch_add` on the slot's pin count |
//! | `serving.pin.validate` | `PublishCore::pin` | revalidating load of `front` |
//! | `serving.pin.ok` | `PublishCore::pin` | returning the validated pin |
//! | `serving.pin.retry` | `PublishCore::pin` | `fetch_sub` backing off a stale pin |
//! | `serving.unpin` | `PublishCore::unpin` | `fetch_sub` releasing the pin |
//! | `serving.read` | `Pinned::scores` | reading the pinned buffer |
//! | `serving.write.claim` | `PublishCore::begin_write` | claiming the back slot |
//! | `serving.write.drain` | `PublishCore::begin_write` | one drain-loop re-check |
//! | `serving.write.begin` | `PublishCore::begin_write` | returning the drained slot |
//! | `serving.index.write` | `ServingEngine::ingest_with` | repairing/rebuilding the back slot's top-k index |
//! | `serving.publish` | `PublishCore::publish` | the publication store sequence |
//! | `pool.job.run` | `pool::worker_main` | one job execution on worker `arg` |
//! | `engine.iter` | serial + pooled sweep drivers | one power iteration |
//! | `residual.round` | serial + parallel drains | one threshold round |
//!
//! The serving events carry `arg = core_id * 2 + slot` so a harness
//! hosting several `PublishCore`s (sharded runs) can tell them apart.
//!
//! Downstream crates mark their own boundaries through the public
//! [`yield_point`] — the durability layer (`d2pr-store`) labels every
//! I/O step of its write-ahead path so a crash harness can kill the
//! process between any two of them (`arg` = shard index):
//!
//! | label | operation it precedes |
//! |---|---|
//! | `store.log.append.frame` | writing a log record's frame header |
//! | `store.log.append.body` | writing the record body after its header |
//! | `store.log.fsync` | fsync of the log file after an append |
//! | `store.serve.ingest` | handing the durable batch to `ServingEngine::ingest` |
//! | `store.ingest.done` | returning the published outcome to the caller |
//! | `store.snap.write` | writing a snapshot's bytes to its temp file |
//! | `store.snap.fsync` | fsync of the snapshot temp file |
//! | `store.snap.rename` | atomic rename of the temp file into place |
//! | `store.snap.dirsync` | fsync of the data directory after the rename |
//! | `store.log.rotate` | creating the next log segment after a snapshot |
//! | `store.log.retire` | deleting a log segment wholly covered by snapshots |

#[cfg(feature = "sim")]
use std::sync::Arc;

/// Hook traits and installation — the surface `d2pr-sim` implements.
#[cfg(feature = "sim")]
pub mod hooks {
    use std::cell::RefCell;
    use std::sync::Arc;

    /// A simulated barrier: blocks the calling logical task inside the
    /// harness scheduler until all parties arrive.
    pub trait SimBarrier: Send + Sync {
        /// Rendezvous of all parties (same contract as
        /// [`std::sync::Barrier::wait`], minus the leader flag).
        fn wait(&self);
    }

    /// Join handle of a simulated worker task.
    pub trait SimJoin: Send {
        /// Block the calling logical task until the target task finishes.
        fn join(self: Box<Self>);
    }

    /// Per-thread harness hooks: when installed, the shim routes barrier
    /// construction, worker spawning, and yield points through them.
    pub trait SimHooks: Send + Sync {
        /// A scheduling point labelled per the module-level placement map.
        fn event(&self, label: &'static str, arg: usize);
        /// Spawn `f` as a new logical task named `name`.
        fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> Box<dyn SimJoin>;
        /// Build a simulated barrier for `parties` participants.
        fn barrier(&self, parties: usize) -> Arc<dyn SimBarrier>;
    }

    thread_local! {
        static CURRENT: RefCell<Option<Arc<dyn SimHooks>>> = const { RefCell::new(None) };
    }

    /// Install `hooks` on the current thread until the returned guard
    /// drops. The harness installs hooks on every logical-task thread it
    /// creates; production threads never call this.
    pub fn install(hooks: Arc<dyn SimHooks>) -> InstallGuard {
        CURRENT.with(|c| *c.borrow_mut() = Some(hooks));
        InstallGuard(())
    }

    /// The hooks installed on the current thread, if any.
    pub fn current() -> Option<Arc<dyn SimHooks>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// RAII guard of [`install`]: clears the thread's hooks on drop.
    pub struct InstallGuard(());

    impl Drop for InstallGuard {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = None);
        }
    }
}

/// A labelled scheduling point for downstream crates: compiles to nothing
/// unless feature `sim` is on *and* the calling thread has harness hooks
/// installed, in which case the harness may deschedule the task — or, in
/// a crash-injection harness, kill it — immediately **before** the
/// operation the label names executes. See the module docs for the label
/// placement map (the `store.*` rows are emitted through this entry
/// point by `d2pr-store`).
#[inline(always)]
pub fn yield_point(label: &'static str, arg: usize) {
    sim_event(label, arg);
}

/// A scheduling point (no-op unless feature `sim` is on *and* the current
/// thread has hooks installed). See the module docs for the label map.
#[inline(always)]
pub(crate) fn sim_event(label: &'static str, arg: usize) {
    #[cfg(feature = "sim")]
    if let Some(h) = hooks::current() {
        h.event(label, arg);
    }
    #[cfg(not(feature = "sim"))]
    let _ = (label, arg);
}

/// A barrier that is either the real [`std::sync::Barrier`] or a
/// harness-scheduled one, decided once at construction by the presence of
/// thread-local hooks.
pub(crate) enum ExecBarrier {
    /// Production: a real OS barrier.
    Std(std::sync::Barrier),
    /// Simulation: the harness serializes the rendezvous.
    #[cfg(feature = "sim")]
    Sim(Arc<dyn hooks::SimBarrier>),
}

impl ExecBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        #[cfg(feature = "sim")]
        if let Some(h) = hooks::current() {
            return ExecBarrier::Sim(h.barrier(parties));
        }
        ExecBarrier::Std(std::sync::Barrier::new(parties))
    }

    #[inline]
    pub(crate) fn wait(&self) {
        match self {
            ExecBarrier::Std(b) => {
                b.wait();
            }
            #[cfg(feature = "sim")]
            ExecBarrier::Sim(b) => b.wait(),
        }
    }
}

/// Join handle of a worker spawned through [`spawn_worker`].
pub(crate) enum ExecJoin {
    /// A real OS thread handle.
    Std(std::thread::JoinHandle<()>),
    /// A harness logical-task handle.
    #[cfg(feature = "sim")]
    Sim(Box<dyn hooks::SimJoin>),
}

impl ExecJoin {
    pub(crate) fn join(self) {
        match self {
            ExecJoin::Std(h) => {
                let _ = h.join();
            }
            #[cfg(feature = "sim")]
            ExecJoin::Sim(h) => h.join(),
        }
    }
}

/// Spawn a worker: a real named OS thread in production, a logical task
/// when the calling thread has harness hooks installed.
pub(crate) fn spawn_worker(name: String, f: impl FnOnce() + Send + 'static) -> ExecJoin {
    #[cfg(feature = "sim")]
    if let Some(h) = hooks::current() {
        return ExecJoin::Sim(h.spawn(name, Box::new(f)));
    }
    ExecJoin::Std(
        std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("spawn pool worker"),
    )
}

// The planted publish-ordering bug (`sim-bug`) only makes sense when the
// harness that catches it can run.
#[cfg(all(feature = "sim-bug", not(feature = "sim")))]
compile_error!("feature `sim-bug` is a mutation-test switch for the sim harness; enable `sim` too");
