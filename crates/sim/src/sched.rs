//! The deterministic scheduler.
//!
//! Logical tasks are real OS threads serialized by a token-passing
//! scheduler: exactly one task holds `Status::Running` at any moment, and
//! every other task thread is parked on the scheduler condvar. A task
//! hands the token back at each *yield point* — a [`sim_event`] emitted by
//! the instrumented core (`d2pr_core::exec`) or a join — and the scheduler
//! picks the next task to run. Which task gets picked is a pure function
//! of the run's `u64` seed (plus an optional replayed choice prefix), so a
//! failing interleaving is reproducible from `seed=<s>` alone.
//!
//! [`sim_event`]: d2pr_core::exec
//!
//! # Grant-time semantics
//!
//! A task arriving at a yield point parks *before* executing the operation
//! the event names. All bookkeeping — the shadow-model transition, chaos
//! injection, metrics — happens when the scheduler **grants** the task,
//! because at that moment the real operation executes immediately with no
//! other task interleaved: the shadow state mirrors reality exactly at
//! scheduling granularity. Checking at arrival instead would let the
//! shadow lead reality and flag races that have not happened yet.
//!
//! # Freeze on failure
//!
//! On an invariant violation, deadlock, task panic, or blown step budget
//! the scheduler records the failure and *freezes*: every task thread
//! parks forever and [`Sim::run`] returns the failure. Frozen threads are
//! deliberately leaked rather than resumed or unwound: each one stopped at
//! a yield point in the middle of a protocol step (a reader holding a pin,
//! a writer between claiming and publishing a slot), in a state the
//! failure has just shown to be broken. Resuming them would run the
//! schedule past the failure, and unwinding them would run drop glue
//! (unpins, slot releases) against that state; either can add secondary
//! panics or hangs that bury the reported failure and its trace. The leak
//! is bounded: a handful of parked threads per failing run, each idle on
//! a condvar.
//!
//! # Scheduling policy
//!
//! A PCT-flavoured mix: each task carries a random priority; 3/4 of
//! decisions run the highest-priority ready task (with occasional random
//! priority change points), 1/4 pick uniformly at random. One special
//! rule: a task arriving at `serving.write.drain` has its priority
//! re-randomized — a permanently high-priority writer would otherwise spin
//! in the drain loop forever while the pinned reader it waits for never
//! gets scheduled. Under replay, recorded choices are consumed as
//! positions into the ready list; past the recorded prefix the policy is
//! rotation (`decision % ready_count`), which round-robins through spin
//! loops instead of livelocking on one.

use crate::shadow::Shadow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use d2pr_core::exec::hooks::{self, SimHooks, SimJoin};

/// How many trailing trace lines a failure report keeps.
const TRACE_TAIL: usize = 48;

/// Fault-injection plan for one run.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Panic the task granted the `n`-th occurrence (1-based) of the named
    /// yield point.
    pub panic_at: Option<(String, u64)>,
    /// Slow-reader mode: a task holding a pin is excluded from scheduling
    /// for up to this many consecutive decisions (while any other task is
    /// ready), forcing writers to spin in their drain loop. `0` disables.
    pub pin_hold_steps: u64,
}

/// Parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Seed for the schedule RNG (and, by convention, the scenario).
    pub seed: u64,
    /// Scheduling-decision budget; exceeding it fails the run
    /// (`step-budget`), catching harness-level livelocks.
    pub max_steps: u64,
    /// Replay: consume these recorded choice positions first, then fall
    /// back to rotation. Used by the shrinker.
    pub replay: Option<Vec<u32>>,
    /// Fault injection.
    pub chaos: ChaosPlan,
}

impl SimOptions {
    /// Defaults for `seed`: 200k-step budget, no replay, no chaos.
    pub fn from_seed(seed: u64) -> Self {
        SimOptions {
            seed,
            max_steps: 200_000,
            replay: None,
            chaos: ChaosPlan::default(),
        }
    }
}

/// Coverage counters of one run (all schedule-dependent).
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Total scheduling decisions.
    pub steps: u64,
    /// Writer drain-loop re-checks that found a reader still pinned.
    pub drain_spins: u64,
    /// Generation publications observed.
    pub publishes: u64,
    /// Reader pin acquisitions retried because `front` moved mid-pin.
    pub pin_retries: u64,
    /// Reads granted while some shard had a refresh in flight.
    pub mid_refresh_reads: u64,
    /// Logical tasks spawned (scenario tasks and the readers they spawn).
    pub spawned_tasks: u64,
}

/// A successful run: the full choice record (replayable) plus metrics.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Every scheduling choice, as a position into the then-ready list.
    pub choices: Vec<u32>,
    /// Coverage counters.
    pub metrics: SimMetrics,
}

/// A failed run.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// Stable failure class: an invariant name from [`crate::shadow`],
    /// `invariant.parity`, `task-panic`, `deadlock`, or `step-budget`.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// The choice record up to the failure — replaying it reproduces the
    /// failure deterministically.
    pub choices: Vec<u32>,
    /// Scheduling decisions taken.
    pub steps: u64,
    /// The last few granted events, for eyeballing the interleaving.
    pub trace_tail: Vec<String>,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} (after {} steps, {} choices)",
            self.kind,
            self.message,
            self.steps,
            self.choices.len()
        )?;
        for line in &self.trace_tail {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Running,
    JoinWait(usize),
    Finished,
}

struct Task {
    name: String,
    status: Status,
    prio: u64,
    /// Yield point this task is parked on (applied at grant).
    pending: Option<(&'static str, usize)>,
    /// Chaos: panic on the task thread right after this grant.
    panic_pending: bool,
    /// Consecutive decisions this pin-holding task has been excluded for.
    pin_hold: u64,
}

struct Sched {
    tasks: Vec<Task>,
    rng: StdRng,
    replay: Option<Vec<u32>>,
    choices: Vec<u32>,
    steps: u64,
    max_steps: u64,
    chaos: ChaosPlan,
    label_counts: HashMap<&'static str, u64>,
    metrics: SimMetrics,
    shadow: Shadow,
    trace: VecDeque<String>,
    failure: Option<SimFailure>,
    frozen: bool,
    live: usize,
    os_handles: Vec<JoinHandle<()>>,
}

impl Sched {
    fn trace_push(&mut self, line: String) {
        if self.trace.len() == TRACE_TAIL {
            self.trace.pop_front();
        }
        self.trace.push_back(line);
    }

    fn fail(&mut self, kind: &str, message: String) {
        self.frozen = true;
        if self.failure.is_some() {
            return;
        }
        self.failure = Some(SimFailure {
            kind: kind.to_string(),
            message,
            choices: self.choices.clone(),
            steps: self.steps,
            trace_tail: self.trace.iter().cloned().collect(),
        });
    }

    /// Pick and grant the next task. Called with the lock held, with no
    /// task currently `Running`.
    fn schedule_next(&mut self) {
        if self.frozen {
            return;
        }
        let ready: Vec<usize> = (0..self.tasks.len())
            .filter(|&t| self.tasks[t].status == Status::Ready)
            .collect();
        if ready.is_empty() {
            if self.live > 0 {
                let blocked: Vec<String> = self
                    .tasks
                    .iter()
                    .filter(|t| t.status != Status::Finished)
                    .map(|t| format!("{}:{:?}", t.name, t.status))
                    .collect();
                self.fail(
                    "deadlock",
                    format!("no runnable task among {} live: {blocked:?}", self.live),
                );
            }
            return;
        }

        // Slow-reader chaos: hold pinned tasks out of the ready set for up
        // to `pin_hold_steps` decisions — but never to the point of having
        // nothing to schedule.
        let mut eligible = ready.clone();
        if self.chaos.pin_hold_steps > 0 {
            let held: Vec<usize> = ready
                .iter()
                .copied()
                .filter(|&t| {
                    self.shadow.task_holds_pin(t)
                        && self.tasks[t].pin_hold < self.chaos.pin_hold_steps
                })
                .collect();
            if held.len() < ready.len() {
                for &t in &held {
                    self.tasks[t].pin_hold += 1;
                }
                eligible.retain(|t| !held.contains(t));
            }
        }

        self.steps += 1;
        if self.steps > self.max_steps {
            self.fail(
                "step-budget",
                format!("exceeded {} scheduling steps", self.max_steps),
            );
            return;
        }

        let pos = if let Some(rp) = &self.replay {
            let k = self.choices.len();
            if k < rp.len() {
                rp[k] as usize % eligible.len()
            } else {
                // Rotation completion: round-robins through spin loops so a
                // truncated prefix still drains instead of livelocking.
                k % eligible.len()
            }
        } else {
            // Occasional priority change point.
            if self.rng.gen_bool(0.1) {
                let i = self.rng.gen_range(0..eligible.len());
                self.tasks[eligible[i]].prio = self.rng.gen();
            }
            if self.rng.gen_bool(0.25) {
                self.rng.gen_range(0..eligible.len())
            } else {
                let mut best = 0;
                for (i, &t) in eligible.iter().enumerate() {
                    if self.tasks[t].prio > self.tasks[eligible[best]].prio {
                        best = i;
                    }
                }
                best
            }
        };
        self.choices.push(pos as u32);
        let chosen = eligible[pos];
        self.tasks[chosen].pin_hold = 0;

        if let Some((label, arg)) = self.tasks[chosen].pending.take() {
            self.trace_push(format!(
                "#{} t{}({}) {}[{}]",
                self.steps, chosen, self.tasks[chosen].name, label, arg
            ));
            let count = {
                let c = self.label_counts.entry(label).or_insert(0);
                *c += 1;
                *c
            };
            match label {
                "serving.write.drain" => self.metrics.drain_spins += 1,
                "serving.publish" => self.metrics.publishes += 1,
                "serving.pin.retry" => self.metrics.pin_retries += 1,
                "serving.read" if self.shadow.any_writing().is_some() => {
                    self.metrics.mid_refresh_reads += 1
                }
                _ => {}
            }
            if let Some((plabel, nth)) = &self.chaos.panic_at {
                if plabel == label && count == *nth {
                    self.tasks[chosen].panic_pending = true;
                }
            }
            if let Some(v) = self.shadow.apply(chosen, label, arg) {
                // The violating operation must not execute: leave the task
                // parked and freeze the run.
                self.tasks[chosen].pending = Some((label, arg));
                self.fail(v.kind, v.message);
                return;
            }
        } else {
            self.trace_push(format!(
                "#{} t{}({}) resume",
                self.steps, chosen, self.tasks[chosen].name
            ));
        }
        self.tasks[chosen].status = Status::Running;
    }
}

/// Shared scheduler core: the mutex-protected state plus the condvar every
/// task thread parks on.
struct SimCore {
    m: Mutex<Sched>,
    cv: Condvar,
}

/// Park the calling thread forever (the run is frozen). Never unwinds —
/// see the module docs for why frozen threads must not be torn down.
fn park_forever(core: &SimCore, mut g: MutexGuard<'_, Sched>) -> ! {
    loop {
        g = core.cv.wait(g).unwrap();
    }
}

thread_local! {
    static CURRENT_TASK: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

fn current_task_id() -> usize {
    CURRENT_TASK
        .with(|c| c.get())
        .expect("sim hook used from a thread that is not a sim task")
}

/// Block the calling task until it is granted `Running`, then execute a
/// pending chaos panic if one was attached to the grant.
fn wait_for_grant<'a>(
    core: &'a SimCore,
    mut g: MutexGuard<'a, Sched>,
    id: usize,
) -> MutexGuard<'a, Sched> {
    loop {
        if g.frozen {
            park_forever(core, g);
        }
        if g.tasks[id].status == Status::Running {
            return g;
        }
        g = core.cv.wait(g).unwrap();
    }
}

/// The [`SimHooks`] implementation installed on every task thread.
struct TaskHooks {
    core: Arc<SimCore>,
}

impl SimHooks for TaskHooks {
    fn event(&self, label: &'static str, arg: usize) {
        let id = current_task_id();
        let core = &*self.core;
        let mut s = core.m.lock().unwrap();
        if s.frozen {
            park_forever(core, s);
        }
        s.tasks[id].status = Status::Ready;
        s.tasks[id].pending = Some((label, arg));
        if label == "serving.write.drain" {
            // Keep a high-priority writer from starving the reader whose
            // unpin it is spinning on.
            s.tasks[id].prio = s.rng.gen();
        }
        s.schedule_next();
        core.cv.notify_all();
        let mut s = wait_for_grant(core, s, id);
        let chaos_panic = std::mem::take(&mut s.tasks[id].panic_pending);
        drop(s);
        if chaos_panic {
            panic!("chaos: injected panic at {label}[{arg}]");
        }
    }

    fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> Box<dyn SimJoin> {
        let target = spawn_task(&self.core, name, f);
        Box::new(JoinImpl {
            core: Arc::clone(&self.core),
            target,
        })
    }
}

struct JoinImpl {
    core: Arc<SimCore>,
    target: usize,
}

impl SimJoin for JoinImpl {
    fn join(self: Box<Self>) {
        let id = current_task_id();
        let core = &*self.core;
        let mut s = core.m.lock().unwrap();
        if s.frozen {
            park_forever(core, s);
        }
        if s.tasks[self.target].status == Status::Finished {
            return;
        }
        s.tasks[id].status = Status::JoinWait(self.target);
        s.schedule_next();
        core.cv.notify_all();
        let s = wait_for_grant(core, s, id);
        drop(s);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Register a task and start its OS thread. The thread parks until granted.
fn spawn_task(core: &Arc<SimCore>, name: String, f: Box<dyn FnOnce() + Send>) -> usize {
    let mut s = core.m.lock().unwrap();
    let id = s.tasks.len();
    let prio = s.rng.gen();
    s.tasks.push(Task {
        name: name.clone(),
        status: Status::Ready,
        prio,
        pending: None,
        panic_pending: false,
        pin_hold: 0,
    });
    s.live += 1;
    s.metrics.spawned_tasks += 1;

    let tcore = Arc::clone(core);
    let handle = std::thread::Builder::new()
        .name(format!("sim-{name}"))
        .stack_size(1 << 20)
        .spawn(move || {
            CURRENT_TASK.with(|c| c.set(Some(id)));
            let hooks_arc: Arc<dyn SimHooks> = Arc::new(TaskHooks {
                core: Arc::clone(&tcore),
            });
            let _guard = hooks::install(hooks_arc);
            {
                let s = tcore.m.lock().unwrap();
                let s = wait_for_grant(&tcore, s, id);
                drop(s);
            }
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut s = tcore.m.lock().unwrap();
            s.tasks[id].status = Status::Finished;
            s.live -= 1;
            for t in 0..s.tasks.len() {
                if s.tasks[t].status == Status::JoinWait(id) {
                    s.tasks[t].status = Status::Ready;
                }
            }
            match result {
                Ok(()) => s.schedule_next(),
                Err(payload) => {
                    let msg = panic_message(payload);
                    let name = s.tasks[id].name.clone();
                    s.fail("task-panic", format!("task {id} ({name}) panicked: {msg}"));
                }
            }
            tcore.cv.notify_all();
        })
        .expect("spawn sim task thread");
    s.os_handles.push(handle);
    drop(s);
    id
}

/// One simulation instance: spawn root tasks, then [`run`](Sim::run) it.
pub struct Sim {
    core: Arc<SimCore>,
}

impl Sim {
    /// Build a simulation from `opts`.
    pub fn new(opts: SimOptions) -> Self {
        Sim {
            core: Arc::new(SimCore {
                m: Mutex::new(Sched {
                    tasks: Vec::new(),
                    rng: StdRng::seed_from_u64(opts.seed ^ 0x5EED_5C4E_D01E_0000),
                    replay: opts.replay,
                    choices: Vec::new(),
                    steps: 0,
                    max_steps: opts.max_steps,
                    chaos: opts.chaos,
                    label_counts: HashMap::new(),
                    metrics: SimMetrics::default(),
                    shadow: Shadow::default(),
                    trace: VecDeque::new(),
                    failure: None,
                    frozen: false,
                    live: 0,
                    os_handles: Vec::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Spawn a root logical task (before [`run`](Sim::run)). Tasks spawned
    /// *during* the run (scenario readers) go through the
    /// installed hooks instead.
    pub fn spawn(&mut self, name: &str, f: impl FnOnce() + Send + 'static) {
        spawn_task(&self.core, name.to_string(), Box::new(f));
    }

    /// Drive the schedule to completion. `Ok` when every task finished;
    /// `Err` on the first invariant violation, deadlock, task panic, or
    /// blown step budget (task threads are then left parked — see the
    /// module docs on the bounded leak).
    pub fn run(self) -> Result<SimReport, SimFailure> {
        let core = &*self.core;
        let mut s = core.m.lock().unwrap();
        s.schedule_next();
        core.cv.notify_all();
        while s.failure.is_none() && s.live > 0 {
            s = core.cv.wait(s).unwrap();
        }
        if let Some(f) = s.failure.clone() {
            return Err(f);
        }
        s.metrics.steps = s.steps;
        let report = SimReport {
            choices: std::mem::take(&mut s.choices),
            metrics: s.metrics.clone(),
        };
        let handles = std::mem::take(&mut s.os_handles);
        drop(s);
        for h in handles {
            let _ = h.join();
        }
        Ok(report)
    }
}
