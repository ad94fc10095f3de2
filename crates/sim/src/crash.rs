//! Crash-fault injection for the durability layer.
//!
//! `d2pr-store` labels every I/O boundary of its write-ahead path with a
//! [`yield_point`](d2pr_core::exec::yield_point) (`store.*` — see the
//! placement map in `d2pr_core::exec`). This module installs hooks that
//! count those events and *kill the run* at the `k`-th one by unwinding
//! with a typed [`CrashSignal`] — simulating a process crash between any
//! two I/O steps. An in-process crash has exactly the right semantics
//! for single-file durability testing: every completed `write` is
//! visible to recovery, every not-yet-executed operation is not (the
//! event fires immediately *before* the operation it names), so the
//! `k`-th event boundary enumerates every prefix of the I/O sequence.
//!
//! [`run_store_scenario`] drives a seed-derived workload to a crash
//! point, recovers the store cold, and checks the recovery contract.
//! Half the seed sweep folds node churn into the stream (grow,
//! tombstone, grow), so crashes also land inside node-op log frames and
//! recovery must rebuild the grown id space and the tombstone set; the
//! cold references below are tombstone-masked the same way publication
//! is. The contract:
//!
//! 1. **No acknowledged generation is lost, nothing unacknowledged is
//!    invented** — the recovered generation is at least the last ingest
//!    that returned to the caller and at most one beyond it (the
//!    in-flight record may have become durable before the crash).
//! 2. **Recovered ranks are real** — they match an independent cold
//!    solve of the graph at the recovered generation to ≤ 1e-8 L1.
//! 3. **The store stays serviceable** — the remaining batches ingest on
//!    the recovered store and the final state again matches a cold
//!    solve.
//!
//! Concurrency is intentionally *not* simulated here: the spawn hook
//! falls through to a real `std` thread, because the property under test
//! is the durability protocol's I/O ordering, not the publication
//! interleaving (the scheduler scenario owns that).

use crate::scenario::add_node_churn;
use d2pr_core::exec::hooks::{self, SimHooks, SimJoin};
use d2pr_core::pagerank::{pagerank, PageRankConfig};
use d2pr_core::transition::TransitionModel;
use d2pr_experiments::evolving::churn_stream;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::generators::barabasi_albert;
use d2pr_store::durable::{DurableServingEngine, StoreOptions};
use d2pr_store::StoreError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};

const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };
const TOLERANCE: f64 = 1e-11;
/// L1 budget for recovered-vs-cold-solve parity at [`TOLERANCE`].
const PARITY_EPS: f64 = 1e-8;

fn solver_config() -> PageRankConfig {
    PageRankConfig {
        tolerance: TOLERANCE,
        max_iterations: 2_000,
        ..Default::default()
    }
}

/// The panic payload of an injected crash — typed so the driver can tell
/// a deliberate kill from a genuine bug unwinding out of the store.
#[derive(Debug, Clone)]
pub struct CrashSignal {
    /// The `store.*` label the run was killed at.
    pub label: &'static str,
    /// The label's argument (shard index).
    pub arg: usize,
    /// Zero-based index of the fatal event in the run's `store.*` stream.
    pub event_index: u64,
}

/// Silence the default panic printer for [`CrashSignal`] unwinds (they
/// are expected control flow under injection); everything else keeps the
/// previous hook. Installed once per process.
fn silence_crash_signals() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Hooks that count `store.*` events and kill the run at the chosen one.
/// Spawns fall back to real `std` threads (see module docs).
struct CrashHooks {
    seen: AtomicU64,
    crash_at: Option<u64>,
}

struct StdJoin(std::thread::JoinHandle<()>);

impl SimJoin for StdJoin {
    fn join(self: Box<Self>) {
        let _ = self.0.join();
    }
}

impl SimHooks for CrashHooks {
    fn event(&self, label: &'static str, arg: usize) {
        if !label.starts_with("store.") {
            return;
        }
        let index = self.seen.fetch_add(1, Ordering::Relaxed);
        if Some(index) == self.crash_at {
            std::panic::panic_any(CrashSignal {
                label,
                arg,
                event_index: index,
            });
        }
    }

    fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> Box<dyn SimJoin> {
        Box::new(StdJoin(
            std::thread::Builder::new()
                .name(name)
                .spawn(f)
                .expect("spawn worker"),
        ))
    }
}

/// Workload parameters of one crash-injection run, derived from the seed.
#[derive(Debug, Clone)]
pub struct StoreScenarioConfig {
    /// Drives the graph, the batch stream, and the crash point.
    pub seed: u64,
    /// Graph size.
    pub nodes: usize,
    /// Churn batches the writer streams before (attempting to) finish.
    pub batches: usize,
    /// Snapshot cadence handed to the store (0 = never, so the whole
    /// history rides the log).
    pub snapshot_every: u64,
    /// Kill the run at this zero-based `store.*` event; `None` (or a
    /// value beyond the run's event count) runs to completion, which is
    /// itself a valid case — recovery after a clean shutdown.
    pub crash_at: Option<u64>,
    /// Fold node churn into the stream (grow, tombstone, grow — see
    /// [`crate::scenario`]), so the crash sweep also kills the store in
    /// the middle of node-op log frames and recovery must rebuild the
    /// grown id space and the tombstone set.
    pub node_churn: bool,
}

impl StoreScenarioConfig {
    /// The standard seed-derived workload. The crash point is drawn from
    /// a range slightly beyond the expected event count, so a sweep also
    /// covers crash-free runs.
    pub fn from_seed(seed: u64) -> Self {
        let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let batches = 3 + ((mix >> 24) % 4) as usize;
        let event_bound = 16 + 12 * batches as u64;
        StoreScenarioConfig {
            seed,
            nodes: [40, 60, 90][(mix % 3) as usize],
            batches,
            snapshot_every: [0, 2, 3][((mix >> 8) % 3) as usize],
            crash_at: Some((mix >> 32) % event_bound),
            node_churn: (mix >> 40) % 2 == 1,
        }
    }
}

/// What one crash-injection run did and verified.
#[derive(Debug, Clone)]
pub struct StoreCrashReport {
    /// The injected crash, if the run reached its crash point
    /// (label, event index).
    pub crashed: Option<(&'static str, u64)>,
    /// Ingests acknowledged to the caller before the crash (or all of
    /// them on a crash-free run).
    pub acked_before_crash: u64,
    /// The generation recovery resumed at (`None` when the crash
    /// predates the initial snapshot commit, so no store was ever born).
    pub recovered_generation: Option<u64>,
    /// The generation after resuming the remaining batches.
    pub final_generation: u64,
    /// Total `store.*` events the run emitted (crash-free runs only
    /// count to the end; crashed runs count to the kill).
    pub store_events: u64,
}

/// The graph after replaying `upto` batches onto `base`, plus the ids the
/// serving layer holds tombstoned at that generation (removed nodes join
/// the set, every endpoint of an effective insert revives — the same rule
/// `ServingEngine` applies on ingest and on recovery).
fn world_at(
    base: &CsrGraph,
    batches: &[EdgeBatch],
    upto: u64,
) -> (CsrGraph, std::collections::BTreeSet<u32>) {
    let mut dg = DeltaGraph::new(base.clone()).expect("unweighted base");
    let mut removed = std::collections::BTreeSet::new();
    for b in &batches[..upto as usize] {
        let outcome = dg.apply_batch(b).expect("pre-validated batch");
        removed.extend(outcome.delta.removed_nodes.iter().copied());
        for &(u, v) in &outcome.delta.inserted {
            removed.remove(&u);
            removed.remove(&v);
        }
    }
    (dg.into_graph(), removed)
}

/// Cold reference for one generation: solve the replayed graph, then mask
/// the tombstoned ids to 0.0 exactly as publication does.
fn cold_scores_at(base: &CsrGraph, batches: &[EdgeBatch], upto: u64) -> Vec<f64> {
    let (graph, tombstoned) = world_at(base, batches, upto);
    let mut cold = pagerank(&graph, MODEL, &solver_config()).scores;
    for &v in &tombstoned {
        cold[v as usize] = 0.0;
    }
    cold
}

fn parity(store: &DurableServingEngine, cold: &[f64]) -> f64 {
    let mut scores = Vec::new();
    store.reader().snapshot_into(&mut scores);
    scores.iter().zip(cold).map(|(a, b)| (a - b).abs()).sum()
}

/// Run one seeded crash-injection scenario end to end (see module docs
/// for the three contract checks).
///
/// # Errors
/// A human-readable description of the first contract violation; the
/// returned string plus the seed is a complete reproducer.
pub fn run_store_scenario(cfg: &StoreScenarioConfig) -> Result<StoreCrashReport, String> {
    silence_crash_signals();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5709_AB1E);
    let base =
        barabasi_albert(cfg.nodes, 2, cfg.seed ^ 0x0DD5).map_err(|e| format!("generator: {e}"))?;
    let mut batches =
        churn_stream(&base, cfg.batches, 0.15, &mut rng).map_err(|e| format!("churn: {e}"))?;
    if cfg.node_churn {
        let victim = (cfg.seed as u32).wrapping_mul(2_654_435_761) % cfg.nodes as u32;
        add_node_churn(&mut batches, cfg.nodes as u32, victim);
    }
    let opts = StoreOptions {
        snapshot_every: cfg.snapshot_every,
        retain_snapshots: 2,
    };
    let dir = std::env::temp_dir().join(format!("d2pr-crash-{}-{}", cfg.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Step 1: run the workload under injection hooks.
    let hooks_impl = Arc::new(CrashHooks {
        seen: AtomicU64::new(0),
        crash_at: cfg.crash_at,
    });
    let acked = AtomicU64::new(0);
    let created = AtomicBool::new(false);
    let outcome = {
        let dir = dir.clone();
        let base = base.clone();
        let batches = &batches;
        let acked = &acked;
        let created = &created;
        let hooks_impl: Arc<dyn SimHooks> = hooks_impl.clone();
        catch_unwind(AssertUnwindSafe(move || -> Result<(), String> {
            let _guard = hooks::install(hooks_impl);
            let mut store =
                DurableServingEngine::create(&dir, base, MODEL, solver_config(), 1, opts)
                    .map_err(|e| format!("create: {e}"))?;
            created.store(true, Ordering::Relaxed);
            for b in batches {
                store.ingest(b).map_err(|e| format!("ingest: {e}"))?;
                acked.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        }))
    };
    let acked = acked.load(Ordering::Relaxed);
    let created = created.load(Ordering::Relaxed);
    let crashed = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => return Err(format!("store error without injection: {msg}")),
        Err(payload) => match payload.downcast::<CrashSignal>() {
            Ok(signal) => Some((signal.label, signal.event_index)),
            Err(other) => {
                let msg = other
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| other.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                return Err(format!("genuine panic under injection: {msg}"));
            }
        },
    };
    let store_events = hooks_impl.seen.load(Ordering::Relaxed);

    // Step 2: recover cold (no hooks) and check the contract.
    let recovery = DurableServingEngine::open(&dir, 1, opts);
    let (mut store, recovered_generation) = match recovery {
        Ok((store, report)) => {
            if report.recovered_generation != store.generation() {
                return Err("report and engine disagree on the recovered generation".into());
            }
            (store, report.recovered_generation)
        }
        Err(StoreError::NoDurableState { .. }) if !created && acked == 0 => {
            // The crash predates the initial snapshot commit: no state
            // was ever acknowledged, so "nothing to recover" honors the
            // contract. The store is simply re-created.
            let _ = std::fs::remove_dir_all(&dir);
            return Ok(StoreCrashReport {
                crashed,
                acked_before_crash: 0,
                recovered_generation: None,
                final_generation: 0,
                store_events,
            });
        }
        Err(e) => return Err(format!("recovery failed: {e}")),
    };

    // Check 1: recovered ∈ [acked, acked + 1] — nothing acknowledged is
    // lost, at most the one in-flight record is ahead.
    if recovered_generation < acked || recovered_generation > acked + 1 {
        return Err(format!(
            "recovered generation {recovered_generation} outside [{acked}, {}]",
            acked + 1
        ));
    }

    // Check 2: recovered ranks match a cold solve at that generation
    // (tombstone-masked, like publication).
    let cold = cold_scores_at(&base, &batches, recovered_generation);
    let l1 = parity(&store, &cold);
    if l1 > PARITY_EPS {
        return Err(format!(
            "recovered ranks diverge from cold solve at generation \
             {recovered_generation}: L1 {l1:.3e} (crash: {crashed:?})"
        ));
    }

    // Check 3: the recovered store stays serviceable — finish the stream
    // and re-check parity at the end.
    for b in &batches[recovered_generation as usize..] {
        store
            .ingest(b)
            .map_err(|e| format!("post-recovery ingest: {e}"))?;
    }
    let final_generation = store.generation();
    if final_generation != batches.len() as u64 {
        return Err(format!(
            "resumed store finished at generation {final_generation}, \
             expected {}",
            batches.len()
        ));
    }
    let cold = cold_scores_at(&base, &batches, final_generation);
    let l1 = parity(&store, &cold);
    if l1 > PARITY_EPS {
        return Err(format!(
            "post-recovery ranks diverge from cold solve: L1 {l1:.3e}"
        ));
    }

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(StoreCrashReport {
        crashed,
        acked_before_crash: acked,
        recovered_generation: Some(recovered_generation),
        final_generation,
        store_events,
    })
}
