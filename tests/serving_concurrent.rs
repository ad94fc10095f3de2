//! Concurrent-read stress test for the double-buffered serving layer.
//!
//! Reader threads spin on a [`ScoreReader`] — `get`, `top_k`, and full
//! `snapshot_into` — while the writer loops churn batches through
//! [`ServingEngine::ingest`]. The contract under test:
//!
//! * **No torn reads.** Every snapshot a reader observes carries a
//!   generation in `0..=batches`, and its scores match an independent
//!   *cold* solve of exactly that generation's graph to 1e-8 — a mix of
//!   two generations (or a half-written back buffer) cannot satisfy that.
//! * **Monotonicity.** Each reader's observed generation sequence never
//!   decreases, across every `EngineState` handoff the writer performs.
//! * **No blocking on refresh.** Reads land *during* in-flight refreshes.
//!   On real threads this is probabilistic, so the threaded test asserts
//!   only correctness (any schedule is a valid schedule); the *coverage*
//!   claim — reads observed mid-refresh, writers spinning on pinned
//!   readers — is asserted deterministically by the `d2pr-sim` variant at
//!   the bottom of this file, which counts those interleavings per
//!   scheduler step instead of hoping the OS produces them in time.

use d2pr_core::engine::Engine;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::ServingEngine;
use d2pr_core::transition::TransitionModel;
use d2pr_experiments::evolving::churn_stream;
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::generators::barabasi_albert;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const NODES: usize = 3_000;
const BATCHES: usize = 12;
const READERS: usize = 3;
/// Hard bound on reader rounds: readers stop at the writer's flag like
/// before, but a wedged writer can no longer spin them forever — the
/// failure then surfaces as an assertion instead of a hung test.
const MAX_READER_ROUNDS: usize = 200_000;
const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };

/// Tight enough that any two converged solves of the same generation sit
/// well within the 1e-8 parity budget of each other.
fn config() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-10,
        max_iterations: 2_000,
        ..Default::default()
    }
}

/// Deterministic churn stream via the experiments' shared sampler: churn
/// 0.0 hits the two-mutation floor — one delete plus one fresh insert
/// per batch.
fn churn_batches(graph: &d2pr_graph::csr::CsrGraph, seed: u64) -> Vec<EdgeBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    churn_stream(graph, BATCHES, 0.0, &mut rng).unwrap()
}

/// Sets the reader stop flag when dropped — **including during a writer
/// panic's unwind**, so a failed `ingest` assertion surfaces instead of
/// hanging the scope join on readers that would spin forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// What one reader thread brings home.
struct ReaderLog {
    /// First full snapshot observed of each generation.
    snapshots: HashMap<u64, Vec<f64>>,
    /// Every generation observation, in observation order.
    sequence: Vec<u64>,
    /// Total successful point reads (`get`).
    point_reads: u64,
}

#[test]
fn readers_never_observe_torn_or_stale_state() {
    let graph = barabasi_albert(NODES, 4, 0x5E21).unwrap();
    let batches = churn_batches(&graph, 0xC0FFEE);
    let mut serving = ServingEngine::new(graph.clone(), MODEL, config(), 2).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let logs: Vec<ReaderLog> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(READERS);
        for r in 0..READERS {
            let reader = serving.reader();
            let stop = Arc::clone(&stop);
            handles.push(scope.spawn(move || {
                let mut log = ReaderLog {
                    snapshots: HashMap::new(),
                    sequence: Vec::new(),
                    point_reads: 0,
                };
                let mut buf = Vec::new();
                let mut node = r as u32;
                for round in 0..MAX_READER_ROUNDS {
                    // Point reads: the wait-free hot path.
                    for _ in 0..16 {
                        node =
                            node.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % NODES as u32;
                        let (score, generation) = reader
                            .get_with_generation(node)
                            .expect("in-range node always readable");
                        assert!(
                            score.is_finite() && score >= 0.0,
                            "published scores are finite and non-negative"
                        );
                        log.sequence.push(generation);
                        log.point_reads += 1;
                    }
                    // Full snapshots: the torn-read detector.
                    let generation = reader.snapshot_into(&mut buf);
                    log.sequence.push(generation);
                    log.snapshots
                        .entry(generation)
                        .or_insert_with(|| buf.clone());
                    // Exercise top_k under contention too.
                    let top = reader.top_k(5);
                    assert_eq!(top.len(), 5);
                    assert!(top[0].1 >= top[4].1);
                    // Flag checked after a full round: every reader logs at
                    // least one observation even if the writer wins the race.
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    assert!(
                        round + 1 < MAX_READER_ROUNDS,
                        "writer never released the readers"
                    );
                }
                log
            }));
        }

        // The writer: stream every churn batch while readers hammer away.
        // The guard stops the readers even if an assertion below panics —
        // otherwise the scope join would hang on spinning readers and
        // mask the failure.
        let stop_guard = StopOnDrop(&stop);
        for batch in &batches {
            let refresh = serving.ingest(batch).expect("refresh succeeds");
            assert!(refresh.converged, "every refresh converges at 1e-10");
        }
        drop(stop_guard);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every generation's expected scores, from independent cold solves of
    // the replayed snapshots.
    let mut expected: Vec<Vec<f64>> = Vec::with_capacity(BATCHES + 1);
    let mut dg = DeltaGraph::new(graph).unwrap();
    for step in 0..=BATCHES {
        if step > 0 {
            dg.apply_batch(&batches[step - 1]).unwrap();
        }
        let snapshot = dg.snapshot();
        let mut engine = Engine::new(&snapshot).with_config(config()).unwrap();
        expected.push(engine.solve_model(MODEL).unwrap().scores);
    }

    let mut total_reads = 0u64;
    for (r, log) in logs.iter().enumerate() {
        // Monotonicity across every EngineState handoff.
        for w in log.sequence.windows(2) {
            assert!(
                w[0] <= w[1],
                "reader {r}: generation went backwards ({} -> {})",
                w[0],
                w[1]
            );
        }
        // Every observed snapshot is a fully published generation: parity
        // with that generation's cold solve at 1e-8 (a torn buffer mixing
        // two generations would diverge by the rank shift of a whole
        // churn batch, orders of magnitude above this).
        for (&generation, observed) in &log.snapshots {
            assert!(
                generation <= BATCHES as u64,
                "reader {r}: generation {generation} was never published"
            );
            let cold = &expected[generation as usize];
            let l1: f64 = cold.iter().zip(observed).map(|(a, b)| (a - b).abs()).sum();
            assert!(
                l1 < 1e-8,
                "reader {r}: generation {generation} diverges from its cold solve by {l1:.3e}"
            );
        }
        total_reads += log.point_reads;
    }
    // Coverage heuristics ("≥ 3 distinct generations", "reads dwarf
    // refreshes") used to live here; they depended on the OS scheduler
    // winning a wall-clock race. `simulated_schedules_cover_refresh_windows`
    // below asserts that coverage deterministically instead. Here only the
    // structural guarantee remains: every reader completed ≥ 1 full round.
    assert!(
        total_reads >= (READERS * 16) as u64,
        "every reader logs at least one full round, got {total_reads} reads"
    );
}

/// The deterministic twin of the threaded stress test above: the same
/// reader/writer/shard machinery runs as cooperatively-stepped logical
/// tasks under the `d2pr-sim` scheduler, where "reads land during
/// refreshes" and "writers wait out pinned readers" are *counted per
/// scheduler step* across a seed batch instead of hoped for. Every run
/// also checks the full invariant set (monotonicity, published-only reads,
/// drain liveness, shared-structure identity, cold-solve parity).
#[test]
fn simulated_schedules_cover_refresh_windows() {
    use d2pr_sim::scenario::{run_scenario, ScenarioConfig};

    let mut mid_refresh_reads = 0;
    let mut drain_spins = 0;
    let mut steps = 0;
    for seed in 100..116 {
        let cfg = ScenarioConfig::from_seed(seed);
        let report = run_scenario(&cfg).unwrap_or_else(|f| panic!("seed={seed} failed:\n{f}"));
        // Writer liveness, counted in scheduler steps: every batch on
        // every shard published, on a bounded schedule.
        assert_eq!(
            report.metrics.publishes,
            2 * cfg.batches as u64,
            "seed={seed}: writer did not publish every generation"
        );
        assert!(report.metrics.steps > 0);
        mid_refresh_reads += report.metrics.mid_refresh_reads;
        drain_spins += report.metrics.drain_spins;
        steps += report.metrics.steps;
    }
    // The deterministic replacements for the old wall-clock heuristics.
    assert!(
        mid_refresh_reads > 0,
        "no schedule in the batch landed a read inside a refresh window ({steps} steps)"
    );
    assert!(
        drain_spins > 0,
        "no schedule in the batch made a writer wait out a pinned reader ({steps} steps)"
    );
}

#[test]
fn generation_is_monotone_and_exact_across_handoffs() {
    // Single-threaded control: the generation counter advances by exactly
    // one per ingest and the reader observes each step.
    let graph = barabasi_albert(600, 3, 0xAB).unwrap();
    let batches = churn_batches(&graph, 7);
    let mut serving = ServingEngine::new(graph, MODEL, config(), 1).unwrap();
    let reader = serving.reader();
    assert_eq!(reader.generation(), 0);
    for (i, batch) in batches.iter().enumerate().take(5) {
        let refresh = serving.ingest(batch).unwrap();
        assert_eq!(refresh.generation, i as u64 + 1);
        assert_eq!(reader.generation(), i as u64 + 1);
        let (_, generation) = reader.get_with_generation(0).unwrap();
        assert_eq!(generation, i as u64 + 1);
    }
}
