//! The standard reader/writer/shard scenario one seed drives.
//!
//! Every run builds a two-shard personalized [`ShardManager`] (two
//! teleport views over one shared transpose — the Arc-identity invariant
//! is only meaningful with ≥ 2 shards), spawns reader tasks that hammer
//! `get_with_generation` / `snapshot_into` / `top_k` while the writer
//! streams churn batches through `ingest_all`, and checks the five
//! invariants:
//!
//! 1. **Generation monotonicity** — each reader's observed generation
//!    sequence per shard never decreases (`invariant.monotonic`).
//! 2. **Published-only reads** — the shadow model rejects any read or pin
//!    of a slot being refreshed (`read-during-write`,
//!    `pinned-while-writing`; see [`crate::shadow`]).
//! 3. **Writer drain liveness** — a writer only enters the retiring slot
//!    once its pin count is zero (`write-begin-while-pinned`); a stuck
//!    drain surfaces as `deadlock` or `step-budget`.
//! 4. **Arc identity** — after every `ingest_all`, all shards still share
//!    one transpose structure (asserted in the writer task).
//! 5. **Score parity** — every snapshot a reader recorded matches an
//!    independent single-threaded cold solve of exactly that generation's
//!    graph and teleport (`invariant.parity`), checked post-run on the
//!    main thread.
//!
//! Scenario shape (graph size, read mix, whether a poisoned
//! batch is injected mid-stream, whether the stream grows and removes
//! nodes, slow-reader chaos) is itself derived from the seed, so a seed
//! sweep varies the workload as well as the schedule.
//!
//! Under node churn the parity check replicates the serving layer's
//! bookkeeping exactly: each shard's personalization vector is
//! zero-extended to the generation's grown id space, and tombstoned
//! nodes (removed, not yet revived by a later insert) are masked to 0.0
//! in the cold reference — so a reader that snapshots across a
//! node-growth publish sees the longer vector with the same scores the
//! single-threaded model predicts.

use crate::sched::{ChaosPlan, Sim, SimFailure, SimOptions, SimReport};
use d2pr_core::engine::Engine;
use d2pr_core::exec::hooks;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::{ScoreReader, ShardManager};
use d2pr_core::transition::TransitionModel;
use d2pr_experiments::evolving::churn_stream;
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::generators::barabasi_albert;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };
const SHARDS: usize = 2;
/// L1 budget for snapshot-vs-cold-solve parity; both sides converge to
/// `TOLERANCE`, so a torn or half-refreshed buffer overshoots this by
/// orders of magnitude.
const PARITY_EPS: f64 = 1e-6;
const TOLERANCE: f64 = 1e-9;

/// Workload parameters of one run, derived from the seed.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Drives the schedule RNG, the graph, and every knob below.
    pub seed: u64,
    /// Graph size (a small mix; every size refreshes through the same
    /// push, hybrid or warm-sweep path).
    pub nodes: usize,
    /// Churn batches the writer streams.
    pub batches: usize,
    /// Concurrent reader tasks.
    pub readers: usize,
    /// Read operations per reader task.
    pub reads_per_reader: usize,
    /// Inject an out-of-range batch mid-stream and assert the documented
    /// error contract (no generation advances on a failed `ingest_all`).
    pub invalid_batch: bool,
    /// Fold node churn into the stream: the first batch appends a node,
    /// a middle batch tombstones one, the last batch appends another —
    /// readers then cross node-growth publishes and tombstone masking
    /// while the parity check replicates the serving rules (see module
    /// docs).
    pub node_churn: bool,
    /// Fault injection forwarded to the scheduler.
    pub chaos: ChaosPlan,
    /// Scheduling-step budget.
    pub max_steps: u64,
}

impl ScenarioConfig {
    /// The standard seed-derived workload (see module docs).
    pub fn from_seed(seed: u64) -> Self {
        let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ScenarioConfig {
            seed,
            nodes: [48, 64, 96, 160][(mix % 4) as usize],
            batches: 3,
            readers: 2,
            reads_per_reader: 10 + ((mix >> 16) % 9) as usize,
            invalid_batch: seed % 7 == 3,
            node_churn: seed % 3 == 1,
            chaos: ChaosPlan {
                panic_at: None,
                pin_hold_steps: if seed % 5 == 2 { 40 } else { 0 },
            },
            max_steps: 200_000,
        }
    }

    fn pagerank(&self) -> PageRankConfig {
        PageRankConfig {
            tolerance: TOLERANCE,
            max_iterations: 500,
            ..Default::default()
        }
    }

    /// The per-shard teleport distributions (normalized by the engine).
    fn teleports(&self) -> Vec<Vec<f64>> {
        (0..SHARDS)
            .map(|s| {
                let mut t = vec![0.0; self.nodes];
                let spike = (self.seed as usize * 7 + s * 13 + 3) % self.nodes;
                t[spike] = 1.0;
                // A little mass everywhere keeps the solve well-conditioned.
                for x in t.iter_mut() {
                    *x += 0.05;
                }
                t
            })
            .collect()
    }
}

/// What one reader task records about one shard.
#[derive(Debug, Clone, Default)]
struct ShardLog {
    /// Every generation observation, in order.
    sequence: Vec<u64>,
    /// First full snapshot seen of each generation.
    snapshots: Vec<(u64, Vec<f64>)>,
}

fn lcg(x: u32) -> u32 {
    x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223)
}

/// Fold deterministic node churn into a sampled edge-churn stream over a
/// graph of `nodes` nodes: the first batch appends a fresh node wired to
/// a surviving anchor, a middle batch tombstones `victim`, and the last
/// batch appends a second node wired to the first arrival (so the grown
/// region stays connected). Shared with the store crash scenario.
pub(crate) fn add_node_churn(batches: &mut [EdgeBatch], nodes: u32, victim: u32) {
    let k = batches.len();
    assert!(k >= 3, "node churn needs grow/remove/grow batches");
    let victim = victim % nodes;
    let anchor = (victim + 1) % nodes;
    batches[0].add_nodes(1);
    batches[0].insert(nodes, anchor);
    batches[k / 2].remove_node(victim);
    batches[k - 1].add_nodes(1);
    batches[k - 1].insert(nodes + 1, nodes);
}

/// Run the standard scenario for `cfg` on a fresh schedule.
pub fn run_scenario(cfg: &ScenarioConfig) -> Result<SimReport, SimFailure> {
    run_scenario_with(cfg, None)
}

/// Run the standard scenario, optionally replaying a recorded choice
/// prefix (the shrinker's entry point — the chaos plan and workload come
/// from `cfg`, so replaying against the same config reproduces the run).
pub fn run_scenario_with(
    cfg: &ScenarioConfig,
    replay: Option<Vec<u32>>,
) -> Result<SimReport, SimFailure> {
    let graph = barabasi_albert(cfg.nodes, 3, cfg.seed).expect("scenario graph");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBA7C_4E55);
    let mut batches = churn_stream(&graph, cfg.batches, 0.0, &mut rng).expect("churn stream");
    if cfg.node_churn {
        let victim = lcg(cfg.seed as u32) % cfg.nodes as u32;
        add_node_churn(&mut batches, cfg.nodes as u32, victim);
    }
    let teleports = cfg.teleports();
    let pr = cfg.pagerank();

    let logs: Vec<Arc<Mutex<Option<Vec<ShardLog>>>>> = (0..cfg.readers)
        .map(|_| Arc::new(Mutex::new(None)))
        .collect();

    let mut sim = Sim::new(SimOptions {
        seed: cfg.seed,
        max_steps: cfg.max_steps,
        replay,
        chaos: cfg.chaos.clone(),
    });

    {
        let graph = graph.clone();
        let teleports = teleports.clone();
        let batches = batches.clone();
        let logs = logs.clone();
        let cfg = cfg.clone();
        sim.spawn("writer", move || {
            let mut mgr = ShardManager::personalized(&graph, &teleports, MODEL, pr)
                .expect("shard manager construction");
            let h = hooks::current().expect("writer runs as a sim task");
            for (r, slot) in logs.iter().enumerate() {
                let handles: Vec<ScoreReader> = mgr.readers();
                let slot = Arc::clone(slot);
                let (nodes, reads) = (cfg.nodes, cfg.reads_per_reader);
                drop(h.spawn(
                    format!("reader-{r}"),
                    Box::new(move || reader_main(r, handles, nodes, reads, slot)),
                ));
            }
            for (i, batch) in batches.iter().enumerate() {
                if cfg.invalid_batch && i == 1 {
                    let before: Vec<u64> = (0..SHARDS)
                        .map(|k| mgr.shard(k as u64).generation())
                        .collect();
                    let mut bad = EdgeBatch::new();
                    bad.insert(0, cfg.nodes as u32 + 7);
                    assert!(
                        mgr.ingest_all(&bad).is_err(),
                        "out-of-range batch must fail ingest_all"
                    );
                    let after: Vec<u64> = (0..SHARDS)
                        .map(|k| mgr.shard(k as u64).generation())
                        .collect();
                    assert_eq!(
                        before, after,
                        "a failed ingest_all must not advance any published generation"
                    );
                }
                let outcomes = mgr.ingest_all(batch).expect("ingest_all");
                assert_eq!(outcomes.len(), SHARDS);
                // Invariant 4: one shared transpose across every shard,
                // re-established on every generation.
                let s0 = mgr.shard(0).shared_structure().expect("live shard");
                for k in 1..SHARDS {
                    let sk = mgr.shard(k as u64).shared_structure().expect("live shard");
                    assert!(
                        Arc::ptr_eq(&s0, &sk),
                        "shard {k} diverged from the shared structure after ingest_all #{i}"
                    );
                }
                for k in 0..SHARDS {
                    assert_eq!(
                        mgr.shard(k as u64).generation(),
                        (i + 1) as u64,
                        "shard {k} generation after ingest_all #{i}"
                    );
                }
            }
        });
    }

    let report = sim.run()?;

    // Post-run invariants 1 and 5, on the main thread (no hooks, so the
    // cold solves below take the production code path).
    let mut expected: Vec<Vec<Vec<f64>>> = Vec::with_capacity(cfg.batches + 1);
    let mut dg = DeltaGraph::new(graph).expect("delta replay");
    let mut removed: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for g in 0..=cfg.batches {
        if g > 0 {
            let outcome = dg.apply_batch(&batches[g - 1]).expect("replay batch");
            // The serving layer's tombstone rule: removed nodes join the
            // set, every endpoint of an effective insert revives.
            removed.extend(outcome.delta.removed_nodes.iter().copied());
            for &(u, v) in &outcome.delta.inserted {
                removed.remove(&u);
                removed.remove(&v);
            }
        }
        let snap = dg.graph();
        let mut per_shard = Vec::with_capacity(SHARDS);
        for t in &teleports {
            // Arrivals get zero personalization mass — the same
            // zero-extension the serving engine applies to its stored
            // teleport on a growth ingest.
            let mut t = t.clone();
            t.resize(snap.num_nodes(), 0.0);
            let mut eng = Engine::new(snap)
                .with_config(cfg.pagerank())
                .expect("cold engine");
            eng.set_model(MODEL).expect("model");
            let mut scores = eng
                .solve_with_teleport(Some(&t))
                .expect("cold solve")
                .scores;
            // Tombstone masking: removed nodes publish 0.0.
            for &v in &removed {
                scores[v as usize] = 0.0;
            }
            per_shard.push(scores);
        }
        expected.push(per_shard);
    }

    let fail = |kind: &str, message: String| SimFailure {
        kind: kind.to_string(),
        message,
        choices: report.choices.clone(),
        steps: report.metrics.steps,
        trace_tail: Vec::new(),
    };
    for (r, slot) in logs.iter().enumerate() {
        let log = slot
            .lock()
            .unwrap()
            .take()
            .expect("reader finished, so its log is present");
        for (s, shard_log) in log.iter().enumerate() {
            for w in shard_log.sequence.windows(2) {
                if w[0] > w[1] {
                    return Err(fail(
                        "invariant.monotonic",
                        format!(
                            "reader {r} shard {s}: generation went backwards ({} -> {})",
                            w[0], w[1]
                        ),
                    ));
                }
            }
            for (gen, observed) in &shard_log.snapshots {
                if *gen > cfg.batches as u64 {
                    return Err(fail(
                        "invariant.generation-bound",
                        format!("reader {r} shard {s}: generation {gen} was never published"),
                    ));
                }
                let cold = &expected[*gen as usize][s];
                if cold.len() != observed.len() {
                    return Err(fail(
                        "invariant.parity",
                        format!(
                            "reader {r} shard {s}: generation {gen} snapshot has {} \
                             nodes, its graph has {}",
                            observed.len(),
                            cold.len()
                        ),
                    ));
                }
                let l1: f64 = cold.iter().zip(observed).map(|(a, b)| (a - b).abs()).sum();
                if l1 >= PARITY_EPS {
                    return Err(fail(
                        "invariant.parity",
                        format!(
                            "reader {r} shard {s}: generation {gen} diverges from its \
                             cold solve by {l1:.3e}"
                        ),
                    ));
                }
            }
        }
    }
    Ok(report)
}

fn reader_main(
    r: usize,
    handles: Vec<ScoreReader>,
    nodes: usize,
    reads: usize,
    slot: Arc<Mutex<Option<Vec<ShardLog>>>>,
) {
    let mut log = vec![ShardLog::default(); handles.len()];
    let mut buf = Vec::new();
    let mut buf2 = Vec::new();
    let mut node = r as u32;
    for i in 0..reads {
        let s = (r + i) % handles.len();
        let rd = &handles[s];
        node = lcg(node) % nodes as u32;
        let (score, gen) = rd
            .get_with_generation(node)
            .expect("in-range node always readable");
        assert!(
            score.is_finite() && score >= 0.0,
            "published scores are finite and non-negative"
        );
        log[s].sequence.push(gen);
        if i % 3 == 0 {
            let gen = rd.snapshot_into(&mut buf);
            log[s].sequence.push(gen);
            if !log[s].snapshots.iter().any(|(g, _)| *g == gen) {
                log[s].snapshots.push((gen, buf.clone()));
            }
        }
        if i % 5 == 4 {
            // Maintained-index parity under the schedule explorer: when
            // the two snapshots bracket the same generation, the
            // interleaved top_k pinned that generation too (the counter
            // is monotone), so it must equal the snapshot's scan exactly
            // — (node, score, order), however the writer's repairs and
            // rebuilds interleaved with our pins.
            let k = 3.min(nodes);
            let g1 = rd.snapshot_into(&mut buf);
            let top = rd.top_k(k);
            assert_eq!(top.len(), k);
            if k >= 2 {
                assert!(top[0].1 >= top[k - 1].1, "top_k is descending");
            }
            let g2 = rd.snapshot_into(&mut buf2);
            log[s].sequence.push(g2);
            if g1 == g2 {
                assert_eq!(
                    top,
                    brute_top_k(&buf, k),
                    "reader {r} shard {s}: indexed top_k diverges from the scan \
                     of generation {g1}"
                );
            }
        }
    }
    // Sole-owner write, after the last serving call: no yield point can
    // park this task while the lock is held.
    *slot.lock().unwrap() = Some(log);
}

/// Reference ranking of a snapshot — score descending, node id ascending
/// on ties; exactly `ScoreReader::top_k`'s contract.
fn brute_top_k(scores: &[f64], k: usize) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = scores
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as u32, s))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}
