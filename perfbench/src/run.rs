//! One benchmark run: set-up, the served stream with a concurrent reader,
//! the p-grid sweep, output checks, recovery and accuracy — and, on traced
//! runs, the ordered layer replay the per-layer metrics come from.
//!
//! Every workload runs every phase, so every metric is measured on every
//! workload; the workloads differ in the world, the stream and which phase
//! dominates. The bench host's speed swings by up to half for seconds at a
//! time (a fixed spin loop's 2.5 s medians ranged 5.3-7.6 ms; `top_k` read
//! 85 or 140 ns within one process, with the writer idle or busy), so no
//! phase runs as one block: the stream is served in [`ROUNDS`] slices with
//! the grid sweeps between them, and the recoveries and store creations
//! are spread over the accuracy phase. Each metric's samples then cover
//! most of the run instead of whichever spell one phase fell in.

use crate::measure::{median, peak_rss_mib, spread, tail, BlockTimer, Phases, Tail, Thinned};
use crate::trace::Tracer;
use crate::world::{Inputs, Workload};
use d2pr_core::engine::{Engine, ResolveMode};
use d2pr_core::error::UpdateError;
use d2pr_core::pagerank::{pagerank, PageRankConfig};
use d2pr_core::serving::{RefreshOutcome, ScoreReader};
use d2pr_core::transition::TransitionModel;
use d2pr_experiments::sweep::{GridPoint, SweepConfig};
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::DeltaGraph;
use d2pr_graph::transpose::CscStructure;
use d2pr_stats::correlation::spearman;
use d2pr_store::durable::DurableServingEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Timed batches per second of `--seconds`: 200 at the declared 10 s, the
/// fewest that leave ten samples beyond the p95.
pub const BATCHES_PER_SECOND: usize = 20;
/// Batches ingested untimed before the timed ones: the first snapshots of
/// a fresh engine fault in their buffers and run up to 2x slower, a cost
/// paid once per process, not per ingest.
pub const WARMUP_BATCHES: usize = 10;
/// Slices the served stream is cut into, with the grid sweeps spread
/// between them: ten timed batches a slice, so the stream's samples and the
/// sweeps' repetitions both cover the whole window instead of alternating
/// in blocks of several seconds that each sit in one spell of the host.
pub const ROUNDS: usize = 20;
/// Durable store creations per run (`setup_s` is their median): the one
/// that builds the served engine, then the rest spread over the accuracy
/// phase, each into a fresh directory that is removed again.
pub const SETUP_REPS: usize = 9;
/// Recoveries per run (`recover_s` is their median), spread over the
/// accuracy phase.
pub const RECOVER_REPS: usize = 8;
/// Repetitions of each single call the traced replay times.
pub const REPLAY_REPS: usize = 3;
/// Point reads per timed block.
pub const READ_BLOCK: usize = 256;
/// `k` of every ranked read.
pub const TOP_K: usize = 100;
/// Ranked reads per timed block. A single ~200 ns call's p99 swung
/// between 220 and 550 ns across runs on the shared host; per-block times
/// keep the tail a property of the read path.
pub const TOPK_BLOCK: usize = 16;
/// Block times each read metric keeps per slice (a slice makes 40-150
/// thousand blocks).
pub const READ_SAMPLES: usize = 1 << 12;
/// Blocks the reader makes per slice at least, so each slice's p99 has
/// ten samples beyond it. It binds only on tiny worlds: on the benchmark's
/// own, a slice makes 40 thousand blocks or more beside the writer.
pub const MIN_SLICE_BLOCKS: u64 = 1000;
/// Largest L1 distance allowed between the scores published before the
/// drop and the recovered ones. Recovery replays the log tail as one merged
/// delta and one warm re-solve, so the two differ by the serving drift
/// (≈1e-4 on these worlds), never by more than this.
pub const RECOVER_L1_MAX: f64 = 1e-3;
/// Largest L1 distance between the engine's sweep scores and the
/// `pagerank.rs` reference at the sweep tolerance.
pub const REFERENCE_L1_MAX: f64 = 1e-7;
/// p values checked against the reference solver.
pub const REFERENCE_PS: [f64; 3] = [-1.0, 0.0, 1.0];
/// Tolerance of the cold solve `rank_error_l1` is measured against.
pub const EXACT_TOLERANCE: f64 = 1e-12;
/// The reader records one span per this many read blocks (a span per
/// block would hold millions of spans in memory).
pub const READ_SPAN_EVERY: u64 = 64;

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length; sizes the stream.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Operation and check outcomes of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// What failed, first occurrence of each.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Count one operation or check.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            if !self.failures.contains(&what) {
                self.failures.push(what);
            }
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn record_many(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && !self.failures.iter().any(|f| f == what) {
            self.failures.push(what.to_string());
        }
    }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Operation and check outcomes.
    pub ledger: Ledger,
    /// Human-readable context: sample counts, chosen tail percentiles.
    pub notes: Vec<String>,
    /// Exact counts the same seed must reproduce.
    pub fingerprint: Fingerprint,
    /// Every recorded span (traced runs).
    pub spans: Option<Tracer>,
}

/// Counts and values that depend only on the seed and the stream length.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `rank_error_l1` (bit-exact).
    pub rank_error_l1: f64,
    /// Solver iterations of each refresh.
    pub refresh_iterations: Vec<usize>,
    /// Residual pushes of each refresh.
    pub refresh_pushes: Vec<usize>,
    /// Iterations of one whole grid.
    pub sweep_iterations: usize,
}

fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// What the reader thread measured, over every served slice.
struct Reads {
    /// Uniform ids of the initial id space, drawn up front and cycled so
    /// no timed block times the RNG; the id space only grows, so every
    /// drawn id stays readable.
    ids: Vec<u32>,
    /// Entries a `top_k(TOP_K)` must return.
    top_len: usize,
    /// Block times per served slice.
    get_ns: Vec<Thinned>,
    topk_ns: Vec<Thinned>,
    /// The slice being served.
    slice: usize,
    blocks: u64,
    failed: u64,
    tracer: Tracer,
    sink: f64,
}

impl Reads {
    fn new(reader: &ScoreReader, seed: u64, tracer: Tracer) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4EAD);
        let n = reader.len() as u32;
        Self {
            ids: (0..16 * READ_BLOCK).map(|_| rng.gen_range(0..n)).collect(),
            top_len: TOP_K.min(n as usize),
            get_ns: (0..ROUNDS)
                .map(|_| Thinned::with_capacity(READ_SAMPLES))
                .collect(),
            topk_ns: (0..ROUNDS)
                .map(|_| Thinned::with_capacity(READ_SAMPLES))
                .collect(),
            slice: 0,
            blocks: 0,
            failed: 0,
            tracer,
            sink: 0.0,
        }
    }
}

/// Closed-loop reader of one slice: a block of [`READ_BLOCK`] point reads,
/// then a block of [`TOPK_BLOCK`] `top_k(TOP_K)` calls, each block timed as
/// one, until stopped (and at least [`MIN_SLICE_BLOCKS`] blocks).
fn read_loop(reader: &ScoreReader, stop: &AtomicBool, started: &AtomicBool, reads: &mut Reads) {
    let record = reads.tracer.recording();
    let slice = reads.slice;
    let first = reads.blocks;
    started.store(true, Ordering::SeqCst);
    // The flag publishes no data (the join does), so a relaxed load will do.
    while !stop.load(Ordering::Relaxed) || reads.blocks - first < MIN_SLICE_BLOCKS {
        let block = reads.blocks;
        let chunk = &reads.ids[(block as usize % 16) * READ_BLOCK..][..READ_BLOCK];
        let tracer = &mut reads.tracer;
        tracer.set_recording(record && block.is_multiple_of(READ_SPAN_EVERY));
        let open = tracer.begin("ScoreReader::get", Some(block));
        for &v in chunk {
            match reader.get(v) {
                Some(s) => reads.sink += s,
                None => reads.failed += 1,
            }
        }
        reads.get_ns[slice].push(tracer.end(open) / READ_BLOCK as f64);
        let open = tracer.begin("ScoreReader::top_k", Some(block));
        for _ in 0..TOPK_BLOCK {
            let top = reader.top_k(TOP_K);
            reads.failed += u64::from(top.len() != reads.top_len);
            reads.sink += top.first().map_or(0.0, |e| e.1);
        }
        reads.topk_ns[slice].push(tracer.end(open) / TOPK_BLOCK as f64);
        reads.blocks += 1;
    }
    reads.tracer.set_recording(record);
}

/// The served stream's results.
struct Served {
    /// Wall time of each timed durable ingest, ms, in stream order.
    ingest_ms: Vec<f64>,
    /// Whether each timed ingest was recorded as a span.
    ingest_recorded: Vec<bool>,
    outcomes: Vec<RefreshOutcome>,
    reads: Reads,
    /// The generations `rank_error_l1` samples.
    checkpoint_gens: Vec<u64>,
    /// Each checkpoint generation and the file its published scores went
    /// to (on disk, so they add nothing to the process's footprint).
    checkpoints: Vec<(u64, PathBuf)>,
}

/// The generations `rank_error_l1` samples: `k` evenly spaced ones ending
/// at `generations`.
fn checkpoint_generations(generations: u64, k: usize) -> Vec<u64> {
    let k = (k as u64).min(generations);
    let mut gens: Vec<u64> = (1..=k).map(|i| i * generations / k).collect();
    gens.dedup();
    gens
}

/// Write the published scores to `path`, synced so no writeback of it
/// overlaps a timed ingest.
fn save_scores(reader: &ScoreReader, path: &Path) -> std::io::Result<()> {
    let mut scores = Vec::new();
    reader.snapshot_into(&mut scores);
    let bytes: Vec<u8> = scores.iter().flat_map(|x| x.to_le_bytes()).collect();
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    file.sync_all()
}

fn load_scores(path: &Path) -> std::io::Result<Vec<f64>> {
    let bytes = std::fs::read(path)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunks")))
        .collect())
}

/// Stream the batches of `range` through the durable engine while a reader
/// thread reads beside it. On traced runs every second ingest is left
/// unrecorded: those are the control `trace.overhead.ingest` compares
/// against.
fn serve_slice(
    engine: &mut DurableServingEngine,
    inputs: &Inputs,
    range: Range<usize>,
    work: &Path,
    served: &mut Served,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    let stop = AtomicBool::new(false);
    let started = AtomicBool::new(false);
    let reader = engine.reader();
    let record = tracer.recording();
    let Served {
        ingest_ms,
        ingest_recorded,
        outcomes,
        reads,
        checkpoint_gens,
        checkpoints,
    } = served;
    std::thread::scope(|s| {
        let handle = s.spawn(|| read_loop(&reader, &stop, &started, reads));
        while !started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        for i in range {
            let batch = &inputs.stream[i];
            tracer.set_recording(record && i % 2 == 0);
            let generation = i as u64 + 1;
            let (res, ns) = tracer.time("DurableServingEngine::ingest", Some(generation), || {
                engine.ingest(batch)
            });
            if i >= WARMUP_BATCHES {
                ingest_ms.push(ns / 1e6);
                ingest_recorded.push(tracer.recording());
            }
            match res {
                Ok(outcome) => {
                    ledger.record(outcome.generation == generation, || {
                        "ingest published an unexpected generation".into()
                    });
                    outcomes.push(outcome);
                }
                Err(e) => ledger.record(false, || format!("ingest failed: {e}")),
            }
            if checkpoint_gens.contains(&generation) {
                let path = work.join(format!("checkpoint-{generation}.bin"));
                match save_scores(&reader, &path) {
                    Ok(()) => checkpoints.push((generation, path)),
                    Err(e) => ledger.record(false, || format!("saving a checkpoint failed: {e}")),
                }
            }
        }
        tracer.set_recording(record);
        stop.store(true, Ordering::SeqCst);
        handle.join().expect("reader thread");
    });
    reads.slice += 1;
}

/// The served state captured before the engine is dropped.
pub(crate) struct Final {
    pub(crate) generation: u64,
    pub(crate) scores: Vec<f64>,
    pub(crate) removed: Vec<u32>,
    pub(crate) graph: CsrGraph,
    pub(crate) store_bytes: u64,
}

/// Output checks on the final published generation.
fn check_final(
    engine: &DurableServingEngine,
    expected_generation: u64,
    ledger: &mut Ledger,
) -> Final {
    let reader = engine.reader();
    let top = reader.top_k(TOP_K);
    ledger.record(top == reader.top_k_scan(TOP_K), || {
        "top_k(100) differs from top_k_scan(100)".into()
    });
    let removed = engine.engine().removed_nodes();
    for &v in &removed {
        ledger.record(reader.get(v) == Some(0.0), || {
            "a tombstoned id reads a non-zero score".into()
        });
    }
    ledger.record(
        top.iter().all(|e| removed.binary_search(&e.0).is_err()),
        || "a tombstoned id appears in top_k".into(),
    );
    let mut scores = Vec::new();
    let generation = reader.snapshot_into(&mut scores);
    ledger.record(generation == expected_generation, || {
        "final generation is not the last acknowledged one".into()
    });
    Final {
        generation,
        scores,
        removed,
        graph: engine.engine().delta_graph().snapshot(),
        store_bytes: dir_size(engine.data_dir()),
    }
}

/// Create a durable store in `dir`: the set-up `setup_s` times (cold
/// solve, initial snapshot, WAL open).
fn create(
    inputs: &Inputs,
    dir: &Path,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<(DurableServingEngine, f64)> {
    let graph = inputs.graph.clone();
    let (res, ns) = tracer.time("DurableServingEngine::create", None, || {
        DurableServingEngine::create(dir, graph, inputs.model, inputs.serve, 1, inputs.store)
    });
    match res {
        Ok(engine) => {
            ledger.record(true, String::new);
            Some((engine, ns / 1e9))
        }
        Err(e) => {
            ledger.record(false, || format!("store creation failed: {e}"));
            None
        }
    }
}

/// Reopen a copy of the dropped store; it must resume at the last
/// acknowledged generation with scores near the ones published.
fn recover_once(
    store: &Path,
    copy: &Path,
    inputs: &Inputs,
    fin: &Final,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<f64> {
    copy_dir(store, copy).expect("copy the store");
    let (res, ns) = tracer.time("DurableServingEngine::open", None, || {
        DurableServingEngine::open(copy, 1, inputs.store)
    });
    let secs = match res {
        Ok((engine, _report)) => {
            ledger.record(engine.generation() == fin.generation, || {
                "recovery resumed at the wrong generation".into()
            });
            let mut scores = Vec::new();
            engine.reader().snapshot_into(&mut scores);
            ledger.record(scores.len() == fin.scores.len(), || {
                "recovery serves a different id space".into()
            });
            let dist = l1(&scores, &fin.scores);
            ledger.record(dist <= RECOVER_L1_MAX, || {
                format!("recovered scores are {dist:.3e} L1 from the published ones")
            });
            Some(ns / 1e9)
        }
        Err(e) => {
            ledger.record(false, || format!("recovery failed: {e}"));
            None
        }
    };
    let _ = std::fs::remove_dir_all(copy);
    secs
}

/// L1 distance of the published scores from a tight solve of the same
/// graph, per checkpoint generation, calling `between(i, ..)` after
/// checkpoint `i`. The checkpoint graphs come from replaying the stream
/// into a fresh delta graph; each tight solve starts from the previous
/// checkpoint's (the fixed point does not depend on the start, only the
/// iteration count does). Tombstoned ids (published as exactly 0.0, which
/// no live id ever is) are excluded.
fn rank_error(
    inputs: &Inputs,
    checkpoints: &[(u64, PathBuf)],
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    mut between: impl FnMut(usize, &mut Tracer, &mut Ledger),
) -> Vec<f64> {
    let config = PageRankConfig {
        tolerance: EXACT_TOLERANCE,
        max_iterations: 5_000,
        ..inputs.serve
    };
    let mut dg = DeltaGraph::new(inputs.graph.clone()).expect("valid base graph");
    let mut applied = 0u64;
    let mut exact: Vec<f64> = Vec::new();
    let mut errors = Vec::with_capacity(checkpoints.len());
    for (i, (generation, path)) in checkpoints.iter().enumerate() {
        for batch in &inputs.stream[applied as usize..*generation as usize] {
            dg.apply_batch(batch).expect("the stream applies cleanly");
        }
        applied = *generation;
        let graph = dg.snapshot();
        // Ids added since the last checkpoint start at a uniform share.
        exact.resize(graph.num_nodes(), 1.0 / graph.num_nodes() as f64);
        let (solved, _) = tracer.time("Engine::resolve_warm", Some(*generation), || {
            let mut engine = Engine::with_threads(&graph, 2)
                .with_config(config)
                .map_err(UpdateError::Solver)?;
            engine
                .set_model(inputs.model)
                .map_err(UpdateError::Solver)?;
            engine.resolve_warm(&exact)
        });
        match (solved, load_scores(path)) {
            (Ok(r), Ok(published)) => {
                ledger.record(r.converged, || {
                    "an exact reference solve did not converge".into()
                });
                errors.push(
                    published
                        .iter()
                        .zip(&r.scores)
                        .filter(|(&p, _)| p != 0.0)
                        .map(|(p, x)| (p - x).abs())
                        .sum::<f64>(),
                );
                exact = r.scores;
            }
            (Err(e), _) => ledger.record(false, || format!("exact reference solve failed: {e}")),
            (_, Err(e)) => ledger.record(false, || format!("reading a checkpoint failed: {e}")),
        }
        between(i, tracer, ledger);
    }
    errors
}

/// The model the sweep uses at `p` on `graph` (as `SweepConfig::run` does).
fn grid_model(graph: &CsrGraph, p: f64) -> TransitionModel {
    if graph.is_weighted() {
        TransitionModel::Blended { p, beta: 0.0 }
    } else {
        TransitionModel::DegreeDecoupled { p }
    }
}

/// One whole-grid `SweepConfig::run`: it must return every grid point and
/// take as many iterations as every other repetition. On traced runs odd
/// repetitions are left unrecorded, the control `trace.overhead.sweep`
/// compares against. Returns the wall time in s.
fn sweep_once(
    inputs: &Inputs,
    rep: usize,
    iterations: &mut Option<usize>,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> f64 {
    let record = tracer.recording();
    tracer.set_recording(record && rep.is_multiple_of(2));
    let (points, ns): (Vec<GridPoint>, f64) = tracer.time("SweepConfig::run", None, || {
        inputs.sweep.run(&inputs.graph, &inputs.significance)
    });
    tracer.set_recording(record);
    ledger.record(points.len() == inputs.sweep.ps.len(), || {
        "the sweep skipped grid points".into()
    });
    let total: usize = points.iter().map(|p| p.iterations).sum();
    let first = *iterations.get_or_insert(total);
    ledger.record(total == first, || {
        "sweep iterations differ between repetitions".into()
    });
    ns / 1e9
}

/// Timings of the per-point grid solves.
struct PointSolves {
    solve_ms: Vec<f64>,
    spearman_ms: Vec<f64>,
    /// Whether the engine ran the per-arc operator.
    arc_mode: bool,
}

/// The whole grid solved point by point through one engine, outside every
/// timed end-to-end call: each point's raw Spearman correlation (which
/// `SweepConfig::run` reports as 0.0 when it is undefined) must exist and
/// be finite, and the scores at [`REFERENCE_PS`] must match the
/// `pagerank.rs` reference. Each solve and correlation is timed for the
/// per-layer metrics.
fn point_solves(inputs: &Inputs, tracer: &mut Tracer, ledger: &mut Ledger) -> PointSolves {
    let s = &inputs.sweep;
    let config = PageRankConfig {
        alpha: s.alphas[0],
        tolerance: s.tolerance,
        max_iterations: s.max_iterations,
        ..Default::default()
    };
    let g = &inputs.graph;
    let mut out = PointSolves {
        solve_ms: Vec::new(),
        spearman_ms: Vec::new(),
        arc_mode: false,
    };
    let mut engine = match Engine::with_threads(g, s.threads).with_config(config) {
        Ok(e) => e,
        Err(e) => {
            ledger.record(false, || format!("sweep engine construction failed: {e}"));
            return out;
        }
    };
    for (i, &p) in s.ps.iter().enumerate() {
        let model = grid_model(g, p);
        let (res, ns) = tracer.time("Engine::solve_model", Some(i as u64), || {
            engine.solve_model(model)
        });
        let Ok(fast) = res else {
            ledger.record(false, || format!("grid solve failed at p = {p}"));
            continue;
        };
        out.solve_ms.push(ns / 1e6);
        let (rho, ns) = tracer.time("spearman", Some(i as u64), || {
            spearman(&fast.scores, &inputs.significance)
        });
        out.spearman_ms.push(ns / 1e6);
        ledger.record(rho.is_some_and(f64::is_finite), || {
            format!("the grid correlation at p = {p} is undefined or not finite")
        });
        if REFERENCE_PS.contains(&p) {
            let reference = pagerank(g, model, &config);
            let dist = l1(&fast.scores, &reference.scores);
            ledger.record(dist <= REFERENCE_L1_MAX, || {
                format!("engine and reference solver differ by {dist:.3e} L1 at p = {p}")
            });
        }
    }
    out.arc_mode = engine.in_probs().len() == g.num_arcs();
    out
}

/// Bytes the pull kernel moves per sweep iteration, computed from array
/// sizes: per arc a 4-byte source index and an 8-byte gathered score (plus
/// an 8-byte probability on the per-arc operator); per node the offsets,
/// the old and new score and the two operator factors.
pub fn kernel_bytes_per_iteration(nodes: usize, arcs: usize, arc_mode: bool) -> f64 {
    let per_arc = if arc_mode { 20.0 } else { 12.0 };
    arcs as f64 * per_arc + nodes as f64 * 40.0
}

/// Bytes of the served working set: CSR, CSC and four score vectors (two
/// publish slots, the solver's two iterates).
fn working_set_bytes(graph: &CsrGraph, csc: &CscStructure) -> f64 {
    let (offsets, targets, weights) = graph.parts();
    let csr = offsets.len() * 8 + targets.len() * 4 + weights.map_or(0, |w| w.len() * 8);
    let csc_offsets = csc
        .narrow_in_offsets()
        .map_or(csc.in_offsets().len() * 8, |o| o.len() * 4);
    let csc_bytes = csc_offsets + csc.in_sources().len() * 4 + csc.dangling().len() * 4;
    (csr + csc_bytes + 4 * graph.num_nodes() * 8) as f64
}

fn mode_share(outcomes: &[RefreshOutcome], pick: impl Fn(ResolveMode) -> bool) -> f64 {
    outcomes.iter().filter(|o| pick(o.mode)).count() as f64 / outcomes.len().max(1) as f64
}

/// Report a tail under its declared name, noting the percentile the
/// sample count actually supported.
fn tail_metric(
    notes: &mut Vec<String>,
    ledger: &mut Ledger,
    name: &'static str,
    xs: &[f64],
    want: f64,
) -> f64 {
    match tail(xs, want) {
        Some(Tail {
            q,
            value,
            samples,
            beyond,
        }) => {
            notes.push(format!(
                "{name}: p{} of {samples} samples ({beyond} beyond)",
                q * 100.0
            ));
            value
        }
        None => {
            ledger.record(false, || format!("{name}: too few samples ({})", xs.len()));
            f64::NAN
        }
    }
}

/// Report a read tail under its declared name: the median, over the served
/// slices, of each slice's tail. Bursts of host interference fill one or
/// two slices at a time (one slice's top_k p99 read 235 ns beside others
/// at 86-107 ns), and a tail pooled over the run took them in: over six
/// seeds the pooled top_k p99 moved 0.32 (IQR/median), this 0.05.
fn slice_tail_metric(
    notes: &mut Vec<String>,
    ledger: &mut Ledger,
    name: &'static str,
    slices: &[Thinned],
    want: f64,
) -> f64 {
    let tails: Vec<Tail> = slices.iter().filter_map(|t| tail(t.kept(), want)).collect();
    if tails.len() < slices.len() {
        ledger.record(false, || format!("{name}: a slice has too few samples"));
        return f64::NAN;
    }
    let lowest = tails.iter().map(|t| t.q).fold(want, f64::min);
    let fewest = tails.iter().map(|t| t.samples).min().unwrap_or(0);
    let least_beyond = tails.iter().map(|t| t.beyond).min().unwrap_or(0);
    notes.push(format!(
        "{name}: median over {} slices of each slice's p{} (at least {fewest} samples, {least_beyond} beyond)",
        tails.len(),
        lowest * 100.0
    ));
    median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())
}

/// Run one workload end to end.
pub fn run(opts: &Options, inputs: &Inputs, work: &Path) -> Report {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(opts.trace, 0, epoch);
    let mut ledger = Ledger::default();
    let mut notes = Vec::new();
    let timer = BlockTimer::calibrate(100_000);
    let mut phases = Phases::start();
    let _ = std::fs::create_dir_all(work);

    // Set-up: the store that is served.
    let Some((mut engine, first_setup)) =
        create(inputs, &work.join("store"), &mut tracer, &mut ledger)
    else {
        return Report {
            metrics: Vec::new(),
            ledger,
            notes,
            fingerprint: Fingerprint {
                rank_error_l1: f64::NAN,
                refresh_iterations: Vec::new(),
                refresh_pushes: Vec::new(),
                sweep_iterations: 0,
            },
            spans: None,
        };
    };
    let mut setup = vec![first_setup];
    phases.mark("setup");

    // The served stream in slices, a reader beside each, with the whole-grid
    // sweeps spread between them.
    let mut served = Served {
        ingest_ms: Vec::with_capacity(inputs.stream.len()),
        ingest_recorded: Vec::with_capacity(inputs.stream.len()),
        outcomes: Vec::with_capacity(inputs.stream.len()),
        reads: Reads::new(
            &engine.reader(),
            opts.seed,
            Tracer::new(opts.trace, 1, epoch),
        ),
        checkpoint_gens: checkpoint_generations(
            inputs.stream.len() as u64,
            opts.workload.checkpoints(),
        ),
        checkpoints: Vec::new(),
    };
    let timed = inputs.stream.len().saturating_sub(WARMUP_BATCHES);
    let sweep_reps = opts.workload.sweep_reps();
    let mut sweep_secs = Vec::with_capacity(sweep_reps);
    let mut sweep_iterations = None;
    for round in 0..ROUNDS {
        let slice = spread(timed, ROUNDS, round);
        let start = if round == 0 {
            0
        } else {
            WARMUP_BATCHES + slice.start
        };
        serve_slice(
            &mut engine,
            inputs,
            start..WARMUP_BATCHES + slice.end,
            work,
            &mut served,
            &mut tracer,
            &mut ledger,
        );
        for rep in spread(sweep_reps, ROUNDS, round) {
            sweep_secs.push(sweep_once(
                inputs,
                rep,
                &mut sweep_iterations,
                &mut tracer,
                &mut ledger,
            ));
        }
    }
    // The served engine, its reader and the sweeps are the workload; what
    // follows holds the harness's reference solves and store copies.
    let peak_rss = peak_rss_mib().unwrap_or(f64::NAN);
    ledger.record_many(
        served.reads.blocks * (READ_BLOCK + TOPK_BLOCK) as u64,
        served.reads.failed,
        "a point or ranked read failed",
    );
    notes.push(format!(
        "served {} batches in {ROUNDS} slices; reader made {} blocks of {READ_BLOCK} reads and {TOPK_BLOCK} top_k({TOP_K}), {} of each kept (sink {:.3})",
        inputs.stream.len(),
        served.reads.blocks,
        served.reads.get_ns.iter().map(|t| t.kept().len()).sum::<usize>(),
        served.reads.sink
    ));
    phases.mark("serve and sweep");

    let fin = check_final(&engine, inputs.stream.len() as u64, &mut ledger);
    let store = engine.data_dir().to_path_buf();
    drop(engine);
    phases.mark("checks");

    // Accuracy, with the recoveries and the remaining store creations spread
    // over it.
    let slots = served.checkpoints.len();
    let mut recovered = Vec::with_capacity(RECOVER_REPS);
    let rank_errors = rank_error(
        inputs,
        &served.checkpoints,
        &mut tracer,
        &mut ledger,
        |slot, tracer, ledger| {
            for rep in spread(RECOVER_REPS, slots, slot) {
                let copy = work.join(format!("recover-{rep}"));
                recovered.extend(recover_once(&store, &copy, inputs, &fin, tracer, ledger));
            }
            for rep in spread(SETUP_REPS - 1, slots, slot) {
                let dir = work.join(format!("setup-{rep}"));
                if let Some((created, secs)) = create(inputs, &dir, tracer, ledger) {
                    setup.push(secs);
                    drop(created);
                }
                let _ = std::fs::remove_dir_all(dir);
            }
        },
    );
    notes.push(format!(
        "rank error per checkpoint: {:?}",
        rank_errors
            .iter()
            .map(|e| format!("{e:.3e}"))
            .collect::<Vec<_>>()
    ));
    // Geometric mean: the per-checkpoint errors span an order of magnitude.
    let rank_error_l1 = if !rank_errors.is_empty() && rank_errors.len() == slots {
        (rank_errors.iter().map(|e| e.ln()).sum::<f64>() / rank_errors.len() as f64).exp()
    } else {
        f64::NAN
    };
    phases.mark("accuracy, recovery and set-up");
    let points = point_solves(inputs, &mut tracer, &mut ledger);
    phases.mark("grid points");

    let fingerprint = Fingerprint {
        rank_error_l1,
        refresh_iterations: served.outcomes.iter().map(|o| o.iterations).collect(),
        refresh_pushes: served.outcomes.iter().map(|o| o.pushes).collect(),
        sweep_iterations: sweep_iterations.unwrap_or(0),
    };
    // Built once for the working set; traced runs time it like a layer.
    let mut csc = None;
    for _ in 0..if opts.trace { REPLAY_REPS } else { 1 } {
        csc = Some(
            tracer
                .time("CscStructure::build", None, || {
                    CscStructure::build(&inputs.graph)
                })
                .0,
        );
    }
    let ws_mib = working_set_bytes(&inputs.graph, &csc.expect("built above")) / (1 << 20) as f64;
    notes.push(format!(
        "working set {ws_mib:.1} MiB (CSR + CSC + 4 score vectors) against 2 MiB L2 per core and 300 MiB shared L3"
    ));

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = if !opts.trace {
        let ingest_ms_p95 = tail_metric(
            &mut notes,
            &mut ledger,
            "ingest_ms_p95",
            &served.ingest_ms,
            0.95,
        );
        let get_ns_p99 = slice_tail_metric(
            &mut notes,
            &mut ledger,
            "get_ns_p99",
            &served.reads.get_ns,
            0.99,
        );
        let topk_ns_p99 = slice_tail_metric(
            &mut notes,
            &mut ledger,
            "topk_ns_p99",
            &served.reads.topk_ns,
            0.99,
        );
        let pooled = |slices: &[Thinned]| -> Vec<f64> {
            slices
                .iter()
                .flat_map(|t| t.kept().iter().copied())
                .collect()
        };
        vec![
            m("setup_s", median(&setup), "s"),
            m("ingest_ms_p50", median(&served.ingest_ms), "ms"),
            m("ingest_ms_p95", ingest_ms_p95, "ms"),
            m("get_ns_p50", median(&pooled(&served.reads.get_ns)), "ns"),
            m("get_ns_p99", get_ns_p99, "ns"),
            m("topk_ns_p50", median(&pooled(&served.reads.topk_ns)), "ns"),
            m("topk_ns_p99", topk_ns_p99, "ns"),
            m("recover_s", median(&recovered), "s"),
            m("rank_error_l1", rank_error_l1, "L1"),
            m("sweep_s", median(&sweep_secs), "s"),
            m("peak_rss_mb", peak_rss, "MiB"),
        ]
    } else {
        let replayed = crate::replay::replay(inputs, work, &store, &fin, &mut tracer, &mut ledger);
        // 1-thread grid: the pool's 2-thread gain is its ratio to `sweep_s`.
        let one_thread = SweepConfig {
            threads: 1,
            ..inputs.sweep.clone()
        };
        let (_, ns_1t) = tracer.time("SweepConfig::run", None, || {
            one_thread.run(&inputs.graph, &inputs.significance)
        });
        let self_p50 = |t: &Tracer, name: &str| median(&t.self_ms(name));
        let layer_names = [
            "DeltaGraph::apply_batch",
            "DeltaGraph::snapshot",
            "EngineState::patched",
            "Engine::from_state",
            "Engine::resolve_incremental_tracked",
        ];
        let layers: Vec<f64> = layer_names.iter().map(|n| self_p50(&tracer, n)).collect();
        let layer_sum: f64 = layers.iter().sum();
        let durable_p50 = median(&served.ingest_ms);
        let ingest_where = |recorded: bool| -> Vec<f64> {
            served
                .ingest_ms
                .iter()
                .zip(&served.ingest_recorded)
                .filter(|(_, &r)| r == recorded)
                .map(|(&ms, _)| ms)
                .collect()
        };
        let pick = |recorded: bool| -> Vec<f64> {
            sweep_secs
                .iter()
                .enumerate()
                .filter(|(rep, _)| (rep % 2 == 0) == recorded)
                .map(|(_, &s)| s)
                .collect()
        };
        let sweep_s = median(&sweep_secs);
        let serving_p50 = self_p50(&tracer, "ServingEngine::ingest");
        let pushes: Vec<f64> = served.outcomes.iter().map(|o| o.pushes as f64).collect();
        let frontier: Vec<f64> = served.outcomes.iter().map(|o| o.frontier as f64).collect();
        let bytes = kernel_bytes_per_iteration(
            inputs.graph.num_nodes(),
            inputs.graph.num_arcs(),
            points.arc_mode,
        );
        vec![
            m("graph.delta.apply_ms_p50", layers[0], "ms"),
            m("graph.delta.snapshot_ms_p50", layers[1], "ms"),
            m(
                "graph.delta.overlay_arcs_end",
                replayed.overlay_arcs_end,
                "count",
            ),
            m(
                "graph.transpose.build_ms",
                self_p50(&tracer, "CscStructure::build"),
                "ms",
            ),
            m("core.engine.state_patch_ms_p50", layers[2], "ms"),
            m("core.engine.from_state_ms_p50", layers[3], "ms"),
            m("core.engine.resolve_ms_p50", layers[4], "ms"),
            m(
                "core.engine.mode_share.push",
                mode_share(&served.outcomes, |m| m == ResolveMode::LocalizedPush),
                "fraction",
            ),
            m(
                "core.engine.mode_share.hybrid",
                mode_share(&served.outcomes, |m| m == ResolveMode::HybridPushSweep),
                "fraction",
            ),
            m(
                "core.engine.mode_share.sweep",
                mode_share(&served.outcomes, |m| {
                    matches!(m, ResolveMode::WarmSweep | ResolveMode::DenseGaussSeidel)
                }),
                "fraction",
            ),
            m("core.engine.pushes_p50", median(&pushes), "count"),
            m("core.engine.frontier_p50", median(&frontier), "count"),
            m(
                "core.engine.sweep_iterations",
                fingerprint.sweep_iterations as f64,
                "count",
            ),
            m(
                "core.engine.sweep_point_ms_p50",
                median(&points.solve_ms),
                "ms",
            ),
            m("core.pool.sweep_s_1t", ns_1t / 1e9, "s"),
            m(
                "core.kernel.gbps_computed",
                bytes * fingerprint.sweep_iterations as f64 / sweep_s / 1e9,
                "GB/s",
            ),
            m("core.serving.ingest_ms_p50", serving_p50, "ms"),
            m("core.serving.other_ms_p50", serving_p50 - layer_sum, "ms"),
            m("core.serving.timer_ns", timer.clock_ns, "ns"),
            m(
                "store.log.append_ms_p50",
                self_p50(&tracer, "LogWriter::append"),
                "ms",
            ),
            m(
                "store.log.bytes_per_batch",
                replayed.log_bytes_per_batch,
                "B",
            ),
            m(
                "store.snapshot.write_ms",
                self_p50(&tracer, "write_snapshot"),
                "ms",
            ),
            m(
                "store.recover.scan_ms",
                self_p50(&tracer, "recover_dir"),
                "ms",
            ),
            m(
                "store.recover.replay_ms",
                self_p50(&tracer, "ServingEngine::recovered"),
                "ms",
            ),
            m("store.bytes_on_disk_end", fin.store_bytes as f64, "B"),
            m(
                "stats.spearman_ms_total",
                points.spearman_ms.iter().sum(),
                "ms",
            ),
            m("trace.refresh_coverage", layer_sum / durable_p50, "ratio"),
            m(
                "trace.overhead.ingest",
                median(&ingest_where(true)) / median(&ingest_where(false)),
                "ratio",
            ),
            m(
                "trace.overhead.sweep",
                median(&pick(true)) / median(&pick(false)),
                "ratio",
            ),
            m("footprint.working_set_mib", ws_mib, "MiB"),
        ]
    };

    phases.mark("report");
    notes.extend(phases.lines);
    for (name, secs) in [
        ("setup", &setup),
        ("recover", &recovered),
        ("sweep", &sweep_secs),
    ] {
        notes.push(format!("{name} repetitions (s): {secs:.4?}"));
    }
    notes.push(format!(
        "clock read {:.1} ns: {:.3} ns of each get_ns figure, {:.2} ns of each topk_ns figure",
        timer.clock_ns,
        timer.overhead_per_op_ns(READ_BLOCK),
        timer.overhead_per_op_ns(TOPK_BLOCK)
    ));
    let spans = opts.trace.then(|| {
        tracer.absorb(served.reads.tracer);
        tracer
    });
    Report {
        metrics,
        ledger,
        notes,
        fingerprint,
        spans,
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_size(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Copy the regular files of `from` into a fresh `to`, synced to disk so
/// no writeback of the copy overlaps what is timed next.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            let target = to.join(entry.file_name());
            std::fs::copy(entry.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::generate;

    fn tiny_run(workload: Workload, seed: u64, trace: bool, tag: &str) -> Report {
        let inputs = generate(workload, seed, 40, 0.02);
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".bench_work")
            .join(format!(
                "test-{}-{tag}-{}",
                workload.name(),
                std::process::id()
            ));
        let opts = Options {
            workload,
            seed,
            seconds: 1,
            trace,
        };
        let report = run(&opts, &inputs, &work);
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(work.parent().expect("work has a parent"));
        report
    }

    /// Metric names declared in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closed name")].to_string())
            .collect()
    }

    /// Keys of the object `section` of `text` (a JSON document), in order.
    fn object_keys(text: &str, section: &str) -> Vec<String> {
        let open = text
            .find(&format!("\"{section}\": {{"))
            .expect("section present")
            + section.len()
            + 4;
        let mut depth = 0usize;
        let mut keys = Vec::new();
        let (mut string, mut last, mut escaped) = (None::<String>, None::<String>, false);
        for c in text[open..].chars() {
            if let Some(s) = string.as_mut() {
                match c {
                    _ if escaped => {
                        escaped = false;
                        s.push(c);
                    }
                    '\\' => escaped = true,
                    '"' => last = string.take(),
                    _ => s.push(c),
                }
                continue;
            }
            match c {
                '"' => string = Some(String::new()),
                ':' if depth == 1 => keys.extend(last.take()),
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        keys
    }

    #[test]
    fn plan_describes_exactly_the_declared_metrics_and_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("plan.json");
        let plan = std::fs::read_to_string(path).expect("plan.json beside Cargo.toml");
        for section in ["end_to_end", "per_layer"] {
            assert_eq!(object_keys(&plan, section), declared(section), "{section}");
        }
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(object_keys(&plan, "workloads"), workloads);
        assert_eq!(declared("workloads"), workloads);
    }

    fn names(report: &Report) -> Vec<String> {
        report.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn same_seed_same_streams_errors_and_counts() {
        for workload in Workload::ALL {
            let a = tiny_run(workload, 5, false, "a");
            let b = tiny_run(workload, 5, false, "b");
            assert!(
                a.ledger.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                a.ledger.failures
            );
            assert_eq!(a.fingerprint, b.fingerprint, "{}", workload.name());
            assert_eq!(a.fingerprint.refresh_iterations.len(), 40);
            assert!(a.fingerprint.rank_error_l1.is_finite() && a.fingerprint.sweep_iterations > 0);
        }
    }

    #[test]
    fn untraced_runs_report_every_end_to_end_metric() {
        let report = tiny_run(Workload::Churn, 9, false, "e2e");
        assert_eq!(names(&report), declared("end_to_end"));
        assert!(report
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value != 0.0));
        assert!(report.spans.is_none());
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric() {
        let report = tiny_run(Workload::Trickle, 9, true, "layers");
        assert!(
            report.ledger.failures.is_empty(),
            "{:?}",
            report.ledger.failures
        );
        assert_eq!(names(&report), declared("per_layer"));
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        let spans = report.spans.expect("traced runs keep their spans");
        for name in [
            "DurableServingEngine::create",
            "DurableServingEngine::ingest",
            "ScoreReader::get",
            "ScoreReader::top_k",
            "DurableServingEngine::open",
            "SweepConfig::run",
            "DeltaGraph::apply_batch",
            "LogWriter::append",
            "recover_dir",
        ] {
            assert!(
                spans.spans().iter().any(|s| s.name == name),
                "no {name} span"
            );
        }
        // Layer spans hang off their refresh and carry its batch id.
        let refresh = spans
            .spans()
            .iter()
            .position(|s| s.name == "replay.refresh")
            .expect("refresh span");
        let child = spans
            .spans()
            .iter()
            .find(|s| s.parent == Some(refresh))
            .expect("layer span");
        assert_eq!(child.batch, spans.spans()[refresh].batch);
    }

    #[test]
    fn kernel_bytes_count_arcs_and_nodes() {
        assert_eq!(
            kernel_bytes_per_iteration(10, 100, false),
            100.0 * 12.0 + 400.0
        );
        assert_eq!(
            kernel_bytes_per_iteration(10, 100, true),
            100.0 * 20.0 + 400.0
        );
    }
}
