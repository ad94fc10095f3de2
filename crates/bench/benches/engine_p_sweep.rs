//! Fused-engine sweep benchmark: the PR-1 acceptance bench.
//!
//! Compares a 5-point `p` sweep on a 100k-node / ~1M-arc Barabási–Albert
//! graph across three solver paths:
//!
//! * **seed_rebuild** — a faithful port of the PR-0 parallel solver:
//!   transition matrix and transpose rebuilt from scratch at every grid
//!   point, node-count destination chunks, worker threads spawned (and
//!   joined) on *every* power iteration. Measured twice: with 1 thread and
//!   with 4 threads — the seed API forced callers to hardcode a thread
//!   count, and every call site the seed shipped (its tests and benches)
//!   used 4, so the 4-thread run is the configuration the seed actually
//!   ran in; the 1-thread run is reported alongside for transparency.
//! * **engine_cold** — the fused [`Engine`]: structural transpose and arc
//!   permutation built once, operator rewritten in place per point, one
//!   persistent arc-balanced worker pool; every point starts from the
//!   teleport distribution.
//! * **engine_warm** — same, but each grid point warm-starts from the
//!   previous point's solution (the engine's sweep mode).
//!
//! Besides the timing comparison, the bench verifies the engine's
//! zero-allocation contract: after warm-up, the five in-place operator
//! updates of a sweep must perform **zero heap allocations** (counted by a
//! wrapping global allocator). Results are written to
//! `BENCH_pagerank.json` at the workspace root so the perf trajectory is
//! machine-readable from PR 1 onward.

use criterion::{criterion_group, criterion_main, Criterion};
use d2pr_bench::{axis_json, report_ms, thread_axis};
use d2pr_core::engine::{default_threads, Engine};
use d2pr_core::pagerank::{PageRankConfig, PageRankResult};
use d2pr_core::transition::{TransitionMatrix, TransitionModel};
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::generators::barabasi_albert;
use d2pr_graph::permute::Layout as GraphLayout;
use d2pr_graph::transpose::CscStructure;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Counting allocator: proves the zero-allocation operator-update contract.
// ---------------------------------------------------------------------------

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// side-effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

// ---------------------------------------------------------------------------
// Faithful port of the PR-0 ("seed") parallel solver, kept as the baseline.
// ---------------------------------------------------------------------------

mod seed_baseline {
    use super::*;

    struct SeedTranspose {
        in_offsets: Vec<usize>,
        in_sources: Vec<u32>,
        csc_probs: Vec<f64>,
        dangling: Vec<u32>,
        num_nodes: usize,
    }

    impl SeedTranspose {
        fn build(graph: &CsrGraph, matrix: &TransitionMatrix) -> Self {
            let n = graph.num_nodes();
            let (offsets, targets, _) = graph.parts();
            let probs = matrix.arc_probs();
            let mut counts = vec![0usize; n + 1];
            for &t in targets {
                counts[t as usize + 1] += 1;
            }
            for i in 0..n {
                counts[i + 1] += counts[i];
            }
            let in_offsets = counts.clone();
            let mut cursor = counts;
            let mut in_sources = vec![0u32; targets.len()];
            let mut csc_probs = vec![0.0f64; targets.len()];
            for v in 0..n {
                for k in offsets[v]..offsets[v + 1] {
                    let t = targets[k] as usize;
                    let slot = cursor[t];
                    cursor[t] += 1;
                    in_sources[slot] = v as u32;
                    csc_probs[slot] = probs[k];
                }
            }
            let dangling = (0..n as u32)
                .filter(|&v| offsets[v as usize] == offsets[v as usize + 1])
                .collect();
            Self {
                in_offsets,
                in_sources,
                csc_probs,
                dangling,
                num_nodes: n,
            }
        }
    }

    /// The PR-0 iteration scheme: node-count chunks, threads spawned every
    /// iteration (crossbeam scope in the original; std scope here).
    fn seed_parallel_solve(
        transpose: &SeedTranspose,
        config: &PageRankConfig,
        num_threads: usize,
    ) -> PageRankResult {
        let n = transpose.num_nodes;
        let threads = num_threads.clamp(1, n.max(1));
        let uniform = 1.0 / n as f64;
        let alpha = config.alpha;
        let mut rank: Vec<f64> = vec![uniform; n];
        let mut next = vec![0.0f64; n];
        let chunk = n.div_ceil(threads);

        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        while iterations < config.max_iterations {
            iterations += 1;
            let dangling_mass: f64 = transpose.dangling.iter().map(|&v| rank[v as usize]).sum();
            let rank_ref = &rank;
            let residuals: Vec<f64> = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for (ci, slice) in next.chunks_mut(chunk).enumerate() {
                    let start = ci * chunk;
                    let in_offsets = &transpose.in_offsets;
                    let in_sources = &transpose.in_sources;
                    let csc_probs = &transpose.csc_probs;
                    handles.push(scope.spawn(move || {
                        let mut local_residual = 0.0;
                        for (off, slot) in slice.iter_mut().enumerate() {
                            let j = start + off;
                            let mut acc = (1.0 - alpha) * uniform + alpha * dangling_mass * uniform;
                            for k in in_offsets[j]..in_offsets[j + 1] {
                                acc += alpha * csc_probs[k] * rank_ref[in_sources[k] as usize];
                            }
                            local_residual += (acc - rank_ref[j]).abs();
                            *slot = acc;
                        }
                        local_residual
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
            residual = residuals.iter().sum();
            std::mem::swap(&mut rank, &mut next);
            if residual < config.tolerance {
                break;
            }
        }
        PageRankResult {
            scores: rank,
            iterations,
            residual,
            converged: residual < config.tolerance,
        }
    }

    /// The seed sweep: rebuild matrix + transpose at every grid point.
    pub fn sweep(
        graph: &CsrGraph,
        ps: &[f64],
        config: &PageRankConfig,
        threads: usize,
    ) -> Vec<PageRankResult> {
        ps.iter()
            .map(|&p| {
                let matrix = TransitionMatrix::build(graph, TransitionModel::DegreeDecoupled { p });
                let transpose = SeedTranspose::build(graph, &matrix);
                seed_parallel_solve(&transpose, config, threads)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The bench proper
// ---------------------------------------------------------------------------

const SWEEP_PS: [f64; 5] = [-1.0, -0.5, 0.0, 0.5, 1.0];

fn bench_graph() -> CsrGraph {
    // ~100k nodes, ~1M arcs (undirected BA with 5 attachments per node
    // stores each edge as two arcs). The `smoke` feature shrinks this to a
    // seconds-scale CI run that still exercises every measured path.
    let nodes = if cfg!(feature = "smoke") {
        3_000
    } else {
        100_000
    };
    barabasi_albert(nodes, 5, 0xD2).expect("generator succeeds")
}

fn models() -> Vec<TransitionModel> {
    SWEEP_PS
        .iter()
        .map(|&p| TransitionModel::DegreeDecoupled { p })
        .collect()
}

fn engine_sweep(graph: &CsrGraph, warm: bool, threads: usize) -> Vec<PageRankResult> {
    let mut engine = Engine::with_threads(graph, threads);
    engine.sweep(&models(), warm).expect("valid sweep")
}

fn check_agreement(a: &[PageRankResult], b: &[PageRankResult]) {
    for (x, y) in a.iter().zip(b) {
        for (s, t) in x.scores.iter().zip(&y.scores) {
            assert!((s - t).abs() < 1e-7, "solver paths disagree: {s} vs {t}");
        }
    }
}

fn operator_update_allocations(graph: &CsrGraph) -> u64 {
    let mut engine = Engine::new(graph);
    // Warm-up: the first build may grow the neighborhood scratch buffers.
    engine
        .set_model(TransitionModel::DegreeDecoupled { p: SWEEP_PS[0] })
        .expect("valid");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for &p in &SWEEP_PS {
        engine
            .set_model(TransitionModel::DegreeDecoupled { p })
            .expect("valid");
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn p_sweep_comparison(c: &mut Criterion) {
    let graph = bench_graph();
    let threads = default_threads();
    let config = PageRankConfig::default();
    println!(
        "graph: {} nodes, {} arcs, {} threads",
        graph.num_nodes(),
        graph.num_arcs(),
        threads
    );

    // The thread count every call site in the seed repo hardcoded.
    const SEED_CANONICAL_THREADS: usize = 4;

    // Correctness cross-check before timing anything.
    let seed_results = seed_baseline::sweep(&graph, &SWEEP_PS, &config, SEED_CANONICAL_THREADS);
    let cold_results = engine_sweep(&graph, false, threads);
    let warm_results = engine_sweep(&graph, true, threads);
    check_agreement(&seed_results, &cold_results);
    check_agreement(&seed_results, &warm_results);
    let iters = |rs: &[PageRankResult]| rs.iter().map(|r| r.iterations).sum::<usize>();
    let (seed_iters, cold_iters, warm_iters) = (
        iters(&seed_results),
        iters(&cold_results),
        iters(&warm_results),
    );

    let allocs = operator_update_allocations(&graph);
    println!(
        "operator-update allocations across {} points: {allocs}",
        SWEEP_PS.len()
    );

    let mut group = c.benchmark_group("engine_p_sweep");
    if cfg!(feature = "smoke") {
        // Enough samples that the perf-guard's ratio gate is not at the
        // mercy of one noisy measurement on a shared CI runner.
        group
            .sample_size(5)
            .measurement_time(Duration::from_secs(3));
    } else {
        group
            .sample_size(3)
            .measurement_time(Duration::from_secs(60));
    }
    group.bench_function("seed_rebuild_4threads", |b| {
        b.iter(|| {
            black_box(seed_baseline::sweep(
                black_box(&graph),
                &SWEEP_PS,
                &config,
                SEED_CANONICAL_THREADS,
            ))
        })
    });
    group.bench_function("seed_rebuild_1thread", |b| {
        b.iter(|| {
            black_box(seed_baseline::sweep(
                black_box(&graph),
                &SWEEP_PS,
                &config,
                1,
            ))
        })
    });
    group.bench_function("engine_cold", |b| {
        b.iter(|| black_box(engine_sweep(black_box(&graph), false, threads)))
    });
    group.bench_function("engine_warm", |b| {
        b.iter(|| black_box(engine_sweep(black_box(&graph), true, threads)))
    });
    // The engine's designed usage: the structural transpose is cached per
    // graph and sweeps reuse it (the sweep-reuse contract), so measure a
    // persistent engine separately from the build-everything-per-sweep runs.
    let mut persistent = Engine::with_threads(&graph, threads);
    group.bench_function("engine_prebuilt_warm", |b| {
        b.iter(|| black_box(persistent.sweep(&models(), true).expect("valid sweep")))
    });
    // Thread-count axis: the prebuilt warm sweep at every power-of-two
    // worker count up to the host's parallelism, so runs from hosts with
    // different core counts stay comparable. The transpose is *shared*
    // across the axis engines (one build, `Arc`-cloned).
    let thread_axis = thread_axis(threads);
    let shared = persistent.shared_structure();
    for &t in &thread_axis {
        let mut engine = Engine::with_structure(&graph, shared.clone(), t).expect("same graph");
        group.bench_function(format!("engine_prebuilt_warm_t{t}").as_str(), |b| {
            b.iter(|| black_box(engine.sweep(&models(), true).expect("valid sweep")))
        });
    }
    // Layout × index axes: the prebuilt warm sweep under every cache-aware
    // node ordering (baseline / degree-descending / RCM), each measured
    // both with the narrow (u32) offsets copy the kernels prefer and with
    // it dropped (the wide-usize fallback huge graphs take). Every combo
    // is cross-checked against the seed results before timing — permuted
    // solves must be observationally identical.
    let mut layout_combos: Vec<String> = Vec::new();
    for layout in GraphLayout::ALL {
        let (internal, csc) =
            CscStructure::with_layout(&graph, layout).expect("bench graph fits u32");
        let perm = csc.permutation().cloned();
        for (index, csc) in [
            ("narrow", csc.clone()),
            ("wide", csc.without_narrow_index()),
        ] {
            let combo = format!("{}_{index}", layout.name());
            let mut engine =
                Engine::with_structure(&internal, Arc::new(csc), threads).expect("same graph");
            let results = engine.sweep(&models(), true).expect("valid sweep");
            for (seed, r) in seed_results.iter().zip(&results) {
                for (v, s) in seed.scores.iter().enumerate() {
                    let internal_v = perm
                        .as_ref()
                        .map_or(v, |p| p.to_internal(v as u32) as usize);
                    assert!(
                        (s - r.scores[internal_v]).abs() < 1e-7,
                        "layout {combo} diverges at node {v}"
                    );
                }
            }
            group.bench_function(
                format!("engine_prebuilt_warm_layout_{combo}").as_str(),
                |b| b.iter(|| black_box(engine.sweep(&models(), true).expect("valid sweep"))),
            );
            layout_combos.push(combo);
        }
    }
    group.finish();

    let ms = |name: &str| report_ms(c, name);
    let seed4_ms = ms("seed_rebuild_4threads");
    let seed1_ms = ms("seed_rebuild_1thread");
    let cold_ms = ms("engine_cold");
    let warm_ms = ms("engine_warm");
    let prebuilt_ms = ms("engine_prebuilt_warm");
    let axis_ms = axis_json(&thread_axis, |t| ms(&format!("engine_prebuilt_warm_t{t}")));
    let layout_ms: Vec<(String, f64)> = layout_combos
        .iter()
        .map(|combo| {
            (
                combo.clone(),
                ms(&format!("engine_prebuilt_warm_layout_{combo}")),
            )
        })
        .collect();
    let layout_json = format!(
        "{{{}}}",
        layout_ms
            .iter()
            .map(|(combo, v)| format!("\"{combo}\": {v:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let best = layout_ms
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("layout axes measured");
    let baseline_wide_ms = layout_ms
        .iter()
        .find(|(combo, _)| combo == "baseline_wide")
        .expect("baseline_wide measured")
        .1;
    let best_narrow_ms = layout_ms
        .iter()
        .filter(|(combo, _)| combo.ends_with("_narrow"))
        .map(|&(_, v)| v)
        .min_by(f64::total_cmp)
        .expect("narrow combos measured");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"engine_p_sweep\",\n",
            "  \"graph\": {{\"generator\": \"barabasi_albert({}, 5, 0xD2)\", ",
            "\"nodes\": {}, \"arcs\": {}}},\n",
            "  \"sweep_ps\": [-1.0, -0.5, 0.0, 0.5, 1.0],\n",
            "  \"host_cpus\": {},\n",
            "  \"engine_threads\": {},\n",
            "  \"tolerance\": {:e},\n",
            "  \"iterations\": {{\"seed\": {}, \"engine_cold\": {}, \"engine_warm\": {}}},\n",
            "  \"seed_rebuild_4threads_ms\": {:.2},\n",
            "  \"seed_rebuild_1thread_ms\": {:.2},\n",
            "  \"engine_cold_ms\": {:.2},\n",
            "  \"engine_warm_ms\": {:.2},\n",
            "  \"engine_prebuilt_warm_ms\": {:.2},\n",
            "  \"engine_prebuilt_warm_ms_by_threads\": {},\n",
            "  \"engine_prebuilt_warm_ms_by_layout\": {},\n",
            "  \"layout_best\": \"{}\",\n",
            "  \"speedup_layout_best_vs_baseline\": {:.3},\n",
            "  \"speedup_layout_narrow_vs_seed4\": {:.3},\n",
            "  \"speedup_cold_vs_seed4\": {:.3},\n",
            "  \"speedup_warm_vs_seed4\": {:.3},\n",
            "  \"speedup_warm_vs_seed1\": {:.3},\n",
            "  \"speedup_prebuilt_vs_seed4\": {:.3},\n",
            "  \"operator_update_allocations\": {}\n",
            "}}\n"
        ),
        graph.num_nodes(),
        graph.num_nodes(),
        graph.num_arcs(),
        default_threads(),
        threads,
        config.tolerance,
        seed_iters,
        cold_iters,
        warm_iters,
        seed4_ms,
        seed1_ms,
        cold_ms,
        warm_ms,
        prebuilt_ms,
        axis_ms,
        layout_json,
        best.0,
        baseline_wide_ms / best.1,
        seed4_ms / best_narrow_ms,
        seed4_ms / cold_ms,
        seed4_ms / warm_ms,
        seed1_ms / warm_ms,
        seed4_ms / prebuilt_ms,
        allocs,
    );
    // Smoke runs feed the CI perf guard from a scratch path; acceptance
    // runs update the committed trajectory at the workspace root.
    let out = if cfg!(feature = "smoke") {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-smoke");
        std::fs::create_dir_all(&dir).expect("create bench-smoke dir");
        dir.join("BENCH_pagerank.json")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pagerank.json")
    };
    let mut f = std::fs::File::create(&out).expect("create BENCH_pagerank.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_pagerank.json");
    println!("wrote {}\n{json}", out.display());
    println!(
        "warm vs seed@4: {:.2}x, prebuilt vs seed@4: {:.2}x",
        seed4_ms / warm_ms,
        seed4_ms / prebuilt_ms
    );
    println!(
        "layout best: {} at {:.2} ms ({:.2}x vs baseline_wide)",
        best.0,
        best.1,
        baseline_wide_ms / best.1
    );
}

criterion_group!(benches, p_sweep_comparison);
criterion_main!(benches);
