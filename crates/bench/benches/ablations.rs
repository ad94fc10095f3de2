//! Design-choice ablations:
//!
//! * **Θ caching** — rebuilding the transition operator with a cached
//!   degree/Θ table (what `D2pr::sweep_p` does) vs recomputing it per point;
//! * **log-space kernel vs direct powf** — the numerically-safe kernel
//!   against the naive `deg.powf(-p)` (which overflows for extreme `p` —
//!   benchmarked only on the safe range);
//! * **oracle push vs engine pull** — the reference power iteration
//!   against the production engine at 1, 2 and 4 threads, with and
//!   without the transpose-construction cost;
//! * **fractional-rank Spearman vs d² formula** — tie-correct ranking
//!   against the classic no-ties shortcut;
//! * **warm vs cold sweeps** — re-using the previous grid point's solution
//!   as the next solve's initial iterate across the paper's p grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use d2pr_core::d2pr::D2pr;
use d2pr_core::engine::Engine;
use d2pr_core::pagerank::{pagerank_with_matrix, PageRankConfig};
use d2pr_core::transition::{TransitionMatrix, TransitionModel};
use d2pr_graph::generators::barabasi_albert;
use d2pr_graph::transpose::CscStructure;
use d2pr_stats::correlation::{spearman, spearman_from_distinct_ranks};
use d2pr_stats::rank::{fractional_ranks, RankOrder};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn theta_caching(c: &mut Criterion) {
    let g = barabasi_albert(4_000, 6, 7).expect("generator succeeds");
    let engine = D2pr::new(&g);
    let ps: Vec<f64> = D2pr::paper_p_grid();
    let mut group = c.benchmark_group("ablation_theta_caching");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("cached_theta_sweep", |b| {
        b.iter(|| {
            for &p in &ps {
                black_box(engine.matrix_for(black_box(p)));
            }
        })
    });
    group.bench_function("recompute_theta_sweep", |b| {
        b.iter(|| {
            for &p in &ps {
                black_box(TransitionMatrix::build(
                    black_box(&g),
                    TransitionModel::DegreeDecoupled { p },
                ));
            }
        })
    });
    group.finish();
}

/// The unsafe direct evaluation the log-space kernel replaces. Valid only
/// while `|p|·log10(deg)` stays well inside f64 range.
fn naive_normalize(p: f64, degs: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let mut sum = 0.0;
    for &d in degs {
        let w = d.max(1.0).powf(-p);
        out.push(w);
        sum += w;
    }
    for w in out.iter_mut() {
        *w /= sum;
    }
}

fn kernel_logspace_vs_direct(c: &mut Criterion) {
    let degs: Vec<f64> = (1..=256).map(f64::from).collect();
    let mut group = c.benchmark_group("ablation_kernel_logspace");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for p in [0.5, 2.0, -2.0] {
        let kernel = d2pr_core::kernel::DegreeKernel::new(p);
        group.bench_with_input(BenchmarkId::new("logspace", p), &p, |b, _| {
            let mut out = Vec::new();
            b.iter(|| kernel.normalize_into(black_box(&degs), &mut out))
        });
        group.bench_with_input(BenchmarkId::new("direct_powf", p), &p, |b, &p| {
            let mut out = Vec::new();
            b.iter(|| naive_normalize(black_box(p), black_box(&degs), &mut out))
        });
    }
    group.finish();
}

fn serial_vs_parallel(c: &mut Criterion) {
    let g = barabasi_albert(20_000, 8, 5).expect("generator succeeds");
    let model = TransitionModel::DegreeDecoupled { p: 0.5 };
    let matrix = TransitionMatrix::build(&g, model);
    let cfg = PageRankConfig::default();
    let mut group = c.benchmark_group("ablation_serial_vs_parallel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("oracle_push", |b| {
        b.iter(|| black_box(pagerank_with_matrix(black_box(&g), &matrix, &cfg, None)))
    });
    let csc = Arc::new(CscStructure::build(&g));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("engine_pull_incl_transpose", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut engine = Engine::with_threads(black_box(&g), threads);
                    black_box(engine.solve_model(model).expect("valid inputs"))
                })
            },
        );
        let mut engine =
            Engine::with_structure(&g, Arc::clone(&csc), threads).expect("matching structure");
        engine.set_model(model).expect("valid model");
        group.bench_with_input(
            BenchmarkId::new("engine_pull_prebuilt", threads),
            &threads,
            |b, _| b.iter(|| black_box(engine.solve().expect("valid inputs"))),
        );
    }
    group.finish();
}

fn spearman_variants(c: &mut Criterion) {
    // Scores with heavy ties (realistic for degree-like data).
    let xs: Vec<f64> = (0..20_000).map(|i| f64::from(i % 500)).collect();
    let ys: Vec<f64> = (0..20_000).map(|i| f64::from((i * 7 + 13) % 500)).collect();
    let mut group = c.benchmark_group("ablation_spearman");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("tie_correct_spearman", |b| {
        b.iter(|| black_box(spearman(black_box(&xs), black_box(&ys))))
    });
    group.bench_function("d2_formula_on_prebuilt_ranks", |b| {
        let rx = fractional_ranks(&xs, RankOrder::Ascending);
        let ry = fractional_ranks(&ys, RankOrder::Ascending);
        b.iter(|| black_box(spearman_from_distinct_ranks(black_box(&rx), black_box(&ry))))
    });
    group.finish();
}

fn warm_vs_cold_sweep(c: &mut Criterion) {
    let g = barabasi_albert(3_000, 5, 11).expect("generator succeeds");
    let engine = D2pr::new(&g);
    let grid = D2pr::paper_p_grid();
    let mut group = c.benchmark_group("ablation_warm_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("cold_sweep", |b| {
        b.iter(|| black_box(engine.sweep_p(black_box(&grid)).expect("valid grid")))
    });
    group.bench_function("warm_sweep", |b| {
        b.iter(|| black_box(engine.sweep_p_warm(black_box(&grid)).expect("valid grid")))
    });
    group.finish();
}

criterion_group!(
    benches,
    theta_caching,
    warm_vs_cold_sweep,
    kernel_logspace_vs_direct,
    serial_vs_parallel,
    spearman_variants
);
criterion_main!(benches);
