//! Parameter sweep engine.
//!
//! Every figure in the paper is a sweep of the de-coupling weight `p`
//! (optionally crossed with `α` or `β`) plotting the Spearman correlation
//! between D2PR ranks and application significance. The grid points are
//! independent solves, so this module spreads them over grid workers: the
//! transpose structure is built once per graph and shared by `Arc`, each
//! worker runs its own single-thread [`Engine`] over it (the operator is
//! rewritten in place per grid point), and the significance is ranked
//! once per grid.

use d2pr_core::d2pr::D2pr;
use d2pr_core::engine::{default_threads, Engine};
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::transition::TransitionModel;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::transpose::CscStructure;
use d2pr_stats::correlation::{kendall_tau_b, pearson, spearman};
use d2pr_stats::rank::{fractional_ranks, RankOrder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Spearman correlation between a score vector and the significance signal
/// (scores are a monotone proxy for their ranks, so correlating scores
/// equals correlating ranks — the paper's §4.2 measure).
pub fn correlation_with_significance(scores: &[f64], significance: &[f64]) -> f64 {
    spearman(scores, significance).unwrap_or(0.0)
}

/// One evaluated grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// De-coupling weight `p`.
    pub p: f64,
    /// Residual probability `α`.
    pub alpha: f64,
    /// Connection-strength blend `β` (meaningful for weighted graphs only).
    pub beta: f64,
    /// Spearman correlation between D2PR ranks and significance.
    pub spearman: f64,
    /// Solver iterations spent.
    pub iterations: usize,
}

/// Sweep configuration; the defaults are the paper's (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Grid of `p` values (default `[−4, 4]` step 0.5).
    pub ps: Vec<f64>,
    /// Grid of `α` values (default `{0.85}`).
    pub alphas: Vec<f64>,
    /// Grid of `β` values (default `{0.0}` — full de-coupling).
    pub betas: Vec<f64>,
    /// Solver tolerance.
    pub tolerance: f64,
    /// Solver iteration cap.
    pub max_iterations: usize,
    /// CPUs the sweep may use: grid workers, each solving one grid point
    /// at a time on one thread (`0` = machine parallelism).
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            ps: D2pr::paper_p_grid(),
            alphas: vec![0.85],
            betas: vec![0.0],
            tolerance: 1e-9,
            max_iterations: 200,
            threads: 0,
        }
    }
}

impl SweepConfig {
    /// The paper's α grid for Figures 6–8.
    pub fn paper_alphas() -> Vec<f64> {
        vec![0.5, 0.7, 0.85, 0.9]
    }

    /// The paper's β grid for Figures 9–11.
    pub fn paper_betas() -> Vec<f64> {
        vec![0.0, 0.25, 0.5, 0.75, 1.0]
    }

    /// Run the sweep on one graph + significance pair. For unweighted
    /// graphs the β grid is ignored (a single β=0 pass runs instead, since
    /// β only exists for weighted transitions). Points come back in grid
    /// order: β outer, then α, then p.
    ///
    /// The transpose structure is built once and the significance ranked
    /// once. Up to `threads` grid workers — the calling thread plus scoped
    /// threads, never more workers than points — claim points from a
    /// shared counter, each solving on its own single-thread [`Engine`]
    /// over the shared structure, and drop each point's scores as soon as
    /// they are correlated. Every point starts from the uniform vector, so
    /// the result is the same, bit for bit, at every `threads`.
    pub fn run(&self, graph: &CsrGraph, significance: &[f64]) -> Vec<GridPoint> {
        assert_eq!(
            graph.num_nodes(),
            significance.len(),
            "significance must cover every node"
        );
        let betas: &[f64] = if graph.is_weighted() {
            &self.betas
        } else {
            &[0.0]
        };
        let grid: Vec<(f64, f64, f64)> = betas
            .iter()
            .flat_map(|&beta| {
                self.alphas
                    .iter()
                    .flat_map(move |&alpha| self.ps.iter().map(move |&p| (beta, alpha, p)))
            })
            .collect();
        let threads = if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        };
        let csc = Arc::new(CscStructure::build(graph));
        let sig_ranks = fractional_ranks(significance, RankOrder::Ascending);
        // Each worker's engine and point list are built here, on the
        // calling thread, and the workers only borrow them: a thread's
        // allocations live in its own malloc arena, which the process's
        // later threads inherit once it exits, and building them inside
        // the spawned workers slowed the serving layer's ranked reads on
        // the `sweep` benchmark by a quarter.
        let workers = threads.clamp(1, grid.len().max(1));
        let mut slots: Vec<(Engine<'_>, Vec<(usize, GridPoint)>)> = (0..workers)
            .map(|_| {
                let engine = Engine::with_structure(graph, Arc::clone(&csc))
                    .expect("structure of this graph");
                (engine, Vec::with_capacity(grid.len()))
            })
            .collect();
        let next = AtomicUsize::new(0);
        let work = |(engine, done): &mut (Engine<'_>, Vec<(usize, GridPoint)>)| loop {
            // Relaxed: the counter only hands out indices; the points come
            // back through the workers' joins.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(beta, alpha, p)) = grid.get(i) else {
                return;
            };
            let config = PageRankConfig {
                alpha,
                tolerance: self.tolerance,
                max_iterations: self.max_iterations,
                ..Default::default()
            };
            engine
                .set_config(config)
                .expect("validated sweep parameters");
            let model = if graph.is_weighted() {
                TransitionModel::Blended { p, beta }
            } else {
                TransitionModel::DegreeDecoupled { p }
            };
            let result = engine
                .solve_model(model)
                .expect("validated sweep parameters");
            // `spearman` bit for bit, with the significance ranked once.
            let ranks = fractional_ranks(&result.scores, RankOrder::Ascending);
            let rho = pearson(&ranks, &sig_ranks).unwrap_or(0.0);
            done.push((
                i,
                GridPoint {
                    p,
                    alpha,
                    beta,
                    spearman: rho,
                    iterations: result.iterations,
                },
            ));
        };
        let work = &work;
        std::thread::scope(|scope| {
            let (first, rest) = slots.split_first_mut().expect("at least one worker");
            let extra: Vec<_> = rest
                .iter_mut()
                .map(|slot| scope.spawn(move || work(slot)))
                .collect();
            work(first);
            for handle in extra {
                handle.join().expect("grid worker panicked");
            }
        });
        let mut points: Vec<(usize, GridPoint)> =
            slots.into_iter().flat_map(|(_, done)| done).collect();
        points.sort_unstable_by_key(|&(i, _)| i);
        points.into_iter().map(|(_, point)| point).collect()
    }
}

/// The grid point with the highest Spearman correlation (ties: first).
pub fn best_point(points: &[GridPoint]) -> Option<GridPoint> {
    points.iter().copied().max_by(|a, b| {
        a.spearman
            .partial_cmp(&b.spearman)
            .expect("finite correlations")
    })
}

/// Restrict points to one `(α, β)` curve, ordered by `p`.
pub fn curve(points: &[GridPoint], alpha: f64, beta: f64) -> Vec<GridPoint> {
    let mut c: Vec<GridPoint> = points
        .iter()
        .copied()
        .filter(|pt| (pt.alpha - alpha).abs() < 1e-12 && (pt.beta - beta).abs() < 1e-12)
        .collect();
    c.sort_by(|a, b| a.p.partial_cmp(&b.p).expect("finite p"));
    c
}

/// Kendall τ-b variant of the correlation, on a subsample when the graph is
/// large (τ is O(n²)). Robustness check for the Spearman-based figures.
pub fn kendall_with_significance(scores: &[f64], significance: &[f64], max_nodes: usize) -> f64 {
    if scores.len() <= max_nodes {
        return kendall_tau_b(scores, significance).unwrap_or(0.0);
    }
    // Deterministic stride subsample.
    let stride = scores.len().div_ceil(max_nodes);
    let xs: Vec<f64> = scores.iter().step_by(stride).copied().collect();
    let ys: Vec<f64> = significance.iter().step_by(stride).copied().collect();
    kendall_tau_b(&xs, &ys).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2pr_graph::builder::GraphBuilder;
    use d2pr_graph::csr::Direction;
    use d2pr_graph::generators::barabasi_albert;
    use d2pr_graph::stats::degrees_f64;

    #[test]
    fn sweep_produces_full_grid() {
        let g = barabasi_albert(60, 2, 3).unwrap();
        let sig = degrees_f64(&g);
        let cfg = SweepConfig {
            ps: vec![-1.0, 0.0, 1.0],
            alphas: vec![0.5, 0.85],
            betas: vec![0.0, 1.0], // ignored: unweighted graph
            ..Default::default()
        };
        let pts = cfg.run(&g, &sig);
        assert_eq!(pts.len(), 3 * 2);
    }

    #[test]
    fn degree_significance_peaks_at_negative_p() {
        // When significance IS the degree, boosting degrees (p < 0) must
        // correlate at least as well as penalizing them (p > 0).
        let g = barabasi_albert(200, 3, 9).unwrap();
        let sig = degrees_f64(&g);
        let cfg = SweepConfig {
            ps: vec![-2.0, 0.0, 2.0],
            ..Default::default()
        };
        let pts = cfg.run(&g, &sig);
        let at = |p: f64| pts.iter().find(|pt| pt.p == p).unwrap().spearman;
        assert!(
            at(-2.0) > at(2.0),
            "boost {} vs penalize {}",
            at(-2.0),
            at(2.0)
        );
        assert!(
            at(0.0) > 0.8,
            "conventional PR tracks degree, got {}",
            at(0.0)
        );
    }

    #[test]
    fn grid_workers_match_pointwise_solves() {
        // Dynamic claiming, order restoration and the once-ranked
        // significance: at every `threads` the grid equals a point-by-point
        // loop of `solve_model` plus `correlation_with_significance`.
        let ba = barabasi_albert(300, 3, 5).unwrap();
        let mut b = GraphBuilder::new(Direction::Directed, 120);
        for u in 0..120u32 {
            for k in 1..=3u32 {
                let v = (u * 7 + k * 13) % 120;
                if v != u {
                    b.add_weighted_edge(u, v, f64::from(1 + (u + k) % 5));
                }
            }
        }
        let weighted = b.build().unwrap();
        let grids = [
            (
                &ba,
                SweepConfig {
                    ps: vec![-1.0, 0.0, 0.5, 2.0],
                    alphas: vec![0.5, 0.85],
                    ..Default::default()
                },
            ),
            (
                &weighted,
                SweepConfig {
                    ps: vec![-1.0, 0.5],
                    betas: vec![0.0, 0.5, 1.0],
                    ..Default::default()
                },
            ),
        ];
        for (g, cfg) in grids {
            let sig: Vec<f64> = degrees_f64(g)
                .iter()
                .enumerate()
                .map(|(v, d)| d + (v % 7) as f64)
                .collect();
            let betas = if g.is_weighted() {
                &cfg.betas[..]
            } else {
                &[0.0]
            };
            let mut expected = Vec::new();
            for &beta in betas {
                for &alpha in &cfg.alphas {
                    for &p in &cfg.ps {
                        let config = PageRankConfig {
                            alpha,
                            tolerance: cfg.tolerance,
                            max_iterations: cfg.max_iterations,
                            ..Default::default()
                        };
                        let model = if g.is_weighted() {
                            TransitionModel::Blended { p, beta }
                        } else {
                            TransitionModel::DegreeDecoupled { p }
                        };
                        let mut engine = Engine::new(g).with_config(config).unwrap();
                        let r = engine.solve_model(model).unwrap();
                        let rho = correlation_with_significance(&r.scores, &sig);
                        expected.push((p, alpha, beta, rho, r.iterations));
                    }
                }
            }
            for threads in [1, 3] {
                let points = SweepConfig {
                    threads,
                    ..cfg.clone()
                }
                .run(g, &sig);
                assert_eq!(points.len(), expected.len());
                for (pt, &(p, alpha, beta, rho, iterations)) in points.iter().zip(&expected) {
                    assert_eq!((pt.p, pt.alpha, pt.beta), (p, alpha, beta), "grid order");
                    assert_eq!(pt.spearman.to_bits(), rho.to_bits(), "threads = {threads}");
                    assert_eq!(pt.iterations, iterations);
                }
            }
        }
    }

    #[test]
    fn best_point_and_curve_helpers() {
        let pts = vec![
            GridPoint {
                p: 0.0,
                alpha: 0.85,
                beta: 0.0,
                spearman: 0.1,
                iterations: 5,
            },
            GridPoint {
                p: 0.5,
                alpha: 0.85,
                beta: 0.0,
                spearman: 0.7,
                iterations: 5,
            },
            GridPoint {
                p: 0.5,
                alpha: 0.5,
                beta: 0.0,
                spearman: 0.3,
                iterations: 5,
            },
        ];
        let best = best_point(&pts).unwrap();
        assert_eq!(best.p, 0.5);
        assert_eq!(best.alpha, 0.85);
        let c = curve(&pts, 0.85, 0.0);
        assert_eq!(c.len(), 2);
        assert!(c[0].p < c[1].p);
        assert!(best_point(&[]).is_none());
    }

    #[test]
    fn kendall_subsampling_bounded() {
        let g = barabasi_albert(500, 2, 4).unwrap();
        let sig = degrees_f64(&g);
        let scores: Vec<f64> = sig.iter().map(|d| d * 2.0).collect();
        let tau = kendall_with_significance(&scores, &sig, 100);
        assert!(tau > 0.99, "perfect monotone relation, got {tau}");
    }

    #[test]
    #[should_panic(expected = "significance must cover")]
    fn mismatched_significance_panics() {
        let g = barabasi_albert(10, 2, 1).unwrap();
        SweepConfig::default().run(&g, &[1.0]);
    }
}
