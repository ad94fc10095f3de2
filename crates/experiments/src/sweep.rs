//! Parameter sweep engine.
//!
//! Every figure in the paper is a sweep of the de-coupling weight `p`
//! (optionally crossed with `α` or `β`) plotting the Spearman correlation
//! between D2PR ranks and application significance. This module runs those
//! sweeps efficiently through the fused [`Engine`]: the transpose structure
//! and degree/Θ tables are built once per graph, the operator is rewritten
//! in place per grid point, and one arc-balanced worker pool serves every
//! iteration of every `(β, α, p)` grid point.

use d2pr_core::d2pr::D2pr;
use d2pr_core::engine::Engine;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::transition::TransitionModel;
use d2pr_graph::csr::CsrGraph;
use d2pr_stats::correlation::{kendall_tau_b, spearman};

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
    /// Worker threads for the engine (`0` = machine parallelism).
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
    /// β only exists for weighted transitions).
    ///
    /// One [`Engine`] serves the whole grid: the transposed operator
    /// structure is built once, each `(β, α, p)` point only rewrites the
    /// probability array in place, and the worker pool is reused across
    /// every `p` curve.
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
        let threads = if self.threads == 0 {
            d2pr_core::engine::default_threads()
        } else {
            self.threads
        };
        let mut engine = Engine::with_threads(graph, threads);
        let mut out = Vec::with_capacity(self.ps.len() * self.alphas.len() * betas.len());
        for &beta in betas {
            let models: Vec<TransitionModel> = self
                .ps
                .iter()
                .map(|&p| {
                    if graph.is_weighted() {
                        TransitionModel::Blended { p, beta }
                    } else {
                        TransitionModel::DegreeDecoupled { p }
                    }
                })
                .collect();
            for &alpha in &self.alphas {
                let config = PageRankConfig {
                    alpha,
                    tolerance: self.tolerance,
                    max_iterations: self.max_iterations,
                    ..Default::default()
                };
                engine
                    .set_config(config)
                    .expect("validated sweep parameters");
                let results = engine
                    .sweep(&models, false)
                    .expect("validated sweep parameters");
                for (&p, result) in self.ps.iter().zip(results) {
                    let rho = correlation_with_significance(&result.scores, significance);
                    out.push(GridPoint {
                        p,
                        alpha,
                        beta,
                        spearman: rho,
                        iterations: result.iterations,
                    });
                }
            }
        }
        out
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
