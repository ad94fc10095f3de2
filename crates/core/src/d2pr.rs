//! High-level D2PR façade.
//!
//! [`D2pr`] wraps a graph together with cached degree/Θ tables and exposes
//! the paper's knobs (`p`, `β`, `α`) with the paper's defaults. A parameter
//! sweep (the workhorse of every figure in §4) re-uses the cached tables and
//! rebuilds only the per-arc probabilities.
//!
//! ```
//! use d2pr_core::d2pr::D2pr;
//! use d2pr_graph::generators::barabasi_albert;
//!
//! let g = barabasi_albert(100, 3, 7).unwrap();
//! let engine = D2pr::new(&g);
//!
//! // Conventional PageRank (p = 0)…
//! let conventional = engine.scores(0.0).unwrap();
//! // …and degree-penalized D2PR (p = 0.5, the Group-A optimum).
//! let decoupled = engine.scores(0.5).unwrap();
//! assert_eq!(conventional.scores.len(), decoupled.scores.len());
//! ```

use crate::engine::Engine;
use crate::pagerank::{pagerank_with_workspace, PageRankConfig, PageRankResult};
use crate::transition::{TransitionMatrix, TransitionModel};
use crate::workspace::Workspace;
use d2pr_graph::csr::{CsrGraph, NodeId};
use std::cell::RefCell;

/// D2PR engine over a borrowed graph with cached degree/Θ tables.
#[derive(Debug, Clone)]
pub struct D2pr<'g> {
    graph: &'g CsrGraph,
    /// Destination degree table: `deg`/`outdeg` for unweighted graphs,
    /// `Θ` (total out-weight) for weighted graphs.
    theta: Vec<f64>,
    config: PageRankConfig,
    beta: f64,
    /// Reused rank/next/teleport buffers for the point-solve entry points.
    ws: RefCell<Workspace>,
}

impl<'g> D2pr<'g> {
    /// Create an engine with the paper's defaults: `α = 0.85`, `β = 0`
    /// (full de-coupling; §4.1).
    pub fn new(graph: &'g CsrGraph) -> Self {
        let theta = if graph.is_weighted() {
            graph.nodes().map(|v| graph.out_weight(v)).collect()
        } else {
            graph
                .nodes()
                .map(|v| f64::from(graph.kernel_degree(v)))
                .collect()
        };
        Self {
            graph,
            theta,
            config: PageRankConfig::default(),
            beta: 0.0,
            ws: RefCell::new(Workspace::with_capacity(graph.num_nodes())),
        }
    }

    /// Replace the solver configuration (α, tolerance, iteration cap,
    /// dangling policy).
    pub fn with_config(mut self, config: PageRankConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the residual probability `α` (keeping other config fields).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Set the connection-strength blend `β ∈ [0, 1]` (paper §3.2.3).
    /// Only meaningful for weighted graphs; `β = 0` (default) is full
    /// degree de-coupling, `β = 1` is conventional weighted PageRank.
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must lie in [0,1]");
        self.beta = beta;
        self
    }

    /// A fused sweep [`Engine`] over the same graph and solver
    /// configuration.
    ///
    /// # Errors
    /// Returns the validation message when the configuration is invalid.
    pub fn engine(&self) -> Result<Engine<'g>, String> {
        Engine::new(self.graph)
            .with_config(self.config)
            .map_err(String::from)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// Solver configuration in effect.
    pub fn config(&self) -> &PageRankConfig {
        &self.config
    }

    /// The transition model that a given `p` resolves to under the current
    /// `β` and graph weighting.
    pub fn model_for(&self, p: f64) -> TransitionModel {
        if self.graph.is_weighted() {
            TransitionModel::Blended { p, beta: self.beta }
        } else {
            TransitionModel::DegreeDecoupled { p }
        }
    }

    /// Build the transition operator for a given `p`, reusing cached Θ.
    pub fn matrix_for(&self, p: f64) -> TransitionMatrix {
        TransitionMatrix::build_with_theta(self.graph, self.model_for(p), &self.theta)
    }

    /// D2PR scores for de-coupling weight `p`. `p = 0` with `β = 1` (or an
    /// unweighted graph with `p = 0`) reproduces conventional PageRank.
    ///
    /// # Errors
    /// Returns the validation message when the configuration is invalid.
    pub fn scores(&self, p: f64) -> Result<PageRankResult, String> {
        self.config.validate()?;
        self.model_for(p).validate()?;
        let matrix = self.matrix_for(p);
        let mut ws = self.ws.borrow_mut();
        pagerank_with_workspace(self.graph, &matrix, &self.config, None, None, &mut ws)
            .map_err(String::from)
    }

    /// Personalized D2PR scores restarted at `seeds`.
    ///
    /// # Errors
    /// Returns the validation message for bad configs or an empty seed set.
    pub fn personalized_scores(&self, p: f64, seeds: &[NodeId]) -> Result<PageRankResult, String> {
        self.config.validate()?;
        self.model_for(p).validate()?;
        if seeds.is_empty() {
            return Err("seed set must not be empty".into());
        }
        if let Some(&bad) = seeds
            .iter()
            .find(|&&s| (s as usize) >= self.graph.num_nodes())
        {
            return Err(format!("seed {bad} out of range"));
        }
        let matrix = self.matrix_for(p);
        let t = crate::personalized::seed_teleport(self.graph.num_nodes(), seeds);
        let mut ws = self.ws.borrow_mut();
        pagerank_with_workspace(self.graph, &matrix, &self.config, Some(&t), None, &mut ws)
            .map_err(String::from)
    }

    /// Sweep the de-coupling weight over `ps` through the fused [`Engine`]:
    /// the transpose structure is built once and the operator is rewritten
    /// in place per grid point. Returns `(p, result)` pairs in input order.
    ///
    /// # Errors
    /// Fails fast on the first invalid parameter.
    pub fn sweep_p(&self, ps: &[f64]) -> Result<Vec<(f64, PageRankResult)>, String> {
        self.sweep_p_impl(ps, false)
    }

    fn sweep_p_impl(&self, ps: &[f64], warm: bool) -> Result<Vec<(f64, PageRankResult)>, String> {
        self.config.validate()?;
        let models: Vec<TransitionModel> = ps.iter().map(|&p| self.model_for(p)).collect();
        for model in &models {
            model.validate()?;
        }
        let mut engine = self.engine()?;
        let results = engine.sweep(&models, warm).map_err(String::from)?;
        Ok(ps.iter().copied().zip(results).collect())
    }

    /// The paper's standard sweep grid: `p ∈ [−4, 4]` in steps of 0.5 (§4.1).
    pub fn paper_p_grid() -> Vec<f64> {
        (-8..=8).map(|i| f64::from(i) * 0.5).collect()
    }

    /// Warm-started sweep: each grid point starts from the previous point's
    /// solution. For the paper's 0.5-step grid consecutive operators are
    /// close, so this saves a large share of iterations while converging to
    /// the same fixed points (tolerance-identical to [`Self::sweep_p`]).
    ///
    /// # Errors
    /// Fails fast on the first invalid parameter.
    pub fn sweep_p_warm(&self, ps: &[f64]) -> Result<Vec<(f64, PageRankResult)>, String> {
        self.sweep_p_impl(ps, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::pagerank;
    use d2pr_graph::builder::GraphBuilder;
    use d2pr_graph::csr::Direction;
    use d2pr_graph::generators::{barabasi_albert, erdos_renyi_nm};

    #[test]
    fn scores_match_direct_solver() {
        let g = barabasi_albert(80, 3, 3).unwrap();
        let engine = D2pr::new(&g);
        let via_engine = engine.scores(0.5).unwrap();
        let direct = pagerank(
            &g,
            TransitionModel::DegreeDecoupled { p: 0.5 },
            &PageRankConfig::default(),
        );
        for (a, b) in via_engine.scores.iter().zip(&direct.scores) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn p_zero_unweighted_is_conventional() {
        let g = erdos_renyi_nm(60, 200, 4).unwrap();
        let engine = D2pr::new(&g);
        let d2pr0 = engine.scores(0.0).unwrap();
        let conventional = pagerank(&g, TransitionModel::Standard, &PageRankConfig::default());
        for (a, b) in d2pr0.scores.iter().zip(&conventional.scores) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_graph_uses_blended_model() {
        let mut b = GraphBuilder::new(Direction::Undirected, 3);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(1, 2, 1.0);
        let g = b.build().unwrap();
        let engine = D2pr::new(&g).with_beta(0.75);
        assert_eq!(
            engine.model_for(0.5),
            TransitionModel::Blended { p: 0.5, beta: 0.75 }
        );
        let r = engine.scores(0.5).unwrap();
        assert!((r.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_reuses_theta_and_orders_results() {
        let g = barabasi_albert(50, 2, 6).unwrap();
        let engine = D2pr::new(&g);
        let grid = [-1.0, 0.0, 1.0];
        let results = engine.sweep_p(&grid).unwrap();
        assert_eq!(results.len(), 3);
        for ((p, r), want) in results.iter().zip(grid) {
            assert_eq!(*p, want);
            assert!((r.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_grid_shape() {
        let grid = D2pr::paper_p_grid();
        assert_eq!(grid.len(), 17);
        assert_eq!(grid[0], -4.0);
        assert_eq!(grid[16], 4.0);
        assert_eq!(grid[8], 0.0);
        for w in grid.windows(2) {
            assert!((w[1] - w[0] - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn alpha_builder_applies() {
        let g = erdos_renyi_nm(30, 60, 2).unwrap();
        let engine = D2pr::new(&g).with_alpha(0.5);
        assert_eq!(engine.config().alpha, 0.5);
        let r = engine.scores(0.0).unwrap();
        assert!(r.converged);
    }

    #[test]
    fn invalid_alpha_is_error_not_panic() {
        let g = erdos_renyi_nm(10, 15, 2).unwrap();
        let engine = D2pr::new(&g).with_alpha(1.5);
        assert!(engine.scores(0.0).is_err());
    }

    #[test]
    fn personalized_seed_validation() {
        let g = erdos_renyi_nm(10, 15, 2).unwrap();
        let engine = D2pr::new(&g);
        assert!(engine.personalized_scores(0.0, &[]).is_err());
        assert!(engine.personalized_scores(0.0, &[99]).is_err());
        let r = engine.personalized_scores(0.0, &[1]).unwrap();
        assert_eq!(r.ranking()[0], 1);
    }

    #[test]
    fn warm_sweep_matches_cold_sweep_and_saves_iterations() {
        let g = barabasi_albert(150, 3, 12).unwrap();
        let tight = PageRankConfig {
            tolerance: 1e-11,
            ..Default::default()
        };
        let engine = D2pr::new(&g).with_config(tight);
        let grid = D2pr::paper_p_grid();
        let cold = engine.sweep_p(&grid).unwrap();
        let warm = engine.sweep_p_warm(&grid).unwrap();
        let mut cold_iters = 0usize;
        let mut warm_iters = 0usize;
        for ((pc, rc), (pw, rw)) in cold.iter().zip(&warm) {
            assert_eq!(pc, pw);
            // Same fixed point within solver tolerance.
            for (a, b) in rc.scores.iter().zip(&rw.scores) {
                assert!((a - b).abs() < 1e-8, "p={pc}: {a} vs {b}");
            }
            cold_iters += rc.iterations;
            warm_iters += rw.iterations;
        }
        // With the engine's extrapolation both sweeps converge quickly and
        // warm starts no longer guarantee a strict saving on tiny graphs;
        // they must never cost materially more, though.
        assert!(
            warm_iters <= cold_iters + cold_iters / 10,
            "warm start should not cost extra iterations: {warm_iters} vs {cold_iters}"
        );
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn beta_out_of_range_panics() {
        let g = erdos_renyi_nm(5, 5, 1).unwrap();
        let _ = D2pr::new(&g).with_beta(2.0);
    }
}
