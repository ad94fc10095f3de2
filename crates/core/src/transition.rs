//! Transition models and the materialized stochastic operator.
//!
//! A [`TransitionModel`] describes how the random surfer leaves a node:
//!
//! * [`TransitionModel::Standard`] — conventional PageRank: uniform over
//!   out-neighbors, or weight-proportional on weighted graphs (paper §1.1).
//! * [`TransitionModel::DegreeDecoupled`] — the paper's D2PR transition
//!   (Equation 1 for undirected graphs, §3.2.2 for directed graphs):
//!   probability into `v_j` ∝ `deg(v_j)^(−p)`.
//! * [`TransitionModel::Blended`] — the weighted-graph formulation of
//!   §3.2.3: `β·T_conn + (1−β)·T_D`, where `T_conn` is edge-weight
//!   proportional and `T_D` uses total out-weight `Θ(v_j)` as the degree.
//!
//! [`TransitionMatrix::build`] materializes per-arc probabilities aligned
//! with the graph's CSR arc order (a column-stochastic operator stored
//! column-major: column = source node) — the reference operator the
//! oracle solvers run on, evaluated in log space for any `p`. The
//! production engine never materializes it: it runs the same blend as
//! per-node tables (see [`crate::engine`]).

use crate::kernel::DegreeKernel;
use d2pr_graph::csr::{CsrGraph, NodeId};

/// How the random surfer chooses an out-edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransitionModel {
    /// Conventional PageRank transitions: uniform over out-neighbors for
    /// unweighted graphs, proportional to edge weight for weighted graphs.
    Standard,
    /// Degree de-coupled transitions (paper Eq. 1 / §3.2.2). Ignores edge
    /// weights except through `Θ` when the graph is weighted: the paper's
    /// unweighted D2PR uses `deg`/`outdeg`; on a weighted graph this model
    /// equals [`TransitionModel::Blended`] with `β = 0`.
    DegreeDecoupled {
        /// The de-coupling weight `p`.
        p: f64,
    },
    /// Weighted blend `β·T_conn + (1−β)·T_D` (paper §3.2.3).
    Blended {
        /// The de-coupling weight `p` used by the `T_D` component.
        p: f64,
        /// Mixing weight: `β = 1` is pure connection strength (conventional
        /// weighted PageRank), `β = 0` is pure degree de-coupling.
        beta: f64,
    },
}

impl TransitionModel {
    /// The `p` this model applies (0 for [`TransitionModel::Standard`]).
    pub fn p(&self) -> f64 {
        match *self {
            TransitionModel::Standard => 0.0,
            TransitionModel::DegreeDecoupled { p } => p,
            TransitionModel::Blended { p, .. } => p,
        }
    }

    /// The `β` this model applies (`1` for Standard — pure connection
    /// strength; `0` for DegreeDecoupled).
    pub fn beta(&self) -> f64 {
        match *self {
            TransitionModel::Standard => 1.0,
            TransitionModel::DegreeDecoupled { .. } => 0.0,
            TransitionModel::Blended { beta, .. } => beta,
        }
    }

    /// Validate parameter ranges (`p` finite, `β ∈ [0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        if !self.p().is_finite() {
            return Err(format!("p must be finite, got {}", self.p()));
        }
        let beta = self.beta();
        if !(0.0..=1.0).contains(&beta) {
            return Err(format!("beta must lie in [0,1], got {beta}"));
        }
        Ok(())
    }
}

/// Materialized column-stochastic transition operator.
///
/// `probs[k]` is the probability attached to the `k`-th arc of the graph's
/// CSR arc array; the probabilities of each node's out-arcs sum to 1 (or the
/// node is dangling and has no arcs).
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    probs: Vec<f64>,
    num_nodes: usize,
}

impl TransitionMatrix {
    /// Build the operator for `model` over `graph`.
    ///
    /// # Panics
    /// Panics when the model fails [`TransitionModel::validate`].
    pub fn build(graph: &CsrGraph, model: TransitionModel) -> Self {
        model.validate().expect("invalid transition model");
        // Destination "degree" table used by the de-coupling kernel:
        // deg/outdeg for unweighted graphs, Θ (total out-weight) for
        // weighted graphs (paper §3.2.3).
        let theta: Vec<f64> = if graph.is_weighted() {
            graph.nodes().map(|v| graph.out_weight(v)).collect()
        } else {
            graph
                .nodes()
                .map(|v| f64::from(graph.kernel_degree(v)))
                .collect()
        };
        Self::build_with_theta(graph, model, &theta)
    }

    /// Build with a caller-provided destination degree/Θ table (cached across
    /// a parameter sweep).
    pub fn build_with_theta(graph: &CsrGraph, model: TransitionModel, theta: &[f64]) -> Self {
        model.validate().expect("invalid transition model");
        let mut probs = vec![0.0f64; graph.num_arcs()];
        fill_arc_probs(graph, model, theta, &mut probs);
        Self {
            probs,
            num_nodes: graph.num_nodes(),
        }
    }

    /// Per-arc probabilities, aligned with the graph's CSR arc order.
    pub fn arc_probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of nodes of the graph this operator was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Out-transition probabilities of node `v` (parallel to
    /// `graph.neighbors(v)`). Requires the same graph used at build time.
    pub fn out_probs<'a>(&'a self, graph: &CsrGraph, v: NodeId) -> &'a [f64] {
        let (offsets, _, _) = graph.parts();
        &self.probs[offsets[v as usize]..offsets[v as usize + 1]]
    }

    /// Verify column-stochasticity: every non-dangling node's out-probs sum
    /// to 1 within `tol`. Used by tests and debug assertions.
    pub fn is_stochastic(&self, graph: &CsrGraph, tol: f64) -> bool {
        let mut cursor = 0usize;
        for v in graph.nodes() {
            let k = graph.neighbors(v).len();
            if k == 0 {
                continue;
            }
            let sum: f64 = self.probs[cursor..cursor + k].iter().sum();
            if (sum - 1.0).abs() > tol {
                return false;
            }
            cursor += k;
        }
        true
    }
}

/// Write the per-arc transition probabilities for `model` into `out`
/// (CSR arc order) in a single pass over the graph. The degree term
/// normalizes each neighborhood in log space ([`DegreeKernel`]).
///
/// # Panics
/// Panics when `theta` or `out` do not cover the graph (callers validate
/// the model first; see [`TransitionModel::validate`]).
fn fill_arc_probs(graph: &CsrGraph, model: TransitionModel, theta: &[f64], out: &mut [f64]) {
    assert_eq!(
        theta.len(),
        graph.num_nodes(),
        "theta table must cover all nodes"
    );
    assert_eq!(
        out.len(),
        graph.num_arcs(),
        "probability array must cover all arcs"
    );
    let mut cursor = 0usize;
    let (p, beta) = (model.p(), model.beta());
    let kernel = DegreeKernel::new(p);
    // Neighborhood scratch, grown to the largest out-degree.
    let (mut degs, mut kern) = (Vec::new(), Vec::new());

    for v in graph.nodes() {
        let ns = graph.neighbors(v);
        let k = ns.len();
        if k == 0 {
            continue;
        }
        let slot = &mut out[cursor..cursor + k];
        cursor += k;

        // T_conn: connection strength component.
        if beta > 0.0 {
            match graph.neighbor_weights(v) {
                Some(ws) => {
                    let total: f64 = ws.iter().sum();
                    if total > 0.0 {
                        for (s, &w) in slot.iter_mut().zip(ws) {
                            *s = beta * (w / total);
                        }
                    } else {
                        // All-zero weights degenerate to uniform.
                        let u = beta / k as f64;
                        for s in slot.iter_mut() {
                            *s = u;
                        }
                    }
                }
                None => {
                    let u = beta / k as f64;
                    for s in slot.iter_mut() {
                        *s = u;
                    }
                }
            }
        } else {
            slot.fill(0.0);
        }

        // T_D: degree de-coupled component.
        if beta < 1.0 {
            degs.clear();
            degs.extend(ns.iter().map(|&t| theta[t as usize]));
            kernel.normalize_into(&degs, &mut kern);
            for (s, &kw) in slot.iter_mut().zip(&kern) {
                *s += (1.0 - beta) * kw;
            }
        }
    }
    debug_assert_eq!(cursor, graph.num_arcs());
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2pr_graph::builder::GraphBuilder;
    use d2pr_graph::csr::Direction;

    /// The paper's Figure 1 graph: A(0) — B(1), C(2), D(3);
    /// B — C; C — E(4); E — F(5)? Figure 1 shows deg(B)=2, deg(C)=3,
    /// deg(D)=1. Reconstruct: B-{A,C}, C-{A,B,E}, D-{A}, E-{C}.
    fn figure1_graph() -> d2pr_graph::csr::CsrGraph {
        let mut b = GraphBuilder::new(Direction::Undirected, 5);
        b.add_edge(0, 1); // A-B
        b.add_edge(0, 2); // A-C
        b.add_edge(0, 3); // A-D
        b.add_edge(1, 2); // B-C
        b.add_edge(2, 4); // C-E
        let g = b.build().unwrap();
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.out_degree(2), 3);
        assert_eq!(g.out_degree(3), 1);
        g
    }

    #[test]
    fn standard_is_uniform_on_unweighted() {
        let g = figure1_graph();
        let t = TransitionMatrix::build(&g, TransitionModel::Standard);
        let probs = t.out_probs(&g, 0);
        assert_eq!(probs.len(), 3);
        for &x in probs {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
        assert!(t.is_stochastic(&g, 1e-12));
    }

    #[test]
    fn paper_figure1_transition_rows() {
        let g = figure1_graph();
        // p = 2: A -> B,C,D = 0.18, 0.08, 0.74
        let t2 = TransitionMatrix::build(&g, TransitionModel::DegreeDecoupled { p: 2.0 });
        let probs = t2.out_probs(&g, 0);
        assert!((probs[0] - 0.1836).abs() < 5e-4, "B {}", probs[0]);
        assert!((probs[1] - 0.0816).abs() < 5e-4, "C {}", probs[1]);
        assert!((probs[2] - 0.7347).abs() < 5e-4, "D {}", probs[2]);
        // p = -2: 0.29, 0.64, 0.07
        let tm2 = TransitionMatrix::build(&g, TransitionModel::DegreeDecoupled { p: -2.0 });
        let probs = tm2.out_probs(&g, 0);
        assert!((probs[0] - 2.0 / 7.0).abs() < 1e-12);
        assert!((probs[1] - 9.0 / 14.0).abs() < 1e-12);
        assert!((probs[2] - 1.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn decoupled_p0_equals_standard_on_unweighted() {
        let g = figure1_graph();
        let a = TransitionMatrix::build(&g, TransitionModel::Standard);
        let b = TransitionMatrix::build(&g, TransitionModel::DegreeDecoupled { p: 0.0 });
        for (x, y) in a.arc_probs().iter().zip(b.arc_probs()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_standard_follows_weights() {
        let mut b = GraphBuilder::new(Direction::Directed, 3);
        b.add_weighted_edge(0, 1, 3.0);
        b.add_weighted_edge(0, 2, 1.0);
        let g = b.build().unwrap();
        let t = TransitionMatrix::build(&g, TransitionModel::Standard);
        let probs = t.out_probs(&g, 0);
        assert!((probs[0] - 0.75).abs() < 1e-12);
        assert!((probs[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn blended_beta_one_is_connection_strength() {
        let mut b = GraphBuilder::new(Direction::Directed, 3);
        b.add_weighted_edge(0, 1, 3.0);
        b.add_weighted_edge(0, 2, 1.0);
        let g = b.build().unwrap();
        let blend = TransitionMatrix::build(&g, TransitionModel::Blended { p: 2.0, beta: 1.0 });
        let std = TransitionMatrix::build(&g, TransitionModel::Standard);
        for (x, y) in blend.arc_probs().iter().zip(std.arc_probs()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn blended_beta_zero_is_pure_decoupling_on_theta() {
        // Weighted graph: Θ(1) = 5, Θ(2) = 1 (node 2 has an out-edge of weight 1).
        let mut b = GraphBuilder::new(Direction::Directed, 4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(1, 3, 5.0);
        b.add_weighted_edge(2, 3, 1.0);
        let g = b.build().unwrap();
        let t = TransitionMatrix::build(&g, TransitionModel::Blended { p: 1.0, beta: 0.0 });
        let probs = t.out_probs(&g, 0);
        // kernel: Θ^-1 = [1/5, 1] -> normalized [1/6, 5/6]
        assert!((probs[0] - 1.0 / 6.0).abs() < 1e-12, "got {}", probs[0]);
        assert!((probs[1] - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn blended_midpoint_mixes_linearly() {
        let mut b = GraphBuilder::new(Direction::Directed, 4);
        b.add_weighted_edge(0, 1, 3.0);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(1, 3, 4.0);
        b.add_weighted_edge(2, 3, 2.0);
        let g = b.build().unwrap();
        let full = TransitionMatrix::build(&g, TransitionModel::Blended { p: 1.0, beta: 0.5 });
        let conn = TransitionMatrix::build(&g, TransitionModel::Blended { p: 1.0, beta: 1.0 });
        let dec = TransitionMatrix::build(&g, TransitionModel::Blended { p: 1.0, beta: 0.0 });
        for i in 0..full.arc_probs().len() {
            let mixed = 0.5 * conn.arc_probs()[i] + 0.5 * dec.arc_probs()[i];
            assert!((full.arc_probs()[i] - mixed).abs() < 1e-12);
        }
    }

    #[test]
    fn directed_uses_out_degree_of_destination() {
        // 0 -> 1 (outdeg 2), 0 -> 2 (outdeg 1); p = 1 penalizes node 1.
        let mut b = GraphBuilder::new(Direction::Directed, 5);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        let t = TransitionMatrix::build(&g, TransitionModel::DegreeDecoupled { p: 1.0 });
        let probs = t.out_probs(&g, 0);
        // outdeg(1)=2, outdeg(2)=1; kernel 1/2 : 1 -> [1/3, 2/3]
        assert!((probs[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((probs[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dangling_nodes_have_no_probs() {
        let mut b = GraphBuilder::new(Direction::Directed, 2);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let t = TransitionMatrix::build(&g, TransitionModel::Standard);
        assert_eq!(t.arc_probs().len(), 1);
        assert!(t.out_probs(&g, 1).is_empty());
        assert!(t.is_stochastic(&g, 1e-12));
    }

    #[test]
    fn stochastic_for_extreme_p() {
        let g = figure1_graph();
        for &p in &[-100.0, -4.0, 4.0, 100.0] {
            let t = TransitionMatrix::build(&g, TransitionModel::DegreeDecoupled { p });
            assert!(t.is_stochastic(&g, 1e-9), "p={p}");
            assert!(t.arc_probs().iter().all(|x| x.is_finite() && *x >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "invalid transition model")]
    fn invalid_beta_panics() {
        let g = figure1_graph();
        TransitionMatrix::build(&g, TransitionModel::Blended { p: 0.0, beta: 1.5 });
    }

    #[test]
    fn model_accessors() {
        assert_eq!(TransitionModel::Standard.p(), 0.0);
        assert_eq!(TransitionModel::Standard.beta(), 1.0);
        let d = TransitionModel::DegreeDecoupled { p: 0.5 };
        assert_eq!(d.p(), 0.5);
        assert_eq!(d.beta(), 0.0);
        let b = TransitionModel::Blended { p: 1.0, beta: 0.25 };
        assert_eq!(b.p(), 1.0);
        assert_eq!(b.beta(), 0.25);
    }

    #[test]
    fn zero_weight_row_degenerates_to_uniform() {
        let mut b = GraphBuilder::new(Direction::Directed, 3);
        b.add_weighted_edge(0, 1, 0.0);
        b.add_weighted_edge(0, 2, 0.0);
        let g = b.build().unwrap();
        let t = TransitionMatrix::build(&g, TransitionModel::Standard);
        let probs = t.out_probs(&g, 0);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }
}
