//! Cross-solver equivalence on generated worlds: the reference power
//! iteration, the production engine, forward push and Monte-Carlo
//! estimators all target the same fixed point — so do their rankings, up
//! to each method's accuracy class.

use d2pr::core::approx::{forward_push, monte_carlo_ppr};
use d2pr::core::pagerank::{pagerank_with_matrix, PageRankConfig};
use d2pr::core::{Engine, TransitionMatrix, TransitionModel};
use d2pr::prelude::*;

fn world_graph() -> CsrGraph {
    use std::sync::OnceLock;
    static GRAPH: OnceLock<CsrGraph> = OnceLock::new();
    GRAPH
        .get_or_init(|| {
            let world = World::generate(Dataset::Epinions, 0.02, 77).expect("generation succeeds");
            world.entity_graph.to_unweighted()
        })
        .clone()
}

fn tight() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-12,
        max_iterations: 500,
        ..Default::default()
    }
}

#[test]
fn all_exact_solvers_agree_on_a_world() {
    let g = world_graph();
    for p in [-1.0, 0.0, 1.5] {
        let model = TransitionModel::DegreeDecoupled { p };
        let matrix = TransitionMatrix::build(&g, model);
        let power = pagerank_with_matrix(&g, &matrix, &tight(), None);
        let mut engine = Engine::new(&g).with_config(tight()).expect("valid config");
        let fast = engine.solve_model(model).expect("valid inputs");
        for i in 0..g.num_nodes() {
            assert!(
                (power.scores[i] - fast.scores[i]).abs() < 1e-8,
                "p={p} node {i}"
            );
        }
    }
}

#[test]
fn forward_push_top_ranks_match_exact_ppr() {
    let g = world_graph();
    let matrix = TransitionMatrix::build(&g, TransitionModel::DegreeDecoupled { p: 0.5 });
    let seed: NodeId = 3;
    let mut t = vec![0.0; g.num_nodes()];
    t[seed as usize] = 1.0;
    let exact = pagerank_with_matrix(&g, &matrix, &tight(), Some(&t));
    // Push count scales as 1/((1-alpha)*epsilon); 1e-7 keeps this test
    // sub-second while still pinning the top of the ranking.
    let approx = forward_push(&g, &matrix, seed, 0.85, 1e-7).expect("valid inputs");
    let exact_top: Vec<u32> = exact.ranking().into_iter().take(10).collect();
    let approx_top: Vec<u32> = approx.ranking().into_iter().take(10).collect();
    assert_eq!(exact_top, approx_top, "top-10 must agree at tight epsilon");
}

#[test]
fn monte_carlo_identifies_the_seed_region() {
    let g = world_graph();
    let matrix = TransitionMatrix::build(&g, TransitionModel::Standard);
    let seed: NodeId = 7;
    let mc = monte_carlo_ppr(&g, &matrix, seed, 0.85, 2_000, 99).expect("valid inputs");
    // The seed itself should be the most-visited termination point.
    assert_eq!(mc.ranking()[0], seed);
    let total: f64 = mc.scores.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "MC tallies are a distribution");
}

#[test]
fn robust_ppr_runs_on_world_graphs() {
    use d2pr::core::robust::{robust_personalized_pagerank, SeedAggregation};
    let g = world_graph();
    let r = robust_personalized_pagerank(
        &g,
        TransitionModel::DegreeDecoupled { p: 1.0 },
        &[0, 1, 2],
        &PageRankConfig::default(),
        SeedAggregation::Median,
    );
    assert_eq!(r.per_seed.len(), 3);
    assert!((r.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    // Disagreements are finite and non-negative.
    for i in 0..3 {
        let d = r.seed_disagreement(i);
        assert!(d.is_finite() && d >= 0.0);
    }
}
