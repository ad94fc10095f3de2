//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* graph and any valid parameter setting, not just the fixtures.

use d2pr::core::kernel::DegreeKernel;
use d2pr::core::pagerank::{pagerank, PageRankConfig};
use d2pr::core::{Engine, TransitionMatrix, TransitionModel};
use d2pr::prelude::*;
use proptest::prelude::*;

/// Strategy: a random edge list over up to `n` nodes.
fn arb_graph(max_nodes: u32, max_edges: usize, directed: bool) -> impl Strategy<Value = CsrGraph> {
    let dir = if directed {
        Direction::Directed
    } else {
        Direction::Undirected
    };
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            let edges = proptest::collection::vec((0..n, 0..n), 1..=max_edges);
            (Just(n), edges)
        })
        .prop_map(move |(n, edges)| {
            let mut b = GraphBuilder::new(dir, n as usize);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.build().expect("generated edges are in range")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// D2PR scores are a probability distribution for every graph and every
    /// de-coupling weight.
    #[test]
    fn scores_are_a_distribution(
        g in arb_graph(40, 160, false),
        p in -6.0f64..6.0,
        alpha in 0.05f64..0.95,
    ) {
        let cfg = PageRankConfig { alpha, ..Default::default() };
        let r = pagerank(&g, TransitionModel::DegreeDecoupled { p }, &cfg);
        prop_assert!(r.scores.iter().all(|&x| x.is_finite() && x >= 0.0));
        let sum: f64 = r.scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-8, "sum = {sum}");
    }

    /// The transition operator is column-stochastic for every model.
    #[test]
    fn transition_matrix_is_stochastic(
        g in arb_graph(30, 120, true),
        p in -8.0f64..8.0,
        beta in 0.0f64..=1.0,
    ) {
        let m = TransitionMatrix::build(&g, TransitionModel::Blended { p, beta });
        prop_assert!(m.is_stochastic(&g, 1e-9));
        prop_assert!(m.arc_probs().iter().all(|&x| x.is_finite() && x >= 0.0));
    }

    /// The reference push iteration (the serial oracle) and the engine's
    /// pull agree everywhere. The name predates the single-thread engine.
    #[test]
    fn parallel_matches_serial(
        g in arb_graph(30, 100, true),
        p in -3.0f64..3.0,
    ) {
        let cfg = PageRankConfig::default();
        let model = TransitionModel::DegreeDecoupled { p };
        let serial = pagerank(&g, model, &cfg);
        let fast = Engine::new(&g)
            .solve_model(model)
            .expect("valid inputs");
        for (a, b) in serial.scores.iter().zip(&fast.scores) {
            prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    /// The kernel's desideratum limits (§3.1): p = 0 is uniform, p = -1 is
    /// degree-proportional, extreme p concentrates on the min/max degree.
    #[test]
    fn kernel_desideratum(degs in proptest::collection::vec(1.0f64..1000.0, 2..20)) {
        let uniform = DegreeKernel::new(0.0).normalize(&degs);
        for &u in &uniform {
            prop_assert!((u - 1.0 / degs.len() as f64).abs() < 1e-12);
        }
        let prop_degs = DegreeKernel::new(-1.0).normalize(&degs);
        let total: f64 = degs.iter().sum();
        for (w, &d) in prop_degs.iter().zip(&degs) {
            prop_assert!((w - d / total).abs() < 1e-9);
        }
        // Extreme penalization favours the minimum-degree neighbor at least
        // as much as any other.
        let pen = DegreeKernel::new(200.0).normalize(&degs);
        let min_idx = degs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        for w in &pen {
            prop_assert!(pen[min_idx] >= *w - 1e-9);
        }
    }

    /// Monotone score transformations leave Spearman untouched (the paper's
    /// rank correlation depends only on orderings).
    #[test]
    fn spearman_is_rank_invariant(
        pairs in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..40),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = pairs.iter().map(|&(_, y)| y).collect();
        if let Some(rho) = spearman(&xs, &ys) {
            let transformed: Vec<f64> = xs.iter().map(|x| (x / 50.0).exp()).collect();
            let rho2 = spearman(&transformed, &ys).expect("still defined");
            prop_assert!((rho - rho2).abs() < 1e-9, "{rho} vs {rho2}");
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rho));
        }
    }

    /// Projections are symmetric and weight-consistent for arbitrary
    /// memberships.
    #[test]
    fn projection_symmetry(
        pairs in proptest::collection::vec((0u32..20, 0u32..15), 1..120),
    ) {
        let b = BipartiteGraph::from_memberships(20, 15, &pairs).expect("in range");
        let g = project_left(&b, ProjectionConfig::default()).expect("projects");
        for (u, v, w) in g.weighted_arcs() {
            let ns = g.neighbors(v);
            let pos = ns.binary_search(&u).expect("mirror arc");
            let w2 = g.neighbor_weights(v).expect("weighted")[pos];
            prop_assert_eq!(w, w2);
            // Weight equals the true shared-container count.
            let shared = b
                .containers_of(u)
                .iter()
                .filter(|c| b.containers_of(v).contains(c))
                .count();
            prop_assert_eq!(w as usize, shared);
        }
    }

    /// Graph snapshots round-trip byte-exactly for arbitrary graphs.
    #[test]
    fn snapshot_round_trip(g in arb_graph(30, 100, true)) {
        let restored = d2pr::graph::io::from_snapshot(d2pr::graph::io::to_snapshot(&g))
            .expect("round trip");
        prop_assert_eq!(g, restored);
    }
}
