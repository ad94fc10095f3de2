//! Property tests for the fused pull-engine: for *any* graph, model,
//! dangling policy, teleport vector, and thread count, the engine must
//! match the serial reference solver to 1e-8 — and its arc-balanced
//! partitions must cover every node exactly once.

use d2pr_core::engine::Engine;
use d2pr_core::pagerank::{pagerank_with_matrix, DanglingPolicy, PageRankConfig};
use d2pr_core::transition::{TransitionMatrix, TransitionModel};
use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction};
use d2pr_graph::transpose::CscStructure;
use proptest::prelude::*;

fn arb_graph(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 1..=max_edges),
            )
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(Direction::Directed, n as usize);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.build().expect("in-range edges")
        })
}

fn arb_weighted_graph(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 0.01f64..20.0, 0u8..4), 1..=max_edges),
            )
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(Direction::Directed, n as usize);
            for (u, v, w, zero) in edges {
                // A quarter of the arcs weigh 0, so some sources' weights
                // sum to 0 and take the uniform fallback.
                b.add_weighted_edge(u, v, if zero == 0 { 0.0 } else { w });
            }
            b.build().expect("in-range edges")
        })
}

fn policy_from(ix: u8) -> DanglingPolicy {
    match ix % 3 {
        0 => DanglingPolicy::RedistributeTeleport,
        1 => DanglingPolicy::SelfLoop,
        _ => DanglingPolicy::Renormalize,
    }
}

fn assert_engine_matches_serial(
    g: &CsrGraph,
    model: TransitionModel,
    config: &PageRankConfig,
    teleport: Option<&[f64]>,
    threads: usize,
) -> Result<(), TestCaseError> {
    let matrix = TransitionMatrix::build(g, model);
    let serial = pagerank_with_matrix(g, &matrix, config, teleport);
    let mut engine = Engine::with_threads(g, threads)
        .with_config(*config)
        .expect("validated config");
    engine.set_model(model).expect("validated model");
    let r = engine
        .solve_with_teleport(teleport)
        .expect("validated inputs");
    prop_assert!(
        serial.converged == r.converged,
        "convergence flags must agree"
    );
    for (i, (a, b)) in serial.scores.iter().zip(&r.scores).enumerate() {
        prop_assert!(
            (a - b).abs() < 1e-8,
            "node {i}: serial {a} vs engine {b} (threads {threads})"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine == serial across all dangling policies and 1–16 threads
    /// (unweighted graphs, Standard + DegreeDecoupled models).
    #[test]
    fn engine_matches_serial_unweighted(
        g in arb_graph(40, 160),
        p in -3.0f64..3.0,
        policy_ix in 0u8..3,
        threads in 1usize..=16,
        standard in any::<bool>(),
    ) {
        let model = if standard {
            TransitionModel::Standard
        } else {
            TransitionModel::DegreeDecoupled { p }
        };
        let config = PageRankConfig { dangling: policy_from(policy_ix), ..Default::default() };
        assert_engine_matches_serial(&g, model, &config, None, threads)?;
    }

    /// Engine == serial on weighted graphs under the Blended model.
    #[test]
    fn engine_matches_serial_blended(
        g in arb_weighted_graph(30, 120),
        p in -2.0f64..2.0,
        beta in 0.0f64..=1.0,
        policy_ix in 0u8..3,
        threads in 1usize..=16,
    ) {
        let model = TransitionModel::Blended { p, beta };
        let config = PageRankConfig { dangling: policy_from(policy_ix), ..Default::default() };
        assert_engine_matches_serial(&g, model, &config, None, threads)?;
    }

    /// Engine == serial with personalized (possibly sparse, unnormalized)
    /// teleport vectors.
    #[test]
    fn engine_matches_serial_personalized(
        g in arb_graph(30, 120),
        p in -2.0f64..2.0,
        threads in 1usize..=16,
        seed_weights in proptest::collection::vec(0.0f64..5.0, 1..8),
    ) {
        let n = g.num_nodes();
        let mut teleport = vec![0.0; n];
        // Scatter the drawn weights over deterministic positions.
        for (i, &w) in seed_weights.iter().enumerate() {
            teleport[(i * 7 + 3) % n] += w;
        }
        prop_assume!(teleport.iter().sum::<f64>() > 0.0);
        let model = TransitionModel::DegreeDecoupled { p };
        let config = PageRankConfig::default();
        assert_engine_matches_serial(&g, model, &config, Some(&teleport), threads)?;
    }

    /// Engine sweeps (cold and warm) hit the same fixed points as
    /// independent solves.
    #[test]
    fn engine_sweep_matches_pointwise(
        g in arb_graph(30, 120),
        warm in any::<bool>(),
        threads in 1usize..=8,
    ) {
        let ps = [-1.5, 0.0, 1.5];
        let models: Vec<TransitionModel> =
            ps.iter().map(|&p| TransitionModel::DegreeDecoupled { p }).collect();
        let mut engine = Engine::with_threads(&g, threads);
        let results = engine.sweep(&models, warm).expect("valid sweep");
        prop_assert_eq!(results.len(), models.len());
        for (&model, r) in models.iter().zip(&results) {
            let matrix = TransitionMatrix::build(&g, model);
            let serial = pagerank_with_matrix(&g, &matrix, &PageRankConfig::default(), None);
            for (a, b) in serial.scores.iter().zip(&r.scores) {
                prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
            }
        }
    }

    /// Arc-balanced partitions are a partition in the mathematical sense:
    /// disjoint, consecutive, covering every node exactly once — for any
    /// graph and any requested width.
    #[test]
    fn arc_balanced_partition_covers_exactly_once(
        g in arb_graph(60, 240),
        parts in 1usize..=40,
    ) {
        let csc = CscStructure::build(&g);
        let ranges = csc.arc_balanced_partition(parts);
        prop_assert!(ranges.len() <= parts);
        let mut covered = vec![0u32; g.num_nodes()];
        let mut cursor = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor, "ranges must be consecutive");
            prop_assert!(r.start < r.end, "ranges must be non-empty");
            for v in r.clone() {
                covered[v] += 1;
            }
            cursor = r.end;
        }
        prop_assert_eq!(cursor, g.num_nodes(), "partition must end at n");
        prop_assert!(covered.iter().all(|&c| c == 1), "every node exactly once");
    }
}
