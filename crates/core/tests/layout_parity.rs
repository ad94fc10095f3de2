//! Property tests for cache-aware layouts: solving on a permuted graph
//! must be observationally identical to solving on the original — for
//! *any* graph, layout, dangling policy, and teleport vector, and across
//! an evolving-graph churn sequence served through [`ServingEngine`]
//! (reader-visible ids never change meaning between generations).

use d2pr_core::engine::Engine;
use d2pr_core::pagerank::{DanglingPolicy, PageRankConfig};
use d2pr_core::serving::ServingEngine;
use d2pr_core::transition::TransitionModel;
use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction};
use d2pr_graph::delta::EdgeBatch;
use d2pr_graph::permute::Layout;
use d2pr_graph::transpose::CscStructure;
use proptest::prelude::*;
use std::sync::Arc;

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

fn policy_from(ix: u8) -> DanglingPolicy {
    match ix % 3 {
        0 => DanglingPolicy::RedistributeTeleport,
        1 => DanglingPolicy::SelfLoop,
        _ => DanglingPolicy::Renormalize,
    }
}

fn layout_from(ix: u8) -> Layout {
    Layout::ALL[ix as usize % Layout::ALL.len()]
}

fn tight() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-11,
        max_iterations: 2_000,
        ..Default::default()
    }
}

/// Solve `g` under `layout` and return the scores in **external** order.
fn solve_with_layout(
    g: &CsrGraph,
    layout: Layout,
    config: &PageRankConfig,
    model: TransitionModel,
    teleport: Option<&[f64]>,
) -> Vec<f64> {
    let (internal, csc) = CscStructure::with_layout(g, layout).expect("valid graph");
    let perm = csc.permutation().cloned();
    let internal_teleport = teleport.map(|t| match &perm {
        Some(p) => {
            let mut buf = Vec::new();
            p.permute_values(t, &mut buf);
            buf
        }
        None => t.to_vec(),
    });
    let mut engine = Engine::with_structure(&internal, Arc::new(csc))
        .expect("structure matches graph")
        .with_config(*config)
        .expect("validated config");
    engine.set_model(model).expect("validated model");
    let r = engine
        .solve_with_teleport(internal_teleport.as_deref())
        .expect("validated inputs");
    assert!(r.converged, "tight config must converge");
    match &perm {
        Some(p) => {
            let mut ext = Vec::new();
            p.unpermute_values(&r.scores, &mut ext);
            ext
        }
        None => r.scores,
    }
}

/// First `(u, v)` pair (u != v) absent from `g`, scanning from `from`.
fn first_non_arc(g: &CsrGraph, from: u32) -> Option<(u32, u32)> {
    let n = g.num_nodes() as u32;
    for du in 0..n {
        let u = (from + du) % n;
        for dv in 1..n {
            let v = (u + dv) % n;
            if !g.has_arc(u, v) {
                return Some((u, v));
            }
        }
    }
    None
}

/// First arc `(u, v)` of `g`, scanning sources from `from`.
fn first_arc(g: &CsrGraph, from: u32) -> Option<(u32, u32)> {
    let n = g.num_nodes() as u32;
    for du in 0..n {
        let u = (from + du) % n;
        if let Some(&v) = g.neighbors(u).first() {
            return Some((u, v));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Permuted == identity to 1e-8 per node, across every layout and
    /// every dangling policy.
    #[test]
    fn permuted_solve_matches_identity_all_policies(
        g in arb_graph(40, 160),
        p in -3.0f64..3.0,
        policy_ix in 0u8..3,
        layout_ix in 0u8..3,
    ) {
        let model = TransitionModel::DegreeDecoupled { p };
        let config = PageRankConfig { dangling: policy_from(policy_ix), ..tight() };
        let identity = solve_with_layout(&g, Layout::Baseline, &config, model, None);
        let permuted = solve_with_layout(&g, layout_from(layout_ix), &config, model, None);
        for (i, (a, b)) in identity.iter().zip(&permuted).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-8,
                "node {i}: identity {a} vs permuted {b}"
            );
        }
    }

    /// Permuted == identity with personalized (sparse, unnormalized)
    /// teleport vectors — the teleport crosses the layout boundary too.
    #[test]
    fn permuted_solve_matches_identity_personalized(
        g in arb_graph(30, 120),
        p in -2.0f64..2.0,
        layout_ix in 0u8..3,
        seed_weights in proptest::collection::vec(0.0f64..5.0, 1..8),
    ) {
        let n = g.num_nodes();
        let mut teleport = vec![0.0; n];
        for (i, &w) in seed_weights.iter().enumerate() {
            teleport[(i * 7 + 3) % n] += w;
        }
        prop_assume!(teleport.iter().sum::<f64>() > 0.0);
        let model = TransitionModel::DegreeDecoupled { p };
        let config = tight();
        let identity = solve_with_layout(&g, Layout::Baseline, &config, model, Some(&teleport));
        let permuted =
            solve_with_layout(&g, layout_from(layout_ix), &config, model, Some(&teleport));
        for (i, (a, b)) in identity.iter().zip(&permuted).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-8,
                "node {i}: identity {a} vs permuted {b}"
            );
        }
    }

    /// A churn sequence ingested by a layouted [`ServingEngine`] publishes
    /// the same scores, under the same external node ids, as the baseline
    /// engine fed the identical batches — across every generation.
    #[test]
    fn serving_churn_keeps_reader_ids_stable_across_generations(
        g in arb_graph(25, 100),
        p in -2.0f64..2.0,
        layout_ix in 1u8..3, // degree / rcm: the layouts with a real permutation
        rounds in 1usize..=3,
    ) {
        let model = TransitionModel::DegreeDecoupled { p };
        let mut baseline =
            ServingEngine::new(g.clone(), model, tight(), 1).expect("unweighted graph");
        let mut layouted = ServingEngine::with_layout(
            g.clone(), layout_from(layout_ix), None, model, tight(),
        ).expect("unweighted graph");
        prop_assert!(layouted.permutation().is_some(), "non-baseline layouts permute");

        let reader = layouted.reader();
        let (mut snap_base, mut snap_layout) = (Vec::new(), Vec::new());
        // Generation 0: the cold publications already agree id-by-id.
        baseline.reader().snapshot_into(&mut snap_base);
        reader.snapshot_into(&mut snap_layout);
        for (i, (a, b)) in snap_base.iter().zip(&snap_layout).enumerate() {
            prop_assert!((a - b).abs() < 1e-8, "gen 0 node {i}: {a} vs {b}");
        }

        // Track the evolving graph in EXTERNAL order to pick valid churn.
        let mut external = g;
        for round in 0..rounds {
            let mut batch = EdgeBatch::new();
            if let Some((u, v)) = first_non_arc(&external, round as u32) {
                batch.insert(u, v);
            }
            if let Some((u, v)) = first_arc(&external, (round as u32) * 3 + 1) {
                batch.delete(u, v);
            }
            prop_assume!(!(batch.inserts.is_empty() && batch.deletes.is_empty()));

            let out_base = baseline.ingest(&batch).expect("valid external batch");
            let out_layout = layouted.ingest(&batch).expect("batch translates at boundary");
            prop_assert_eq!(out_base.generation, out_layout.generation);
            prop_assert_eq!(out_base.generation, reader.generation());

            baseline.reader().snapshot_into(&mut snap_base);
            reader.snapshot_into(&mut snap_layout);
            for (i, (a, b)) in snap_base.iter().zip(&snap_layout).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-8,
                    "gen {} node {i}: baseline {a} vs layouted {b}",
                    out_base.generation
                );
            }
            // Point reads agree under the caller's ids too.
            for v in [0u32, (external.num_nodes() / 2) as u32] {
                let (a, b) = (baseline.get(v).unwrap(), reader.get(v).unwrap());
                prop_assert!((a - b).abs() < 1e-8, "get({v}): {a} vs {b}");
            }

            // Mirror the batch onto the external-order tracker.
            let mut dg = d2pr_graph::delta::DeltaGraph::new(external).expect("unweighted");
            dg.apply_batch(&batch).expect("valid batch");
            external = dg.graph().clone();
        }
    }
}
