//! Property tests for the weighted, fully-mutable incremental path: for
//! *any* weighted base graph and *any* supported batch stream — weighted
//! inserts, re-weights, deletes, node arrivals, node tombstones — the
//! strategy-selected refresh ([`Engine::resolve_incremental`]) must land
//! on the same fixed point as a cold solve of the post-batch graph, for
//! every blend weight β ∈ {0, ½, 1}, every dangling policy, and
//! personalized teleports. Plus the serving acceptance check: a
//! single-edge re-weight at the 1e-6 serving tolerance takes the
//! localized path and still matches a tight cold solve to ≤ 1e-7 L1.

use d2pr_core::engine::{Engine, ResolveMode, TouchedSet};
use d2pr_core::pagerank::{DanglingPolicy, PageRankConfig};
use d2pr_core::transition::TransitionModel;
use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction};
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use proptest::prelude::*;

/// `(kind, u, v, w)` raw material for one queued edit; `build_batches`
/// maps it onto the evolving id space.
type RawOp = (u8, u32, u32, f64);

fn arb_weighted_graph(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    (4..=max_nodes, any::<bool>())
        .prop_flat_map(move |(n, directed)| {
            (
                Just(n),
                Just(directed),
                proptest::collection::vec((0..n, 0..n, 0.05f64..10.0), 2..=max_edges),
            )
        })
        .prop_map(|(n, directed, edges)| {
            let dir = if directed {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let mut b = GraphBuilder::new(dir, n as usize);
            for (u, v, w) in edges {
                b.add_weighted_edge(u, v, w);
            }
            b.build().expect("in-range edges")
        })
}

fn arb_ops(batches: usize, ops: usize) -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..5, any::<u32>(), any::<u32>(), 0.05f64..8.0), 1..=ops),
        1..=batches,
    )
}

fn policy_from(ix: u8) -> DanglingPolicy {
    match ix % 3 {
        0 => DanglingPolicy::RedistributeTeleport,
        1 => DanglingPolicy::SelfLoop,
        _ => DanglingPolicy::Renormalize,
    }
}

/// Map raw op material onto concrete batches against the evolving id
/// space (`mirror` tracks it), exercising every mutation channel:
/// weighted insert, re-weight, delete, arrival wired to a survivor,
/// tombstone. Every batch this produces is valid by construction — ids
/// stay in range and weights are finite — so `apply_batch` must accept
/// it (the `GraphError::WeightMismatch` arm is unreachable from a
/// weighted base).
fn build_batches(raw: &[Vec<RawOp>], mirror: &mut DeltaGraph) -> Vec<EdgeBatch> {
    let mut out = Vec::with_capacity(raw.len());
    for ops in raw {
        let mut b = EdgeBatch::new();
        let mut grown = 0u32;
        for &(kind, u, v, w) in ops {
            let n = mirror.num_nodes() as u32 + grown;
            let (u, v) = (u % n, v % n);
            match kind {
                0 => {
                    b.insert_weighted(u, v, w);
                }
                1 => {
                    b.set_weight(u, v, 0.5 + w);
                }
                2 => {
                    b.delete(u, v);
                }
                3 => {
                    b.add_nodes(1);
                    b.insert_weighted(n, u, w);
                    grown += 1;
                }
                _ => {
                    b.remove_node(u);
                }
            }
        }
        mirror.apply_batch(&b).expect("supported edits validate");
        out.push(b);
    }
    out
}

/// Drive `batches` through the incremental pipeline (patched transpose,
/// warm start, auto-selected refresh) and compare every generation
/// against a cold solve of the same engine.
fn assert_incremental_matches_cold(
    base: CsrGraph,
    batches: &[EdgeBatch],
    model: TransitionModel,
    config: PageRankConfig,
    teleport: Option<Vec<f64>>,
) -> Result<(), TestCaseError> {
    let mut snapshot = base.clone();
    let mut dg = DeltaGraph::new(base).expect("weighted base");
    let mut teleport = teleport;
    let (mut prev, mut state);
    let mut next = Vec::new();
    let mut touched = TouchedSet::new();
    {
        let mut engine = Engine::new(&snapshot)
            .with_config(config)
            .expect("validated config");
        engine.set_model(model).expect("validated model");
        prev = engine
            .solve_with_teleport(teleport.as_deref())
            .expect("cold base solve")
            .scores;
        state = engine.into_state();
    }
    for (i, batch) in batches.iter().enumerate() {
        let outcome = dg.apply_batch(batch).expect("pre-validated batch");
        let new_snapshot = dg.snapshot();
        state = state
            .patched(&new_snapshot, &outcome.delta)
            .expect("patched transpose");
        let mut engine = Engine::from_state(&new_snapshot, state).expect("rebound engine");
        // Arrivals start unranked with zero personalization mass — the
        // serving layer's growth rule.
        prev.resize(new_snapshot.num_nodes(), 0.0);
        if let Some(t) = &mut teleport {
            t.resize(new_snapshot.num_nodes(), 0.0);
        }
        let inc = engine
            .resolve_incremental_tracked(
                &prev,
                teleport.as_deref(),
                &outcome.delta,
                &mut next,
                &mut touched,
            )
            .expect("incremental refresh");
        let cold = engine
            .solve_with_teleport(teleport.as_deref())
            .expect("cold solve");
        let l1: f64 = cold
            .scores
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .sum();
        prop_assert!(
            l1 < 1e-8,
            "batch {i} ({:?}): incremental diverges from cold by {l1:.3e}",
            inc.mode
        );
        std::mem::swap(&mut prev, &mut next);
        state = engine.into_state();
        snapshot = new_snapshot;
    }
    let _ = &snapshot;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental == cold across β ∈ {0, ½, 1} and all three dangling
    /// policies, over arbitrary weighted + node-churn batch streams.
    #[test]
    fn weighted_churn_refresh_matches_cold(
        base in arb_weighted_graph(28, 100),
        raw in arb_ops(3, 10),
        p in -2.0f64..2.0,
        beta_ix in 0usize..3,
        policy_ix in 0u8..3,
    ) {
        let beta = [0.0, 0.5, 1.0][beta_ix];
        let model = TransitionModel::Blended { p, beta };
        let config = PageRankConfig {
            dangling: policy_from(policy_ix),
            tolerance: 1e-11,
            max_iterations: 2_000,
            ..Default::default()
        };
        let mut mirror = DeltaGraph::new(base.clone()).expect("weighted base");
        let batches = build_batches(&raw, &mut mirror);
        assert_incremental_matches_cold(base, &batches, model, config, None)?;
    }

    /// Same contract with sparse personalized teleports — the stored
    /// vector must ride id-space growth (zero mass on arrivals) and
    /// node removals without desyncing from the cold reference.
    #[test]
    fn weighted_churn_refresh_matches_cold_personalized(
        base in arb_weighted_graph(24, 80),
        raw in arb_ops(3, 8),
        p in -2.0f64..2.0,
        beta_ix in 0usize..3,
        seed_weights in proptest::collection::vec(0.1f64..5.0, 1..6),
    ) {
        let beta = [0.0, 0.5, 1.0][beta_ix];
        let n = base.num_nodes();
        let mut teleport = vec![0.0; n];
        for (i, &w) in seed_weights.iter().enumerate() {
            teleport[(i * 7 + 3) % n] += w;
        }
        let model = TransitionModel::Blended { p, beta };
        let config = PageRankConfig {
            tolerance: 1e-11,
            max_iterations: 2_000,
            ..Default::default()
        };
        let mut mirror = DeltaGraph::new(base.clone()).expect("weighted base");
        let batches = build_batches(&raw, &mut mirror);
        assert_incremental_matches_cold(base, &batches, model, config, Some(teleport))?;
    }

    /// From a weighted base, every supported edit validates: the
    /// `GraphError::WeightMismatch` arm (non-unit weight on an
    /// *unweighted* base) is unreachable, including for plain
    /// weight-1 `insert` calls mixed into weighted batches.
    #[test]
    fn weight_mismatch_is_unreachable_from_a_weighted_base(
        base in arb_weighted_graph(24, 80),
        raw in arb_ops(4, 12),
        plain in any::<bool>(),
    ) {
        let mut dg = DeltaGraph::new(base).expect("weighted base");
        for ops in &raw {
            let mut b = EdgeBatch::new();
            let mut grown = 0u32;
            for &(kind, u, v, w) in ops {
                let n = dg.num_nodes() as u32 + grown;
                let (u, v) = (u % n, v % n);
                match kind {
                    0 if plain => {
                        // Weight-1 structural insert on a weighted base.
                        b.insert(u, v);
                    }
                    0 => {
                        b.insert_weighted(u, v, w);
                    }
                    1 => {
                        b.set_weight(u, v, 0.5 + w);
                    }
                    2 => {
                        b.delete(u, v);
                    }
                    3 => {
                        b.add_nodes(1);
                        b.insert_weighted(n, u, w);
                        grown += 1;
                    }
                    _ => {
                        b.remove_node(u);
                    }
                }
            }
            let applied = dg.apply_batch(&b);
            prop_assert!(
                applied.is_ok(),
                "supported edits on a weighted base must validate: {:?}",
                applied.err()
            );
        }
    }
}

/// One single-edge re-weight refresh on a 400-node weighted world at the
/// given solver tolerance; returns the refresh outcome plus its L1
/// distance from a cold solve of the same engine.
fn single_edge_reweight_refresh(tolerance: f64) -> (ResolveMode, usize, f64) {
    let n: u32 = 400;
    let mut b = GraphBuilder::new(Direction::Undirected, n as usize);
    for v in 0..n {
        b.add_weighted_edge(v, (v + 1) % n, 1.0 + f64::from(v % 7) * 0.5);
        b.add_weighted_edge(v, (v * 17 + 5) % n, 0.5 + f64::from(v % 5));
    }
    let base = b.build().expect("weighted world");
    let model = TransitionModel::Blended { p: 0.6, beta: 0.5 };
    let config = PageRankConfig {
        tolerance,
        max_iterations: 2_000,
        ..Default::default()
    };

    let mut dg = DeltaGraph::new(base.clone()).expect("weighted base");
    let (prev, state) = {
        let mut engine = Engine::new(&base)
            .with_config(config)
            .expect("validated config");
        engine.set_model(model).expect("model");
        let scores = engine.solve().expect("base solve").scores;
        (scores, engine.into_state())
    };

    let mut batch = EdgeBatch::new();
    batch.set_weight(10, 11, 3.25);
    let outcome = dg.apply_batch(&batch).expect("single re-weight");
    assert_eq!(outcome.delta.reweighted.len(), 2, "both mirrored arcs");
    let snapshot = dg.snapshot();
    let state = state
        .patched(&snapshot, &outcome.delta)
        .expect("patched transpose");
    let mut engine = Engine::from_state(&snapshot, state).expect("rebound engine");
    let inc = engine
        .resolve_localized(&prev, &outcome.delta)
        .expect("localized refresh");
    let cold = engine.solve().expect("cold solve");
    let l1: f64 = cold
        .scores
        .iter()
        .zip(&inc.result.scores)
        .map(|(a, b)| (a - b).abs())
        .sum();
    (inc.mode, inc.frontier, l1)
}

/// The serving acceptance check, on a graph past the dense-GS threshold
/// (n > 128): a single-edge re-weight at the 1e-6 serving tolerance takes
/// the residual-localized path with a frontier that is a small fraction
/// of the graph — no forced sweep — and the same refresh matches a cold
/// weighted solve to ≤ 1e-7 L1 once the solver tolerance (1e-9) sits
/// below that budget (at 1e-6 both sides only promise ~tolerance-level
/// accuracy, so the gap is the stopping criterion's, not the incremental
/// machinery's).
#[test]
fn weighted_single_edge_refresh_stays_localized_at_serving_tolerance() {
    let (mode, frontier, _) = single_edge_reweight_refresh(1e-6);
    assert_eq!(
        mode,
        ResolveMode::LocalizedPush,
        "a weighted single-edge refresh must stay on the localized path"
    );
    assert!(
        frontier < 50,
        "frontier {frontier} is not localized on 400 nodes"
    );

    let (mode, _, l1) = single_edge_reweight_refresh(1e-9);
    assert_eq!(mode, ResolveMode::LocalizedPush);
    assert!(
        l1 <= 1e-7,
        "localized weighted refresh diverges from the cold solve by {l1:.3e}"
    );
}
