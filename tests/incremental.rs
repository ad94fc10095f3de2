//! End-to-end property tests for the incremental-update pipeline:
//! `DeltaGraph::apply_batch` → `CscStructure::patched` →
//! `Engine::resolve_warm` / `Engine::resolve_localized` /
//! `Engine::resolve_incremental` must match a cold solve of the updated
//! snapshot to 1e-8, across random graphs, churn batches, dangling
//! policies and transition models.

use d2pr_core::engine::{Engine, EngineState, ResolveMode};
use d2pr_core::pagerank::{DanglingPolicy, PageRankConfig};
use d2pr_core::transition::TransitionModel;
use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction};
use d2pr_graph::delta::{ArcDelta, DeltaGraph, EdgeBatch};
use d2pr_graph::generators::barabasi_albert;
use d2pr_graph::transpose::CscStructure;
use proptest::prelude::*;
use std::sync::Arc;

/// Tight enough that two converged solves sit within ~1e-9 of the unique
/// fixed point each, guaranteeing 1e-8 agreement.
fn tight_config() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-11,
        max_iterations: 2_000,
        ..Default::default()
    }
}

fn assert_close(a: &[f64], b: &[f64], eps: f64) {
    assert_eq!(a.len(), b.len());
    let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    assert!(l1 < eps, "L1 divergence {l1:.3e} exceeds {eps:.0e}");
}

/// Run one churn batch through the full incremental pipeline and return
/// `(cold, warm, localized)` scores on the updated snapshot plus the
/// localized outcome's mode.
fn churn_roundtrip(
    base: CsrGraph,
    batch: &EdgeBatch,
    model: TransitionModel,
    config: PageRankConfig,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, ResolveMode) {
    let csc0 = std::sync::Arc::new(CscStructure::build(&base));
    let mut engine0 = Engine::with_structure(&base, csc0)
        .expect("fresh structure")
        .with_config(config)
        .expect("valid config");
    let before = engine0.solve_model(model).expect("initial solve");
    let state = engine0.into_state();

    let mut dg = DeltaGraph::new(base).expect("unweighted");
    let outcome = dg.apply_batch(batch).expect("in-range batch");
    let snapshot = dg.graph();
    let state = state
        .patched(snapshot, &outcome.delta)
        .expect("consistent delta");
    let mut engine = Engine::from_state(snapshot, state).expect("state matches snapshot");
    let local = engine
        .resolve_localized(&before.scores, &outcome.delta)
        .expect("valid localized resolve");
    let warm = engine
        .resolve_warm(&before.scores)
        .expect("valid warm start");
    let cold = engine.solve().expect("cold solve");
    assert!(warm.converged && cold.converged && local.result.converged);
    (cold.scores, warm.scores, local.result.scores, local.mode)
}

/// Churn batch for a graph: delete `k` pseudo-randomly selected edges,
/// insert `k` fresh ones.
fn churn_batch(g: &CsrGraph, k: usize, salt: u32) -> EdgeBatch {
    let n = g.num_nodes() as u32;
    let mut batch = EdgeBatch::new();
    let mut deleted = 0;
    for (u, v) in g.arcs().filter(|&(u, v)| u < v) {
        // Deterministic pseudo-random selection without an RNG dependency.
        if (u.wrapping_mul(2654435761).wrapping_add(v) ^ salt) % 97 < 2 {
            batch.delete(u, v);
            deleted += 1;
            if deleted == k {
                break;
            }
        }
    }
    for i in 0..k as u32 {
        let u = (i.wrapping_mul(48271).wrapping_add(salt)) % n;
        let v = (i.wrapping_mul(69621).wrapping_add(salt / 2)) % n;
        if u != v && !g.has_arc(u, v) {
            batch.insert(u, v);
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance criterion: after a ~1% edge-churn batch, both the warm
    /// sweep and the localized push match a cold solve to 1e-8, for random
    /// BA graphs and de-coupling weights.
    #[test]
    fn warm_and_localized_match_cold_to_1e8(
        seed in 0u64..1_000,
        p in -2.0f64..2.0,
        salt in 0u32..10_000,
    ) {
        let g = barabasi_albert(600, 4, seed).expect("generator");
        let churn = (g.num_edges() / 100).max(1);
        let batch = churn_batch(&g, churn, salt);
        prop_assume!(!batch.is_empty());
        let model = TransitionModel::DegreeDecoupled { p };
        let (cold, warm, local, _) =
            churn_roundtrip(g, &batch, model, tight_config());
        let l1w: f64 = cold.iter().zip(&warm).map(|(x, y)| (x - y).abs()).sum();
        prop_assert!(l1w < 1e-8, "warm divergence {l1w:.3e} >= 1e-8 (p={p})");
        let l1l: f64 = cold.iter().zip(&local).map(|(x, y)| (x - y).abs()).sum();
        prop_assert!(l1l < 1e-8, "localized divergence {l1l:.3e} >= 1e-8 (p={p})");
        // All are probability distributions.
        prop_assert!((warm.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((local.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// The localized path must agree with the cold solve under every
    /// dangling policy and trickle-scale churn — including the directed
    /// case where deletions create fresh dangling nodes mid-stream.
    #[test]
    fn localized_matches_cold_across_policies(
        seed in 0u64..500,
        salt in 0u32..10_000,
        policy_idx in 0usize..3,
        standard in any::<bool>(),
    ) {
        let policy = [
            DanglingPolicy::RedistributeTeleport,
            DanglingPolicy::SelfLoop,
            DanglingPolicy::Renormalize,
        ][policy_idx];
        let mut b = GraphBuilder::new(Direction::Directed, 400);
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..1200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 400) as u32;
            let v = ((x >> 13) % 400) as u32;
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build().expect("builder");
        let batch = churn_batch(&g, 3, salt);
        prop_assume!(!batch.is_empty());
        let model = if standard {
            TransitionModel::Standard
        } else {
            TransitionModel::DegreeDecoupled { p: 1.0 }
        };
        let config = PageRankConfig { dangling: policy, ..tight_config() };
        let (cold, warm, local, _) = churn_roundtrip(g, &batch, model, config);
        let l1w: f64 = cold.iter().zip(&warm).map(|(x, y)| (x - y).abs()).sum();
        prop_assert!(l1w < 1e-8, "warm divergence {l1w:.3e} (policy {policy:?})");
        let l1l: f64 = cold.iter().zip(&local).map(|(x, y)| (x - y).abs()).sum();
        prop_assert!(l1l < 1e-8, "localized divergence {l1l:.3e} (policy {policy:?})");
    }

    /// Repeated batches through one evolving pipeline (serving-state
    /// handoff: `into_state` → `EngineState::patched` → `from_state`) keep
    /// localized-vs-cold parity batch after batch.
    #[test]
    fn multi_batch_state_handoff_keeps_parity(seed in 0u64..500, salt in 0u32..10_000) {
        let g = barabasi_albert(300, 3, seed).expect("generator");
        let config = tight_config();
        let model = TransitionModel::DegreeDecoupled { p: 0.5 };
        let mut state: EngineState;
        let mut prev = {
            let mut e = Engine::with_structure(&g, std::sync::Arc::new(CscStructure::build(&g))).unwrap()
                .with_config(config).unwrap();
            let r = e.solve_model(model).unwrap();
            state = e.into_state();
            r.scores
        };
        let mut dg = DeltaGraph::new(g).unwrap();
        for round in 0..3u32 {
            let snapshot_before = dg.graph();
            let batch = churn_batch(snapshot_before, 4, salt.wrapping_add(round));
            prop_assume!(!batch.is_empty());
            let outcome = dg.apply_batch(&batch).expect("in-range");
            let snapshot = dg.graph();
            state = state.patched(snapshot, &outcome.delta).expect("consistent");
            let mut engine = Engine::from_state(snapshot, state).unwrap();
            let local = engine.resolve_incremental(&prev, &outcome.delta).unwrap();
            let cold = engine.solve().unwrap();
            let l1: f64 = cold.scores.iter().zip(&local.result.scores)
                .map(|(x, y)| (x - y).abs()).sum();
            prop_assert!(l1 < 1e-8, "round {round}: divergence {l1:.3e}");
            prev = local.result.scores;
            state = engine.into_state();
        }
    }
}

#[test]
fn directed_churn_with_dangling_nodes() {
    // Directed chain + extra arcs; deletions create fresh dangling nodes,
    // exercising the patched dangling list end-to-end.
    let mut b = GraphBuilder::new(Direction::Directed, 60);
    for v in 0..50u32 {
        b.add_edge(v, v + 1);
        b.add_edge(v, (v * 13 + 7) % 60);
    }
    let g = b.build().unwrap();
    let mut batch = EdgeBatch::new();
    batch.delete(49, 50); // 49 may lose its last out-arc
    batch.delete(49, (49 * 13 + 7) % 60);
    batch.insert(55, 0);
    let (cold, warm, local, _) = churn_roundtrip(
        g,
        &batch,
        TransitionModel::DegreeDecoupled { p: 1.0 },
        tight_config(),
    );
    assert_close(&cold, &warm, 1e-8);
    assert_close(&cold, &local, 1e-8);
}

#[test]
fn auto_mode_picks_sweep_under_bulk_churn_and_push_under_trickle() {
    let g = barabasi_albert(4_000, 4, 7).unwrap();
    let model = TransitionModel::DegreeDecoupled { p: 0.5 };
    let config = PageRankConfig {
        tolerance: 1e-9,
        max_iterations: 2_000,
        ..Default::default()
    };
    let mut engine0 = Engine::new(&g).with_config(config).unwrap();
    let before = engine0.solve_model(model).unwrap();
    let state = engine0.into_state();

    // Bulk: ~1% of edges churned — auto must take the sweep path.
    let bulk_batch = churn_batch(&g, g.num_edges() / 100, 3);
    let mut dg = DeltaGraph::new(g.clone()).unwrap();
    let outcome = dg.apply_batch(&bulk_batch).unwrap();
    let snapshot = dg.graph();
    let state = state.patched(snapshot, &outcome.delta).unwrap();
    let mut engine = Engine::from_state(snapshot, state).unwrap();
    let bulk = engine
        .resolve_incremental(&before.scores, &outcome.delta)
        .unwrap();
    assert_eq!(
        bulk.mode,
        ResolveMode::WarmSweep,
        "bulk churn must fall back to the warm full sweep"
    );

    // Trickle: one edge swapped — auto must choose the localized solver
    // (push, or its hybrid/dense refinements; never the plain sweep).
    let mut trickle_batch = EdgeBatch::new();
    trickle_batch.delete(2_000, g.neighbors(2_000)[0]);
    trickle_batch.insert(1_000, 3_999);
    let mut dg = DeltaGraph::new(g.clone()).unwrap();
    let outcome = dg.apply_batch(&trickle_batch).unwrap();
    let snapshot = dg.graph();
    let state = Engine::new(&g)
        .with_config(config)
        .unwrap()
        .into_state()
        .patched(snapshot, &outcome.delta)
        .unwrap();
    let mut engine = Engine::from_state(snapshot, state).unwrap();
    engine.set_model(model).unwrap();
    let trickle = engine
        .resolve_incremental(&before.scores, &outcome.delta)
        .unwrap();
    assert_ne!(
        trickle.mode,
        ResolveMode::WarmSweep,
        "single-edge trickle must take the localized path"
    );
    assert!(trickle.frontier > 0);
    let cold = engine.solve().unwrap();
    assert_close(&cold.scores, &trickle.result.scores, 1e-7);
}

#[test]
fn renormalize_batch_healing_last_dangling_node_stays_correct() {
    // Regression: under `Renormalize`, a pre-batch dangling node makes the
    // served fixed point projective (σ ≠ 1). If the batch heals the
    // graph's *last* dangling node, the post-batch graph looks
    // localized-eligible — but the warm start's residual is global, so
    // the localized gate must also inspect the pre-batch dangling state
    // and route to the warm sweep.
    let mut b = GraphBuilder::new(Direction::Directed, 200);
    for v in 0..200u32 {
        if v == 150 {
            continue; // 150 is the sole dangling node
        }
        b.add_edge(v, (v + 1) % 200);
        b.add_edge(v, (v * 17 + 5) % 200);
    }
    let g = b.build().unwrap();
    assert_eq!(g.out_degree(150), 0);

    let config = PageRankConfig {
        dangling: DanglingPolicy::Renormalize,
        ..tight_config()
    };
    let model = TransitionModel::DegreeDecoupled { p: 0.5 };
    let mut engine0 = Engine::new(&g).with_config(config).unwrap();
    let before = engine0.solve_model(model).unwrap();
    let state = engine0.into_state();

    // Heal the last dangling node: the post-batch graph has none.
    let mut dg = DeltaGraph::new(g).unwrap();
    let mut batch = EdgeBatch::new();
    batch.insert(150, 7);
    let outcome = dg.apply_batch(&batch).unwrap();
    let snapshot = dg.graph();
    let state = state.patched(snapshot, &outcome.delta).unwrap();
    let mut engine = Engine::from_state(snapshot, state).unwrap();
    let local = engine
        .resolve_localized(&before.scores, &outcome.delta)
        .unwrap();
    assert_eq!(
        local.mode,
        ResolveMode::WarmSweep,
        "healing the last dangling node must fall back to the sweep"
    );
    let cold = engine.solve().unwrap();
    assert_close(&cold.scores, &local.result.scores, 1e-8);
}

#[test]
fn warm_start_from_stale_vector_still_converges_to_fixed_point() {
    // Even a badly stale previous vector (from a very different graph
    // state) must not change the fixed point — only the iteration count.
    let g = barabasi_albert(400, 4, 99).unwrap();
    let config = tight_config();
    let mut engine = Engine::new(&g).with_config(config).unwrap();
    engine
        .set_model(TransitionModel::DegreeDecoupled { p: -1.0 })
        .unwrap();
    let cold = engine.solve().unwrap();
    // A deliberately terrible warm start: all mass on one node.
    let mut stale = vec![0.0; 400];
    stale[17] = 1.0;
    let warm = engine.resolve_warm(&stale).unwrap();
    assert_close(&cold.scores, &warm.scores, 1e-8);
}

/// Satellite acceptance: N consecutive `into_state → patched → from_state`
/// hops under churn stay within 1e-8 of cold solves, and the shared
/// structure's `Arc` identity is preserved across every hop that does not
/// change topology (no silent deep copies) — a real delta rekeys it, an
/// empty delta and every state↔engine handoff must not.
#[test]
fn chained_serving_preserves_parity_and_structure_identity() {
    let g = barabasi_albert(400, 3, 23).unwrap();
    let model = TransitionModel::DegreeDecoupled { p: 0.5 };
    let mut engine = Engine::new(&g).with_config(tight_config()).unwrap();
    let mut prev = engine.solve_model(model).unwrap().scores;
    let mut state = engine.into_state();
    let mut dg = DeltaGraph::new(g).unwrap();
    for round in 0..5u32 {
        let snapshot_before = dg.graph();
        let churn = if round % 2 == 0 { 4 } else { 0 };
        let batch = churn_batch(snapshot_before, churn, 991 + round);
        let outcome = dg.apply_batch(&batch).unwrap();
        let snapshot = dg.graph();
        let arc_before = state.shared_structure();
        state = state.patched(snapshot, &outcome.delta).unwrap();
        let topology_changed =
            !outcome.delta.inserted.is_empty() || !outcome.delta.deleted.is_empty();
        assert_eq!(
            !Arc::ptr_eq(&arc_before, &state.shared_structure()),
            topology_changed,
            "round {round}: patch must rekey the Arc iff arcs changed"
        );
        let arc_patched = state.shared_structure();
        let mut engine = Engine::from_state(snapshot, state).unwrap();
        assert!(
            Arc::ptr_eq(&arc_patched, &engine.shared_structure()),
            "round {round}: from_state must reattach the same structure, not copy it"
        );
        let out = engine.resolve_incremental(&prev, &outcome.delta).unwrap();
        let cold = engine.solve().unwrap();
        let l1: f64 = cold
            .scores
            .iter()
            .zip(&out.result.scores)
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(l1 < 1e-8, "round {round}: chained divergence {l1:.3e}");
        assert!(
            Arc::ptr_eq(&arc_patched, &engine.shared_structure()),
            "round {round}: solving must not clone the structure"
        );
        prev = out.result.scores;
        state = engine.into_state();
        assert!(
            Arc::ptr_eq(&arc_patched, &state.shared_structure()),
            "round {round}: into_state must carry the same Arc back out"
        );
    }
}

/// Empty deltas keep both the fixed point and the structure untouched.
#[test]
fn empty_delta_patch_is_identity() {
    let g = barabasi_albert(200, 3, 5).unwrap();
    let mut engine = Engine::new(&g).with_config(tight_config()).unwrap();
    let before = engine.solve_model(TransitionModel::Standard).unwrap();
    let state = engine.into_state();
    let arc0 = state.shared_structure();
    let state = state.patched(&g, &ArcDelta::default()).unwrap();
    assert!(Arc::ptr_eq(&arc0, &state.shared_structure()));
    let mut engine = Engine::from_state(&g, state).unwrap();
    let out = engine
        .resolve_incremental(&before.scores, &ArcDelta::default())
        .unwrap();
    assert!(out.result.converged);
    let l1: f64 = before
        .scores
        .iter()
        .zip(&out.result.scores)
        .map(|(x, y)| (x - y).abs())
        .sum();
    assert!(l1 < 1e-8, "empty delta moved the solution by {l1:.3e}");
}

/// Tiny graphs (≤ 128 nodes) refresh through the same localized path as
/// every other graph: a forced single-edge `resolve_localized` reports a
/// push (or a push with the sweep finisher) under every dangling policy
/// and lands on the cold solve.
#[test]
fn tiny_graphs_refresh_through_the_push_path() {
    let ba = barabasi_albert(96, 3, 5).unwrap();
    // RedistributeTeleport and SelfLoop run on the BA graph plus four
    // dangling sinks; Renormalize stays localized only without dangling
    // nodes, so it runs on the plain BA graph.
    let mut b = GraphBuilder::new(Direction::Directed, 100);
    for (u, v) in ba.arcs() {
        b.add_edge(u, v);
    }
    for k in 0..4u32 {
        b.add_edge(k * 7, 96 + k);
    }
    let with_sinks = b.build().unwrap();
    let model = TransitionModel::DegreeDecoupled { p: 0.5 };
    for (g, policy) in [
        (&with_sinks, DanglingPolicy::RedistributeTeleport),
        (&with_sinks, DanglingPolicy::SelfLoop),
        (&ba, DanglingPolicy::Renormalize),
    ] {
        assert!(g.num_nodes() <= 128);
        let v = (1..g.num_nodes() as u32)
            .find(|&v| !g.has_arc(0, v))
            .expect("node 0 has a non-neighbor");
        let mut batch = EdgeBatch::new();
        batch.insert(0, v);
        let config = PageRankConfig {
            dangling: policy,
            ..tight_config()
        };
        let (cold, _, local, mode) = churn_roundtrip(g.clone(), &batch, model, config);
        assert!(
            matches!(
                mode,
                ResolveMode::LocalizedPush | ResolveMode::HybridPushSweep
            ),
            "{policy:?}: refreshed by {mode:?}"
        );
        assert_close(&cold, &local, 1e-8);
    }
}
