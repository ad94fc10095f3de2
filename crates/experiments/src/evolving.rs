//! Evolving-graph scenario: warm-started D2PR re-solves under edge churn.
//!
//! The serving workload this models: a graph receives a continuous stream
//! of edge insertions and deletions, batched; after every batch the ranks
//! must be refreshed. Two strategies are compared on identical batches:
//!
//! * **cold** — re-solve the updated snapshot from the teleport
//!   distribution, as a from-scratch pipeline would;
//! * **warm** — the incremental path: apply the batch through
//!   [`DeltaGraph`], patch the engine's transpose with the batch's
//!   [`ArcDelta`](d2pr_graph::delta::ArcDelta)
//!   ([`CscStructure::patched`]), and seed the re-solve with the
//!   pre-batch rank vector ([`Engine::resolve_incremental`]).
//!
//! Both strategies run the same engine, operator, and tolerance, so the
//! scores agree to solver tolerance (asserted by `tests/incremental.rs` at
//! 1e-8); the interesting output is the iteration count per batch, which
//! for small churn fractions is several times lower warm than cold. The
//! `repro evolving` subcommand prints the per-batch table;
//! `benches/incremental_updates.rs` records the same quantities at bench
//! scale in `BENCH_incremental.json`.
//!
//! Two opt-in regimes widen the mutation surface beyond unweighted edge
//! churn: `weighted` swaps the BA world for an evolving bipartite ratings
//! graph (star-weighted arcs, revised in place) served by the blended
//! β > 0 model, and `node_churn` adds user/item arrivals and departures
//! (`add_nodes`/`remove_node`) to the stream. `repro evolving --weighted
//! --node-churn` drives both.

use crate::report::TextTable;
use d2pr_core::engine::{Engine, ResolveMode};
use d2pr_core::error::UpdateError;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::transition::TransitionModel;
use d2pr_datagen::evolving::EvolvingRatingsConfig;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::error::GraphError;
use d2pr_graph::generators::barabasi_albert;
use d2pr_graph::transpose::CscStructure;
use d2pr_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample a deterministic churn stream over `graph`: per batch,
/// `max(2, ceil(churn · |E|))` mutations — half deletions of existing
/// edges (uniform over the current edge set), half insertions of fresh
/// ones (rejection-sampled; edges are normalized to `u < v`, so mirrored
/// storage churns both arcs). The stream depends only on `graph`, the
/// parameters, and `rng` — never on solver state — so callers replay it
/// against their own [`DeltaGraph`]. The one sampler shared by the
/// evolving and serving experiments, the `serving_concurrent` bench, and
/// the serving stress test.
///
/// # Errors
/// Propagates delta-application failures (e.g. a weighted base) as
/// [`GraphError`].
pub fn churn_stream(
    graph: &CsrGraph,
    batches: usize,
    churn: f64,
    rng: &mut StdRng,
) -> Result<Vec<EdgeBatch>, GraphError> {
    let mut dg = DeltaGraph::new(graph.clone())?;
    // Current edge list (u < v), kept in sync with the delta graph so
    // deletions can be sampled uniformly.
    let mut edges: Vec<(NodeId, NodeId)> = graph.arcs().filter(|&(u, v)| u < v).collect();
    let n = graph.num_nodes() as NodeId;
    let mut stream = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mutations = ((churn * edges.len() as f64).ceil() as usize).max(2);
        let deletes = mutations / 2;
        let inserts = mutations - deletes;
        let mut batch = EdgeBatch::new();
        for _ in 0..deletes {
            let i = rng.gen_range(0..edges.len());
            let (u, v) = edges.swap_remove(i);
            batch.delete(u, v);
        }
        for _ in 0..inserts {
            loop {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                // Normalize before the dedup checks: inserts are stored as
                // (min, max), so the membership test must use that form.
                let e = (u.min(v), u.max(v));
                if u != v && !dg.graph().has_arc(e.0, e.1) && !batch.inserts.contains(&e) {
                    batch.insert(e.0, e.1);
                    edges.push(e);
                    break;
                }
            }
        }
        dg.apply_batch(&batch)?;
        stream.push(batch);
    }
    Ok(stream)
}

/// Which incremental re-solve strategy the evolving run serves with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshMode {
    /// Warm-started full sweep (`Engine::resolve_warm`) — the PR-2 path.
    Sweep,
    /// Residual-localized push (`Engine::resolve_localized`), with its
    /// built-in hybrid/dense fallbacks.
    Localized,
    /// Auto-selection from the batch footprint
    /// (`Engine::resolve_incremental`).
    #[default]
    Auto,
}

impl RefreshMode {
    /// Parse a CLI token (`sweep` / `localized` / `auto`).
    pub fn parse(s: &str) -> Option<RefreshMode> {
        match s {
            "sweep" => Some(RefreshMode::Sweep),
            "localized" => Some(RefreshMode::Localized),
            "auto" => Some(RefreshMode::Auto),
            _ => None,
        }
    }
}

/// Configuration of one evolving-graph run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolvingConfig {
    /// Nodes of the initial Barabási–Albert graph.
    pub nodes: usize,
    /// BA attachments per node (≈ arcs/nodes/2 for undirected storage).
    pub attachments: usize,
    /// Number of churn batches to stream.
    pub batches: usize,
    /// Fraction of current edges mutated per batch (half deletions of
    /// existing edges, half insertions of fresh ones).
    pub churn: f64,
    /// De-coupling weight `p` of the served D2PR model.
    pub p: f64,
    /// Solver residual probability `α`.
    pub alpha: f64,
    /// Solver L1 tolerance. The serving default (1e-6) is deliberately
    /// looser than the reproduction experiments' 1e-9: re-solving far
    /// below the perturbation the *next* batch will cause is wasted work
    /// (see DESIGN.md, "warm-start convergence contract").
    pub tolerance: f64,
    /// Solver iteration cap.
    pub max_iterations: usize,
    /// RNG seed for the graph and the churn stream.
    pub seed: u64,
    /// Incremental re-solve strategy for the "warm" side of the
    /// comparison.
    pub mode: RefreshMode,
    /// Serve star-weighted arcs: the world becomes an evolving bipartite
    /// ratings graph ([`EvolvingRatingsConfig`]) whose batches insert
    /// weighted ratings and revise existing ones, and the model blends in
    /// the connectivity operator (β > 0).
    pub weighted: bool,
    /// Stream node arrivals and departures alongside edge churn (also
    /// switches to the ratings world; combine with `weighted` for the
    /// full mutation surface).
    pub node_churn: bool,
}

impl Default for EvolvingConfig {
    fn default() -> Self {
        Self {
            nodes: 20_000,
            attachments: 5,
            batches: 8,
            churn: 0.01,
            p: 0.5,
            alpha: 0.85,
            tolerance: 1e-6,
            max_iterations: 500,
            seed: 0xE401,
            mode: RefreshMode::Auto,
            weighted: false,
            node_churn: false,
        }
    }
}

/// Outcome of one churn batch: the same re-solve done cold and warm.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStep {
    /// 1-based batch index.
    pub batch: usize,
    /// Arcs that became present (mirrored arcs counted individually).
    pub inserted_arcs: usize,
    /// Arcs that became absent.
    pub deleted_arcs: usize,
    /// Arcs whose weight changed without a structural flip (0 on
    /// unweighted streams).
    pub reweighted_arcs: usize,
    /// Nodes appended by this batch (0 without node churn).
    pub grown_nodes: u32,
    /// Nodes tombstoned by this batch (0 without node churn).
    pub removed_nodes: usize,
    /// Iterations of the cold re-solve (teleport start).
    pub cold_iterations: usize,
    /// Iterations of the warm re-solve (previous-rank start); counts
    /// residual *pushes* when the localized path served the batch.
    pub warm_iterations: usize,
    /// Strategy that actually served the batch (fallbacks included).
    pub mode_used: ResolveMode,
    /// Frontier rows of the localized path (0 for sweeps).
    pub frontier: usize,
    /// L1 distance between the cold and warm solutions (parity check).
    pub rank_l1_divergence: f64,
    /// L1 distance between the pre-batch and post-batch ranks — how hard
    /// the batch actually shook the solution.
    pub rank_l1_shift: f64,
}

/// Full run record.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolvingReport {
    /// Node count of the initial snapshot (grows under node churn; see
    /// each step's `grown_nodes`).
    pub nodes: usize,
    /// Arc count of the initial snapshot.
    pub initial_arcs: usize,
    /// Iterations of the initial (necessarily cold) solve.
    pub initial_iterations: usize,
    /// One entry per churn batch.
    pub steps: Vec<BatchStep>,
}

impl EvolvingReport {
    /// Total cold iterations across all batches.
    pub fn total_cold(&self) -> usize {
        self.steps.iter().map(|s| s.cold_iterations).sum()
    }

    /// Total warm iterations across all batches.
    pub fn total_warm(&self) -> usize {
        self.steps.iter().map(|s| s.warm_iterations).sum()
    }

    /// Cold-to-warm iteration ratio (the headline number; > 1 means the
    /// warm start saves work).
    pub fn iteration_ratio(&self) -> f64 {
        self.total_cold() as f64 / self.total_warm().max(1) as f64
    }

    /// Largest cold-vs-warm L1 divergence over the run.
    pub fn max_divergence(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.rank_l1_divergence)
            .fold(0.0, f64::max)
    }
}

/// Stream `cfg.batches` churn batches over a BA graph, re-solving cold and
/// warm after each, and record the iteration accounting.
///
/// # Errors
/// Propagates generator, delta-application, transpose-patch, and solver
/// failures as [`UpdateError`].
pub fn run_evolving(cfg: &EvolvingConfig) -> Result<EvolvingReport, UpdateError> {
    let solver = PageRankConfig {
        alpha: cfg.alpha,
        tolerance: cfg.tolerance,
        max_iterations: cfg.max_iterations,
        ..Default::default()
    };
    // A weighted stream needs β > 0 to matter: the blended model is the
    // one whose transition actually reads the star values.
    let model = if cfg.weighted {
        TransitionModel::Blended {
            p: cfg.p,
            beta: 0.5,
        }
    } else {
        TransitionModel::DegreeDecoupled { p: cfg.p }
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let (g0, stream) = if cfg.weighted || cfg.node_churn {
        // Evolving ratings world: two users per item, `attachments`
        // ratings per user, per-batch volumes scaled by the same churn
        // fraction the BA stream uses.
        let entities = (cfg.nodes * 2 / 3).max(4);
        let containers = (cfg.nodes - entities).max(4);
        let memberships = entities * cfg.attachments.max(1);
        let mutations = ((cfg.churn * memberships as f64).ceil() as usize).max(2);
        let world = EvolvingRatingsConfig {
            num_entities: entities,
            num_containers: containers,
            ratings_per_entity: cfg.attachments.max(1),
            batches: cfg.batches,
            ratings_per_batch: mutations / 2,
            reratings_per_batch: mutations - mutations / 2,
            arrivals_per_batch: if cfg.node_churn {
                (mutations / 4).max(2)
            } else {
                0
            },
            departures_per_batch: if cfg.node_churn {
                (mutations / 8).max(1)
            } else {
                0
            },
            weighted: cfg.weighted,
            noise: 0.3,
            seed: rng.gen(),
        }
        .generate()?;
        (world.base, world.batches)
    } else {
        let g0 = barabasi_albert(cfg.nodes, cfg.attachments, rng.gen())?;
        let stream = churn_stream(&g0, cfg.batches, cfg.churn, &mut rng)?;
        (g0, stream)
    };
    let initial_arcs = g0.num_arcs();

    let mut dg = DeltaGraph::new(g0)?;
    let (initial_iterations, mut prev_scores, mut state);
    {
        let csc = std::sync::Arc::new(CscStructure::build(dg.graph()));
        let mut engine = Engine::with_structure(dg.graph(), csc)?.with_config(solver)?;
        engine.set_model(model)?;
        let r = engine.solve()?;
        initial_iterations = r.iterations;
        prev_scores = r.scores;
        state = engine.into_state();
    }

    let mut steps = Vec::with_capacity(cfg.batches);
    for (i, batch) in stream.iter().enumerate() {
        let b = i + 1;
        // The incremental serving pipeline: batch -> patched graph -> patched
        // engine state (no O(E) rebuild) -> strategy-selected re-solve.
        let outcome = dg.apply_batch(batch)?;
        let graph = dg.graph();
        state = state.patched(graph, &outcome.delta)?;
        let mut engine = Engine::from_state(graph, state)?;
        // Node-growth batches: fresh ids start unranked; extend the warm
        // start so every mode (including the plain sweep) accepts it.
        prev_scores.resize(graph.num_nodes(), 0.0);
        let warm = match cfg.mode {
            RefreshMode::Sweep => d2pr_core::engine::IncrementalOutcome {
                result: engine.resolve_warm(&prev_scores)?,
                mode: ResolveMode::WarmSweep,
                frontier: 0,
                pushes: 0,
            },
            RefreshMode::Localized => engine.resolve_localized(&prev_scores, &outcome.delta)?,
            RefreshMode::Auto => engine.resolve_incremental(&prev_scores, &outcome.delta)?,
        };
        let cold = engine.solve()?;

        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        steps.push(BatchStep {
            batch: b,
            inserted_arcs: outcome.delta.inserted.len(),
            deleted_arcs: outcome.delta.deleted.len(),
            reweighted_arcs: outcome.delta.reweighted.len(),
            grown_nodes: outcome.delta.added_nodes(),
            removed_nodes: outcome.delta.removed_nodes.len(),
            cold_iterations: cold.iterations,
            warm_iterations: warm.result.iterations,
            mode_used: warm.mode,
            frontier: warm.frontier,
            rank_l1_divergence: l1(&cold.scores, &warm.result.scores),
            rank_l1_shift: l1(&warm.result.scores, &prev_scores),
        });
        prev_scores = warm.result.scores;
        state = engine.into_state();
    }

    Ok(EvolvingReport {
        nodes: cfg.nodes,
        initial_arcs,
        initial_iterations,
        steps,
    })
}

/// Per-batch table for the `repro evolving` subcommand.
pub fn evolving_report(r: &EvolvingReport) -> TextTable {
    let mut t = TextTable::new(vec![
        "batch",
        "+arcs",
        "-arcs",
        "rew",
        "+nodes",
        "-nodes",
        "mode",
        "frontier",
        "cold_iters",
        "warm_iters",
        "rank_shift",
        "divergence",
    ]);
    for s in &r.steps {
        t.push_row(vec![
            s.batch.to_string(),
            s.inserted_arcs.to_string(),
            s.deleted_arcs.to_string(),
            s.reweighted_arcs.to_string(),
            s.grown_nodes.to_string(),
            s.removed_nodes.to_string(),
            s.mode_used.label().to_string(),
            s.frontier.to_string(),
            s.cold_iterations.to_string(),
            s.warm_iterations.to_string(),
            format!("{:.2e}", s.rank_l1_shift),
            format!("{:.2e}", s.rank_l1_divergence),
        ]);
    }
    t.push_row(vec![
        "total".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        r.total_cold().to_string(),
        r.total_warm().to_string(),
        format!("{:.2}x fewer", r.iteration_ratio()),
        format!("{:.2e} max", r.max_divergence()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evolving_run_is_consistent() {
        let cfg = EvolvingConfig {
            nodes: 1_500,
            attachments: 4,
            batches: 3,
            churn: 0.01,
            tolerance: 1e-9,
            mode: RefreshMode::Sweep,
            ..Default::default()
        };
        let r = run_evolving(&cfg).unwrap();
        assert_eq!(r.steps.len(), 3);
        assert!(r.initial_iterations > 0);
        for s in &r.steps {
            assert!(s.inserted_arcs > 0 && s.deleted_arcs > 0);
            assert!(
                s.rank_l1_divergence < 1e-7,
                "cold and warm must agree: {}",
                s.rank_l1_divergence
            );
            assert!(s.warm_iterations <= s.cold_iterations);
            assert_eq!(s.mode_used, ResolveMode::WarmSweep);
        }
        assert!(r.iteration_ratio() >= 1.0);
        let table = evolving_report(&r);
        assert_eq!(table.num_rows(), 4);
    }

    #[test]
    fn weighted_node_churn_run_agrees_with_cold() {
        let cfg = EvolvingConfig {
            nodes: 900,
            attachments: 4,
            batches: 3,
            churn: 0.02,
            tolerance: 1e-9,
            weighted: true,
            node_churn: true,
            ..Default::default()
        };
        let r = run_evolving(&cfg).unwrap();
        assert_eq!(r.steps.len(), 3);
        assert!(r.steps.iter().any(|s| s.reweighted_arcs > 0));
        assert!(r.steps.iter().any(|s| s.grown_nodes > 0));
        assert!(r.steps.iter().any(|s| s.removed_nodes > 0));
        for s in &r.steps {
            assert!(
                s.rank_l1_divergence < 1e-7,
                "cold and warm must agree under churn: {}",
                s.rank_l1_divergence
            );
        }
        let table = evolving_report(&r);
        assert_eq!(table.num_rows(), 4);
    }

    #[test]
    fn weighted_trickle_stays_localized() {
        // Weighted edge-only deltas are localized-supported: a rating
        // revision at trickle volume must not force a global sweep.
        let cfg = EvolvingConfig {
            nodes: 1_200,
            attachments: 4,
            batches: 2,
            churn: 0.0008,
            tolerance: 1e-9,
            weighted: true,
            mode: RefreshMode::Auto,
            ..Default::default()
        };
        let r = run_evolving(&cfg).unwrap();
        for s in &r.steps {
            assert!(s.rank_l1_divergence < 1e-7, "{}", s.rank_l1_divergence);
            assert!(
                matches!(
                    s.mode_used,
                    ResolveMode::LocalizedPush | ResolveMode::HybridPushSweep
                ),
                "weighted trickle batch took {:?}",
                s.mode_used
            );
            assert!(s.frontier > 0);
        }
    }

    #[test]
    fn evolving_localized_and_auto_modes_agree_with_cold() {
        for mode in [RefreshMode::Localized, RefreshMode::Auto] {
            let cfg = EvolvingConfig {
                nodes: 1_200,
                attachments: 4,
                batches: 2,
                // Trickle-scale churn so the localized path is exercised.
                churn: 0.0005,
                tolerance: 1e-9,
                mode,
                ..Default::default()
            };
            let r = run_evolving(&cfg).unwrap();
            for s in &r.steps {
                assert!(
                    s.rank_l1_divergence < 1e-7,
                    "mode {mode:?}: divergence {}",
                    s.rank_l1_divergence
                );
            }
            let table = evolving_report(&r);
            assert_eq!(table.num_rows(), 3);
        }
    }
}
