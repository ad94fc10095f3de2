//! The fused pull-engine: one operator form, one thread per solve, zero
//! per-sweep-point allocations.
//!
//! The paper's experiments are parameter sweeps — dozens of PageRank solves
//! over a grid of `p` (and `α`, `β`) on a fixed graph. [`Engine`] builds the
//! structural transpose ([`CscStructure`]) once per graph and rewrites the
//! operator tables in place per grid point. A solve runs on the calling
//! thread; parallelism lives *across* independent solves — engines built
//! with [`Engine::with_structure`] over one shared `Arc<CscStructure>`
//! (the experiment crate's grid workers), shards and personalization views.
//!
//! Every model runs one **factored operator**: the blend of §3.2.3,
//! `T_B = β·T_conn + (1−β)·T_D`, is a sum of per-node tables and the arc
//! weights,
//!
//! ```text
//! T_B(j, i) = numer[j]·inv_denom[i] + w(i→j)·conn[i]
//! numer[j] = Θ_j^(−p)   inv_denom[i] = (1−β)/Σ_{t∈N(i)} numer[t]   conn[i] = β/Θ_i
//! ```
//!
//! (0 at dangling sources). A model update is one `exp` per node plus one
//! pass over the arcs, a pull gathers each term once from the iterate
//! scaled by its source factor, and a term whose coefficient is 0 does not
//! run. No per-arc operator value exists, so a serving refresh repairs the
//! tables at the delta's frontier for every model
//! ([`EngineState::patched`]). All three [`DanglingPolicy`] variants and
//! personalized teleport vectors are supported, and every entry point
//! returns [`SolverError`] instead of panicking. See `DESIGN.md`, "The
//! fused engine".
//!
//! The engine is the crate's one production solver; the power iteration in
//! [`mod@crate::pagerank`] is the reference oracle the tests compare it
//! against.

use crate::error::{SolverError, UpdateError};
use crate::exec::sim_event;
use crate::kernel::{gather_plain, gather_weighted};
use crate::pagerank::{DanglingPolicy, PageRankConfig, PageRankResult};
use crate::residual::LocalizedParams;
use crate::transition::TransitionModel;
use crate::workspace::Workspace;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::ArcDelta;
use d2pr_graph::error::GraphError;
use d2pr_graph::transpose::CscStructure;
use std::sync::Arc;

/// The machine's available parallelism: how many independent solves a
/// caller may run at once (the experiment crate sizes its grid workers
/// with it). A single solve always runs on one thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which strategy an incremental re-solve actually ran (the auto-selecting
/// [`Engine::resolve_incremental`] chooses; the explicit entry points can
/// still fall back — see [`Engine::resolve_localized`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveMode {
    /// Warm-started full power-iteration sweep ([`Engine::resolve_warm`]).
    WarmSweep,
    /// Residual-localized Gauss–Southwell push ([`crate::residual`]).
    LocalizedPush,
    /// Push phase followed by a sweep finisher: the push drained the
    /// concentrated residual (where it is several times more
    /// work-efficient than sweeping), then handed the fragmented
    /// low-amplitude tail to the extrapolated sweep, seeded from the
    /// pushed iterate — typically several error decades ahead of the
    /// plain warm start.
    HybridPushSweep,
    /// Never produced. It named the dense Gauss–Seidel fallback that tiny
    /// graphs (≤ 128 nodes) once took; they now refresh through the same
    /// push, hybrid or warm-sweep path as every other graph. The variant
    /// stays so that downstream `match`es naming it keep compiling.
    #[deprecated(note = "never produced: tiny graphs refresh like any other graph")]
    DenseGaussSeidel,
}

impl ResolveMode {
    /// Short label for reports and bench output: `sweep`, `push`, `hybrid`
    /// (or `gs` for the retired [`ResolveMode::DenseGaussSeidel`]). The
    /// only code that names that variant.
    #[allow(deprecated)]
    pub fn label(self) -> &'static str {
        match self {
            ResolveMode::WarmSweep => "sweep",
            ResolveMode::LocalizedPush => "push",
            ResolveMode::HybridPushSweep => "hybrid",
            ResolveMode::DenseGaussSeidel => "gs",
        }
    }
}

/// Result of an incremental re-solve, with strategy diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalOutcome {
    /// The refreshed solve. For [`ResolveMode::LocalizedPush`],
    /// `iterations` counts residual *pushes* (node-local updates, each
    /// `O(out-degree)`) rather than full sweeps, and `residual` is the
    /// final tracked L1 residual mass.
    pub result: PageRankResult,
    /// The strategy that produced the result.
    pub mode: ResolveMode,
    /// Rows on which the initial residual was evaluated (0 for sweeps).
    pub frontier: usize,
    /// Residual pushes performed (0 for sweeps).
    pub pushes: usize,
}

/// The set of nodes whose scores an incremental re-solve may have changed,
/// reported by [`Engine::resolve_incremental_tracked`] — the repair
/// frontier for downstream incremental consumers (the serving layer's
/// maintained top-k index).
///
/// Two shapes:
/// * `all == false`: exactly the nodes in `nodes` were written by the
///   localized push; **every other node's score changed by at most a
///   uniform rescale** (the final simplex normalization divides the whole
///   vector by one positive constant, which preserves the relative order
///   of untouched nodes).
/// * `all == true`: a sweep (warm or hybrid finisher) rewrote the full
///   vector — there is no usable locality and `nodes` is left empty.
///
/// The buffer is reusable: pass the same `TouchedSet` every refresh and
/// its `nodes` allocation is recycled (clear + extend).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchedSet {
    /// Touched node ids (engine-internal ids when the engine runs over a
    /// permuted [`CscStructure`] layout; callers translate).
    pub nodes: Vec<u32>,
    /// `true` when the whole score vector must be treated as touched.
    pub all: bool,
}

impl TouchedSet {
    /// Empty set (`all == false`, no nodes).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark every node as touched (clears `nodes`; locality is lost).
    pub fn mark_all(&mut self) {
        self.nodes.clear();
        self.all = true;
    }
}

/// The graph-independent state of an [`Engine`], recovered with
/// [`Engine::into_state`] and revived with [`Engine::from_state`] — the
/// serving-loop handoff for evolving graphs.
///
/// An engine borrows its graph, so each delta batch (which produces a new
/// snapshot) requires a new engine. Rebuilding one from scratch pays
/// `O(V + E)` for the Θ/ln Θ tables and the operator tables, even when a
/// single edge changed. `EngineState` instead carries every table across
/// the generation change and [`EngineState::patched`] repairs exactly the
/// entries the [`ArcDelta`] invalidated: Θ/ln Θ and the dangling mask at
/// changed sources, the operator's destination factor at Θ-changed nodes,
/// its degree-term denominators at changed columns and its
/// connection-term factors at the delta's sources — all `O(frontier)`,
/// for every model, with the transpose patched alongside
/// ([`CscStructure::patched`]). The [`Workspace`] rides along, so the
/// residual-localized scratch keeps its sizing and steady-state serving
/// performs no solver allocations.
///
/// ```
/// use d2pr_core::engine::Engine;
/// use d2pr_core::transition::TransitionModel;
/// use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
/// use d2pr_graph::generators::barabasi_albert;
///
/// let g = barabasi_albert(300, 3, 11).unwrap();
/// let mut engine = Engine::new(&g);
/// engine.set_model(TransitionModel::DegreeDecoupled { p: 0.5 }).unwrap();
/// let mut served = engine.solve().unwrap().scores;
/// let mut state = engine.into_state();
/// let mut dg = DeltaGraph::new(g).unwrap();
///
/// // The serving loop: per batch, patch the state, revive the engine,
/// // refresh incrementally.
/// for round in 0..3u32 {
///     let mut batch = EdgeBatch::new();
///     batch.insert(round, 299 - round);
///     let outcome = dg.apply_batch(&batch).unwrap();
///     let snapshot = dg.graph();
///     state = state.patched(&snapshot, &outcome.delta).unwrap();
///     let mut engine = Engine::from_state(&snapshot, state).unwrap();
///     let refreshed = engine.resolve_incremental(&served, &outcome.delta).unwrap();
///     assert!(refreshed.result.converged);
///     served = refreshed.result.scores;
///     state = engine.into_state();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct EngineState {
    csc: Arc<CscStructure>,
    theta: Vec<f64>,
    log_theta: Vec<f64>,
    dangling_mask: Vec<bool>,
    node_numer: Vec<f64>,
    inv_denom: Vec<f64>,
    conn: Vec<f64>,
    scaled_a: Scaled,
    scaled_b: Scaled,
    model: Option<TransitionModel>,
    config: PageRankConfig,
    ws: Workspace,
}

impl EngineState {
    /// The transpose structure carried by this state.
    pub fn csc(&self) -> &CscStructure {
        &self.csc
    }

    /// The shared transpose structure (cheap `Arc` clone) — hand it to
    /// [`Engine::with_structure`] to build additional engines over the
    /// same graph with zero `O(E)` structure work.
    pub fn shared_structure(&self) -> Arc<CscStructure> {
        Arc::clone(&self.csc)
    }

    /// The carried `Θ` table (engine-internal ids).
    pub(crate) fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Advance the state across one delta batch: patch the transpose and
    /// repair the Θ/operator tables at exactly the entries the delta
    /// touched (see the type docs). `new_graph` must be the post-batch
    /// snapshot and `delta` the batch's effective arc delta.
    ///
    /// Weighted snapshots patch like unweighted ones. A re-weight-only
    /// batch keeps the transpose `Arc` until the structure's CSC weights
    /// are filled (by the first `β > 0` model); from then on it rekeys the
    /// structure, whose weights moved. Node growth append-extends every
    /// per-node table; removals are tombstones (id space fixed).
    ///
    /// # Errors
    /// Returns [`UpdateError::Graph`] when the delta does not connect the
    /// carried structure to `new_graph` (see [`CscStructure::patched`]),
    /// and [`SolverError::InvalidModel`] (wrapped in
    /// [`UpdateError::Solver`]) when a changed Θ puts the carried model's
    /// degree term past the exponent range (see [`Engine::set_model`]).
    pub fn patched(
        self,
        new_graph: &CsrGraph,
        delta: &ArcDelta,
    ) -> Result<EngineState, UpdateError> {
        self.patched_inner(new_graph, delta, None)
    }

    /// [`EngineState::patched`] against a transpose that has **already**
    /// been patched for this delta — the multi-view serving path. When N
    /// engine states serve personalization views over one shared
    /// `Arc<CscStructure>`, only the first state pays the patch
    /// ([`CscStructure::patched`]); the rest receive its result here, so
    /// the whole shard group keeps pointing at a single transpose
    /// allocation across every delta generation
    /// ([`crate::serving::ShardManager`] relies on this).
    ///
    /// # Errors
    /// As [`EngineState::patched`], plus
    /// [`SolverError::StructureMismatch`] (wrapped in
    /// [`UpdateError::Solver`]) when `structure` does not describe
    /// `new_graph`.
    pub fn patched_with(
        self,
        new_graph: &CsrGraph,
        delta: &ArcDelta,
        structure: Arc<CscStructure>,
    ) -> Result<EngineState, UpdateError> {
        if structure.num_nodes() != new_graph.num_nodes()
            || structure.num_arcs() != new_graph.num_arcs()
        {
            return Err(UpdateError::Solver(SolverError::StructureMismatch {
                structure: (structure.num_nodes(), structure.num_arcs()),
                graph: (new_graph.num_nodes(), new_graph.num_arcs()),
            }));
        }
        self.patched_inner(new_graph, delta, Some(structure))
    }

    /// Shared body of [`EngineState::patched`] / [`EngineState::patched_with`]:
    /// `prepatched` carries a transpose already patched for `delta` (shared
    /// across a shard group), `None` patches the carried one.
    fn patched_inner(
        mut self,
        new_graph: &CsrGraph,
        delta: &ArcDelta,
        prepatched: Option<Arc<CscStructure>>,
    ) -> Result<EngineState, UpdateError> {
        let structural =
            !delta.inserted.is_empty() || !delta.deleted.is_empty() || delta.added_nodes() > 0;
        if structural || (!delta.reweighted.is_empty() && self.csc.has_in_weights()) {
            // The patched structure is a new `Arc` generation; other
            // holders of the old one are unaffected.
            self.csc = match prepatched {
                Some(csc) => csc,
                None => Arc::new(self.csc.patched(new_graph, delta)?),
            };
        } else {
            // Re-weights without CSC weights (and isolated-node
            // tombstones) leave the structure — and the carried `Arc`
            // identity, no silent deep copies — intact; only the
            // Θ-derived tables move below.
            if new_graph.num_nodes() != self.csc.num_nodes()
                || new_graph.num_arcs() != self.csc.num_arcs()
            {
                return Err(UpdateError::Graph(GraphError::Snapshot(
                    "patched: structure-free delta but the graph shape changed".into(),
                )));
            }
            if let Some(csc) = prepatched {
                self.csc = csc;
            }
            if delta.reweighted.is_empty() {
                return Ok(self);
            }
        }
        // Node growth: append-extend every per-node table. Fresh ids
        // start dangling with Θ = 0 (so `numer = e⁰ = 1`, `inv_denom =
        // conn = 0`) — a grown node that gains arcs in the same batch is
        // in the repair lists below and gets its real values immediately.
        let n_new = new_graph.num_nodes();
        if n_new > self.dangling_mask.len() {
            self.dangling_mask.resize(n_new, true);
            self.theta.resize(n_new, 0.0);
            self.log_theta.resize(n_new, 0.0);
            if self.model.is_some() {
                self.node_numer.resize(n_new, 1.0);
                self.inv_denom.resize(n_new, 0.0);
                self.conn.resize(n_new, 0.0);
            }
        }

        // Θ / ln Θ / dangling at changed sources. Dangling follows the
        // arc structure (degree changes); Θ follows the weight mass, so a
        // pure re-weight repairs Θ with no dangling touch.
        let source_changes = delta.source_degree_changes();
        let theta_changes = delta.source_theta_changes();
        let weighted = new_graph.is_weighted();
        let mut theta_changed: Vec<u32> = Vec::new();
        for &(v, _) in &source_changes {
            self.dangling_mask[v as usize] = new_graph.out_degree(v) == 0;
        }
        for &(v, net) in &theta_changes {
            if net != 0.0 {
                let vu = v as usize;
                let th = if weighted {
                    new_graph.out_weight(v)
                } else {
                    f64::from(new_graph.kernel_degree(v))
                };
                self.theta[vu] = th;
                self.log_theta[vu] = th.max(1.0).ln();
                theta_changed.push(v);
            }
        }

        let Some(model) = self.model else {
            return Ok(self);
        };
        let (p, beta) = (model.p(), model.beta());
        if beta < 1.0 {
            for &w in &theta_changed {
                check_exponent(&model, w as usize, self.log_theta[w as usize])
                    .map_err(UpdateError::Solver)?;
            }
            // Degree term: destination factors at Θ-changed nodes, source
            // denominators at changed columns (delta sources plus the
            // in-neighbors of every Θ-changed node).
            for &w in &theta_changed {
                self.node_numer[w as usize] = (-p * self.log_theta[w as usize]).exp();
            }
            let mut col_mark = vec![false; n_new];
            let mut cols: Vec<u32> = Vec::new();
            let in_neighbors = theta_changed.iter().flat_map(|&w| self.csc.in_neighbors(w));
            for &i in source_changes.iter().map(|(v, _)| v).chain(in_neighbors) {
                if !std::mem::replace(&mut col_mark[i as usize], true) {
                    cols.push(i);
                }
            }
            for &i in &cols {
                self.inv_denom[i as usize] = inv_denom_at(new_graph, &self.node_numer, beta, i);
            }
        }
        if beta > 0.0 {
            // Connection term: `β/Θ_i` at every source whose out-arcs or
            // their weights changed.
            for (v, _) in theta_changes {
                let vu = v as usize;
                self.conn[vu] = conn_factor(beta, self.theta[vu], new_graph.out_degree(v));
            }
        }
        Ok(self)
    }
}

/// Fused pull-based PageRank engine over a borrowed graph. Every solve
/// runs on the calling thread.
///
/// ```
/// use d2pr_core::engine::Engine;
/// use d2pr_core::transition::TransitionModel;
/// use d2pr_graph::generators::barabasi_albert;
///
/// let g = barabasi_albert(200, 3, 7).unwrap();
/// let mut engine = Engine::new(&g);
/// let results = engine
///     .sweep(&[-1.0, 0.0, 1.0].map(|p| TransitionModel::DegreeDecoupled { p }), true)
///     .unwrap();
/// assert!(results.iter().all(|r| r.converged));
/// ```
#[derive(Debug)]
pub struct Engine<'g> {
    graph: &'g CsrGraph,
    /// The shared structural transpose. Many engines (and [`EngineState`]
    /// snapshots) may hold the same `Arc`: construction from a shared
    /// structure performs no `O(E)` work, and the CSC weights (the only
    /// lazily-built part) are filled once for every sharer.
    csc: Arc<CscStructure>,
    /// `dangling_mask[v]` ⇔ node `v` has no out-arcs.
    dangling_mask: Vec<bool>,
    /// Destination degree table (`deg`/`outdeg`, or Θ on weighted graphs).
    theta: Vec<f64>,
    /// `ln(max(Θ, 1))` per node, cached for the degree term.
    log_theta: Vec<f64>,
    /// Degree term, destination factor: `numer[j] = Θ_j^(−p)`.
    node_numer: Vec<f64>,
    /// Degree term, source factor: `inv_denom[i] = (1−β)/Σ_{t∈N(i)}
    /// Θ_t^(−p)` (0 for dangling `i`).
    inv_denom: Vec<f64>,
    /// Connection term, source factor: `conn[i] = β/Θ_i` (0 for dangling
    /// `i`).
    conn: Vec<f64>,
    /// Ping-pong pair of the iterate scaled by the source factors.
    scaled_a: Scaled,
    scaled_b: Scaled,
    config: PageRankConfig,
    model: Option<TransitionModel>,
    ws: Workspace,
}

impl<'g> Engine<'g> {
    /// Engine with the paper's default solver configuration.
    pub fn new(graph: &'g CsrGraph) -> Self {
        Self::from_parts(graph, Arc::new(CscStructure::build(graph)))
    }

    /// Equal to [`Engine::new`]: a solve runs on one thread, so `threads`
    /// is ignored. Kept only for the benchmark client; the next
    /// benchmark-only change removes it.
    #[deprecated(note = "a solve runs on one thread; use `Engine::new`")]
    pub fn with_threads(graph: &'g CsrGraph, threads: usize) -> Self {
        let _ = threads;
        Self::new(graph)
    }

    /// Engine over a prebuilt, possibly **shared** transpose structure.
    /// Many engines (multi-tenant serving, per-teleport engines over one
    /// graph) can hold the same `Arc<CscStructure>`: construction from it
    /// does no `O(E)` structure work — only the `O(V)` per-engine tables
    /// are derived. It is also the incremental-update entry point: after a
    /// delta batch, patch the previous engine's structure
    /// ([`CscStructure::patched`]) instead of paying a full transpose
    /// rebuild, then hand it to the new engine:
    ///
    /// ```
    /// use d2pr_core::engine::Engine;
    /// use d2pr_core::transition::TransitionModel;
    /// use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
    /// use d2pr_graph::generators::barabasi_albert;
    ///
    /// let g = barabasi_albert(300, 3, 11).unwrap();
    /// let mut engine = Engine::new(&g);
    /// engine.set_model(TransitionModel::DegreeDecoupled { p: 0.5 }).unwrap();
    /// let before = engine.solve().unwrap();
    ///
    /// // Apply a small edge-churn batch ...
    /// let mut dg = DeltaGraph::new(g.clone()).unwrap();
    /// let mut batch = EdgeBatch::new();
    /// batch.insert(0, 299).delete(0, g.neighbors(0)[0]);
    /// let outcome = dg.apply_batch(&batch).unwrap();
    /// let g2 = dg.graph();
    ///
    /// // ... patch the transpose and refresh incrementally: the auto mode
    /// // picks a residual-localized push for a batch this small.
    /// let csc2 = std::sync::Arc::new(engine.csc().patched(&g2, &outcome.delta).unwrap());
    /// let mut engine2 = Engine::with_structure(&g2, csc2).unwrap();
    /// engine2.set_model(TransitionModel::DegreeDecoupled { p: 0.5 }).unwrap();
    /// let after = engine2.resolve_incremental(&before.scores, &outcome.delta).unwrap();
    /// assert!(after.result.converged);
    /// ```
    ///
    /// # Errors
    /// Returns [`SolverError::StructureMismatch`] when `csc` does not
    /// describe `graph` (node or arc count differs).
    pub fn with_structure(
        graph: &'g CsrGraph,
        csc: Arc<CscStructure>,
    ) -> Result<Self, SolverError> {
        if csc.num_nodes() != graph.num_nodes() || csc.num_arcs() != graph.num_arcs() {
            return Err(SolverError::StructureMismatch {
                structure: (csc.num_nodes(), csc.num_arcs()),
                graph: (graph.num_nodes(), graph.num_arcs()),
            });
        }
        Ok(Self::from_parts(graph, csc))
    }

    /// Shared constructor body: derive every per-graph table from an
    /// already-built (or patched) transpose.
    fn from_parts(graph: &'g CsrGraph, csc: Arc<CscStructure>) -> Self {
        let mut dangling_mask = vec![false; graph.num_nodes()];
        for &v in csc.dangling() {
            dangling_mask[v as usize] = true;
        }
        let theta: Vec<f64> = if graph.is_weighted() {
            graph.nodes().map(|v| graph.out_weight(v)).collect()
        } else {
            graph
                .nodes()
                .map(|v| f64::from(graph.kernel_degree(v)))
                .collect()
        };
        let log_theta: Vec<f64> = theta.iter().map(|&t| t.max(1.0).ln()).collect();
        Self {
            graph,
            csc,
            dangling_mask,
            theta,
            log_theta,
            node_numer: Vec::new(),
            inv_denom: Vec::new(),
            conn: Vec::new(),
            scaled_a: Scaled::default(),
            scaled_b: Scaled::default(),
            config: PageRankConfig::default(),
            model: None,
            ws: Workspace::with_capacity(graph.num_nodes()),
        }
    }

    /// Replace the solver configuration.
    ///
    /// # Errors
    /// Returns [`SolverError::InvalidConfig`] when validation fails.
    pub fn set_config(&mut self, config: PageRankConfig) -> Result<(), SolverError> {
        config.validate().map_err(SolverError::InvalidConfig)?;
        self.config = config;
        Ok(())
    }

    /// Builder-style [`Engine::set_config`].
    ///
    /// # Errors
    /// Returns [`SolverError::InvalidConfig`] when validation fails.
    pub fn with_config(mut self, config: PageRankConfig) -> Result<Self, SolverError> {
        self.set_config(config)?;
        Ok(self)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PageRankConfig {
        &self.config
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// The transition model currently loaded, if any.
    pub fn model(&self) -> Option<TransitionModel> {
        self.model
    }

    /// The cached transpose structure (shared with diagnostics/tests).
    pub fn csc(&self) -> &CscStructure {
        &self.csc
    }

    /// The shared transpose structure (cheap `Arc` clone). Hand it to
    /// [`Engine::with_structure`] to build further engines over the same
    /// graph with zero `O(E)` structure work — they all read the one
    /// transpose (and the one copy of its CSC weights, filled at most
    /// once).
    pub fn shared_structure(&self) -> Arc<CscStructure> {
        Arc::clone(&self.csc)
    }

    /// Consume the engine, recovering its (shared) transpose structure.
    /// Serving loops use this between delta batches: the engine (which
    /// borrows the old snapshot) is dropped, the structure survives to be
    /// patched against the next snapshot ([`CscStructure::patched`])
    /// without a clone or a rebuild.
    pub fn into_structure(self) -> Arc<CscStructure> {
        self.csc
    }

    /// Consume the engine, recovering **all** graph-independent state —
    /// transpose, Θ/ln Θ tables, operator tables, workspace (including
    /// the residual-localized scratch) — for the serving-loop handoff:
    /// patch it against the next snapshot ([`EngineState::patched`]) and
    /// revive with [`Engine::from_state`], skipping every `O(E)` rebuild a
    /// fresh construction would pay. See [`EngineState`] for the loop.
    pub fn into_state(self) -> EngineState {
        EngineState {
            csc: self.csc,
            theta: self.theta,
            log_theta: self.log_theta,
            dangling_mask: self.dangling_mask,
            node_numer: self.node_numer,
            inv_denom: self.inv_denom,
            conn: self.conn,
            scaled_a: self.scaled_a,
            scaled_b: self.scaled_b,
            model: self.model,
            config: self.config,
            ws: self.ws,
        }
    }

    /// Revive an engine over `graph` from a (patched) [`EngineState`]:
    /// validates the carried structure against the graph and moves every
    /// table in. The carried operator tables are current for every model,
    /// so engine succession does no `O(V + E)` rebuild and no per-arc
    /// work at all.
    ///
    /// # Errors
    /// Returns [`SolverError::StructureMismatch`] when the carried state
    /// does not describe `graph`.
    pub fn from_state(graph: &'g CsrGraph, state: EngineState) -> Result<Self, SolverError> {
        let n = graph.num_nodes();
        if state.csc.num_nodes() != n
            || state.csc.num_arcs() != graph.num_arcs()
            || state.theta.len() != n
        {
            return Err(SolverError::StructureMismatch {
                structure: (state.csc.num_nodes(), state.csc.num_arcs()),
                graph: (n, graph.num_arcs()),
            });
        }
        Ok(Self {
            graph,
            csc: state.csc,
            dangling_mask: state.dangling_mask,
            theta: state.theta,
            log_theta: state.log_theta,
            node_numer: state.node_numer,
            inv_denom: state.inv_denom,
            conn: state.conn,
            scaled_a: state.scaled_a,
            scaled_b: state.scaled_b,
            config: state.config,
            model: state.model,
            ws: state.ws,
        })
    }

    /// Load a transition model: the **operator update**. One `exp` per
    /// node for the degree term's destination factors and one pass over
    /// the CSR arcs for its denominators and the connection term's source
    /// factors (module docs), entirely into preallocated buffers — zero
    /// heap allocations once the engine has processed its first model.
    /// The first `β > 0` model on a weighted graph also fills the
    /// structure's CSC weights ([`CscStructure::in_weights`]).
    ///
    /// The degree term evaluates `Θ^(−p)` directly, so `|p|·ln Θ` must stay
    /// inside `exp`'s safe range at every node: below 600, which covers the
    /// paper's `[−4, 4]` grid by orders of magnitude. The reference oracle
    /// ([`TransitionMatrix`](crate::transition::TransitionMatrix)) keeps its
    /// log-sum-exp evaluation for any `p`.
    ///
    /// # Errors
    /// Returns [`SolverError::InvalidModel`] when validation fails, or when
    /// `β < 1` and some node has `|p|·ln Θ ≥ 600` (the error names the
    /// node, `p` and the limit). The loaded operator is unchanged then.
    pub fn set_model(&mut self, model: TransitionModel) -> Result<(), SolverError> {
        model.validate().map_err(SolverError::InvalidModel)?;
        for (v, &l) in self.log_theta.iter().enumerate() {
            check_exponent(&model, v, l)?;
        }
        let n = self.graph.num_nodes();
        self.node_numer.resize(n, 0.0);
        self.inv_denom.resize(n, 0.0);
        self.conn.resize(n, 0.0);
        fill_tables(
            self.graph,
            &self.theta,
            &self.log_theta,
            model,
            &mut self.node_numer,
            &mut self.inv_denom,
            &mut self.conn,
        );
        if model.beta() > 0.0 {
            self.csc.in_weights(self.graph);
        }
        self.model = Some(model);
        Ok(())
    }

    /// Always empty: every model runs the factored operator, so the engine
    /// holds no per-arc probabilities.
    #[deprecated(note = "the engine holds no per-arc probabilities; always empty")]
    pub fn in_probs(&self) -> &[f64] {
        &[]
    }

    /// Solve for the loaded model with uniform teleportation.
    ///
    /// # Errors
    /// Fails when no model is loaded or inputs are invalid.
    pub fn solve(&mut self) -> Result<PageRankResult, SolverError> {
        self.solve_with_teleport(None)
    }

    /// Solve for the loaded model with an optional teleport distribution
    /// (normalized internally; `None` = uniform).
    ///
    /// # Errors
    /// Fails when no model is loaded or inputs are invalid.
    pub fn solve_with_teleport(
        &mut self,
        teleport: Option<&[f64]>,
    ) -> Result<PageRankResult, SolverError> {
        let model = self
            .model
            .ok_or_else(|| SolverError::InvalidModel("no transition model loaded".into()))?;
        let mut out = self.sweep_inner(&[model], teleport, false, None)?;
        Ok(out.pop().expect("one model yields one result"))
    }

    /// Convenience: `set_model` + `solve`.
    ///
    /// # Errors
    /// Propagates validation failures from either step.
    pub fn solve_model(&mut self, model: TransitionModel) -> Result<PageRankResult, SolverError> {
        self.set_model(model)?;
        self.solve()
    }

    /// Run a sweep: one solve per model, in order, on the calling thread,
    /// with uniform teleportation. The operator is rewritten in place
    /// between points and every buffer is reused. With `warm_start`, each
    /// point starts from the previous point's solution (same fixed points,
    /// fewer iterations when consecutive operators are close — the paper's
    /// 0.5-step grids are).
    ///
    /// # Errors
    /// Fails fast on the first invalid model; no solves run in that case.
    pub fn sweep(
        &mut self,
        models: &[TransitionModel],
        warm_start: bool,
    ) -> Result<Vec<PageRankResult>, SolverError> {
        self.sweep_inner(models, None, warm_start, None)
    }

    /// Re-solve after an incremental graph update with a warm-started
    /// **full sweep**: seed the power iteration with the previous rank
    /// vector instead of the teleport distribution.
    ///
    /// The fixed point is independent of the seed (the iteration is a
    /// contraction), so the result matches a cold solve to solver
    /// tolerance — only the iteration count changes, in proportion to how
    /// little the batch perturbed the ranks. The iteration saving is
    /// information-bounded (DESIGN.md, "Warm-start convergence contract");
    /// for small batches prefer [`Engine::resolve_incremental`], which
    /// escapes the bound by pushing the residual locally. `previous` is
    /// normalized internally; it must cover every node and carry positive
    /// mass.
    ///
    /// This entry point serves **uniform-teleport** ranks (it resets any
    /// previously set teleport); personalized serving refreshes through
    /// [`Engine::resolve_incremental_tracked`], which takes the teleport.
    ///
    /// # Errors
    /// Returns [`UpdateError::Solver`] when no model is loaded, the config
    /// is invalid, or `previous` has the wrong length
    /// ([`SolverError::WarmStartLength`]) or no usable mass
    /// ([`SolverError::WarmStartMass`]).
    pub fn resolve_warm(&mut self, previous: &[f64]) -> Result<PageRankResult, UpdateError> {
        self.warm_sweep(previous, None)
    }

    /// [`Engine::resolve_warm`] with an explicit teleport distribution
    /// (normalized internally; `None` = uniform). Callers pass the teleport
    /// the previous solve used; otherwise the re-solve converges to a
    /// different fixed point than the one being served.
    fn warm_sweep(
        &mut self,
        previous: &[f64],
        teleport: Option<&[f64]>,
    ) -> Result<PageRankResult, UpdateError> {
        let model = self
            .model
            .ok_or_else(|| SolverError::InvalidModel("no transition model loaded".into()))
            .map_err(UpdateError::Solver)?;
        let n = self.graph.num_nodes();
        if previous.len() != n {
            return Err(UpdateError::Solver(SolverError::WarmStartLength {
                got: previous.len(),
                expected: n,
            }));
        }
        let mut out = self
            .sweep_inner(&[model], teleport, false, Some(previous))
            .map_err(UpdateError::Solver)?;
        Ok(out.pop().expect("one model yields one result"))
    }

    /// Re-solve after an incremental graph update, **auto-selecting** the
    /// refresh strategy from the batch: a residual-localized push
    /// ([`Engine::resolve_localized`]) when the delta's footprint is small
    /// relative to the graph, a warm full sweep ([`Engine::resolve_warm`])
    /// when bulk churn would make localization pointless. This is the
    /// recommended serving entry point for evolving graphs.
    ///
    /// The heuristic: localized solving costs work proportional to the
    /// frontier (the in/out arcs of the delta's endpoints and their
    /// neighborhoods), a sweep costs `O(E)` per iteration — so the push
    /// path is chosen when the summed endpoint degree stays below
    /// `num_nodes / 8`, which keeps its setup well under one sweep
    /// iteration even after the one-hop expansion. Regardless of the
    /// estimate, the localized attempt carries a hard work budget and
    /// falls back to the warm sweep if locality is lost mid-push.
    ///
    /// `delta` must be the effective [`ArcDelta`] separating the graph
    /// `previous` was solved on from this engine's graph (the value
    /// [`DeltaGraph::apply_batch`](d2pr_graph::delta::DeltaGraph::apply_batch)
    /// reports and [`CscStructure::patched`] consumes); it is validated
    /// against the graph before any state changes.
    ///
    /// See [`Engine::with_structure`] for a complete worked example.
    ///
    /// # Errors
    /// As [`Engine::resolve_warm`], plus [`UpdateError::Graph`] when the
    /// delta does not describe this engine's graph.
    pub fn resolve_incremental(
        &mut self,
        previous: &[f64],
        delta: &ArcDelta,
    ) -> Result<IncrementalOutcome, UpdateError> {
        self.resolve_inner(previous, None, delta, false, None, None)
    }

    /// [`Engine::resolve_incremental`] for the serving layer: an explicit
    /// teleport distribution (normalized internally; `None` = uniform),
    /// zero-copy score delivery and the repair frontier.
    ///
    /// * The refreshed scores land in `out` instead of an owned
    ///   allocation. On the localized path the push writes the workspace's
    ///   rank buffer and this entry point *swaps* that buffer with `out`
    ///   (`out`'s previous allocation becomes the next solve's scratch);
    ///   the sweep paths move their already-owned result vector. Either
    ///   way the returned [`IncrementalOutcome`]'s `result.scores` is left
    ///   **empty** — the scores live in `out`, whose previous contents are
    ///   discarded.
    /// * `touched` reports *which* nodes the refresh may have moved (beyond
    ///   the uniform rescale) — see [`TouchedSet`] for the exact contract.
    ///   A localized push yields the exact written-node set, every sweep
    ///   path conservatively reports `all`. The top-k index of
    ///   [`ServingEngine`](crate::serving::ServingEngine) repairs from it.
    ///
    /// # Errors
    /// As [`Engine::resolve_incremental`].
    pub fn resolve_incremental_tracked(
        &mut self,
        previous: &[f64],
        teleport: Option<&[f64]>,
        delta: &ArcDelta,
        out: &mut Vec<f64>,
        touched: &mut TouchedSet,
    ) -> Result<IncrementalOutcome, UpdateError> {
        self.resolve_inner(previous, teleport, delta, false, Some(out), Some(touched))
    }

    /// Re-solve after an incremental graph update with the
    /// **residual-localized** solver: compute the exact warm-start residual
    /// on the frontier the delta touched and push it through the loaded
    /// operator until the global L1 residual bound implies the configured
    /// tolerance — work proportional to the perturbation's footprint, not
    /// the graph (see [`crate::residual`] for the math and `DESIGN.md`,
    /// "Residual-localized refresh", for the work bound).
    ///
    /// The result matches a cold solve of the same engine to solver
    /// tolerance, on graphs of every size. Two situations route to a
    /// fallback (reported in the returned [`IncrementalOutcome::mode`]):
    ///
    /// * [`DanglingPolicy::Renormalize`] with dangling nodes present (a
    ///   non-affine update) and node-churn batches (which shift the
    ///   teleport vector itself) run the warm sweep;
    /// * a localized attempt that exceeds its work budget (locality lost)
    ///   hands its tail to the sweep finisher
    ///   ([`ResolveMode::HybridPushSweep`]).
    ///
    /// # Errors
    /// As [`Engine::resolve_incremental`].
    pub fn resolve_localized(
        &mut self,
        previous: &[f64],
        delta: &ArcDelta,
    ) -> Result<IncrementalOutcome, UpdateError> {
        self.resolve_inner(previous, None, delta, true, None, None)
    }

    /// Whether the localized solver can serve the current configuration.
    /// Node churn changes the teleport vector itself (uniform `1/n`
    /// shifts on growth, removed nodes' explicit mass vanishes), a global
    /// unseedable residual — those batches take the warm sweep. Weighted
    /// edge-only batches stay localized: the delta carries pre-batch
    /// weights, so old operator columns reconstruct exactly.
    /// `Renormalize` is non-affine once dangling nodes exist — in the
    /// post-batch graph *or* the pre-batch one (a batch that heals the
    /// last dangling node leaves `previous` at a projective fixed point,
    /// `σ ≠ 1`, whose residual `(σ−1)·x̂` is global and unseedable).
    fn localized_supported(&self, delta: &ArcDelta) -> bool {
        if delta.added_nodes() > 0 || !delta.removed_nodes.is_empty() {
            return false;
        }
        if self.config.dangling != crate::pagerank::DanglingPolicy::Renormalize {
            return true;
        }
        self.csc.dangling().is_empty()
            && delta
                .source_degree_changes()
                .iter()
                .all(|&(v, net)| i64::from(self.graph.out_degree(v)) - net > 0)
    }

    /// `O(Δ)` proxy for the localized solve's footprint: summed in+out
    /// degree over the delta's endpoints.
    fn frontier_estimate(&self, delta: &ArcDelta) -> usize {
        let in_offsets = self.csc.in_offsets();
        delta
            .touched_nodes()
            .iter()
            .map(|&v| {
                let v = v as usize;
                self.graph.out_degree(v as u32) as usize + (in_offsets[v + 1] - in_offsets[v])
            })
            .sum()
    }

    /// Validate that `delta` actually separates some predecessor graph
    /// from this engine's graph: inserted and re-weighted arcs must be
    /// present, deleted arcs absent, all endpoints in range, weight
    /// side-tables parallel to their arc lists, and the node-count
    /// bookkeeping consistent with this (post-batch) graph.
    fn validate_delta(&self, delta: &ArcDelta) -> Result<(), UpdateError> {
        let n = self.graph.num_nodes() as u32;
        for &(s, t) in delta.inserted.iter().chain(&delta.deleted) {
            if s >= n || t >= n {
                return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                    "resolve: delta arc {s} -> {t} is out of range for {n} nodes"
                ))));
            }
        }
        if delta.inserted_weights.len() != delta.inserted.len()
            || delta.deleted_weights.len() != delta.deleted.len()
        {
            return Err(UpdateError::Graph(GraphError::Snapshot(
                "resolve: delta weight tables are not parallel to the arc lists".into(),
            )));
        }
        if (delta.added_nodes() > 0 || !delta.removed_nodes.is_empty()) && delta.nodes_after != n {
            return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                "resolve: delta reports {} post-batch nodes but the graph has {n}",
                delta.nodes_after
            ))));
        }
        for &(s, t, _, _) in &delta.reweighted {
            if s >= n || t >= n {
                return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                    "resolve: re-weighted arc {s} -> {t} is out of range for {n} nodes"
                ))));
            }
            if !self.graph.has_arc(s, t) {
                return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                    "resolve: re-weighted arc {s} -> {t} is missing from the engine's graph"
                ))));
            }
        }
        for &v in &delta.removed_nodes {
            if v >= n {
                return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                    "resolve: removed node {v} is out of range for {n} nodes"
                ))));
            }
        }
        for &(s, t) in &delta.inserted {
            if !self.graph.has_arc(s, t) {
                return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                    "resolve: inserted arc {s} -> {t} is missing from the engine's graph"
                ))));
            }
        }
        for &(s, t) in &delta.deleted {
            if self.graph.has_arc(s, t) {
                return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                    "resolve: deleted arc {s} -> {t} is still present in the engine's graph"
                ))));
            }
        }
        Ok(())
    }

    /// Shared driver of the incremental entry points; `force_localized`
    /// skips the frontier-size heuristic (explicit
    /// [`Engine::resolve_localized`] calls); `out`, when given, receives
    /// the refreshed scores by swap/move and `result.scores` stays empty
    /// (see [`Engine::resolve_incremental_tracked`]).
    fn resolve_inner(
        &mut self,
        previous: &[f64],
        teleport: Option<&[f64]>,
        delta: &ArcDelta,
        force_localized: bool,
        mut out: Option<&mut Vec<f64>>,
        mut touched_out: Option<&mut TouchedSet>,
    ) -> Result<IncrementalOutcome, UpdateError> {
        self.model
            .ok_or_else(|| SolverError::InvalidModel("no transition model loaded".into()))
            .map_err(UpdateError::Solver)?;
        self.config
            .validate()
            .map_err(|e| UpdateError::Solver(SolverError::InvalidConfig(e)))?;
        let n = self.graph.num_nodes();
        // Node-growth batches: the caller's warm start predates the new
        // ids — extend it with zero mass (a fresh node starts unranked;
        // the sweep redistributes immediately). Anything else is a
        // genuine length mismatch.
        let added = delta.added_nodes() as usize;
        let grown_previous: Vec<f64>;
        let previous = if added > 0 && previous.len() + added == n {
            grown_previous = previous
                .iter()
                .copied()
                .chain(std::iter::repeat_n(0.0, added))
                .collect();
            &grown_previous[..]
        } else {
            previous
        };
        // Same for an explicit teleport vector: new ids get zero teleport
        // mass, preserving the caller's personalization over the old ids.
        let grown_teleport: Vec<f64>;
        let teleport = match teleport {
            Some(t) if added > 0 && t.len() + added == n => {
                grown_teleport = t
                    .iter()
                    .copied()
                    .chain(std::iter::repeat_n(0.0, added))
                    .collect();
                Some(&grown_teleport[..])
            }
            other => other,
        };
        if previous.len() != n {
            return Err(UpdateError::Solver(SolverError::WarmStartLength {
                got: previous.len(),
                expected: n,
            }));
        }
        self.validate_delta(delta)?;
        if n == 0 {
            if let Some(o) = out {
                o.clear();
            }
            if let Some(t) = touched_out {
                t.nodes.clear();
                t.all = false;
            }
            return Ok(IncrementalOutcome {
                result: PageRankResult {
                    scores: vec![],
                    iterations: 0,
                    residual: 0.0,
                    converged: true,
                },
                mode: ResolveMode::LocalizedPush,
                frontier: 0,
                pushes: 0,
            });
        }
        let choose_localized = self.localized_supported(delta)
            && (force_localized || self.frontier_estimate(delta) <= n / 8);
        if !choose_localized {
            if let Some(t) = touched_out.as_deref_mut() {
                t.mark_all();
            }
            return self.warm_outcome(previous, teleport, out);
        }

        self.ws
            .set_teleport(n, teleport)
            .map_err(UpdateError::Solver)?;
        self.ws
            .init_rank(n, Some(previous))
            .map_err(UpdateError::Solver)?;

        let model = self.model.expect("checked above");
        let op = FactoredOp {
            numer: &self.node_numer,
            inv_denom: &self.inv_denom,
            conn: &self.conn,
            theta: &self.theta,
            beta: model.beta(),
        };
        let params = LocalizedParams {
            alpha: self.config.alpha,
            p: model.p(),
            policy: self.config.dangling,
            tolerance: self.config.tolerance,
            // Pushing beats sweeping while the residual is concentrated;
            // past ~half a sweep's worth of arc traversals the remaining
            // mass is a graph-wide tail that the extrapolated sweep
            // finisher handles in fewer wall-clock milliseconds per decade
            // (sequential access, no queue bookkeeping).
            work_budget: (self.graph.num_arcs() / 2).max(1 << 16),
        };
        let Workspace { rank, residual, .. } = &mut self.ws;
        let touched_sink = match touched_out.as_deref_mut() {
            Some(t) => {
                t.all = false;
                Some(&mut t.nodes)
            }
            None => None,
        };
        let stats = crate::residual::solve_localized(
            self.graph,
            &self.csc,
            &self.dangling_mask,
            &op,
            &params,
            delta,
            rank,
            residual,
            touched_sink,
        );
        if stats.converged {
            // Final normalization to the simplex: realizes the closed-form
            // dangling rescale and pins the sum exactly.
            let total: f64 = rank.iter().sum();
            if total > 0.0 {
                for r in rank.iter_mut() {
                    *r /= total;
                }
            }
            // Publication path: swap the refreshed iterate straight into
            // the caller's buffer — the workspace inherits the retired
            // allocation as next solve's scratch, no element is copied.
            let scores = match out.take() {
                Some(o) => {
                    std::mem::swap(o, rank);
                    Vec::new()
                }
                None => rank.clone(),
            };
            return Ok(IncrementalOutcome {
                result: PageRankResult {
                    scores,
                    iterations: stats.pushes,
                    residual: stats.residual_mass,
                    converged: true,
                },
                mode: ResolveMode::LocalizedPush,
                frontier: stats.frontier_nodes,
                pushes: stats.pushes,
            });
        }
        // Hybrid finisher: the push kept all its progress in `rank`
        // (usually several decades below the warm start's residual);
        // polish with the extrapolated sweep from there. Signed pushes can
        // leave tolerance-scale negative dips on near-zero ranks; clamp —
        // the sweep converges to the fixed point from any seed. The sweep
        // rewrites every node, so the tracked frontier degrades to "all".
        if let Some(t) = touched_out {
            t.mark_all();
        }
        let seed: Vec<f64> = rank.iter().map(|&x| x.max(0.0)).collect();
        let mut sweep_out = self
            .sweep_inner(&[model], teleport, false, Some(&seed))
            .map_err(UpdateError::Solver)?;
        let mut result = sweep_out.pop().expect("one model yields one result");
        deliver_scores(&mut result, out);
        Ok(IncrementalOutcome {
            result,
            mode: ResolveMode::HybridPushSweep,
            frontier: stats.frontier_nodes,
            pushes: stats.pushes,
        })
    }

    /// Warm-sweep fallback shared by the incremental entry points.
    fn warm_outcome(
        &mut self,
        previous: &[f64],
        teleport: Option<&[f64]>,
        out: Option<&mut Vec<f64>>,
    ) -> Result<IncrementalOutcome, UpdateError> {
        let mut result = self.warm_sweep(previous, teleport)?;
        deliver_scores(&mut result, out);
        Ok(IncrementalOutcome {
            result,
            mode: ResolveMode::WarmSweep,
            frontier: 0,
            pushes: 0,
        })
    }

    /// The one sweep driver behind every solve entry point, run on the
    /// calling thread; `init` seeds the *first* grid point's iterate (the
    /// warm-start path of [`Engine::resolve_incremental`]).
    fn sweep_inner(
        &mut self,
        models: &[TransitionModel],
        teleport: Option<&[f64]>,
        warm_start: bool,
        init: Option<&[f64]>,
    ) -> Result<Vec<PageRankResult>, SolverError> {
        self.config.validate().map_err(SolverError::InvalidConfig)?;
        for model in models {
            model.validate().map_err(SolverError::InvalidModel)?;
            for (v, &l) in self.log_theta.iter().enumerate() {
                check_exponent(model, v, l)?;
            }
        }
        let n = self.graph.num_nodes();
        if models.is_empty() {
            return Ok(Vec::new());
        }
        if n == 0 {
            return Ok(models
                .iter()
                .map(|_| PageRankResult {
                    scores: vec![],
                    iterations: 0,
                    residual: 0.0,
                    converged: true,
                })
                .collect());
        }
        self.ws.set_teleport(n, teleport)?;
        let mut results = Vec::with_capacity(models.len());
        for (pi, &model) in models.iter().enumerate() {
            // `solve_model`/`solve` arrive here with the operator already
            // loaded by `set_model`; don't rebuild it.
            if self.model != Some(model) {
                self.set_model(model)?;
            }
            if pi == 0 {
                self.ws.init_rank(n, init)?;
            } else if !warm_start {
                self.ws.init_rank(n, None)?;
            }
            let topo = PullTopo {
                in_offsets: self.csc.in_offsets(),
                narrow_in_offsets: self.csc.narrow_in_offsets(),
                in_sources: self.csc.in_sources(),
                in_weights: (model.beta() > 0.0)
                    .then(|| self.csc.in_weights(self.graph))
                    .flatten(),
                dangling_mask: &self.dangling_mask,
                dangling_nodes: self.csc.dangling(),
            };
            let op = FactoredOp {
                numer: &self.node_numer,
                inv_denom: &self.inv_denom,
                conn: &self.conn,
                theta: &self.theta,
                beta: model.beta(),
            };
            let (iterations, residual) = drive_serial(
                &topo,
                &op,
                &self.config,
                &mut self.ws.rank,
                &mut self.ws.next,
                (&mut self.scaled_a, &mut self.scaled_b),
                &self.ws.teleport,
            );
            results.push(PageRankResult {
                scores: self.ws.rank.clone(),
                iterations,
                residual,
                converged: residual < self.config.tolerance,
            });
        }
        Ok(results)
    }
}

// ---------------------------------------------------------------------------
// Pull-kernel machinery
// ---------------------------------------------------------------------------

/// Immutable topology handed to the pull kernel.
#[derive(Debug, Clone, Copy)]
struct PullTopo<'a> {
    /// CSC offsets (`n + 1` entries).
    in_offsets: &'a [usize],
    /// Narrowed (`u32`) copy of the offsets when the arc count fits —
    /// halves the index bytes streamed per row (see
    /// `d2pr_graph::permute::narrow_offsets`). `None` keeps the wide path.
    narrow_in_offsets: Option<&'a [u32]>,
    /// CSC sources.
    in_sources: &'a [u32],
    /// Arc weights parallel to `in_sources`, read by the connection term;
    /// `None` on unweighted graphs (or when no solve runs that term).
    in_weights: Option<&'a [f64]>,
    /// `dangling_mask[v]` ⇔ `v` has no out-arcs.
    dangling_mask: &'a [bool],
    /// Dangling node list (ascending).
    dangling_nodes: &'a [u32],
}

impl PullTopo<'_> {
    /// In-arc span of destination `j`, read from the narrow offsets when
    /// available (one well-predicted branch per row).
    #[inline(always)]
    fn span(&self, j: usize) -> (usize, usize) {
        match self.narrow_in_offsets {
            Some(o) => (o[j] as usize, o[j + 1] as usize),
            None => (self.in_offsets[j], self.in_offsets[j + 1]),
        }
    }
}

fn mass_at(nodes: &[u32], values: &[f64]) -> f64 {
    nodes.iter().map(|&v| values[v as usize]).sum()
}

/// Deliver a solve's scores into the caller's buffer (a move of the
/// already-owned vector — no elements are copied), leaving
/// `result.scores` empty. No-op without a buffer.
fn deliver_scores(result: &mut PageRankResult, out: Option<&mut Vec<f64>>) {
    if let Some(o) = out {
        *o = std::mem::take(&mut result.scores);
    }
}

/// `|p|·ln Θ` at which the degree term's `Θ^(−p)` leaves `exp`'s safe
/// range (`e^±709` overflows or vanishes, and neighborhood sums of such
/// factors with it).
const EXPONENT_LIMIT: f64 = 600.0;

/// Check that `model`'s degree term can evaluate `Θ^(−p)` at a node whose
/// `ln(max(Θ, 1))` is `log_theta`. Only `β < 1` runs the degree term.
pub(crate) fn check_exponent(
    model: &TransitionModel,
    node: usize,
    log_theta: f64,
) -> Result<(), SolverError> {
    let p = model.p();
    if model.beta() < 1.0 && p.abs() * log_theta >= EXPONENT_LIMIT {
        return Err(SolverError::InvalidModel(format!(
            "p = {p} puts node {node} past the exponent range: \
             |p|·ln Θ = {:.1} ≥ {EXPONENT_LIMIT}",
            p.abs() * log_theta
        )));
    }
    Ok(())
}

/// Connection-term source factor `β/Θ_i` of a source with out-degree
/// `outdeg`. A source whose weights sum to 0 falls back to uniform,
/// `β/outdeg` with every arc weighing 1 (as
/// [`CscStructure::in_weights`] stores it); a dangling source gets 0.
pub(crate) fn conn_factor(beta: f64, theta: f64, outdeg: u32) -> f64 {
    if outdeg == 0 {
        0.0
    } else if theta > 0.0 {
        beta / theta
    } else {
        beta / f64::from(outdeg)
    }
}

/// Write the operator tables of `model` into pre-sized per-node buffers
/// (module docs): the degree term's `numer`/`inv_denom` when `β < 1`, the
/// connection term's `conn` when `β > 0`. A table whose term does not run
/// keeps its old values. Allocation-free.
fn fill_tables(
    graph: &CsrGraph,
    theta: &[f64],
    log_theta: &[f64],
    model: TransitionModel,
    numer: &mut [f64],
    inv_denom: &mut [f64],
    conn: &mut [f64],
) {
    let (p, beta) = (model.p(), model.beta());
    if beta < 1.0 {
        for (o, &l) in numer.iter_mut().zip(log_theta) {
            *o = (-p * l).exp();
        }
        for (v, slot) in inv_denom.iter_mut().enumerate() {
            *slot = inv_denom_at(graph, numer, beta, v as u32);
        }
    }
    if beta > 0.0 {
        for (v, slot) in conn.iter_mut().enumerate() {
            *slot = conn_factor(beta, theta[v], graph.out_degree(v as u32));
        }
    }
}

/// Degree-term source factor `(1−β)/Σ_{t∈N(i)} numer[t]`, 0 for a dangling
/// `i` (which appears in no in-arc list).
fn inv_denom_at(graph: &CsrGraph, numer: &[f64], beta: f64, i: u32) -> f64 {
    let targets = graph.neighbors(i);
    if targets.is_empty() {
        return 0.0;
    }
    let mut denom = 0.0;
    for &t in targets {
        denom += numer[t as usize];
    }
    (1.0 - beta) / denom
}

/// The operator a solve runs against:
/// `T[j,i] = numer[j]·inv_denom[i] + w(i→j)·conn[i]` (module docs). The
/// degree term runs iff `β < 1`, the connection term iff `β > 0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FactoredOp<'a> {
    /// Degree term, destination factors `Θ_j^(−p)`.
    pub(crate) numer: &'a [f64],
    /// Degree term, source factors `(1−β)/Σ_{t∈N(i)} Θ_t^(−p)`.
    pub(crate) inv_denom: &'a [f64],
    /// Connection term, source factors `β/Θ_i`.
    pub(crate) conn: &'a [f64],
    /// The `Θ` table: a weighted source with `Θ_i = 0` weighs each arc 1.
    pub(crate) theta: &'a [f64],
    /// Blend weight of the loaded model.
    pub(crate) beta: f64,
}

impl FactoredOp<'_> {
    pub(crate) fn degree_term(&self) -> bool {
        self.beta < 1.0
    }

    pub(crate) fn conn_term(&self) -> bool {
        self.beta > 0.0
    }

    /// Push-side view of column `i`: calls `f(j, scale·T[j,i])` for every
    /// out-arc `i → j` in CSR order, with the connection term's weights
    /// read from the graph.
    #[inline]
    pub(crate) fn scatter(
        &self,
        graph: &CsrGraph,
        i: usize,
        scale: f64,
        mut f: impl FnMut(usize, f64),
    ) {
        let targets = graph.neighbors(i as u32);
        let dec = scale * self.inv_denom[i];
        if !self.conn_term() {
            for &j in targets {
                f(j as usize, dec * self.numer[j as usize]);
            }
            return;
        }
        let conn = scale * self.conn[i];
        let weights = graph
            .neighbor_weights(i as u32)
            .filter(|_| self.theta[i] > 0.0);
        for (k, &j) in targets.iter().enumerate() {
            let mut c = conn * weights.map_or(1.0, |w| w[k]);
            if self.degree_term() {
                c += dec * self.numer[j as usize];
            }
            f(j as usize, c);
        }
    }
}

/// An iterate scaled by the operator's source factors — `dec[i] =
/// x_i·inv_denom[i]` and `conn[i] = x_i·conn[i]` — so a pull gathers one
/// value per arc and term. The vector of a term that does not run stays
/// empty.
#[derive(Debug, Clone, Default)]
struct Scaled {
    dec: Vec<f64>,
    conn: Vec<f64>,
}

impl Scaled {
    /// Rebuild from `rank` for the terms `op` runs.
    fn scale(&mut self, op: &FactoredOp<'_>, rank: &[f64]) {
        let n = rank.len();
        self.dec.resize(if op.degree_term() { n } else { 0 }, 0.0);
        self.conn.resize(if op.conn_term() { n } else { 0 }, 0.0);
        for ((o, &r), &d) in self.dec.iter_mut().zip(rank).zip(op.inv_denom) {
            *o = r * d;
        }
        for ((o, &r), &c) in self.conn.iter_mut().zip(rank).zip(op.conn) {
            *o = r * c;
        }
    }
}

/// Per-iteration parameters of the pull.
#[derive(Debug, Clone, Copy)]
struct PullParams {
    alpha: f64,
    uniform: f64,
    policy: DanglingPolicy,
    dangling_mass: f64,
}

/// Aggregates one pull reports over the whole iterate.
#[derive(Debug, Clone, Copy, Default)]
struct PullOut {
    residual: f64,
    dangling_next: f64,
    sum_next: f64,
    /// `⟨x_{k+1}−x_k, x_k−x_{k−1}⟩` — numerator of the signed step ratio.
    dot_dd: f64,
    /// `‖x_k−x_{k−1}‖²` — denominator of the signed step ratio.
    dot_oo: f64,
}

/// The pull kernel: `next[j] = (1−α)·t_j + policy-term + α·Σ_{i→j}
/// T[j,i]·rank[i]` for every destination `j`, gathered per term from the
/// scaled iterate (`α·numer[j]·Σ dec[i]` plus `α·Σ w(i→j)·conn[i]`), with
/// the scaled `next_dec`/`next_conn` written alongside. For
/// `Renormalize`, the residual is computed later by [`renormalize`].
///
/// The terms that run are picked here, once per call: each combination
/// is its own monomorphized loop, so `β = 0` runs exactly the plain
/// degree-term loop and `β = 1` only the connection gather.
#[allow(clippy::too_many_arguments)]
#[inline]
fn pull(
    topo: &PullTopo<'_>,
    op: &FactoredOp<'_>,
    teleport: Option<&[f64]>,
    rank: &[f64],
    scaled: (&[f64], &[f64]),
    next: &mut [f64],
    next_scaled: (&mut [f64], &mut [f64]),
    params: &PullParams,
) -> PullOut {
    let args = (topo, op, teleport, rank, scaled, next, next_scaled, params);
    match (op.degree_term(), op.conn_term(), topo.in_weights.is_some()) {
        (true, false, _) => pull_terms::<true, false, false>(args),
        (false, true, false) => pull_terms::<false, true, false>(args),
        (false, true, true) => pull_terms::<false, true, true>(args),
        (true, true, false) => pull_terms::<true, true, false>(args),
        (true, true, true) => pull_terms::<true, true, true>(args),
        (false, false, _) => unreachable!("β ∈ [0, 1] runs at least one term"),
    }
}

/// Arguments of [`pull`], forwarded as one tuple.
type PullArgs<'a, 'b> = (
    &'b PullTopo<'a>,
    &'b FactoredOp<'a>,
    Option<&'b [f64]>,
    &'b [f64],
    (&'b [f64], &'b [f64]),
    &'b mut [f64],
    (&'b mut [f64], &'b mut [f64]),
    &'b PullParams,
);

/// `α·Σ_{i→j} T[j,i]·rank[i]` for destination `j`, over the terms `D`
/// (degree) and `C` (connection, arc-weighted when `W`).
#[inline(always)]
fn row_sum<const D: bool, const C: bool, const W: bool>(
    topo: &PullTopo<'_>,
    op: &FactoredOp<'_>,
    scaled: (&[f64], &[f64]),
    alpha: f64,
    j: usize,
) -> f64 {
    let (s, e) = topo.span(j);
    let srcs = &topo.in_sources[s..e];
    let mut sum = 0.0;
    if D {
        sum = alpha * op.numer[j] * gather_plain(srcs, scaled.0);
    }
    if C {
        let g = match topo.in_weights {
            Some(w) if W => gather_weighted(srcs, &w[s..e], scaled.1),
            _ => gather_plain(srcs, scaled.1),
        };
        sum += alpha * g;
    }
    sum
}

/// The body of [`pull`] for one combination of terms. The fast path `P`
/// is picked here, once per call too: no dangling nodes (every policy
/// degenerates to the plain update) and uniform teleportation, so the base
/// term is one constant for the whole iteration and all per-destination
/// policy bookkeeping disappears.
#[inline]
fn pull_terms<const D: bool, const C: bool, const W: bool>(args: PullArgs<'_, '_>) -> PullOut {
    let (topo, _, teleport, .., params) = &args;
    if topo.dangling_nodes.is_empty()
        && teleport.is_none()
        && params.policy != DanglingPolicy::Renormalize
    {
        pull_loop::<D, C, W, true>(args)
    } else {
        pull_loop::<D, C, W, false>(args)
    }
}

/// The row loop of [`pull_terms`].
#[inline]
fn pull_loop<const D: bool, const C: bool, const W: bool, const P: bool>(
    args: PullArgs<'_, '_>,
) -> PullOut {
    let (topo, op, teleport, rank, scaled, next, (next_dec, next_conn), params) = args;
    let alpha = params.alpha;
    // The teleport coefficient is constant across the range: `(1−α)` plus,
    // under RedistributeTeleport, the dangling mass folded in.
    let tele_coef = match params.policy {
        DanglingPolicy::RedistributeTeleport => (1.0 - alpha) + alpha * params.dangling_mass,
        DanglingPolicy::SelfLoop | DanglingPolicy::Renormalize => 1.0 - alpha,
    };
    let plain_base = tele_coef * params.uniform;
    let self_loop = params.policy == DanglingPolicy::SelfLoop;
    let mut out = PullOut::default();
    for j in 0..rank.len() {
        let base = if P {
            plain_base
        } else {
            let mut base = tele_coef * teleport.map_or(params.uniform, |t| t[j]);
            if self_loop && topo.dangling_mask[j] {
                base += alpha * rank[j];
            }
            base
        };
        let val = base + row_sum::<D, C, W>(topo, op, scaled, alpha, j);
        if D {
            next_dec[j] = val * op.inv_denom[j];
        }
        if C {
            next_conn[j] = val * op.conn[j];
        }
        // The write buffer still holds x_{k−1}: accumulate the step dot
        // products the extrapolation uses to estimate the *signed*
        // contraction ratio (the residual alone cannot see oscillation).
        let d_old = rank[j] - next[j];
        let d_new = val - rank[j];
        out.dot_dd += d_new * d_old;
        out.dot_oo += d_old * d_old;
        out.residual += d_new.abs();
        if !P {
            out.sum_next += val;
            if topo.dangling_mask[j] {
                out.dangling_next += val;
            }
        }
        next[j] = val;
    }
    out
}

/// Renormalize phase for [`DanglingPolicy::Renormalize`]: scale the new
/// iterate by `inv_total` and return the residual against the (already
/// normalized) previous iterate. The scaled copies (empty for a term that
/// does not run) are kept proportional.
#[inline]
fn renormalize(
    rank: &[f64],
    next: &mut [f64],
    next_scaled: (&mut [f64], &mut [f64]),
    inv_total: f64,
) -> f64 {
    for x in next_scaled.0.iter_mut().chain(next_scaled.1.iter_mut()) {
        *x *= inv_total;
    }
    let mut residual = 0.0;
    for (x, &r) in next.iter_mut().zip(rank) {
        *x *= inv_total;
        residual += (*x - r).abs();
    }
    residual
}

/// Aitken-style acceleration: when two successive *signed* step ratios
/// `q = ⟨d_{k+1}, d_k⟩/‖d_k‖²` agree (stable geometric decay along one
/// dominant mode, possibly with negative eigenvalue), the remaining error
/// is approximately `d·(q + q² + …) = d·q/(1−q)` along the last step `d` —
/// jump there at once. The power iteration is an affine contraction, so it
/// converges from *any* iterate; a jump can only change how fast the
/// residual-based stop criterion is reached, never where the fixed point
/// is. `Renormalize` makes the iteration non-affine, so callers skip
/// extrapolation for it.
fn extrapolation_factor(prev_q: f64, q: f64) -> Option<f64> {
    let magnitude_ok = q.abs() > 0.05 && q.abs() < 0.95;
    let stable = prev_q.is_finite()
        && prev_q != 0.0
        && q.signum() == prev_q.signum()
        && (q / prev_q - 1.0).abs() < 0.1;
    if magnitude_ok && stable {
        Some(q / (1.0 - q))
    } else {
        None
    }
}

/// Iterations to wait after an extrapolation jump before trusting the
/// residual ratio again.
const EXTRAPOLATION_COOLDOWN: usize = 3;

/// Serial iteration loop over plain buffers. `rank` must hold the initial
/// iterate; on return it holds the final scores. `scaled` is the reusable
/// ping-pong pair of scaled iterates. Returns `(iterations, residual)`.
fn drive_serial(
    topo: &PullTopo<'_>,
    op: &FactoredOp<'_>,
    config: &PageRankConfig,
    rank: &mut Vec<f64>,
    next: &mut Vec<f64>,
    scaled: (&mut Scaled, &mut Scaled),
    teleport: &[f64],
) -> (usize, f64) {
    let n = rank.len();
    let uniform = 1.0 / n.max(1) as f64;
    let teleport: Option<&[f64]> = if teleport.is_empty() {
        None
    } else {
        Some(teleport)
    };
    let (scaled_rank, scaled_next) = scaled;
    scaled_rank.scale(op, rank);
    scaled_next.scale(op, rank);
    let mut params = PullParams {
        alpha: config.alpha,
        uniform,
        policy: config.dangling,
        dangling_mass: mass_at(topo.dangling_nodes, rank),
    };
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    let mut prev_q = f64::NAN;
    let mut cooldown = 0usize;
    while iterations < config.max_iterations {
        iterations += 1;
        sim_event("engine.iter", iterations);
        let out = pull(
            topo,
            op,
            teleport,
            rank,
            (&scaled_rank.dec, &scaled_rank.conn),
            next,
            (&mut scaled_next.dec, &mut scaled_next.conn),
            &params,
        );
        if params.policy == DanglingPolicy::Renormalize {
            let inv_total = if out.sum_next > 0.0 {
                1.0 / out.sum_next
            } else {
                1.0
            };
            let next_scaled = (&mut scaled_next.dec[..], &mut scaled_next.conn[..]);
            residual = renormalize(rank, next, next_scaled, inv_total);
            // Scaling is linear, so the dangling partial scales with it.
            params.dangling_mass = out.dangling_next * inv_total;
        } else {
            residual = out.residual;
            params.dangling_mass = out.dangling_next;
        }
        std::mem::swap(rank, next);
        std::mem::swap(scaled_rank, scaled_next);
        if residual < config.tolerance {
            break;
        }
        let q = if out.dot_oo > 0.0 {
            out.dot_dd / out.dot_oo
        } else {
            0.0
        };
        if params.policy != DanglingPolicy::Renormalize && cooldown == 0 {
            if let Some(f) = extrapolation_factor(prev_q, q) {
                // rank = x_{k+1}, next = x_k: jump along the last step.
                for (r, &o) in rank.iter_mut().zip(next.iter()) {
                    *r += (*r - o) * f;
                }
                scaled_rank.scale(op, rank);
                params.dangling_mass = mass_at(topo.dangling_nodes, rank);
                cooldown = EXTRAPOLATION_COOLDOWN;
                prev_q = f64::NAN;
                continue;
            }
            prev_q = q;
        } else {
            cooldown = cooldown.saturating_sub(1);
            prev_q = q;
        }
    }
    (iterations, residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{pagerank, pagerank_with_matrix};
    use crate::transition::TransitionMatrix;
    use d2pr_graph::builder::GraphBuilder;
    use d2pr_graph::csr::Direction;
    use d2pr_graph::generators::{barabasi_albert, erdos_renyi_nm};

    fn assert_close(a: &[f64], b: &[f64], eps: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < eps, "{x} vs {y}");
        }
    }

    #[test]
    fn engine_matches_serial_all_policies() {
        let mut b = GraphBuilder::new(Direction::Directed, 40);
        // A graph with dangling nodes: chain plus extra arcs; the tail nodes
        // have no out-arcs.
        for v in 0..30u32 {
            b.add_edge(v, v + 1);
            b.add_edge(v, (v * 7 + 3) % 40);
        }
        let g = b.build().unwrap();
        for policy in [
            DanglingPolicy::RedistributeTeleport,
            DanglingPolicy::SelfLoop,
            DanglingPolicy::Renormalize,
        ] {
            let cfg = PageRankConfig {
                dangling: policy,
                ..Default::default()
            };
            let serial = pagerank(&g, TransitionModel::Standard, &cfg);
            let mut engine = Engine::new(&g).with_config(cfg).unwrap();
            let r = engine.solve_model(TransitionModel::Standard).unwrap();
            assert_close(&serial.scores, &r.scores, 1e-8);
        }
    }

    #[test]
    fn engine_matches_serial_decoupled() {
        let g = barabasi_albert(150, 3, 5).unwrap();
        let cfg = PageRankConfig::default();
        let mut engine = Engine::new(&g);
        for &p in &[-2.0, 0.0, 0.5, 4.0] {
            let model = TransitionModel::DegreeDecoupled { p };
            let serial = pagerank(&g, model, &cfg);
            let r = engine.solve_model(model).unwrap();
            assert_close(&serial.scores, &r.scores, 1e-8);
        }
    }

    #[test]
    fn engine_personalized_teleport() {
        let g = erdos_renyi_nm(60, 240, 8).unwrap();
        let matrix = TransitionMatrix::build(&g, TransitionModel::Standard);
        // A weighted two-seed teleport and a seed-only one: either way the
        // heaviest seed ranks first.
        let mut weighted = vec![0.0; 60];
        weighted[7] = 2.0;
        weighted[9] = 1.0;
        let mut seed_only = vec![0.0; 60];
        seed_only[7] = 1.0;
        for t in [weighted, seed_only] {
            let serial = pagerank_with_matrix(&g, &matrix, &PageRankConfig::default(), Some(&t));
            let mut engine = Engine::new(&g);
            engine.set_model(TransitionModel::Standard).unwrap();
            let r = engine.solve_with_teleport(Some(&t)).unwrap();
            assert_close(&serial.scores, &r.scores, 1e-8);
            assert_eq!(r.ranking()[0], 7);
        }
    }

    #[test]
    fn sweep_matches_pointwise_solves_and_warm_start_converges_same() {
        let g = barabasi_albert(120, 3, 9).unwrap();
        let models: Vec<TransitionModel> = [-1.0, -0.5, 0.0, 0.5, 1.0]
            .iter()
            .map(|&p| TransitionModel::DegreeDecoupled { p })
            .collect();
        let mut engine = Engine::new(&g);
        let cold = engine.sweep(&models, false).unwrap();
        let warm = engine.sweep(&models, true).unwrap();
        assert_eq!(cold.len(), 5);
        let mut warm_iters = 0;
        let mut cold_iters = 0;
        for ((c, w), &model) in cold.iter().zip(&warm).zip(&models) {
            let serial = pagerank(&g, model, &PageRankConfig::default());
            assert_close(&serial.scores, &c.scores, 1e-8);
            assert_close(&serial.scores, &w.scores, 1e-7);
            cold_iters += c.iterations;
            warm_iters += w.iterations;
        }
        assert!(
            warm_iters < cold_iters,
            "warm start should save iterations: {warm_iters} vs {cold_iters}"
        );
    }

    #[test]
    fn errors_are_typed_not_panics() {
        let g = erdos_renyi_nm(10, 30, 1).unwrap();
        let mut engine = Engine::new(&g);
        assert!(matches!(engine.solve(), Err(SolverError::InvalidModel(_))));
        assert!(matches!(
            engine.set_model(TransitionModel::Blended { p: 0.0, beta: 2.0 }),
            Err(SolverError::InvalidModel(_))
        ));
        engine.set_model(TransitionModel::Standard).unwrap();
        assert!(matches!(
            engine.solve_with_teleport(Some(&[1.0])),
            Err(SolverError::TeleportLength {
                got: 1,
                expected: 10
            })
        ));
        assert!(matches!(
            engine.solve_with_teleport(Some(&[0.0; 10])),
            Err(SolverError::TeleportMass)
        ));
        assert!(matches!(
            engine.solve_with_teleport(Some(&[-1.0; 10])),
            Err(SolverError::TeleportEntry(_))
        ));
        assert!(matches!(
            Engine::new(&g).set_config(PageRankConfig {
                alpha: 1.0,
                ..Default::default()
            }),
            Err(SolverError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_graph_and_empty_sweep() {
        let g = GraphBuilder::new(Direction::Directed, 0).build().unwrap();
        let mut engine = Engine::new(&g);
        let r = engine.solve_model(TransitionModel::Standard).unwrap();
        assert!(r.scores.is_empty() && r.converged);
        let g2 = erdos_renyi_nm(5, 10, 2).unwrap();
        let mut engine2 = Engine::new(&g2);
        assert!(engine2.sweep(&[], false).unwrap().is_empty());
    }

    #[test]
    fn degree_term_matches_oracle_and_rejects_extreme_p() {
        // The factored degree term reaches the oracle's (log-sum-exp)
        // fixed points across the paper's grid ...
        let g = barabasi_albert(120, 4, 6).unwrap();
        let cfg = PageRankConfig::default();
        let mut engine = Engine::new(&g);
        for &p in &[-4.0, -0.5, 0.0, 2.0, 4.0] {
            let model = TransitionModel::DegreeDecoupled { p };
            let serial = pagerank(&g, model, &cfg);
            let r = engine.solve_model(model).unwrap();
            assert_close(&serial.scores, &r.scores, 1e-8);
            assert!((r.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9, "p={p}");
        }
        // ... and past `exp`'s safe range it is a typed error that names
        // the node, p and the limit, leaving the loaded operator intact.
        let extreme = TransitionModel::DegreeDecoupled { p: 400.0 };
        let Err(SolverError::InvalidModel(msg)) = engine.set_model(extreme) else {
            panic!("p = 400 must be rejected");
        };
        assert!(msg.contains("node") && msg.contains("400") && msg.contains("600"));
        assert!(matches!(
            engine.solve_model(extreme),
            Err(SolverError::InvalidModel(_))
        ));
        let r = engine.solve().unwrap();
        let p4 = TransitionModel::DegreeDecoupled { p: 4.0 };
        assert_close(&pagerank(&g, p4, &cfg).scores, &r.scores, 1e-8);
        // The connection term evaluates no Θ^(−p): β = 1 is never checked.
        engine
            .set_model(TransitionModel::Blended {
                p: 400.0,
                beta: 1.0,
            })
            .unwrap();
    }

    #[test]
    fn with_structure_validates_and_matches_build() {
        use d2pr_graph::transpose::CscStructure;
        let g = barabasi_albert(80, 3, 4).unwrap();
        let g2 = barabasi_albert(81, 3, 4).unwrap();
        let csc = Arc::new(CscStructure::build(&g));
        assert!(matches!(
            Engine::with_structure(&g2, Arc::clone(&csc)),
            Err(SolverError::StructureMismatch { .. })
        ));
        let mut a = Engine::with_structure(&g, Arc::clone(&csc)).unwrap();
        // Sharing is by reference: the engine holds the same allocation.
        assert!(Arc::ptr_eq(&a.shared_structure(), &csc));
        let mut b = Engine::new(&g);
        let model = TransitionModel::DegreeDecoupled { p: 1.0 };
        let ra = a.solve_model(model).unwrap();
        let rb = b.solve_model(model).unwrap();
        assert_close(&ra.scores, &rb.scores, 1e-15);
        // A second engine over the same shared structure agrees bit-for-bit
        // and still points at the one transpose.
        let mut c = Engine::with_structure(&g, a.shared_structure()).unwrap();
        let rc = c.solve_model(model).unwrap();
        assert_close(&ra.scores, &rc.scores, 1e-15);
        assert!(Arc::ptr_eq(&c.shared_structure(), &csc));
    }

    #[test]
    fn warm_sweep_serves_personalized_fixed_point() {
        let g = barabasi_albert(200, 3, 21).unwrap();
        let mut t = vec![0.0; 200];
        t[5] = 3.0;
        t[9] = 1.0;
        let model = TransitionModel::DegreeDecoupled { p: 0.5 };
        let mut engine = Engine::new(&g);
        engine.set_model(model).unwrap();
        let served = engine.solve_with_teleport(Some(&t)).unwrap();
        // Warm re-solve with the same teleport reproduces the personalized
        // fixed point; the uniform entry point would converge elsewhere.
        let warm = engine.warm_sweep(&served.scores, Some(&t)).unwrap();
        assert_close(&served.scores, &warm.scores, 1e-8);
        assert!(warm.iterations <= served.iterations);
        let uniform = engine.resolve_warm(&served.scores).unwrap();
        let l1: f64 = uniform
            .scores
            .iter()
            .zip(&warm.scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 > 1e-3, "uniform and personalized fixed points differ");
    }

    #[test]
    fn resolve_warm_matches_cold_and_saves_iterations() {
        use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
        let g = barabasi_albert(400, 4, 13).unwrap();
        let model = TransitionModel::DegreeDecoupled { p: 0.5 };
        let mut engine = Engine::new(&g);
        engine.set_model(model).unwrap();
        let before = engine.solve().unwrap();

        // A small churn batch: delete two edges, insert two.
        let mut dg = DeltaGraph::new(g.clone()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.delete(0, g.neighbors(0)[0]);
        batch.delete(1, g.neighbors(1)[0]);
        batch.insert(2, 399);
        batch.insert(3, 398);
        let out = dg.apply_batch(&batch).unwrap();
        let g2 = dg.graph();
        let csc2 = Arc::new(engine.csc().patched(g2, &out.delta).unwrap());

        let mut engine2 = Engine::with_structure(g2, csc2).unwrap();
        engine2.set_model(model).unwrap();
        let warm = engine2.resolve_warm(&before.scores).unwrap();
        let cold = engine2.solve().unwrap();
        assert_close(&cold.scores, &warm.scores, 1e-8);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // The localized entry point must land on the same fixed point
        // whichever strategy it ends up running (on a graph this small
        // at the default 1e-10 tolerance the push hands its tail to
        // the sweep finisher — the hybrid mode).
        let local = engine2
            .resolve_localized(&before.scores, &out.delta)
            .unwrap();
        assert!(matches!(
            local.mode,
            ResolveMode::LocalizedPush | ResolveMode::HybridPushSweep
        ));
        assert!(local.result.converged);
        assert!(local.frontier > 0 && local.pushes > 0);
        assert_close(&cold.scores, &local.result.scores, 1e-7);
        // The auto mode also matches, whatever it selects.
        let auto = engine2
            .resolve_incremental(&before.scores, &out.delta)
            .unwrap();
        assert_close(&cold.scores, &auto.result.scores, 1e-7);
    }

    #[test]
    fn resolve_errors_are_typed() {
        use crate::error::UpdateError;
        use d2pr_graph::delta::ArcDelta;
        let g = erdos_renyi_nm(20, 60, 4).unwrap();
        let mut engine = Engine::new(&g);
        let empty = ArcDelta::default();
        // No model loaded.
        assert!(matches!(
            engine.resolve_warm(&[0.05; 20]),
            Err(UpdateError::Solver(SolverError::InvalidModel(_)))
        ));
        assert!(matches!(
            engine.resolve_incremental(&[0.05; 20], &empty),
            Err(UpdateError::Solver(SolverError::InvalidModel(_)))
        ));
        engine.set_model(TransitionModel::Standard).unwrap();
        // Stale warm-start vector (wrong length).
        assert!(matches!(
            engine.resolve_warm(&[1.0; 3]),
            Err(UpdateError::Solver(SolverError::WarmStartLength {
                got: 3,
                expected: 20
            }))
        ));
        assert!(matches!(
            engine.resolve_localized(&[1.0; 3], &empty),
            Err(UpdateError::Solver(SolverError::WarmStartLength {
                got: 3,
                expected: 20
            }))
        ));
        // No mass.
        assert!(matches!(
            engine.resolve_warm(&[0.0; 20]),
            Err(UpdateError::Solver(SolverError::WarmStartMass))
        ));
        // A delta that does not describe this graph is rejected up front.
        let bogus = ArcDelta {
            inserted: vec![(0, 19)],
            inserted_weights: vec![1.0],
            ..Default::default()
        };
        if !g.has_arc(0, 19) {
            assert!(matches!(
                engine.resolve_incremental(&[0.05; 20], &bogus),
                Err(UpdateError::Graph(_))
            ));
        }
        let out_of_range = ArcDelta {
            inserted: vec![(0, 99)],
            inserted_weights: vec![1.0],
            ..Default::default()
        };
        assert!(matches!(
            engine.resolve_incremental(&[0.05; 20], &out_of_range),
            Err(UpdateError::Graph(_))
        ));
    }

    #[test]
    fn weighted_base_resolves_incrementally() {
        use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
        let mut b = GraphBuilder::new(Direction::Directed, 5);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(1, 2, 1.0);
        b.add_weighted_edge(2, 0, 1.0);
        b.add_weighted_edge(0, 3, 0.5);
        b.add_weighted_edge(3, 4, 1.5);
        b.add_weighted_edge(4, 0, 0.25);
        let g = b.build().unwrap();
        assert!(g.is_weighted());
        for model in [
            TransitionModel::Standard,
            TransitionModel::DegreeDecoupled { p: 0.5 },
            TransitionModel::Blended { beta: 0.5, p: 1.0 },
        ] {
            let mut engine = Engine::new(&g);
            engine.set_model(model).unwrap();
            let served = engine.solve().unwrap().scores;
            // A weighted base now takes the full mutation path: weighted
            // insert, re-weight (insert over an existing arc), delete.
            let mut dg = DeltaGraph::new(g.clone()).unwrap();
            let mut batch = EdgeBatch::new();
            batch.insert_weighted(2, 4, 3.0);
            batch.insert_weighted(0, 1, 0.75); // re-weight of an existing arc
            batch.delete(3, 4);
            let outcome = dg.apply_batch(&batch).unwrap();
            assert_eq!(outcome.delta.reweighted, vec![(0, 1, 2.0, 0.75)]);
            assert_eq!(outcome.delta.deleted_weights, vec![1.5]);
            let g2 = dg.graph();
            let state = engine.into_state().patched(g2, &outcome.delta).unwrap();
            let mut engine2 = Engine::from_state(g2, state).unwrap();
            let inc = engine2
                .resolve_incremental(&served, &outcome.delta)
                .unwrap();
            assert!(inc.result.converged);
            let cold = engine2.solve().unwrap();
            assert_close(&cold.scores, &inc.result.scores, 1e-7);
        }
    }

    #[test]
    fn resolve_incremental_tracked_delivers_scores_in_caller_buffer() {
        use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
        let g = barabasi_albert(400, 4, 13).unwrap();
        let model = TransitionModel::DegreeDecoupled { p: 0.5 };
        let mut engine = Engine::new(&g);
        engine.set_model(model).unwrap();
        let before = engine.solve().unwrap();
        let mut dg = DeltaGraph::new(g.clone()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(2, 399);
        let outcome = dg.apply_batch(&batch).unwrap();
        let g2 = dg.graph();
        let csc2 = Arc::new(engine.csc().patched(g2, &outcome.delta).unwrap());
        let mut engine2 = Engine::with_structure(g2, csc2).unwrap();
        engine2.set_model(model).unwrap();
        let mut buf = vec![0.0; 3]; // any previous contents are discarded
        let mut touched = TouchedSet::new();
        let inc = engine2
            .resolve_incremental_tracked(
                &before.scores,
                None,
                &outcome.delta,
                &mut buf,
                &mut touched,
            )
            .unwrap();
        assert!(
            inc.result.scores.is_empty(),
            "scores live in the caller's buffer"
        );
        assert!(inc.result.converged);
        assert_eq!(buf.len(), 400);
        let cold = engine2.solve().unwrap();
        assert_close(&cold.scores, &buf, 1e-7);
    }

    #[test]
    fn sweep_fails_before_any_point_past_the_exponent_range() {
        // A sweep that holds one out-of-range point solves none of them;
        // the engine still solves in-range models afterwards, and mixed
        // β points match pointwise solves.
        let g = barabasi_albert(90, 3, 8).unwrap();
        let cfg = PageRankConfig::default();
        let mut engine = Engine::new(&g);
        let models = [
            TransitionModel::DegreeDecoupled { p: 0.5 },
            TransitionModel::DegreeDecoupled { p: 400.0 },
        ];
        assert!(matches!(
            engine.sweep(&models, true),
            Err(SolverError::InvalidModel(_))
        ));
        assert_eq!(engine.model(), None, "no point was loaded");
        let models = [
            TransitionModel::DegreeDecoupled { p: 0.5 },
            TransitionModel::Blended { p: -1.0, beta: 0.5 },
            TransitionModel::Standard,
            TransitionModel::DegreeDecoupled { p: -1.0 },
        ];
        let results = engine.sweep(&models, true).unwrap();
        for (&model, r) in models.iter().zip(&results) {
            assert_close(&pagerank(&g, model, &cfg).scores, &r.scores, 1e-7);
        }
    }
}
