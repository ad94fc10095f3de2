//! Incremental graph updates: one [`CsrGraph`] patched from each batch's
//! effective delta.
//!
//! A serving system receives edge insertions, deletions, weight changes,
//! and node churn continuously and cannot afford a full builder-path
//! rebuild (edge soup, counting sort, per-node sort, dedup) on every
//! change. [`DeltaGraph`] keeps the evolving graph as one CSR and patches
//! it per batch:
//!
//! * [`DeltaGraph::apply_batch`] validates a batch, computes its
//!   *effective* arc-level delta against the graph by binary search (no-ops
//!   removed, undirected edges mirrored, pre-batch weights recorded), and
//!   patches the graph once from that delta ([`CsrGraph::patched`]: span
//!   copies of every untouched run of sources, a merge at the edited ones).
//!   Downstream caches ([`CscStructure`]) patch from the same delta instead
//!   of rebuilding;
//! * [`DeltaGraph::apply_batches`] applies a run of batches (a recovery
//!   log tail) with one patch from their net delta, reporting each batch's
//!   own delta as well.
//!
//! # Weight reconciliation
//!
//! On a weighted graph, **re-inserting a present arc replaces its weight**
//! ([`EdgeBatch::insert_weighted`] / [`EdgeBatch::set_weight`] are the same
//! operation): the batch outcome reports it in [`ArcDelta::reweighted`]
//! with both the pre-batch and the new weight, so solvers can reconstruct
//! the pre-batch operator exactly. Unweighted graphs accept only weight-1
//! edits (anything else fails typed with [`GraphError::WeightMismatch`]);
//! weighted graphs accept plain [`EdgeBatch::insert`] as weight-1 inserts.
//!
//! # Node churn
//!
//! [`EdgeBatch::add_nodes`] appends `k` fresh ids to the tail of the id
//! space (they start isolated — dangling); [`EdgeBatch::remove_node`]
//! **tombstones** a node: every incident arc (in and out) is dropped, but
//! the id itself is retained so node ids stay dense and stable. A removed
//! node is indistinguishable from an isolated node at this layer; the
//! serving layer zeroes its teleport mass and evicts it from ranked
//! indexes. Re-adding arcs at a tombstoned id resurrects it.
//!
//! [`CscStructure`]: crate::transpose::CscStructure

use crate::csr::{CsrGraph, Direction, NodeId};
use crate::error::{GraphError, Result};
use std::collections::BTreeMap;

/// A batch of logical edge and node edits to apply in one
/// [`DeltaGraph::apply_batch`] call. For undirected graphs each edge stands
/// for its two mirrored arcs.
///
/// Within one batch the phases apply in a fixed order: node additions,
/// then insertions (so inserts may reference freshly added ids), then
/// deletions (so a batch that inserts and deletes the same edge nets to
/// "absent"), then node removals (which drop every arc still incident to
/// the removed ids). Self-loops are dropped, mirroring
/// [`crate::builder::SelfLoopPolicy::Drop`], the policy every graph in this
/// workspace is built under.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeBatch {
    /// Edges to insert (re-inserting a present edge replaces its weight).
    pub inserts: Vec<(NodeId, NodeId)>,
    /// Per-insert weights, parallel to `inserts` when present. `None`
    /// means every insert carries weight 1 (the structural batch).
    pub weights: Option<Vec<f64>>,
    /// Edges to delete (ignored when already absent).
    pub deletes: Vec<(NodeId, NodeId)>,
    /// Fresh node ids to append to the tail of the id space before the
    /// edge edits apply.
    pub new_nodes: u32,
    /// Nodes to tombstone after the edge edits apply: every incident arc
    /// is dropped; the id stays allocated (isolated).
    pub removed_nodes: Vec<NodeId>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an edge insertion with weight 1 (a weight *replace* to 1.0
    /// when the edge is already present on a weighted base).
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.inserts.push((u, v));
        if let Some(w) = self.weights.as_mut() {
            w.push(1.0);
        }
        self
    }

    /// Queue a weighted edge insertion. Reconciliation: when the edge is
    /// already present, its weight is **replaced** by `w` (reported as a
    /// reweight, not a structural flip). Requires a weighted base unless
    /// `w == 1.0`.
    pub fn insert_weighted(&mut self, u: NodeId, v: NodeId, w: f64) -> &mut Self {
        let ws = self
            .weights
            .get_or_insert_with(|| vec![1.0; self.inserts.len()]);
        ws.push(w);
        self.inserts.push((u, v));
        self
    }

    /// Set the weight of edge `u — v` to `w`, inserting the edge when
    /// absent. This is exactly [`EdgeBatch::insert_weighted`] — named for
    /// call sites whose intent is re-weighting an existing edge.
    pub fn set_weight(&mut self, u: NodeId, v: NodeId, w: f64) -> &mut Self {
        self.insert_weighted(u, v, w)
    }

    /// Queue an edge deletion.
    pub fn delete(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.deletes.push((u, v));
        self
    }

    /// Append `k` fresh node ids (they take the next ids past the current
    /// node count, in order, and start isolated).
    pub fn add_nodes(&mut self, k: u32) -> &mut Self {
        self.new_nodes += k;
        self
    }

    /// Tombstone node `v`: drop every arc incident to it (the id stays
    /// allocated; serving layers zero its teleport mass).
    pub fn remove_node(&mut self, v: NodeId) -> &mut Self {
        self.removed_nodes.push(v);
        self
    }

    /// Weight of the `k`-th queued insert (1.0 for structural batches).
    pub fn insert_weight(&self, k: usize) -> f64 {
        self.weights.as_ref().map_or(1.0, |w| w[k])
    }

    /// Translate every endpoint through a node permutation (external →
    /// internal ids), preserving edit order. Serving layers that run their
    /// [`DeltaGraph`] in a cache-aware internal order (see
    /// [`crate::permute::NodePermutation`]) translate each incoming batch
    /// once — O(batch) — at the boundary.
    ///
    /// Ids at or beyond the permutation's build-time range map to
    /// themselves (identity-extension): a grown graph's fresh tail ids are
    /// appended identity-suffixed to the layout, so they need no
    /// translation, and genuinely out-of-range ids surface from the
    /// receiving [`DeltaGraph::apply_batch`] with the id the caller
    /// actually supplied.
    pub fn permuted(&self, perm: &crate::permute::NodePermutation) -> EdgeBatch {
        let map = |v: NodeId| perm.forward().get(v as usize).copied().unwrap_or(v);
        EdgeBatch {
            inserts: self
                .inserts
                .iter()
                .map(|&(u, v)| (map(u), map(v)))
                .collect(),
            weights: self.weights.clone(),
            deletes: self
                .deletes
                .iter()
                .map(|&(u, v)| (map(u), map(v)))
                .collect(),
            new_nodes: self.new_nodes,
            removed_nodes: self.removed_nodes.iter().map(|&v| map(v)).collect(),
        }
    }

    /// Number of queued edit records (edge edits plus node ops).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len() + self.new_nodes as usize + self.removed_nodes.len()
    }

    /// `true` when no edits are queued.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty()
            && self.deletes.is_empty()
            && self.new_nodes == 0
            && self.removed_nodes.is_empty()
    }
}

/// The *effective* change produced by one batch: exactly the arcs whose
/// presence flipped or whose weight changed, with undirected edges expanded
/// to both mirrored arcs and all no-ops (re-inserting a present arc at its
/// current weight, deleting an absent one, insert-then-delete within the
/// batch) removed — plus the node-count change and the tombstoned ids.
///
/// All arc lists are sorted by `(source, target)` and mutually disjoint.
/// Deleted arcs carry their **pre-batch** weight and reweighted arcs carry
/// `(old, new)`, so downstream solvers can reconstruct the pre-batch
/// operator (`Θ_old`, per-column `T_old`) exactly. This is the currency of
/// the incremental maintenance path:
/// [`CscStructure::patched`](crate::transpose::CscStructure::patched)
/// consumes it to update a transpose without a full rebuild.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArcDelta {
    /// Arcs that became present.
    pub inserted: Vec<(NodeId, NodeId)>,
    /// Post-batch weight of each inserted arc (parallel to `inserted`;
    /// all 1.0 on unweighted bases).
    pub inserted_weights: Vec<f64>,
    /// Arcs that became absent.
    pub deleted: Vec<(NodeId, NodeId)>,
    /// Pre-batch weight of each deleted arc (parallel to `deleted`).
    pub deleted_weights: Vec<f64>,
    /// Arcs present before and after the batch whose weight changed:
    /// `(source, target, old_weight, new_weight)`. Structurally invisible
    /// (the transpose is unchanged) but operator-visible.
    pub reweighted: Vec<(NodeId, NodeId, f64, f64)>,
    /// Node count before the batch.
    pub nodes_before: u32,
    /// Node count after the batch (`>= nodes_before`; removal tombstones,
    /// it never shrinks the id space).
    pub nodes_after: u32,
    /// Nodes tombstoned by this batch, sorted and deduplicated (their
    /// dropped arcs appear in `deleted` as ordinary deletions).
    pub removed_nodes: Vec<NodeId>,
}

impl ArcDelta {
    /// Total number of changed arcs (flips plus reweights).
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len() + self.reweighted.len()
    }

    /// `true` when the batch changed nothing at all (no arc flips, no
    /// reweights, no node churn).
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.deleted.is_empty()
            && self.reweighted.is_empty()
            && self.added_nodes() == 0
            && self.removed_nodes.is_empty()
    }

    /// Number of nodes the batch appended (ids
    /// `nodes_before..nodes_after`).
    pub fn added_nodes(&self) -> u32 {
        self.nodes_after - self.nodes_before
    }

    /// The **touched-node frontier**: every node whose in- or out-arc set
    /// or incident weights the batch changed (endpoints of flipped and
    /// reweighted arcs), plus freshly added and tombstoned ids, sorted and
    /// deduplicated. This is the seed set of residual-localized
    /// re-solvers: the warm-start residual of a rank vector is exactly
    /// zero (up to the previous solve's tolerance) outside the
    /// neighborhood of these nodes.
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .inserted
            .iter()
            .chain(&self.deleted)
            .flat_map(|&(s, t)| [s, t])
            .chain(self.reweighted.iter().flat_map(|&(s, t, _, _)| [s, t]))
            .chain(self.nodes_before..self.nodes_after)
            .chain(self.removed_nodes.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Net out-degree change per source of a flipped arc, sorted by node id
    /// (zero-net sources are retained: their neighbor *set* still changed).
    /// Downstream consumers use this to reconstruct pre-batch dangling
    /// status and — on unweighted graphs — pre-batch degree tables.
    pub fn source_degree_changes(&self) -> Vec<(NodeId, i64)> {
        let mut net: Vec<(NodeId, i64)> = Vec::with_capacity(self.len());
        for &(s, _) in &self.inserted {
            net.push((s, 1));
        }
        for &(s, _) in &self.deleted {
            net.push((s, -1));
        }
        net.sort_unstable_by_key(|&(s, _)| s);
        let mut out: Vec<(NodeId, i64)> = Vec::new();
        for (s, d) in net {
            match out.last_mut() {
                Some((last, acc)) if *last == s => *acc += d,
                _ => out.push((s, d)),
            }
        }
        out
    }

    /// Net total-out-weight (`Θ`) change per source whose out-arcs the
    /// batch touched, sorted by node id — the weighted generalization of
    /// [`ArcDelta::source_degree_changes`] (on unweighted bases the two
    /// agree numerically). Zero-net sources are retained: their neighbor
    /// set or per-arc weights still changed, so every transition
    /// probability in their column changed. `Θ_old(v) = Θ_new(v) − net`.
    pub fn source_theta_changes(&self) -> Vec<(NodeId, f64)> {
        let mut net: Vec<(NodeId, f64)> = Vec::with_capacity(self.len());
        for (&(s, _), &w) in self.inserted.iter().zip(&self.inserted_weights) {
            net.push((s, w));
        }
        for (&(s, _), &w) in self.deleted.iter().zip(&self.deleted_weights) {
            net.push((s, -w));
        }
        for &(s, _, old, new) in &self.reweighted {
            net.push((s, new - old));
        }
        net.sort_unstable_by_key(|&(s, _)| s);
        let mut out: Vec<(NodeId, f64)> = Vec::new();
        for (s, d) in net {
            match out.last_mut() {
                Some((last, acc)) if *last == s => *acc += d,
                _ => out.push((s, d)),
            }
        }
        out
    }
}

/// What one [`DeltaGraph::apply_batch`] call did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    /// Effective arc-level change relative to the pre-batch graph.
    pub delta: ArcDelta,
}

/// What one [`DeltaGraph::apply_batches`] call did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchesOutcome {
    /// Each batch's effective delta relative to the graph the batches
    /// before it left, in batch order.
    pub deltas: Vec<ArcDelta>,
    /// The net delta from the graph before the first batch to the graph
    /// after the last: cross-batch round trips cancel, an insert followed
    /// by re-weights is one weighted insert, and a delete followed by a
    /// re-insert at a new weight is a re-weight.
    pub net: ArcDelta,
}

/// An evolving graph: one [`CsrGraph`], patched from each batch's
/// effective [`ArcDelta`] by span copies ([`CsrGraph::patched`]).
///
/// # Examples
/// ```
/// use d2pr_graph::builder::GraphBuilder;
/// use d2pr_graph::csr::Direction;
/// use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
///
/// let mut b = GraphBuilder::new(Direction::Undirected, 4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let mut dg = DeltaGraph::new(b.build().unwrap()).unwrap();
///
/// let mut batch = EdgeBatch::new();
/// batch.insert(2, 3).delete(0, 1);
/// let outcome = dg.apply_batch(&batch).unwrap();
/// assert_eq!(outcome.delta.inserted, vec![(2, 3), (3, 2)]);
/// assert_eq!(outcome.delta.deleted, vec![(0, 1), (1, 0)]);
///
/// let g = dg.graph();
/// assert!(g.has_arc(2, 3) && g.has_arc(3, 2));
/// assert!(!g.has_arc(0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    graph: CsrGraph,
}

impl DeltaGraph {
    /// Start evolving `graph` (weighted or unweighted).
    ///
    /// # Errors
    /// Infallible today; the `Result` is kept for API stability (earlier
    /// revisions rejected weighted graphs here).
    pub fn new(graph: CsrGraph) -> Result<Self> {
        Ok(Self { graph })
    }

    /// The current graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Consume the delta graph, returning the current graph.
    pub fn into_graph(self) -> CsrGraph {
        self.graph
    }

    /// A copy of the current graph (`graph().clone()`), kept for the
    /// benchmark client; borrow with [`DeltaGraph::graph`] instead.
    pub fn snapshot(&self) -> CsrGraph {
        self.graph.clone()
    }

    /// Pending overlay entries: always 0, the graph is patched in place on
    /// every batch.
    #[deprecated(note = "the evolving graph has no overlay; always 0")]
    pub fn overlay_len(&self) -> usize {
        0
    }

    /// Apply a batch of edits: node additions, then insertions (which
    /// replace weights of already-present arcs), then deletions, then node
    /// removals; undirected edges edit both mirrored arcs; self-loops and
    /// no-ops (inserting a present edge at its current weight, deleting an
    /// absent one) are skipped. The graph is then patched once from the
    /// batch's effective delta.
    ///
    /// The batch is validated before any state changes: on error the graph
    /// is untouched.
    ///
    /// # Errors
    /// - [`GraphError::NodeOutOfRange`] when an edit references a node
    ///   outside `0..num_nodes + batch.new_nodes`.
    /// - [`GraphError::InvalidWeight`] when a batch weight is not finite
    ///   and non-negative.
    /// - [`GraphError::WeightMismatch`] when a non-unit weight targets an
    ///   unweighted graph.
    /// - [`GraphError::Snapshot`] when `batch.weights` does not parallel
    ///   `batch.inserts`.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<BatchOutcome> {
        let delta = self.apply_batches(std::slice::from_ref(batch))?.net;
        Ok(BatchOutcome { delta })
    }

    /// Apply several batches in order as one call that patches the graph
    /// **once**, from their net delta — the recovery path replaying a log
    /// tail. Every batch is validated up front, so the call is atomic: on
    /// error the graph is untouched. The per-batch effective deltas equal
    /// what [`DeltaGraph::apply_batch`] would report batch by batch.
    ///
    /// # Errors
    /// As [`DeltaGraph::apply_batch`], for the first invalid batch.
    pub fn apply_batches(&mut self, batches: &[EdgeBatch]) -> Result<BatchesOutcome> {
        let n0 = self.graph.num_nodes() as u32;
        let mut n = n0;
        for batch in batches {
            n = self.validate(batch, n)?;
        }
        let mut pending = Pending {
            graph: &self.graph,
            state: BTreeMap::new(),
            batch_before: BTreeMap::new(),
        };
        let mut deltas = Vec::with_capacity(batches.len());
        let mut removed_all: Vec<NodeId> = Vec::new();
        let mut n = n0;
        for batch in batches {
            let n_before = n;
            n += batch.new_nodes;
            let removed = pending.apply(batch);
            removed_all.extend_from_slice(&removed);
            let changes = std::mem::take(&mut pending.batch_before)
                .into_iter()
                .map(|(arc, before)| (arc, before, pending.state[&arc]));
            deltas.push(classify(changes, n_before, n, removed));
        }
        removed_all.sort_unstable();
        removed_all.dedup();
        let changes = pending
            .state
            .iter()
            .map(|(&arc, &after)| (arc, self.graph.arc_weight(arc.0, arc.1), after));
        let net = classify(changes, n0, n, removed_all);
        if !net.is_empty() {
            self.graph = self.graph.patched(&net)?;
        }
        Ok(BatchesOutcome { deltas, net })
    }

    /// Check one batch against a graph of `n` nodes; returns the node
    /// count after it.
    fn validate(&self, batch: &EdgeBatch, n: u32) -> Result<u32> {
        let n_after = match n.checked_add(batch.new_nodes) {
            Some(n) => n,
            None => return Err(GraphError::TooManyNodes(usize::MAX)),
        };
        if let Some(w) = &batch.weights {
            if w.len() != batch.inserts.len() {
                return Err(GraphError::Snapshot(
                    "batch weights must parallel inserts".into(),
                ));
            }
            if let Some(&bad) = w.iter().find(|x| !x.is_finite() || **x < 0.0) {
                return Err(GraphError::InvalidWeight(bad));
            }
            if !self.graph.is_weighted() && w.iter().any(|&x| x != 1.0) {
                return Err(GraphError::WeightMismatch {
                    graph_weighted: false,
                });
            }
        }
        for &(u, v) in batch.inserts.iter().chain(&batch.deletes) {
            if u >= n_after || v >= n_after {
                return Err(GraphError::NodeOutOfRange {
                    node: if u >= n_after { u } else { v },
                    num_nodes: n_after,
                });
            }
        }
        if let Some(&bad) = batch.removed_nodes.iter().find(|&&v| v >= n_after) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                num_nodes: n_after,
            });
        }
        Ok(n_after)
    }
}

/// The arcs a run of batches touched, on top of the unpatched graph:
/// their current state and, for the batch in progress, their state before
/// it. The graph itself is read by binary search.
struct Pending<'a> {
    graph: &'a CsrGraph,
    /// Current state of every touched arc: `Some(weight)` when present.
    state: BTreeMap<(NodeId, NodeId), Option<f64>>,
    /// State before the current batch of each arc it touched.
    batch_before: BTreeMap<(NodeId, NodeId), Option<f64>>,
}

impl Pending<'_> {
    /// Current state of `arc` (ids added by growth have no arcs in the
    /// graph yet).
    fn current(&self, arc: (NodeId, NodeId)) -> Option<f64> {
        match self.state.get(&arc) {
            Some(&s) => s,
            None => self.graph.arc_weight(arc.0, arc.1),
        }
    }

    fn set(&mut self, arc: (NodeId, NodeId), after: Option<f64>) {
        let before = self.current(arc);
        self.batch_before.entry(arc).or_insert(before);
        self.state.insert(arc, after);
    }

    /// Make `arc` present at weight `w`; re-inserting a present arc
    /// replaces its weight (a no-op at the current weight, which is every
    /// re-insert on an unweighted graph: validation admits weight 1 only).
    fn insert(&mut self, arc: (NodeId, NodeId), w: f64) {
        if self.current(arc) != Some(w) {
            self.set(arc, Some(w));
        }
    }

    /// Make `arc` absent (a no-op when it already is).
    fn delete(&mut self, arc: (NodeId, NodeId)) {
        if self.current(arc).is_some() {
            self.set(arc, None);
        }
    }

    /// Apply one validated batch in the documented phase order; returns
    /// its removed nodes, sorted and deduplicated.
    fn apply(&mut self, batch: &EdgeBatch) -> Vec<NodeId> {
        let mirrored = self.graph.direction() == Direction::Undirected;
        for (k, &(u, v)) in batch.inserts.iter().enumerate() {
            if u != v {
                let w = batch.insert_weight(k);
                self.insert((u, v), w);
                if mirrored {
                    self.insert((v, u), w);
                }
            }
        }
        for &(u, v) in &batch.deletes {
            if u != v {
                self.delete((u, v));
                if mirrored {
                    self.delete((v, u));
                }
            }
        }
        let mut removed = batch.removed_nodes.clone();
        removed.sort_unstable();
        removed.dedup();
        if removed.is_empty() {
            return removed;
        }
        // Candidates for every arc incident to a removed node: graph arcs
        // and touched arcs; `delete` skips the ones already absent.
        let is_removed = |x: NodeId| removed.binary_search(&x).is_ok();
        let mut incident: Vec<(NodeId, NodeId)> = Vec::new();
        if mirrored {
            // Mirrored storage: the removed node's row names every
            // incident edge, so no full scan is needed.
            for &v in &removed {
                if (v as usize) < self.graph.num_nodes() {
                    incident.extend(self.graph.neighbors(v).iter().map(|&t| (v, t)));
                }
                incident.extend(self.state.range((v, 0)..=(v, NodeId::MAX)).map(|(&a, _)| a));
            }
            let both = incident.iter().flat_map(|&(v, t)| [(v, t), (t, v)]);
            incident = both.collect();
        } else {
            // Directed: in-arcs of removed nodes need a sweep over the
            // graph — O(V + E) once per batch that removes nodes (removal
            // is rare relative to edge churn).
            let arcs = self.graph.arcs().chain(self.state.keys().copied());
            incident.extend(arcs.filter(|&(s, t)| is_removed(s) || is_removed(t)));
        }
        for arc in incident {
            self.delete(arc);
        }
        removed
    }
}

/// An [`ArcDelta`] from per-arc `(arc, before, after)` states, ascending
/// by arc: absent → present is an insert, present → absent a delete, and
/// a changed weight a re-weight; unchanged arcs drop out.
fn classify(
    changes: impl Iterator<Item = ((NodeId, NodeId), Option<f64>, Option<f64>)>,
    nodes_before: u32,
    nodes_after: u32,
    removed_nodes: Vec<NodeId>,
) -> ArcDelta {
    let mut delta = ArcDelta {
        nodes_before,
        nodes_after,
        removed_nodes,
        ..ArcDelta::default()
    };
    for (arc, before, after) in changes {
        match (before, after) {
            (None, Some(w)) => {
                delta.inserted.push(arc);
                delta.inserted_weights.push(w);
            }
            (Some(w), None) => {
                delta.deleted.push(arc);
                delta.deleted_weights.push(w);
            }
            (Some(old), Some(new)) if old != new => {
                delta.reweighted.push((arc.0, arc.1, old, new));
            }
            _ => {}
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path4() -> CsrGraph {
        let mut b = GraphBuilder::new(Direction::Undirected, 4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    /// Directed weighted triangle-ish graph used by the weighted tests.
    fn weighted3() -> CsrGraph {
        let mut b = GraphBuilder::new(Direction::Directed, 3);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(0, 2, 0.5);
        b.add_weighted_edge(1, 2, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn accepts_weighted_base() {
        let mut dg = DeltaGraph::new(weighted3()).unwrap();
        assert!(dg.graph().is_weighted());
        assert_eq!(dg.graph().arc_weight(0, 1), Some(2.0));
        assert_eq!(dg.graph().arc_weight(1, 0), None);
        // A structural insert on a weighted base carries weight 1.
        let mut batch = EdgeBatch::new();
        batch.insert(2, 0);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.inserted, vec![(2, 0)]);
        assert_eq!(out.delta.inserted_weights, vec![1.0]);
        assert_eq!(dg.graph().arc_weight(2, 0), Some(1.0));
    }

    #[test]
    fn reinsert_replaces_weight() {
        let mut dg = DeltaGraph::new(weighted3()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.set_weight(0, 1, 5.0);
        let out = dg.apply_batch(&batch).unwrap();
        assert!(out.delta.inserted.is_empty() && out.delta.deleted.is_empty());
        assert_eq!(out.delta.reweighted, vec![(0, 1, 2.0, 5.0)]);
        assert_eq!(dg.graph().arc_weight(0, 1), Some(5.0));
        assert_eq!(
            dg.graph().num_arcs(),
            3,
            "reweight is structurally invisible"
        );
        // Θ change: node 0 went from 2.5 to 5.5.
        assert_eq!(out.delta.source_theta_changes(), vec![(0, 3.0)]);
        assert!(out.delta.source_degree_changes().is_empty());
        // Re-weighting back to the base weight cancels the override.
        let mut batch = EdgeBatch::new();
        batch.set_weight(0, 1, 2.0);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.reweighted, vec![(0, 1, 5.0, 2.0)]);
        assert_eq!(dg.graph(), &weighted3());
    }

    #[test]
    fn reweight_at_current_weight_is_a_noop() {
        let mut dg = DeltaGraph::new(weighted3()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.set_weight(0, 1, 2.0);
        let out = dg.apply_batch(&batch).unwrap();
        assert!(out.delta.is_empty());
        // Reweight then reweight back within one batch cancels too.
        let mut batch = EdgeBatch::new();
        batch.set_weight(0, 1, 9.0).set_weight(0, 1, 2.0);
        let out = dg.apply_batch(&batch).unwrap();
        assert!(out.delta.is_empty());
    }

    #[test]
    fn delete_reports_prebatch_weight() {
        let mut dg = DeltaGraph::new(weighted3()).unwrap();
        // Reweight in one batch, delete in the next: the delete reports
        // the overlay weight (the pre-batch logical weight).
        let mut batch = EdgeBatch::new();
        batch.set_weight(0, 1, 7.0);
        dg.apply_batch(&batch).unwrap();
        let mut batch = EdgeBatch::new();
        batch.delete(0, 1);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.deleted, vec![(0, 1)]);
        assert_eq!(out.delta.deleted_weights, vec![7.0]);
        // Reweight then delete within one batch: still the pre-batch weight.
        let mut dg = DeltaGraph::new(weighted3()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.set_weight(0, 1, 7.0).delete(0, 1);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.deleted_weights, vec![2.0]);
        assert!(out.delta.reweighted.is_empty());
    }

    #[test]
    fn delete_then_reinsert_nets_to_reweight() {
        let mut dg = DeltaGraph::new(weighted3()).unwrap();
        // Deletes run after inserts, so stage across two batches: delete,
        // then re-insert at a new weight — per batch each is atomic, so
        // exercise the in-batch path via remove_node + insert ordering
        // instead: delete and reinsert across batches nets structurally.
        let mut batch = EdgeBatch::new();
        batch.delete(0, 1);
        dg.apply_batch(&batch).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert_weighted(0, 1, 3.0);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.inserted, vec![(0, 1)]);
        assert_eq!(out.delta.inserted_weights, vec![3.0]);
        assert_eq!(dg.graph().arc_weight(0, 1), Some(3.0));
    }

    #[test]
    fn weighted_edit_on_unweighted_base_fails_typed() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert_weighted(0, 3, 2.5);
        assert_eq!(
            dg.apply_batch(&batch).unwrap_err(),
            GraphError::WeightMismatch {
                graph_weighted: false
            }
        );
        assert_eq!(dg.graph(), &path4(), "rejected batch must not apply");
        // Weight-1 entries through the weighted API are fine.
        let mut batch = EdgeBatch::new();
        batch.insert_weighted(0, 3, 1.0);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.inserted, vec![(0, 3), (3, 0)]);
    }

    #[test]
    fn invalid_weights_rejected_atomically() {
        let mut dg = DeltaGraph::new(weighted3()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert_weighted(2, 0, f64::NAN);
        assert!(matches!(
            dg.apply_batch(&batch).unwrap_err(),
            GraphError::InvalidWeight(_)
        ));
        let mut batch = EdgeBatch::new();
        batch.insert_weighted(2, 0, -1.0);
        assert!(matches!(
            dg.apply_batch(&batch).unwrap_err(),
            GraphError::InvalidWeight(_)
        ));
        // Mis-parallel weights are malformed.
        let batch = EdgeBatch {
            inserts: vec![(2, 0)],
            weights: Some(vec![]),
            ..EdgeBatch::default()
        };
        assert!(matches!(
            dg.apply_batch(&batch).unwrap_err(),
            GraphError::Snapshot(_)
        ));
        assert_eq!(dg.graph(), &weighted3());
    }

    #[test]
    fn add_nodes_grows_id_space() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.add_nodes(2).insert(3, 5); // 5 is a fresh id
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(dg.graph().num_nodes(), 6);
        assert_eq!(out.delta.nodes_before, 4);
        assert_eq!(out.delta.nodes_after, 6);
        assert_eq!(out.delta.added_nodes(), 2);
        assert_eq!(out.delta.inserted, vec![(3, 5), (5, 3)]);
        // New isolated node 4 and connected node 5 both appear in the
        // frontier.
        assert!(out.delta.touched_nodes().contains(&4));
        assert!(out.delta.touched_nodes().contains(&5));
        let snap = dg.graph();
        assert_eq!(snap.num_nodes(), 6);
        assert!(snap.has_arc(3, 5) && snap.has_arc(5, 3));
        assert_eq!(snap.out_degree(4), 0);
    }

    #[test]
    fn remove_node_drops_incident_arcs() {
        // Undirected: node 1 sits on edges (0,1) and (1,2).
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.remove_node(1);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.removed_nodes, vec![1]);
        assert_eq!(out.delta.deleted, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert_eq!(
            dg.graph().num_nodes(),
            4,
            "removal tombstones, never shrinks"
        );
        assert!(!dg.graph().has_arc(0, 1) && !dg.graph().has_arc(1, 2));
        assert!(dg.graph().has_arc(2, 3));

        // Directed: in-arcs go too.
        let mut b = GraphBuilder::new(Direction::Directed, 3);
        b.add_edge(0, 1);
        b.add_edge(2, 1);
        b.add_edge(1, 2);
        let mut dg = DeltaGraph::new(b.build().unwrap()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.remove_node(1);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.deleted, vec![(0, 1), (1, 2), (2, 1)]);
        assert_eq!(dg.graph().num_arcs(), 0);
    }

    #[test]
    fn remove_node_in_same_batch_as_insert_cancels() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 3).remove_node(3);
        let out = dg.apply_batch(&batch).unwrap();
        // The insert is swallowed by the removal; node 3's base edge (2,3)
        // is the only real deletion.
        assert!(out.delta.inserted.is_empty());
        assert_eq!(out.delta.deleted, vec![(2, 3), (3, 2)]);
        assert!(!dg.graph().has_arc(0, 3));
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 3).delete(1, 2);
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.inserted, vec![(0, 3), (3, 0)]);
        assert_eq!(out.delta.inserted_weights, vec![1.0, 1.0]);
        assert_eq!(out.delta.deleted, vec![(1, 2), (2, 1)]);
        assert_eq!(out.delta.deleted_weights, vec![1.0, 1.0]);
        let g = dg.graph();
        assert!(g.has_arc(0, 3) && g.has_arc(3, 0));
        assert!(!g.has_arc(1, 2) && !g.has_arc(2, 1));
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);

        // Undo: the logical graph returns to the base.
        let mut undo = EdgeBatch::new();
        undo.insert(1, 2).delete(0, 3);
        let out = dg.apply_batch(&undo).unwrap();
        assert_eq!(out.delta.len(), 4);
        assert_eq!(dg.graph(), &path4());
    }

    #[test]
    fn noop_edits_report_empty_delta() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 1); // already present
        batch.delete(0, 2); // never present
        batch.insert(2, 2); // self-loop: dropped
        let out = dg.apply_batch(&batch).unwrap();
        assert!(out.delta.is_empty());
        assert_eq!(dg.graph(), &path4());
    }

    #[test]
    fn insert_then_delete_in_one_batch_cancels() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 3).delete(0, 3);
        let out = dg.apply_batch(&batch).unwrap();
        assert!(out.delta.is_empty());
        assert!(!dg.graph().has_arc(0, 3));
        // ... and deleting then re-inserting a base edge also cancels.
        let mut batch = EdgeBatch::new();
        batch.insert(0, 1).delete(0, 1);
        // inserts run first: insert is a no-op, delete tombstones.
        let out = dg.apply_batch(&batch).unwrap();
        assert_eq!(out.delta.deleted, vec![(0, 1), (1, 0)]);
        assert!(!dg.graph().has_arc(0, 1));
    }

    #[test]
    fn out_of_range_is_rejected_atomically() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 3).insert(0, 9);
        let err = dg.apply_batch(&batch).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            }
        );
        // Nothing from the batch applied.
        assert_eq!(dg.graph(), &path4());
        // Removals are range-checked too (against the grown id space).
        let mut batch = EdgeBatch::new();
        batch.add_nodes(1).remove_node(9);
        let err = dg.apply_batch(&batch).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 9,
                num_nodes: 5
            }
        );
        assert_eq!(dg.graph().num_nodes(), 4);
    }

    #[test]
    fn snapshot_matches_direct_build() {
        let mut b = GraphBuilder::new(Direction::Directed, 6);
        b.add_edge(0, 1);
        b.add_edge(0, 4);
        b.add_edge(2, 3);
        b.add_edge(5, 0);
        let mut dg = DeltaGraph::new(b.build().unwrap()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 2).insert(4, 5).delete(0, 4).delete(2, 3);
        dg.apply_batch(&batch).unwrap();

        let mut direct = GraphBuilder::new(Direction::Directed, 6);
        for (u, v) in [(0, 1), (5, 0), (0, 2), (4, 5)] {
            direct.add_edge(u, v);
        }
        assert_eq!(dg.graph(), &direct.build().unwrap());

        let arcs: Vec<_> = dg.graph().arcs().collect();
        assert_eq!(arcs, vec![(0, 1), (0, 2), (4, 5), (5, 0)]);
    }

    #[test]
    fn weighted_snapshot_matches_direct_build() {
        let mut dg = DeltaGraph::new(weighted3()).unwrap();
        let mut batch = EdgeBatch::new();
        batch
            .insert_weighted(2, 0, 3.0)
            .set_weight(0, 1, 6.0)
            .delete(0, 2);
        dg.apply_batch(&batch).unwrap();

        let mut direct = GraphBuilder::new(Direction::Directed, 3);
        direct.add_weighted_edge(0, 1, 6.0);
        direct.add_weighted_edge(1, 2, 1.0);
        direct.add_weighted_edge(2, 0, 3.0);
        assert_eq!(dg.graph(), &direct.build().unwrap());
    }

    #[test]
    fn touched_nodes_and_degree_changes() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 3).delete(1, 2);
        let out = dg.apply_batch(&batch).unwrap();
        // Undirected: arcs (0,3),(3,0) inserted, (1,2),(2,1) deleted.
        assert_eq!(out.delta.touched_nodes(), vec![0, 1, 2, 3]);
        // Every endpoint is a source of one mirrored arc: 0 and 3 gained an
        // out-arc, 1 and 2 lost one.
        assert_eq!(
            out.delta.source_degree_changes(),
            vec![(0, 1), (1, -1), (2, -1), (3, 1)]
        );
        // On an unweighted base the Θ changes agree numerically.
        assert_eq!(
            out.delta.source_theta_changes(),
            vec![(0, 1.0), (1, -1.0), (2, -1.0), (3, 1.0)]
        );
        // A swap at one source nets to zero but stays reported.
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 2).delete(0, 1);
        let out = dg.apply_batch(&batch).unwrap();
        let changes = out.delta.source_degree_changes();
        assert!(changes.contains(&(0, 0)));
        assert!(out.delta.touched_nodes().contains(&0));
        assert!(out
            .delta
            .source_theta_changes()
            .iter()
            .any(|&(s, d)| s == 0 && d == 0.0));
        // Empty delta: empty frontier.
        assert!(ArcDelta::default().touched_nodes().is_empty());
        assert!(ArcDelta::default().source_degree_changes().is_empty());
        assert!(ArcDelta::default().source_theta_changes().is_empty());
        assert!(ArcDelta::default().is_empty());
    }

    #[test]
    fn edge_batch_translates_through_permutation() {
        use crate::permute::NodePermutation;
        let g = path4();
        let p = NodePermutation::degree_descending(&g);
        let mut batch = EdgeBatch::new();
        batch.insert(0, 3).delete(1, 2).insert(0, 9); // 9 is out of range
        batch.add_nodes(1).remove_node(2);
        let t = batch.permuted(&p);
        assert_eq!(t.inserts[0], (p.to_internal(0), p.to_internal(3)));
        assert_eq!(t.deletes[0], (p.to_internal(1), p.to_internal(2)));
        // Beyond-range ids identity-extend so apply_batch names the
        // caller's id (and grown tail ids pass through untranslated).
        assert_eq!(t.inserts[1], (p.to_internal(0), 9));
        assert_eq!(t.new_nodes, 1);
        assert_eq!(t.removed_nodes, vec![p.to_internal(2)]);
        let mut dg = DeltaGraph::new(p.permute_graph(&g).unwrap()).unwrap();
        assert_eq!(
            dg.apply_batch(&t).unwrap_err(),
            GraphError::NodeOutOfRange {
                node: 9,
                num_nodes: 5
            }
        );
    }

    #[test]
    fn into_graph_returns_the_patched_graph() {
        let mut dg = DeltaGraph::new(path4()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 2);
        dg.apply_batch(&batch).unwrap();
        let g = dg.into_graph();
        assert!(g.has_arc(0, 2) && g.has_arc(2, 0));
        assert_eq!(g.num_edges(), 4);
    }
}
