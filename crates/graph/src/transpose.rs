//! Cached structural transpose (CSC view) of a [`CsrGraph`].
//!
//! The pull-based PageRank engine iterates over *incoming* arcs of every
//! destination node, while [`CsrGraph`] stores *outgoing* adjacency (CSR).
//! [`CscStructure`] materializes the transpose once per graph:
//!
//! * `in_offsets` / `in_sources` — the classic CSC arrays: the sources of
//!   the arcs pointing at node `v` live at `in_sources[in_offsets[v]..in_offsets[v+1]]`;
//! * on weighted graphs, the arc weights in CSC order
//!   ([`CscStructure::in_weights`]), filled on first use: only a transition
//!   model that reads arc weights (`β > 0`) needs them;
//! * the dangling-node list (no out-arcs), needed by every dangling policy.
//!
//! The structure depends on the graph only, never on transition
//! probabilities, so one build serves every `(p, α, β)` sweep point. See
//! `DESIGN.md` for how the engine layers on top.

use crate::csr::{copy_rows, merge_row, CsrGraph, NodeId};
use crate::delta::ArcDelta;
use crate::error::{GraphError, Result};
use crate::permute::{narrow_offsets, Layout, NodePermutation};
use std::sync::{Arc, OnceLock};

/// The structural transpose of a [`CsrGraph`]. Build once per graph with
/// [`CscStructure::build`]; after an incremental edit, update it with
/// [`CscStructure::patched`] instead of rebuilding.
///
/// # Examples
/// ```
/// use d2pr_graph::builder::GraphBuilder;
/// use d2pr_graph::csr::Direction;
/// use d2pr_graph::transpose::CscStructure;
///
/// // 0 -> 1, 0 -> 2, 1 -> 2; node 2 is the in-degree hub.
/// let mut b = GraphBuilder::new(Direction::Directed, 3);
/// b.add_weighted_edge(0, 1, 2.0);
/// b.add_weighted_edge(0, 2, 0.5);
/// b.add_weighted_edge(1, 2, 4.0);
/// let g = b.build().unwrap();
///
/// let csc = CscStructure::build(&g);
/// assert_eq!(csc.in_neighbors(2), &[0, 1]);
/// assert_eq!(csc.dangling(), &[2]);
///
/// // The arc weights in CSC order, parallel to `in_sources`.
/// assert_eq!(csc.in_weights(&g), Some(&[2.0, 0.5, 4.0][..]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CscStructure {
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources` for node `v`.
    in_offsets: Vec<usize>,
    /// Source endpoint of every incoming arc, grouped by destination.
    in_sources: Vec<NodeId>,
    /// Arc weights parallel to `in_sources` (weighted graphs only).
    ///
    /// Kept behind a [`OnceLock`] so a structure shared between engines
    /// (`Arc<CscStructure>`) fills it lazily — [`CscStructure::in_weights`]
    /// takes `&self`, every sharer sees the one build, and structures that
    /// only ever serve models ignoring arc weights never pay the `O(E)`
    /// copy. Once filled, [`CscStructure::patched`] carries it forward.
    in_weights: OnceLock<Vec<f64>>,
    /// Nodes with no out-arcs.
    dangling: Vec<NodeId>,
    num_nodes: usize,
    /// `in_offsets` narrowed to `u32`, present whenever the arc count fits
    /// (see [`narrow_offsets`]). The pull kernels stream these instead of
    /// the wide offsets, halving the per-row index bytes; structures past
    /// `u32::MAX` arcs stay on the wide path.
    narrow_in_offsets: Option<Vec<u32>>,
    /// The node permutation this structure was built under (see
    /// [`CscStructure::with_layout`]); `None` for native order. Carried so
    /// serving layers can translate ids at the boundary, and propagated
    /// through [`CscStructure::patched`].
    permutation: Option<Arc<NodePermutation>>,
}

impl CscStructure {
    /// Build the transpose in a single pass over the CSR arc array.
    ///
    /// Cost: `O(V + E)` time, using the in-degrees the graph already caches
    /// for the counting sort — no per-arc re-counting pass.
    pub fn build(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        let m = graph.num_arcs();
        let (offsets, targets, _) = graph.parts();

        let mut in_offsets = Vec::with_capacity(n + 1);
        in_offsets.push(0usize);
        let mut acc = 0usize;
        for v in 0..n {
            acc += graph.in_degree(v as NodeId) as usize;
            in_offsets.push(acc);
        }
        debug_assert_eq!(acc, m);

        let mut cursor: Vec<usize> = in_offsets[..n].to_vec();
        let mut in_sources = vec![0 as NodeId; m];
        let mut dangling = Vec::new();
        for v in 0..n {
            let (s, e) = (offsets[v], offsets[v + 1]);
            if s == e {
                dangling.push(v as NodeId);
                continue;
            }
            for &t in &targets[s..e] {
                let t = t as usize;
                in_sources[cursor[t]] = v as NodeId;
                cursor[t] += 1;
            }
        }
        let narrow_in_offsets = narrow_offsets(&in_offsets).ok();
        Self {
            in_offsets,
            in_sources,
            in_weights: OnceLock::new(),
            dangling,
            num_nodes: n,
            narrow_in_offsets,
            permutation: None,
        }
    }

    /// Build the transpose under a cache-aware node [`Layout`]: permute the
    /// graph into internal order once, build the CSC over the permuted
    /// graph, and record the permutation on the structure.
    ///
    /// Returns the **internal-order** graph alongside the structure — the
    /// engine stack must run on that graph (its node `i` is external node
    /// [`NodePermutation::to_external`]`(i)`). External ids never change:
    /// callers translate per-node vectors and deltas at the boundary via
    /// [`CscStructure::permutation`]. [`Layout::Baseline`] returns a plain
    /// clone + [`CscStructure::build`] with no permutation attached.
    ///
    /// # Errors
    /// Propagates [`NodePermutation::permute_graph`] errors.
    pub fn with_layout(graph: &CsrGraph, layout: Layout) -> Result<(CsrGraph, CscStructure)> {
        match NodePermutation::for_layout(graph, layout) {
            None => Ok((graph.clone(), Self::build(graph))),
            Some(perm) => {
                let internal = perm.permute_graph(graph)?;
                let mut csc = Self::build(&internal);
                csc.permutation = Some(Arc::new(perm));
                Ok((internal, csc))
            }
        }
    }

    /// Drop the narrow (`u32`) offsets copy, forcing kernels onto the wide
    /// (`usize`) path. A benchmarking/testing aid for measuring the
    /// narrow-index win; a later [`CscStructure::patched`] re-narrows (the
    /// patched result must stay bit-identical to a fresh build).
    pub fn without_narrow_index(mut self) -> Self {
        self.narrow_in_offsets = None;
        self
    }

    /// Incremental maintenance: derive the transpose of `new_graph` from
    /// this structure plus the [`ArcDelta`] separating the two graphs,
    /// instead of rebuilding from scratch.
    ///
    /// What is reused and what is recomputed:
    ///
    /// * `in_offsets` and `in_sources` — every run of destinations between
    ///   two edited ones is one span copy (one `extend_from_slice` of its
    ///   sources, its offsets shifted by a constant; no per-node or per-arc
    ///   work); edited destinations merge their old span with the delta;
    /// * the CSC weights, when this structure has them filled — copied and
    ///   merged alongside `in_sources`; then each inserted and re-weighted
    ///   arc is written at its CSC slot, found by binary search in the
    ///   destination's sorted span, and so is each arc whose stored value
    ///   the uniform fallback changed (every arc of a delta source whose
    ///   weights are now all 0, the zero-weight arcs of the other delta
    ///   sources). A re-weight-only delta therefore yields a new structure
    ///   too;
    /// * the dangling list — patched: only sources appearing in the delta
    ///   are re-examined.
    ///
    /// The result is bit-identical to `CscStructure::build(new_graph)` —
    /// with the CSC weights filled on the result exactly when they were
    /// filled here (property-tested in `tests/delta_props.rs`).
    ///
    /// # Errors
    /// Returns [`GraphError::Snapshot`] when the delta does not actually
    /// connect this structure's graph to `new_graph`: node/arc count
    /// mismatch, an edit referencing a node out of range, a deleted arc
    /// that does not exist in the old structure (or is still present in
    /// the new graph), or an inserted or re-weighted arc missing from the
    /// new graph. The per-arc presence checks assume simple-graph
    /// semantics (no parallel arcs among edited pairs), which
    /// [`DeltaGraph`](crate::delta::DeltaGraph) guarantees.
    pub fn patched(&self, new_graph: &CsrGraph, delta: &ArcDelta) -> Result<CscStructure> {
        let n = self.num_nodes;
        // Node growth is append-only: a delta may add ids at the tail
        // (they have no old in-span), never reorder or shrink. Removal
        // tombstones at the DeltaGraph layer, so the id space only grows.
        let n_new = n + delta.added_nodes() as usize;
        if new_graph.num_nodes() != n_new {
            return Err(GraphError::Snapshot(format!(
                "patched: delta implies {} nodes but the new graph has {}",
                n_new,
                new_graph.num_nodes()
            )));
        }
        let expected_arcs = (self.num_arcs() + delta.inserted.len())
            .checked_sub(delta.deleted.len())
            .ok_or_else(|| GraphError::Snapshot("patched: delta deletes too many arcs".into()))?;
        if new_graph.num_arcs() != expected_arcs {
            return Err(GraphError::Snapshot(format!(
                "patched: delta implies {} arcs but the new graph has {}",
                expected_arcs,
                new_graph.num_arcs()
            )));
        }
        // Per-arc validation: the aggregate count check cannot catch a
        // delta that names the wrong arcs (the merge below would then
        // silently build a corrupt transpose in release builds).
        let reweighted = delta.reweighted.iter().map(|&(s, t, _, _)| (s, t));
        for (s, t) in delta
            .inserted
            .iter()
            .chain(&delta.deleted)
            .copied()
            .chain(reweighted.clone())
        {
            if (s as usize) >= n_new || (t as usize) >= n_new {
                return Err(GraphError::Snapshot(format!(
                    "patched: delta arc {s} -> {t} is out of range for {n_new} nodes"
                )));
            }
        }
        for (s, t) in delta.inserted.iter().copied().chain(reweighted) {
            if !new_graph.has_arc(s, t) {
                return Err(GraphError::Snapshot(format!(
                    "patched: inserted or re-weighted arc {s} -> {t} is missing from the new graph"
                )));
            }
        }
        for &(s, t) in &delta.deleted {
            if new_graph.has_arc(s, t) {
                return Err(GraphError::Snapshot(format!(
                    "patched: deleted arc {s} -> {t} is still present in the new graph"
                )));
            }
        }

        // Per-destination edit lists, sorted by (target, source). The delta
        // arrives sorted by (source, target), so a re-sort is needed.
        let mut ins: Vec<(NodeId, NodeId)> = delta.inserted.iter().map(|&(s, t)| (t, s)).collect();
        let mut del: Vec<(NodeId, NodeId)> = delta.deleted.iter().map(|&(s, t)| (t, s)).collect();
        ins.sort_unstable();
        del.sort_unstable();

        // in_offsets, in_sources (and the weights, when filled): every run
        // of destinations between edited ones is one span copy; edited
        // destinations merge their old span with the delta.
        let m = new_graph.num_arcs();
        let old_weights = self.in_weights.get().filter(|_| new_graph.is_weighted());
        let mut in_offsets = Vec::with_capacity(n_new + 1);
        in_offsets.push(0usize);
        let mut in_sources: Vec<NodeId> = Vec::with_capacity(m);
        let mut in_weights: Vec<f64> =
            Vec::with_capacity(if old_weights.is_some() { m } else { 0 });
        let (mut ii, mut di) = (0usize, 0usize);
        let mut next = 0usize;
        loop {
            let edited = [ins.get(ii), del.get(di)]
                .into_iter()
                .flatten()
                .map(|&(t, _)| t)
                .min();
            let stop = edited.map_or(n_new, |t| t as usize);
            copy_rows(
                (
                    &self.in_offsets,
                    &self.in_sources,
                    old_weights.map(Vec::as_slice),
                ),
                next..stop.min(n),
                (
                    &mut in_offsets,
                    &mut in_sources,
                    old_weights.map(|_| &mut in_weights),
                ),
            );
            // Grown destinations without in-arcs.
            in_offsets.resize(
                in_offsets.len() + stop.saturating_sub(next.max(n)),
                in_sources.len(),
            );
            let Some(v) = edited else { break };
            let span = if (v as usize) < n {
                self.in_offsets[v as usize]..self.in_offsets[v as usize + 1]
            } else {
                0..0
            };
            let ins_end = ii + ins[ii..].iter().take_while(|e| e.0 == v).count();
            let del_end = di + del[di..].iter().take_while(|e| e.0 == v).count();
            let old_w = old_weights.map(|w| &w[span.clone()]);
            let old = self.in_sources[span].iter().enumerate();
            merge_row(
                old.map(|(k, &src)| (src, old_w.map_or(0.0, |w| w[k]))),
                // Inserted arcs get their weight in the rewrite below
                // (their sources are delta sources).
                ins[ii..ins_end].iter().map(|&(_, src)| (src, 0.0)),
                del[di..del_end].iter().map(|&(_, src)| src),
                std::iter::empty(),
                |src, w| {
                    in_sources.push(src);
                    if old_weights.is_some() {
                        in_weights.push(w);
                    }
                },
            )
            .map_err(|why| {
                GraphError::Snapshot(format!("patched: in-arcs of destination {v}: {why}"))
            })?;
            in_offsets.push(in_sources.len());
            (ii, di) = (ins_end, del_end);
            next = v as usize + 1;
        }
        debug_assert_eq!(in_sources.len(), m);

        // Dangling list (and the weight rewrite): only sources named by
        // the delta — plus freshly appended ids (isolated until arcs
        // reference them) — can change state.
        let mut changed: Vec<NodeId> = delta
            .inserted
            .iter()
            .chain(&delta.deleted)
            .map(|&(s, _)| s)
            .chain(delta.reweighted.iter().map(|&(s, _, _, _)| s))
            .chain(n as NodeId..n_new as NodeId)
            .collect();
        changed.sort_unstable();
        changed.dedup();
        let mut dangling: Vec<NodeId> = self
            .dangling
            .iter()
            .copied()
            .filter(|v| changed.binary_search(v).is_err())
            .chain(
                changed
                    .iter()
                    .copied()
                    .filter(|&v| new_graph.out_degree(v) == 0),
            )
            .collect();
        dangling.sort_unstable();

        let out = CscStructure {
            narrow_in_offsets: narrow_offsets(&in_offsets).ok(),
            in_offsets,
            in_sources,
            in_weights: OnceLock::new(),
            dangling,
            num_nodes: n_new,
            permutation: self.permutation.clone(),
        };
        if old_weights.is_some() {
            let mut write = |s: NodeId, t: NodeId, w: f64| -> Result<()> {
                let span = out.in_offsets[t as usize]..out.in_offsets[t as usize + 1];
                let k = out.in_sources[span.clone()]
                    .binary_search(&s)
                    .map_err(|_| {
                        GraphError::Snapshot(format!(
                            "patched: arc {s} -> {t} has no slot in the merged structure"
                        ))
                    })?;
                in_weights[span.start + k] = w;
                Ok(())
            };
            // Delta sources whose out-weights are now all 0 store 1 on
            // every arc (the uniform fallback).
            let uniform: Vec<NodeId> = changed
                .iter()
                .copied()
                .filter(|&s| !weights_of(new_graph, s).iter().any(|&w| w > 0.0))
                .collect();
            let edits = delta.inserted.iter().zip(&delta.inserted_weights);
            let edits = edits.map(|(&(s, t), &w)| (s, t, w));
            for (s, t, w) in edits.chain(delta.reweighted.iter().map(|&(s, t, _, w)| (s, t, w))) {
                if uniform.binary_search(&s).is_err() {
                    write(s, t, w)?;
                }
            }
            // The other delta sources store their raw weights. Their
            // zero-weight arcs stored 1 if the source was uniform before
            // the batch, so they are rewritten too.
            for &s in &changed {
                let is_uniform = uniform.binary_search(&s).is_ok();
                for (&t, &w) in new_graph.neighbors(s).iter().zip(weights_of(new_graph, s)) {
                    if is_uniform || w == 0.0 {
                        write(s, t, if is_uniform { 1.0 } else { 0.0 })?;
                    }
                }
            }
            out.in_weights
                .set(in_weights)
                .expect("a fresh structure has no weights yet");
        }
        Ok(out)
    }

    /// The arc weights in CSC order, parallel to [`CscStructure::in_sources`]
    /// — what a pull over the weight-normalized transition `w(i→j)/Θ_i`
    /// gathers. A source whose out-weights sum to 0 stores weight 1 on each
    /// of its arcs: weight-normalized transitions fall back to uniform
    /// there. `None` on unweighted graphs.
    ///
    /// Filled on the first call, in one pass over `graph`'s CSR arcs
    /// (`graph` must be the graph this structure describes). Takes
    /// `&self`: a structure shared between engines behind an `Arc` fills
    /// the weights exactly once, and every sharer observes them.
    ///
    /// # Panics
    /// Panics when `graph` has a different node or arc count.
    pub fn in_weights(&self, graph: &CsrGraph) -> Option<&[f64]> {
        let (offsets, targets, weights) = graph.parts();
        let weights = weights?;
        let n = self.num_nodes;
        assert_eq!(graph.num_nodes(), n, "CSC weights: node count");
        assert_eq!(graph.num_arcs(), self.num_arcs(), "CSC weights: arc count");
        let filled = self.in_weights.get_or_init(|| {
            // Same slot assignment as `build`: sources in CSR order, one
            // cursor per destination.
            let mut cursor: Vec<usize> = self.in_offsets[..n].to_vec();
            let mut out = vec![0.0; targets.len()];
            for v in 0..n {
                let (s, e) = (offsets[v], offsets[v + 1]);
                let uniform = !weights[s..e].iter().any(|&w| w > 0.0);
                for (&t, &w) in targets[s..e].iter().zip(&weights[s..e]) {
                    let t = t as usize;
                    out[cursor[t]] = if uniform { 1.0 } else { w };
                    cursor[t] += 1;
                }
            }
            out
        });
        Some(filled)
    }

    /// `true` once the CSC weights are filled (see
    /// [`CscStructure::in_weights`]); [`CscStructure::patched`] then
    /// carries them forward.
    pub fn has_in_weights(&self) -> bool {
        self.in_weights.get().is_some()
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of arcs covered.
    pub fn num_arcs(&self) -> usize {
        self.in_sources.len()
    }

    /// CSC offsets array (`num_nodes + 1` entries).
    pub fn in_offsets(&self) -> &[usize] {
        &self.in_offsets
    }

    /// CSC source array, parallel to any CSC-ordered per-arc value array.
    pub fn in_sources(&self) -> &[NodeId] {
        &self.in_sources
    }

    /// The `u32` copy of the offsets, when the arc count fits the narrow
    /// index (see [`narrow_offsets`]); `None` past `u32::MAX` arcs or after
    /// [`CscStructure::without_narrow_index`].
    pub fn narrow_in_offsets(&self) -> Option<&[u32]> {
        self.narrow_in_offsets.as_deref()
    }

    /// `true` when the kernels can stream `u32` offsets for this structure.
    pub fn has_narrow_index(&self) -> bool {
        self.narrow_in_offsets.is_some()
    }

    /// The node permutation this structure was built under, or `None` for
    /// native order (see [`CscStructure::with_layout`]).
    pub fn permutation(&self) -> Option<&Arc<NodePermutation>> {
        self.permutation.as_ref()
    }

    /// Nodes with no out-arcs, ascending.
    pub fn dangling(&self) -> &[NodeId] {
        &self.dangling
    }

    /// Sources of the arcs pointing at `v`.
    ///
    /// # Panics
    /// Panics when `v` is out of range.
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }
}

/// Out-weights of `v` on a weighted graph.
fn weights_of(graph: &CsrGraph, v: NodeId) -> &[f64] {
    graph.neighbor_weights(v).expect("weighted graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::Direction;
    use crate::generators::barabasi_albert;

    fn sample() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 2, 3 dangling; node 2 is the in-degree hub.
        let mut b = GraphBuilder::new(Direction::Directed, 4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.build().unwrap()
    }

    #[test]
    fn transpose_matches_in_arcs() {
        let g = sample();
        let t = CscStructure::build(&g);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_arcs(), 3);
        assert_eq!(t.in_neighbors(0), &[] as &[NodeId]);
        assert_eq!(t.in_neighbors(1), &[0]);
        assert_eq!(t.in_neighbors(2), &[0, 1]);
        assert_eq!(t.dangling(), &[2, 3]);
    }

    #[test]
    fn patched_matches_fresh_build() {
        use crate::delta::{DeltaGraph, EdgeBatch};
        let g = barabasi_albert(200, 3, 17).unwrap();
        let csc = CscStructure::build(&g);
        let mut dg = DeltaGraph::new(g.clone()).unwrap();
        let mut batch = EdgeBatch::new();
        // Delete a few existing edges and insert a few new ones.
        batch.delete(0, g.neighbors(0)[0]);
        batch.delete(5, g.neighbors(5)[0]);
        for (u, v) in [(1u32, 150u32), (7, 199), (42, 43)] {
            if !g.has_arc(u, v) {
                batch.insert(u, v);
            }
        }
        let out = dg.apply_batch(&batch).unwrap();
        let g2 = dg.graph().clone();
        let patched = csc.patched(&g2, &out.delta).unwrap();
        assert_eq!(patched, CscStructure::build(&g2));
    }

    #[test]
    fn patched_carries_filled_weights_only() {
        use crate::delta::{DeltaGraph, EdgeBatch};
        let mut b = GraphBuilder::new(Direction::Directed, 6);
        for (u, v, w) in [
            (0, 1, 1.0),
            (0, 2, 2.0),
            (1, 2, 0.0),
            (2, 3, 3.0),
            (4, 5, 1.5),
        ] {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build().unwrap();
        let unfilled = CscStructure::build(&g);
        let filled = CscStructure::build(&g);
        filled.in_weights(&g);
        let mut dg = DeltaGraph::new(g.clone()).unwrap();
        let mut batch = EdgeBatch::new();
        // A weighted insert, a re-weight, a delete, and a positive weight
        // at the zero-sum source 1 (its uniform fallback ends).
        batch
            .insert_weighted(3, 0, 0.25)
            .set_weight(0, 2, 5.0)
            .delete(4, 5)
            .insert_weighted(1, 5, 2.0);
        let out = dg.apply_batch(&batch).unwrap();
        let g2 = dg.graph().clone();
        let fresh = CscStructure::build(&g2);
        // Weights are carried forward only when they were filled.
        assert_eq!(unfilled.patched(&g2, &out.delta).unwrap(), fresh);
        let patched = filled.patched(&g2, &out.delta).unwrap();
        fresh.in_weights(&g2);
        assert_eq!(patched, fresh);
        assert_eq!(
            patched.in_weights(&g2),
            Some(&[0.25, 1.0, 5.0, 0.0, 3.0, 2.0][..])
        );
        // A re-weight-only delta patches the weights too: zeroing source
        // 1's one positive weight restarts its uniform fallback.
        let mut batch = EdgeBatch::new();
        batch.set_weight(1, 5, 0.0).set_weight(2, 3, 0.5);
        let out = dg.apply_batch(&batch).unwrap();
        let g3 = dg.graph().clone();
        assert_eq!(out.delta.reweighted.len(), 2);
        let repatched = patched.patched(&g3, &out.delta).unwrap();
        let fresh = CscStructure::build(&g3);
        fresh.in_weights(&g3);
        assert_eq!(repatched, fresh);
        assert_eq!(
            repatched.in_weights(&g3),
            Some(&[0.25, 1.0, 5.0, 1.0, 0.5, 1.0][..])
        );
    }

    #[test]
    fn patched_handles_node_growth_and_removal() {
        use crate::delta::{DeltaGraph, EdgeBatch};
        let g = barabasi_albert(100, 3, 41).unwrap();
        let csc = CscStructure::build(&g);
        let mut dg = DeltaGraph::new(g.clone()).unwrap();
        let mut batch = EdgeBatch::new();
        // Grow by 3: connect one new node, leave two isolated; tombstone
        // an existing node.
        batch
            .add_nodes(3)
            .insert(100, 7)
            .insert(12, 101)
            .remove_node(5);
        let out = dg.apply_batch(&batch).unwrap();
        let g2 = dg.graph().clone();
        assert_eq!(g2.num_nodes(), 103);
        let patched = csc.patched(&g2, &out.delta).unwrap();
        assert_eq!(patched, CscStructure::build(&g2));
        // Isolated fresh ids and the tombstoned node are dangling.
        assert!(patched.dangling().contains(&101) || g2.out_degree(101) > 0);
        assert!(patched.dangling().contains(&102));
        assert!(patched.dangling().contains(&5));
        // A stale (count-mismatched) growth claim is rejected.
        let mut wrong = out.delta.clone();
        wrong.nodes_after += 1;
        assert!(matches!(
            csc.patched(&g2, &wrong).unwrap_err(),
            crate::error::GraphError::Snapshot(_)
        ));
    }

    #[test]
    fn patched_creates_and_heals_dangling() {
        // 0 -> 1 only; deleting it makes 0 dangling, inserting 1 -> 0
        // heals 1.
        let mut b = GraphBuilder::new(Direction::Directed, 2);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let csc = CscStructure::build(&g);
        assert_eq!(csc.dangling(), &[1]);

        let g2 = GraphBuilder::new(Direction::Directed, 2).build().unwrap();
        let delta = crate::delta::ArcDelta {
            inserted: vec![],
            deleted: vec![(0, 1)],
            deleted_weights: vec![1.0],
            ..Default::default()
        };
        let patched = csc.patched(&g2, &delta).unwrap();
        assert_eq!(patched, CscStructure::build(&g2));
        assert_eq!(patched.dangling(), &[0, 1]);
    }

    #[test]
    fn patched_rejects_inconsistent_deltas() {
        let g = sample();
        let csc = CscStructure::build(&g);
        // Arc-count mismatch.
        let err = csc
            .patched(
                &g,
                &crate::delta::ArcDelta {
                    inserted: vec![(3, 0)],
                    inserted_weights: vec![1.0],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::GraphError::Snapshot(_)));
        // Deleting an arc that does not exist.
        let mut b = GraphBuilder::new(Direction::Directed, 4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g2 = b.build().unwrap();
        let err = csc
            .patched(
                &g2,
                &crate::delta::ArcDelta {
                    deleted: vec![(3, 2)],
                    deleted_weights: vec![1.0],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::GraphError::Snapshot(_)));
    }

    #[test]
    fn patched_rejects_count_matching_but_wrong_delta() {
        // sample(): arcs 0->1, 0->2, 1->2. Swap 1->2 for 1->3: the new
        // graph gained (1, 3), but the delta claims (1, 0) was inserted —
        // counts match, content does not.
        let g = sample();
        let csc = CscStructure::build(&g);
        let mut b = GraphBuilder::new(Direction::Directed, 4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        let g2 = b.build().unwrap();
        let err = csc
            .patched(
                &g2,
                &crate::delta::ArcDelta {
                    inserted: vec![(1, 0)],
                    inserted_weights: vec![1.0],
                    deleted: vec![(1, 2)],
                    deleted_weights: vec![1.0],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::GraphError::Snapshot(_)));
        // The honest delta succeeds.
        let ok = csc
            .patched(
                &g2,
                &crate::delta::ArcDelta {
                    inserted: vec![(1, 3)],
                    inserted_weights: vec![1.0],
                    deleted: vec![(1, 2)],
                    deleted_weights: vec![1.0],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(ok, CscStructure::build(&g2));
        // Out-of-range edits are rejected, not panicked on.
        let err = csc
            .patched(
                &g2,
                &crate::delta::ArcDelta {
                    inserted: vec![(1, 9)],
                    inserted_weights: vec![1.0],
                    deleted: vec![(1, 2)],
                    deleted_weights: vec![1.0],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::GraphError::Snapshot(_)));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = GraphBuilder::new(Direction::Directed, 0).build().unwrap();
        let t = CscStructure::build(&g);
        assert_eq!(t.num_nodes(), 0);

        let g1 = GraphBuilder::new(Direction::Directed, 1).build().unwrap();
        let t1 = CscStructure::build(&g1);
        assert_eq!(t1.dangling(), &[0]);
    }

    #[test]
    fn with_layout_matches_build_over_permuted_graph() {
        use crate::permute::Layout;
        let g = barabasi_albert(250, 3, 23).unwrap();
        // Baseline: identity, no permutation attached.
        let (bg, bcsc) = CscStructure::with_layout(&g, Layout::Baseline).unwrap();
        assert_eq!(bg, g);
        assert!(bcsc.permutation().is_none());
        assert_eq!(bcsc, CscStructure::build(&g));
        for layout in [Layout::DegreeDescending, Layout::ReverseCuthillMcKee] {
            let (pg, csc) = CscStructure::with_layout(&g, layout).unwrap();
            let perm = csc.permutation().expect("layout attaches a permutation");
            // The CSC topology equals a fresh build over the internal graph.
            assert_eq!(csc.in_offsets(), CscStructure::build(&pg).in_offsets());
            assert_eq!(csc.in_sources(), CscStructure::build(&pg).in_sources());
            // In-neighbor sets map through the permutation.
            for v in g.nodes() {
                let mut expect: Vec<u32> = CscStructure::build(&g)
                    .in_neighbors(v)
                    .iter()
                    .map(|&s| perm.to_internal(s))
                    .collect();
                expect.sort_unstable();
                assert_eq!(csc.in_neighbors(perm.to_internal(v)), expect.as_slice());
            }
        }
    }

    #[test]
    fn narrow_index_present_and_droppable() {
        let g = sample();
        let t = CscStructure::build(&g);
        assert!(t.has_narrow_index(), "3 arcs narrow trivially");
        let narrow = t.narrow_in_offsets().unwrap();
        assert_eq!(narrow.len(), t.in_offsets().len());
        for (w, &n) in t.in_offsets().iter().zip(narrow) {
            assert_eq!(*w, n as usize);
        }
        let wide = t.without_narrow_index();
        assert!(!wide.has_narrow_index());
        assert!(wide.narrow_in_offsets().is_none());
    }

    #[test]
    fn patched_propagates_permutation_and_renarrow() {
        use crate::delta::{DeltaGraph, EdgeBatch};
        use crate::permute::Layout;
        let g = barabasi_albert(120, 3, 31).unwrap();
        let (pg, csc) = CscStructure::with_layout(&g, Layout::DegreeDescending).unwrap();
        let perm = csc.permutation().unwrap().clone();
        // Edit the *internal-order* graph, as the serving layer does.
        let mut dg = DeltaGraph::new(pg.clone()).unwrap();
        let mut batch = EdgeBatch::new();
        batch.delete(0, pg.neighbors(0)[0]).insert(3, 117);
        let out = dg.apply_batch(&batch).unwrap();
        let g2 = dg.graph().clone();
        let patched = csc.patched(&g2, &out.delta).unwrap();
        // The permutation rides along and the narrow index is recomputed.
        assert!(Arc::ptr_eq(patched.permutation().unwrap(), &perm));
        assert!(patched.has_narrow_index());
        assert_eq!(
            patched.narrow_in_offsets().unwrap().last().copied(),
            Some(g2.num_arcs() as u32)
        );
        // Even a wide-forced structure re-narrows on patch (bit-identity
        // with fresh builds is what the delta property tests assert).
        let wide = CscStructure::build(&pg).without_narrow_index();
        let repatched = wide.patched(&g2, &out.delta).unwrap();
        assert_eq!(repatched, CscStructure::build(&g2));
    }
}
