//! Compressed sparse row (CSR) graph storage.
//!
//! [`CsrGraph`] is the immutable workhorse of the whole library. Nodes are
//! dense `u32` ids in `0..num_nodes()`. The out-adjacency of every node is a
//! contiguous slice of a single `targets` array, addressed through an
//! `offsets` array of length `num_nodes() + 1` — the classic CSR layout,
//! chosen because the degree de-coupled transition construction repeatedly
//! scans whole neighborhoods and benefits from the cache-friendly contiguous
//! layout (see DESIGN.md).
//!
//! Undirected graphs are stored as symmetric directed graphs (every edge
//! appears as two arcs); [`CsrGraph::num_edges`] accounts for that.

use crate::delta::ArcDelta;
use crate::error::{GraphError, Result};
use std::ops::Range;

/// Node identifier. Dense, `0..n`.
pub type NodeId = u32;

/// Whether a graph's edges are directed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Every stored arc is an independent directed edge.
    Directed,
    /// Arcs come in symmetric pairs; degree and edge counts reflect that.
    Undirected,
}

/// An immutable graph in compressed sparse row form.
///
/// Construct via [`crate::builder::GraphBuilder`], the generators in
/// [`crate::generators`], or a bipartite [`crate::projection`].
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    direction: Direction,
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`weights` for node `v`.
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    /// Parallel to `targets` when present.
    weights: Option<Vec<f64>>,
    /// In-degree per node (number of arcs pointing at the node). For
    /// undirected graphs this equals the out-degree.
    in_degrees: Vec<u32>,
    /// Every row is sorted ascending, so arc lookups binary-search.
    /// Computed once in [`CsrGraph::from_csr`]; the builder, the
    /// permutation and [`CsrGraph::patched`] always produce sorted rows.
    sorted: bool,
}

impl CsrGraph {
    /// Build directly from CSR arrays. Intended for internal use and tests;
    /// most callers should use [`crate::builder::GraphBuilder`].
    ///
    /// # Errors
    /// Returns an error when the arrays are inconsistent (offset length,
    /// monotonicity, target range, weight length/validity).
    pub fn from_csr(
        direction: Direction,
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        weights: Option<Vec<f64>>,
    ) -> Result<Self> {
        if offsets.is_empty() {
            return Err(GraphError::Snapshot(
                "offsets array must have length n+1 >= 1".into(),
            ));
        }
        let n = offsets.len() - 1;
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyNodes(n));
        }
        if offsets[0] != 0 || *offsets.last().expect("non-empty") != targets.len() {
            return Err(GraphError::Snapshot(
                "offsets must start at 0 and end at targets.len()".into(),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Snapshot(
                "offsets must be non-decreasing".into(),
            ));
        }
        if let Some(&bad) = targets.iter().find(|&&t| (t as usize) >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                num_nodes: n as u32,
            });
        }
        if let Some(w) = &weights {
            if w.len() != targets.len() {
                return Err(GraphError::Snapshot("weights must parallel targets".into()));
            }
            if let Some(&bad) = w.iter().find(|x| !x.is_finite() || **x < 0.0) {
                return Err(GraphError::InvalidWeight(bad));
            }
        }
        let mut in_degrees = vec![0u32; n];
        for &t in &targets {
            in_degrees[t as usize] += 1;
        }
        let sorted = rows_sorted(&offsets, &targets);
        Ok(Self {
            direction,
            offsets,
            targets,
            weights,
            in_degrees,
            sorted,
        })
    }

    /// Whether this graph is directed or undirected.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// `true` when the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.direction == Direction::Directed
    }

    /// `true` when the graph stores per-edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (directed adjacency entries). For an undirected
    /// graph every edge contributes two arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of logical edges: arcs for a directed graph, arcs/2 for an
    /// undirected graph.
    #[inline]
    pub fn num_edges(&self) -> usize {
        match self.direction {
            Direction::Directed => self.num_arcs(),
            Direction::Undirected => self.num_arcs() / 2,
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(|v| v as NodeId)
    }

    /// Out-neighbors of `v` as a contiguous slice.
    ///
    /// # Panics
    /// Panics when `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (s, e) = self.range(v);
        &self.targets[s..e]
    }

    /// Edge weights parallel to [`Self::neighbors`], or `None` for an
    /// unweighted graph.
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> Option<&[f64]> {
        let (s, e) = self.range(v);
        self.weights.as_ref().map(|w| &w[s..e])
    }

    /// Out-degree of `v` (number of out-arcs). For undirected graphs this is
    /// the ordinary degree `deg(v)` of the paper.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> u32 {
        let (s, e) = self.range(v);
        (e - s) as u32
    }

    /// In-degree of `v` (number of arcs pointing at `v`).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> u32 {
        self.in_degrees[v as usize]
    }

    /// Degree used by the paper's kernels: `deg(v)` for undirected graphs and
    /// `outdeg(v)` for directed graphs (paper §3.2.1 vs §3.2.2).
    #[inline]
    pub fn kernel_degree(&self, v: NodeId) -> u32 {
        self.out_degree(v)
    }

    /// Total out-weight `Θ(v) = Σ_h w(v→h)` (paper §3.2.3). For an
    /// unweighted graph every arc counts 1, so `Θ(v) = outdeg(v)`.
    pub fn out_weight(&self, v: NodeId) -> f64 {
        match self.neighbor_weights(v) {
            Some(w) => w.iter().sum(),
            None => f64::from(self.out_degree(v)),
        }
    }

    /// Iterate all arcs as `(source, target)` pairs.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |v| self.neighbors(v).iter().map(move |&t| (v, t)))
    }

    /// Iterate all arcs with weights (weight = 1.0 for unweighted graphs).
    pub fn weighted_arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |v| {
            let ns = self.neighbors(v);
            let ws = self.neighbor_weights(v);
            (0..ns.len()).map(move |i| {
                let w = ws.map_or(1.0, |w| w[i]);
                (v, ns[i], w)
            })
        })
    }

    /// `true` when an arc `u -> v` exists (`false` for a `u` out of
    /// range). `O(log deg(u))` when the rows are sorted (every graph this
    /// crate builds), `O(deg(u))` otherwise.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.arc_index(u, v).is_some()
    }

    /// Weight of arc `u -> v`, or `None` when the arc is absent. Unweighted
    /// graphs report 1.0 for every present arc. Costs as
    /// [`CsrGraph::has_arc`].
    pub fn arc_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let k = self.arc_index(u, v)?;
        Some(self.neighbor_weights(u).map_or(1.0, |ws| ws[k]))
    }

    /// Position of `v` in `u`'s row.
    fn arc_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        if u as usize >= self.num_nodes() {
            return None;
        }
        let ns = self.neighbors(u);
        if self.sorted {
            ns.binary_search(&v).ok()
        } else {
            ns.iter().position(|&t| t == v)
        }
    }

    /// Nodes with no out-arcs ("dangling" nodes in PageRank terms).
    pub fn dangling_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Sum of all arc weights (arc count for unweighted graphs).
    pub fn total_arc_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().sum(),
            None => self.num_arcs() as f64,
        }
    }

    /// Relabel the graph under a node permutation (see
    /// [`crate::permute::NodePermutation::permute_graph`]): node `v`
    /// becomes `perm.to_internal(v)`, adjacency re-sorted, weights
    /// following their arcs.
    ///
    /// # Errors
    /// Returns [`GraphError::Snapshot`] when the permutation does not cover
    /// this graph's node count.
    pub fn permuted(&self, perm: &crate::permute::NodePermutation) -> Result<CsrGraph> {
        perm.permute_graph(self)
    }

    /// Strip the weights, yielding the purely structural graph.
    pub fn to_unweighted(&self) -> CsrGraph {
        CsrGraph {
            direction: self.direction,
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: None,
            in_degrees: self.in_degrees.clone(),
            sorted: self.sorted,
        }
    }

    /// Raw CSR parts `(offsets, targets, weights)`, consumed. Used by the
    /// snapshot writer.
    pub fn into_parts(self) -> (Direction, Vec<usize>, Vec<NodeId>, Option<Vec<f64>>) {
        (self.direction, self.offsets, self.targets, self.weights)
    }

    /// Borrowed CSR parts.
    pub fn parts(&self) -> (&[usize], &[NodeId], Option<&[f64]>) {
        (&self.offsets, &self.targets, self.weights.as_deref())
    }

    /// Incremental maintenance: the graph `delta` leads to, derived from
    /// this one instead of rebuilt — the out-adjacency twin of
    /// [`CscStructure::patched`](crate::transpose::CscStructure::patched).
    ///
    /// * every run of sources the delta does not name is one span copy:
    ///   one `extend_from_slice` of its targets (and weights), its row
    ///   ends shifted by a constant;
    /// * each source the delta names (inserted, deleted and re-weighted
    ///   arcs) merges its old row with its edits;
    /// * in-degrees are copied and adjusted once per inserted or deleted
    ///   arc; ids added by growth start at zero.
    ///
    /// No `O(E)` validation or in-degree recount runs: the cost is the
    /// sequential copies plus `O(Δ)` merge work at the edited rows. The
    /// result equals a fresh build of the post-delta arc list
    /// (property-tested in `tests/delta_props.rs`).
    ///
    /// # Errors
    /// [`GraphError::Snapshot`] when the delta does not apply to this
    /// graph: its node counts disagree, an arc list is not strictly sorted
    /// by `(source, target)`, an arc is out of range, a deleted or
    /// re-weighted arc is absent (or named by both lists), or an inserted
    /// arc is already present. [`GraphError::InvalidWeight`] for a new
    /// weight that is not finite and non-negative on a weighted graph.
    /// The checks assume simple-graph semantics (no parallel arcs among
    /// edited pairs), which [`DeltaGraph`](crate::delta::DeltaGraph)
    /// guarantees.
    pub fn patched(&self, delta: &ArcDelta) -> Result<CsrGraph> {
        let n = self.num_nodes();
        if delta.nodes_before as usize != n || delta.nodes_after < delta.nodes_before {
            return Err(GraphError::Snapshot(format!(
                "patched: delta spans {} -> {} nodes but the graph has {n}",
                delta.nodes_before, delta.nodes_after
            )));
        }
        let n_new = delta.nodes_after as usize;
        if delta.inserted_weights.len() != delta.inserted.len() {
            return Err(GraphError::Snapshot(
                "patched: inserted weights must parallel inserted arcs".into(),
            ));
        }
        let rew: Vec<(NodeId, NodeId)> = delta
            .reweighted
            .iter()
            .map(|&(s, t, _, _)| (s, t))
            .collect();
        for arcs in [&delta.inserted, &delta.deleted, &rew] {
            if arcs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(GraphError::Snapshot(
                    "patched: delta arcs must be strictly sorted by (source, target)".into(),
                ));
            }
            if let Some(&(s, t)) = arcs
                .iter()
                .find(|&&(s, t)| s as usize >= n_new || t as usize >= n_new)
            {
                return Err(GraphError::Snapshot(format!(
                    "patched: delta arc {s} -> {t} is out of range for {n_new} nodes"
                )));
            }
        }
        let weighted = self.weights.is_some();
        if weighted {
            let rew_weights = delta.reweighted.iter().map(|r| &r.3);
            let mut new_weights = delta.inserted_weights.iter().chain(rew_weights);
            if let Some(&bad) = new_weights.find(|w| !w.is_finite() || **w < 0.0) {
                return Err(GraphError::InvalidWeight(bad));
            }
        }
        let m = (self.num_arcs() + delta.inserted.len())
            .checked_sub(delta.deleted.len())
            .ok_or_else(|| GraphError::Snapshot("patched: delta deletes too many arcs".into()))?;

        let mut offsets = Vec::with_capacity(n_new + 1);
        offsets.push(0usize);
        let mut targets: Vec<NodeId> = Vec::with_capacity(m);
        let mut weights: Option<Vec<f64>> = weighted.then(|| Vec::with_capacity(m));
        let (mut ii, mut di, mut ri) = (0usize, 0usize, 0usize);
        let mut next = 0usize;
        let mut row: Vec<(NodeId, f64)> = Vec::new();
        loop {
            let edited = [delta.inserted.get(ii), delta.deleted.get(di), rew.get(ri)]
                .into_iter()
                .flatten()
                .map(|&(s, _)| s)
                .min();
            let stop = edited.map_or(n_new, |s| s as usize);
            copy_rows(
                (&self.offsets, &self.targets, self.weights.as_deref()),
                next..stop.min(n),
                (&mut offsets, &mut targets, weights.as_mut()),
            );
            // Grown ids the delta does not name stay isolated.
            offsets.resize(
                offsets.len() + stop.saturating_sub(next.max(n)),
                targets.len(),
            );
            let Some(s) = edited else { break };
            let ins_end = ii + delta.inserted[ii..].iter().take_while(|a| a.0 == s).count();
            let del_end = di + delta.deleted[di..].iter().take_while(|a| a.0 == s).count();
            let rew_end = ri + rew[ri..].iter().take_while(|a| a.0 == s).count();
            // The old row as (target, weight) pairs, sorted for the merge.
            row.clear();
            if (s as usize) < n {
                let ws = self.neighbor_weights(s);
                let ts = self.neighbors(s).iter().enumerate();
                row.extend(ts.map(|(k, &t)| (t, ws.map_or(1.0, |w| w[k]))));
                if !self.sorted {
                    row.sort_by_key(|&(t, _)| t);
                }
            }
            merge_row(
                row.iter().copied(),
                delta.inserted[ii..ins_end]
                    .iter()
                    .zip(&delta.inserted_weights[ii..ins_end])
                    .map(|(&(_, t), &w)| (t, w)),
                delta.deleted[di..del_end].iter().map(|&(_, t)| t),
                delta.reweighted[ri..rew_end]
                    .iter()
                    .map(|&(_, t, _, w)| (t, w)),
                |t, w| {
                    targets.push(t);
                    if let Some(ws) = weights.as_mut() {
                        ws.push(w);
                    }
                },
            )
            .map_err(|why| GraphError::Snapshot(format!("patched: row of source {s}: {why}")))?;
            offsets.push(targets.len());
            (ii, di, ri) = (ins_end, del_end, rew_end);
            next = s as usize + 1;
        }
        debug_assert_eq!(targets.len(), m);

        let mut in_degrees = Vec::with_capacity(n_new);
        in_degrees.extend_from_slice(&self.in_degrees);
        in_degrees.resize(n_new, 0);
        for &(_, t) in &delta.inserted {
            in_degrees[t as usize] += 1;
        }
        for &(_, t) in &delta.deleted {
            in_degrees[t as usize] -= 1;
        }
        // Merged rows come out sorted; untouched rows keep their order.
        let sorted = self.sorted || rows_sorted(&offsets, &targets);
        Ok(CsrGraph {
            direction: self.direction,
            offsets,
            targets,
            weights,
            in_degrees,
            sorted,
        })
    }

    #[inline]
    fn range(&self, v: NodeId) -> (usize, usize) {
        let v = v as usize;
        (self.offsets[v], self.offsets[v + 1])
    }
}

/// `true` when every row of a CSR array is sorted ascending.
fn rows_sorted(offsets: &[usize], targets: &[NodeId]) -> bool {
    offsets
        .windows(2)
        .all(|w| targets[w[0]..w[1]].windows(2).all(|p| p[0] <= p[1]))
}

/// Append rows `rows` of a CSR-shaped array (`offsets` over `values`, with
/// optional parallel `weights`) to the output arrays as one span copy: one
/// `extend_from_slice` of the values and of the weights, and the row ends
/// shifted by a constant. Used by both incremental patches
/// ([`CsrGraph::patched`] and
/// [`CscStructure::patched`](crate::transpose::CscStructure::patched)).
pub(crate) fn copy_rows(
    (offsets, values, weights): (&[usize], &[NodeId], Option<&[f64]>),
    rows: Range<usize>,
    (out_offsets, out_values, out_weights): (
        &mut Vec<usize>,
        &mut Vec<NodeId>,
        Option<&mut Vec<f64>>,
    ),
) {
    if rows.start >= rows.end {
        return;
    }
    let (lo, hi) = (offsets[rows.start], offsets[rows.end]);
    let base = out_values.len();
    out_values.extend_from_slice(&values[lo..hi]);
    if let (Some(out), Some(w)) = (out_weights, weights) {
        out.extend_from_slice(&w[lo..hi]);
    }
    out_offsets.extend(
        offsets[rows.start + 1..=rows.end]
            .iter()
            .map(|&o| o - lo + base),
    );
}

/// Merge one row of a CSR-shaped array — a source's targets, or a
/// destination's sources in the transpose — given as ascending
/// `(neighbor, weight)` pairs, with its edits, each ascending by neighbor:
/// `inserts` and `reweights` as `(neighbor, new weight)`, `deletes` as
/// neighbors. Emits the surviving entries in ascending order; returns why
/// the edits do not fit the row (an inserted entry already present, a
/// deleted or re-weighted entry absent or named twice).
pub(crate) fn merge_row(
    old: impl Iterator<Item = (NodeId, f64)>,
    inserts: impl Iterator<Item = (NodeId, f64)>,
    deletes: impl Iterator<Item = NodeId>,
    reweights: impl Iterator<Item = (NodeId, f64)>,
    mut emit: impl FnMut(NodeId, f64),
) -> std::result::Result<(), String> {
    let mut ins = inserts.peekable();
    let mut del = deletes.peekable();
    let mut rew = reweights.peekable();
    for (t, w) in old {
        while let Some((it, iw)) = ins.next_if(|&(it, _)| it < t) {
            emit(it, iw);
        }
        if ins.peek().is_some_and(|&(it, _)| it == t) {
            return Err(format!("inserted entry {t} is already present"));
        }
        if let Some(&d) = del.peek().filter(|&&d| d < t) {
            return Err(format!("deleted entry {d} is absent"));
        }
        if let Some(&(r, _)) = rew.peek().filter(|&&(r, _)| r < t) {
            return Err(format!("re-weighted entry {r} is absent"));
        }
        let deleted = del.next_if_eq(&t).is_some();
        match rew.next_if(|&(r, _)| r == t) {
            Some(_) if deleted => return Err(format!("entry {t} is both deleted and re-weighted")),
            Some((_, nw)) => emit(t, nw),
            None if !deleted => emit(t, w),
            None => {}
        }
    }
    for (it, iw) in ins {
        emit(it, iw);
    }
    if let Some(d) = del.next() {
        return Err(format!("deleted entry {d} is absent"));
    }
    if let Some((r, _)) = rew.next() {
        return Err(format!("re-weighted entry {r} is absent"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2 stored undirected.
    fn path3() -> CsrGraph {
        // arcs: 0->1, 1->0, 1->2, 2->1
        CsrGraph::from_csr(
            Direction::Undirected,
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            None,
        )
        .expect("valid csr")
    }

    #[test]
    fn basic_counts() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_directed());
        assert!(!g.is_weighted());
    }

    #[test]
    fn neighbors_and_degrees() {
        let g = path3();
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.kernel_degree(1), 2);
    }

    #[test]
    fn directed_counts_differ() {
        let g = CsrGraph::from_csr(Direction::Directed, vec![0, 2, 2, 2], vec![1, 2], None)
            .expect("valid");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(2), 1);
        assert_eq!(g.dangling_nodes(), vec![1, 2]);
    }

    #[test]
    fn out_weight_defaults_to_degree() {
        let g = path3();
        assert_eq!(g.out_weight(1), 2.0);
    }

    #[test]
    fn out_weight_sums_weights() {
        let g = CsrGraph::from_csr(
            Direction::Directed,
            vec![0, 2, 2],
            vec![1, 1],
            Some(vec![0.5, 2.0]),
        )
        .expect("valid");
        assert!((g.out_weight(0) - 2.5).abs() < 1e-12);
        assert_eq!(g.out_weight(1), 0.0);
        assert!((g.total_arc_weight() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn has_arc_sorted_adjacency() {
        let g = path3();
        assert!(g.has_arc(1, 0));
        assert!(g.has_arc(1, 2));
        assert!(!g.has_arc(0, 2));
        // Sources past the id space have no arcs.
        assert!(!g.has_arc(7, 0));
        assert_eq!(g.arc_weight(7, 0), None);
    }

    #[test]
    fn unsorted_rows_still_answer_lookups() {
        // Row 0 is [3, 1, 2]: a raw CSR array (as a snapshot file may
        // hold) need not be sorted.
        let g = CsrGraph::from_csr(
            Direction::Directed,
            vec![0, 3, 3, 3, 4],
            vec![3, 1, 2, 0],
            Some(vec![0.5, 1.5, 2.5, 4.0]),
        )
        .expect("valid");
        assert!(!g.sorted);
        for (t, w) in [(3, 0.5), (1, 1.5), (2, 2.5)] {
            assert!(g.has_arc(0, t));
            assert_eq!(g.arc_weight(0, t), Some(w));
        }
        assert!(!g.has_arc(0, 0));
        assert_eq!(g.arc_weight(3, 0), Some(4.0));
        assert!(path3().sorted);
    }

    /// A delta naming `inserted` (weight 1) and `deleted` on a graph of
    /// `n` nodes.
    fn delta(n: u32, inserted: &[(u32, u32)], deleted: &[(u32, u32)]) -> ArcDelta {
        ArcDelta {
            inserted: inserted.to_vec(),
            inserted_weights: vec![1.0; inserted.len()],
            deleted: deleted.to_vec(),
            deleted_weights: vec![1.0; deleted.len()],
            nodes_before: n,
            nodes_after: n,
            ..ArcDelta::default()
        }
    }

    #[test]
    fn patched_sorts_an_unsorted_edited_row() {
        let g = CsrGraph::from_csr(Direction::Directed, vec![0, 2, 2, 2], vec![2, 1], None)
            .expect("valid");
        let p = g.patched(&delta(3, &[(0, 0)], &[(0, 2)])).expect("applies");
        let fresh = CsrGraph::from_csr(Direction::Directed, vec![0, 2, 2, 2], vec![0, 1], None)
            .expect("valid");
        assert_eq!(p, fresh);
    }

    #[test]
    fn patched_rejects_malformed_deltas() {
        let g = path3(); // arcs 0->1, 1->0, 1->2, 2->1
        let bad = [
            delta(4, &[], &[]),               // wrong node count
            delta(3, &[(0, 2), (0, 1)], &[]), // unsorted list
            delta(3, &[(0, 5)], &[]),         // out of range
            delta(3, &[(0, 1)], &[]),         // inserted arc present
            delta(3, &[], &[(0, 2)]),         // deleted arc absent
            delta(3, &[], &[(2, 1), (2, 1)]), // deleted twice
            ArcDelta {
                reweighted: vec![(2, 0, 1.0, 2.0)], // re-weighted arc absent
                ..delta(3, &[], &[])
            },
            ArcDelta {
                inserted_weights: vec![],
                ..delta(3, &[(0, 2)], &[])
            },
        ];
        for d in &bad {
            assert!(
                matches!(g.patched(d), Err(GraphError::Snapshot(_))),
                "{d:?} must be rejected"
            );
        }
        let weighted =
            CsrGraph::from_csr(Direction::Directed, vec![0, 1, 1], vec![1], Some(vec![2.0]))
                .expect("valid");
        let d = ArcDelta {
            reweighted: vec![(0, 1, 2.0, f64::NAN)],
            ..delta(2, &[], &[])
        };
        assert!(matches!(
            weighted.patched(&d),
            Err(GraphError::InvalidWeight(_))
        ));
        let d = ArcDelta {
            deleted: vec![(0, 1)],
            deleted_weights: vec![2.0],
            reweighted: vec![(0, 1, 2.0, 3.0)],
            ..delta(2, &[], &[])
        };
        assert!(matches!(weighted.patched(&d), Err(GraphError::Snapshot(_))));
    }

    #[test]
    fn arcs_iterator_round_trips() {
        let g = path3();
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
        let warcs: Vec<_> = g.weighted_arcs().collect();
        assert_eq!(warcs[0], (0, 1, 1.0));
    }

    #[test]
    fn rejects_bad_offsets() {
        assert!(CsrGraph::from_csr(Direction::Directed, vec![], vec![], None).is_err());
        assert!(CsrGraph::from_csr(Direction::Directed, vec![0, 2], vec![0], None).is_err());
        assert!(
            CsrGraph::from_csr(Direction::Directed, vec![0, 2, 1, 3], vec![0, 0, 0], None).is_err()
        );
    }

    #[test]
    fn rejects_out_of_range_target() {
        let err = CsrGraph::from_csr(Direction::Directed, vec![0, 1], vec![5], None).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 5,
                num_nodes: 1
            }
        );
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(
            CsrGraph::from_csr(Direction::Directed, vec![0, 1], vec![0], Some(vec![])).is_err()
        );
        assert!(CsrGraph::from_csr(
            Direction::Directed,
            vec![0, 1],
            vec![0],
            Some(vec![f64::NAN])
        )
        .is_err());
        assert!(
            CsrGraph::from_csr(Direction::Directed, vec![0, 1], vec![0], Some(vec![-1.0])).is_err()
        );
    }

    #[test]
    fn to_unweighted_strips_weights() {
        let g = CsrGraph::from_csr(Direction::Directed, vec![0, 1], vec![0], Some(vec![3.0]))
            .expect("valid");
        let u = g.to_unweighted();
        assert!(!u.is_weighted());
        assert_eq!(u.num_arcs(), 1);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CsrGraph::from_csr(Direction::Directed, vec![0], vec![], None).expect("valid");
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.nodes().count(), 0);
    }
}
