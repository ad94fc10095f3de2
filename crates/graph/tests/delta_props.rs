//! Property tests for the evolving graph: the patched CSR must be
//! indistinguishable from rebuilding the graph from the edited edge list,
//! one multi-batch apply must equal applying its batches one by one, and
//! the patched transpose must equal a fresh build.

use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction, NodeId};
use d2pr_graph::delta::{ArcDelta, DeltaGraph, EdgeBatch};
use d2pr_graph::transpose::CscStructure;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const N: u32 = 24;

fn arb_edges(max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..N, 0..N), 0..=max_edges)
}

/// One batch: (inserts, deletes).
type RawBatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// A sequence of batches; each batch is (inserts, deletes) drawn from the
/// full node-pair space, so re-inserts, double-deletes, self-loops, and
/// batch-internal cancellations all occur.
fn arb_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    proptest::collection::vec((arb_edges(30), arb_edges(30)), 1..=6)
}

fn build(direction: Direction, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(direction, N as usize);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().expect("in-range edges")
}

/// Reference model: the arc set of the logical graph, maintained with the
/// documented batch semantics (self-loops dropped, inserts before deletes,
/// mirroring for undirected graphs).
fn apply_reference(
    arcs: &mut BTreeSet<(NodeId, NodeId)>,
    mirrored: bool,
    inserts: &[(u32, u32)],
    deletes: &[(u32, u32)],
) {
    for &(u, v) in inserts {
        if u != v {
            arcs.insert((u, v));
            if mirrored {
                arcs.insert((v, u));
            }
        }
    }
    for &(u, v) in deletes {
        if u != v {
            arcs.remove(&(u, v));
            if mirrored {
                arcs.remove(&(v, u));
            }
        }
    }
}

/// Rebuild a CSR directly from a reference arc set.
fn build_from_arcs(direction: Direction, arcs: &BTreeSet<(NodeId, NodeId)>) -> CsrGraph {
    let mut b = GraphBuilder::new(direction, N as usize);
    for &(u, v) in arcs {
        match direction {
            Direction::Directed => b.add_edge(u, v),
            // The set is symmetric; feed each undirected edge once.
            Direction::Undirected => {
                if u < v {
                    b.add_edge(u, v);
                }
            }
        }
    }
    b.build().expect("in-range arcs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// apply_batch equals building a CSR from the edited edge list
    /// directly, for random insert/delete sequences on directed graphs.
    #[test]
    fn directed_delta_equals_direct_build(
        initial in arb_edges(60),
        batches in arb_batches(),
    ) {
        let base = build(Direction::Directed, &initial);
        let mut reference: BTreeSet<(NodeId, NodeId)> = base.arcs().collect();
        let mut dg = DeltaGraph::new(base).expect("unweighted");
        for (inserts, deletes) in &batches {
            let mut batch = EdgeBatch::new();
            batch.inserts.clone_from(inserts);
            batch.deletes.clone_from(deletes);
            let outcome = dg.apply_batch(&batch).expect("in-range batch");
            apply_reference(&mut reference, false, inserts, deletes);
            // Effective delta is consistent with the arc-count change.
            prop_assert_eq!(dg.graph().num_arcs(), reference.len());
            prop_assert!(outcome.delta.inserted.iter().all(|a| reference.contains(a)));
            prop_assert!(outcome.delta.deleted.iter().all(|a| !reference.contains(a)));
            prop_assert_eq!(dg.graph(), &build_from_arcs(Direction::Directed, &reference));
        }
        prop_assert_eq!(
            dg.into_graph(),
            build_from_arcs(Direction::Directed, &reference)
        );
    }

    /// Same invariant for undirected graphs (mirrored arcs).
    #[test]
    fn undirected_delta_equals_direct_build(
        initial in arb_edges(50),
        batches in arb_batches(),
    ) {
        let base = build(Direction::Undirected, &initial);
        let mut reference: BTreeSet<(NodeId, NodeId)> = base.arcs().collect();
        let mut dg = DeltaGraph::new(base).expect("unweighted");
        for (inserts, deletes) in &batches {
            let mut batch = EdgeBatch::new();
            batch.inserts.clone_from(inserts);
            batch.deletes.clone_from(deletes);
            dg.apply_batch(&batch).expect("in-range batch");
            apply_reference(&mut reference, true, inserts, deletes);
            prop_assert_eq!(dg.graph().num_arcs(), reference.len());
        }
        prop_assert_eq!(
            dg.into_graph(),
            build_from_arcs(Direction::Undirected, &reference)
        );
    }

    /// The incrementally patched transpose is bit-identical to a fresh
    /// build at every step of a random batch sequence — on weighted bases
    /// (weighted inserts and re-weights) with the CSC weights filled on
    /// both sides, weights included.
    #[test]
    fn patched_transpose_equals_fresh_build(
        initial in arb_edges(60),
        batches in arb_batches(),
        weighted in any::<bool>(),
        draws in proptest::collection::vec(0usize..6, 64),
    ) {
        // The palette includes 0, so some sources' weights sum to 0 and
        // take the uniform fallback.
        let palette = [0.0, 0.5, 1.0, 2.0, 3.5, 7.0];
        let mut weight = draws.iter().cycle().map(|&k| palette[k]);
        let base = if weighted {
            let mut b = GraphBuilder::new(Direction::Directed, N as usize);
            for &(u, v) in &initial {
                b.add_weighted_edge(u, v, weight.next().expect("cycled"));
            }
            b.build().expect("in-range edges")
        } else {
            build(Direction::Directed, &initial)
        };
        let mut csc = CscStructure::build(&base);
        csc.in_weights(&base);
        let mut dg = DeltaGraph::new(base).expect("valid base");
        for (inserts, deletes) in &batches {
            let mut batch = EdgeBatch::new();
            for &(u, v) in inserts {
                if weighted {
                    batch.insert_weighted(u, v, weight.next().expect("cycled"));
                } else {
                    batch.insert(u, v);
                }
            }
            batch.deletes.clone_from(deletes);
            let outcome = dg.apply_batch(&batch).expect("in-range batch");
            let graph = dg.graph();
            csc = csc.patched(graph, &outcome.delta).expect("consistent delta");
            let fresh = CscStructure::build(graph);
            prop_assert_eq!(fresh.in_weights(graph).is_some(), weighted);
            prop_assert_eq!(&csc, &fresh);
        }
    }

    /// CsrGraph::patched (through apply_batch) equals a fresh build of the
    /// post-batch arc list at every step, on directed and undirected,
    /// weighted (0 weights included) and unweighted graphs, under node
    /// growth and removals.
    #[test]
    fn patched_csr_equals_fresh_build(
        initial in arb_edges(60),
        batches in arb_churn_batches(),
        directed in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let direction = if directed { Direction::Directed } else { Direction::Undirected };
        let mut reference = Reference::new(direction, weighted, &initial);
        let mut dg = DeltaGraph::new(reference.build()).expect("valid base");
        for raw in &batches {
            let batch = reference.batch(raw);
            let outcome = dg.apply_batch(&batch).expect("in-range batch");
            reference.apply(&batch);
            prop_assert_eq!(dg.graph(), &reference.build());
            prop_assert_eq!(outcome.delta.nodes_after as usize, reference.n);
        }
    }

    /// One multi-batch apply (the recovery path) gives the same graph, the
    /// same per-batch effective deltas and the same net delta as applying
    /// the batches one by one.
    #[test]
    fn multi_batch_apply_equals_one_by_one(
        initial in arb_edges(60),
        batches in arb_churn_batches(),
        directed in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let direction = if directed { Direction::Directed } else { Direction::Undirected };
        let mut reference = Reference::new(direction, weighted, &initial);
        let base = reference.build();
        let mut edge_batches = Vec::new();
        for raw in &batches {
            let batch = reference.batch(raw);
            reference.apply(&batch);
            edge_batches.push(batch);
        }
        let mut one_by_one = DeltaGraph::new(base.clone()).expect("valid base");
        let mut deltas = Vec::new();
        for batch in &edge_batches {
            deltas.push(one_by_one.apply_batch(batch).expect("in-range batch").delta);
        }
        let mut together = DeltaGraph::new(base.clone()).expect("valid base");
        let outcome = together.apply_batches(&edge_batches).expect("in-range batches");
        prop_assert_eq!(together.graph(), one_by_one.graph());
        prop_assert_eq!(&outcome.deltas, &deltas);
        let removed: BTreeSet<NodeId> = deltas.iter().flat_map(|d| d.removed_nodes.clone()).collect();
        let net = graph_diff(&base, one_by_one.graph(), removed.into_iter().collect());
        prop_assert_eq!(&outcome.net, &net);
        // The net delta patches the base straight to the final graph.
        prop_assert_eq!(&base.patched(&net).expect("consistent net delta"), together.graph());
    }
}

/// One churn batch: inserts with a weight-palette index, deletes, fresh
/// ids, removals. Ids are reduced modulo the post-batch node count.
type ChurnBatch = (Vec<(u32, u32, usize)>, Vec<(u32, u32)>, u32, Vec<u32>);

fn arb_churn_batches() -> impl Strategy<Value = Vec<ChurnBatch>> {
    let batch = (
        proptest::collection::vec((0..N + 8, 0..N + 8, 0usize..6), 0..=30),
        arb_edges(20),
        0u32..3,
        proptest::collection::vec(0..N + 8, 0..=2),
    );
    proptest::collection::vec(batch, 1..=6)
}

/// The palette includes 0, so some sources' weights sum to 0.
const PALETTE: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 3.5, 7.0];

/// Reference model of the evolving graph with node churn: an arc→weight
/// map and a node count, edited with the documented batch semantics.
struct Reference {
    direction: Direction,
    weighted: bool,
    n: usize,
    arcs: BTreeMap<(NodeId, NodeId), f64>,
}

impl Reference {
    fn new(direction: Direction, weighted: bool, edges: &[(u32, u32)]) -> Self {
        let mut r = Reference {
            direction,
            weighted,
            n: N as usize,
            arcs: BTreeMap::new(),
        };
        for (k, &(u, v)) in edges.iter().enumerate() {
            let w = if weighted {
                PALETTE[k % PALETTE.len()]
            } else {
                1.0
            };
            r.set(u, v, Some(w));
        }
        r
    }

    fn set(&mut self, u: NodeId, v: NodeId, w: Option<f64>) {
        if u == v {
            return;
        }
        let mirrored = self.direction == Direction::Undirected;
        for arc in if mirrored {
            vec![(u, v), (v, u)]
        } else {
            vec![(u, v)]
        } {
            match w {
                Some(w) => self.arcs.insert(arc, w),
                None => self.arcs.remove(&arc),
            };
        }
    }

    /// The `EdgeBatch` for `raw` against the current node count.
    fn batch(&self, (inserts, deletes, grow, removed): &ChurnBatch) -> EdgeBatch {
        let n = (self.n as u32) + grow;
        let mut batch = EdgeBatch::new();
        batch.add_nodes(*grow);
        for &(u, v, k) in inserts {
            if self.weighted {
                batch.insert_weighted(u % n, v % n, PALETTE[k]);
            } else {
                batch.insert(u % n, v % n);
            }
        }
        for &(u, v) in deletes {
            batch.delete(u % n, v % n);
        }
        for &v in removed {
            batch.remove_node(v % n);
        }
        batch
    }

    fn apply(&mut self, batch: &EdgeBatch) {
        self.n += batch.new_nodes as usize;
        for (k, &(u, v)) in batch.inserts.iter().enumerate() {
            self.set(u, v, Some(batch.insert_weight(k)));
        }
        for &(u, v) in &batch.deletes {
            self.set(u, v, None);
        }
        let removed = &batch.removed_nodes;
        self.arcs
            .retain(|(u, v), _| !removed.contains(u) && !removed.contains(v));
    }

    fn build(&self) -> CsrGraph {
        let mut b = GraphBuilder::new(self.direction, self.n);
        for (&(u, v), &w) in &self.arcs {
            if self.direction == Direction::Directed || u < v {
                if self.weighted {
                    b.add_weighted_edge(u, v, w);
                } else {
                    b.add_edge(u, v);
                }
            }
        }
        b.build().expect("in-range arcs")
    }
}

/// The delta separating `before` from `after` (node growth only).
fn graph_diff(before: &CsrGraph, after: &CsrGraph, removed_nodes: Vec<NodeId>) -> ArcDelta {
    let old: BTreeMap<(NodeId, NodeId), f64> = before
        .weighted_arcs()
        .map(|(u, v, w)| ((u, v), w))
        .collect();
    let new: BTreeMap<(NodeId, NodeId), f64> =
        after.weighted_arcs().map(|(u, v, w)| ((u, v), w)).collect();
    let mut delta = ArcDelta {
        nodes_before: before.num_nodes() as u32,
        nodes_after: after.num_nodes() as u32,
        removed_nodes,
        ..ArcDelta::default()
    };
    let arcs: BTreeSet<(NodeId, NodeId)> = old.keys().chain(new.keys()).copied().collect();
    for arc in arcs {
        match (old.get(&arc), new.get(&arc)) {
            (None, Some(&w)) => {
                delta.inserted.push(arc);
                delta.inserted_weights.push(w);
            }
            (Some(&w), None) => {
                delta.deleted.push(arc);
                delta.deleted_weights.push(w);
            }
            (Some(&o), Some(&w)) if o != w => delta.reweighted.push((arc.0, arc.1, o, w)),
            _ => {}
        }
    }
    delta
}
