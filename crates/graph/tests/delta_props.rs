//! Property tests for the delta-CSR subsystem: the overlay + compaction
//! pipeline must be indistinguishable from rebuilding the graph from the
//! edited edge list, and the patched transpose must equal a fresh build.

use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction, NodeId};
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::transpose::CscStructure;
use proptest::prelude::*;
use std::collections::BTreeSet;

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

    /// Tentpole invariant: apply_batch (+ forced compaction) equals
    /// building a CSR from the edited edge list directly, for random
    /// insert/delete sequences on directed graphs.
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
            prop_assert_eq!(dg.num_arcs(), reference.len());
            prop_assert!(outcome.delta.inserted.iter().all(|a| reference.contains(a)));
            prop_assert!(outcome.delta.deleted.iter().all(|a| !reference.contains(a)));
            // The live (uncompacted) view already matches the reference.
            prop_assert_eq!(dg.snapshot(), build_from_arcs(Direction::Directed, &reference));
        }
        dg.compact();
        prop_assert_eq!(
            dg.into_snapshot(),
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
            prop_assert_eq!(dg.num_arcs(), reference.len());
        }
        dg.compact();
        prop_assert_eq!(
            dg.into_snapshot(),
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
            let snapshot = dg.snapshot();
            csc = csc.patched(&snapshot, &outcome.delta).expect("consistent delta");
            let fresh = CscStructure::build(&snapshot);
            prop_assert_eq!(fresh.in_weights(&snapshot).is_some(), weighted);
            prop_assert_eq!(&csc, &fresh);
        }
    }

    /// Compaction is invisible: interleaving forced compactions with
    /// batches never changes the logical graph.
    #[test]
    fn compaction_is_transparent(
        initial in arb_edges(40),
        batches in arb_batches(),
    ) {
        let base = build(Direction::Directed, &initial);
        // Aggressive thresholds: compact after nearly every batch.
        let mut eager = DeltaGraph::new(base.clone())
            .expect("unweighted")
            .with_compaction_threshold(0.0, 1);
        let mut lazy = DeltaGraph::new(base)
            .expect("unweighted")
            .with_compaction_threshold(f64::INFINITY, usize::MAX);
        for (inserts, deletes) in &batches {
            let mut batch = EdgeBatch::new();
            batch.inserts.clone_from(inserts);
            batch.deletes.clone_from(deletes);
            let a = eager.apply_batch(&batch).expect("in-range");
            let b = lazy.apply_batch(&batch).expect("in-range");
            // The effective delta is independent of compaction timing.
            prop_assert_eq!(a.delta, b.delta);
            prop_assert!(!b.compacted);
            prop_assert_eq!(eager.snapshot(), lazy.snapshot());
        }
    }
}
