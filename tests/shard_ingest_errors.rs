//! Error-path contract of [`ShardManager::ingest_all`] and the engine
//! poisoning semantics of [`ServingEngine::ingest_with`].
//!
//! The documented `ingest_all` contract is **partial, not atomic**: shards
//! refresh in order and the call fails on the first shard whose refresh
//! fails; shards before it stay refreshed (their new generations remain
//! published), shards from it on are untouched. Generations across shards
//! are independent, so a mixed generation vector is a legal, serviceable
//! state — every shard keeps serving its own latest published generation
//! and a later valid batch advances all of them again. These tests pin
//! exactly that behavior with multi-graph shards of *different sizes*,
//! where one batch can be valid for some shards and out of range for
//! another.

use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::{ServingEngine, ShardManager};
use d2pr_core::transition::TransitionModel;
use d2pr_graph::delta::EdgeBatch;
use d2pr_graph::generators::barabasi_albert;

const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };

fn config() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-10,
        max_iterations: 1_000,
        ..Default::default()
    }
}

/// Shards over three independent graphs: 140, 120, and 140 nodes. Only
/// the middle one rejects edges on nodes `120..140`.
fn mixed_size_manager() -> ShardManager {
    let graphs = vec![
        barabasi_albert(140, 3, 1).unwrap(),
        barabasi_albert(120, 3, 2).unwrap(),
        barabasi_albert(140, 3, 3).unwrap(),
    ];
    ShardManager::from_graphs(graphs, MODEL, config()).unwrap()
}

fn generations(mgr: &ShardManager) -> Vec<u64> {
    (0..mgr.num_shards())
        .map(|k| mgr.shard(k as u64).generation())
        .collect()
}

/// An insert both endpoints of which every shard accepts.
fn valid_everywhere(mgr: &ShardManager) -> EdgeBatch {
    let mut batch = EdgeBatch::new();
    let (mut u, mut v) = (0u32, 100u32);
    while (0..mgr.num_shards()).any(|k| mgr.shard(k as u64).delta_graph().has_arc(u, v)) || u == v {
        u += 1;
        v -= 1;
    }
    batch.insert(u, v);
    batch
}

#[test]
fn error_on_middle_shard_leaves_earlier_shards_refreshed_later_untouched() {
    let mut mgr = mixed_size_manager();
    assert_eq!(generations(&mgr), [0, 0, 0]);

    // Node 130 exists on shards 0 and 2 but not on the 120-node shard 1:
    // shard 0 refreshes, shard 1 fails validation, shard 2 is never tried.
    let mut partial = EdgeBatch::new();
    partial.insert(5, 130);
    let err = mgr
        .ingest_all(&partial)
        .expect_err("a batch out of range for shard 1 must fail ingest_all");
    // The error cites the caller's out-of-range id, not an internal state.
    assert!(
        format!("{err}").contains("130"),
        "error should name the offending node, got: {err}"
    );

    // The documented partial contract: shard 0 kept its refresh, shards 1
    // and 2 never advanced.
    assert_eq!(generations(&mgr), [1, 0, 0]);

    // Every shard still serves reads from its own published generation.
    for k in 0..mgr.num_shards() {
        let reader = mgr.reader(k as u64);
        let (score, generation) = reader.get_with_generation(0).unwrap();
        assert!(score.is_finite() && score > 0.0);
        assert_eq!(generation, if k == 0 { 1 } else { 0 });
    }

    // A mixed generation vector is serviceable, not wedged: the next batch
    // valid for every shard advances each shard's own counter.
    let batch = valid_everywhere(&mgr);
    let outcomes = mgr.ingest_all(&batch).expect("valid batch refreshes all");
    assert_eq!(outcomes.len(), 3);
    assert_eq!(generations(&mgr), [2, 1, 1]);
    assert_eq!(
        outcomes.iter().map(|o| o.generation).collect::<Vec<_>>(),
        [2, 1, 1],
        "each outcome reports its own shard's generation"
    );
}

#[test]
fn error_on_first_shard_refreshes_nothing() {
    let mut mgr = mixed_size_manager();
    // Node 900 is out of range for every shard: shard 0 fails first, so
    // the failure point k = 0 leaves shards 0..0 (none) refreshed.
    let mut bad = EdgeBatch::new();
    bad.insert(0, 900);
    mgr.ingest_all(&bad)
        .expect_err("a batch out of range everywhere must fail");
    assert_eq!(generations(&mgr), [0, 0, 0]);
    let batch = valid_everywhere(&mgr);
    mgr.ingest_all(&batch).expect("manager stays serviceable");
    assert_eq!(generations(&mgr), [1, 1, 1]);
}

/// Validation failures are checked *before* any state handoff, so a bad
/// batch never poisons a shard — distinct from the mid-handoff failure
/// below.
#[test]
fn validation_failure_does_not_poison_the_shard() {
    let mut serving =
        ServingEngine::new(barabasi_albert(120, 3, 9).unwrap(), MODEL, config(), 1).unwrap();
    let mut bad = EdgeBatch::new();
    bad.insert(0, 500);
    serving.ingest(&bad).expect_err("out-of-range batch fails");
    let mut good = EdgeBatch::new();
    good.insert(0, 119);
    let refresh = serving.ingest(&good).expect("engine is not poisoned");
    assert_eq!(refresh.generation, 1);
}

/// A failure *after* the engine state is consumed — here a prepatched
/// structure that does not describe the post-batch graph — poisons the
/// shard: later ingests report the poisoning instead of corrupting
/// published data, while readers keep serving the last good generation.
#[test]
fn mid_handoff_failure_poisons_writes_but_not_reads() {
    let mut serving =
        ServingEngine::new(barabasi_albert(120, 3, 9).unwrap(), MODEL, config(), 1).unwrap();
    let reader = serving.reader();
    let stale = serving.shared_structure().unwrap();

    // The pre-batch structure cannot describe the post-batch graph, so the
    // handoff fails after the state was consumed.
    let mut batch = EdgeBatch::new();
    batch.insert(0, 119);
    serving
        .ingest_with(&batch, Some(stale))
        .expect_err("a stale prepatched structure must be rejected");

    // Writes are poisoned from here on…
    let mut next = EdgeBatch::new();
    next.insert(1, 118);
    let err = serving
        .ingest(&next)
        .expect_err("a poisoned engine must refuse further ingests");
    assert!(
        format!("{err}").contains("poisoned"),
        "poisoning should be reported as such, got: {err}"
    );
    // …but reads still serve the last published generation.
    let (score, generation) = reader.get_with_generation(0).unwrap();
    assert!(score.is_finite() && score > 0.0);
    assert_eq!(generation, 0);
    assert_eq!(serving.shared_structure().err().map(|e| e.to_string()), {
        Some(err.to_string())
    });
}
