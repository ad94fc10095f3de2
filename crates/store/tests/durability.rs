//! End-to-end durability lifecycle: create → ingest → restart → resume,
//! with and without layout permutations, snapshot cadences, and the
//! sharded layouts — every recovered rank vector is checked against a
//! cold solve of the graph at the recovered generation.

use d2pr_core::error::{SolverError, UpdateError};
use d2pr_core::pagerank::{pagerank, PageRankConfig};
use d2pr_core::transition::TransitionModel;
use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction};
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::generators::barabasi_albert;
use d2pr_graph::permute::Layout;
use d2pr_store::durable::{DurableServingEngine, StoreOptions};
use d2pr_store::shard::{DurableShardManager, ShardIngest};
use d2pr_store::StoreError;
use std::path::{Path, PathBuf};

const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };

fn tight() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-11,
        max_iterations: 2_000,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("d2pr-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn assert_close(a: &[f64], b: &[f64], eps: f64) {
    assert_eq!(a.len(), b.len());
    let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    assert!(l1 < eps, "L1 divergence {l1:.3e} exceeds {eps:.0e}");
}

/// Deterministic batch stream over an `n`-node graph.
fn batch(n: u32, step: u64) -> EdgeBatch {
    let mut b = EdgeBatch::new();
    let s = step as u32;
    b.insert(s % n, (s * 7 + 1) % n);
    b.insert((s * 3 + 2) % n, (s * 5 + 4) % n);
    b.delete((s + 1) % n, (s * 7 + 8) % n);
    b
}

/// The graph after replaying `upto` batches onto `base` (reference for
/// cold solves at a recovered generation).
fn graph_at(base: &CsrGraph, n: u32, upto: u64) -> CsrGraph {
    let mut dg = DeltaGraph::new(base.clone()).unwrap();
    for g in 1..=upto {
        dg.apply_batch(&batch(n, g)).unwrap();
    }
    dg.into_snapshot()
}

#[test]
fn clean_restart_replays_the_log_tail() {
    let dir = tmpdir("clean");
    let n = 300u32;
    let base = barabasi_albert(n as usize, 3, 11).unwrap();

    let mut served = Vec::new();
    {
        let mut store = DurableServingEngine::create(
            &dir,
            base.clone(),
            MODEL,
            tight(),
            2,
            StoreOptions::default(),
        )
        .unwrap();
        for g in 1..=6 {
            let outcome = store.ingest(&batch(n, g)).unwrap();
            assert_eq!(outcome.generation, g);
        }
        store.reader().snapshot_into(&mut served);
    } // process "dies" without snapshotting — the wal holds gens 1..=6

    let (store, report) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    assert_eq!(report.snapshot_generation, 0);
    assert_eq!(report.recovered_generation, 6);
    assert_eq!(report.outcome.replayed_batches, 6);
    assert_eq!(store.generation(), 6);

    let mut recovered = Vec::new();
    store.reader().snapshot_into(&mut recovered);
    assert_close(&recovered, &served, 1e-8);
    let cold = pagerank(&graph_at(&base, n, 6), MODEL, &tight());
    assert_close(&recovered, &cold.scores, 1e-8);

    // Replay was compacted into a fresh snapshot: the next open replays
    // nothing and lands on the same state.
    drop(store);
    let (store, report) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    assert_eq!(report.outcome.replayed_batches, 0);
    assert_eq!(store.generation(), 6);
    let mut again = Vec::new();
    store.reader().snapshot_into(&mut again);
    assert_close(&again, &recovered, 1e-12);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_cadence_rotates_and_retires() {
    let dir = tmpdir("cadence");
    let n = 200u32;
    let base = barabasi_albert(n as usize, 3, 7).unwrap();
    let opts = StoreOptions {
        snapshot_every: 2,
        retain_snapshots: 2,
    };
    let mut store =
        DurableServingEngine::create(&dir, base.clone(), MODEL, tight(), 1, opts).unwrap();
    for g in 1..=7 {
        store.ingest(&batch(n, g)).unwrap();
    }
    // Snapshots landed at 2, 4, 6; retention keeps {4, 6}; wal-4 and
    // wal-6 (holding gens 5..=6 and 7) survive, older wals are retired.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            "snap-00000000000000000004.bin",
            "snap-00000000000000000006.bin",
            "wal-00000000000000000004.log",
            "wal-00000000000000000006.log",
        ]
    );
    drop(store);

    let (store, report) = DurableServingEngine::open(&dir, 1, opts).unwrap();
    assert_eq!(report.snapshot_generation, 6);
    assert_eq!(report.outcome.replayed_batches, 1);
    assert_eq!(store.generation(), 7);
    let mut scores = Vec::new();
    store.reader().snapshot_into(&mut scores);
    let cold = pagerank(&graph_at(&base, n, 7), MODEL, &tight());
    assert_close(&scores, &cold.scores, 1e-8);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn layout_permutation_survives_restart() {
    let dir = tmpdir("layout");
    let n = 300u32;
    let base = barabasi_albert(n as usize, 3, 13).unwrap();
    {
        let mut store = DurableServingEngine::create_with(
            &dir,
            base.clone(),
            Layout::DegreeDescending,
            None,
            MODEL,
            tight(),
            StoreOptions::default(),
        )
        .unwrap();
        for g in 1..=4 {
            store.ingest(&batch(n, g)).unwrap();
        }
    }
    let (store, report) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    assert_eq!(report.recovered_generation, 4);
    // Reader ids are external: the recovered scores line up with a cold
    // solve in the caller's original node order.
    let mut scores = Vec::new();
    store.reader().snapshot_into(&mut scores);
    let cold = pagerank(&graph_at(&base, n, 4), MODEL, &tight());
    assert_close(&scores, &cold.scores, 1e-8);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn create_refuses_an_initialized_directory() {
    let dir = tmpdir("reinit");
    let g = barabasi_albert(50, 2, 3).unwrap();
    let _store =
        DurableServingEngine::create(&dir, g.clone(), MODEL, tight(), 1, StoreOptions::default())
            .unwrap();
    match DurableServingEngine::create(&dir, g, MODEL, tight(), 1, StoreOptions::default()) {
        Err(StoreError::AlreadyInitialized { .. }) => {}
        other => panic!("expected AlreadyInitialized, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn validation_failures_leave_log_and_state_untouched() {
    let dir = tmpdir("validate");
    let n = 100u32;
    let g = barabasi_albert(n as usize, 2, 5).unwrap();
    let mut store =
        DurableServingEngine::create(&dir, g, MODEL, tight(), 1, StoreOptions::default()).unwrap();
    store.ingest(&batch(n, 1)).unwrap();

    let mut bad = EdgeBatch::new();
    bad.insert(0, n + 7); // out of range
    assert!(matches!(store.ingest(&bad), Err(StoreError::Update(_))));
    assert_eq!(store.generation(), 1);
    drop(store);

    // Nothing about the rejected batch hit the disk: recovery replays
    // exactly the one good batch.
    let (store, report) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    assert_eq!(report.outcome.replayed_batches, 1);
    assert_eq!(store.generation(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_partial_failure_recovers_per_shard() {
    let root = tmpdir("shards");
    let big = barabasi_albert(120, 3, 17).unwrap();
    let small = barabasi_albert(40, 2, 19).unwrap();
    let tiny = barabasi_albert(30, 2, 23).unwrap();
    let mut shards = DurableShardManager::from_graphs(
        &root,
        vec![big, small, tiny],
        MODEL,
        tight(),
        StoreOptions::default(),
    )
    .unwrap();

    // Valid everywhere: all three apply and advance.
    let mut ok = EdgeBatch::new();
    ok.insert(0, 29);
    let report = shards.ingest_all(&ok);
    assert!(report.is_complete());
    assert_eq!(report.applied(), 3);

    // Valid on shard 0 only: shard 1 fails validation, shard 2 is never
    // touched — the documented partial-not-atomic contract.
    let mut partial = EdgeBatch::new();
    partial.insert(1, 90);
    let report = shards.ingest_all(&partial);
    assert!(!report.is_complete());
    assert_eq!(report.applied(), 1);
    let (failed_at, err) = report.first_failure().unwrap();
    assert_eq!(failed_at, 1);
    assert!(matches!(err, StoreError::Update(_)));
    assert!(matches!(report.outcomes[2], ShardIngest::Skipped));
    assert_eq!(shards.shard(0).generation(), 2);
    assert_eq!(shards.shard(1).generation(), 1);
    assert_eq!(shards.shard(2).generation(), 1);
    drop(shards);

    // Each shard recovers to its own durable generation.
    let (shards, reports) = DurableShardManager::open(&root, StoreOptions::default()).unwrap();
    assert_eq!(reports.len(), 3);
    assert_eq!(
        reports
            .iter()
            .map(|r| r.recovered_generation)
            .collect::<Vec<_>>(),
        vec![2, 1, 1]
    );
    assert_eq!(shards.num_shards(), 3);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A deterministic weighted digraph (out-degree 3, varied weights).
fn weighted_base(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::new(Direction::Directed, n as usize);
    for s in 0..n {
        for k in 1..=3u32 {
            let t = (s * 7 + k * 13 + 1) % n;
            if t != s {
                b.add_weighted_edge(s, t, 0.5 + ((s + k) % 5) as f64);
            }
        }
    }
    b.build().unwrap()
}

/// Weighted edits plus node churn: growth at generation 2, a tombstone
/// at generation 4, re-weights throughout.
fn churn_batches(n: u32) -> Vec<EdgeBatch> {
    let mut g1 = EdgeBatch::new();
    g1.insert_weighted(1, 40, 2.5);
    g1.set_weight(0, 14, 9.0);
    g1.delete(2, 28);
    let mut g2 = EdgeBatch::new();
    g2.add_nodes(1);
    g2.insert_weighted(n, 7, 2.0);
    g2.insert_weighted(3, n, 1.25);
    let mut g3 = EdgeBatch::new();
    g3.insert_weighted(n, 12, 0.5);
    g3.delete(3, n);
    let mut g4 = EdgeBatch::new();
    g4.remove_node(5);
    let mut g5 = EdgeBatch::new();
    g5.insert_weighted(6, 17, 3.5);
    g5.delete(0, 14);
    let mut g6 = EdgeBatch::new();
    g6.set_weight(1, 40, 0.75);
    vec![g1, g2, g3, g4, g5, g6]
}

#[test]
fn weighted_node_churn_survives_crash_and_compaction() {
    let dir = tmpdir("churn");
    let n = 60u32;
    let base = weighted_base(n);
    let model = TransitionModel::Blended { p: 0.5, beta: 0.5 };
    let batches = churn_batches(n);

    let mut served = Vec::new();
    {
        let mut store = DurableServingEngine::create(
            &dir,
            base.clone(),
            model,
            tight(),
            1,
            StoreOptions::default(),
        )
        .unwrap();
        for (i, b) in batches.iter().enumerate() {
            let outcome = store.ingest(b).unwrap();
            assert_eq!(outcome.generation, i as u64 + 1);
        }
        assert_eq!(store.engine().removed_nodes(), vec![5]);
        assert_eq!(store.engine().live_nodes(), n as usize);
        store.reader().snapshot_into(&mut served);
        assert_eq!(served.len(), n as usize + 1);
        assert_eq!(served[5], 0.0, "tombstoned node serves score 0");
    } // dies before any snapshot: the wal holds all six generations

    // Crash recovery replays the weighted/node-churn tail bit-faithfully.
    let (store, report) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    assert_eq!(report.snapshot_generation, 0);
    assert_eq!(report.outcome.replayed_batches, 6);
    assert_eq!(store.engine().removed_nodes(), vec![5]);
    let mut recovered = Vec::new();
    store.reader().snapshot_into(&mut recovered);
    assert_close(&recovered, &served, 1e-7);

    // And matches a cold solve of the evolved graph on every live node.
    let mut dg = DeltaGraph::new(base).unwrap();
    for b in &batches {
        dg.apply_batch(b).unwrap();
    }
    let mut cold = pagerank(&dg.into_snapshot(), model, &tight()).scores;
    cold[5] = 0.0;
    assert_close(&recovered, &cold, 1e-7);

    // The replay was compacted into a v2 snapshot: the next open replays
    // nothing, and the tombstone set comes back from the snapshot alone.
    drop(store);
    let (store, report) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    assert_eq!(report.outcome.replayed_batches, 0);
    assert_eq!(store.engine().removed_nodes(), vec![5]);
    let mut again = Vec::new();
    store.reader().snapshot_into(&mut again);
    assert_eq!(again[5], 0.0);
    assert_close(&again, &recovered, 1e-9);

    // A later arc incident to the tombstone revives it durably.
    let mut store = store;
    let mut revive = EdgeBatch::new();
    revive.insert_weighted(5, 9, 1.5);
    store.ingest(&revive).unwrap();
    assert!(store.engine().removed_nodes().is_empty());
    assert!(store.reader().get(5).unwrap() > 0.0);
    drop(store);
    let (store, _) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    assert!(store.engine().removed_nodes().is_empty());
    assert!(store.reader().get(5).unwrap() > 0.0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Total bytes of the write-ahead log segments under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

#[test]
fn theta_past_the_exponent_range_is_rejected_before_the_log() {
    // Blended { p: 4, β: ½ } evaluates Θ^(−4) per node: a weight of 1e70
    // at an existing source puts its Θ past the exponent range
    // (4·ln 1e70 ≈ 645 ≥ 600). The batch must be refused before it is
    // logged, and the engine must keep serving and ingesting.
    let dir = tmpdir("theta-range");
    let n = 60u32;
    let model = TransitionModel::Blended { p: 4.0, beta: 0.5 };
    let base = weighted_base(n);
    assert!(base.out_degree(3) > 0);
    let mut store =
        DurableServingEngine::create(&dir, base, model, tight(), 1, StoreOptions::default())
            .unwrap();
    let batches = churn_batches(n);
    store.ingest(&batches[0]).unwrap();
    let logged = wal_bytes(&dir);

    let mut huge = EdgeBatch::new();
    huge.insert_weighted(3, 50, 1e70);
    assert!(matches!(
        store.engine().validate_batch(&huge),
        Err(UpdateError::Solver(SolverError::InvalidModel(_)))
    ));
    assert!(matches!(
        store.ingest(&huge),
        Err(StoreError::Update(UpdateError::Solver(
            SolverError::InvalidModel(_)
        )))
    ));
    assert_eq!(wal_bytes(&dir), logged, "the refused batch reached the log");
    assert_eq!(store.generation(), 1);

    // Not poisoned: the next batch ingests, and a restart recovers the
    // acknowledged generation.
    assert_eq!(store.ingest(&batches[1]).unwrap().generation, 2);
    let mut served = Vec::new();
    store.reader().snapshot_into(&mut served);
    drop(store);
    let (store, report) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    assert_eq!(report.outcome.replayed_batches, 2);
    assert_eq!(store.generation(), 2);
    let mut recovered = Vec::new();
    store.reader().snapshot_into(&mut recovered);
    assert_close(&recovered, &served, 1e-7);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn personalized_shards_share_one_patch_per_group() {
    let root = tmpdir("pshards");
    let n = 150u32;
    let g = barabasi_albert(n as usize, 3, 29).unwrap();
    let uniform = 1.0 / n as f64;
    let mut t0 = vec![uniform; n as usize];
    t0[0] = 0.5;
    let teleports = vec![vec![uniform; n as usize], t0];
    let mut shards = DurableShardManager::personalized(
        &root,
        &g,
        &teleports,
        MODEL,
        tight(),
        StoreOptions::default(),
    )
    .unwrap();
    // Construction shares one transpose; a group ingest keeps it shared.
    let s0 = shards.shard(0).shared_structure().unwrap();
    assert!(std::sync::Arc::ptr_eq(
        &s0,
        &shards.shard(1).shared_structure().unwrap()
    ));
    let report = shards.ingest_all(&batch(n, 1));
    assert!(report.is_complete());
    let s0 = shards.shard(0).shared_structure().unwrap();
    assert!(std::sync::Arc::ptr_eq(
        &s0,
        &shards.shard(1).shared_structure().unwrap()
    ));
    drop(shards);

    let (shards, reports) = DurableShardManager::open(&root, StoreOptions::default()).unwrap();
    assert!(reports.iter().all(|r| r.recovered_generation == 1));
    // Per-view teleports survived: the personalized view still favors
    // node 0 over the uniform view.
    let r_uniform = shards.reader(0);
    let r_biased = shards.reader(1);
    assert!(r_biased.get(0).unwrap() > r_uniform.get(0).unwrap());
    std::fs::remove_dir_all(&root).unwrap();
}
