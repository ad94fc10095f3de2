//! The corruption battery: bit flips, truncations at every byte offset,
//! stale and duplicated files, and raw garbage. The invariant under
//! attack is always the same — recovery lands on the last
//! checksum-valid durable prefix, never serves torn state, and never
//! panics on bad bytes.

use d2pr_core::pagerank::{pagerank, PageRankConfig};
use d2pr_core::serving::ServingEngine;
use d2pr_core::transition::TransitionModel;
use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction};
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::generators::barabasi_albert;
use d2pr_store::durable::{DurableServingEngine, StoreOptions};
use d2pr_store::{recover_dir, StoreError};
use std::path::{Path, PathBuf};

const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };
const N: u32 = 60;

fn tight() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-11,
        max_iterations: 2_000,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("d2pr-cor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn batch(step: u64) -> EdgeBatch {
    let mut b = EdgeBatch::new();
    let s = step as u32;
    b.insert(s % N, (s * 7 + 1) % N);
    b.insert((s * 3 + 2) % N, (s * 5 + 4) % N);
    b.delete((s + 1) % N, (s * 7 + 8) % N);
    b
}

fn base_graph() -> CsrGraph {
    barabasi_albert(N as usize, 2, 31).unwrap()
}

fn graph_at(upto: u64) -> CsrGraph {
    let mut dg = DeltaGraph::new(base_graph()).unwrap();
    for g in 1..=upto {
        dg.apply_batch(&batch(g)).unwrap();
    }
    dg.into_graph()
}

/// Lay down the canonical fixture: snapshot at 0 and 3 (retained), wal-3
/// holding generations 4..=6.
fn fixture(tag: &str) -> PathBuf {
    let dir = tmpdir(tag);
    let mut store = DurableServingEngine::create(
        &dir,
        base_graph(),
        MODEL,
        tight(),
        1,
        StoreOptions::default(),
    )
    .unwrap();
    for g in 1..=3 {
        store.ingest(&batch(g)).unwrap();
    }
    store.snapshot_now().unwrap();
    for g in 4..=6 {
        store.ingest(&batch(g)).unwrap();
    }
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Recover and check the full contract at `expect_gen`: the scan lands
/// exactly there and a revived engine serves ranks matching a cold solve
/// of the graph at that generation.
fn assert_recovers_to(dir: &Path, expect_gen: u64) {
    let state = recover_dir(dir).unwrap();
    assert_eq!(
        state.durable_generation(),
        expect_gen,
        "scan landed on the wrong durable generation"
    );
    let scratch = dir.with_extension("open");
    copy_dir(dir, &scratch);
    let (store, report) = DurableServingEngine::open(&scratch, 1, StoreOptions::default()).unwrap();
    assert_eq!(report.recovered_generation, expect_gen);
    assert_eq!(store.generation(), expect_gen);
    let mut scores = Vec::new();
    store.reader().snapshot_into(&mut scores);
    let cold = pagerank(&graph_at(expect_gen), MODEL, &tight());
    let l1: f64 = scores
        .iter()
        .zip(&cold.scores)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(
        l1 < 1e-8,
        "recovered ranks diverge from cold solve at gen {expect_gen}: L1 {l1:.3e}"
    );
    drop(store);
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn truncating_the_wal_at_every_byte_recovers_a_valid_prefix() {
    let dir = fixture("trunc");
    let wal = dir.join("wal-00000000000000000003.log");
    let full = std::fs::read(&wal).unwrap();

    // Frame boundaries: generation g becomes durable once the file holds
    // its complete frame.
    let mut boundaries = Vec::new(); // (byte_len, durable_gen)
    {
        let probe = tmpdir("trunc-probe");
        std::fs::create_dir_all(&probe).unwrap();
        let p = probe.join("wal-00000000000000000003.log");
        for len in 0..=full.len() {
            std::fs::write(&p, &full[..len]).unwrap();
            let scan = d2pr_store::log::scan_log(&p).unwrap();
            boundaries.push(3 + scan.records.len() as u64);
        }
        std::fs::remove_dir_all(&probe).unwrap();
    }
    assert_eq!(*boundaries.last().unwrap(), 6);
    assert_eq!(boundaries[0], 3);
    // Durability is monotone in bytes on disk.
    assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));

    // Full recovery contract at every truncation point of the final
    // record, plus spot checks across the whole file.
    let last_frame_start = full.len()
        - (1..=full.len())
            .find(|&k| {
                let probe = tmpdir("trunc-k");
                std::fs::create_dir_all(&probe).unwrap();
                let p = probe.join("wal-00000000000000000003.log");
                std::fs::write(&p, &full[..full.len() - k]).unwrap();
                let n = d2pr_store::log::scan_log(&p).unwrap().records.len();
                std::fs::remove_dir_all(&probe).unwrap();
                n == 2
            })
            .unwrap();
    for len in last_frame_start..=full.len() {
        std::fs::write(&wal, &full[..len]).unwrap();
        assert_recovers_to(&dir, boundaries[len]);
    }
    for len in (0..last_frame_start).step_by(7) {
        std::fs::write(&wal, &full[..len]).unwrap();
        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.durable_generation(), boundaries[len]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_byte_flip_in_the_latest_snapshot_falls_back() {
    let dir = fixture("snapflip");
    let snap = dir.join("snap-00000000000000000003.bin");
    let clean = std::fs::read(&snap).unwrap();

    // Any flipped byte must reject the snapshot; recovery then falls
    // back to snap-0 and stitches gens 1..=6 across both wal segments.
    for (i, step) in (0..clean.len()).step_by(3).enumerate() {
        let mut bytes = clean.clone();
        bytes[step] ^= 1 << (i % 8);
        std::fs::write(&snap, &bytes).unwrap();
        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.snapshot_generation, 0, "flip at byte {step} accepted");
        assert_eq!(state.corrupt_snapshots_skipped, 1);
        assert_eq!(state.durable_generation(), 6);
    }
    // Full engine-revival contract for one representative flip.
    let mut bytes = clean.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snap, &bytes).unwrap();
    assert_recovers_to(&dir, 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_byte_flip_in_the_wal_recovers_the_prefix_before_it() {
    let dir = fixture("walflip");
    let wal = dir.join("wal-00000000000000000003.log");
    let clean = std::fs::read(&wal).unwrap();

    for (i, step) in (0..clean.len()).step_by(3).enumerate() {
        let mut bytes = clean.clone();
        bytes[step] ^= 1 << (i % 8);
        std::fs::write(&wal, &bytes).unwrap();
        // Never a panic, never an error: the chain stops at (or before)
        // the flipped byte and everything up to it replays.
        let state = recover_dir(&dir).unwrap();
        assert!(state.durable_generation() >= 3);
        assert!(state.durable_generation() <= 6);
        if step >= 20 {
            // Flips past the segment header leave the header valid, so
            // generations framed entirely before the flip survive.
            let intact = state.parts.tail.len() as u64;
            assert!(
                state.durable_generation() == 3 + intact,
                "inconsistent tail accounting at byte {step}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_and_duplicate_snapshots_never_mask_newer_state() {
    let dir = fixture("stale");
    // A duplicate of the OLD snapshot parked at a mid-chain generation:
    // verification passes but its payload says generation 0, while the
    // newest snapshot still wins the scan.
    std::fs::copy(
        dir.join("snap-00000000000000000000.bin"),
        dir.join("snap-00000000000000000002.bin"),
    )
    .unwrap();
    assert_recovers_to(&dir, 6);

    // Corrupt the newest snapshot too: the scan skips it, tries the
    // parked duplicate next — whose *payload* generation (0) governs
    // replay, not its filename — and still reaches gen 6 through the
    // full log chain.
    let snap = dir.join("snap-00000000000000000003.bin");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&snap, &bytes).unwrap();
    let state = recover_dir(&dir).unwrap();
    assert_eq!(state.snapshot_generation, 0);
    assert_eq!(state.durable_generation(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_files_and_empty_stores_fail_typed_never_panic() {
    // Garbage wearing store names.
    let dir = tmpdir("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snap-00000000000000000005.bin"), b"not a snapshot").unwrap();
    std::fs::write(
        dir.join("wal-00000000000000000005.log"),
        b"not a log either",
    )
    .unwrap();
    match recover_dir(&dir).unwrap_err() {
        StoreError::NoDurableState {
            corrupt_snapshots, ..
        } => assert_eq!(corrupt_snapshots, 1),
        other => panic!("expected NoDurableState, got {other}"),
    }

    // Garbage *alongside* a healthy store: ignored where foreign, skipped
    // where it shadows real names.
    let healthy = fixture("garbage-healthy");
    std::fs::write(healthy.join("snap-00000000000000000009.bin"), b"\0\0\0\0").unwrap();
    std::fs::write(healthy.join("wal-00000000000000000009.log"), vec![0xFF; 64]).unwrap();
    std::fs::write(healthy.join("README.txt"), b"unrelated").unwrap();
    let state = recover_dir(&healthy).unwrap();
    assert_eq!(state.snapshot_generation, 3);
    assert_eq!(state.durable_generation(), 6);
    assert_eq!(state.corrupt_snapshots_skipped, 1);
    assert_eq!(state.corrupt_log_tails, 1);
    assert_recovers_to(&healthy, 6);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&healthy).unwrap();
}

/// A deterministic weighted digraph for the node-op battery.
fn churn_base() -> CsrGraph {
    let mut b = GraphBuilder::new(Direction::Directed, N as usize);
    for s in 0..N {
        for k in 1..=3u32 {
            let t = (s * 7 + k * 13 + 1) % N;
            if t != s {
                b.add_weighted_edge(s, t, 0.5 + ((s + k) % 5) as f64);
            }
        }
    }
    b.build().unwrap()
}

/// Weighted edits plus node churn; generations 2 and 5 grow the id
/// space, 3 and 6 tombstone a node — so both retained wal segments hold
/// node-op frames.
fn churn_batch(step: u64) -> EdgeBatch {
    let mut b = EdgeBatch::new();
    match step {
        1 => {
            b.insert_weighted(1, 40, 2.5);
            b.set_weight(0, 14, 9.0);
        }
        2 => {
            b.add_nodes(1);
            b.insert_weighted(N, 7, 2.0);
            b.insert_weighted(3, N, 1.25);
        }
        3 => {
            b.remove_node(5);
        }
        4 => {
            b.insert_weighted(6, 17, 3.5);
            b.delete(1, 40);
        }
        5 => {
            b.add_nodes(1);
            b.insert_weighted(N + 1, 2, 0.5);
            b.insert_weighted(N, N + 1, 4.0);
        }
        _ => {
            b.remove_node(8);
            b.set_weight(6, 17, 0.25);
        }
    }
    b
}

#[test]
fn node_op_frames_survive_truncation_and_flips() {
    let model = TransitionModel::Blended { p: 0.5, beta: 0.5 };
    let dir = tmpdir("churnfix");
    let mut store = DurableServingEngine::create(
        &dir,
        churn_base(),
        model,
        tight(),
        1,
        StoreOptions::default(),
    )
    .unwrap();
    for g in 1..=3 {
        store.ingest(&churn_batch(g)).unwrap();
    }
    store.snapshot_now().unwrap(); // v2 snapshot: grown, tombstoned, weighted
    for g in 4..=6 {
        store.ingest(&churn_batch(g)).unwrap();
    }
    drop(store);

    // Reference scores per generation, straight through the live serving
    // path (masking and revival semantics included).
    let reference: Vec<Vec<f64>> = (3..=6)
        .map(|upto| {
            let mut eng = ServingEngine::new(churn_base(), model, tight(), 1).unwrap();
            for g in 1..=upto {
                eng.ingest(&churn_batch(g)).unwrap();
            }
            let mut s = Vec::new();
            eng.reader().snapshot_into(&mut s);
            s
        })
        .collect();
    let parity = |dir: &Path, expect_gen: u64| {
        let scratch = dir.with_extension("open");
        copy_dir(dir, &scratch);
        let (store, report) =
            DurableServingEngine::open(&scratch, 1, StoreOptions::default()).unwrap();
        assert_eq!(report.recovered_generation, expect_gen);
        let mut scores = Vec::new();
        store.reader().snapshot_into(&mut scores);
        let expect = &reference[(expect_gen - 3) as usize];
        assert_eq!(scores.len(), expect.len());
        let l1: f64 = scores.iter().zip(expect).map(|(a, b)| (a - b).abs()).sum();
        assert!(
            l1 < 1e-7,
            "recovered churn state diverges at gen {expect_gen}: L1 {l1:.3e}"
        );
        drop(store);
        std::fs::remove_dir_all(&scratch).unwrap();
    };

    // Truncating the wal at every byte: never an error, never a served
    // torn record; full revival parity at each reachable generation.
    let wal = dir.join("wal-00000000000000000003.log");
    let full = std::fs::read(&wal).unwrap();
    let mut reached = std::collections::BTreeSet::new();
    for len in 0..=full.len() {
        std::fs::write(&wal, &full[..len]).unwrap();
        let state = recover_dir(&dir).unwrap();
        let g = state.durable_generation();
        assert!((3..=6).contains(&g), "cut at {len} landed on gen {g}");
        if reached.insert(g) {
            parity(&dir, g);
        }
    }
    assert_eq!(reached.into_iter().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
    std::fs::write(&wal, &full).unwrap();

    // Byte flips inside node-op frames: the chain stops at or before the
    // damage, and what replays is consistent.
    for (i, step) in (20..full.len()).step_by(3).enumerate() {
        let mut bytes = full.clone();
        bytes[step] ^= 1 << (i % 8);
        std::fs::write(&wal, &bytes).unwrap();
        let state = recover_dir(&dir).unwrap();
        let g = state.durable_generation();
        assert!((3..=6).contains(&g), "flip at {step} landed on gen {g}");
        assert_eq!(g, 3 + state.parts.tail.len() as u64);
    }
    std::fs::write(&wal, &full).unwrap();

    // Byte flips in the grown/tombstoned v2 snapshot: every one is
    // rejected, and recovery stitches the node-op chain from scratch.
    let snap = dir.join("snap-00000000000000000003.bin");
    let clean = std::fs::read(&snap).unwrap();
    for (i, step) in (0..clean.len()).step_by(7).enumerate() {
        let mut bytes = clean.clone();
        bytes[step] ^= 1 << (i % 8);
        std::fs::write(&snap, &bytes).unwrap();
        let state = recover_dir(&dir).unwrap();
        assert_eq!(state.snapshot_generation, 0, "flip at byte {step} accepted");
        assert_eq!(state.durable_generation(), 6);
    }
    // Full revival contract across the fallback path (gens 1..=6 replay
    // from the generation-0 snapshot, node ops and all).
    parity(&dir, 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_snapshot_commits_are_invisible() {
    let dir = fixture("tmpfile");
    // A crash between tmp-write and rename leaves a .tmp file; the scan
    // must ignore it even though it decodes (rename is the commit point).
    let committed = std::fs::read(dir.join("snap-00000000000000000003.bin")).unwrap();
    std::fs::write(dir.join("snap-00000000000000000006.bin.tmp"), &committed).unwrap();
    let state = recover_dir(&dir).unwrap();
    assert_eq!(state.snapshot_generation, 3);
    assert_recovers_to(&dir, 6);
    // open() sweeps the leftover.
    let (store, _) = DurableServingEngine::open(&dir, 1, StoreOptions::default()).unwrap();
    drop(store);
    assert!(!dir.join("snap-00000000000000000006.bin.tmp").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
