//! Crash-injection suite for the durability layer: kill the workload at
//! **every** `store.*` yield point (exhaustive over one fixed workload),
//! plus a seed-randomized mini-sweep (CI runs the big sweep via the
//! `sim --scenario store` binary). Every run must recover to the last
//! durable generation with cold-solve-parity ranks and keep serving.

use d2pr_sim::crash::{run_store_scenario, StoreScenarioConfig};
use std::collections::BTreeSet;

/// One fixed workload whose event stream covers all eleven `store.*`
/// labels: snapshots every 2 ingests force rotate + retire traffic, and
/// enough batches ride the log to crash inside appends and fsyncs. Node
/// churn is on, so the sweep also kills the store between the node-op
/// frames of the grow/tombstone batches.
fn exhaustive_config() -> StoreScenarioConfig {
    StoreScenarioConfig {
        seed: 0xE0_0001,
        nodes: 40,
        batches: 6,
        snapshot_every: 2,
        crash_at: None,
        node_churn: true,
    }
}

#[test]
fn a_crash_at_every_yield_point_recovers_to_the_durable_generation() {
    // Pass 1: count the crash-free run's events.
    let mut cfg = exhaustive_config();
    let clean = run_store_scenario(&cfg).expect("crash-free run");
    assert!(clean.crashed.is_none());
    assert_eq!(clean.final_generation, cfg.batches as u64);
    let total = clean.store_events;
    assert!(total > 30, "workload too small to be exhaustive: {total}");

    // Pass 2: kill at every event boundary. run_store_scenario checks
    // the full contract internally; here we additionally demand that the
    // sweep reached every label in the placement map.
    let mut labels: BTreeSet<&'static str> = BTreeSet::new();
    for k in 0..total {
        cfg.crash_at = Some(k);
        let report = run_store_scenario(&cfg).unwrap_or_else(|e| panic!("crash at event {k}: {e}"));
        let (label, index) = report.crashed.expect("kill point within the run");
        assert_eq!(index, k);
        labels.insert(label);
    }
    let expected: BTreeSet<&'static str> = [
        "store.log.append.frame",
        "store.log.append.body",
        "store.log.fsync",
        "store.serve.ingest",
        "store.ingest.done",
        "store.snap.write",
        "store.snap.fsync",
        "store.snap.rename",
        "store.snap.dirsync",
        "store.log.rotate",
        "store.log.retire",
    ]
    .into_iter()
    .collect();
    assert_eq!(labels, expected, "some yield points were never crashed");
}

#[test]
fn randomized_seed_sweep_always_recovers() {
    let mut crashes = 0u64;
    for seed in 0..60 {
        let report = run_store_scenario(&StoreScenarioConfig::from_seed(seed))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        crashes += u64::from(report.crashed.is_some());
    }
    // The crash point is drawn slightly beyond the expected event count,
    // so a healthy sweep mixes crashed and crash-free runs.
    assert!(crashes >= 20, "sweep injected too few crashes: {crashes}");
    assert!(crashes <= 58, "sweep never ran crash-free: {crashes}");
}
