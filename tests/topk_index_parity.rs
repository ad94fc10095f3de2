//! Property test: the maintained top-k index is *indistinguishable* from a
//! full scan of the published scores — exact `(node, score, order)`
//! equality, never epsilon — for any graph, any churn stream, any
//! capacity, any `k`, and all three dangling policies.
//!
//! The writer repairs the index incrementally from the solver's touched
//! frontier when it can and rebuilds from a scan when it cannot (head
//! exhausted, sweep fallback touched everything), so parity must survive
//! *both* maintenance paths. The two solver regimes are forced through
//! the tolerance: a loose tolerance lets single-edge churn resolve via
//! `LocalizedPush` (repair path), a tight one drives the push phase to
//! stagnation and the `HybridPushSweep` finisher (rebuild path).

use d2pr_core::pagerank::{DanglingPolicy, PageRankConfig};
use d2pr_core::serving::ServingEngine;
use d2pr_core::transition::TransitionModel;
use d2pr_experiments::evolving::churn_stream;
use d2pr_graph::generators::barabasi_albert;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POLICIES: [DanglingPolicy; 3] = [
    DanglingPolicy::RedistributeTeleport,
    DanglingPolicy::SelfLoop,
    DanglingPolicy::Renormalize,
];

/// The `k` sweep for one published generation: boundary values around the
/// index capacity (indexed path, `k <= head`), plus `k` past the head and
/// past `n` (scan fallback path), deduplicated.
fn k_sweep(cap: usize, n: usize) -> Vec<usize> {
    let mut ks = vec![
        1,
        2,
        cap.saturating_sub(1).max(1),
        cap,
        cap + 1,
        2 * cap,
        n,
        n + 3,
    ];
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// Assert indexed reads equal the scan reference *and* a brute-force sort
/// of a full snapshot, bit-exact, for every `k` in the sweep.
fn assert_parity(serving: &ServingEngine, cap: usize, n: usize) -> Result<(), TestCaseError> {
    let reader = serving.reader();
    let mut snap = Vec::new();
    let generation = reader.snapshot_into(&mut snap);
    let mut brute: Vec<(u32, f64)> = snap
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as u32, s))
        .collect();
    brute.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for k in k_sweep(cap, n) {
        let indexed = reader.top_k(k);
        let scan = reader.top_k_scan(k);
        prop_assert_eq!(
            &indexed,
            &scan,
            "indexed vs scan diverged at generation {} (k = {})",
            generation,
            k
        );
        prop_assert_eq!(
            &indexed,
            &brute[..k.min(n)],
            "indexed vs brute-force snapshot sort diverged at generation {} (k = {})",
            generation,
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact index/scan parity at every published generation, across churn
    /// (insert *and* delete batches), both repair and rebuild maintenance
    /// paths, every `k` from 1 past `n`, and all three dangling policies.
    #[test]
    fn indexed_top_k_is_exactly_the_scan(
        n in 40usize..140,
        m in 2usize..4,
        graph_seed in any::<u64>(),
        churn_seed in any::<u64>(),
        churn in 0.0f64..0.4,
        batches in 3usize..7,
        cap in 3usize..24,
        // Loose tolerance → LocalizedPush repairs; tight → HybridPushSweep
        // rebuilds. Both must be parity-exact.
        tight in 0u32..2,
        p in -1.5f64..1.5,
    ) {
        let tolerance = if tight == 0 { 1e-6 } else { 1e-10 };
        let graph = barabasi_albert(n, m, graph_seed).unwrap();
        let mut rng = StdRng::seed_from_u64(churn_seed);
        let stream = churn_stream(&graph, batches, churn, &mut rng).unwrap();
        for dangling in POLICIES {
            let config = PageRankConfig { tolerance, dangling, ..Default::default() };
            let model = TransitionModel::DegreeDecoupled { p };
            let mut serving = ServingEngine::new(graph.clone(), model, config, 1).unwrap();
            serving.set_top_k_capacity(cap);
            assert_parity(&serving, cap, n)?;
            for batch in &stream {
                serving.ingest(batch).unwrap();
                assert_parity(&serving, cap, n)?;
            }
        }
    }
}
