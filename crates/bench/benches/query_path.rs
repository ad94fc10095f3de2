//! Query-path benchmark: ranked and point reads on the serving layer.
//!
//! Three read shapes, all against live `ServingEngine`s under the same
//! single-edge trickle churn (the `serving_concurrent` regime — churn 0.0
//! floor, 1e-6 serving tolerance):
//!
//! * **indexed vs scan top-k** — `ScoreReader::top_k(K)` answered from
//!   the maintained per-slot index (an `O(k)` copy) against
//!   `ScoreReader::top_k_scan(K)`, the `O(n log k)` full-scan reference,
//!   re-measured after every churn batch so the index is exercised in its
//!   repaired/rebuilt states, with exact parity asserted each generation.
//!   The **guarded** key is `indexed_topk_speedup_vs_scan` — the whole
//!   point of maintaining the index is that ranked reads stop paying
//!   `O(n)`, so a maintenance bug that degrades reads back to scans (or
//!   slows the indexed path) trips the ratio gate.
//! * **cross-shard ranked reads** — `ShardManager::top_k_global(K)` over
//!   4 shards: per-shard `O(k)` partials merged by threshold. Reported
//!   unguarded (`global_topk_ns_per_op`).
//! * **grouped point reads** — `ShardManager::batch_get` (one pin per
//!   shard per batch) against the per-key loop it replaced. Reported
//!   unguarded (`batch_get_grouped_vs_perkey_gain`) — the pin/unpin pair
//!   dominates a point read, so grouping is a constant-factor win that
//!   sits near the guard's noise floor.
//!
//! Results land in `BENCH_query.json` (smoke: `target/bench-smoke/`,
//! gated by `perf_guard` against `ci/BENCH_query.smoke.json`).

use d2pr_core::engine::default_threads;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::{ServingEngine, ShardManager};
use d2pr_core::transition::TransitionModel;
use d2pr_experiments::evolving::churn_stream;
use d2pr_graph::generators::barabasi_albert;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

#[cfg(not(feature = "smoke"))]
const NODES: usize = 100_000;
#[cfg(feature = "smoke")]
const NODES: usize = 3_000;
const ATTACH: usize = 5;
#[cfg(not(feature = "smoke"))]
const BATCHES: usize = 16;
#[cfg(feature = "smoke")]
const BATCHES: usize = 4;
/// The ranked-read size: within the default index capacity (128), so the
/// indexed path answers every query.
const K: usize = 100;
/// Indexed reads per generation (cheap: `O(k)` each).
const TOPK_REPS: usize = 256;
/// Scan reads per generation (each pays `O(n log k)`).
#[cfg(not(feature = "smoke"))]
const SCAN_REPS: usize = 24;
#[cfg(feature = "smoke")]
const SCAN_REPS: usize = 64;
const SHARDS: usize = 4;
#[cfg(not(feature = "smoke"))]
const SHARD_NODES: usize = 20_000;
#[cfg(feature = "smoke")]
const SHARD_NODES: usize = 1_000;
const POINT_QUERIES: usize = 4_096;
const POINT_REPS: usize = 64;
const GLOBAL_REPS: usize = 128;
const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };
const SEED: u64 = 0x5E21;

fn serving_config() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-6,
        max_iterations: 1_000,
        ..Default::default()
    }
}

/// Mean ns per call of `f` over `reps` calls.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn main() {
    eprintln!("query_path: generating BA({NODES}, {ATTACH}) ...");
    let graph = barabasi_albert(NODES, ATTACH, SEED).expect("graph generates");
    let arcs = graph.num_arcs();
    // churn 0.0 => the sampler's floor: one delete plus one insert per
    // batch — the single-edge trickle regime.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xD1CE);
    let batches = churn_stream(&graph, BATCHES, 0.0, &mut rng).expect("unweighted");

    let mut serving =
        ServingEngine::new(graph, MODEL, serving_config(), 1).expect("serving engine");
    let reader = serving.reader();
    let capacity = serving.top_k_capacity();
    assert!(K <= capacity, "K must ride the indexed path");

    // Ranked reads at every published generation: the initial solve, then
    // after each churn batch (repair and rebuild maintenance states both
    // occur along the stream). Parity is asserted before timing — a bench
    // that measured a wrong answer fast would be worse than useless.
    let mut indexed_ns = 0.0f64;
    let mut scan_ns = 0.0f64;
    let mut generations = 0u32;
    let mut measure = |reader: &d2pr_core::serving::ScoreReader| {
        assert_eq!(reader.top_k(K), reader.top_k_scan(K), "index/scan parity");
        indexed_ns += time_ns(TOPK_REPS, || reader.top_k(K));
        scan_ns += time_ns(SCAN_REPS, || reader.top_k_scan(K));
        generations += 1;
    };
    measure(&reader);
    for batch in &batches {
        let refresh = serving.ingest(batch).expect("refresh");
        assert!(refresh.converged);
        measure(&reader);
    }
    let indexed_ns = indexed_ns / generations as f64;
    let scan_ns = scan_ns / generations as f64;
    let speedup = scan_ns / indexed_ns.max(1e-9);

    // Cross-shard ranked reads + grouped point reads on a 4-shard manager.
    eprintln!("query_path: building {SHARDS} shards of BA({SHARD_NODES}, {ATTACH}) ...");
    let shard_graphs: Vec<_> = (0..SHARDS)
        .map(|s| barabasi_albert(SHARD_NODES, ATTACH, SEED + s as u64).expect("graph generates"))
        .collect();
    let manager =
        ShardManager::from_graphs(shard_graphs, MODEL, serving_config()).expect("shard manager");
    let global_ns = time_ns(GLOBAL_REPS, || manager.top_k_global(K));

    let mut node = 7u32;
    let queries: Vec<(u64, u32)> = (0..POINT_QUERIES)
        .map(|q| {
            node = node.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (q as u64, node % SHARD_NODES as u32)
        })
        .collect();
    let grouped_ns = time_ns(POINT_REPS, || manager.batch_get(&queries)) / POINT_QUERIES as f64;
    let per_key_ns = time_ns(POINT_REPS, || {
        queries
            .iter()
            .map(|&(key, node)| manager.get(key, node))
            .collect::<Vec<_>>()
    }) / POINT_QUERIES as f64;
    let gain = per_key_ns / grouped_ns.max(1e-9);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"query_path\",\n",
            "  \"graph\": {{\"generator\": \"barabasi_albert({}, {}, 0x5E21)\", ",
            "\"nodes\": {}, \"arcs\": {}}},\n",
            "  \"model\": \"DegreeDecoupled(p = 0.5)\",\n",
            "  \"tolerance\": 1e-6,\n",
            "  \"k\": {},\n",
            "  \"index_capacity\": {},\n",
            // Not "generations": perf_guard watches every key containing
            // the substring "ratio", which "generations" does.
            "  \"publish_points_measured\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"topk_indexed_ns_per_query\": {:.1},\n",
            "  \"topk_scan_ns_per_query\": {:.1},\n",
            "  \"indexed_topk_speedup_vs_scan\": {:.3},\n",
            "  \"global_topk\": {{\"shards\": {}, \"shard_nodes\": {}, ",
            "\"ns_per_op\": {:.1}}},\n",
            "  \"batch_get\": {{\"queries\": {}, \"grouped_ns_per_query\": {:.2}, ",
            "\"per_key_ns_per_query\": {:.2}}},\n",
            "  \"batch_get_grouped_vs_perkey_gain\": {:.3},\n",
            "  \"note\": \"Ranked reads against the maintained top-k index vs the ",
            "O(n log k) scan, re-measured at every published generation of a ",
            "single-edge churn stream with exact parity asserted first. ",
            "indexed_topk_speedup_vs_scan is the GUARDED key: a maintenance bug ",
            "that degrades ranked reads back to scan cost (or slows the indexed ",
            "copy) trips the ratio gate. global_topk times the 4-shard ",
            "scatter/gather threshold merge; batch_get compares the grouped ",
            "one-pin-per-shard batch read against the per-key pin loop it ",
            "replaced (unguarded: a constant-factor win near the noise floor).\"\n",
            "}}\n"
        ),
        NODES,
        ATTACH,
        NODES,
        arcs,
        K,
        capacity,
        generations,
        default_threads(),
        indexed_ns,
        scan_ns,
        speedup,
        SHARDS,
        SHARD_NODES,
        global_ns,
        POINT_QUERIES,
        grouped_ns,
        per_key_ns,
        gain,
    );

    let out = if cfg!(feature = "smoke") {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-smoke");
        std::fs::create_dir_all(&dir).expect("create bench-smoke dir");
        dir.join("BENCH_query.json")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_query.json")
    };
    let mut f = std::fs::File::create(&out).expect("create BENCH_query.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_query.json");
    println!("wrote {}\n{json}", out.display());
    println!(
        "top_k({K}): indexed {indexed_ns:.0} ns vs scan {scan_ns:.0} ns ({speedup:.1}x); \
         global merge {global_ns:.0} ns; batch_get {grouped_ns:.1} ns/query \
         vs per-key {per_key_ns:.1} ns/query ({gain:.2}x)"
    );
}
