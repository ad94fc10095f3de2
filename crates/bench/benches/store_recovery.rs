//! Durable-store benchmark: write-ahead-log ingest overhead and crash
//! recovery replay throughput.
//!
//! Two measurements over the same churn stream on the same graph:
//!
//! * **ingest overhead** — the stream runs once on the in-memory
//!   [`ServingEngine`] and once on the [`DurableServingEngine`]
//!   (fsync-logged before every publish, `snapshot_every = 0` so the
//!   whole stream rides the log). The durable-over-memory wall-time
//!   multiple is the price of durability; it is reported **unguarded**
//!   (fsync latency is host storage, not code).
//! * **recovery** — the durable store is dropped and reopened cold:
//!   latest snapshot + full log-tail replay + one warm re-solve. Reported
//!   as wall time and replayed batches/arcs per second (unguarded
//!   timings).
//!
//! The **guarded** key is `recovery_durable_generation_ratio`: the
//! recovered generation over the last acknowledged generation. It is
//! exactly 1.0 by the durability contract — every acknowledged ingest was
//! fsync-logged first — and it is deterministic (no timing in it), so the
//! tight ratio gate catches any recovery path that silently drops
//! acknowledged batches. Recovered scores are additionally checked against
//! a cold solve of the final graph (≤ 1e-4 L1 at the serving tolerance).
//! Results land in `BENCH_store.json` (smoke variant in
//! `target/bench-smoke/`, gated by `perf_guard` against
//! `ci/BENCH_store.smoke.json`).

use d2pr_core::engine::{default_threads, Engine};
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::ServingEngine;
use d2pr_core::transition::TransitionModel;
use d2pr_experiments::evolving::churn_stream;
use d2pr_graph::delta::DeltaGraph;
use d2pr_graph::generators::barabasi_albert;
use d2pr_store::durable::{DurableServingEngine, StoreOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::time::Instant;

#[cfg(not(feature = "smoke"))]
const NODES: usize = 100_000;
#[cfg(feature = "smoke")]
const NODES: usize = 3_000;
const ATTACH: usize = 5;
#[cfg(not(feature = "smoke"))]
const BATCHES: usize = 24;
#[cfg(feature = "smoke")]
const BATCHES: usize = 8;
/// Fraction of current edges mutated per batch — enough churn that the
/// log replay does real work per record.
const CHURN: f64 = 0.002;
const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };
const SEED: u64 = 0x570E;

fn serving_config() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-6,
        max_iterations: 1_000,
        ..Default::default()
    }
}

fn main() {
    let config = serving_config();
    eprintln!("store_recovery: generating BA({NODES}, {ATTACH}) ...");
    let graph = barabasi_albert(NODES, ATTACH, SEED).expect("graph generates");
    let arcs = graph.num_arcs();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xD1CE);
    let batches = churn_stream(&graph, BATCHES, CHURN, &mut rng).expect("unweighted");
    let mutated_arcs: usize = batches
        .iter()
        .map(|b| b.inserts.len() + b.deletes.len())
        .sum();

    // -- In-memory baseline: the same stream with no durability.
    let mut mem = ServingEngine::new(graph.clone(), MODEL, config, 1).expect("serving engine");
    let t0 = Instant::now();
    for batch in &batches {
        let refresh = mem.ingest(batch).expect("refresh");
        assert!(refresh.converged);
    }
    let mem_ingest_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(mem);

    // -- Durable: identical stream, every batch fsync-logged before it
    //    publishes. snapshot_every = 0: only the initial snapshot, the
    //    whole stream rides the log (the worst case for recovery below).
    let dir = std::env::temp_dir().join(format!("d2pr-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        snapshot_every: 0,
        ..Default::default()
    };
    let mut durable = DurableServingEngine::create(&dir, graph.clone(), MODEL, config, 1, opts)
        .expect("durable engine");
    let t0 = Instant::now();
    for batch in &batches {
        let refresh = durable.ingest(batch).expect("durable refresh");
        assert!(refresh.converged);
    }
    let durable_ingest_ms = t0.elapsed().as_secs_f64() * 1e3;
    let acked = durable.generation();
    assert_eq!(acked, BATCHES as u64);
    drop(durable);

    // -- Recovery: reopen cold. Latest snapshot (generation 0 here) +
    //    full log replay + one warm re-solve; open() also re-snapshots
    //    after a non-empty replay, so this is the complete crash-restart
    //    path a production restart pays.
    let t0 = Instant::now();
    let (recovered, report) =
        DurableServingEngine::open(&dir, 1, StoreOptions::default()).expect("recovery");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.recovered_generation, acked);
    assert_eq!(report.outcome.replayed_batches, BATCHES);
    let recovery_generation_ratio = report.recovered_generation as f64 / acked as f64;
    let replayed_arcs =
        report.outcome.replayed_inserted_arcs + report.outcome.replayed_deleted_arcs;

    // Parity: recovered scores match a cold solve of the final graph.
    let final_l1 = {
        let mut dg = DeltaGraph::new(graph).expect("unweighted");
        for batch in &batches {
            dg.apply_batch(batch).expect("valid batch");
        }
        let final_graph = dg.graph();
        let mut engine = Engine::new(final_graph)
            .with_config(config)
            .expect("config");
        let cold = engine.solve_model(MODEL).expect("cold solve");
        let reader = recovered.reader();
        let mut snap = Vec::new();
        reader.snapshot_into(&mut snap);
        let l1: f64 = cold
            .scores
            .iter()
            .zip(&snap)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 < 1e-4, "recovered scores diverged from cold: {l1:.3e}");
        l1
    };
    drop(recovered);
    let store_bytes: u64 = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum();
    std::fs::remove_dir_all(&dir).expect("clean up store dir");

    let ingest_overhead = durable_ingest_ms / mem_ingest_ms.max(1e-9);
    let replay_batches_per_s = BATCHES as f64 / (recovery_ms / 1e3).max(1e-9);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"store_recovery\",\n",
            "  \"graph\": {{\"generator\": \"barabasi_albert({}, {}, 0x570E)\", ",
            "\"nodes\": {}, \"arcs\": {}}},\n",
            "  \"model\": \"DegreeDecoupled(p = 0.5)\",\n",
            "  \"tolerance\": 1e-6,\n",
            "  \"batches\": {},\n",
            "  \"mutated_arcs\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"mem_ingest_ms\": {:.2},\n",
            "  \"durable_ingest_ms\": {:.2},\n",
            "  \"ingest_overhead_durable_over_mem\": {:.3},\n",
            "  \"recovery_ms\": {:.2},\n",
            "  \"recovery_replayed_batches\": {},\n",
            "  \"recovery_replayed_arcs\": {},\n",
            "  \"recovery_replay_batches_per_s\": {:.1},\n",
            "  \"recovery_durable_generation_ratio\": {:.3},\n",
            "  \"store_bytes_on_disk\": {},\n",
            "  \"final_l1_divergence_vs_cold\": {:.3e},\n",
            "  \"note\": \"Identical churn streams at the 1e-6 serving tolerance. ",
            "mem runs the in-memory ServingEngine; durable fsync-logs every batch ",
            "before it publishes (snapshot_every = 0, so recovery replays the whole ",
            "stream -- its worst case). recovery_ms is a full cold reopen: snapshot ",
            "load + log-tail replay + one warm re-solve + the post-replay ",
            "re-snapshot. recovery_durable_generation_ratio is the GUARDED key: ",
            "recovered generation over the last acknowledged generation, exactly ",
            "1.0 by the durability contract and deterministic -- any recovery path ",
            "that drops acknowledged batches trips the gate. The timing keys ",
            "(ingest overhead, replay throughput) are host-storage-dependent and ",
            "reported unguarded.\"\n",
            "}}\n"
        ),
        NODES,
        ATTACH,
        NODES,
        arcs,
        BATCHES,
        mutated_arcs,
        default_threads(),
        mem_ingest_ms,
        durable_ingest_ms,
        ingest_overhead,
        recovery_ms,
        report.outcome.replayed_batches,
        replayed_arcs,
        replay_batches_per_s,
        recovery_generation_ratio,
        store_bytes,
        final_l1,
    );

    let out = if cfg!(feature = "smoke") {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-smoke");
        std::fs::create_dir_all(&dir).expect("create bench-smoke dir");
        dir.join("BENCH_store.json")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_store.json")
    };
    let mut f = std::fs::File::create(&out).expect("create BENCH_store.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_store.json");
    println!("wrote {}\n{json}", out.display());
    println!(
        "durable ingest {:.2}ms vs mem {:.2}ms ({:.2}x); cold recovery of {} batches in {:.2}ms",
        durable_ingest_ms, mem_ingest_ms, ingest_overhead, BATCHES, recovery_ms,
    );
}
