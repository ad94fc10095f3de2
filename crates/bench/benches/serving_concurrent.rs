//! Serving-concurrency benchmark: read throughput during refresh,
//! double-buffered vs stop-the-world.
//!
//! The acceptance run for the serving layer. Two deployments stream the
//! *same* churn (at full scale single-edge trickle batches at the 1e-6
//! serving tolerance, the `incremental_updates` serving regime; smoke
//! uses denser batches — see [`CHURN`]) over the same graph while reader
//! threads hammer point queries:
//!
//! * **live** — the `ServingEngine` path: readers hold [`ScoreReader`]s,
//!   the writer resolves into the back buffer and publishes atomically.
//!   Reads proceed *during* the refresh.
//! * **stop_the_world** — the pre-serving discipline: scores live behind
//!   a writer-priority lock that the writer holds for the whole refresh
//!   (no reader may touch an engine while `resolve_incremental` runs —
//!   exactly the constraint this PR removes). Identical solver work; only
//!   the reader-availability discipline differs. (Writer-priority, not a
//!   bare `Mutex`/`RwLock`: under a continuous reader stream both std
//!   locks starve the sleeping writer out of its own refresh — measured
//!   here — which models neither discipline; real lock-based serving
//!   gates readers for exactly this reason.)
//!
//! Both run the same duty cycle (a short idle between batches, as any
//! real ingest stream has). The **guarded** key is
//! `read_availability_during_refresh_ratio`: reads served inside refresh
//! windows, live over stop-the-world, **saturated at 10** — the true gap
//! is unbounded (stop-the-world serves ~zero reads there) and hence
//! noisy, while the cap turns it into a stable pass/fail signal: any
//! publication-path regression that blocks readers collapses the ratio
//! to ~1 and trips the tight ratio gate. Whole-stream throughput and the
//! raw (uncapped) gap are reported unguarded. Results land in
//! `BENCH_serving.json` (the smoke variant in `target/bench-smoke/`,
//! gated by `perf_guard` against `ci/BENCH_serving.smoke.json`).

use d2pr_core::engine::{default_threads, Engine};
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::ServingEngine;
use d2pr_core::transition::TransitionModel;
use d2pr_experiments::evolving::churn_stream;
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::generators::barabasi_albert;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[cfg(not(feature = "smoke"))]
const NODES: usize = 100_000;
#[cfg(feature = "smoke")]
const NODES: usize = 3_000;
const ATTACH: usize = 5;
#[cfg(not(feature = "smoke"))]
const BATCHES: usize = 24;
#[cfg(feature = "smoke")]
const BATCHES: usize = 6;
/// Per-batch churn fraction. Full scale uses the sampler's floor (churn
/// 0.0 => exactly one delete + one insert per batch — the single-edge
/// trickle regime). Smoke runs a graph ~30x smaller, where trickle
/// refreshes have shrunk below a scheduler quantum as the solver got
/// faster — on a 1-CPU host the reader threads can get zero timeslices
/// inside such a window and the availability ratio degenerates to
/// coin-flip noise. Real per-batch churn keeps smoke refresh windows a
/// few ms wide so the during-refresh read rate is actually measurable.
#[cfg(not(feature = "smoke"))]
const CHURN: f64 = 0.0;
#[cfg(feature = "smoke")]
const CHURN: f64 = 0.25;
const READERS: usize = 2;
/// Idle between batches (the duty cycle any real ingest stream has).
const IDLE: Duration = Duration::from_millis(2);
const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };
const SEED: u64 = 0x5E21;

fn serving_config() -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-6,
        max_iterations: 1_000,
        ..Default::default()
    }
}

/// The stop-the-world baseline's lock: a mutex with writer priority.
/// Readers spin out while a refresh is pending/running, so the writer
/// acquires promptly (a bare std Mutex/RwLock lets spinning readers
/// starve the sleeping writer on a busy host).
struct StopTheWorld {
    write_pending: AtomicBool,
    scores: Mutex<Vec<f64>>,
}

impl StopTheWorld {
    fn new(scores: Vec<f64>) -> Self {
        Self {
            write_pending: AtomicBool::new(false),
            scores: Mutex::new(scores),
        }
    }

    fn read(&self, node: usize) -> f64 {
        while self.write_pending.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.scores.lock().expect("not poisoned")[node]
    }

    /// Take the lock for a whole refresh; released by [`Self::end_write`].
    fn begin_write(&self) -> MutexGuard<'_, Vec<f64>> {
        self.write_pending.store(true, Ordering::Release);
        self.scores.lock().expect("not poisoned")
    }

    fn end_write(&self, guard: MutexGuard<'_, Vec<f64>>) {
        drop(guard);
        self.write_pending.store(false, Ordering::Release);
    }
}

/// Sets the reader stop flag when dropped — **including during a panic's
/// unwind** out of the refresh closure, so a failed `expect`/`assert`
/// surfaces instead of hanging the scope join on spinning readers.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Shared read-side counters of one run.
#[derive(Default)]
struct ReadCounters {
    total: AtomicU64,
    during_refresh: AtomicU64,
}

/// Per-mode measurement.
struct RunStats {
    refresh_ms_total: f64,
    stream_ms: f64,
    reads_total: u64,
    reads_during_refresh: u64,
    generations: u64,
}

impl RunStats {
    fn reads_per_ms_stream(&self) -> f64 {
        self.reads_total as f64 / self.stream_ms.max(1e-9)
    }

    fn reads_per_ms_during_refresh(&self) -> f64 {
        self.reads_during_refresh as f64 / self.refresh_ms_total.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"refresh_ms_total\": {:.2}, \"refresh_ms_mean\": {:.3}, ",
                "\"stream_ms\": {:.2}, \"reads_total\": {}, ",
                "\"reads_during_refresh\": {}, \"reads_per_ms_stream\": {:.1}, ",
                "\"reads_per_ms_during_refresh\": {:.1}, \"generations\": {}}}"
            ),
            self.refresh_ms_total,
            self.refresh_ms_total / BATCHES as f64,
            self.stream_ms,
            self.reads_total,
            self.reads_during_refresh,
            self.reads_per_ms_stream(),
            self.reads_per_ms_during_refresh(),
            self.generations,
        )
    }
}

/// Drive one churn stream with `refresh` while `READERS` threads spin on
/// `read` (a single point query; it must return a finite score).
fn drive(
    batches: &[EdgeBatch],
    read: impl Fn(u32) -> f64 + Sync,
    mut refresh: impl FnMut(&EdgeBatch),
) -> (f64, f64, ReadCounters) {
    let counters = ReadCounters::default();
    let refreshing = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let mut refresh_ms = 0.0f64;
    let mut stream_ms = 0.0f64;
    std::thread::scope(|scope| {
        for r in 0..READERS {
            let read = &read;
            let counters = &counters;
            let refreshing = &refreshing;
            let stop = &stop;
            scope.spawn(move || {
                let mut node = r as u32;
                let mut local = 0u64;
                let mut local_during = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..32 {
                        node =
                            node.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % NODES as u32;
                        let s = read(node);
                        assert!(s.is_finite());
                        local += 1;
                        if refreshing.load(Ordering::Relaxed) {
                            local_during += 1;
                        }
                    }
                }
                counters.total.fetch_add(local, Ordering::Relaxed);
                counters
                    .during_refresh
                    .fetch_add(local_during, Ordering::Relaxed);
            });
        }
        // Dropped on every exit path — a refresh panic must release the
        // readers or the scope join hangs and masks the failure.
        let _stop_guard = StopOnDrop(&stop);
        let stream_start = Instant::now();
        for batch in batches {
            refreshing.store(true, Ordering::Relaxed);
            let t0 = Instant::now();
            refresh(batch);
            refresh_ms += t0.elapsed().as_secs_f64() * 1e3;
            refreshing.store(false, Ordering::Relaxed);
            std::thread::sleep(IDLE);
        }
        stream_ms = stream_start.elapsed().as_secs_f64() * 1e3;
    });
    (refresh_ms, stream_ms, counters)
}

fn main() {
    eprintln!("serving_concurrent: generating BA({NODES}, {ATTACH}) ...");
    let graph = barabasi_albert(NODES, ATTACH, SEED).expect("graph generates");
    let arcs = graph.num_arcs();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xD1CE);
    let batches = churn_stream(&graph, BATCHES, CHURN, &mut rng).expect("unweighted");
    let config = serving_config();

    // -- Live: double-buffered publication, readers never excluded.
    let mut serving = ServingEngine::new(graph.clone(), MODEL, config, 1).expect("serving engine");
    let reader = serving.reader();
    let (refresh_ms, stream_ms, counters) = drive(
        &batches,
        |node| reader.get(node).expect("in range"),
        |batch| {
            let refresh = serving.ingest(batch).expect("refresh");
            assert!(refresh.converged);
        },
    );
    let live = RunStats {
        refresh_ms_total: refresh_ms,
        stream_ms,
        reads_total: counters.total.load(Ordering::Relaxed),
        reads_during_refresh: counters.during_refresh.load(Ordering::Relaxed),
        generations: serving.generation(),
    };

    // Parity: the final published generation matches a cold solve of the
    // final graph at the same tolerance.
    let final_divergence = {
        let mut dg = DeltaGraph::new(graph.clone()).expect("unweighted");
        for batch in &batches {
            dg.apply_batch(batch).expect("valid batch");
        }
        let final_graph = dg.graph();
        let mut engine = Engine::new(final_graph)
            .with_config(config)
            .expect("config");
        let cold = engine.solve_model(MODEL).expect("cold solve");
        let mut snap = Vec::new();
        reader.snapshot_into(&mut snap);
        let l1: f64 = cold
            .scores
            .iter()
            .zip(&snap)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 < 1e-4, "published scores diverged from cold: {l1:.3e}");
        l1
    };
    drop(reader);

    // -- Stop-the-world: same solver work, but scores live behind the
    //    writer-priority lock whose guard spans the whole refresh.
    let mut serving_stw =
        ServingEngine::new(graph.clone(), MODEL, config, 1).expect("serving engine");
    let stw_reader = serving_stw.reader();
    let published = {
        let mut initial = Vec::new();
        stw_reader.snapshot_into(&mut initial);
        StopTheWorld::new(initial)
    };
    let (refresh_ms, stream_ms, counters) = drive(
        &batches,
        |node| published.read(node as usize),
        |batch| {
            let mut guard = published.begin_write();
            let refresh = serving_stw.ingest(batch).expect("refresh");
            assert!(refresh.converged);
            stw_reader.snapshot_into(&mut guard);
            published.end_write(guard);
        },
    );
    let stw = RunStats {
        refresh_ms_total: refresh_ms,
        stream_ms,
        reads_total: counters.total.load(Ordering::Relaxed),
        reads_during_refresh: counters.during_refresh.load(Ordering::Relaxed),
        generations: serving_stw.generation(),
    };

    let speedup_stream = live.reads_per_ms_stream() / stw.reads_per_ms_stream().max(1e-9);
    // Raw availability gap inside refresh windows; enormous and noisy by
    // nature (stop-the-world serves ~0 reads there), so it is reported
    // under a deliberately *unguarded* key name...
    let during_advantage = live.reads_per_ms_during_refresh()
        / stw
            .reads_per_ms_during_refresh()
            .max(1.0 / stw.refresh_ms_total.max(1.0));
    // ...while the *guarded* form saturates at 10: both the baseline and
    // any healthy candidate sit pinned at the cap (stable under timing
    // noise), and a publication-path regression that blocks readers
    // during refresh collapses it to ~1, tripping the tight ratio gate.
    const AVAILABILITY_CAP: f64 = 10.0;
    let availability_ratio = during_advantage.min(AVAILABILITY_CAP);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serving_concurrent\",\n",
            "  \"graph\": {{\"generator\": \"barabasi_albert({}, {}, 0x5E21)\", ",
            "\"nodes\": {}, \"arcs\": {}}},\n",
            "  \"model\": \"DegreeDecoupled(p = 0.5)\",\n",
            "  \"tolerance\": 1e-6,\n",
            "  \"batches\": {},\n",
            "  \"churn_per_batch\": {},\n",
            "  \"reader_threads\": {},\n",
            "  \"idle_between_batches_ms\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"live\": {},\n",
            "  \"stop_the_world\": {},\n",
            "  \"read_availability_during_refresh_ratio\": {:.3},\n",
            "  \"speedup_reads_live_vs_stop_the_world\": {:.3},\n",
            "  \"during_refresh_reads_live_over_stw\": {:.1},\n",
            "  \"final_l1_divergence_vs_cold\": {:.3e},\n",
            "  \"note\": \"Identical churn streams at the 1e-6 serving ",
            "tolerance; both modes run the same incremental solver. live publishes ",
            "through the double-buffered ServingEngine (readers wait-free throughout); ",
            "stop_the_world holds a writer-priority lock for the whole refresh, the ",
            "pre-serving discipline. read_availability_during_refresh_ratio is the ",
            "GUARDED key: reads served inside refresh windows, live over ",
            "stop-the-world, saturated at 10 -- healthy runs pin the cap, a ",
            "publication-path regression that blocks readers collapses it to ~1. ",
            "speedup_reads_live_vs_stop_the_world (whole duty-cycled stream) and ",
            "during_refresh_reads_live_over_stw (the raw unbounded availability gap) ",
            "are reported unguarded. On a 1-CPU host aggregate throughput cannot ",
            "improve (reads and solves time-share one core, and the wait-free readers ",
            "stretch refresh wall time by competing with the solver); the win this ",
            "bench demonstrates is availability -- zero reader outage during ",
            "refresh -- which multi-core hosts convert into throughput.\"\n",
            "}}\n"
        ),
        NODES,
        ATTACH,
        NODES,
        arcs,
        BATCHES,
        CHURN,
        READERS,
        IDLE.as_millis(),
        default_threads(),
        live.json(),
        stw.json(),
        availability_ratio,
        speedup_stream,
        during_advantage,
        final_divergence,
    );

    let out = if cfg!(feature = "smoke") {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-smoke");
        std::fs::create_dir_all(&dir).expect("create bench-smoke dir");
        dir.join("BENCH_serving.json")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json")
    };
    let mut f = std::fs::File::create(&out).expect("create BENCH_serving.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_serving.json");
    println!("wrote {}\n{json}", out.display());
    println!(
        "read throughput: live {:.0}/ms vs stop-the-world {:.0}/ms ({:.2}x); \
         during refresh windows: {:.0}/ms vs {:.0}/ms",
        live.reads_per_ms_stream(),
        stw.reads_per_ms_stream(),
        speedup_stream,
        live.reads_per_ms_during_refresh(),
        stw.reads_per_ms_during_refresh(),
    );
}
