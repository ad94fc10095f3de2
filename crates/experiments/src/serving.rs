//! Mixed reader/writer serving scenario: concurrent point queries against
//! a continuously refreshed (and optionally sharded) D2PR ranking.
//!
//! The `repro serve` subcommand drives the PR-5 serving stack end to end:
//! a [`ShardManager`] hosts one uniform view (`--shards 1`, the default)
//! or N personalization views over one shared transpose, reader threads
//! hammer [`ScoreReader::get`] round-robin across the shards, and the
//! writer streams churn batches through
//! [`ShardManager::ingest_all`](d2pr_core::serving::ShardManager::ingest_all).
//! The per-batch table shows the refresh strategy, its wall time, and how
//! many reads were served **during** each refresh — the number that was
//! zero, by construction, before the double-buffered publication path.
//!
//! With `--data-dir` the same stream runs on the **durable** stack
//! ([`DurableShardManager`]): every batch is logged and fsynced before it
//! publishes, snapshots land every `--snapshot-every` ingests, and a later
//! `repro recover <dir>` revives the store and prints where it resumed.

use crate::evolving::churn_stream;
use crate::report::TextTable;
use d2pr_core::engine::ResolveMode;
use d2pr_core::error::UpdateError;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::{RefreshOutcome, ScoreReader, ShardManager};
use d2pr_core::transition::TransitionModel;
use d2pr_graph::delta::EdgeBatch;
use d2pr_graph::generators::barabasi_albert;
use d2pr_store::durable::{RecoveryReport, StoreOptions};
use d2pr_store::{DurableShardManager, ShardIngest, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Errors of the serving scenario: the in-memory stack's update errors
/// plus the durable stack's store errors.
#[derive(Debug)]
pub enum ServeError {
    /// The serving/solver layer failed.
    Update(UpdateError),
    /// The durability layer failed.
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Update(e) => write!(f, "{e}"),
            ServeError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<UpdateError> for ServeError {
    fn from(e: UpdateError) -> Self {
        ServeError::Update(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<d2pr_graph::error::GraphError> for ServeError {
    fn from(e: d2pr_graph::error::GraphError) -> Self {
        ServeError::Update(UpdateError::Graph(e))
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Nodes of the initial Barabási–Albert graph.
    pub nodes: usize,
    /// BA attachments per node.
    pub attachments: usize,
    /// Churn batches to stream.
    pub batches: usize,
    /// Fraction of current edges mutated per batch.
    pub churn: f64,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Shards: 1 = a single uniform view; N > 1 = N personalization views
    /// over one shared transpose structure.
    pub shards: usize,
    /// De-coupling weight `p` of the served model.
    pub p: f64,
    /// Residual probability `α`.
    pub alpha: f64,
    /// Solver L1 tolerance (serving default 1e-6).
    pub tolerance: f64,
    /// Solver iteration cap.
    pub max_iterations: usize,
    /// RNG seed for the graph, the teleports, and the churn stream.
    pub seed: u64,
    /// Ranked-read size: readers interleave `top_k(top_k)` queries into
    /// their point-read stream (0 = point reads only, the pre-index mix).
    pub top_k: usize,
    /// Fraction of reads that are ranked (`top_k`) queries when
    /// [`ServeConfig::top_k`] is non-zero; clamped to `[0, 1]`.
    pub query_mix: f64,
    /// When set, serve on the durable stack persisting into this
    /// directory (refused when it already holds state — `recover` it
    /// instead).
    pub data_dir: Option<PathBuf>,
    /// Snapshot cadence of the durable stack (ignored without
    /// `data_dir`; 0 = only the initial snapshot, the whole stream rides
    /// the log).
    pub snapshot_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            nodes: 20_000,
            attachments: 5,
            batches: 6,
            churn: 0.002,
            readers: 2,
            shards: 1,
            p: 0.5,
            alpha: 0.85,
            tolerance: 1e-6,
            max_iterations: 500,
            seed: 0x5EB7,
            top_k: 0,
            query_mix: 0.0,
            data_dir: None,
            snapshot_every: 2,
        }
    }
}

/// The two serving stacks the scenario can drive: in-memory, or durable
/// (write-ahead logged + snapshotted) when `--data-dir` is given.
enum Stack {
    Mem(ShardManager),
    Durable(DurableShardManager),
}

impl Stack {
    fn readers(&self) -> Vec<ScoreReader> {
        match self {
            Stack::Mem(m) => m.readers(),
            Stack::Durable(d) => d.readers(),
        }
    }

    fn num_shards(&self) -> usize {
        match self {
            Stack::Mem(m) => m.num_shards(),
            Stack::Durable(d) => d.num_shards(),
        }
    }

    /// Group-ingest on either stack. The scenario streams pre-validated
    /// batches, so a durable partial failure is converted to its
    /// first-failing shard's error.
    fn ingest_all(&mut self, batch: &EdgeBatch) -> Result<Vec<RefreshOutcome>, ServeError> {
        match self {
            Stack::Mem(m) => Ok(m.ingest_all(batch)?),
            Stack::Durable(d) => {
                let report = d.ingest_all(batch);
                let mut outcomes = Vec::with_capacity(report.outcomes.len());
                for o in report.outcomes {
                    match o {
                        ShardIngest::Applied(outcome) => outcomes.push(outcome),
                        ShardIngest::Failed(e) => return Err(ServeError::Store(e)),
                        ShardIngest::Skipped => unreachable!("Skipped only follows Failed"),
                    }
                }
                Ok(outcomes)
            }
        }
    }
}

/// One streamed batch, as served.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStep {
    /// 1-based batch index.
    pub batch: usize,
    /// Arcs inserted / deleted (effective, mirrored arcs counted).
    pub inserted_arcs: usize,
    /// Arcs deleted.
    pub deleted_arcs: usize,
    /// Strategy that served shard 0's refresh.
    pub mode_used: ResolveMode,
    /// Localized frontier of shard 0's refresh (0 for sweeps).
    pub frontier: usize,
    /// Wall time of the whole group refresh (all shards), milliseconds.
    pub refresh_ms: f64,
    /// Generation every shard publishes after this batch.
    pub generation: u64,
    /// Reads (point + ranked) the reader threads completed during this
    /// refresh.
    pub reads_during_refresh: u64,
    /// Ranked (`top_k`) reads completed during this refresh — also
    /// wait-free, answered from the retiring slot's maintained index.
    pub ranked_during_refresh: u64,
}

/// Full run record.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Node count (fixed across the run).
    pub nodes: usize,
    /// Arc count of the initial snapshot.
    pub initial_arcs: usize,
    /// Shards hosted.
    pub shards: usize,
    /// Reader threads driven.
    pub readers: usize,
    /// One entry per streamed batch.
    pub steps: Vec<ServeStep>,
    /// Total reads (point + ranked) over the whole stream.
    pub total_reads: u64,
    /// Ranked (`top_k`) reads of [`ServeReport::total_reads`].
    pub ranked_reads: u64,
    /// Wall time of the whole stream, milliseconds.
    pub stream_ms: f64,
}

impl ServeReport {
    /// Total refresh wall time, milliseconds.
    pub fn total_refresh_ms(&self) -> f64 {
        self.steps.iter().map(|s| s.refresh_ms).sum()
    }

    /// Reads served per millisecond over the whole stream.
    pub fn reads_per_ms(&self) -> f64 {
        self.total_reads as f64 / self.stream_ms.max(1e-9)
    }

    /// Reads served during refresh windows (zero under a stop-the-world
    /// discipline — the availability this stack adds).
    pub fn reads_during_refreshes(&self) -> u64 {
        self.steps.iter().map(|s| s.reads_during_refresh).sum()
    }

    /// Ranked (`top_k`) reads served during refresh windows.
    pub fn ranked_during_refreshes(&self) -> u64 {
        self.steps.iter().map(|s| s.ranked_during_refresh).sum()
    }
}

/// Stream `cfg.batches` churn batches through a (sharded) serving stack
/// while `cfg.readers` threads hammer point queries, and record per-batch
/// serving accounting. With [`ServeConfig::data_dir`] set, the stack is
/// durable: every batch is fsync-logged before it publishes.
///
/// # Errors
/// Propagates generator, ingestion, solver, and durability failures as
/// [`ServeError`].
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    let solver = PageRankConfig {
        alpha: cfg.alpha,
        tolerance: cfg.tolerance,
        max_iterations: cfg.max_iterations,
        ..Default::default()
    };
    let model = TransitionModel::DegreeDecoupled { p: cfg.p };
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let g0 = barabasi_albert(cfg.nodes, cfg.attachments, rng.gen())?;
    let initial_arcs = g0.num_arcs();
    // Personalization views (shards > 1): a few hot seed nodes per shard.
    let teleports: Option<Vec<Vec<f64>>> = (cfg.shards > 1).then(|| {
        (0..cfg.shards)
            .map(|_| {
                let mut t = vec![0.0; cfg.nodes];
                for _ in 0..4 {
                    t[rng.gen_range(0..cfg.nodes)] = 1.0;
                }
                t
            })
            .collect()
    });
    let stream = churn_stream(&g0, cfg.batches, cfg.churn, &mut rng)
        .map_err(d2pr_core::error::UpdateError::Graph)?;

    let mut shards = match (&cfg.data_dir, &teleports) {
        (None, None) => Stack::Mem(ShardManager::from_graphs(vec![g0], model, solver)?),
        (None, Some(t)) => Stack::Mem(ShardManager::personalized(&g0, t, model, solver)?),
        (Some(dir), tp) => {
            let opts = StoreOptions {
                snapshot_every: cfg.snapshot_every,
                ..Default::default()
            };
            Stack::Durable(match tp {
                None => DurableShardManager::from_graphs(dir, vec![g0], model, solver, opts)?,
                Some(t) => DurableShardManager::personalized(dir, &g0, t, model, solver, opts)?,
            })
        }
    };

    let readers: Vec<ScoreReader> = shards.readers();
    let n = cfg.nodes as u32;
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let ranked = AtomicU64::new(0);
    // Ranked-query mix: a read whose LCG draw lands under the threshold
    // becomes a top_k query instead of a point get (0 = never, the
    // pre-index mix; the draw reuses the node LCG so the mix costs no
    // extra RNG work on the hot path).
    let mix_threshold = if cfg.top_k == 0 {
        0u32
    } else {
        (cfg.query_mix.clamp(0.0, 1.0) * 1024.0) as u32
    };
    let mut steps = Vec::with_capacity(cfg.batches);
    let mut stream_ms = 0.0f64;

    let result: Result<(), ServeError> = std::thread::scope(|scope| {
        for r in 0..cfg.readers {
            let readers = &readers;
            let stop = &stop;
            let reads = &reads;
            let ranked = &ranked;
            scope.spawn(move || {
                let mut node = r as u32;
                let mut shard = r;
                let mut local_ranked = 0u64;
                // At least one block per reader, however fast the stream
                // finishes.
                loop {
                    for _ in 0..32 {
                        node = node.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % n;
                        shard = (shard + 1) % readers.len();
                        if node % 1024 < mix_threshold {
                            let top = readers[shard].top_k(cfg.top_k);
                            assert_eq!(top.len(), cfg.top_k.min(cfg.nodes));
                            assert!(top.iter().all(|&(_, s)| s.is_finite()));
                            local_ranked += 1;
                        } else {
                            let score = readers[shard].get(node).expect("in-range node");
                            assert!(score.is_finite());
                        }
                    }
                    reads.fetch_add(32, Ordering::Relaxed);
                    ranked.fetch_add(local_ranked, Ordering::Relaxed);
                    local_ranked = 0;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }

        let stream_start = Instant::now();
        let run = (|| -> Result<(), ServeError> {
            for (i, batch) in stream.iter().enumerate() {
                let b = i + 1;
                let reads_before = reads.load(Ordering::Relaxed);
                let ranked_before = ranked.load(Ordering::Relaxed);
                let t0 = Instant::now();
                let outcomes = shards.ingest_all(batch)?;
                let refresh_ms = t0.elapsed().as_secs_f64() * 1e3;
                let reads_during = reads.load(Ordering::Relaxed) - reads_before;
                let ranked_during = ranked.load(Ordering::Relaxed) - ranked_before;
                let lead = &outcomes[0];
                steps.push(ServeStep {
                    batch: b,
                    inserted_arcs: lead.inserted_arcs,
                    deleted_arcs: lead.deleted_arcs,
                    mode_used: lead.mode,
                    frontier: lead.frontier,
                    refresh_ms,
                    generation: lead.generation,
                    reads_during_refresh: reads_during,
                    ranked_during_refresh: ranked_during,
                });
            }
            Ok(())
        })();
        stream_ms = stream_start.elapsed().as_secs_f64() * 1e3;
        stop.store(true, Ordering::Relaxed);
        run
    });
    result?;

    Ok(ServeReport {
        nodes: cfg.nodes,
        initial_arcs,
        shards: shards.num_shards(),
        readers: cfg.readers,
        steps,
        total_reads: reads.load(Ordering::Relaxed),
        ranked_reads: ranked.load(Ordering::Relaxed),
        stream_ms,
    })
}

/// Revive a durable store written by `repro serve --data-dir` (or any
/// [`DurableShardManager`]) and report, per shard, where serving resumed.
/// The store is opened, recovered, re-snapshotted where a tail was
/// replayed, and dropped — the caller reads the reports.
///
/// # Errors
/// [`ServeError::Store`] when the directory holds no recoverable state
/// or the shard layout is malformed.
pub fn run_recover(dir: &Path) -> Result<Vec<RecoveryReport>, ServeError> {
    let (_stack, reports) = DurableShardManager::open(dir, StoreOptions::default())?;
    Ok(reports)
}

/// Per-shard table for the `repro recover` subcommand.
pub fn recover_report(reports: &[RecoveryReport]) -> TextTable {
    let mut t = TextTable::new(vec![
        "shard",
        "snap_gen",
        "recovered",
        "replayed",
        "+arcs",
        "-arcs",
        "mode",
        "converged",
        "bad_snaps",
        "torn",
        "bad_tails",
        "stale",
        "orphaned",
    ]);
    for (i, r) in reports.iter().enumerate() {
        let mode = r.outcome.mode.map_or("-", ResolveMode::label);
        t.push_row(vec![
            i.to_string(),
            r.snapshot_generation.to_string(),
            r.recovered_generation.to_string(),
            r.outcome.replayed_batches.to_string(),
            r.outcome.replayed_inserted_arcs.to_string(),
            r.outcome.replayed_deleted_arcs.to_string(),
            mode.to_string(),
            r.outcome.converged.to_string(),
            r.corrupt_snapshots_skipped.to_string(),
            r.torn_log_tails.to_string(),
            r.corrupt_log_tails.to_string(),
            r.stale_records.to_string(),
            r.unreachable_records.to_string(),
        ]);
    }
    t
}

/// Per-batch table for the `repro serve` subcommand.
pub fn serve_report(r: &ServeReport) -> TextTable {
    let mut t = TextTable::new(vec![
        "batch",
        "+arcs",
        "-arcs",
        "mode",
        "frontier",
        "refresh_ms",
        "gen",
        "reads_during",
        "topk_during",
        "reads/ms",
    ]);
    for s in &r.steps {
        t.push_row(vec![
            s.batch.to_string(),
            s.inserted_arcs.to_string(),
            s.deleted_arcs.to_string(),
            s.mode_used.label().to_string(),
            s.frontier.to_string(),
            format!("{:.2}", s.refresh_ms),
            s.generation.to_string(),
            s.reads_during_refresh.to_string(),
            s.ranked_during_refresh.to_string(),
            format!(
                "{:.0}",
                s.reads_during_refresh as f64 / s.refresh_ms.max(1e-9)
            ),
        ]);
    }
    t.push_row(vec![
        "total".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.2}", r.total_refresh_ms()),
        r.steps.last().map_or(0, |s| s.generation).to_string(),
        r.reads_during_refreshes().to_string(),
        r.ranked_during_refreshes().to_string(),
        format!("{:.0} overall", r.reads_per_ms()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_run_publishes_and_reads_concurrently() {
        let cfg = ServeConfig {
            nodes: 1_500,
            attachments: 4,
            batches: 3,
            churn: 0.002,
            readers: 2,
            shards: 1,
            ..Default::default()
        };
        let r = run_serve(&cfg).unwrap();
        assert_eq!(r.steps.len(), 3);
        assert_eq!(r.shards, 1);
        for (i, s) in r.steps.iter().enumerate() {
            assert_eq!(s.generation, i as u64 + 1);
            assert!(s.inserted_arcs > 0 && s.deleted_arcs > 0);
            assert!(s.refresh_ms > 0.0);
        }
        assert!(r.total_reads > 0, "readers must have been served");
        let table = serve_report(&r);
        assert_eq!(table.num_rows(), 4);
    }

    #[test]
    fn serve_run_mixes_ranked_queries() {
        let cfg = ServeConfig {
            nodes: 1_200,
            attachments: 4,
            batches: 3,
            churn: 0.002,
            readers: 2,
            shards: 1,
            top_k: 8,
            query_mix: 0.5,
            ..Default::default()
        };
        let r = run_serve(&cfg).unwrap();
        assert!(r.ranked_reads > 0, "mix 0.5 must produce ranked reads");
        assert!(
            r.ranked_reads < r.total_reads,
            "mix 0.5 must keep point reads too"
        );
        let table = serve_report(&r);
        assert_eq!(table.num_rows(), 4);
    }

    #[test]
    fn serve_run_persists_and_recovers_with_data_dir() {
        let dir = std::env::temp_dir().join(format!("d2pr-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            nodes: 800,
            attachments: 4,
            batches: 4,
            churn: 0.002,
            readers: 1,
            shards: 1,
            data_dir: Some(dir.clone()),
            snapshot_every: 3,
            ..Default::default()
        };
        let r = run_serve(&cfg).unwrap();
        assert_eq!(r.steps.last().unwrap().generation, 4);

        // A second serve into the same directory must refuse, not clobber.
        match run_serve(&cfg) {
            Err(ServeError::Store(StoreError::AlreadyInitialized { .. })) => {}
            other => panic!("expected AlreadyInitialized, got {other:?}"),
        }

        let reports = run_recover(&dir).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].recovered_generation, 4);
        // Snapshot cadence 3 over 4 batches: one batch rides the log.
        assert_eq!(reports[0].outcome.replayed_batches, 1);
        let table = recover_report(&reports);
        assert_eq!(table.num_rows(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_run_shards_personalized_views() {
        let cfg = ServeConfig {
            nodes: 1_000,
            attachments: 4,
            batches: 2,
            churn: 0.002,
            readers: 1,
            shards: 3,
            ..Default::default()
        };
        let r = run_serve(&cfg).unwrap();
        assert_eq!(r.shards, 3);
        assert_eq!(r.steps.len(), 2);
        assert_eq!(r.steps.last().unwrap().generation, 2);
    }
}
