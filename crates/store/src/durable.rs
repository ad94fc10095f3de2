//! [`DurableServingEngine`]: the serving engine behind a write-ahead log.
//!
//! # Durable before served
//!
//! [`DurableServingEngine::ingest`] runs validate → append+fsync →
//! publish. The batch is validated against everything the serving layer
//! would reject *before* any byte is written (so a logged record always
//! replays cleanly), appended and fsynced, and only then handed to
//! [`ServingEngine::ingest`]. A crash between the fsync and the publish
//! therefore loses nothing: recovery replays the record and resumes at
//! the durable generation, which may be exactly one ahead of the last
//! generation a reader ever observed. The inverse can never happen — no
//! served generation can be lost, because none is published before its
//! record is on disk.
//!
//! # Snapshots, rotation, retention
//!
//! [`DurableServingEngine::snapshot_now`] (also triggered every
//! [`StoreOptions::snapshot_every`] ingests) commits a full-state
//! snapshot at the current generation, rotates the log to a fresh
//! segment based at that generation, and retires files no retained
//! snapshot needs: with [`StoreOptions::retain_snapshots`] ≥ 2 (the
//! default), a corrupted *latest* snapshot still recovers — the scan
//! falls back one snapshot and stitches the generation chain across the
//! two retained segments ([`crate::recover`]).

use crate::codec::LogRecord;
use crate::error::{io_err, Result, StoreError};
use crate::log::{wal_path, LogWriter};
use crate::recover::{list_store_files, recover_dir};
use crate::snapshot::{sync_dir, write_snapshot, StoreSnapshot};
use d2pr_core::exec::yield_point;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::{RecoveryOutcome, RefreshOutcome, ScoreReader, ServingEngine};
use d2pr_core::transition::TransitionModel;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::EdgeBatch;
use d2pr_graph::permute::Layout;
use d2pr_graph::transpose::CscStructure;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Durability knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Commit a snapshot (and rotate the log) every N ingests; `0` means
    /// only on explicit [`DurableServingEngine::snapshot_now`] calls.
    pub snapshot_every: u64,
    /// Snapshots kept on disk (≥ 1). Keeping 2 lets recovery survive a
    /// corrupted latest snapshot; log segments are retired only once no
    /// retained snapshot could need their records.
    pub retain_snapshots: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            snapshot_every: 0,
            retain_snapshots: 2,
        }
    }
}

/// How one [`DurableServingEngine::open`] recovered, for operators'
/// eyes (`repro recover` prints it).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovery started from.
    pub snapshot_generation: u64,
    /// Generation serving resumed at.
    pub recovered_generation: u64,
    /// The warm re-solve's diagnostics (replay counts, mode,
    /// convergence).
    pub outcome: RecoveryOutcome,
    /// Newer snapshot files rejected by verification.
    pub corrupt_snapshots_skipped: usize,
    /// Log segments that ended torn (crash mid-append).
    pub torn_log_tails: usize,
    /// Log segments that ended in a checksum/decode failure.
    pub corrupt_log_tails: usize,
    /// Valid records already covered by the snapshot.
    pub stale_records: usize,
    /// Valid records beyond a generation gap (counted, never replayed).
    pub unreachable_records: usize,
}

/// A [`ServingEngine`] whose every ingest is durable before it is
/// served, with periodic snapshots and crash recovery.
///
/// ```no_run
/// use d2pr_core::pagerank::PageRankConfig;
/// use d2pr_core::transition::TransitionModel;
/// use d2pr_graph::delta::EdgeBatch;
/// use d2pr_graph::generators::barabasi_albert;
/// use d2pr_store::durable::{DurableServingEngine, StoreOptions};
///
/// let dir = std::path::Path::new("/var/lib/d2pr/main");
/// let g = barabasi_albert(10_000, 5, 7).unwrap();
/// let mut serving = DurableServingEngine::create(
///     dir,
///     g,
///     TransitionModel::DegreeDecoupled { p: 0.5 },
///     PageRankConfig::default(),
///     4,
///     StoreOptions { snapshot_every: 64, ..Default::default() },
/// )
/// .unwrap();
/// let reader = serving.reader();
/// let mut batch = EdgeBatch::new();
/// batch.insert(0, 9_999);
/// serving.ingest(&batch).unwrap(); // fsync'd before readers see it
///
/// // After a crash: recover to the last durable generation.
/// drop(serving);
/// let (revived, report) =
///     DurableServingEngine::open(dir, 4, StoreOptions::default()).unwrap();
/// assert_eq!(revived.generation(), report.recovered_generation);
/// # let _ = reader;
/// ```
pub struct DurableServingEngine {
    inner: ServingEngine,
    wal: LogWriter,
    dir: PathBuf,
    opts: StoreOptions,
    model: TransitionModel,
    config: PageRankConfig,
    /// Shard index: yield-point `arg` and log-file namespace selector
    /// (each shard of a [`crate::shard::DurableShardManager`] owns a
    /// subdirectory).
    shard: usize,
    ingests_since_snapshot: u64,
}

impl std::fmt::Debug for DurableServingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableServingEngine")
            .field("dir", &self.dir)
            .field("generation", &self.inner.generation())
            .finish()
    }
}

impl DurableServingEngine {
    /// Initialize a fresh store under `dir` (created if missing, refused
    /// if it already holds durable state): cold-solve `graph`, commit the
    /// generation-0 snapshot, open the first log segment.
    ///
    /// `threads` is ignored: every solve runs on the calling thread. It
    /// stays only for the benchmark client, and the next benchmark-only
    /// change removes it.
    ///
    /// # Errors
    /// [`StoreError::AlreadyInitialized`] on a non-empty store;
    /// otherwise any serving-construction or I/O failure.
    pub fn create(
        dir: &Path,
        graph: CsrGraph,
        model: TransitionModel,
        config: PageRankConfig,
        threads: usize,
        opts: StoreOptions,
    ) -> Result<Self> {
        let _ = threads;
        Self::create_with(dir, graph, Layout::Baseline, None, model, config, opts)
    }

    /// [`DurableServingEngine::create`] with a cache-aware [`Layout`]
    /// and/or a personalized teleport distribution (external node order,
    /// as [`ServingEngine::with_layout`] takes it).
    ///
    /// # Errors
    /// As [`DurableServingEngine::create`].
    pub fn create_with(
        dir: &Path,
        graph: CsrGraph,
        layout: Layout,
        teleport: Option<&[f64]>,
        model: TransitionModel,
        config: PageRankConfig,
        opts: StoreOptions,
    ) -> Result<Self> {
        let inner = ServingEngine::with_layout(graph, layout, teleport, model, config)?;
        Self::init(dir, inner, model, config, 0, opts)
    }

    /// Wrap an already-built engine (the shard layer's entry point):
    /// commit its current state as the initial snapshot and open the log.
    pub(crate) fn init(
        dir: &Path,
        inner: ServingEngine,
        model: TransitionModel,
        config: PageRankConfig,
        shard: usize,
        opts: StoreOptions,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create", &e))?;
        let (snaps, wals) = list_store_files(dir)?;
        if !snaps.is_empty() || !wals.is_empty() {
            return Err(StoreError::AlreadyInitialized {
                dir: dir.display().to_string(),
            });
        }
        let opts = StoreOptions {
            retain_snapshots: opts.retain_snapshots.max(1),
            ..opts
        };
        let this = Self {
            wal: LogWriter::create(dir, inner.generation(), shard)?,
            inner,
            dir: dir.to_path_buf(),
            opts,
            model,
            config,
            shard,
            ingests_since_snapshot: 0,
        };
        write_snapshot(&this.dir, &this.capture(), shard)?;
        sync_dir(&this.dir)?;
        Ok(this)
    }

    /// Recover a store from `dir` and resume serving at the last durable
    /// generation. Leftover `.tmp` files are deleted, the log rotates to
    /// a fresh segment (an appender never writes after a torn tail), and
    /// when anything was replayed a fresh snapshot is committed so the
    /// next crash replays nothing.
    ///
    /// `threads` is ignored, as in [`DurableServingEngine::create`].
    ///
    /// # Errors
    /// As [`crate::recover::recover_dir`], plus engine-revival failures.
    pub fn open(dir: &Path, threads: usize, opts: StoreOptions) -> Result<(Self, RecoveryReport)> {
        let _ = threads;
        Self::open_shard(dir, 0, opts)
    }

    pub(crate) fn open_shard(
        dir: &Path,
        shard: usize,
        opts: StoreOptions,
    ) -> Result<(Self, RecoveryReport)> {
        let state = recover_dir(dir)?;
        let opts = StoreOptions {
            retain_snapshots: opts.retain_snapshots.max(1),
            ..opts
        };
        // Interrupted snapshot commits never made it to a final name.
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, "read", &e))? {
            let entry = entry.map_err(|e| io_err(dir, "read", &e))?;
            if entry.path().extension().is_some_and(|e| e == "tmp") {
                std::fs::remove_file(entry.path())
                    .map_err(|e| io_err(&entry.path(), "remove", &e))?;
            }
        }
        let (inner, outcome) = ServingEngine::recovered(state.parts, state.model, state.config, 1)?;
        let report = RecoveryReport {
            snapshot_generation: state.snapshot_generation,
            recovered_generation: outcome.generation,
            outcome,
            corrupt_snapshots_skipped: state.corrupt_snapshots_skipped,
            torn_log_tails: state.torn_log_tails,
            corrupt_log_tails: state.corrupt_log_tails,
            stale_records: state.stale_records,
            unreachable_records: state.unreachable_records,
        };
        // Rotate: the recovered generation's segment is recreated fresh.
        // Anything it held is either replayed (≤ recovered generation) or
        // unacknowledged bytes past the valid prefix — discardable by the
        // crash contract.
        let base = report.recovered_generation;
        let stale = wal_path(dir, base);
        match std::fs::remove_file(&stale) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&stale, "remove", &e)),
        }
        let this = Self {
            wal: LogWriter::create(dir, base, shard)?,
            inner,
            dir: dir.to_path_buf(),
            opts,
            model: state.model,
            config: state.config,
            shard,
            ingests_since_snapshot: 0,
        };
        sync_dir(&this.dir)?;
        if report.outcome.replayed_batches > 0 {
            // Compact: the replayed tail becomes part of a fresh snapshot
            // so repeated crash/recover cycles never re-pay it.
            write_snapshot(&this.dir, &this.capture(), shard)?;
            this.retire()?;
        }
        Ok((this, report))
    }

    /// The full durable state as of the current published generation.
    fn capture(&self) -> StoreSnapshot {
        let mut scores = Vec::new();
        let generation = self.inner.reader().snapshot_into(&mut scores);
        debug_assert_eq!(generation, self.inner.generation());
        StoreSnapshot {
            graph: self.inner.delta_graph().snapshot(),
            perm_forward: self.inner.permutation().map(|p| p.forward().to_vec()),
            scores,
            generation,
            teleport: self.inner.teleport().map(<[f64]>::to_vec),
            model: self.model,
            config: self.config,
            removed: self.inner.removed_nodes(),
        }
    }

    /// Apply one edge batch **durably**: validate, append + fsync the log
    /// record, then publish through [`ServingEngine::ingest`]. When the
    /// snapshot cadence fires, the snapshot/rotate/retire sequence runs
    /// after publication.
    ///
    /// # Errors
    /// Validation failures leave both the log and the served state
    /// untouched; I/O failures after validation leave the served state
    /// untouched (the record may or may not be durable — exactly a
    /// crash, which recovery resolves).
    pub fn ingest(&mut self, batch: &EdgeBatch) -> Result<RefreshOutcome> {
        self.ingest_with(batch, None).map(|(outcome, _)| outcome)
    }

    /// [`DurableServingEngine::ingest`] threading an optional prepatched
    /// transpose through to [`ServingEngine::ingest_with`] (the shard
    /// layer's structure-sharing path).
    ///
    /// # Errors
    /// As [`DurableServingEngine::ingest`].
    pub fn ingest_with(
        &mut self,
        batch: &EdgeBatch,
        prepatched: Option<Arc<CscStructure>>,
    ) -> Result<(RefreshOutcome, Arc<CscStructure>)> {
        // Validate first: a record is appended only if replaying it can
        // never fail.
        self.inner.validate_batch(batch)?;
        let generation = self.inner.generation() + 1;
        debug_assert_eq!(generation, self.wal.next_generation());
        self.wal.append(&LogRecord::from_batch(generation, batch))?;
        yield_point("store.serve.ingest", self.shard);
        let (outcome, structure) = self.inner.ingest_with(batch, prepatched)?;
        debug_assert_eq!(outcome.generation, generation);
        self.ingests_since_snapshot += 1;
        if self.opts.snapshot_every > 0 && self.ingests_since_snapshot >= self.opts.snapshot_every {
            self.snapshot_now()?;
        }
        yield_point("store.ingest.done", self.shard);
        Ok((outcome, structure))
    }

    /// Commit a snapshot at the current generation, rotate the log, and
    /// retire files outside the retention window. Returns the snapshot's
    /// generation.
    ///
    /// # Errors
    /// [`StoreError::Io`] on any failing step (the served state is
    /// never affected).
    pub fn snapshot_now(&mut self) -> Result<u64> {
        let snap = self.capture();
        let generation = snap.generation;
        write_snapshot(&self.dir, &snap, self.shard)?;
        yield_point("store.log.rotate", self.shard);
        // The rotation target can exist only after recovery raced a
        // crash here before; its records are all ≤ generation (replayed).
        let target = wal_path(&self.dir, generation);
        match std::fs::remove_file(&target) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&target, "remove", &e)),
        }
        self.wal = LogWriter::create(&self.dir, generation, self.shard)?;
        sync_dir(&self.dir)?;
        self.ingests_since_snapshot = 0;
        self.retire()?;
        Ok(generation)
    }

    /// Delete snapshots beyond the retention window and log segments no
    /// retained snapshot needs (base older than the oldest retained
    /// snapshot's generation).
    fn retire(&self) -> Result<()> {
        let (snaps, wals) = list_store_files(&self.dir)?;
        if snaps.len() > self.opts.retain_snapshots {
            let cut = snaps.len() - self.opts.retain_snapshots;
            for (_, path) in &snaps[..cut] {
                yield_point("store.log.retire", self.shard);
                std::fs::remove_file(path).map_err(|e| io_err(path, "remove", &e))?;
            }
        }
        let oldest_retained = snaps[snaps.len().saturating_sub(self.opts.retain_snapshots)..]
            .first()
            .map(|&(generation, _)| generation)
            .unwrap_or(0);
        for (base, path) in &wals {
            if *base < oldest_retained {
                yield_point("store.log.retire", self.shard);
                std::fs::remove_file(path).map_err(|e| io_err(path, "remove", &e))?;
            }
        }
        Ok(())
    }

    /// A read handle on the published scores (identical to
    /// [`ServingEngine::reader`] — durability never touches the read
    /// path).
    pub fn reader(&self) -> ScoreReader {
        self.inner.reader()
    }

    /// The latest published (and durable) generation.
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }

    /// The wrapped serving engine.
    pub fn engine(&self) -> &ServingEngine {
        &self.inner
    }

    /// The data directory this store persists into.
    pub fn data_dir(&self) -> &Path {
        &self.dir
    }

    /// The shared transpose structure currently served (the shard
    /// layer's group key).
    ///
    /// # Errors
    /// Reports a poisoned engine.
    pub fn shared_structure(&self) -> Result<Arc<CscStructure>> {
        Ok(self.inner.shared_structure()?)
    }
}
