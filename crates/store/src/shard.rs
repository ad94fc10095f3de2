//! [`DurableShardManager`]: per-shard log segments under one root
//! directory.
//!
//! Each shard persists into its own `shard-<i>/` subdirectory — an
//! independent log + snapshot lineage with its own generation counter,
//! exactly as the in-memory [`ShardManager`] keeps per-shard generations
//! independent. A group ingest appends to shard `k`'s log *before*
//! shard `k` publishes, shard by shard, so a crash anywhere inside
//! [`DurableShardManager::ingest_all`] leaves every shard individually
//! recoverable to its own last durable generation — which is a legal
//! manager state by the documented partial-not-atomic contract.
//!
//! [`ShardManager`]: d2pr_core::serving::ShardManager

use crate::durable::{DurableServingEngine, RecoveryReport, StoreOptions};
use crate::error::{io_err, Result, StoreError};
use d2pr_core::error::UpdateError;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::{RefreshOutcome, ScoreReader, ServingEngine};
use d2pr_core::transition::TransitionModel;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::EdgeBatch;
use d2pr_graph::error::GraphError;
use d2pr_graph::transpose::CscStructure;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What happened to one shard during a group ingest.
#[derive(Debug)]
pub enum ShardIngest {
    /// The shard logged and published the batch.
    Applied(RefreshOutcome),
    /// The shard rejected the batch (validation) or failed to log or
    /// publish it; the group stopped here.
    Failed(StoreError),
    /// A lower-indexed shard failed first; this shard was not touched —
    /// neither its log nor its published state.
    Skipped,
}

/// Per-shard outcomes of one [`DurableShardManager::ingest_all`], in
/// shard order. At most one entry is [`ShardIngest::Failed`]; everything
/// after it is [`ShardIngest::Skipped`].
#[derive(Debug)]
pub struct IngestAllReport {
    /// One entry per shard, in shard order.
    pub outcomes: Vec<ShardIngest>,
}

impl IngestAllReport {
    /// Whether every shard applied the batch.
    pub fn is_complete(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, ShardIngest::Applied(_)))
    }

    /// Shards that applied the batch.
    pub fn applied(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ShardIngest::Applied(_)))
            .count()
    }

    /// The failing shard's index and error, if the group stopped.
    pub fn first_failure(&self) -> Option<(usize, &StoreError)> {
        self.outcomes.iter().enumerate().find_map(|(i, o)| match o {
            ShardIngest::Failed(e) => Some((i, e)),
            _ => None,
        })
    }
}

fn shard_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:04}"))
}

fn contract_err(msg: &str) -> StoreError {
    StoreError::Update(UpdateError::Graph(GraphError::Snapshot(msg.into())))
}

/// Many [`DurableServingEngine`]s under one root directory, mirroring
/// [`ShardManager`](d2pr_core::serving::ShardManager)'s two layouts
/// (independent graphs, or N personalization views over one graph) with
/// per-shard durability.
pub struct DurableShardManager {
    root: PathBuf,
    shards: Vec<DurableServingEngine>,
}

impl std::fmt::Debug for DurableShardManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableShardManager")
            .field("root", &self.root)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl DurableShardManager {
    /// One shard per graph (the multi-tenant layout), each persisting
    /// into `root/shard-<i>/`.
    ///
    /// # Errors
    /// [`StoreError::AlreadyInitialized`] when any shard directory holds
    /// state; otherwise as [`DurableServingEngine::create`].
    pub fn from_graphs(
        root: &Path,
        graphs: Vec<CsrGraph>,
        model: TransitionModel,
        config: PageRankConfig,
        opts: StoreOptions,
    ) -> Result<Self> {
        if graphs.is_empty() {
            return Err(contract_err("DurableShardManager needs at least one shard"));
        }
        let engines = graphs
            .into_iter()
            .map(|g| ServingEngine::with_parts(g, None, None, model, config))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Self::init(root, engines, model, config, opts)
    }

    /// One shard per personalization view over a single graph: one shared
    /// transpose build at construction, per-view teleport distributions
    /// (see [`ShardManager::personalized`] for the sharing semantics).
    ///
    /// # Errors
    /// As [`DurableShardManager::from_graphs`].
    ///
    /// [`ShardManager::personalized`]: d2pr_core::serving::ShardManager::personalized
    pub fn personalized(
        root: &Path,
        graph: &CsrGraph,
        teleports: &[Vec<f64>],
        model: TransitionModel,
        config: PageRankConfig,
        opts: StoreOptions,
    ) -> Result<Self> {
        if teleports.is_empty() {
            return Err(contract_err(
                "DurableShardManager needs at least one personalization view",
            ));
        }
        let csc = Arc::new(CscStructure::build(graph));
        let engines = teleports
            .iter()
            .map(|t| {
                ServingEngine::with_parts(
                    graph.clone(),
                    Some(Arc::clone(&csc)),
                    Some(t),
                    model,
                    config,
                )
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Self::init(root, engines, model, config, opts)
    }

    fn init(
        root: &Path,
        engines: Vec<ServingEngine>,
        model: TransitionModel,
        config: PageRankConfig,
        opts: StoreOptions,
    ) -> Result<Self> {
        std::fs::create_dir_all(root).map_err(|e| io_err(root, "create", &e))?;
        let shards = engines
            .into_iter()
            .enumerate()
            .map(|(i, inner)| {
                DurableServingEngine::init(&shard_dir(root, i), inner, model, config, i, opts)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            root: root.to_path_buf(),
            shards,
        })
    }

    /// Recover every shard under `root` and resume serving. Shard
    /// directories must form a contiguous `shard-0000..shard-<n-1>`
    /// range (rotation and retirement never remove one).
    ///
    /// Note on structure sharing: recovery rebuilds each shard's
    /// transpose independently, so a recovered personalized manager
    /// starts with per-shard structures; [`ingest_all`] still works and
    /// regains nothing-shared grouping costs only (one structural patch
    /// per shard per batch instead of one total).
    ///
    /// # Errors
    /// [`StoreError::NoDurableState`] on an empty root; otherwise as
    /// [`DurableServingEngine::open`] per shard.
    ///
    /// [`ingest_all`]: DurableShardManager::ingest_all
    pub fn open(root: &Path, opts: StoreOptions) -> Result<(Self, Vec<RecoveryReport>)> {
        let mut indices = Vec::new();
        let entries = std::fs::read_dir(root).map_err(|e| io_err(root, "read", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(root, "read", &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(index) = name
                .strip_prefix("shard-")
                .and_then(|s| s.parse::<usize>().ok())
            {
                indices.push(index);
            }
        }
        indices.sort_unstable();
        if indices.is_empty() {
            return Err(StoreError::NoDurableState {
                dir: root.display().to_string(),
                corrupt_snapshots: 0,
            });
        }
        if indices.iter().enumerate().any(|(want, &got)| want != got) {
            return Err(contract_err(
                "shard directories are not a contiguous shard-0000.. range",
            ));
        }
        let mut shards = Vec::with_capacity(indices.len());
        let mut reports = Vec::with_capacity(indices.len());
        for index in indices {
            let (shard, report) =
                DurableServingEngine::open_shard(&shard_dir(root, index), index, opts)?;
            shards.push(shard);
            reports.push(report);
        }
        Ok((
            Self {
                root: root.to_path_buf(),
                shards,
            },
            reports,
        ))
    }

    /// Number of shards hosted.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// The durable engine owning `key`.
    pub fn shard(&self, key: u64) -> &DurableServingEngine {
        &self.shards[self.shard_of(key)]
    }

    /// Mutable access to the durable engine owning `key`.
    pub fn shard_mut(&mut self, key: u64) -> &mut DurableServingEngine {
        let s = self.shard_of(key);
        &mut self.shards[s]
    }

    /// A read handle on the shard owning `key`.
    pub fn reader(&self, key: u64) -> ScoreReader {
        self.shard(key).reader()
    }

    /// Read handles on every shard, in shard order.
    pub fn readers(&self) -> Vec<ScoreReader> {
        self.shards
            .iter()
            .map(DurableServingEngine::reader)
            .collect()
    }

    /// The published score of `node` on the shard owning `key`.
    pub fn get(&self, key: u64, node: u32) -> Option<f64> {
        self.shard(key).engine().get(node)
    }

    /// Route one edge batch to the shard owning `key`, durably.
    ///
    /// # Errors
    /// As [`DurableServingEngine::ingest`].
    pub fn ingest(&mut self, key: u64, batch: &EdgeBatch) -> Result<RefreshOutcome> {
        self.shard_mut(key).ingest(batch)
    }

    /// Apply one edge batch to **every** shard, durably, preserving the
    /// in-memory manager's partial-not-atomic contract: shards proceed in
    /// order, each logging (durability point) then publishing; the group
    /// stops at the first failure and the report records what each shard
    /// did — [`ShardIngest::Applied`] shards keep their new durable
    /// generations, the [`ShardIngest::Failed`] shard and every
    /// [`ShardIngest::Skipped`] one keep their old ones. A crash instead
    /// of an error produces the same shapes, resolved by per-shard
    /// recovery.
    ///
    /// Transpose-structure sharing across shards is preserved exactly as
    /// in [`ShardManager::ingest_all`]: shards are grouped by mutual
    /// `Arc` identity of their pre-batch structure and each group pays
    /// one structural patch.
    ///
    /// [`ShardManager::ingest_all`]: d2pr_core::serving::ShardManager::ingest_all
    pub fn ingest_all(&mut self, batch: &EdgeBatch) -> IngestAllReport {
        let pre: Vec<Option<Arc<CscStructure>>> = self
            .shards
            .iter()
            .map(|s| s.shared_structure().ok())
            .collect();
        let mut groups: Vec<(Arc<CscStructure>, Arc<CscStructure>)> = Vec::new();
        let mut outcomes = Vec::with_capacity(self.shards.len());
        let mut failed = false;
        for (shard, pre) in self.shards.iter_mut().zip(&pre) {
            if failed {
                outcomes.push(ShardIngest::Skipped);
                continue;
            }
            let prepatched = pre.as_ref().and_then(|p| {
                groups
                    .iter()
                    .find(|(group_pre, _)| Arc::ptr_eq(group_pre, p))
                    .map(|(_, post)| Arc::clone(post))
            });
            let lead = prepatched.is_none();
            match shard.ingest_with(batch, prepatched) {
                Ok((outcome, structure)) => {
                    if lead {
                        if let Some(p) = pre {
                            groups.push((Arc::clone(p), structure));
                        }
                    }
                    outcomes.push(ShardIngest::Applied(outcome));
                }
                Err(e) => {
                    failed = true;
                    outcomes.push(ShardIngest::Failed(e));
                }
            }
        }
        IngestAllReport { outcomes }
    }

    /// Commit a snapshot (and rotate the log) on every shard. Returns
    /// each shard's snapshot generation.
    ///
    /// # Errors
    /// Fails on the first shard whose snapshot fails (earlier shards
    /// keep their fresh snapshots — each lineage is independent).
    pub fn snapshot_all(&mut self) -> Result<Vec<u64>> {
        self.shards
            .iter_mut()
            .map(DurableServingEngine::snapshot_now)
            .collect()
    }

    /// The root directory holding the per-shard stores.
    pub fn root(&self) -> &Path {
        &self.root
    }
}
