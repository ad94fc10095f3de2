//! Lock-free double-buffered score serving: readers keep reading while
//! `resolve_incremental` runs.
//!
//! The incremental solver made refreshes cheap (single-edge trickle in
//! ~2.5 ms at serving tolerance), but scores were still only readable
//! *between* solves: the engine mutates its rank buffers in place, so any
//! reader had to be locked out for the whole refresh. This module closes
//! that gap with an **epoch-based double buffer**:
//!
//! * a [`ServingEngine`] owns two rank buffers (*front* and *back*) behind
//!   an atomically-published slot index plus a monotonically increasing
//!   **generation** counter;
//! * readers hold a cheap cloneable [`ScoreReader`] whose
//!   [`get`](ScoreReader::get) / [`top_k`](ScoreReader::top_k) /
//!   [`snapshot_into`](ScoreReader::snapshot_into) never block on a
//!   refresh and never observe a partially written sweep — every read
//!   comes from a fully published generation;
//! * [`ServingEngine::ingest`] applies an edge batch, runs
//!   [`Engine::resolve_incremental`] **into the back buffer**
//!   ([`Engine::resolve_incremental_tracked`] swaps the solver's iterate
//!   with the buffer — no copy), then publishes it by storing the slot index:
//!   refresh latency no longer gates read availability at all.
//!
//! # Publication protocol and memory-ordering argument
//!
//! Each slot carries a reader **pin count**. A reader pins the front slot
//! (`load front` → `fetch_add readers[f]` → re-validate `front == f`,
//! retrying on mismatch), reads, then unpins. The writer targets the slot
//! that is *not* front, first draining its pin count to zero, then writes
//! and publishes by storing `front = back` and bumping the generation.
//! All of these operations are `SeqCst`, which makes the safety argument a
//! statement about the single total order `S` of them:
//!
//! 1. A reader that re-validated `front == f` ordered its pin *before*
//!    any later flip of `front` in `S` (a `SeqCst` load reads the most
//!    recent `SeqCst` store preceding it in `S`). Any writer that
//!    subsequently targets slot `f` loads `readers[f]` *after* that flip
//!    in `S`, hence after the pin — so its drain loop observes the pin
//!    and waits.
//! 2. The drain loop exits only after it observes the reader's unpin,
//!    which the reader performs after its last access — so a writer's
//!    writes to a slot never overlap any reader's reads of it.
//! 3. Publication (`front = back`) follows every write to the back slot
//!    in program order; a reader that pins the new front therefore
//!    observes all of them (its validating load reads the flip, ordering
//!    it after the writes in `S`).
//!
//! Readers are wait-free in the absence of a concurrent flip and retry at
//! most once per refresh that lands mid-pin; the writer may briefly spin
//! waiting for stragglers pinned to the retiring slot (reads are
//! microseconds; refreshes are milliseconds). There is exactly one writer
//! by construction — publication methods require `&mut ServingEngine`.
//!
//! # Maintained top-k index
//!
//! Each slot additionally carries a **maintained top-k index** — the
//! exact ranked head of its score buffer — written by the writer inside
//! the same exclusivity window as the scores and flipped by the same
//! publish store, so a pinned generation's index always describes that
//! generation's scores. On a localized refresh the index is *repaired*
//! from the solver's touched frontier (an `O(frontier)` admission-barrier
//! update, independent of `n`) instead of rescanned; every sweep-shaped
//! refresh rebuilds it. [`ScoreReader::top_k`] with `k ≤ K_max` is then a
//! wait-free `O(k)` copy, bit-identical to the scan it replaces — see
//! DESIGN.md, "Maintained query index", for the invariant and the
//! exactness proof.
//!
//! # Sharding
//!
//! [`ShardManager`] hosts many serving engines — independent graphs, or N
//! personalization views over **one shared** [`Arc<CscStructure>`] — and
//! routes keyed refresh/query traffic to them: `key → key % shards`.
//! Batch queries ([`ShardManager::batch_get`]) and batch delta ingestion
//! ([`ShardManager::ingest_all`]) keep the per-shard engines (their
//! tables and workspaces ride inside each shard's [`EngineState`]) warm
//! across generations; in the shared-structure
//! layout only the first shard pays each delta's structural transpose
//! patch, the rest receive the patched `Arc` via
//! [`EngineState::patched_with`].

use crate::engine::{check_exponent, Engine, EngineState, ResolveMode, TouchedSet};
use crate::error::UpdateError;
use crate::pagerank::PageRankConfig;
use crate::transition::TransitionModel;
use crate::workspace::PermuteScratch;
use d2pr_graph::csr::{CsrGraph, Direction};
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::error::GraphError;
use d2pr_graph::permute::{Layout, NodePermutation};
use d2pr_graph::transpose::CscStructure;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Publication core: two slots, pin counts, a published slot index
// ---------------------------------------------------------------------------

/// Default maintained top-k capacity (`K_max`): [`ScoreReader::top_k`]
/// answers `k ≤ K_max` in `O(k)` from the per-slot index. Change it per
/// engine with [`ServingEngine::set_top_k_capacity`].
pub const DEFAULT_TOP_K_CAPACITY: usize = 128;

/// Entries the index keeps *beyond* `K_max`. Each localized repair drops
/// every entry at or below its admission barrier (at least the barrier
/// node itself when nothing re-enters), so the head can shrink refresh
/// over refresh; the slack absorbs those drops and amortizes the `O(n log
/// K)` rebuild to at most one per ~`HEAD_SLACK` repairs in the worst case.
const HEAD_SLACK: usize = 64;

/// One rank buffer plus its pin count and the generation it holds.
struct Slot {
    /// The scores of one published generation. Written only by the single
    /// writer after draining `readers` to zero; read only by pinned
    /// readers (see the module-level protocol).
    scores: UnsafeCell<Vec<f64>>,
    /// The maintained top-k index over `scores` — repaired or rebuilt by
    /// the writer between `begin_write` and `publish`, under exactly the
    /// score buffer's exclusivity protocol, so it flips atomically with
    /// the scores it indexes.
    index: UnsafeCell<TopIndex>,
    /// Readers currently pinned to this slot.
    readers: AtomicUsize,
    /// Generation whose scores this slot holds.
    generation: AtomicU64,
}

impl Slot {
    fn new(scores: Vec<f64>, index: TopIndex, generation: u64) -> Self {
        Self {
            scores: UnsafeCell::new(scores),
            index: UnsafeCell::new(index),
            readers: AtomicUsize::new(0),
            generation: AtomicU64::new(generation),
        }
    }
}

/// Maintained ranked head of one slot: exactly the global best
/// `head.len()` entries of the slot's score buffer, best-first (score
/// descending, node id ascending on ties — [`TopEntry`]'s goodness
/// order). The published invariant is `head.len() ≥ min(cap, nodes)`, so
/// any `k ≤ cap` is answered by copying a prefix.
struct TopIndex {
    head: Vec<TopEntry>,
    /// Configured `K_max`. The head is kept at up to `cap + HEAD_SLACK`
    /// entries so incremental repairs can shed entries without
    /// immediately forcing a rebuild.
    cap: usize,
}

impl TopIndex {
    /// Build the index of `scores` from scratch: one `O(n log K)` scan.
    fn rebuilt(scores: &[f64], cap: usize) -> Self {
        let mut idx = Self {
            head: Vec::new(),
            cap,
        };
        idx.rebuild(scores);
        idx
    }

    fn rebuild(&mut self, scores: &[f64]) {
        self.head = scan_top(scores, (self.cap + HEAD_SLACK).min(scores.len()));
    }
}

/// Shared state behind a [`ServingEngine`] and its [`ScoreReader`]s.
struct PublishCore {
    slots: [Slot; 2],
    /// Index of the published (front) slot.
    front: AtomicUsize,
    /// Latest published generation (equals the front slot's).
    generation: AtomicU64,
    /// Node count of the latest published generation. Grows when an
    /// ingested batch adds nodes (the id space never shrinks — removals
    /// are tombstones); updated by the writer inside the publish window.
    nodes: AtomicUsize,
    /// Process-unique id distinguishing this core's events in a sim
    /// harness hosting several engines (sharded runs).
    #[cfg(feature = "sim")]
    sim_id: usize,
}

// SAFETY: the `UnsafeCell` buffers follow the pin/drain protocol in the
// module docs — the single writer only touches a slot after draining its
// pin count, readers only read while pinned — so shared access from many
// threads is sound.
unsafe impl Send for PublishCore {}
unsafe impl Sync for PublishCore {}

impl PublishCore {
    fn new(initial: Vec<f64>) -> Self {
        Self::new_at(initial, 0)
    }

    /// A core whose first published generation is `generation` rather
    /// than 0 — the recovery path resumes the counter exactly where the
    /// durable log left it, so readers never see generations repeat
    /// across a restart.
    fn new_at(initial: Vec<f64>, generation: u64) -> Self {
        let nodes = initial.len();
        // Both slots start as valid copies of the initial generation (and
        // its index), so a reader can never observe an unpublished buffer
        // even before the first refresh.
        let copy = initial.clone();
        let index = TopIndex::rebuilt(&initial, DEFAULT_TOP_K_CAPACITY);
        let index_copy = TopIndex {
            head: index.head.clone(),
            cap: index.cap,
        };
        Self {
            slots: [
                Slot::new(initial, index, generation),
                Slot::new(copy, index_copy, generation),
            ],
            front: AtomicUsize::new(0),
            generation: AtomicU64::new(generation),
            nodes: AtomicUsize::new(nodes),
            #[cfg(feature = "sim")]
            sim_id: {
                static NEXT_SIM_ID: AtomicUsize = AtomicUsize::new(0);
                NEXT_SIM_ID.fetch_add(1, SeqCst)
            },
        }
    }

    /// A yield point tagged with this core's identity and a slot index
    /// (`arg = sim_id * 2 + slot`); compiles to nothing without `sim`.
    #[inline(always)]
    fn ev(&self, label: &'static str, slot: usize) {
        #[cfg(feature = "sim")]
        crate::exec::sim_event(label, self.sim_id * 2 + slot);
        #[cfg(not(feature = "sim"))]
        let _ = (label, slot);
    }

    /// Pin the current front slot (module-docs protocol) and return its
    /// index. Must be paired with [`PublishCore::unpin`].
    fn pin(&self) -> usize {
        loop {
            self.ev("serving.pin.load", 0);
            let f = self.front.load(SeqCst);
            self.ev("serving.pin.inc", f);
            self.slots[f].readers.fetch_add(1, SeqCst);
            self.ev("serving.pin.validate", f);
            if self.front.load(SeqCst) == f {
                self.ev("serving.pin.ok", f);
                return f;
            }
            // A publish landed between the load and the pin: this slot is
            // now the writer's target. Back off and retry on the new front.
            self.ev("serving.pin.retry", f);
            self.slots[f].readers.fetch_sub(1, SeqCst);
        }
    }

    fn unpin(&self, slot: usize) {
        self.ev("serving.unpin", slot);
        self.slots[slot].readers.fetch_sub(1, SeqCst);
    }

    /// Writer side: claim the back slot, draining straggler readers that
    /// pinned it before the previous flip.
    fn begin_write(&self) -> usize {
        let back = self.front.load(SeqCst) ^ 1;
        self.ev("serving.write.claim", back);
        // The planted publish-ordering bug (`sim-bug`): skip the reader
        // drain entirely, so the writer mutates a slot stragglers are
        // still pinned to. The sim harness's mutation test asserts this
        // is caught by the shadow model and shrunk to a printable seed.
        #[cfg(not(feature = "sim-bug"))]
        {
            let mut spins = 0u32;
            while self.slots[back].readers.load(SeqCst) != 0 {
                self.ev("serving.write.drain", back);
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        self.ev("serving.write.begin", back);
        back
    }

    /// The back slot's buffer, exclusively the writer's between
    /// [`PublishCore::begin_write`] and [`PublishCore::publish`].
    ///
    /// SAFETY: caller must be the single writer, `back` must come from
    /// `begin_write` of the current write, and the slot must not yet be
    /// published.
    #[allow(clippy::mut_from_ref)]
    unsafe fn back_vec(&self, back: usize) -> &mut Vec<f64> {
        unsafe { &mut *self.slots[back].scores.get() }
    }

    /// The back slot's maintained index, exclusively the writer's under
    /// the same window as [`PublishCore::back_vec`].
    ///
    /// SAFETY: as [`PublishCore::back_vec`].
    #[allow(clippy::mut_from_ref)]
    unsafe fn back_index(&self, back: usize) -> &mut TopIndex {
        unsafe { &mut *self.slots[back].index.get() }
    }

    /// The front slot's scores. SAFETY: caller must be the single writer
    /// (nobody writes the front slot while it stays front, and only the
    /// writer can flip it).
    unsafe fn front_scores(&self) -> &[f64] {
        let f = self.front.load(SeqCst);
        unsafe { (*self.slots[f].scores.get()).as_slice() }
    }

    /// The front slot's maintained index. SAFETY: as
    /// [`PublishCore::front_scores`].
    unsafe fn front_index(&self) -> &TopIndex {
        let f = self.front.load(SeqCst);
        unsafe { &*self.slots[f].index.get() }
    }

    /// Publish the freshly written back slot as the next generation and
    /// return that generation.
    fn publish(&self, back: usize) -> u64 {
        self.ev("serving.publish", back);
        let generation = self.generation.load(SeqCst) + 1;
        self.slots[back].generation.store(generation, SeqCst);
        self.front.store(back, SeqCst);
        self.generation.store(generation, SeqCst);
        generation
    }
}

/// RAII pin on the front slot: dereferences to the published scores and
/// unpins on drop (panic-safe).
struct Pinned<'a> {
    core: &'a PublishCore,
    slot: usize,
}

impl<'a> Pinned<'a> {
    fn new(core: &'a PublishCore) -> Self {
        let slot = core.pin();
        Self { core, slot }
    }

    fn scores(&self) -> &[f64] {
        self.core.ev("serving.read", self.slot);
        // SAFETY: the slot is pinned — the writer drains pins before
        // touching it — and it was front at pin-validation time, so it
        // holds a fully published generation.
        unsafe { (*self.core.slots[self.slot].scores.get()).as_slice() }
    }

    fn generation(&self) -> u64 {
        // Frozen while pinned: the slot's generation is rewritten only by
        // a writer that has drained the pin count first.
        self.core.slots[self.slot].generation.load(SeqCst)
    }

    fn index(&self) -> &TopIndex {
        self.core.ev("serving.read", self.slot);
        // SAFETY: as `scores` — the index is written under exactly the
        // score buffer's exclusivity window, so a pinned slot's index is
        // fully published and frozen.
        unsafe { &*self.core.slots[self.slot].index.get() }
    }
}

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        self.core.unpin(self.slot);
    }
}

// ---------------------------------------------------------------------------
// ScoreReader
// ---------------------------------------------------------------------------

/// A cheap cloneable read handle on a [`ServingEngine`]'s published
/// scores. Send it to any number of threads; every method reads a fully
/// published generation and never blocks on an in-flight refresh.
#[derive(Clone)]
pub struct ScoreReader {
    core: Arc<PublishCore>,
}

impl std::fmt::Debug for ScoreReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreReader")
            .field("nodes", &self.core.nodes.load(SeqCst))
            .field("generation", &self.generation())
            .finish()
    }
}

impl ScoreReader {
    /// Number of nodes of the latest published generation (grows when
    /// batches add nodes; removals are tombstones and never shrink it).
    pub fn len(&self) -> usize {
        self.core.nodes.load(SeqCst)
    }

    /// Whether the served graph is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest published generation (starts at 0, +1 per refresh).
    pub fn generation(&self) -> u64 {
        self.core.generation.load(SeqCst)
    }

    /// The published score of `node`, or `None` when out of range.
    pub fn get(&self, node: u32) -> Option<f64> {
        let pin = Pinned::new(&self.core);
        pin.scores().get(node as usize).copied()
    }

    /// The published score of `node` together with the generation it
    /// belongs to (the pair is consistent — both come from one pin).
    pub fn get_with_generation(&self, node: u32) -> Option<(f64, u64)> {
        let pin = Pinned::new(&self.core);
        pin.scores()
            .get(node as usize)
            .map(|&s| (s, pin.generation()))
    }

    /// Copy one fully published generation into `out` (resized to fit) and
    /// return its generation. The whole vector comes from a single pin, so
    /// it can never mix two generations.
    pub fn snapshot_into(&self, out: &mut Vec<f64>) -> u64 {
        let pin = Pinned::new(&self.core);
        out.clear();
        out.extend_from_slice(pin.scores());
        pin.generation()
    }

    /// The `k` highest-scoring nodes of one published generation,
    /// descending (ties broken by ascending node id).
    ///
    /// **Cost contract:** `k ≤ K_max` (the engine's maintained top-k
    /// capacity — [`DEFAULT_TOP_K_CAPACITY`] unless changed with
    /// [`ServingEngine::set_top_k_capacity`]) is a wait-free `O(k)` copy
    /// from the pinned generation's maintained index; larger `k` falls
    /// back to the `O(n log k)` scan. **Exactness contract:** the answer
    /// is bit-identical to [`ScoreReader::top_k_scan`] of the same
    /// generation for *every* `k` — the index is repaired from the
    /// incremental solver's touched frontier under an admission-barrier
    /// invariant (DESIGN.md, "Maintained query index") and rebuilt
    /// whenever that invariant cannot be re-established, never
    /// approximated.
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        let pin = Pinned::new(&self.core);
        let head = &pin.index().head;
        if k <= head.len() {
            return head[..k].iter().map(|e| (e.node, e.score)).collect();
        }
        scan_top(pin.scores(), k)
            .into_iter()
            .map(|e| (e.node, e.score))
            .collect()
    }

    /// [`ScoreReader::top_k`] without the maintained index: always the
    /// `O(n log k)` min-heap scan of the pinned generation. This is the
    /// reference implementation the index is property-tested against;
    /// exposed for benchmarking and verification.
    pub fn top_k_scan(&self, k: usize) -> Vec<(u32, f64)> {
        let pin = Pinned::new(&self.core);
        scan_top(pin.scores(), k)
            .into_iter()
            .map(|e| (e.node, e.score))
            .collect()
    }

    /// The maintained index capacity `K_max` of the currently published
    /// generation: the largest `k` whose [`ScoreReader::top_k`] is
    /// guaranteed `O(k)`.
    pub fn top_k_capacity(&self) -> usize {
        let pin = Pinned::new(&self.core);
        pin.index().cap
    }
}

/// Exact top-`k` entries of `scores`, best-first — `O(n log k)` via a
/// min-heap of the current best `k`. The scan reference every maintained
/// index must match.
fn scan_top(scores: &[f64], k: usize) -> Vec<TopEntry> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    // Min-heap on "goodness" (higher score, then smaller id): the root is
    // the weakest of the current best k, evicted whenever a better
    // candidate arrives.
    let mut heap: BinaryHeap<Reverse<TopEntry>> = BinaryHeap::with_capacity(k + 1);
    for (v, &s) in scores.iter().enumerate() {
        let cand = TopEntry {
            score: s,
            node: v as u32,
        };
        if heap.len() < k {
            heap.push(Reverse(cand));
        } else if cand > heap.peek().expect("non-empty at capacity").0 {
            heap.pop();
            heap.push(Reverse(cand));
        }
    }
    let mut best: Vec<TopEntry> = heap.into_iter().map(|Reverse(e)| e).collect();
    best.sort_unstable_by(|a, b| b.cmp(a));
    best
}

/// `top_k` heap entry, ordered by goodness: higher score first, smaller
/// node id on score ties. The score comparison is `f64::total_cmp`, so
/// the order is total even for NaN/±0.0 payloads — a NaN score (e.g. from
/// a future weighted-path bug) degrades to a wrong ranking instead of
/// violating `Ord`'s contract inside `BinaryHeap`/`sort`.
#[derive(Clone, Copy, PartialEq)]
struct TopEntry {
    score: f64,
    node: u32,
}

impl Eq for TopEntry {}

impl Ord for TopEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for TopEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// [`ShardManager::top_k_global`] merge entry, ordered by global
/// goodness: higher score first, then smaller shard, then smaller node.
#[derive(Clone, Copy, PartialEq)]
struct GlobalTopEntry {
    score: f64,
    shard: usize,
    node: u32,
}

impl Eq for GlobalTopEntry {}

impl Ord for GlobalTopEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.shard.cmp(&self.shard))
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for GlobalTopEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Bring the back slot's index up to date with its freshly written score
/// buffer: an incremental repair from the solve's touched frontier when
/// the localized path ran ([`TouchedSet::all`] false), a full rebuild
/// otherwise or when the repair's admission barrier cannot be
/// established. `touched.nodes` is sorted in place (it doubles as the
/// membership set); `candidates` is writer-owned scratch reused across
/// refreshes.
fn maintain_index(
    front: &TopIndex,
    back: &mut TopIndex,
    new_scores: &[f64],
    touched: &mut TouchedSet,
    candidates: &mut Vec<TopEntry>,
) {
    back.cap = front.cap;
    if !touched.all {
        touched.nodes.sort_unstable();
        if repair_index(front, back, new_scores, &touched.nodes, candidates) {
            return;
        }
    }
    back.rebuild(new_scores);
}

/// Incremental index repair. The exactness argument (DESIGN.md,
/// "Maintained query index"):
///
/// * The localized solver wrote exactly the nodes in `touched`; every
///   other node's new score is its old score divided by one positive
///   normalization constant — a monotone map (correctly-rounded IEEE
///   division), so the relative order of unwritten nodes is preserved up
///   to tie collapse.
/// * Let `e'` be the weakest old-head entry whose node is *not* touched
///   (none ⇒ no barrier ⇒ rebuild). Every node outside `head ∪ touched`
///   had old score ≤ `e'`'s old score (the head was an exact prefix), so
///   its new score is ≤ `B = new_scores[e']` — `B` is an admission
///   barrier no outside node can strictly exceed.
/// * The candidates (old head ∪ touched, re-scored from the new buffer)
///   with score **strictly** above `B`, sorted by goodness, are therefore
///   exactly the globally best `|kept|` nodes. Entries at `B` — `e'`
///   itself included — must be dropped: tie collapse can lift an outside
///   node to exactly `B`, where a smaller node id would outrank them.
///
/// The repaired head is the kept prefix (truncated to `cap +
/// HEAD_SLACK`); if it cannot cover `min(cap, n)` entries the invariant
/// is unsatisfiable and the caller rebuilds. Cost: `O((H + T)·log(H +
/// T))` on head size `H` and frontier size `T` — independent of `n`.
fn repair_index(
    front: &TopIndex,
    back: &mut TopIndex,
    new_scores: &[f64],
    touched: &[u32],
    candidates: &mut Vec<TopEntry>,
) -> bool {
    let n = new_scores.len();
    let need = front.cap.min(n);
    let Some(barrier) = front
        .head
        .iter()
        .rev()
        .find(|e| touched.binary_search(&e.node).is_err())
    else {
        return false; // every head node was rewritten: no barrier survives
    };
    let b = new_scores[barrier.node as usize];
    candidates.clear();
    let admit = |node: u32, candidates: &mut Vec<TopEntry>| {
        let score = new_scores[node as usize];
        if score.total_cmp(&b).is_gt() {
            candidates.push(TopEntry { score, node });
        }
    };
    for e in &front.head {
        admit(e.node, candidates);
    }
    for &v in touched {
        admit(v, candidates);
    }
    // Nodes in both the head and the frontier were admitted twice with
    // identical scores; the goodness sort makes the twins adjacent.
    candidates.sort_unstable_by(|x, y| y.cmp(x));
    candidates.dedup_by_key(|e| e.node);
    if candidates.len() < need {
        return false;
    }
    candidates.truncate((front.cap + HEAD_SLACK).min(n));
    std::mem::swap(&mut back.head, candidates);
    true
}

// ---------------------------------------------------------------------------
// ServingEngine
// ---------------------------------------------------------------------------

/// Diagnostics of one [`ServingEngine::ingest`] refresh.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshOutcome {
    /// The generation this refresh published.
    pub generation: u64,
    /// The strategy [`Engine::resolve_incremental`] selected.
    pub mode: ResolveMode,
    /// Sweep iterations (or residual pushes on the localized path).
    pub iterations: usize,
    /// Frontier rows of the localized path (0 for sweeps).
    pub frontier: usize,
    /// Residual pushes performed (0 for sweeps).
    pub pushes: usize,
    /// Whether the refresh converged below the configured tolerance.
    pub converged: bool,
    /// Arcs the batch inserted (effective, mirrored arcs counted).
    pub inserted_arcs: usize,
    /// Arcs the batch deleted.
    pub deleted_arcs: usize,
    /// Arcs whose weight the batch replaced (no structural change).
    pub reweighted_arcs: usize,
    /// Nodes the batch appended to the id space.
    pub added_nodes: u32,
    /// Nodes the batch tombstoned (incident arcs dropped, id retained).
    pub removed_nodes: usize,
}

/// The state a durability layer hands back to revive a [`ServingEngine`]
/// after a restart: the solver-order graph as of the last snapshot, the
/// published scores of that snapshot's generation, and the log tail of
/// edge batches (caller/external ids, oldest first) appended after it.
///
/// Built by `d2pr-store`'s recovery scan; consumed by
/// [`ServingEngine::recovered`].
#[derive(Debug, Clone)]
pub struct RecoveredParts {
    /// The graph in **solver order** (exactly
    /// `serving.delta_graph().graph()` at snapshot time — already
    /// permuted when `perm` is set).
    pub graph: CsrGraph,
    /// The layout permutation the snapshot was taken under, if any.
    pub perm: Option<Arc<NodePermutation>>,
    /// Published scores of generation [`RecoveredParts::generation`], in
    /// **external** (caller) node order.
    pub scores: Vec<f64>,
    /// The generation `scores` belongs to.
    pub generation: u64,
    /// Teleport distribution in **solver order** (as
    /// [`ServingEngine::teleport`] reports it), `None` = uniform.
    pub teleport: Option<Vec<f64>>,
    /// Durable edge batches logged after the snapshot, oldest first, in
    /// external ids (exactly as the caller passed them to ingest).
    pub tail: Vec<EdgeBatch>,
    /// Node ids tombstoned **as of the snapshot**, in external order (the
    /// serving engine's removed set at snapshot time). Replayed tail
    /// batches may extend or revive entries.
    pub removed: Vec<u32>,
}

/// Diagnostics of one [`ServingEngine::recovered`] revival.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The generation serving resumed at (snapshot generation + replayed
    /// tail length).
    pub generation: u64,
    /// Log-tail batches replayed on top of the snapshot.
    pub replayed_batches: usize,
    /// Net arcs the replay inserted (after cross-batch cancellation).
    pub replayed_inserted_arcs: usize,
    /// Net arcs the replay deleted (after cross-batch cancellation).
    pub replayed_deleted_arcs: usize,
    /// The strategy the single warm re-solve selected (`None` when the
    /// tail was empty — the snapshot scores were published as-is).
    pub mode: Option<ResolveMode>,
    /// Whether the warm re-solve converged (`true` for an empty tail).
    pub converged: bool,
}

/// An evolving graph served with double-buffered score publication: apply
/// edge batches with [`ServingEngine::ingest`] while any number of
/// [`ScoreReader`]s keep reading published generations.
///
/// Owns the [`DeltaGraph`], the engine's [`EngineState`] (its tables and
/// workspace ride across every refresh), and the two publication buffers.
/// Each refresh solves on the thread that calls [`ServingEngine::ingest`]. The refreshed iterate is *swapped* into the back buffer
/// ([`Engine::resolve_incremental_tracked`]) and published with one atomic
/// store — steady-state serving copies no score vector at all.
///
/// ```
/// use d2pr_core::pagerank::PageRankConfig;
/// use d2pr_core::serving::ServingEngine;
/// use d2pr_core::transition::TransitionModel;
/// use d2pr_graph::delta::EdgeBatch;
/// use d2pr_graph::generators::barabasi_albert;
///
/// let g = barabasi_albert(300, 3, 7).unwrap();
/// let mut serving = ServingEngine::new(
///     g,
///     TransitionModel::DegreeDecoupled { p: 0.5 },
///     PageRankConfig::default(),
///     1,
/// )
/// .unwrap();
/// let reader = serving.reader(); // clone freely, send to reader threads
/// assert_eq!(reader.generation(), 0);
///
/// let mut batch = EdgeBatch::new();
/// batch.insert(0, 299);
/// let refresh = serving.ingest(&batch).unwrap(); // readers keep reading
/// assert_eq!(refresh.generation, 1);
/// assert_eq!(reader.generation(), 1);
/// let top = reader.top_k(3);
/// assert_eq!(top.len(), 3);
/// assert!(top[0].1 >= top[1].1);
/// ```
pub struct ServingEngine {
    dg: DeltaGraph,
    /// `None` only after an internal refresh step failed mid-handoff (the
    /// state was consumed); every entry point reports this as poisoned.
    state: Option<EngineState>,
    core: Arc<PublishCore>,
    model: TransitionModel,
    /// Internal (solver) order when `perm` is set, external otherwise —
    /// the two coincide for the baseline layout.
    teleport: Option<Vec<f64>>,
    /// Node permutation of a non-baseline [`Layout`]: the solver stack
    /// runs on the permuted graph while the published buffers (and every
    /// reader-visible id) stay in the caller's original order.
    perm: Option<Arc<NodePermutation>>,
    /// Internal-order score buffers for the permuted refresh path.
    scratch: PermuteScratch,
    /// Reusable frontier buffer filled by
    /// [`Engine::resolve_incremental_tracked`] each refresh — the node
    /// set the maintained top-k index repairs against.
    touched: TouchedSet,
    /// Writer-side candidate scratch of the index repair (reused; holds
    /// the retiring head's allocation between refreshes).
    candidates: Vec<TopEntry>,
    /// Tombstoned node ids in **external** (reader-visible) order. The id
    /// space never shrinks: a removed node keeps its slot, its published
    /// score is masked to `0.0` every generation, and the maintained
    /// top-k index evicts it. A later batch inserting an arc incident to
    /// the id revives it.
    removed: std::collections::BTreeSet<u32>,
}

impl std::fmt::Debug for ServingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingEngine")
            .field("nodes", &self.core.nodes.load(SeqCst))
            .field("arcs", &self.dg.graph().num_arcs())
            .field("generation", &self.generation())
            .field("model", &self.model)
            .finish()
    }
}

impl ServingEngine {
    /// Serve `graph` with uniform teleportation: cold-solve once, publish
    /// generation 0.
    ///
    /// `threads` is ignored: every solve runs on the calling thread. It
    /// stays only for the benchmark client, and the next benchmark-only
    /// change removes it.
    ///
    /// Weighted graphs are served like unweighted ones — batches carry
    /// per-arc weights ([`EdgeBatch::insert_weighted`]), re-inserts
    /// replace weights, and node churn ([`EdgeBatch::add_nodes`] /
    /// [`EdgeBatch::remove_node`]) grows or tombstones the served id
    /// space.
    ///
    /// # Errors
    /// Any constructor/solver failure.
    pub fn new(
        graph: CsrGraph,
        model: TransitionModel,
        config: PageRankConfig,
        threads: usize,
    ) -> Result<Self, UpdateError> {
        let _ = threads;
        Self::with_parts(graph, None, None, model, config)
    }

    /// Full constructor: an optional prebuilt **shared** transpose
    /// structure (many serving engines over one graph pay a single
    /// `O(E)` build — see [`ShardManager::personalized`]) and an optional
    /// teleport distribution (normalized internally; `None` = uniform).
    ///
    /// # Errors
    /// As [`ServingEngine::new`], plus
    /// [`SolverError::StructureMismatch`](crate::error::SolverError::StructureMismatch)
    /// when `structure` does not describe `graph` and teleport validation
    /// errors.
    pub fn with_parts(
        graph: CsrGraph,
        structure: Option<Arc<CscStructure>>,
        teleport: Option<&[f64]>,
        model: TransitionModel,
        config: PageRankConfig,
    ) -> Result<Self, UpdateError> {
        let dg = DeltaGraph::new(graph)?;
        let csc = match structure {
            Some(csc) => csc,
            None => Arc::new(CscStructure::build(dg.graph())),
        };
        let mut engine = Engine::with_structure(dg.graph(), csc)
            .map_err(UpdateError::Solver)?
            .with_config(config)
            .map_err(UpdateError::Solver)?;
        engine.set_model(model).map_err(UpdateError::Solver)?;
        let initial = engine
            .solve_with_teleport(teleport)
            .map_err(UpdateError::Solver)?;
        let state = engine.into_state();
        Ok(Self {
            dg,
            state: Some(state),
            core: Arc::new(PublishCore::new(initial.scores)),
            model,
            teleport: teleport.map(<[f64]>::to_vec),
            perm: None,
            scratch: PermuteScratch::default(),
            touched: TouchedSet::new(),
            candidates: Vec::new(),
            removed: std::collections::BTreeSet::new(),
        })
    }

    /// Serve `graph` under a cache-aware memory [`Layout`]: the graph is
    /// permuted **once** at construction and the whole solver stack runs
    /// on the permuted copy, while the published buffers stay in the
    /// caller's original node order — [`ScoreReader::get`] /
    /// [`ScoreReader::top_k`], `teleport`, and every [`EdgeBatch`] keep
    /// using the ids the caller already holds. The translation is `O(1)`
    /// per queried node and `O(batch)` per ingest; score vectors cross the
    /// boundary once per refresh.
    ///
    /// [`Layout::Baseline`] is byte-for-byte the [`ServingEngine::new`]
    /// path (no permutation, zero-copy publish swap preserved).
    ///
    /// # Errors
    /// As [`ServingEngine::with_parts`].
    pub fn with_layout(
        graph: CsrGraph,
        layout: Layout,
        teleport: Option<&[f64]>,
        model: TransitionModel,
        config: PageRankConfig,
    ) -> Result<Self, UpdateError> {
        if matches!(layout, Layout::Baseline) {
            return Self::with_parts(graph, None, teleport, model, config);
        }
        let (internal, csc) =
            CscStructure::with_layout(&graph, layout).map_err(UpdateError::Graph)?;
        let perm = csc.permutation().cloned();
        // Teleport moves to internal order up front (refreshes reuse it
        // every round). A wrong-length vector passes through untranslated
        // so the solver reports the usual typed validation error.
        let teleport = teleport.map(|t| match &perm {
            Some(p) if t.len() == p.len() => {
                let mut buf = Vec::new();
                p.permute_values(t, &mut buf);
                buf
            }
            _ => t.to_vec(),
        });
        let dg = DeltaGraph::new(internal)?;
        let mut engine = Engine::with_structure(dg.graph(), Arc::new(csc))
            .map_err(UpdateError::Solver)?
            .with_config(config)
            .map_err(UpdateError::Solver)?;
        engine.set_model(model).map_err(UpdateError::Solver)?;
        let initial = engine
            .solve_with_teleport(teleport.as_deref())
            .map_err(UpdateError::Solver)?;
        let state = engine.into_state();
        // Published generation 0 is external order.
        let scores = match &perm {
            Some(p) => {
                let mut ext = Vec::new();
                p.unpermute_values(&initial.scores, &mut ext);
                ext
            }
            None => initial.scores,
        };
        Ok(Self {
            dg,
            state: Some(state),
            core: Arc::new(PublishCore::new(scores)),
            model,
            teleport,
            perm,
            scratch: PermuteScratch::default(),
            touched: TouchedSet::new(),
            candidates: Vec::new(),
            removed: std::collections::BTreeSet::new(),
        })
    }

    /// Revive a serving engine from durable state: replay the log tail
    /// onto the snapshot graph in **one** call that patches the graph once
    /// ([`DeltaGraph::apply_batches`]; per-batch insert/delete pairs cancel
    /// across batches), rebuild the solver stack on the result, run a
    /// single warm incremental re-solve from the snapshot scores with the
    /// tail's net delta, and resume publication at exactly
    /// `parts.generation + tail.len()` — the last durable generation. An
    /// empty tail publishes the snapshot scores untouched.
    ///
    /// The caller (the `d2pr-store` recovery scan) guarantees the tail
    /// batches were validated before they were logged, so replay failures
    /// are internal-consistency breaches, not user input.
    ///
    /// `threads` is ignored, as in [`ServingEngine::new`]; the next
    /// benchmark-only change removes it.
    ///
    /// # Errors
    /// As [`ServingEngine::with_parts`], plus a typed mismatch when
    /// `parts.scores` does not cover the graph's node set.
    pub fn recovered(
        parts: RecoveredParts,
        model: TransitionModel,
        config: PageRankConfig,
        threads: usize,
    ) -> Result<(Self, RecoveryOutcome), UpdateError> {
        use std::collections::BTreeSet;
        let _ = threads;
        let RecoveredParts {
            graph,
            perm,
            scores,
            generation,
            teleport,
            tail,
            removed: snapshot_removed,
        } = parts;
        if scores.len() != graph.num_nodes() {
            return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                "recovered scores cover {} nodes but the graph has {}",
                scores.len(),
                graph.num_nodes()
            ))));
        }
        let mut dg = DeltaGraph::new(graph)?;
        // Replay the whole tail with one patch; its net delta separates
        // the snapshot graph from the final replayed state (cross-batch
        // round trips cancel, see `DeltaGraph::apply_batches`).
        let translated: Vec<EdgeBatch>;
        let batches = match &perm {
            Some(p) => {
                translated = tail.iter().map(|b| b.permuted(p)).collect();
                &translated
            }
            None => &tail,
        };
        let applied = dg.apply_batches(batches)?;
        // The engine-level tombstone set (external ids): seeded from the
        // snapshot's persisted set, advanced batch by batch with exactly
        // the live-ingest rule (removals join, effective-insert endpoints
        // revive).
        let mut tombstones: BTreeSet<u32> = snapshot_removed.iter().copied().collect();
        let external = |v: u32| perm.as_ref().map_or(v, |p| p.to_external(v));
        for d in &applied.deltas {
            tombstones.extend(d.removed_nodes.iter().map(|&v| external(v)));
            for &(u, v) in &d.inserted {
                tombstones.remove(&external(u));
                tombstones.remove(&external(v));
            }
        }
        let delta = applied.net;
        let replayed_batches = tail.len();
        let graph = dg.graph();
        let mut engine = Engine::with_structure(graph, Arc::new(CscStructure::build(graph)))
            .map_err(UpdateError::Solver)?
            .with_config(config)
            .map_err(UpdateError::Solver)?;
        engine.set_model(model).map_err(UpdateError::Solver)?;

        let mut scratch = PermuteScratch::default();
        let (published, outcome) = if replayed_batches == 0 {
            // Nothing after the snapshot: serve it as-is. The engine still
            // needs its tables built (above) so later ingests start warm.
            (
                scores,
                RecoveryOutcome {
                    generation,
                    replayed_batches: 0,
                    replayed_inserted_arcs: 0,
                    replayed_deleted_arcs: 0,
                    mode: None,
                    converged: true,
                },
            )
        } else {
            let replayed_inserted_arcs = delta.inserted.len();
            let replayed_deleted_arcs = delta.deleted.len();
            let mut out = Vec::new();
            // The recovered index is rebuilt from scratch below, so the
            // repair frontier is not needed.
            let mut touched = TouchedSet::new();
            let inc = match &perm {
                None => engine.resolve_incremental_tracked(
                    &scores,
                    teleport.as_deref(),
                    &delta,
                    &mut out,
                    &mut touched,
                )?,
                Some(p) => {
                    p.permute_values(&scores, &mut scratch.internal_prev);
                    let inc = engine.resolve_incremental_tracked(
                        &scratch.internal_prev,
                        teleport.as_deref(),
                        &delta,
                        &mut scratch.internal_next,
                        &mut touched,
                    )?;
                    p.unpermute_values(&scratch.internal_next, &mut out);
                    inc
                }
            };
            let generation = generation + replayed_batches as u64;
            (
                out,
                RecoveryOutcome {
                    generation,
                    replayed_batches,
                    replayed_inserted_arcs,
                    replayed_deleted_arcs,
                    mode: Some(inc.mode),
                    converged: inc.result.converged,
                },
            )
        };
        let state = engine.into_state();
        // A tail with node growth outgrew the snapshot-length teleport:
        // zero-extend it to the replayed id space, as live ingests do.
        let mut teleport = teleport;
        if let Some(t) = &mut teleport {
            let n = dg.graph().num_nodes();
            if t.len() < n {
                t.resize(n, 0.0);
            }
        }
        // Re-establish the published tombstone invariant: masked to 0.0
        // in every generation this core will ever serve (the snapshot's
        // own scores were persisted masked; the warm re-solve above
        // recomputes residual mass at tombstoned ids, so mask again).
        let mut published = published;
        for &v in &tombstones {
            if let Some(s) = published.get_mut(v as usize) {
                *s = 0.0;
            }
        }
        Ok((
            Self {
                dg,
                state: Some(state),
                core: Arc::new(PublishCore::new_at(published, outcome.generation)),
                model,
                teleport,
                perm,
                scratch,
                touched: TouchedSet::new(),
                candidates: Vec::new(),
                removed: tombstones,
            },
            outcome,
        ))
    }

    /// Check an edge batch against everything [`ServingEngine::ingest`]
    /// validates **before** any state changes: every endpoint (and removed
    /// node) lies inside the post-batch node set (`n + new_nodes`), the
    /// weight table is parallel to the inserts and holds finite
    /// non-negative values, non-unit weights only target a weighted base,
    /// the grown id space fits `u32`, and no node's Θ can grow past the
    /// served model's exponent range (see [`Engine::set_model`]). A batch
    /// that passes cannot fail ingest validation later; the durability
    /// layer relies on this to guarantee that a logged record always
    /// replays cleanly (validate → append → ingest).
    ///
    /// # Errors
    /// [`UpdateError::Graph`] citing the caller's (external) node id, or
    /// [`SolverError::InvalidModel`](crate::error::SolverError::InvalidModel)
    /// (wrapped in [`UpdateError::Solver`]) for a Θ out of range.
    pub fn validate_batch(&self, batch: &EdgeBatch) -> Result<(), UpdateError> {
        let nodes = self.core.nodes.load(SeqCst);
        let after = nodes + batch.new_nodes as usize;
        if after > u32::MAX as usize {
            return Err(UpdateError::Graph(GraphError::TooManyNodes(after)));
        }
        let n = after as u32;
        for &(u, v) in batch.inserts.iter().chain(batch.deletes.iter()) {
            let bad = if u >= n {
                Some(u)
            } else if v >= n {
                Some(v)
            } else {
                None
            };
            if let Some(node) = bad {
                return Err(UpdateError::Graph(GraphError::NodeOutOfRange {
                    node,
                    num_nodes: n,
                }));
            }
        }
        for &v in &batch.removed_nodes {
            if v >= n {
                return Err(UpdateError::Graph(GraphError::NodeOutOfRange {
                    node: v,
                    num_nodes: n,
                }));
            }
        }
        if let Some(ws) = &batch.weights {
            if ws.len() != batch.inserts.len() {
                return Err(UpdateError::Graph(GraphError::Snapshot(format!(
                    "batch carries {} weights for {} inserts",
                    ws.len(),
                    batch.inserts.len()
                ))));
            }
            for &w in ws {
                if !w.is_finite() || w < 0.0 {
                    return Err(UpdateError::Graph(GraphError::InvalidWeight(w)));
                }
                if !self.dg.graph().is_weighted() && w != 1.0 {
                    return Err(UpdateError::Graph(GraphError::WeightMismatch {
                        graph_weighted: false,
                    }));
                }
            }
        }
        match &self.perm {
            Some(p) => self.check_theta_growth(&batch.permuted(p)),
            None => self.check_theta_growth(batch),
        }
    }

    /// Reject a batch (in solver ids) that could push some node's Θ past
    /// the served model's exponent range: the node's current Θ plus the
    /// batch's new weights on its out-arcs bounds its post-batch Θ, so a
    /// batch that passes cannot fail the engine's own check later.
    fn check_theta_growth(&self, batch: &EdgeBatch) -> Result<(), UpdateError> {
        let Some(state) = &self.state else {
            return Ok(());
        };
        let undirected = self.dg.graph().direction() == Direction::Undirected;
        let mut growth: Vec<(u32, f64)> = Vec::with_capacity(batch.inserts.len());
        for (k, &(u, v)) in batch.inserts.iter().enumerate() {
            let w = batch.insert_weight(k);
            if !(w.is_finite() && w >= 0.0) {
                continue; // an invalid weight fails batch validation
            }
            growth.push((u, w));
            if undirected {
                growth.push((v, w));
            }
        }
        growth.sort_unstable_by_key(|&(v, _)| v);
        let theta = state.theta();
        for run in growth.chunk_by(|a, b| a.0 == b.0) {
            let v = run[0].0;
            let bound = theta.get(v as usize).copied().unwrap_or(0.0)
                + run.iter().map(|&(_, w)| w).sum::<f64>();
            let external = self.perm.as_ref().map_or(v, |p| p.to_external(v));
            check_exponent(&self.model, external as usize, bound.max(1.0).ln())
                .map_err(UpdateError::Solver)?;
        }
        Ok(())
    }

    /// The teleport distribution this engine serves under, in **solver
    /// order** (internal ids when a layout permutation is set — exactly
    /// the form [`RecoveredParts::teleport`] expects back). `None` =
    /// uniform.
    pub fn teleport(&self) -> Option<&[f64]> {
        self.teleport.as_deref()
    }

    /// A read handle on the published scores — clone it freely and hand
    /// clones to reader threads.
    pub fn reader(&self) -> ScoreReader {
        ScoreReader {
            core: Arc::clone(&self.core),
        }
    }

    /// The latest published generation.
    pub fn generation(&self) -> u64 {
        self.core.generation.load(SeqCst)
    }

    /// The published score of `node` — the same pinned read a
    /// [`ScoreReader`] performs, without constructing one (no `Arc`
    /// refcount traffic; the in-process query path
    /// [`ShardManager::batch_get`] runs on).
    pub fn get(&self, node: u32) -> Option<f64> {
        let pin = Pinned::new(&self.core);
        pin.scores().get(node as usize).copied()
    }

    /// The `k` best nodes of the published generation — the same pinned
    /// read as [`ScoreReader::top_k`] (identical cost and exactness
    /// contracts), without constructing a reader; the in-process path
    /// [`ShardManager::top_k_global`] gathers per-shard partials on.
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        let pin = Pinned::new(&self.core);
        let head = &pin.index().head;
        if k <= head.len() {
            return head[..k].iter().map(|e| (e.node, e.score)).collect();
        }
        scan_top(pin.scores(), k)
            .into_iter()
            .map(|e| (e.node, e.score))
            .collect()
    }

    /// Number of nodes of the latest published generation (grows with
    /// node-adding batches; tombstoned removals never shrink it).
    pub fn num_nodes(&self) -> usize {
        self.core.nodes.load(SeqCst)
    }

    /// Tombstoned node ids in external order, ascending — the set whose
    /// published scores are masked to `0.0`. The durability layer
    /// persists it at snapshot time and hands it back via
    /// [`RecoveredParts::removed`].
    pub fn removed_nodes(&self) -> Vec<u32> {
        self.removed.iter().copied().collect()
    }

    /// Number of live (non-tombstoned) nodes currently served.
    pub fn live_nodes(&self) -> usize {
        self.num_nodes() - self.removed.len()
    }

    /// The evolving graph behind this engine (inspect arcs, sample churn).
    /// Under a non-baseline [`Layout`] this is the solver's **permuted**
    /// copy — translate ids via [`ServingEngine::permutation`].
    pub fn delta_graph(&self) -> &DeltaGraph {
        &self.dg
    }

    /// The node permutation of a non-baseline [`Layout`] (`None` for
    /// engines built without one — reader-visible ids then coincide with
    /// solver ids).
    pub fn permutation(&self) -> Option<&Arc<NodePermutation>> {
        self.perm.as_ref()
    }

    /// The served transition model.
    pub fn model(&self) -> TransitionModel {
        self.model
    }

    /// The shared transpose structure the engine currently serves from
    /// (cheap `Arc` clone — hand it to further engines over this graph).
    ///
    /// # Errors
    /// Reports a poisoned engine (an earlier refresh failed mid-handoff).
    pub fn shared_structure(&self) -> Result<Arc<CscStructure>, UpdateError> {
        self.state
            .as_ref()
            .map(EngineState::shared_structure)
            .ok_or_else(poisoned)
    }

    /// Apply one edge batch and publish the refreshed generation: delta
    /// application, engine-state patch, auto-selected incremental
    /// re-solve **into the back buffer**, one-store publication. Readers
    /// keep reading the front generation throughout.
    ///
    /// **Freshness over perfection:** the refreshed iterate is published
    /// even when the solver hit its iteration cap before reaching
    /// tolerance ([`RefreshOutcome::converged`] reports it). Once the
    /// batch is applied the *previous* generation describes a graph that
    /// no longer exists, so the warm-started partial refresh is the best
    /// available answer; a caller that wants to polish can follow up
    /// with an empty-batch ingest (which re-solves from the published
    /// iterate) or raise `max_iterations`.
    ///
    /// # Errors
    /// Batch validation failures ([`UpdateError::Graph`]) leave the engine
    /// (and the published scores) untouched.
    pub fn ingest(&mut self, batch: &EdgeBatch) -> Result<RefreshOutcome, UpdateError> {
        self.ingest_with(batch, None).map(|(outcome, _)| outcome)
    }

    /// [`ServingEngine::ingest`] with an optional transpose that has
    /// already been structurally patched for this exact batch — the
    /// shared-structure shard path ([`ShardManager::ingest_all`] patches
    /// once, every other shard receives the `Arc` here). Returns the
    /// refresh outcome plus the structure now served (to chain to the
    /// next shard).
    ///
    /// # Errors
    /// As [`ServingEngine::ingest`], plus a structure-mismatch error when
    /// `prepatched` does not describe the post-batch graph. Errors raised
    /// *before* the engine state is consumed (batch validation, the
    /// poisoning check) leave the engine fully functional; errors after
    /// it — structure mismatch, solver failures — **poison the engine**:
    /// every later ingest reports the poisoning, while readers keep
    /// serving the last published generation indefinitely (the publish
    /// buffers are independent of the consumed solver state).
    pub fn ingest_with(
        &mut self,
        batch: &EdgeBatch,
        prepatched: Option<Arc<CscStructure>>,
    ) -> Result<(RefreshOutcome, Arc<CscStructure>), UpdateError> {
        if self.state.is_none() {
            return Err(poisoned());
        }
        // A non-baseline layout translates the caller's external-id batch
        // into the solver's internal order (out-of-range endpoints pass
        // through so validation errors cite the caller's ids).
        let translated;
        let batch = match &self.perm {
            Some(p) => {
                translated = batch.permuted(p);
                &translated
            }
            None => batch,
        };
        // Validated atomically before any state changes: a bad batch
        // cannot poison the engine.
        self.check_theta_growth(batch)?;
        let applied = self.dg.apply_batch(batch)?;
        // The stored teleport tracks the id space: fresh ids get zero
        // mass, preserving the caller's personalization over the old ids
        // (the same rule the solver applies to the in-flight batch).
        // Without this, the first ingest *after* a growth batch would
        // fail validation mid-refresh and poison the engine.
        if let Some(t) = &mut self.teleport {
            t.extend(std::iter::repeat_n(
                0.0,
                applied.delta.added_nodes() as usize,
            ));
        }
        // Tombstone bookkeeping in external ids: removed nodes join the
        // set; any node an effective insert touches revives. (The two can
        // never conflict inside one batch — a same-batch removal cancels
        // the batch's own inserts at that node.)
        for &v in &applied.delta.removed_nodes {
            let ext = self.perm.as_ref().map_or(v, |p| p.to_external(v));
            self.removed.insert(ext);
        }
        if !self.removed.is_empty() {
            for &(u, v) in &applied.delta.inserted {
                for node in [u, v] {
                    let ext = self.perm.as_ref().map_or(node, |p| p.to_external(node));
                    self.removed.remove(&ext);
                }
            }
        }
        let graph = self.dg.graph();
        // From here on a failure loses the consumed state; `state` stays
        // `None` and later calls report the poisoning. Every error below
        // is an internal-consistency breach (the delta came from our own
        // `apply_batch`), not a user input.
        let state = self.state.take().expect("checked above");
        let state = match prepatched {
            Some(csc) => state.patched_with(graph, &applied.delta, csc)?,
            None => state.patched(graph, &applied.delta)?,
        };
        let mut engine = Engine::from_state(graph, state).map_err(UpdateError::Solver)?;

        let back = self.core.begin_write();
        // SAFETY: `&mut self` makes this the single writer; `begin_write`
        // drained the back slot, and the front slot is immutable while it
        // stays front — reading it as the warm start while writing the
        // back slot touches disjoint buffers.
        let (previous, out) = unsafe { (self.core.front_scores(), self.core.back_vec(back)) };
        let inc = match &self.perm {
            // Baseline layout: unchanged zero-copy path — the solver's
            // iterate is swapped straight into the publish buffer.
            None => engine.resolve_incremental_tracked(
                previous,
                self.teleport.as_deref(),
                &applied.delta,
                out,
                &mut self.touched,
            )?,
            // Permuted layout: warm-start and solve in internal order,
            // then scatter back to external order for publication. Two
            // O(n) passes per refresh; the scratch buffers are reused.
            Some(p) => {
                p.permute_values(previous, &mut self.scratch.internal_prev);
                let inc = engine.resolve_incremental_tracked(
                    &self.scratch.internal_prev,
                    self.teleport.as_deref(),
                    &applied.delta,
                    &mut self.scratch.internal_next,
                    &mut self.touched,
                )?;
                p.unpermute_values(&self.scratch.internal_next, out);
                // The frontier is reported in solver (internal) ids; the
                // index lives over the published external order.
                for v in &mut self.touched.nodes {
                    *v = p.to_external(*v);
                }
                inc
            }
        };
        // Tombstone masking: removed nodes publish score 0.0 (the solver
        // still carries their residual teleport mass internally — the
        // next refresh's warm start absorbs the difference). They join
        // the repair frontier so the maintained index evicts them.
        if !self.removed.is_empty() {
            for &v in &self.removed {
                let vu = v as usize;
                if vu < out.len() {
                    out[vu] = 0.0;
                    if !self.touched.all {
                        self.touched.nodes.push(v);
                    }
                }
            }
        }
        // Bring the back slot's index up to date with the scores just
        // written, inside the same exclusivity window, so index and
        // scores flip together at publish.
        self.core.ev("serving.index.write", back);
        // SAFETY: still the single writer between `begin_write` and
        // `publish`; the front slot (and its index) stays immutable while
        // it is front, and `out`/`back_index` address disjoint cells of
        // the claimed back slot.
        let front_index = unsafe { self.core.front_index() };
        let back_index = unsafe { self.core.back_index(back) };
        maintain_index(
            front_index,
            back_index,
            out,
            &mut self.touched,
            &mut self.candidates,
        );
        // The published node count follows the buffer just written; the
        // flip makes both visible together for new pins.
        self.core.nodes.store(out.len(), SeqCst);
        let generation = self.core.publish(back);
        let state = engine.into_state();
        let structure = state.shared_structure();
        self.state = Some(state);
        Ok((
            RefreshOutcome {
                generation,
                mode: inc.mode,
                iterations: inc.result.iterations,
                frontier: inc.frontier,
                pushes: inc.pushes,
                converged: inc.result.converged,
                inserted_arcs: applied.delta.inserted.len(),
                deleted_arcs: applied.delta.deleted.len(),
                reweighted_arcs: applied.delta.reweighted.len(),
                added_nodes: applied.delta.added_nodes(),
                removed_nodes: applied.delta.removed_nodes.len(),
            },
            structure,
        ))
    }

    /// Change the maintained top-k capacity `K_max` (the largest `k`
    /// [`ScoreReader::top_k`] serves in `O(k)`) and return the generation
    /// that publishes it.
    ///
    /// Runs one full publication cycle — the current front scores are
    /// copied to the back slot, its index is rebuilt at the new capacity,
    /// and both are published together — so the change obeys the exact
    /// same protocol as a refresh: readers never observe a half-resized
    /// index, and the generation counter advances by one (with unchanged
    /// scores).
    pub fn set_top_k_capacity(&mut self, k_max: usize) -> u64 {
        let back = self.core.begin_write();
        // SAFETY: `&mut self` makes this the single writer; `begin_write`
        // drained the back slot, the front slot is immutable while front,
        // and scores/index are disjoint cells of the back slot.
        let (previous, out) = unsafe { (self.core.front_scores(), self.core.back_vec(back)) };
        out.clear();
        out.extend_from_slice(previous);
        self.core.ev("serving.index.write", back);
        let back_index = unsafe { self.core.back_index(back) };
        back_index.cap = k_max;
        back_index.rebuild(out);
        self.core.publish(back)
    }

    /// The maintained top-k capacity `K_max` of the currently published
    /// generation.
    pub fn top_k_capacity(&self) -> usize {
        // SAFETY: `&self` on the single-writer type — no concurrent flip.
        unsafe { self.core.front_index() }.cap
    }
}

fn poisoned() -> UpdateError {
    UpdateError::Graph(GraphError::Snapshot(
        "serving engine poisoned: an earlier refresh failed mid-handoff".into(),
    ))
}

// ---------------------------------------------------------------------------
// ShardManager
// ---------------------------------------------------------------------------

/// Hosts N serving engines — independent graphs, or N personalization
/// views over one shared transpose — and routes keyed traffic to them.
///
/// Routing is `key → key % num_shards`; every shard keeps its own engine
/// state and double-buffered publication path, so refreshes on one shard
/// never disturb readers of another.
///
/// ```
/// use d2pr_core::pagerank::PageRankConfig;
/// use d2pr_core::serving::ShardManager;
/// use d2pr_core::transition::TransitionModel;
/// use d2pr_graph::delta::EdgeBatch;
/// use d2pr_graph::generators::barabasi_albert;
///
/// let g = barabasi_albert(200, 3, 5).unwrap();
/// // Two personalization views over ONE shared transpose build.
/// let mut t0 = vec![0.0; 200];
/// t0[7] = 1.0;
/// let mut t1 = vec![0.0; 200];
/// t1[9] = 1.0;
/// let mut shards = ShardManager::personalized(
///     &g,
///     &[t0, t1],
///     TransitionModel::DegreeDecoupled { p: 0.5 },
///     PageRankConfig::default(),
/// )
/// .unwrap();
/// // Keyed batch queries fan out to the owning shards.
/// let scores = shards.batch_get(&[(0, 7), (1, 9)]);
/// assert!(scores.iter().all(|s| s.is_some()));
/// // One churn batch refreshes every view; the transpose patch is paid once.
/// let mut batch = EdgeBatch::new();
/// batch.insert(0, 199);
/// let outcomes = shards.ingest_all(&batch).unwrap();
/// assert_eq!(outcomes.len(), 2);
/// ```
pub struct ShardManager {
    shards: Vec<ServingEngine>,
}

impl std::fmt::Debug for ShardManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardManager")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardManager {
    /// One shard per graph, uniform teleportation — the multi-tenant
    /// layout (each shard owns an independent evolving graph).
    ///
    /// # Errors
    /// Fails on the first shard whose construction fails; `graphs` must
    /// be non-empty.
    pub fn from_graphs(
        graphs: Vec<CsrGraph>,
        model: TransitionModel,
        config: PageRankConfig,
    ) -> Result<Self, UpdateError> {
        if graphs.is_empty() {
            return Err(UpdateError::Graph(GraphError::Snapshot(
                "ShardManager needs at least one shard".into(),
            )));
        }
        let shards = graphs
            .into_iter()
            .map(|g| ServingEngine::with_parts(g, None, None, model, config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { shards })
    }

    /// One shard per personalization view over a single graph. What is
    /// shared is the solver-side transpose: one `O(E)` `CscStructure`
    /// build (plus, later, one structural patch per delta batch) serves
    /// every view's engine by `Arc`. Each view still owns its *own* copy
    /// of the forward graph — a `CsrGraph` clone inside its `DeltaGraph`
    /// — so per-view memory is `O(E)` and a group ingest runs N
    /// independent batch applications and snapshot merges; the saving is
    /// on the transpose build/patch and the engine's `O(V)` solver
    /// tables, not the graph storage itself. (A copy-on-write forward
    /// graph is a possible follow-up.) Keep the views in lockstep with
    /// [`ShardManager::ingest_all`], which preserves the transpose
    /// sharing across delta generations.
    ///
    /// # Errors
    /// As [`ServingEngine::with_parts`]; `teleports` must be non-empty.
    pub fn personalized(
        graph: &CsrGraph,
        teleports: &[Vec<f64>],
        model: TransitionModel,
        config: PageRankConfig,
    ) -> Result<Self, UpdateError> {
        if teleports.is_empty() {
            return Err(UpdateError::Graph(GraphError::Snapshot(
                "ShardManager needs at least one personalization view".into(),
            )));
        }
        let csc = Arc::new(CscStructure::build(graph));
        let shards = teleports
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
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { shards })
    }

    /// Number of shards hosted.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// The serving engine owning `key`.
    pub fn shard(&self, key: u64) -> &ServingEngine {
        &self.shards[self.shard_of(key)]
    }

    /// Mutable access to the serving engine owning `key` (for per-shard
    /// ingestion in the multi-graph layout).
    pub fn shard_mut(&mut self, key: u64) -> &mut ServingEngine {
        let s = self.shard_of(key);
        &mut self.shards[s]
    }

    /// A read handle on the shard owning `key`.
    pub fn reader(&self, key: u64) -> ScoreReader {
        self.shard(key).reader()
    }

    /// Read handles on every shard, in shard order.
    pub fn readers(&self) -> Vec<ScoreReader> {
        self.shards.iter().map(ServingEngine::reader).collect()
    }

    /// The published score of `node` on the shard owning `key`.
    pub fn get(&self, key: u64, node: u32) -> Option<f64> {
        self.shard(key).get(node)
    }

    /// Batch query: each `(key, node)` is answered by the owning shard's
    /// published generation (`None` for out-of-range nodes).
    ///
    /// Queries are grouped by shard and each shard is pinned **once per
    /// batch** instead of once per key — the pin/unpin pair (two `SeqCst`
    /// RMWs plus a validation load) dominates a point read, so grouping
    /// roughly halves per-query cost on realistic batch sizes. Grouping
    /// also strengthens the answer: all of a shard's entries in one batch
    /// come from a *single* published generation (per-key pinning could
    /// straddle a refresh and mix two generations across keys of the same
    /// shard).
    pub fn batch_get(&self, queries: &[(u64, u32)]) -> Vec<Option<f64>> {
        let mut results = vec![None; queries.len()];
        // Counting-sort the query indices by owning shard (O(Q + S), one
        // `shard_of` per query) so each shard's run is answered under one
        // pin; answers land back at their original positions.
        let nshards = self.shards.len();
        let mut starts = vec![0usize; nshards + 1];
        for &(key, _) in queries {
            starts[self.shard_of(key) + 1] += 1;
        }
        for s in 0..nshards {
            starts[s + 1] += starts[s];
        }
        let mut order = vec![0u32; queries.len()];
        let mut cursor = starts.clone();
        for (qi, &(key, _)) in queries.iter().enumerate() {
            let s = self.shard_of(key);
            order[cursor[s]] = qi as u32;
            cursor[s] += 1;
        }
        for (s, shard) in self.shards.iter().enumerate() {
            if starts[s] == starts[s + 1] {
                continue;
            }
            let pin = Pinned::new(&shard.core);
            let scores = pin.scores();
            for &qi in &order[starts[s]..starts[s + 1]] {
                let node = queries[qi as usize].1;
                results[qi as usize] = scores.get(node as usize).copied();
            }
        }
        results
    }

    /// The `k` globally highest-scoring `(shard, node, score)` triples
    /// across **all** shards, descending (score ties broken by ascending
    /// shard, then ascending node) — the scatter/gather shape a network
    /// front-end serves global ranked reads with.
    ///
    /// Scatter: each shard contributes its own exact top-`k` (an `O(k)`
    /// copy from its maintained index for `k ≤ K_max`), pinned once per
    /// shard — within a shard all entries come from a single published
    /// generation; across shards generations are independent, as always.
    /// Gather: a `k`-way threshold merge over the per-shard partials — a
    /// heap of per-shard cursors popped `k` times, so a shard stops
    /// contributing as soon as its best remaining entry falls below the
    /// current global cut.
    pub fn top_k_global(&self, k: usize) -> Vec<(usize, u32, f64)> {
        use std::collections::BinaryHeap;
        if k == 0 {
            return Vec::new();
        }
        let partials: Vec<Vec<(u32, f64)>> = self.shards.iter().map(|s| s.top_k(k)).collect();
        let entry = |shard: usize, (node, score): (u32, f64)| GlobalTopEntry { score, shard, node };
        // Max-heap of per-shard cursors on global goodness (score desc,
        // shard asc, node asc).
        let mut heap: BinaryHeap<GlobalTopEntry> = partials
            .iter()
            .enumerate()
            .filter_map(|(s, p)| p.first().map(|&e| entry(s, e)))
            .collect();
        let mut cursor = vec![0usize; partials.len()];
        let mut out = Vec::with_capacity(k.min(partials.iter().map(Vec::len).sum()));
        while out.len() < k {
            let Some(e) = heap.pop() else {
                break; // fewer than k nodes exist across all shards
            };
            out.push((e.shard, e.node, e.score));
            cursor[e.shard] += 1;
            if let Some(&next) = partials[e.shard].get(cursor[e.shard]) {
                heap.push(entry(e.shard, next));
            }
        }
        out
    }

    /// Route one edge batch to the shard owning `key` and refresh it.
    ///
    /// # Errors
    /// As [`ServingEngine::ingest`].
    pub fn ingest(&mut self, key: u64, batch: &EdgeBatch) -> Result<RefreshOutcome, UpdateError> {
        self.shard_mut(key).ingest(batch)
    }

    /// Apply one edge batch to **every** shard (the personalization-view
    /// layout, where all shards serve the same evolving graph). Shards
    /// are grouped by *mutual* `Arc` identity of their current transpose:
    /// the first shard of each group pays the structural patch, the rest
    /// of its group receive the patched structure by `Arc` — one patch
    /// per share group per batch, whichever shards have diverged (e.g.
    /// via keyed [`ShardManager::ingest`], which splits a shard into its
    /// own group without breaking the sharing among the others).
    ///
    /// # Errors
    ///
    /// The contract is **partial, not atomic**: shards refresh in shard
    /// order and the call fails on the first shard `k` whose refresh
    /// fails. Shards `0..k` keep their *new* published generations,
    /// shards `k..` keep their old ones — a legal state, since
    /// generations across shards are independent and every shard keeps
    /// serving its own latest published generation. The manager stays
    /// serviceable: a later valid batch advances every shard's own
    /// counter again. A batch that fails *validation* on shard `k` (the
    /// common case — e.g. an out-of-range endpoint) leaves shard `k`
    /// itself untouched too; only a failure after the state handoff
    /// poisons that one shard's writes (reads continue; see
    /// [`ServingEngine::ingest_with`]). Pinned in
    /// `tests/shard_ingest_errors.rs`.
    pub fn ingest_all(&mut self, batch: &EdgeBatch) -> Result<Vec<RefreshOutcome>, UpdateError> {
        let pre: Vec<Option<Arc<CscStructure>>> = self
            .shards
            .iter()
            .map(|s| s.shared_structure().ok())
            .collect();
        // One entry per share group encountered: (pre-batch structure,
        // its freshly patched successor).
        let mut groups: Vec<(Arc<CscStructure>, Arc<CscStructure>)> = Vec::new();
        let mut outcomes = Vec::with_capacity(self.shards.len());
        for (shard, pre) in self.shards.iter_mut().zip(&pre) {
            let prepatched = pre.as_ref().and_then(|p| {
                groups
                    .iter()
                    .find(|(group_pre, _)| Arc::ptr_eq(group_pre, p))
                    .map(|(_, post)| Arc::clone(post))
            });
            let lead = prepatched.is_none();
            let (outcome, structure) = shard.ingest_with(batch, prepatched)?;
            if lead {
                if let Some(p) = pre {
                    groups.push((Arc::clone(p), structure));
                }
            }
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::pagerank;
    use d2pr_graph::builder::GraphBuilder;
    use d2pr_graph::csr::Direction;
    use d2pr_graph::generators::barabasi_albert;

    const MODEL: TransitionModel = TransitionModel::DegreeDecoupled { p: 0.5 };

    fn tight() -> PageRankConfig {
        PageRankConfig {
            tolerance: 1e-11,
            max_iterations: 2_000,
            ..Default::default()
        }
    }

    fn assert_close(a: &[f64], b: &[f64], eps: f64) {
        assert_eq!(a.len(), b.len());
        let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 < eps, "L1 divergence {l1:.3e} exceeds {eps:.0e}");
    }

    #[test]
    fn initial_publication_matches_cold_solve() {
        let g = barabasi_albert(400, 3, 11).unwrap();
        let cold = pagerank(&g, MODEL, &tight());
        let serving = ServingEngine::new(g, MODEL, tight(), 1).unwrap();
        let reader = serving.reader();
        assert_eq!(reader.generation(), 0);
        assert_eq!(reader.len(), 400);
        let mut snap = Vec::new();
        assert_eq!(reader.snapshot_into(&mut snap), 0);
        assert_close(&cold.scores, &snap, 1e-8);
        for v in [0u32, 7, 399] {
            let (s, generation) = reader.get_with_generation(v).unwrap();
            assert_eq!(generation, 0);
            assert!((s - cold.scores[v as usize]).abs() < 1e-9);
        }
        assert_eq!(reader.get(400), None);
    }

    #[test]
    fn ingest_publishes_generations_matching_cold_solves() {
        let g = barabasi_albert(500, 3, 13).unwrap();
        let mut serving = ServingEngine::new(g.clone(), MODEL, tight(), 1).unwrap();
        let reader = serving.reader();
        let mut dg = DeltaGraph::new(g).unwrap();
        let mut snap = Vec::new();
        for round in 0..4u32 {
            let mut batch = EdgeBatch::new();
            let before = dg.graph();
            batch.delete(round, before.neighbors(round)[0]);
            let mut target = 499 - round;
            while dg.graph().has_arc(round, target) || target == round {
                target -= 1;
            }
            batch.insert(round, target);
            let refresh = serving.ingest(&batch).unwrap();
            assert_eq!(refresh.generation, u64::from(round) + 1);
            assert!(refresh.converged);
            dg.apply_batch(&batch).unwrap();
            let snapshot = dg.graph();
            let cold = pagerank(snapshot, MODEL, &tight());
            assert_eq!(reader.snapshot_into(&mut snap), refresh.generation);
            assert_close(&cold.scores, &snap, 1e-8);
        }
    }

    #[test]
    fn top_k_is_sorted_and_consistent_with_get() {
        let g = barabasi_albert(300, 4, 3).unwrap();
        let serving = ServingEngine::new(g, MODEL, tight(), 1).unwrap();
        let reader = serving.reader();
        let top = reader.top_k(10);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "descending with id tie-break"
            );
        }
        for &(v, s) in &top {
            assert_eq!(reader.get(v), Some(s));
        }
        // k larger than n clamps.
        assert_eq!(reader.top_k(10_000).len(), 300);
        assert!(reader.top_k(0).is_empty());
        // The global maximum is the first entry.
        let mut snap = Vec::new();
        reader.snapshot_into(&mut snap);
        let max = snap
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(top[0].0, max.0 as u32);
    }

    #[test]
    fn recovered_resumes_at_last_durable_generation() {
        let g = barabasi_albert(300, 3, 19).unwrap();
        let mut serving = ServingEngine::new(g.clone(), MODEL, tight(), 1).unwrap();
        // Durable state as of generation 0.
        let snap_graph = serving.delta_graph().graph().clone();
        let mut snap_scores = Vec::new();
        let snap_gen = serving.reader().snapshot_into(&mut snap_scores);
        // Three non-edges of the evolving graph become the log tail.
        let mut tail = Vec::new();
        for round in 0..3u32 {
            let mut target = 299 - round;
            while serving.delta_graph().graph().has_arc(round, target) || target == round {
                target -= 1;
            }
            let mut batch = EdgeBatch::new();
            batch.insert(round, target);
            serving.ingest(&batch).unwrap();
            tail.push(batch);
        }
        let mut live = Vec::new();
        assert_eq!(serving.reader().snapshot_into(&mut live), 3);

        let (rec, outcome) = ServingEngine::recovered(
            RecoveredParts {
                graph: snap_graph.clone(),
                perm: None,
                scores: snap_scores.clone(),
                generation: snap_gen,
                teleport: None,
                tail: tail.clone(),
                removed: Vec::new(),
            },
            MODEL,
            tight(),
            1,
        )
        .unwrap();
        assert_eq!(outcome.generation, 3);
        assert_eq!(outcome.replayed_batches, 3);
        assert!(outcome.converged);
        assert_eq!(rec.generation(), 3);
        let mut recovered_scores = Vec::new();
        assert_eq!(rec.reader().snapshot_into(&mut recovered_scores), 3);
        assert_close(&live, &recovered_scores, 1e-8);

        // The revived engine keeps serving: the next ingest publishes 4.
        let mut rec = rec;
        let mut batch = EdgeBatch::new();
        batch.delete(tail[0].inserts[0].0, tail[0].inserts[0].1);
        assert_eq!(rec.ingest(&batch).unwrap().generation, 4);

        // An empty tail republishes the snapshot untouched.
        let (rec0, out0) = ServingEngine::recovered(
            RecoveredParts {
                graph: snap_graph,
                perm: None,
                scores: snap_scores.clone(),
                generation: snap_gen,
                teleport: None,
                tail: Vec::new(),
                removed: Vec::new(),
            },
            MODEL,
            tight(),
            1,
        )
        .unwrap();
        assert_eq!(out0.generation, 0);
        assert_eq!(out0.mode, None);
        let mut s0 = Vec::new();
        rec0.reader().snapshot_into(&mut s0);
        assert_eq!(s0, snap_scores);
    }

    #[test]
    fn recovered_translates_layout_permutations() {
        use d2pr_graph::permute::Layout;
        let g = barabasi_albert(250, 3, 29).unwrap();
        let mut serving =
            ServingEngine::with_layout(g, Layout::DegreeDescending, None, MODEL, tight()).unwrap();
        let snap_graph = serving.delta_graph().graph().clone(); // solver order
        let perm = serving.permutation().cloned();
        assert!(perm.is_some());
        let mut snap_scores = Vec::new();
        let snap_gen = serving.reader().snapshot_into(&mut snap_scores);
        // One external-id batch after the snapshot.
        let mut batch = EdgeBatch::new();
        let p = perm.as_ref().unwrap();
        let mut target = 249u32;
        while serving
            .delta_graph()
            .graph()
            .has_arc(p.to_internal(0), p.to_internal(target))
            || target == 0
        {
            target -= 1;
        }
        batch.insert(0, target);
        serving.ingest(&batch).unwrap();
        let mut live = Vec::new();
        serving.reader().snapshot_into(&mut live);

        let (rec, outcome) = ServingEngine::recovered(
            RecoveredParts {
                graph: snap_graph,
                perm,
                scores: snap_scores,
                generation: snap_gen,
                teleport: serving.teleport().map(<[f64]>::to_vec),
                tail: vec![batch],
                removed: Vec::new(),
            },
            MODEL,
            tight(),
            1,
        )
        .unwrap();
        assert_eq!(outcome.generation, 1);
        let mut recovered_scores = Vec::new();
        rec.reader().snapshot_into(&mut recovered_scores);
        assert_close(&live, &recovered_scores, 1e-8);
    }

    #[test]
    fn validate_batch_screens_everything_ingest_validates() {
        let g = barabasi_albert(100, 3, 5).unwrap();
        let mut serving = ServingEngine::new(g, MODEL, tight(), 1).unwrap();
        let mut good = EdgeBatch::new();
        good.insert(0, 99);
        good.delete(1, 2);
        assert!(serving.validate_batch(&good).is_ok());
        let mut bad = EdgeBatch::new();
        bad.insert(0, 100);
        match serving.validate_batch(&bad).unwrap_err() {
            UpdateError::Graph(GraphError::NodeOutOfRange { node, num_nodes }) => {
                assert_eq!((node, num_nodes), (100, 100));
            }
            other => panic!("expected NodeOutOfRange, got {other:?}"),
        }
        // A validated batch never fails ingest validation.
        assert!(serving.ingest(&good).is_ok());
        assert!(serving.ingest(&bad).is_err());
        // The failed ingest left the engine unpoisoned.
        assert!(serving.ingest(&EdgeBatch::new()).is_ok());
    }

    #[test]
    fn weighted_graphs_serve_and_ingest_weighted_batches() {
        let mut b = GraphBuilder::new(Direction::Directed, 3);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(1, 2, 1.0);
        b.add_weighted_edge(2, 0, 4.0);
        let g = b.build().unwrap();
        let mut serving = ServingEngine::new(g.clone(), MODEL, tight(), 1).unwrap();
        let mut batch = EdgeBatch::new();
        batch.set_weight(0, 1, 5.0); // re-weight, not a structural flip
        batch.insert_weighted(0, 2, 0.5);
        let out = serving.ingest(&batch).unwrap();
        assert_eq!(out.reweighted_arcs, 1);
        assert_eq!(out.inserted_arcs, 1);
        // Served scores match a cold solve of the evolved weighted graph.
        let evolved = serving.delta_graph().graph().clone();
        let mut engine = Engine::new(&evolved).with_config(tight()).unwrap();
        engine.set_model(MODEL).unwrap();
        let direct = engine.solve().unwrap();
        let mut snap = Vec::new();
        serving.reader().snapshot_into(&mut snap);
        assert_close(&direct.scores, &snap, 1e-7);

        // A weight that would put Θ^(−p) past `exp`'s range is refused by
        // ingest itself, before the batch applies: 4·ln 1e70 ≈ 645 ≥ 600.
        let steep = TransitionModel::DegreeDecoupled { p: 4.0 };
        let mut serving = ServingEngine::new(g, steep, tight(), 1).unwrap();
        let mut huge = EdgeBatch::new();
        huge.insert_weighted(2, 1, 1e70);
        let generation = serving.generation();
        assert!(matches!(
            serving.ingest(&huge),
            Err(UpdateError::Solver(
                crate::error::SolverError::InvalidModel(_)
            ))
        ));
        assert_eq!(serving.generation(), generation);
        assert!(serving.ingest(&batch).is_ok(), "the engine is not poisoned");

        // A non-unit weight aimed at an unweighted base stays a typed
        // rejection — the inverse direction never errors.
        let gu = barabasi_albert(50, 3, 11).unwrap();
        let unweighted = ServingEngine::new(gu, MODEL, tight(), 1).unwrap();
        let mut wb = EdgeBatch::new();
        wb.insert_weighted(0, 49, 2.0);
        let err = unweighted.validate_batch(&wb).unwrap_err();
        assert!(matches!(
            err,
            UpdateError::Graph(GraphError::WeightMismatch {
                graph_weighted: false
            })
        ));
    }

    #[test]
    fn personalized_teleports_survive_node_churn() {
        let g = barabasi_albert(80, 3, 21).unwrap();
        let mut t = vec![0.0; 80];
        t[11] = 1.0;
        let mut serving =
            ServingEngine::with_parts(g.clone(), None, Some(&t), MODEL, tight()).unwrap();
        let mut b1 = EdgeBatch::new();
        b1.add_nodes(1);
        b1.insert(80, 3);
        serving.ingest(&b1).unwrap();
        // The regression: a non-growth batch right after a growth batch
        // used to fail teleport validation mid-refresh (the stored vector
        // was never extended past the original id space) — poisoning the
        // engine for good.
        let mut b2 = EdgeBatch::new();
        b2.insert(80, 17);
        serving.ingest(&b2).unwrap();
        let mut b3 = EdgeBatch::new();
        b3.add_nodes(1);
        b3.insert(81, 80);
        b3.remove_node(2);
        serving.ingest(&b3).unwrap();

        // Cold reference: replayed graph, zero-extended teleport, masked
        // tombstone.
        let mut dg = DeltaGraph::new(g).unwrap();
        for b in [&b1, &b2, &b3] {
            dg.apply_batch(b).unwrap();
        }
        let snap = dg.graph();
        let mut grown_t = t.clone();
        grown_t.resize(82, 0.0);
        let mut engine = Engine::new(snap).with_config(tight()).unwrap();
        engine.set_model(MODEL).unwrap();
        let mut cold = engine.solve_with_teleport(Some(&grown_t)).unwrap().scores;
        cold[2] = 0.0;
        let reader = serving.reader();
        let mut observed = Vec::new();
        assert_eq!(reader.snapshot_into(&mut observed), 3);
        assert_close(&cold, &observed, 1e-7);
    }

    #[test]
    fn personalized_shards_share_one_structure_across_generations() {
        let g = barabasi_albert(250, 3, 17).unwrap();
        let mut teleports = Vec::new();
        for seed in [3u32, 9, 200] {
            let mut t = vec![0.0; 250];
            t[seed as usize] = 1.0;
            teleports.push(t);
        }
        let mut shards = ShardManager::personalized(&g, &teleports, MODEL, tight()).unwrap();
        assert_eq!(shards.num_shards(), 3);
        // Construction: one Arc for all shards.
        let s0 = shards.shard(0).shared_structure().unwrap();
        for key in 1..3u64 {
            assert!(Arc::ptr_eq(
                &s0,
                &shards.shard(key).shared_structure().unwrap()
            ));
        }
        // Per-shard scores match direct personalized solves.
        let mut engine = Engine::new(&g).with_config(tight()).unwrap();
        engine.set_model(MODEL).unwrap();
        let mut snap = Vec::new();
        for (key, t) in teleports.iter().enumerate() {
            let direct = engine.solve_with_teleport(Some(t)).unwrap();
            shards.reader(key as u64).snapshot_into(&mut snap);
            assert_close(&direct.scores, &snap, 1e-8);
        }
        // A group ingest patches the structure once and re-shares it.
        let mut batch = EdgeBatch::new();
        batch.insert(0, 249);
        let outcomes = shards.ingest_all(&batch).unwrap();
        assert_eq!(outcomes.len(), 3);
        let s1 = shards.shard(0).shared_structure().unwrap();
        assert!(!Arc::ptr_eq(&s0, &s1), "a real delta rekeys the share");
        for key in 1..3u64 {
            assert!(
                Arc::ptr_eq(&s1, &shards.shard(key).shared_structure().unwrap()),
                "every shard serves the one patched transpose"
            );
        }
        // And the refreshed views still match direct solves on the new graph.
        let mut dg = DeltaGraph::new(g).unwrap();
        dg.apply_batch(&batch).unwrap();
        let g2 = dg.graph();
        let mut engine2 = Engine::new(g2).with_config(tight()).unwrap();
        engine2.set_model(MODEL).unwrap();
        for (key, t) in teleports.iter().enumerate() {
            let direct = engine2.solve_with_teleport(Some(t)).unwrap();
            shards.reader(key as u64).snapshot_into(&mut snap);
            assert_close(&direct.scores, &snap, 1e-7);
            assert_eq!(shards.shard(key as u64).generation(), 1);
        }
    }

    #[test]
    fn ingest_all_groups_by_mutual_sharing_after_divergence() {
        let g = barabasi_albert(200, 3, 23).unwrap();
        let mut teleports = Vec::new();
        for seed in [1u32, 50, 150] {
            let mut t = vec![0.0; 200];
            t[seed as usize] = 1.0;
            teleports.push(t);
        }
        let mut shards = ShardManager::personalized(&g, &teleports, MODEL, tight()).unwrap();
        // Two non-edges of the base graph (the second stays absent from
        // both variants after the first is inserted on shard 0 only).
        let mut non_edges = Vec::new();
        'outer: for u in 0..200u32 {
            for v in (u + 1)..200 {
                if !g.has_arc(u, v) {
                    non_edges.push((u, v));
                    if non_edges.len() == 2 {
                        break 'outer;
                    }
                }
            }
        }
        // Diverge shard 0 with a keyed ingest: its graph (and structure)
        // leave the group, shards 1 and 2 keep sharing.
        let mut batch_a = EdgeBatch::new();
        batch_a.insert(non_edges[0].0, non_edges[0].1);
        shards.ingest(0, &batch_a).unwrap();
        let s1 = shards.shard(1).shared_structure().unwrap();
        assert!(!Arc::ptr_eq(
            &shards.shard(0).shared_structure().unwrap(),
            &s1
        ));
        assert!(Arc::ptr_eq(
            &s1,
            &shards.shard(2).shared_structure().unwrap()
        ));
        // A group ingest must keep the coherent subgroup on ONE patched
        // structure (the old shard-0-anchored logic would have split
        // shards 1 and 2 into independent patches forever).
        let mut batch_b = EdgeBatch::new();
        batch_b.insert(non_edges[1].0, non_edges[1].1);
        shards.ingest_all(&batch_b).unwrap();
        let t1 = shards.shard(1).shared_structure().unwrap();
        assert!(
            Arc::ptr_eq(&t1, &shards.shard(2).shared_structure().unwrap()),
            "the still-coherent subgroup keeps sharing one transpose"
        );
        assert!(!Arc::ptr_eq(
            &shards.shard(0).shared_structure().unwrap(),
            &t1
        ));
        assert_eq!(shards.shard(0).generation(), 2);
        assert_eq!(shards.shard(1).generation(), 1);
        assert_eq!(shards.shard(2).generation(), 1);
    }

    #[test]
    fn multi_graph_shards_route_keys_and_refresh_independently() {
        let graphs: Vec<CsrGraph> = (0..3u64)
            .map(|i| barabasi_albert(120 + 10 * i as usize, 3, i).unwrap())
            .collect();
        let sizes: Vec<usize> = graphs.iter().map(CsrGraph::num_nodes).collect();
        let mut shards = ShardManager::from_graphs(graphs, MODEL, tight()).unwrap();
        assert_eq!(shards.shard_of(5), 2);
        for (key, &n) in sizes.iter().enumerate() {
            assert_eq!(shards.reader(key as u64).len(), n);
        }
        // Refresh one shard only; the others' generations stay put.
        let mut batch = EdgeBatch::new();
        batch.insert(0, 100);
        let outcome = shards.ingest(1, &batch).unwrap();
        assert_eq!(outcome.generation, 1);
        assert_eq!(shards.shard(0).generation(), 0);
        assert_eq!(shards.shard(1).generation(), 1);
        assert_eq!(shards.shard(2).generation(), 0);
        // Batch queries hit the owning shards.
        let answers = shards.batch_get(&[(0, 0), (1, 0), (2, 10_000)]);
        assert!(answers[0].is_some() && answers[1].is_some());
        assert_eq!(answers[2], None);
    }

    #[test]
    fn batch_get_groups_by_shard_and_matches_point_reads() {
        let graphs: Vec<CsrGraph> = (0..3u64)
            .map(|i| barabasi_albert(100 + 10 * i as usize, 3, i).unwrap())
            .collect();
        let shards = ShardManager::from_graphs(graphs, MODEL, tight()).unwrap();
        // Interleaved keys (shards revisited out of order), duplicates, and
        // out-of-range nodes all answered at their original positions.
        let queries: Vec<(u64, u32)> = vec![
            (2, 5),
            (0, 99),
            (1, 3),
            (5, 109),
            (0, 100), // out of range on shard 0 (100 nodes)
            (3, 7),
            (2, 5),
            (4, 110),
        ];
        let grouped = shards.batch_get(&queries);
        let pointwise: Vec<Option<f64>> = queries
            .iter()
            .map(|&(key, node)| shards.get(key, node))
            .collect();
        assert_eq!(grouped, pointwise);
        assert_eq!(grouped[4], None);
        assert_eq!(grouped[0], grouped[6]);
        assert!(shards.batch_get(&[]).is_empty());
    }

    #[test]
    fn empty_shard_sets_are_rejected() {
        assert!(ShardManager::from_graphs(vec![], MODEL, tight()).is_err());
        let g = barabasi_albert(50, 2, 1).unwrap();
        assert!(ShardManager::personalized(&g, &[], MODEL, tight()).is_err());
    }

    #[test]
    fn top_entry_order_is_total_even_for_nan() {
        use std::cmp::Ordering;
        let nan = TopEntry {
            score: f64::NAN,
            node: 3,
        };
        let inf = TopEntry {
            score: f64::INFINITY,
            node: 1,
        };
        let zero = TopEntry {
            score: 0.0,
            node: 2,
        };
        let neg_zero = TopEntry {
            score: -0.0,
            node: 2,
        };
        // `total_cmp` keeps the order total where `partial_cmp` would
        // return None and break `Ord` inside BinaryHeap/sort: a positive
        // NaN ranks above +inf — a wrong ranking, never a panic or a
        // corrupted heap.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(nan > inf);
        assert!(inf > zero);
        assert!(zero > neg_zero, "-0.0 sorts below +0.0 under total_cmp");
        let mut entries = [
            zero,
            nan,
            inf,
            neg_zero,
            TopEntry {
                score: f64::NAN,
                node: 0,
            },
        ];
        entries.sort(); // requires a law-abiding Ord: no panic, total order
        for w in entries.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // A scan over NaN-poisoned scores still yields a deterministic
        // total order: NaNs first (largest under total_cmp), id tie-break.
        let scores = [0.3, f64::NAN, 0.1, f64::NAN, 0.7];
        let nodes: Vec<u32> = scan_top(&scores, 5).iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn indexed_top_k_matches_scan_across_churn() {
        // Serving tolerance (1e-6) on a graph large enough that
        // single-edge churn actually takes the localized path — the
        // deterministic seed yields a mix of LocalizedPush (index repair)
        // and HybridPushSweep (index rebuild) rounds.
        let n = 5000u32;
        let g = barabasi_albert(n as usize, 3, 23).unwrap();
        let config = PageRankConfig {
            tolerance: 1e-6,
            ..Default::default()
        };
        let mut serving = ServingEngine::new(g, MODEL, config, 1).unwrap();
        // Small capacity so repairs, shrinks, and rebuilds all occur.
        serving.set_top_k_capacity(16);
        let reader = serving.reader();
        let (mut localized, mut swept) = (0, 0);
        for round in 0..12u32 {
            let mut batch = EdgeBatch::new();
            let src = n / 2 + (round * 13) % (n / 2);
            let mut dst = (round * 37 + 101) % n;
            while serving.delta_graph().graph().has_arc(src, dst) || dst == src {
                dst = (dst + 1) % n;
            }
            batch.insert(src, dst);
            let out = serving.ingest(&batch).unwrap();
            if out.mode == ResolveMode::LocalizedPush {
                localized += 1;
            } else {
                swept += 1;
            }
            // Exact (node, score, order) parity for k below, at, and
            // beyond the maintained capacity, including the full scan.
            for k in [1usize, 3, 16, 17, 64, n as usize] {
                assert_eq!(
                    reader.top_k(k),
                    reader.top_k_scan(k),
                    "index/scan divergence at k={k} round={round}"
                );
            }
        }
        assert!(localized > 0, "churn never exercised the repair path");
        assert!(swept > 0, "churn never exercised the rebuild path");
    }

    #[test]
    fn indexed_top_k_matches_scan_under_permuted_layout() {
        let g = barabasi_albert(400, 3, 31).unwrap();
        let mut serving = ServingEngine::with_layout(
            g,
            Layout::DegreeDescending,
            None,
            MODEL,
            PageRankConfig::default(),
        )
        .unwrap();
        serving.set_top_k_capacity(12);
        let p = Arc::clone(serving.permutation().unwrap());
        let reader = serving.reader();
        for round in 0..8u32 {
            let mut batch = EdgeBatch::new();
            let src = 200 + (round * 17) % 200;
            let mut dst = (round * 53 + 7) % 400;
            // The delta graph is the solver's permuted copy; probe it in
            // internal ids while the batch stays external.
            while dst == src
                || serving
                    .delta_graph()
                    .graph()
                    .has_arc(p.to_internal(src), p.to_internal(dst))
            {
                dst = (dst + 1) % 400;
            }
            batch.insert(src, dst);
            serving.ingest(&batch).unwrap();
            for k in [1usize, 12, 40, 400] {
                assert_eq!(
                    reader.top_k(k),
                    reader.top_k_scan(k),
                    "permuted-layout divergence at k={k} round={round}"
                );
            }
        }
    }

    #[test]
    fn set_top_k_capacity_republishes_exactly() {
        let g = barabasi_albert(250, 3, 9).unwrap();
        let mut serving = ServingEngine::new(g, MODEL, tight(), 1).unwrap();
        let reader = serving.reader();
        assert_eq!(serving.top_k_capacity(), DEFAULT_TOP_K_CAPACITY);
        assert_eq!(reader.top_k_capacity(), DEFAULT_TOP_K_CAPACITY);
        let mut before = Vec::new();
        reader.snapshot_into(&mut before);
        let generation = serving.set_top_k_capacity(5);
        assert_eq!(generation, 1);
        assert_eq!(reader.generation(), 1);
        assert_eq!(serving.top_k_capacity(), 5);
        assert_eq!(reader.top_k_capacity(), 5);
        // The republished scores are bit-identical.
        let mut after = Vec::new();
        reader.snapshot_into(&mut after);
        assert_eq!(before, after);
        // Below capacity: O(k) index path; beyond the head: scan
        // fallback. Both exact.
        assert_eq!(reader.top_k(5), reader.top_k_scan(5));
        assert_eq!(reader.top_k(200), reader.top_k_scan(200));
        // The capacity survives subsequent refreshes (the back slot
        // inherits it from the front on every repair/rebuild).
        let mut batch = EdgeBatch::new();
        batch.insert(0, 249);
        serving.ingest(&batch).unwrap();
        assert_eq!(serving.top_k_capacity(), 5);
        assert_eq!(reader.top_k(5), reader.top_k_scan(5));
    }

    #[test]
    fn top_k_global_merges_shards_exactly() {
        let graphs = vec![
            barabasi_albert(120, 3, 5).unwrap(),
            barabasi_albert(90, 2, 6).unwrap(),
            barabasi_albert(150, 3, 7).unwrap(),
        ];
        let mut shards = ShardManager::from_graphs(graphs, MODEL, tight()).unwrap();
        // Refresh one shard so per-shard generations diverge.
        let mut batch = EdgeBatch::new();
        batch.insert(0, 89);
        shards.ingest(1, &batch).unwrap();
        // Brute-force reference: every (shard, node, score), globally
        // ordered by score desc, shard asc, node asc.
        let mut all: Vec<(usize, u32, f64)> = Vec::new();
        let mut snap = Vec::new();
        for (s, r) in shards.readers().into_iter().enumerate() {
            r.snapshot_into(&mut snap);
            for (v, &sc) in snap.iter().enumerate() {
                all.push((s, v as u32, sc));
            }
        }
        all.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        let total = all.len();
        for k in [0usize, 1, 7, 40, 360, 1000] {
            let got = shards.top_k_global(k);
            assert_eq!(got.len(), k.min(total));
            assert_eq!(got, all[..k.min(total)], "k={k}");
        }
    }
}
