//! Residual-localized incremental solving: Gauss–Southwell / forward push
//! on the warm-start residual.
//!
//! A warm-started *full sweep* after a graph delta is information-bounded:
//! it pays `O(E)` per iteration no matter how small the perturbation, and
//! the iteration count cannot drop below `log(err_warm/tol)/log-rate`
//! (DESIGN.md, "Warm-start convergence contract"). This module breaks that
//! bound for small batches by never sweeping at all. The fixed point
//! `x = α·M·x + (1−α)·t` is linear, so for any iterate `x̂` the *residual*
//! `r = (1−α)·t + α·M·x̂ − x̂` determines the remaining correction exactly:
//! `x* = x̂ + (I − α·M)⁻¹·r`, with `‖x* − x̂‖₁ ≤ ‖r‖₁ / (1−α)` because `M`
//! is column-stochastic. When `x̂` is the pre-batch solution, `r` is zero
//! (up to the previous solve's tolerance) outside the neighborhood of the
//! arcs the batch touched — so the correction can be computed by *pushing
//! residual mass locally* instead of iterating globally:
//!
//! 1. **Frontier.** From the batch's effective [`ArcDelta`] derive the
//!    changed operator *columns*: sources whose out-arc set or out-arc
//!    *weights* changed, plus — because degree-decoupled probabilities
//!    depend on destination degrees — the in-neighbors of every node whose
//!    `Θ` changed (their normalizing denominators shifted even though
//!    their arcs did not; on weighted graphs a pure re-weight shifts `Θ`
//!    the same way an arc flip does).
//! 2. **Exact residual seeding.** `r₀ = α·(T_new − T_old)·x̂` decomposes
//!    column-wise, and the *old* column of the factored operator
//!    `T[j,i] = numer[j]·inv_denom[i] + w(i→j)·conn[i]` is exactly
//!    reconstructible from the delta: pre-batch degrees and `Θ` nets give
//!    the degree term's pre-batch destination factors and denominators,
//!    and the delta's pre-batch arc weights (`deleted_weights`, the `old`
//!    halves of `reweighted`) give the connection term's pre-batch weights
//!    and `Θ_i`. Each changed column therefore seeds the residual as a
//!    **virtual push** in `O(out-degree)` — no row-side in-arc pulls at
//!    all. This generalizes
//!    [`crate::approx::forward_push`], which handles only the standard
//!    random-walk operator and a single seed's indicator residual.
//! 3. **Signed push.** Repeatedly settle residual `ρ` at a node into its
//!    score and scatter `α·ρ·M[·,i]` to its out-neighbors. Every push
//!    destroys at least `(1−α)·|ρ|` of residual mass, so total work is
//!    bounded by `‖r₀‖₁ / ((1−α)·θ)` pushes at threshold `θ` — work
//!    proportional to the perturbation, not the graph. An adaptive
//!    threshold schedule (start at `‖r₀‖₁/8`, shrink ×8 per round, floored
//!    so the largest entry always qualifies) keeps pushes large early and
//!    terminates once the tracked `‖r‖₁` drops below the solver
//!    tolerance — the same L1 criterion the sweep engine stops on.
//!
//! The push is several times more work-efficient than sweeping while the
//! residual stays concentrated, but residual mass it cannot cancel decays
//! at best by `α` per propagation generation *wherever it has spread* — so
//! the final error decades of a tight-tolerance solve are a graph-wide,
//! low-amplitude tail that no local scheme can drain cheaply. The push
//! therefore carries a work budget; when it runs out, the engine finishes
//! with its Aitken-extrapolated sweep *from the pushed iterate*
//! ([`ResolveMode::HybridPushSweep`](crate::engine::ResolveMode)), keeping
//! every decade the push already earned.
//!
//! Dangling mass under [`DanglingPolicy::RedistributeTeleport`] would make
//! pushes dense (`M`'s dangling columns equal the teleport vector), so it
//! is handled in closed form instead: teleport-shaped residual `c·t`
//! corrects the solution by `c/(1−α) · x*` — a pure rescale — so dangling
//! pushes simply *drop* their mass and the caller's final normalization to
//! the simplex realizes the rescale exactly. `SelfLoop` keeps `α·ρ` in
//! place (local). `Renormalize` is non-affine when dangling nodes exist;
//! the engine routes that case to the warm sweep.
//!
//! All scratch state lives in the `ResidualScratch` inside the engine's
//! [`Workspace`](crate::workspace::Workspace): once sized for a graph,
//! steady-state serving performs zero allocations here.

use crate::engine::{conn_factor, FactoredOp};
use crate::exec::{sim_event, ExecBarrier};
use crate::pagerank::DanglingPolicy;
use crate::pool::{PadCell, SharedMut, WorkerPool};
use crate::workspace::ResidualScratch;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::ArcDelta;
use d2pr_graph::transpose::CscStructure;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Solve parameters, extracted from the engine's configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalizedParams {
    /// Residual probability `α`.
    pub alpha: f64,
    /// De-coupling weight `p` of the loaded model (used to reconstruct
    /// pre-batch destination factors when seeding).
    pub p: f64,
    /// Dangling policy (`Renormalize` only without dangling nodes).
    pub policy: DanglingPolicy,
    /// Stop once the tracked `‖r‖₁` drops below this (the engine's L1
    /// tolerance — matched with the sweep's stop criterion).
    pub tolerance: f64,
    /// Arc-traversal budget for the push phase. Pushing is several times
    /// more efficient than sweeping while the residual is concentrated,
    /// but once the mass has fragmented into a graph-wide low-amplitude
    /// tail, the extrapolated sweep wins — past this budget the push
    /// stops (keeping all progress in `rank`) and reports
    /// `converged == false` so the caller can finish with a few sweep
    /// iterations from the pushed iterate.
    pub work_budget: usize,
}

/// Context enabling the frontier-parallel drain: the engine's persistent
/// worker pool and its arc-balanced owner map (`owner[v]` = worker owning
/// destination `v`). With `None`, [`solve_localized`] drains serially.
#[derive(Clone, Copy)]
pub(crate) struct ParallelPushCtx<'a> {
    /// Parked workers (spawned at engine construction, never here).
    pub pool: &'a WorkerPool,
    /// Owner of every node under the engine's partition.
    pub owner: &'a [u32],
}

/// Diagnostics of a completed localized solve.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LocalizedStats {
    /// Number of residual pushes performed.
    pub pushes: usize,
    /// Rows on which the initial residual was evaluated (`|J|`).
    pub frontier_nodes: usize,
    /// Arc traversals (frontier construction + residual pulls + pushes).
    pub work: usize,
    /// Final tracked `‖r‖₁` (< tolerance iff `converged`).
    pub residual_mass: f64,
    /// Threshold rounds run.
    pub rounds: usize,
    /// Whether the push drained the residual below tolerance. `false`
    /// means the work budget ran out first: `rank` holds all progress made
    /// (typically several error decades better than the warm start) and
    /// the caller should finish with a sweep from it.
    pub converged: bool,
}

/// Run a residual-localized solve in place. `rank` must hold the (already
/// normalized) pre-batch solution for the *new* graph's node set; on
/// return it holds the refreshed (or, when `converged == false`,
/// partially refreshed) solution. Callers normalize the converged result
/// to the simplex, which also realizes the closed-form dangling rescale —
/// see module docs. `op.theta` is the **post-batch** destination `Θ`
/// table (degree/`out_weight`); pre-batch values are reconstructed from it
/// and the delta's per-source nets. The caller guarantees: delta consistent
/// with `graph` (weights included), fixed node count (node-churn batches
/// change the teleport vector itself and route to the warm sweep), and no
/// dangling nodes under `Renormalize`.
///
/// `touched_out`, when given, receives (clear + extend) the exact set of
/// nodes whose rank or residual this solve wrote — the frontier the
/// serving layer's maintained top-k index repairs against. The set is
/// exported just before the scratch reset, so it is complete even on the
/// budget-exhausted path (the caller's sweep finisher then rewrites every
/// node and must treat the set as all-of-graph instead).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_localized(
    graph: &CsrGraph,
    csc: &CscStructure,
    dangling_mask: &[bool],
    op: &FactoredOp<'_>,
    params: &LocalizedParams,
    delta: &ArcDelta,
    rank: &mut [f64],
    scratch: &mut ResidualScratch,
    par: Option<ParallelPushCtx<'_>>,
    touched_out: Option<&mut Vec<u32>>,
) -> LocalizedStats {
    let n = graph.num_nodes();
    scratch.ensure(n);
    if let Some(ctx) = par {
        scratch.ensure_parallel(ctx.pool.workers());
    }
    let ResidualScratch {
        residual,
        touched_mark,
        touched,
        queue,
        in_queue,
        col_mark,
        cols,
        par_queues,
        par_outboxes,
        par_touched,
    } = scratch;
    debug_assert!(touched.is_empty() && cols.is_empty() && queue.is_empty());

    let alpha = params.alpha;
    let (offsets, targets, _) = graph.parts();
    let in_offsets = csc.in_offsets();
    let in_sources = csc.in_sources();
    let mut stats = LocalizedStats::default();

    // -- Changed operator columns: sources of flipped and re-weighted
    //    arcs, plus every in-neighbor of a node whose Θ changed (arc
    //    flips *and* weight changes shift Θ) — their normalizing
    //    denominators moved even though their arcs did not.
    let source_changes = delta.source_degree_changes();
    let theta_changes = delta.source_theta_changes();
    for &s in delta
        .inserted
        .iter()
        .chain(&delta.deleted)
        .map(|(s, _)| s)
        .chain(delta.reweighted.iter().map(|(s, _, _, _)| s))
    {
        if !col_mark[s as usize] {
            col_mark[s as usize] = true;
            cols.push(s);
        }
    }
    for &(w, net) in &theta_changes {
        if net == 0.0 {
            continue; // neighbor set changed but Θ did not: already a column
        }
        let (cs, ce) = (in_offsets[w as usize], in_offsets[w as usize + 1]);
        stats.work += ce - cs;
        for &i in &in_sources[cs..ce] {
            if !col_mark[i as usize] {
                col_mark[i as usize] = true;
                cols.push(i);
            }
        }
    }
    // Pre-batch Θ of any node: the post-batch table minus the delta's net.
    let theta_old_at = |t: u32| -> f64 {
        match theta_changes.binary_search_by_key(&t, |&(w, _)| w) {
            Ok(k) => op.theta[t as usize] - theta_changes[k].1,
            Err(_) => op.theta[t as usize],
        }
    };

    let mark = |j: usize, touched_mark: &mut [bool], touched: &mut Vec<u32>| {
        if !touched_mark[j] {
            touched_mark[j] = true;
            touched.push(j as u32);
        }
    };

    // -- Seed the initial residual: `r₀ = α·(T_new − T_old)·x̂` (the
    //    leftover of the previous solve is below its tolerance and
    //    neglected; teleport-shaped parts — dangling-mass changes under
    //    RedistributeTeleport — are dropped as a pure rescale, module
    //    docs).
    //
    //    Column-wise "virtual pushes": for every changed column `i`, the
    //    residual contribution is `α·x̂_i·(T_new[·,i] − T_old[·,i])`, and
    //    the *old* column is exactly reconstructible from the delta —
    //    `O(deg(i) + Δ_i·log)` per column, no row pulls at all.
    let p = params.p;
    let beta = op.beta;
    let FactoredOp {
        numer,
        inv_denom,
        conn,
        theta,
        ..
    } = *op;
    // Pre-batch destination factors of Θ-changed nodes, sorted — Θ_old
    // comes from the post-batch table minus the delta's net (weight-aware:
    // a re-weight shifts Θ without an arc flip).
    let numer_old_changed: Vec<(u32, f64)> = theta_changes
        .iter()
        .filter(|&&(_, net)| net != 0.0)
        .map(|&(w, _)| {
            let old_theta = theta_old_at(w);
            (w, (-p * old_theta.max(1.0).ln()).exp())
        })
        .collect();
    let numer_old = |t: u32, numer: &[f64]| -> f64 {
        match numer_old_changed.binary_search_by_key(&t, |&(w, _)| w) {
            Ok(k) => numer_old_changed[k].1,
            Err(_) => numer[t as usize],
        }
    };
    for &i in cols.iter() {
        let iu = i as usize;
        let xi = rank[iu];
        if xi == 0.0 {
            continue;
        }
        let ins = &delta.inserted[source_range(&delta.inserted, i)];
        let del_range = source_range(&delta.deleted, i);
        let dels = &delta.deleted[del_range.clone()];
        let inserted = |t: u32| ins.binary_search_by_key(&t, |&(_, tt)| tt).is_ok();
        let net = match source_changes.binary_search_by_key(&i, |&(v, _)| v) {
            Ok(k) => source_changes[k].1,
            Err(_) => 0,
        };
        let (s, e) = (offsets[iu], offsets[iu + 1]);
        let old_deg = (e - s) as i64 - net;
        stats.work += (e - s) + dels.len();
        if op.degree_term() {
            // Reconstruct the old denominator over N_old(i) =
            // (N_new(i) ∖ inserted) ∪ deleted.
            let inv_d_old = if old_deg > 0 {
                let mut d_old = 0.0;
                for &t in &targets[s..e] {
                    if !inserted(t) {
                        d_old += numer_old(t, numer);
                    }
                }
                for &(_, t) in dels {
                    d_old += numer_old(t, numer);
                }
                (1.0 - beta) / d_old
            } else {
                0.0 // was dangling: no old arc column
            };
            let inv_d_new = inv_denom[iu];
            for &t in &targets[s..e] {
                let tu = t as usize;
                let mut diff = numer[tu] * inv_d_new;
                if !inserted(t) {
                    diff -= numer_old(t, numer) * inv_d_old;
                }
                if diff != 0.0 {
                    residual[tu] += alpha * xi * diff;
                    mark(tu, touched_mark, touched);
                }
            }
            for &(_, t) in dels {
                if inv_d_old != 0.0 {
                    let tu = t as usize;
                    residual[tu] -= alpha * xi * numer_old(t, numer) * inv_d_old;
                    mark(tu, touched_mark, touched);
                }
            }
        }
        if op.conn_term() {
            // Connection term `w(i→t)·conn[i]`: pre-batch weights of the
            // retained arcs come from the `old` halves of `reweighted`,
            // the deleted ones from `deleted_weights`, and the pre-batch
            // `conn` from their sum. A source whose weights sum to 0
            // weighs each arc 1 (uniform fallback).
            let ws = graph.neighbor_weights(i);
            let del_ws = &delta.deleted_weights[del_range];
            let rews = &delta.reweighted[reweight_range(&delta.reweighted, i)];
            stats.work += rews.len();
            let w_new = |k: usize| ws.map_or(1.0, |ws| ws[k - s]);
            let w_old = |k: usize, t: u32| match rews.binary_search_by_key(&t, |r| r.1) {
                Ok(r) => rews[r].2,
                Err(_) => w_new(k),
            };
            let mut total_old: f64 = del_ws.iter().sum();
            for (k, &t) in (s..e).zip(&targets[s..e]) {
                if !inserted(t) {
                    total_old += w_old(k, t);
                }
            }
            let conn_old = conn_factor(beta, total_old, old_deg.max(0) as u32);
            let (uniform_old, uniform_new) = (total_old == 0.0, theta[iu] == 0.0);
            for (k, &t) in (s..e).zip(&targets[s..e]) {
                let tu = t as usize;
                let mut diff = if uniform_new { 1.0 } else { w_new(k) } * conn[iu];
                if !inserted(t) {
                    diff -= if uniform_old { 1.0 } else { w_old(k, t) } * conn_old;
                }
                if diff != 0.0 {
                    residual[tu] += alpha * xi * diff;
                    mark(tu, touched_mark, touched);
                }
            }
            for (&(_, t), &w) in dels.iter().zip(del_ws) {
                let tu = t as usize;
                residual[tu] -= alpha * xi * if uniform_old { 1.0 } else { w } * conn_old;
                mark(tu, touched_mark, touched);
            }
        }
        // SelfLoop: a dangling-status flip adds/removes the `e_i` column
        // (Redistribute's teleport-shaped flip is the rescale; Renormalize
        // has no dangling nodes here).
        if params.policy == DanglingPolicy::SelfLoop {
            let was = old_deg == 0;
            let now = s == e;
            if now && !was {
                residual[iu] += alpha * xi;
                mark(iu, touched_mark, touched);
            } else if was && !now {
                residual[iu] -= alpha * xi;
                mark(iu, touched_mark, touched);
            }
        }
    }
    stats.frontier_nodes = touched.len();
    let mut mass: f64 = touched.iter().map(|&v| residual[v as usize].abs()).sum();

    // -- Drain: frontier-parallel (round-synchronous, per-owner queues)
    //    when the engine handed us its pool, serial Gauss–Southwell
    //    otherwise. Same threshold schedule, stop criterion, budget and
    //    stagnation rules either way — parity is property-tested.
    if let Some(ctx) = par {
        mass = drain_parallel(
            graph,
            dangling_mask,
            op,
            params,
            ctx,
            rank,
            residual,
            touched_mark,
            touched,
            in_queue,
            par_queues,
            par_outboxes,
            par_touched,
            mass,
            &mut stats,
        );
        stats.residual_mass = mass;
        stats.converged = mass < params.tolerance;
        export_touched(scratch, touched_out);
        reset(scratch);
        return stats;
    }

    // -- Signed push with an adaptive threshold schedule.
    let stop = params.tolerance;
    // Start coarse — the initial residual is concentrated near the delta,
    // so the first rounds drain the big entries with few pushes; rounds
    // with nothing above θ cost one O(|touched|) scan and refine ×8.
    let mut theta = mass.max(stop) / 8.0;
    let mut exhausted = false;
    while mass >= stop && !exhausted {
        stats.rounds += 1;
        sim_event("residual.round", stats.rounds);
        for &v in touched.iter() {
            if residual[v as usize].abs() >= theta && !in_queue[v as usize] {
                in_queue[v as usize] = true;
                queue.push_back(v);
            }
        }
        while let Some(i) = queue.pop_front() {
            let iu = i as usize;
            in_queue[iu] = false;
            let rho = residual[iu];
            if rho.abs() < theta {
                continue;
            }
            if dangling_mask[iu] {
                stats.pushes += 1;
                rank[iu] += rho;
                match params.policy {
                    DanglingPolicy::RedistributeTeleport => {
                        // Teleport-shaped mass: dropped here, realized as
                        // the caller's final rescale (module docs).
                        residual[iu] = 0.0;
                    }
                    DanglingPolicy::SelfLoop => {
                        let back = alpha * rho;
                        residual[iu] = back;
                        if back.abs() >= theta {
                            in_queue[iu] = true;
                            queue.push_back(i);
                        }
                    }
                    DanglingPolicy::Renormalize => {
                        unreachable!("caller guarantees no dangling nodes under Renormalize")
                    }
                }
                continue;
            }
            let (s, e) = (offsets[iu], offsets[iu + 1]);
            stats.work += e - s;
            if stats.work > params.work_budget {
                // Hand off to the caller's sweep finisher with `i`'s
                // residual (and all progress in `rank`) intact.
                exhausted = true;
                break;
            }
            stats.pushes += 1;
            rank[iu] += rho;
            residual[iu] = 0.0;
            op.scatter(graph, iu, alpha * rho, |j, c| {
                let new = residual[j] + c;
                residual[j] = new;
                if !touched_mark[j] {
                    touched_mark[j] = true;
                    touched.push(j as u32);
                }
                if new.abs() >= theta && !in_queue[j] {
                    in_queue[j] = true;
                    queue.push_back(j as u32);
                }
            });
        }
        // The mass is re-derived over the touched set once per round (not
        // incrementally per push): exact, drift-free, and O(|touched|).
        let prev_mass = mass;
        mass = touched.iter().map(|&v| residual[v as usize].abs()).sum();
        // Stagnation: once a whole round of pushes shrinks the mass by
        // less than ×2 while real work has been spent, the residual has
        // fragmented graph-wide — stop burning the budget and let the
        // sweep finisher take the tail.
        if mass >= stop && mass * 2.0 > prev_mass && stats.work > params.work_budget / 8 {
            exhausted = true;
        }
        if mass < stop {
            break;
        }
        // Shrink the threshold, floored so the largest residual entry
        // (≥ mass/|touched|) always qualifies — guarantees progress.
        let floor = stop / (4.0 * touched.len().max(1) as f64);
        theta = (theta / 8.0).max(floor);
    }
    stats.residual_mass = mass;
    stats.converged = mass < stop;
    export_touched(scratch, touched_out);
    reset(scratch);
    stats
}

/// Deliver the touched-node set to the caller's sink (clear + extend, so a
/// long-lived sink never reallocates past its high-water mark).
fn export_touched(scratch: &ResidualScratch, out: Option<&mut Vec<u32>>) {
    if let Some(out) = out {
        out.clear();
        out.extend_from_slice(&scratch.touched);
    }
}

// ---------------------------------------------------------------------------
// Frontier-parallel drain (round-synchronous, owner-partitioned)
// ---------------------------------------------------------------------------

/// Phases broadcast to the pool workers; see [`drain_parallel`].
const PHASE_SCAN: u8 = 0;
const PHASE_PUSH: u8 = 1;
const PHASE_MERGE: u8 = 2;
const PHASE_MASS: u8 = 3;
const PHASE_EXIT: u8 = 4;

/// Per-phase partial a worker reports.
#[derive(Debug, Clone, Copy, Default)]
struct ParOut {
    work: usize,
    pushes: usize,
    frontier: usize,
    mass: f64,
}

/// Everything the round-synchronous drain shares with the pool workers.
///
/// Ownership discipline (the reason no atomics touch the hot accumulate):
/// every node belongs to exactly one worker (`owner`), and every phase
/// gives each index exactly one accessor —
///
/// * `rank`, `residual`, `touched_mark`, `in_queue` at index `v`: only
///   `owner[v]`, in every phase;
/// * `queues[w]`, `touched_parts[w]`: only worker `w`;
/// * `outboxes[s * workers + r]`: written by sender `s` during `Push`,
///   drained by receiver `r` during `Merge` — phases are separated by the
///   barrier pair, which also publishes the writes.
///
/// The driver touches shared state only while workers are parked between
/// `end` and `start`.
struct ParShared<'a> {
    graph: &'a CsrGraph,
    op: FactoredOp<'a>,
    dangling_mask: &'a [bool],
    owner: &'a [u32],
    policy: DanglingPolicy,
    alpha: f64,
    workers: usize,
    rank: SharedMut<f64>,
    residual: SharedMut<f64>,
    touched_mark: SharedMut<bool>,
    in_queue: SharedMut<bool>,
    queues: SharedMut<Vec<u32>>,
    outboxes: SharedMut<Vec<(u32, f64)>>,
    touched_parts: SharedMut<Vec<u32>>,
    /// Current push threshold θ (driver-written while workers are parked).
    theta: UnsafeCell<f64>,
    phase: AtomicU8,
    start: ExecBarrier,
    end: ExecBarrier,
    partials: Vec<PadCell<ParOut>>,
}

// SAFETY: interior mutability follows the phase/ownership protocol above.
unsafe impl Sync for ParShared<'_> {}

/// Round-synchronous parallel drain of the seeded residual. Semantics
/// match the serial drain in [`solve_localized`]: the same adaptive
/// threshold schedule, the same `‖r‖₁ < tol` stop, the same work budget
/// and stagnation rules (budget checks run at sub-round barriers, so a
/// single sub-round may overshoot the budget by at most one frontier's
/// out-degree sum). Only the push *order* differs, which the fixed point
/// is independent of. Returns the final tracked residual mass.
#[allow(clippy::too_many_arguments)]
fn drain_parallel(
    graph: &CsrGraph,
    dangling_mask: &[bool],
    op: &FactoredOp<'_>,
    params: &LocalizedParams,
    ctx: ParallelPushCtx<'_>,
    rank: &mut [f64],
    residual: &mut [f64],
    touched_mark: &mut [bool],
    touched: &mut Vec<u32>,
    in_queue: &mut [bool],
    par_queues: &mut [Vec<u32>],
    par_outboxes: &mut [Vec<(u32, f64)>],
    par_touched: &mut [Vec<u32>],
    mass0: f64,
    stats: &mut LocalizedStats,
) -> f64 {
    let workers = ctx.pool.workers();
    let n = graph.num_nodes();
    assert_eq!(ctx.owner.len(), n, "owner map must cover the graph");
    debug_assert!(par_queues.len() >= workers && par_outboxes.len() >= workers * workers);

    // Partition the seeded touched set by owner; the per-owner lists are
    // the authoritative touched set for the drain and are merged back into
    // the global list afterwards (for the dirty-entry reset).
    for &v in touched.iter() {
        par_touched[ctx.owner[v as usize] as usize].push(v);
    }
    touched.clear();

    let shared = ParShared {
        graph,
        op: *op,
        dangling_mask,
        owner: ctx.owner,
        policy: params.policy,
        alpha: params.alpha,
        workers,
        rank: SharedMut::new(rank),
        residual: SharedMut::new(residual),
        touched_mark: SharedMut::new(touched_mark),
        in_queue: SharedMut::new(in_queue),
        queues: SharedMut::new(&mut par_queues[..workers]),
        outboxes: SharedMut::new(&mut par_outboxes[..workers * workers]),
        touched_parts: SharedMut::new(&mut par_touched[..workers]),
        theta: UnsafeCell::new(0.0),
        phase: AtomicU8::new(PHASE_SCAN),
        start: ExecBarrier::new(workers + 1),
        end: ExecBarrier::new(workers + 1),
        partials: (0..workers).map(|_| PadCell::default()).collect(),
    };

    let stop = params.tolerance;
    let mut mass = mass0;
    let job = |w: usize| par_worker(w, &shared);
    ctx.pool.run(&job, || {
        // One phase rendezvous: broadcast, release, wait, sum partials.
        let cycle = |phase: u8| -> ParOut {
            shared.phase.store(phase, Ordering::Release);
            shared.start.wait();
            shared.end.wait();
            let mut total = ParOut::default();
            for cell in &shared.partials {
                // SAFETY: workers are parked between the barriers.
                let p = unsafe { *cell.0.get() };
                total.work += p.work;
                total.pushes += p.pushes;
                total.frontier += p.frontier;
                total.mass += p.mass;
            }
            total
        };
        let mut theta = mass.max(stop) / 8.0;
        let mut exhausted = false;
        while mass >= stop && !exhausted {
            stats.rounds += 1;
            sim_event("residual.round", stats.rounds);
            // SAFETY: workers parked; exclusive access to θ.
            unsafe { *shared.theta.get() = theta };
            let mut frontier = cycle(PHASE_SCAN).frontier;
            while frontier > 0 && !exhausted {
                let pushed = cycle(PHASE_PUSH);
                stats.pushes += pushed.pushes;
                stats.work += pushed.work;
                frontier = cycle(PHASE_MERGE).frontier;
                if stats.work > params.work_budget {
                    exhausted = true;
                }
            }
            let prev_mass = mass;
            mass = cycle(PHASE_MASS).mass;
            // Stagnation: same rule as the serial drain.
            if mass >= stop && mass * 2.0 > prev_mass && stats.work > params.work_budget / 8 {
                exhausted = true;
            }
            if mass < stop {
                break;
            }
            let total_touched: usize = (0..workers)
                // SAFETY: workers parked; read-only peek at list lengths.
                .map(|w| unsafe { shared.touched_parts.at(w) }.len())
                .sum();
            let floor = stop / (4.0 * total_touched.max(1) as f64);
            theta = (theta / 8.0).max(floor);
        }
        shared.phase.store(PHASE_EXIT, Ordering::Release);
        shared.start.wait();
    });

    // Reassemble the global touched set and clear queue leftovers (an
    // exhausted drain can leave enqueued nodes behind) so the shared
    // dirty-entry reset sees the serial invariants.
    for w in 0..workers {
        touched.append(&mut par_touched[w]);
        for &v in &par_queues[w] {
            in_queue[v as usize] = false;
        }
        par_queues[w].clear();
    }
    mass
}

/// Body of one drain worker: park on the start barrier, run the broadcast
/// phase over owned state, report partials, park on the end barrier.
fn par_worker(w: usize, sh: &ParShared<'_>) {
    loop {
        sh.start.wait();
        let phase = sh.phase.load(Ordering::Acquire);
        if phase == PHASE_EXIT {
            return;
        }
        // SAFETY: θ is driver-written while workers are parked.
        let theta = unsafe { *sh.theta.get() };
        let mut out = ParOut::default();
        match phase {
            PHASE_SCAN => {
                // Re-examine owned touched nodes against the new θ (mass
                // below the previous θ may clear the refined one).
                // SAFETY: queue `w` and touched part `w` belong to this
                // worker; marks/residual are read only at owned indices.
                let q = unsafe { sh.queues.at_mut(w) };
                let mine = unsafe { sh.touched_parts.at(w) };
                for &v in mine {
                    let vu = v as usize;
                    unsafe {
                        if sh.residual.at(vu).abs() >= theta && !*sh.in_queue.at(vu) {
                            *sh.in_queue.at_mut(vu) = true;
                            q.push(v);
                        }
                    }
                }
                out.frontier = q.len();
            }
            PHASE_PUSH => {
                // Settle every owned frontier node; contributions to
                // out-neighbors go to the receiving owner's outbox — the
                // hot accumulate stays single-writer, no atomics.
                // SAFETY: per the ownership discipline on `ParShared`.
                let q = unsafe { sh.queues.at_mut(w) };
                for &i in q.iter() {
                    let iu = i as usize;
                    unsafe { *sh.in_queue.at_mut(iu) = false };
                    let rho = unsafe { *sh.residual.at(iu) };
                    if rho.abs() < theta {
                        continue;
                    }
                    out.pushes += 1;
                    unsafe {
                        *sh.rank.at_mut(iu) += rho;
                        *sh.residual.at_mut(iu) = 0.0;
                    }
                    if sh.dangling_mask[iu] {
                        // RedistributeTeleport drops (rescale realized by
                        // the caller's normalization); SelfLoop keeps α·ρ
                        // in place, routed through the self-outbox so the
                        // re-threshold happens uniformly at the merge.
                        // (`Renormalize` never reaches the push with
                        // dangling nodes — engine gate.)
                        if sh.policy == DanglingPolicy::SelfLoop {
                            unsafe { sh.outboxes.at_mut(w * sh.workers + w) }
                                .push((i, sh.alpha * rho));
                        }
                        continue;
                    }
                    out.work += sh.graph.out_degree(i) as usize;
                    sh.op.scatter(sh.graph, iu, sh.alpha * rho, |j, c| {
                        let o = sh.owner[j] as usize;
                        unsafe { sh.outboxes.at_mut(w * sh.workers + o) }.push((j as u32, c));
                    });
                }
                q.clear();
            }
            PHASE_MERGE => {
                // Accumulate every contribution addressed to this owner's
                // range; enqueue nodes the additions lifted above θ.
                // SAFETY: per the ownership discipline on `ParShared`.
                for src in 0..sh.workers {
                    let ob = unsafe { sh.outboxes.at_mut(src * sh.workers + w) };
                    for &(j, c) in ob.iter() {
                        let ju = j as usize;
                        unsafe {
                            let r = sh.residual.at_mut(ju);
                            *r += c;
                            if !*sh.touched_mark.at(ju) {
                                *sh.touched_mark.at_mut(ju) = true;
                                sh.touched_parts.at_mut(w).push(j);
                            }
                            if r.abs() >= theta && !*sh.in_queue.at(ju) {
                                *sh.in_queue.at_mut(ju) = true;
                                sh.queues.at_mut(w).push(j);
                            }
                        }
                    }
                    ob.clear();
                }
                out.frontier = unsafe { sh.queues.at(w) }.len();
            }
            _ => {
                // PHASE_MASS: exact per-owner |r| partial over the touched
                // set — the round's drift-free mass re-derivation.
                // SAFETY: owned indices only.
                let mine = unsafe { sh.touched_parts.at(w) };
                out.mass = mine
                    .iter()
                    .map(|&v| unsafe { *sh.residual.at(v as usize) }.abs())
                    .sum();
            }
        }
        // SAFETY: cell `w` is written only by worker `w`.
        unsafe { *sh.partials[w].0.get() = out };
        sh.end.wait();
    }
}

/// Index range of the edits whose source is `v` in a `(source, target)`-
/// sorted edit list.
fn source_range(list: &[(u32, u32)], v: u32) -> std::ops::Range<usize> {
    let lo = list.partition_point(|&(s, _)| s < v);
    let hi = list.partition_point(|&(s, _)| s <= v);
    lo..hi
}

/// Index range of the re-weight records whose source is `v` in a sorted
/// `(source, target, old, new)` list.
fn reweight_range(list: &[(u32, u32, f64, f64)], v: u32) -> std::ops::Range<usize> {
    let lo = list.partition_point(|&(s, _, _, _)| s < v);
    let hi = list.partition_point(|&(s, _, _, _)| s <= v);
    lo..hi
}

/// Restore the between-solves invariant (all-zero / all-false) by visiting
/// exactly the entries this solve dirtied.
fn reset(scratch: &mut ResidualScratch) {
    for &v in &scratch.touched {
        scratch.residual[v as usize] = 0.0;
        scratch.touched_mark[v as usize] = false;
    }
    scratch.touched.clear();
    for &v in &scratch.cols {
        scratch.col_mark[v as usize] = false;
    }
    scratch.cols.clear();
    while let Some(v) = scratch.queue.pop_front() {
        scratch.in_queue[v as usize] = false;
    }
}
