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
use crate::exec::sim_event;
use crate::pagerank::DanglingPolicy;
use crate::workspace::ResidualScratch;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::ArcDelta;
use d2pr_graph::transpose::CscStructure;

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
    touched_out: Option<&mut Vec<u32>>,
) -> LocalizedStats {
    let n = graph.num_nodes();
    scratch.ensure(n);
    let ResidualScratch {
        residual,
        touched_mark,
        touched,
        queue,
        in_queue,
        col_mark,
        cols,
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

    // -- Drain: signed Gauss–Southwell push with an adaptive threshold
    //    schedule.
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
