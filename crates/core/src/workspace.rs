//! Reusable solver buffers.
//!
//! Every PageRank-family solve needs the same scratch memory: the current
//! iterate, the next iterate, and (optionally) a normalized teleport
//! distribution. Allocating those per call is wasteful in exactly the place
//! the paper's experiments hammer hardest — parameter sweeps running
//! hundreds of solves on one graph. A [`Workspace`] owns the buffers and is
//! threaded through [`mod@crate::pagerank`], [`crate::engine`], and
//! [`crate::d2pr::D2pr`]; warmed up, repeated solves perform no buffer
//! allocations at all.

use crate::error::SolverError;
use std::collections::VecDeque;

/// Scratch state of the residual-localized solver ([`crate::residual`]):
/// the dense signed-residual array, the epochless touched set (a mark array
/// plus the list of marked nodes), the FIFO push queue with its in-queue
/// flags, and the changed-column marks used during frontier construction.
///
/// Invariant between solves: `residual` is all-zero and every mark/flag
/// array is all-false — maintained by resetting exactly the entries named
/// in `touched`/`cols` at the end of each solve, so steady-state serving
/// performs no `O(n)` clears and, once the arrays are sized for the graph,
/// no allocations at all.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResidualScratch {
    /// Dense signed residual `r = b + α·M·x − x` (sparse in practice).
    pub(crate) residual: Vec<f64>,
    /// `touched_mark[v]` ⇔ `v` appears in `touched`.
    pub(crate) touched_mark: Vec<bool>,
    /// Every node whose residual was set this solve.
    pub(crate) touched: Vec<u32>,
    /// FIFO queue of push candidates.
    pub(crate) queue: VecDeque<u32>,
    /// `in_queue[v]` ⇔ `v` is currently enqueued.
    pub(crate) in_queue: Vec<bool>,
    /// `col_mark[v]` ⇔ `v` appears in `cols` (changed-column set).
    pub(crate) col_mark: Vec<bool>,
    /// Columns of the operator the delta changed.
    pub(crate) cols: Vec<u32>,
}

impl ResidualScratch {
    /// Size the dense arrays for an `n`-node graph (no-op once sized; the
    /// per-solve lists only ever shrink back to empty).
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.residual.len() < n {
            self.residual.resize(n, 0.0);
            self.touched_mark.resize(n, false);
            self.in_queue.resize(n, false);
            self.col_mark.resize(n, false);
        }
    }
}

/// Scratch for translating serving-layer score vectors across a node
/// permutation ([`crate::serving::ServingEngine`] built with a non-baseline
/// [`d2pr_graph::permute::Layout`]): the previous published scores permuted
/// into internal order, and the freshly solved internal-order scores before
/// they are scattered back into the external-order publish buffer. The
/// buffers keep their capacity across refreshes, so steady-state serving
/// allocates nothing here.
#[derive(Debug, Clone, Default)]
pub(crate) struct PermuteScratch {
    /// Previous scores in internal (permuted) order — warm-start input.
    pub(crate) internal_prev: Vec<f64>,
    /// New scores in internal order — solver output before unpermute.
    pub(crate) internal_next: Vec<f64>,
}

/// Reusable rank/next/teleport buffers shared by all solvers.
///
/// A workspace may be moved freely between graphs and solvers; buffers are
/// (re)sized on use and retain their capacity across calls.
///
/// # Examples
/// ```
/// use d2pr_core::pagerank::{pagerank_with_workspace, PageRankConfig};
/// use d2pr_core::transition::{TransitionMatrix, TransitionModel};
/// use d2pr_core::workspace::Workspace;
/// use d2pr_graph::generators::erdos_renyi_nm;
///
/// let g = erdos_renyi_nm(100, 400, 7).unwrap();
/// let matrix = TransitionMatrix::build(&g, TransitionModel::Standard);
/// let cfg = PageRankConfig::default();
///
/// // One workspace serves many solves; after the first call the rank
/// // buffers are only rewritten, never reallocated.
/// let mut ws = Workspace::with_capacity(g.num_nodes());
/// let first = pagerank_with_workspace(&g, &matrix, &cfg, None, None, &mut ws).unwrap();
/// // Warm-start the next solve from the previous solution via `init`.
/// let again =
///     pagerank_with_workspace(&g, &matrix, &cfg, None, Some(&first.scores), &mut ws).unwrap();
/// assert!(again.iterations <= first.iterations);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Current iterate.
    pub(crate) rank: Vec<f64>,
    /// Next iterate (ping-pong partner of `rank`).
    pub(crate) next: Vec<f64>,
    /// Normalized teleport distribution; empty means "uniform".
    pub(crate) teleport: Vec<f64>,
    /// Residual-localized solver scratch (`Engine::resolve_localized`).
    pub(crate) residual: ResidualScratch,
}

impl Workspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Workspace with buffers pre-reserved for `n`-node graphs.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            rank: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            teleport: Vec::with_capacity(n),
            residual: ResidualScratch::default(),
        }
    }

    /// The current iterate (valid after a solve: the final scores).
    pub fn rank(&self) -> &[f64] {
        &self.rank
    }

    /// Validate and normalize a teleport vector into the workspace.
    /// `None` selects the uniform distribution (stored as "empty").
    /// Returns `true` when a custom teleport is in effect.
    pub(crate) fn set_teleport(
        &mut self,
        n: usize,
        teleport: Option<&[f64]>,
    ) -> Result<bool, SolverError> {
        match teleport {
            None => {
                self.teleport.clear();
                Ok(false)
            }
            Some(t) => {
                if t.len() != n {
                    return Err(SolverError::TeleportLength {
                        got: t.len(),
                        expected: n,
                    });
                }
                let mut sum = 0.0;
                for &x in t {
                    if !x.is_finite() || x < 0.0 {
                        return Err(SolverError::TeleportEntry(x));
                    }
                    sum += x;
                }
                if sum <= 0.0 {
                    return Err(SolverError::TeleportMass);
                }
                self.teleport.clear();
                self.teleport.extend(t.iter().map(|&x| x / sum));
                Ok(true)
            }
        }
    }

    /// Initialize `rank` (from a validated, normalized copy of `init`, or
    /// from the teleport distribution when `init` is `None`) and zero `next`.
    pub(crate) fn init_rank(&mut self, n: usize, init: Option<&[f64]>) -> Result<(), SolverError> {
        self.rank.clear();
        match init {
            Some(r0) => {
                if r0.len() != n {
                    return Err(SolverError::WarmStartLength {
                        got: r0.len(),
                        expected: n,
                    });
                }
                let mut sum = 0.0;
                for &x in r0 {
                    if !x.is_finite() || x < 0.0 {
                        return Err(SolverError::WarmStartMass);
                    }
                    sum += x;
                }
                if sum <= 0.0 {
                    return Err(SolverError::WarmStartMass);
                }
                self.rank.extend(r0.iter().map(|&x| x / sum));
            }
            None => {
                if self.teleport.is_empty() {
                    self.rank.resize(n, 1.0 / n.max(1) as f64);
                } else {
                    self.rank.extend_from_slice(&self.teleport);
                }
            }
        }
        self.next.clear();
        self.next.resize(n, 0.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teleport_normalized_and_validated() {
        let mut ws = Workspace::new();
        assert!(!ws.set_teleport(3, None).unwrap());
        assert!(ws.set_teleport(3, Some(&[2.0, 0.0, 2.0])).unwrap());
        assert_eq!(ws.teleport, vec![0.5, 0.0, 0.5]);
        assert_eq!(
            ws.set_teleport(3, Some(&[1.0])),
            Err(SolverError::TeleportLength {
                got: 1,
                expected: 3
            })
        );
        assert_eq!(
            ws.set_teleport(2, Some(&[1.0, -1.0])),
            Err(SolverError::TeleportEntry(-1.0))
        );
        assert_eq!(
            ws.set_teleport(2, Some(&[0.0, 0.0])),
            Err(SolverError::TeleportMass)
        );
    }

    #[test]
    fn init_rank_defaults_and_warm_start() {
        let mut ws = Workspace::new();
        ws.set_teleport(4, None).unwrap();
        ws.init_rank(4, None).unwrap();
        assert_eq!(ws.rank, vec![0.25; 4]);
        assert_eq!(ws.next, vec![0.0; 4]);

        ws.set_teleport(2, Some(&[3.0, 1.0])).unwrap();
        ws.init_rank(2, None).unwrap();
        assert_eq!(ws.rank, vec![0.75, 0.25]);

        ws.init_rank(2, Some(&[1.0, 3.0])).unwrap();
        assert_eq!(ws.rank, vec![0.25, 0.75]);
        assert_eq!(
            ws.init_rank(2, Some(&[0.0, 0.0])),
            Err(SolverError::WarmStartMass)
        );
        assert_eq!(
            ws.init_rank(2, Some(&[1.0, 2.0, 3.0])),
            Err(SolverError::WarmStartLength {
                got: 3,
                expected: 2
            })
        );
    }
}
