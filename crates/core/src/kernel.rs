//! The degree de-coupling kernel `deg(v)^(−p)` (paper Equation 1).
//!
//! The kernel is only ever used inside a per-source normalization
//!
//! ```text
//! T_D(j, i) = deg(v_j)^(−p) / Σ_{v_k ∈ neighbor(v_i)} deg(v_k)^(−p)
//! ```
//!
//! so what matters is the *ratio* of kernel values within one neighborhood.
//! Computing `deg^(−p)` directly overflows `f64` once `|p|·ln(deg)` exceeds
//! ~709 (e.g. `deg = 10^6`, `p = −52`), and the paper's desideratum
//! explicitly covers `p ≪ −1` and `p ≫ 1`. We therefore evaluate the whole
//! neighborhood in log space and subtract the maximum exponent before
//! exponentiating — mathematically identical to the direct formula (the
//! shared factor `e^(−m)` cancels in the normalization) but finite for every
//! `p ∈ R`.

/// Accumulator lanes of the blocked gather loops below. Four independent
/// f64 accumulators break the serial dependency chain of a naive `sum +=`
/// loop so the compiler can keep 4 gather+FMA streams in flight (and, with
/// the fixed-width `[_; GATHER_LANES]` blocks, auto-vectorize the weight
/// multiply). See DESIGN.md "Memory layout & kernel" for the inspection
/// notes.
pub(crate) const GATHER_LANES: usize = 4;

/// Blocked gather-sum `Σ values[srcs[k]]` — the inner loop of the pull
/// kernel's degree term (and of its connection term on unweighted
/// graphs): the per-source factors are pre-folded into `values`.
///
/// The loop body works on fixed-width `[u32; GATHER_LANES]` blocks via
/// `chunks_exact`, so the only bounds checks left are the gather reads
/// themselves, elided with `get_unchecked` under the CSC invariant
/// (`src < values.len()`). Four independent accumulator lanes keep the
/// loads pipelined; the pairwise combine at the end is order-stable.
#[inline]
pub(crate) fn gather_plain(srcs: &[u32], values: &[f64]) -> f64 {
    let mut acc = [0.0f64; GATHER_LANES];
    let mut blocks = srcs.chunks_exact(GATHER_LANES);
    for blk in blocks.by_ref() {
        let b: &[u32; GATHER_LANES] = blk.try_into().expect("chunks_exact width");
        for (lane, &src) in acc.iter_mut().zip(b) {
            // SAFETY: every CSC source id is < num_nodes == values.len().
            *lane += unsafe { *values.get_unchecked(src as usize) };
        }
    }
    let mut tail = 0.0;
    for &src in blocks.remainder() {
        tail += values[src as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Blocked weighted gather `Σ weights[k] · values[srcs[k]]` — the inner
/// loop of the pull kernel's connection term on weighted graphs, where
/// `weights` are the arc weights in CSC order and `values` the iterate
/// scaled by `β/Θ_i`. Same blocked shape as [`gather_plain`]; `weights`
/// parallels `srcs` (both are slices of one CSC span), so the lanes
/// multiply from a bounds-check-free fixed-width block on each side.
#[inline]
pub(crate) fn gather_weighted(srcs: &[u32], weights: &[f64], values: &[f64]) -> f64 {
    debug_assert_eq!(srcs.len(), weights.len());
    let mut acc = [0.0f64; GATHER_LANES];
    let mut sb = srcs.chunks_exact(GATHER_LANES);
    let mut wb = weights.chunks_exact(GATHER_LANES);
    for (s, w) in sb.by_ref().zip(wb.by_ref()) {
        let s: &[u32; GATHER_LANES] = s.try_into().expect("chunks_exact width");
        let w: &[f64; GATHER_LANES] = w.try_into().expect("chunks_exact width");
        for lane in 0..GATHER_LANES {
            // SAFETY: every CSC source id is < num_nodes == values.len().
            acc[lane] += w[lane] * unsafe { *values.get_unchecked(s[lane] as usize) };
        }
    }
    let mut tail = 0.0;
    for (&src, &w) in sb.remainder().iter().zip(wb.remainder()) {
        tail += w * values[src as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Evaluates `x^(−p)` ratios within a neighborhood, in log space.
///
/// Degree-0 destinations (possible in directed graphs: a sink that is some
/// other node's out-neighbor) have an undefined kernel value; we clamp the
/// argument to `max(x, 1)`, matching the paper's implicit assumption that
/// every transition destination has at least one edge (its graphs are
/// co-occurrence projections, where endpoints always have degree ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeKernel {
    /// De-coupling weight `p`. `p = 0` reproduces conventional PageRank;
    /// `p > 0` penalizes high-degree destinations; `p < 0` boosts them.
    pub p: f64,
}

impl DegreeKernel {
    /// Create a kernel with de-coupling weight `p`.
    ///
    /// # Panics
    /// Panics when `p` is not finite — the sweep code must never feed NaN in.
    pub fn new(p: f64) -> Self {
        assert!(p.is_finite(), "degree de-coupling weight p must be finite");
        Self { p }
    }

    /// Log-kernel value `−p · ln(max(x, 1))`.
    #[inline]
    pub fn log_weight(&self, x: f64) -> f64 {
        -self.p * x.max(1.0).ln()
    }

    /// Fill `out` with the normalized transition probabilities for one
    /// neighborhood whose destination degrees (or Θ values) are `degs`.
    ///
    /// Guarantees: every output is finite, non-negative, and the outputs sum
    /// to 1 (up to rounding) whenever `degs` is non-empty.
    pub fn normalize_into(&self, degs: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if degs.is_empty() {
            return;
        }
        if self.p == 0.0 {
            // Fast path: conventional PageRank, uniform over neighbors.
            let u = 1.0 / degs.len() as f64;
            out.resize(degs.len(), u);
            return;
        }
        let mut max_log = f64::NEG_INFINITY;
        out.reserve(degs.len());
        for &d in degs {
            let lw = self.log_weight(d);
            out.push(lw);
            if lw > max_log {
                max_log = lw;
            }
        }
        let mut sum = 0.0;
        for lw in out.iter_mut() {
            *lw = (*lw - max_log).exp();
            sum += *lw;
        }
        for w in out.iter_mut() {
            *w /= sum;
        }
    }

    /// Convenience wrapper returning a fresh vector.
    pub fn normalize(&self, degs: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.normalize_into(degs, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    /// Paper Figure 1(b): node A's neighbors B, C, D have degrees 2, 3, 1.
    #[test]
    fn paper_figure1_p0() {
        let probs = DegreeKernel::new(0.0).normalize(&[2.0, 3.0, 1.0]);
        assert!(probs.iter().all(|&x| close(x, 1.0 / 3.0, 1e-12)));
    }

    #[test]
    fn paper_figure1_p2() {
        // Paper: 0.18, 0.08, 0.74 (rounded)
        let probs = DegreeKernel::new(2.0).normalize(&[2.0, 3.0, 1.0]);
        assert!(close(probs[0], 0.1836, 5e-4), "B got {}", probs[0]);
        assert!(close(probs[1], 0.0816, 5e-4), "C got {}", probs[1]);
        assert!(close(probs[2], 0.7347, 5e-4), "D got {}", probs[2]);
    }

    #[test]
    fn paper_figure1_p_minus2() {
        // Paper: 0.29, 0.64, 0.07 (rounded)
        let probs = DegreeKernel::new(-2.0).normalize(&[2.0, 3.0, 1.0]);
        assert!(close(probs[0], 2.0 / 7.0, 1e-12));
        assert!(close(probs[1], 9.0 / 14.0, 1e-12));
        assert!(close(probs[2], 1.0 / 14.0, 1e-12));
    }

    #[test]
    fn p_minus_one_is_degree_proportional() {
        // Desideratum: p = −1 ⇒ transition probabilities ∝ neighbor degrees.
        let probs = DegreeKernel::new(-1.0).normalize(&[2.0, 3.0, 5.0]);
        assert!(close(probs[0], 0.2, 1e-12));
        assert!(close(probs[1], 0.3, 1e-12));
        assert!(close(probs[2], 0.5, 1e-12));
    }

    #[test]
    fn p_plus_one_is_inverse_degree() {
        // Desideratum: p = 1 ⇒ probabilities ∝ 1/degree.
        let probs = DegreeKernel::new(1.0).normalize(&[2.0, 4.0]);
        // 1/2 : 1/4 = 2 : 1
        assert!(close(probs[0], 2.0 / 3.0, 1e-12));
        assert!(close(probs[1], 1.0 / 3.0, 1e-12));
    }

    #[test]
    fn extreme_negative_p_selects_highest_degree() {
        // Desideratum: p ≪ −1 ⇒ ~100% towards the highest-degree neighbor.
        let probs = DegreeKernel::new(-500.0).normalize(&[2.0, 1000.0, 7.0]);
        assert!(probs[1] > 0.999999, "hub prob {}", probs[1]);
        assert!(probs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn extreme_positive_p_selects_lowest_degree() {
        // Desideratum: p ≫ 1 ⇒ ~100% towards the lowest-degree neighbor.
        let probs = DegreeKernel::new(500.0).normalize(&[2.0, 1000.0, 7.0]);
        assert!(probs[0] > 0.999999, "low-degree prob {}", probs[0]);
        assert!(probs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn huge_degrees_do_not_overflow() {
        let probs = DegreeKernel::new(-300.0).normalize(&[1e6, 1e6, 1.0]);
        assert!(probs.iter().all(|x| x.is_finite()));
        assert!(close(probs[0], 0.5, 1e-9));
        assert!(close(probs[1], 0.5, 1e-9));
        assert!(probs[2] < 1e-12);
    }

    #[test]
    fn zero_degree_clamped_to_one() {
        // deg 0 behaves like deg 1 under the documented clamp.
        let a = DegreeKernel::new(2.0).normalize(&[0.0, 2.0]);
        let b = DegreeKernel::new(2.0).normalize(&[1.0, 2.0]);
        assert!(close(a[0], b[0], 1e-12));
        assert!(close(a[1], b[1], 1e-12));
    }

    #[test]
    fn fractional_theta_below_one_clamped() {
        // Weighted graphs can have Θ < 1; the clamp keeps the kernel monotone
        // and avoids sign flips of ln.
        let probs = DegreeKernel::new(1.0).normalize(&[0.25, 4.0]);
        let expect = DegreeKernel::new(1.0).normalize(&[1.0, 4.0]);
        assert_eq!(probs, expect);
    }

    #[test]
    fn outputs_always_sum_to_one() {
        for &p in &[-4.0, -1.5, 0.0, 0.5, 3.0, 100.0] {
            let probs = DegreeKernel::new(p).normalize(&[1.0, 2.0, 3.0, 50.0, 883.0]);
            let sum: f64 = probs.iter().sum();
            assert!(close(sum, 1.0, 1e-12), "p={p} sum={sum}");
        }
    }

    #[test]
    fn empty_neighborhood_yields_empty() {
        assert!(DegreeKernel::new(1.0).normalize(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_p_rejected() {
        DegreeKernel::new(f64::NAN);
    }

    #[test]
    fn blocked_gathers_match_naive_at_every_block_remainder() {
        // Cover all chunks_exact remainders (0..GATHER_LANES) and longer rows.
        let values: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() + 2.0).collect();
        for len in 0..=19usize {
            let srcs: Vec<u32> = (0..len).map(|k| ((k * 13 + 7) % 64) as u32).collect();
            let weights: Vec<f64> = (0..len).map(|k| 0.25 + (k as f64) * 0.125).collect();
            let naive_plain: f64 = srcs.iter().map(|&s| values[s as usize]).sum();
            let naive_weighted: f64 = srcs
                .iter()
                .zip(&weights)
                .map(|(&s, &w)| w * values[s as usize])
                .sum();
            let p = gather_plain(&srcs, &values);
            let w = gather_weighted(&srcs, &weights, &values);
            assert!(
                (p - naive_plain).abs() < 1e-12,
                "len {len}: {p} vs {naive_plain}"
            );
            assert!(
                (w - naive_weighted).abs() < 1e-12,
                "len {len}: {w} vs {naive_weighted}"
            );
        }
    }

    #[test]
    fn equal_degrees_are_uniform_for_any_p() {
        for &p in &[-3.0, -0.5, 0.0, 0.5, 3.0] {
            let probs = DegreeKernel::new(p).normalize(&[7.0, 7.0, 7.0, 7.0]);
            for &x in &probs {
                assert!(close(x, 0.25, 1e-12), "p={p}");
            }
        }
    }
}
