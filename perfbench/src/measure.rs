//! Sample statistics, the block timer, the bounded sample buffer, the
//! repetition schedule and the per-phase wall/steal lines every run
//! reports through.
//!
//! Medians are nearest-rank over the raw samples. A tail is reported only
//! at a percentile that still has at least [`MIN_BEYOND`] samples strictly
//! beyond it, so a p99 over 300 samples is never quoted: the helper steps
//! down the ladder to the highest percentile the sample count supports and
//! says which one it picked. Its value is the mean of the order statistics
//! within one binomial standard deviation of the nearest rank (a uniform
//! kernel quantile estimate): with ten samples beyond a p95, one order
//! statistic alone moved the tail by 25% between otherwise equal runs.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Samples a tail percentile must leave beyond it.
const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Ascending copy of `xs` (NaNs last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q ∈ [0, 1]` of ascending `sorted` samples
/// (NaN when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of unsorted samples (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 0.5)
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest ladder percentile no higher than `want` that leaves at least
/// [`MIN_BEYOND`] samples beyond it. `None` when even the median does not
/// (fewer than 20 samples).
pub fn tail(xs: &[f64], want: f64) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    LADDER
        .iter()
        .copied()
        .filter(|&q| q <= want)
        .find(|&q| n > 0 && n - rank(n, q) >= MIN_BEYOND)
        .map(|q| Tail {
            q,
            value: kernel_quantile(&s, q),
            samples: n,
            beyond: n - rank(n, q),
        })
}

/// Mean of the ascending `sorted` samples whose rank lies within
/// `ceil(sqrt(n q (1 - q)))` of the nearest rank of `q`.
fn kernel_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let centre = rank(n, q) - 1;
    let half = (n as f64 * q * (1.0 - q)).sqrt().ceil() as usize;
    let window = &sorted[centre.saturating_sub(half)..(centre + half + 1).min(n)];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Times blocks of operations and knows what its own clock reads cost.
///
/// Point reads cost tens of nanoseconds, about as much as one
/// `Instant::now()`, so reads are timed per block and the clock's cost is
/// reported beside the result instead of being silently folded into it.
#[derive(Debug, Clone, Copy)]
pub struct BlockTimer {
    /// Mean cost of one clock read, in ns.
    pub clock_ns: f64,
}

impl BlockTimer {
    /// Measure the clock: the mean of `reads` back-to-back reads.
    pub fn calibrate(reads: usize) -> Self {
        let reads = reads.max(1);
        let start = Instant::now();
        for _ in 0..reads {
            black_box(Instant::now());
        }
        let ns = start.elapsed().as_nanos() as f64;
        Self {
            clock_ns: ns / reads as f64,
        }
    }

    /// The clock's share of a per-operation figure timed over a block of
    /// `ops` operations (two clock reads bracket the block), in ns.
    pub fn overhead_per_op_ns(&self, ops: usize) -> f64 {
        self.clock_ns / ops.max(1) as f64
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host CPU time counters (`/proc/stat`, all CPUs), in jiffies.
#[derive(Debug, Clone, Copy)]
struct CpuTimes {
    total: u64,
    steal: u64,
}

fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some(CpuTimes {
        total: fields.iter().take(8).sum(),
        steal: *fields.get(7)?,
    })
}

/// Share of host CPU time the hypervisor stole since `since` (0 when the
/// counters are unavailable).
fn steal_share(since: Option<CpuTimes>) -> f64 {
    match (since, cpu_times()) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

/// An evenly spaced subsample of a stream of values in fixed memory: one
/// offered value in `stride` is kept, and whenever the buffer fills, every
/// other kept value is dropped and the stride doubles. The buffer is
/// allocated before the stream starts, so the harness's own footprint does
/// not grow with how many operations the program completes, and the kept
/// values stay spread over the whole stream.
#[derive(Debug)]
pub struct Thinned {
    kept: Vec<f64>,
    cap: usize,
    stride: u64,
    offered: u64,
}

impl Thinned {
    /// An empty buffer that keeps at most `cap` values (`cap` even, so a
    /// value offered right when the buffer fills still falls on the
    /// doubled stride).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 2 && cap.is_multiple_of(2), "capacity must be even");
        Self {
            kept: Vec::with_capacity(cap),
            cap,
            stride: 1,
            offered: 0,
        }
    }

    /// Offer one value.
    pub fn push(&mut self, x: f64) {
        if self.offered.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            self.kept.push(x);
        }
        self.offered += 1;
    }

    /// The kept values, in offer order.
    pub fn kept(&self) -> &[f64] {
        &self.kept
    }
}

/// The repetitions, of `reps` spread evenly over `slots` consecutive
/// slots, that run in slot `slot`. Spreading a phase's repetitions over
/// the run, instead of running them back to back, makes each median
/// average over the shared host's slow and fast spells (which last
/// seconds) instead of sampling whichever one the phase fell in.
pub fn spread(reps: usize, slots: usize, slot: usize) -> Range<usize> {
    (slot * reps).div_ceil(slots)..((slot + 1) * reps).div_ceil(slots)
}

/// Wall time and hypervisor steal of consecutive run phases, for the
/// context lines: on a shared host a slow phase usually shows up as steal.
#[derive(Debug)]
pub struct Phases {
    since: Instant,
    cpu: Option<CpuTimes>,
    /// One line per finished phase.
    pub lines: Vec<String>,
}

impl Phases {
    /// Start timing the first phase.
    pub fn start() -> Self {
        Self {
            since: Instant::now(),
            cpu: cpu_times(),
            lines: Vec::new(),
        }
    }

    /// Close the current phase under `name` and start the next.
    pub fn mark(&mut self, name: &str) {
        let steal = 100.0 * steal_share(self.cpu);
        self.lines.push(format!(
            "phase {name}: {:.2} s, steal {steal:.1}%",
            self.since.elapsed().as_secs_f64()
        ));
        self.since = Instant::now();
        self.cpu = cpu_times();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000), 0.999).unwrap();
        assert_eq!((t.q, t.value, t.samples, t.beyond), (0.99, 990.0, 1000, 10));
        // 200 samples: p95 leaves 10, p99 only 2.
        let t = tail(&ramp(200), 0.99).unwrap();
        assert_eq!((t.q, t.value, t.samples, t.beyond), (0.95, 190.0, 200, 10));
        // 199 samples: p95 leaves 9, so the helper steps down to p90.
        let t = tail(&ramp(199), 0.95).unwrap();
        assert_eq!((t.q, t.samples, t.beyond), (0.9, 199, 19));
        // The request caps the ladder even when more is supported.
        assert_eq!(tail(&ramp(100_000), 0.95).unwrap().q, 0.95);
        // Unordered input is fine.
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(tail(&shuffled, 0.95).unwrap().value, 190.0);
    }

    #[test]
    fn tail_averages_the_ranks_around_the_percentile() {
        // n = 200, q = 0.95: nearest rank 190, half-width ceil(3.08) = 4,
        // so ranks 186..=194 are averaged. Ranks 1..=189 read 1..=189 and
        // ranks 190..=200 read 1000..=1010.
        let xs: Vec<f64> = (1..=189).chain(1000..=1010).map(f64::from).collect();
        let t = tail(&xs, 0.95).unwrap();
        let expected = (186..=189).chain(1000..=1004).map(f64::from).sum::<f64>() / 9.0;
        assert_eq!((t.q, t.samples, t.beyond), (0.95, 200, 10));
        assert!(
            (t.value - expected).abs() < 1e-9,
            "{} vs {expected}",
            t.value
        );
    }

    #[test]
    fn tail_refuses_too_few_samples() {
        assert!(tail(&ramp(19), 0.99).is_none());
        assert!(tail(&[], 0.5).is_none());
        assert_eq!(tail(&ramp(20), 0.99).unwrap().q, 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn block_timer_reports_its_clock_overhead() {
        let timer = BlockTimer::calibrate(10_000);
        assert!(timer.clock_ns.is_finite() && timer.clock_ns > 0.0);
        assert_eq!(timer.overhead_per_op_ns(256), timer.clock_ns / 256.0);
        assert!(timer.overhead_per_op_ns(256) < timer.clock_ns);
    }

    #[test]
    fn thinned_keeps_an_evenly_spaced_subsample() {
        let mut t = Thinned::with_capacity(64);
        for i in 0..1000 {
            t.push(f64::from(i));
        }
        // 1000 offers into 64 slots: the stride doubled to 16, which keeps
        // 0, 16, ..., 992 (63 values).
        let expected: Vec<f64> = (0..1000).step_by(16).map(f64::from).collect();
        assert_eq!(t.kept(), &expected[..]);
        // Exactly full, then one more: compaction keeps the new value.
        let mut t = Thinned::with_capacity(4);
        for i in 0..5 {
            t.push(f64::from(i));
        }
        assert_eq!(t.kept(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn spread_places_every_repetition_once_and_evenly() {
        for (reps, slots) in [(3, 5), (10, 5), (10, 20), (5, 5), (0, 4)] {
            let per: Vec<Range<usize>> = (0..slots).map(|s| spread(reps, slots, s)).collect();
            let all: Vec<usize> = per.iter().cloned().flatten().collect();
            assert_eq!(all, (0..reps).collect::<Vec<_>>(), "{reps} over {slots}");
            let most = per.iter().map(|r| r.len()).max().unwrap_or(0);
            let least = per.iter().map(|r| r.len()).min().unwrap_or(0);
            assert!(most - least <= 1, "{reps} over {slots}: {per:?}");
        }
        assert_eq!(spread(3, 5, 0), 0..1);
        assert_eq!(spread(3, 5, 2), 2..2);
    }

    #[test]
    fn phases_name_each_phase() {
        let mut phases = Phases::start();
        phases.mark("one");
        phases.mark("two");
        assert_eq!(phases.lines.len(), 2);
        assert!(phases.lines[1].starts_with("phase two: "));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
