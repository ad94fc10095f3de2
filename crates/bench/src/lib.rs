//! Shared fixtures for the Criterion benchmark suite.
//!
//! Each bench target in `benches/` regenerates one of the paper's tables or
//! figures at bench scale (small enough for Criterion's repeated sampling,
//! large enough that the measured kernels dominate setup noise). Generation
//! is deterministic, so every Criterion sample measures identical work.

pub mod perf_guard;

use d2pr_datagen::worlds::{Dataset, World};
use d2pr_graph::csr::CsrGraph;

/// Scale used by the bench suite (relative to the paper's Table 3 sizes).
/// Chosen so a full `cargo bench --workspace` finishes in minutes.
pub const BENCH_SCALE: f64 = 0.02;

/// Seed shared by all bench fixtures.
pub const BENCH_SEED: u64 = 0xBE_5C;

/// Generate the world for one dataset at bench scale.
pub fn bench_world(dataset: Dataset) -> World {
    World::generate(dataset, BENCH_SCALE, BENCH_SEED).expect("bench world generates")
}

/// An unweighted paper graph plus its significance at bench scale.
pub fn bench_graph(graph: d2pr_datagen::worlds::PaperGraph) -> (CsrGraph, Vec<f64>) {
    let world = bench_world(graph.dataset());
    let (g, s) = graph.view(&world);
    (g.to_unweighted(), s.to_vec())
}

/// A weighted paper graph plus its significance at bench scale.
pub fn bench_graph_weighted(graph: d2pr_datagen::worlds::PaperGraph) -> (CsrGraph, Vec<f64>) {
    let world = bench_world(graph.dataset());
    let (g, s) = graph.view(&world);
    (g.clone(), s.to_vec())
}

/// The host's CPU count as the benches record it in their `host_cpus`
/// marker (1 when the OS refuses to say).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds for one recorded benchmark, using the statistic the
/// current build mode reports: **minimum**-of-samples under the `smoke`
/// feature (the CI perf-guard input — robust against scheduler stalls on
/// shared runners) and the historical **mean** for the committed
/// full-scale trajectory. The one place the policy lives; both bench
/// targets and their axis recorders go through it.
pub fn report_ms(c: &criterion::Criterion, name: &str) -> f64 {
    let d = if cfg!(feature = "smoke") {
        c.min_of(name)
    } else {
        c.mean_of(name)
    };
    d.expect("benchmark was measured").as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2pr_datagen::worlds::PaperGraph;

    #[test]
    fn fixtures_generate() {
        let (g, s) = bench_graph(PaperGraph::ImdbActorActor);
        assert!(g.num_nodes() > 0);
        assert_eq!(g.num_nodes(), s.len());
        let (gw, _) = bench_graph_weighted(PaperGraph::ImdbActorActor);
        assert!(gw.is_weighted());
    }
}
