//! Fault-class tests for the deterministic simulation harness.
//!
//! Two disjoint suites share this file:
//!
//! * **Default build** — a seed batch must pass every invariant, and each
//!   injected fault class (slow readers pinning a retiring slot, an
//!   `UpdateError` mid-ingest, a panicking scenario task) must produce
//!   its documented response.
//! * **`--features sim-bug`** — the planted publish-ordering bug in
//!   `d2pr-core` (the writer skips the reader drain) must be *caught* by
//!   the shadow model, shrunk, and reproduced from the shrunk schedule.
//!   The two suites are mutually exclusive: with the bug compiled in, the
//!   default assertions would rightly fail.

use d2pr_sim::scenario::{run_scenario, run_scenario_with, ScenarioConfig};

#[cfg(not(feature = "sim-bug"))]
mod healthy {
    use super::*;
    use d2pr_sim::shrink::shrink;

    /// A batch of seeded schedules all uphold the five invariants, and the
    /// sweep as a whole exercises the interesting interleavings: reads
    /// landing mid-refresh and writers spinning in their drain loop. (The
    /// large sweeps run in CI through the release `sim` binary; this keeps
    /// the debug-mode test suite quick.)
    #[test]
    fn seed_batch_upholds_all_invariants() {
        let mut mid_refresh = 0;
        let mut drain_spins = 0;
        let mut pin_retries = 0;
        for seed in 0..20 {
            let cfg = ScenarioConfig::from_seed(seed);
            let report = run_scenario(&cfg).unwrap_or_else(|f| panic!("seed={seed} failed:\n{f}"));
            mid_refresh += report.metrics.mid_refresh_reads;
            drain_spins += report.metrics.drain_spins;
            pin_retries += report.metrics.pin_retries;
        }
        assert!(mid_refresh > 0, "no read ever landed during a refresh");
        assert!(drain_spins > 0, "no writer ever waited on a pinned reader");
        assert!(pin_retries > 0, "no pin ever raced a publication");
    }

    /// Reader parity across node-growth publishes and tombstone masking:
    /// force node churn onto a few seeds (covering both graph-size bands
    /// and both thread counts) and let the scenario's parity check — which
    /// replicates the serving layer's teleport zero-extension and
    /// tombstone rules — vet every snapshot the readers took.
    #[test]
    fn node_churn_scenarios_uphold_reader_parity() {
        let mut grown_runs = 0;
        for seed in [1, 4, 9, 13, 19] {
            let mut cfg = ScenarioConfig::from_seed(seed);
            cfg.node_churn = true;
            let report = run_scenario(&cfg).unwrap_or_else(|f| panic!("seed={seed} failed:\n{f}"));
            grown_runs += u64::from(report.metrics.publishes > 0);
        }
        assert_eq!(grown_runs, 5, "every node-churn run must publish");
    }

    /// A successful run replays exactly from its recorded choices.
    #[test]
    fn successful_runs_replay_deterministically() {
        let cfg = ScenarioConfig::from_seed(11);
        let a = run_scenario(&cfg).expect("seed 11 passes");
        let b = run_scenario_with(&cfg, Some(a.choices.clone())).expect("replay passes");
        assert_eq!(a.choices, b.choices, "replay diverged from the recording");
        assert_eq!(
            a.metrics.publishes, b.metrics.publishes,
            "replay observed different publishes"
        );
    }

    /// Fault class: `UpdateError` mid-ingest. The scenario injects an
    /// out-of-range batch between generations and asserts (inside the
    /// writer task) that the failed `ingest_all` leaves every published
    /// generation unchanged and the manager serviceable.
    #[test]
    fn failed_ingest_leaves_published_generations_intact() {
        let mut cfg = ScenarioConfig::from_seed(21);
        cfg.invalid_batch = true;
        let report = run_scenario(&cfg).unwrap_or_else(|f| panic!("{f}"));
        // Writer still publishes every good batch on both shards.
        assert_eq!(report.metrics.publishes, 2 * cfg.batches as u64);
    }

    /// Fault class: pathologically slow readers. Holding pinned readers
    /// out of the schedule forces the writer into its drain loop; the run
    /// must still complete (liveness) with every invariant intact.
    #[test]
    fn slow_readers_pin_the_retiring_slot_without_deadlock() {
        let mut spins = 0;
        for seed in [2, 7, 12, 22] {
            let mut cfg = ScenarioConfig::from_seed(seed);
            cfg.chaos.pin_hold_steps = 60;
            let report = run_scenario(&cfg).unwrap_or_else(|f| panic!("seed={seed}:\n{f}"));
            spins += report.metrics.drain_spins;
        }
        assert!(spins > 0, "slow-reader chaos never made a writer spin");
    }

    /// Fault class: a scenario task panics. The harness reports
    /// `task-panic` instead of hanging.
    #[test]
    fn injected_task_panic_fails_loudly_not_silently() {
        let mut cfg = ScenarioConfig::from_seed(5);
        // First publication attempt: the granted writer panics instead.
        cfg.chaos.panic_at = Some(("serving.publish".to_string(), 1));
        let failure = run_scenario(&cfg).expect_err("injected panic must fail the run");
        assert_eq!(failure.kind, "task-panic", "unexpected failure:\n{failure}");
        assert!(
            failure.message.contains("chaos: injected panic"),
            "wrong panic surfaced:\n{failure}"
        );
    }

    /// A failing schedule shrinks to a prefix that still reproduces the
    /// same failure kind.
    #[test]
    fn failures_shrink_to_a_replayable_prefix() {
        let mut cfg = ScenarioConfig::from_seed(5);
        cfg.chaos.panic_at = Some(("serving.publish".to_string(), 1));
        let failure = run_scenario(&cfg).expect_err("injected panic must fail the run");
        let repro = shrink(cfg.seed, &failure, |p| run_scenario_with(&cfg, Some(p)));
        assert_eq!(repro.kind, "task-panic");
        assert!(repro.schedule.len() <= failure.choices.len());
        let replayed = run_scenario_with(&cfg, Some(repro.schedule.clone()))
            .expect_err("shrunk schedule must still fail");
        assert_eq!(replayed.kind, "task-panic");
    }
}

#[cfg(feature = "sim-bug")]
mod planted_bug {
    use super::*;
    use d2pr_sim::shrink::shrink;

    /// The planted publish-ordering bug (`begin_write` skips the reader
    /// drain) must be caught by the shadow model within a small seed
    /// sweep, shrink to a printable schedule, and reproduce from it.
    #[test]
    fn planted_drain_skip_is_caught_and_shrunk() {
        let mut caught = None;
        for seed in 0..64 {
            let cfg = ScenarioConfig::from_seed(seed);
            if let Err(failure) = run_scenario(&cfg) {
                caught = Some((cfg, failure));
                break;
            }
        }
        let (cfg, failure) =
            caught.expect("64 seeds explored without catching the planted drain skip");
        assert_eq!(
            failure.kind, "write-begin-while-pinned",
            "planted bug surfaced as the wrong class:\n{failure}"
        );

        let repro = shrink(cfg.seed, &failure, |p| run_scenario_with(&cfg, Some(p)));
        println!("planted-bug repro: {repro}");
        assert_eq!(repro.kind, "write-begin-while-pinned");
        let replayed = run_scenario_with(&cfg, Some(repro.schedule.clone()))
            .expect_err("shrunk schedule must still trip the planted bug");
        assert_eq!(replayed.kind, "write-begin-while-pinned");
    }
}
