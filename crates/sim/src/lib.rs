//! Deterministic simulation harness for the D2PR serving stack.
//!
//! `d2pr-core` compiled with its `sim` feature routes every concurrency
//! decision (the pin/publish/drain atomics of the double-buffered serving
//! layer) through the hook layer in `d2pr_core::exec`. This crate implements those hooks: logical tasks are
//! real OS threads serialized by a seeded scheduler ([`sched`]), a shadow
//! state machine checks the publication protocol at every step
//! ([`shadow`]), a seed-derived reader/writer workload exercises the full
//! `ShardManager` stack ([`scenario`]), and failing schedules shrink to a
//! minimal replayable prefix ([`shrink`]).
//!
//! One `u64` seed determines everything — workload shape, fault plan, and
//! interleaving — so `FAIL seed=<s>` in CI is a complete bug report:
//!
//! ```no_run
//! use d2pr_sim::scenario::{run_scenario, ScenarioConfig};
//! run_scenario(&ScenarioConfig::from_seed(42)).unwrap();
//! ```
//!
//! The `sim` binary sweeps seed ranges in parallel; see `DESIGN.md`
//! ("Deterministic simulation") for the architecture.

#![warn(missing_docs)]

pub mod crash;
pub mod scenario;
pub mod sched;
pub mod shadow;
pub mod shrink;
