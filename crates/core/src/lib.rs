//! # d2pr-core
//!
//! Degree de-coupled PageRank (D2PR) — the primary contribution of
//! *"PageRank Revisited: On the Relationship between Node Degrees and Node
//! Significances in Different Applications"* (Kim, Candan, Sapino; EDBT/ICDT
//! 2016 Workshops) — plus the random-walk machinery it rests on:
//!
//! * [`kernel`] — the numerically-safe `deg^(−p)` de-coupling kernel;
//! * [`transition`] — transition models (`Standard`, `DegreeDecoupled`,
//!   `Blended`) and the materialized column-stochastic operator;
//! * [`mod@pagerank`] — the reference power iteration with dangling-node
//!   policies: the oracle every other path is tested against;
//! * [`personalized`] — teleport-vector constructors and PPR+D2PR;
//! * [`robust`] — seed-noise-insensitive (robust) personalized PageRank;
//! * [`approx`] — locality-sensitive PPR (forward push, Monte Carlo);
//! * [`engine`] — the production solver: cached CSC operator, persistent
//!   arc-balanced worker pool, in-place operator updates, incremental
//!   re-solves (warm sweep / residual-localized push, auto-selected);
//! * [`serving`] — lock-free double-buffered score publication
//!   ([`serving::ServingEngine`] / [`serving::ScoreReader`]) and the
//!   sharded multi-graph manager ([`serving::ShardManager`]);
//! * [`exec`] — the execution shim: `std` concurrency in production,
//!   scheduler-controlled concurrency under the `sim` feature (the
//!   deterministic-simulation harness lives in the `d2pr-sim` crate);
//! * [`workspace`] — reusable rank/next/teleport buffers shared by solvers;
//! * [`error`] — typed [`error::SolverError`] returned by the solvers;
//! * [`centrality`] — baseline measures (degree, HITS, sampled closeness);
//! * [`d2pr`] — the high-level façade with the paper's parameter defaults.
//!
//! ## The 30-second version
//! ```
//! use d2pr_core::prelude::*;
//! use d2pr_graph::generators::barabasi_albert;
//!
//! let graph = barabasi_albert(200, 3, 42).unwrap();
//! let engine = D2pr::new(&graph);
//!
//! // p > 0 penalizes high-degree destinations, p < 0 boosts them,
//! // p = 0 is conventional PageRank.
//! for p in [-1.0, 0.0, 0.5] {
//!     let result = engine.scores(p).unwrap();
//!     assert!(result.converged);
//! }
//! ```

#![warn(missing_docs)]

pub mod approx;
pub mod centrality;
pub mod d2pr;
pub mod engine;
pub mod error;
pub mod exec;
pub mod kernel;
pub mod pagerank;
pub mod personalized;
pub mod pool;
pub mod residual;
pub mod robust;
pub mod serving;
pub mod transition;
pub mod workspace;

/// Re-exports of the most used types.
pub mod prelude {
    pub use crate::approx::{forward_push, monte_carlo_ppr, ApproxResult};
    pub use crate::d2pr::D2pr;
    pub use crate::engine::{Engine, IncrementalOutcome, ResolveMode, TouchedSet};
    pub use crate::error::{SolverError, UpdateError};
    pub use crate::kernel::DegreeKernel;
    pub use crate::pagerank::{pagerank, DanglingPolicy, PageRankConfig, PageRankResult};
    pub use crate::personalized::{personalized_pagerank, seed_teleport};
    pub use crate::robust::{robust_personalized_pagerank, SeedAggregation};
    pub use crate::serving::{RefreshOutcome, ScoreReader, ServingEngine, ShardManager};
    pub use crate::transition::{TransitionMatrix, TransitionModel};
    pub use crate::workspace::Workspace;
}

pub use crate::d2pr::D2pr;
pub use crate::engine::{Engine, IncrementalOutcome, ResolveMode};
pub use crate::error::{SolverError, UpdateError};
pub use crate::pagerank::{pagerank, PageRankConfig, PageRankResult};
pub use crate::serving::{ScoreReader, ServingEngine, ShardManager};
pub use crate::transition::{TransitionMatrix, TransitionModel};
pub use crate::workspace::Workspace;
