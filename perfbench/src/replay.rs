//! The traced run's ordered replay of the layers a durable ingest runs.
//!
//! A span around `ServingEngine::ingest` cannot split the refresh, so the
//! traced run replays the same batch stream through the public calls
//! `ingest` makes today, in its order, each one spanned; then the in-memory
//! serving path, the WAL and recovery the same way. If a later change
//! restructures `ingest`, `trace.refresh_coverage` drifts instead of the
//! old split being silently misattributed.

use crate::run::{dir_size, Final, Ledger, REPLAY_REPS};
use crate::trace::Tracer;
use crate::world::Inputs;
use d2pr_core::engine::{Engine, TouchedSet};
use d2pr_core::serving::ServingEngine;
use d2pr_graph::delta::DeltaGraph;
use d2pr_store::codec::LogRecord;
use d2pr_store::log::LogWriter;
use d2pr_store::recover::recover_dir;
use d2pr_store::snapshot::{write_snapshot, StoreSnapshot};
use std::path::Path;

/// Counts the replay leaves behind.
pub struct Replay {
    /// `DeltaGraph::overlay_len` after the whole stream.
    pub overlay_arcs_end: f64,
    /// WAL bytes per batch.
    pub log_bytes_per_batch: f64,
}

/// Replay the stream layer by layer, then the WAL, a snapshot of `fin` and
/// recovery of the dropped `store`, recording a span per call. The replay
/// warm-starts each refresh from the unmasked solver output, where serving
/// warm-starts from the tombstone-masked published vector.
pub fn replay(
    inputs: &Inputs,
    work: &Path,
    store: &Path,
    fin: &Final,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Replay {
    let threads = 1;
    // The in-memory serving path on the same stream.
    match ServingEngine::new(inputs.graph.clone(), inputs.model, inputs.serve, threads) {
        Ok(mut serving) => {
            for (i, batch) in inputs.stream.iter().enumerate() {
                let (res, _) = tracer.time("ServingEngine::ingest", Some(i as u64 + 1), || {
                    serving.ingest(batch)
                });
                ledger.record(res.is_ok(), || "in-memory ingest failed".into());
            }
        }
        Err(e) => ledger.record(false, || {
            format!("in-memory serving construction failed: {e}")
        }),
    }

    // The layers `ingest` runs, in its order, on a fresh delta graph.
    let mut dg = DeltaGraph::new(inputs.graph.clone()).expect("valid base graph");
    let base = dg.snapshot();
    let mut engine = Engine::with_threads(&base, threads)
        .with_config(inputs.serve)
        .expect("valid serving config");
    let mut scores = engine.solve_model(inputs.model).expect("cold solve").scores;
    let mut state = Some(engine.into_state());
    let mut out = Vec::new();
    let mut touched = TouchedSet::new();
    for (i, batch) in inputs.stream.iter().enumerate() {
        let id = Some(i as u64 + 1);
        let refresh = tracer.begin("replay.refresh", id);
        let (applied, _) = tracer.time("DeltaGraph::apply_batch", id, || dg.apply_batch(batch));
        let applied = applied.expect("the stream applies cleanly");
        let (snap, _) = tracer.time("DeltaGraph::snapshot", id, || dg.snapshot());
        let prior = state.take().expect("state carried");
        let (patched, _) = tracer.time("EngineState::patched", id, || {
            prior.patched(&snap, &applied.delta)
        });
        let patched = patched.expect("state patches");
        let (revived, _) = tracer.time("Engine::from_state", id, || {
            Engine::from_state(&snap, patched)
        });
        let mut revived = revived.expect("engine revives");
        let (res, _) = tracer.time("Engine::resolve_incremental_tracked", id, || {
            revived.resolve_incremental_tracked(
                &scores,
                None,
                &applied.delta,
                &mut out,
                &mut touched,
            )
        });
        ledger.record(res.is_ok(), || "replayed refresh failed".into());
        std::mem::swap(&mut scores, &mut out);
        state = Some(revived.into_state());
        tracer.end(refresh);
    }
    let overlay_arcs_end = dg.overlay_len() as f64;

    // The WAL the durable path writes, record by record.
    let wal_dir = work.join("replay-wal");
    let _ = std::fs::create_dir_all(&wal_dir);
    let mut log_bytes_per_batch = f64::NAN;
    if let Ok(mut wal) = LogWriter::create(&wal_dir, 0, 0) {
        for (i, batch) in inputs.stream.iter().enumerate() {
            let id = Some(i as u64 + 1);
            let (record, _) = tracer.time("LogRecord::from_batch", id, || {
                LogRecord::from_batch(i as u64 + 1, batch)
            });
            let (res, _) = tracer.time("LogWriter::append", id, || wal.append(&record));
            ledger.record(res.is_ok(), || "WAL append failed".into());
        }
        log_bytes_per_batch = dir_size(&wal_dir) as f64 / inputs.stream.len().max(1) as f64;
    }

    // A snapshot of the final state.
    let snap = StoreSnapshot {
        graph: fin.graph.clone(),
        perm_forward: None,
        scores: fin.scores.clone(),
        generation: fin.generation,
        teleport: None,
        model: inputs.model,
        config: inputs.serve,
        removed: fin.removed.clone(),
    };
    for rep in 0..REPLAY_REPS {
        let dir = work.join(format!("replay-snap-{rep}"));
        let _ = std::fs::create_dir_all(&dir);
        let (res, _) = tracer.time("write_snapshot", None, || write_snapshot(&dir, &snap, 0));
        ledger.record(res.is_ok(), || "snapshot write failed".into());
    }

    // Recovery split into its scan and its revival.
    for _ in 0..REPLAY_REPS {
        let (state, _) = tracer.time("recover_dir", None, || recover_dir(store));
        match state {
            Ok(state) => {
                let (res, _) = tracer.time("ServingEngine::recovered", None, || {
                    ServingEngine::recovered(state.parts, state.model, state.config, threads)
                });
                ledger.record(
                    res.is_ok_and(|(_, o)| o.generation == fin.generation),
                    || "replayed recovery failed".into(),
                );
            }
            Err(e) => ledger.record(false, || format!("recovery scan failed: {e}")),
        }
    }
    Replay {
        overlay_arcs_end,
        log_bytes_per_batch,
    }
}
