//! `d2pr-perfbench`: one seeded workload through the d2pr crates' public
//! APIs, as a client would drive them.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload trickle|churn|sweep --seed N --seconds N --trace 0|1
//! ```
//!
//! Prints every metric as `name value unit`, context lines on stderr, and as
//! the last stdout line one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the per-layer ones, and the spans go to
//! `.bench_trace/<workload>-seed<N>.jsonl`. Exits 1 when an output check
//! failed, 2 on a usage error. Scratch stores live under `.bench_work/` in
//! the working directory and are removed at exit.

mod measure;
mod replay;
mod run;
mod trace;
mod world;

use run::{Metric, Options, Report, BATCHES_PER_SECOND, WARMUP_BATCHES};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use world::Workload;

/// Longest run `--seconds` may ask for (the stream is sized from it).
const MAX_SECONDS: u64 = 60;

const USAGE: &str =
    "usage: d2pr-perfbench --workload trickle|churn|sweep --seed N --seconds N --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let n = number()?;
                if !(1..=MAX_SECONDS).contains(&n) {
                    return Err(format!("--seconds takes 1 to {MAX_SECONDS}, not {n}"));
                }
                seconds = Some(n);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, report: &Report) -> String {
    let mut metrics = String::new();
    for (i, Metric { name, value, unit }) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.ledger.attempted.max(1),
        report.ledger.failed
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let batches = WARMUP_BATCHES + BATCHES_PER_SECOND * opts.seconds as usize;
    let inputs = world::generate(opts.workload, opts.seed, batches, 1.0);
    eprintln!(
        "{}: {} nodes, {} arcs, {} batches, seed {}",
        opts.workload.name(),
        inputs.graph.num_nodes(),
        inputs.graph.num_arcs(),
        inputs.stream.len(),
        opts.seed
    );
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    let mut report = run::run(&opts, &inputs, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    if let Some(spans) = &report.spans {
        let path = PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => report.notes.push(format!(
                "{} spans written to {}",
                spans.spans().len(),
                path.display()
            )),
            Err(e) => report
                .ledger
                .record(false, || format!("writing the trace failed: {e}")),
        }
    }
    let f = &report.fingerprint;
    report.notes.push(format!(
        "fingerprint: rank_error_l1 {:e}, refresh iterations {}, pushes {}, grid iterations {}",
        f.rank_error_l1,
        f.refresh_iterations.iter().sum::<usize>(),
        f.refresh_pushes.iter().sum::<usize>(),
        f.sweep_iterations
    ));
    let finite = !report.metrics.is_empty() && report.metrics.iter().all(|m| m.value.is_finite());
    report
        .ledger
        .record(finite, || "a metric is missing or not finite".into());
    let ledger = &report.ledger;
    report.notes.push(format!(
        "failed_ops_share {} ({} of {} operations and checks)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    ));
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for failure in &report.ledger.failures {
        eprintln!("  FAILED: {failure}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let correct = report.ledger.failed == 0;
    println!("{}", result_json(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
