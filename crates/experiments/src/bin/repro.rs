//! `repro` — regenerate every table and figure of the D2PR paper.
//!
//! ```text
//! repro [--scale S] [--seed N] [--csv] <experiment>
//! repro serve --data-dir DIR [--snapshot-every K] ...
//! repro recover DIR
//!
//! experiments:
//!   table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!   fig9 fig10 fig11 all
//! ```
//!
//! `--scale` scales the generated worlds relative to the paper's Table 3
//! node counts (default 0.05 ≈ tens of seconds of wall time; 1.0
//! regenerates paper-sized graphs). `serve --data-dir` runs the serving
//! scenario on the durable (write-ahead logged) stack; `recover DIR`
//! revives such a store and prints where each shard resumed.

use d2pr_datagen::worlds::ApplicationGroup;
use d2pr_experiments::experiments::{
    fig1_report, fig5_report, group_alpha_sweep, group_beta_sweep, group_p_sweep,
    group_p_sweep_report, optimum_summary, series_report, table1_report, table2_report,
    table3_report, ExperimentContext, GraphSweep,
};
use std::process::ExitCode;

struct Options {
    scale: f64,
    seed: u64,
    csv: bool,
    tolerance: Option<f64>,
    churn: Option<f64>,
    batches: Option<usize>,
    readers: Option<usize>,
    shards: Option<usize>,
    mode: Option<d2pr_experiments::evolving::RefreshMode>,
    weighted: bool,
    node_churn: bool,
    data_dir: Option<String>,
    snapshot_every: Option<u64>,
    top_k: Option<usize>,
    query_mix: Option<f64>,
    experiment: String,
}

const USAGE: &str = "usage: repro [--scale S] [--seed N] [--csv] \
[--mode sweep|localized|auto] [--weighted] [--node-churn] \
[--readers R] [--shards K] \
[--data-dir DIR] [--snapshot-every K] [--top-k N] [--query-mix R] \
<table1|table2|table3|fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|recs|rewire|stability|evolving|serve|all>\n\
       repro recover <DIR>";

fn parse_args() -> Result<Options, String> {
    let mut scale = 0.05;
    let mut seed = 42;
    let mut csv = false;
    let mut tolerance = None;
    let mut churn = None;
    let mut batches = None;
    let mut readers = None;
    let mut shards = None;
    let mut mode = None;
    let mut weighted = false;
    let mut node_churn = false;
    let mut data_dir = None;
    let mut snapshot_every = None;
    let mut top_k = None;
    let mut query_mix = None;
    let mut experiment: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--tolerance" => {
                tolerance = Some(
                    args.next()
                        .ok_or("--tolerance needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --tolerance: {e}"))?,
                );
            }
            "--churn" => {
                churn = Some(
                    args.next()
                        .ok_or("--churn needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --churn: {e}"))?,
                );
            }
            "--batches" => {
                batches = Some(
                    args.next()
                        .ok_or("--batches needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --batches: {e}"))?,
                );
            }
            "--readers" => {
                readers = Some(
                    args.next()
                        .ok_or("--readers needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --readers: {e}"))?,
                );
            }
            "--shards" => {
                shards = Some(
                    args.next()
                        .ok_or("--shards needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --shards: {e}"))?,
                );
            }
            "--mode" => {
                let value = args.next().ok_or("--mode needs a value")?;
                mode = Some(
                    d2pr_experiments::evolving::RefreshMode::parse(&value).ok_or_else(|| {
                        format!("bad --mode {value}: expected sweep|localized|auto")
                    })?,
                );
            }
            "--data-dir" => {
                data_dir = Some(args.next().ok_or("--data-dir needs a value")?);
            }
            "--snapshot-every" => {
                snapshot_every = Some(
                    args.next()
                        .ok_or("--snapshot-every needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --snapshot-every: {e}"))?,
                );
            }
            "--top-k" => {
                top_k = Some(
                    args.next()
                        .ok_or("--top-k needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --top-k: {e}"))?,
                );
            }
            "--query-mix" => {
                let value: f64 = args
                    .next()
                    .ok_or("--query-mix needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --query-mix: {e}"))?;
                if !(0.0..=1.0).contains(&value) {
                    return Err(format!("bad --query-mix {value}: expected 0..=1"));
                }
                query_mix = Some(value);
            }
            "--weighted" => weighted = true,
            "--node-churn" => node_churn = true,
            "--csv" => csv = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if !other.starts_with('-') => {
                // `recover` takes the store directory as a positional.
                if experiment.as_deref() == Some("recover") && data_dir.is_none() {
                    data_dir = Some(other.to_string());
                } else if experiment.is_none() {
                    experiment = Some(other.to_string());
                } else {
                    return Err(format!("unexpected argument {other}\n{USAGE}"));
                }
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(Options {
        scale,
        seed,
        csv,
        tolerance,
        churn,
        batches,
        readers,
        shards,
        mode,
        weighted,
        node_churn,
        data_dir,
        snapshot_every,
        top_k,
        query_mix,
        experiment: experiment.ok_or_else(|| USAGE.to_string())?,
    })
}

fn print_table(title: &str, t: &d2pr_experiments::report::TextTable, csv: bool) {
    println!("== {title} ==");
    if csv {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    println!();
}

fn print_sweeps(title: &str, sweeps: &[GraphSweep], csv: bool) {
    print_table(title, &group_p_sweep_report(sweeps), csv);
    print_table(&format!("{title}: optima"), &optimum_summary(sweeps), csv);
}

fn print_series(title: &str, sweeps: &[GraphSweep], beta: bool, csv: bool) {
    for s in sweeps {
        print_table(
            &format!("{title}: {}", s.graph.name()),
            &series_report(s, beta),
            csv,
        );
    }
    print_table(&format!("{title}: optima"), &optimum_summary(sweeps), csv);
}

fn run(opts: &Options) -> Result<(), String> {
    let all = opts.experiment == "all";
    let want = |name: &str| all || opts.experiment == name;
    let known = [
        "table1",
        "table2",
        "table3",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "recs",
        "rewire",
        "stability",
        "evolving",
        "serve",
        "recover",
    ];
    if !all && !known.contains(&opts.experiment.as_str()) {
        return Err(format!("unknown experiment '{}'\n{USAGE}", opts.experiment));
    }

    let needs_ctx = all
        || !matches!(
            opts.experiment.as_str(),
            "fig1" | "evolving" | "serve" | "recover"
        );
    let ctx = if needs_ctx {
        eprintln!(
            "generating worlds (scale {}, seed {}) ...",
            opts.scale, opts.seed
        );
        Some(ExperimentContext::new(opts.scale, opts.seed).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let ctx = ctx.as_ref();
    let csv = opts.csv;

    if want("table1") {
        print_table(
            "Table 1: Spearman(degree rank, PageRank rank)",
            &table1_report(ctx.expect("ctx present")),
            csv,
        );
    }
    if want("table2") {
        print_table(
            "Table 2: node ranks under different p",
            &table2_report(ctx.expect("ctx present")),
            csv,
        );
    }
    if want("table3") {
        print_table(
            "Table 3: data graph statistics",
            &table3_report(ctx.expect("ctx present")),
            csv,
        );
    }
    if want("fig1") {
        print_table(
            "Figure 1: transition probabilities from A",
            &fig1_report(),
            csv,
        );
    }
    let groups = [
        ("fig2", "fig6", "fig9", ApplicationGroup::A),
        ("fig3", "fig7", "fig10", ApplicationGroup::B),
        ("fig4", "fig8", "fig11", ApplicationGroup::C),
    ];
    for (fig_p, fig_alpha, fig_beta, group) in groups {
        if want(fig_p) {
            let sweeps = group_p_sweep(ctx.expect("ctx present"), group);
            print_sweeps(
                &format!("{fig_p}: group {group:?} p sweep (unweighted)"),
                &sweeps,
                csv,
            );
        }
        if want(fig_alpha) {
            let sweeps = group_alpha_sweep(ctx.expect("ctx present"), group);
            print_series(
                &format!("{fig_alpha}: group {group:?} alpha x p (unweighted)"),
                &sweeps,
                false,
                csv,
            );
        }
        if want(fig_beta) {
            let sweeps = group_beta_sweep(ctx.expect("ctx present"), group);
            print_series(
                &format!("{fig_beta}: group {group:?} beta x p (weighted)"),
                &sweeps,
                true,
                csv,
            );
        }
    }
    if want("fig5") {
        print_table(
            "Figure 5: corr(degree, significance)",
            &fig5_report(ctx.expect("ctx present")),
            csv,
        );
    }
    if want("stability") {
        let seeds: Vec<u64> = (0..5).map(|i| opts.seed.wrapping_add(i)).collect();
        eprintln!("stability: regenerating all worlds for seeds {seeds:?} ...");
        let results = d2pr_experiments::stability::stability_analysis(opts.scale, &seeds)
            .map_err(|e| e.to_string())?;
        print_table(
            "Seed stability: optima across independently regenerated worlds",
            &d2pr_experiments::stability::stability_report(&results),
            csv,
        );
    }
    if want("rewire") {
        print_table(
            "Rewiring ablation: D2PR gain on original vs degree-preserving rewired graphs",
            &d2pr_experiments::ablation::rewire_report(ctx.expect("ctx present")),
            csv,
        );
    }
    if want("recs") {
        print_table(
            "Recommendation accuracy: conventional PageRank vs D2PR (extension)",
            &d2pr_experiments::recommendation::recommendation_report(ctx.expect("ctx present")),
            csv,
        );
    }
    if want("evolving") {
        // `--scale` scales the node count relative to the default graph.
        let base = d2pr_experiments::evolving::EvolvingConfig::default();
        let cfg = d2pr_experiments::evolving::EvolvingConfig {
            nodes: ((base.nodes as f64 * (opts.scale / 0.05)).round() as usize).max(1_000),
            seed: opts.seed,
            tolerance: opts.tolerance.unwrap_or(base.tolerance),
            churn: opts.churn.unwrap_or(base.churn),
            batches: opts.batches.unwrap_or(base.batches),
            mode: opts.mode.unwrap_or(base.mode),
            weighted: opts.weighted,
            node_churn: opts.node_churn,
            ..base
        };
        eprintln!(
            "evolving: {}({}, {}), {} batches of {:.1}% churn{}{}, {:?} refresh ...",
            if cfg.weighted || cfg.node_churn {
                "ratings"
            } else {
                "BA"
            },
            cfg.nodes,
            cfg.attachments,
            cfg.batches,
            cfg.churn * 100.0,
            if cfg.weighted {
                " + star re-weighting (beta 0.5)"
            } else {
                ""
            },
            if cfg.node_churn {
                " + node arrivals/departures"
            } else {
                ""
            },
            cfg.mode
        );
        let report = d2pr_experiments::run_evolving(&cfg).map_err(|e| e.to_string())?;
        print_table(
            "Evolving graph: cold vs warm-started re-solves per churn batch",
            &d2pr_experiments::evolving::evolving_report(&report),
            csv,
        );
    }
    if want("serve") {
        let base = d2pr_experiments::serving::ServeConfig::default();
        let cfg = d2pr_experiments::serving::ServeConfig {
            nodes: ((base.nodes as f64 * (opts.scale / 0.05)).round() as usize).max(1_000),
            seed: opts.seed,
            tolerance: opts.tolerance.unwrap_or(base.tolerance),
            churn: opts.churn.unwrap_or(base.churn),
            batches: opts.batches.unwrap_or(base.batches),
            readers: opts.readers.unwrap_or(base.readers),
            shards: opts.shards.unwrap_or(base.shards),
            data_dir: opts.data_dir.as_ref().map(std::path::PathBuf::from),
            snapshot_every: opts.snapshot_every.unwrap_or(base.snapshot_every),
            // Either flag alone opts into the ranked mix: a bare
            // --query-mix ranks at the default k = 100, a bare --top-k
            // ranks 10% of reads.
            top_k: opts.top_k.unwrap_or(if opts.query_mix.is_some() {
                100
            } else {
                base.top_k
            }),
            query_mix: opts.query_mix.unwrap_or(if opts.top_k.is_some() {
                0.1
            } else {
                base.query_mix
            }),
            ..base
        };
        eprintln!(
            "serve: BA({}, {}), {} batches of {:.2}% churn, {} reader thread(s), {} shard(s){}{} ...",
            cfg.nodes,
            cfg.attachments,
            cfg.batches,
            cfg.churn * 100.0,
            cfg.readers,
            cfg.shards,
            if cfg.top_k > 0 {
                format!(
                    ", {:.0}% ranked top-{} queries",
                    cfg.query_mix.clamp(0.0, 1.0) * 100.0,
                    cfg.top_k
                )
            } else {
                String::new()
            },
            match &cfg.data_dir {
                Some(d) => format!(", durable in {}", d.display()),
                None => String::new(),
            }
        );
        let report = d2pr_experiments::run_serve(&cfg).map_err(|e| e.to_string())?;
        print_table(
            "Serving: double-buffered refreshes under concurrent reader load",
            &d2pr_experiments::serving::serve_report(&report),
            csv,
        );
    }
    // Not part of `all`: recovery needs an existing store directory.
    if opts.experiment == "recover" {
        let dir = opts
            .data_dir
            .as_ref()
            .ok_or(format!("recover needs a store directory\n{USAGE}"))?;
        eprintln!("recover: opening durable store {dir} ...");
        let reports = d2pr_experiments::run_recover(std::path::Path::new(dir), 0)
            .map_err(|e| e.to_string())?;
        print_table(
            "Recovery: per-shard snapshot + log-tail replay",
            &d2pr_experiments::serving::recover_report(&reports),
            csv,
        );
        let gen = reports
            .iter()
            .map(|r| r.recovered_generation)
            .min()
            .unwrap_or(0);
        let replayed: usize = reports.iter().map(|r| r.outcome.replayed_batches).sum();
        println!(
            "recovered {} shard(s) to generation {gen}: {replayed} log-tail batch(es) replayed",
            reports.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
