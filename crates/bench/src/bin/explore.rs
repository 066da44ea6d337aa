//! Benchmarks the parallel multi-start exploration engine against plain
//! sequential CRUSADE on the paper's eight examples.
//!
//! For every selected example the run measures four configurations:
//!
//! 1. **sequential CRUSADE** — a single baseline-policy synthesis;
//! 2. **naive portfolio** — every portfolio member synthesized and
//!    audited one at a time in a plain loop: the reference the engine's
//!    winner is checked against;
//! 3. **sequential portfolio** — the exploration engine at `--jobs 1`;
//! 4. **parallel portfolio** — the engine at `--jobs N`.
//!
//! It asserts that the parallel winner matches both sequential winners
//! exactly (cost and policy id — the engine's determinism guarantee)
//! and that the portfolio never costs more than sequential CRUSADE,
//! then writes `BENCH_explore.json` with best cost versus sequential,
//! wall-clock times and speedup over the naive portfolio. The host's
//! core count is recorded with every row: on a single-core machine the
//! parallel speedup is about 1, so interpret `speedup` together with
//! `cores`.
//!
//! ```text
//! cargo run --release -p crusade-bench --bin explore -- [--jobs N] [--portfolio M] [--examples A,B]
//! ```

use std::time::Instant;

use crusade_bench::json;
use crusade_core::{CoSynthesis, CosynOptions};
use crusade_explore::{explore, ExploreConfig, ExploreOutcome};
use crusade_model::{ResourceLibrary, SystemSpec};
use crusade_workloads::{paper_examples, paper_library};
use serde::Serialize;

/// One example's measurements across the three configurations.
#[derive(Debug, Clone, Serialize)]
struct ExploreRecord {
    example: String,
    tasks: usize,
    /// Cost of a single baseline-policy CRUSADE run.
    sequential_cost: u64,
    /// Cost of the portfolio winner (identical across job counts).
    best_cost: u64,
    /// Winning policy id.
    winner_policy: u32,
    /// Dollars saved by the portfolio over sequential CRUSADE.
    saved: u64,
    /// Wall-clock of the naive member-at-a-time portfolio, milliseconds.
    naive_portfolio_wall_ms: f64,
    /// Wall-clock of the engine at `--jobs 1`, milliseconds.
    sequential_portfolio_wall_ms: f64,
    /// Wall-clock of the engine at `--jobs N`, milliseconds.
    parallel_wall_ms: f64,
    /// `naive_portfolio_wall_ms / parallel_wall_ms`.
    speedup: f64,
    /// Cores available to this run — the parallelism actually on offer.
    cores: usize,
    /// Structured-metrics snapshot aggregated over every member of the
    /// parallel run.
    metrics: crusade_obs::MetricsSnapshot,
}

fn flag_usize(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Runs every portfolio member to completion, one at a time —
/// scripted multi-start, the reference the engine must agree with.
/// Returns the audit-clean winner's (cost, policy id) and the
/// wall-clock in milliseconds.
fn naive_portfolio(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    portfolio: usize,
) -> (Option<(u64, u32)>, f64) {
    let t = Instant::now();
    let mut best: Option<(u64, u32)> = None;
    for policy in crusade_explore::default_portfolio(portfolio) {
        let options = CosynOptions::default().with_policy(policy.clone());
        let Ok(result) = CoSynthesis::new(spec, lib)
            .with_options(options.clone())
            .run()
        else {
            continue;
        };
        if !crusade_verify::audit(spec, lib, &options.effective(), &result).is_empty() {
            continue;
        }
        let key = (result.report.cost.amount(), policy.id);
        if best.map_or(true, |b| key < b) {
            best = Some(key);
        }
    }
    (best, t.elapsed().as_secs_f64() * 1e3)
}

fn timed_explore(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    portfolio: usize,
    jobs: usize,
    base: CosynOptions,
) -> (ExploreOutcome, f64) {
    let config = ExploreConfig::new(portfolio, jobs).with_base(base);
    let t = Instant::now();
    let outcome = match explore(spec, lib, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("FAIL: exploration at {jobs} job(s) found no feasible member: {e}");
            std::process::exit(1);
        }
    };
    (outcome, t.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = flag_usize(&args, "--jobs", 8);
    let portfolio = flag_usize(&args, "--portfolio", 8);
    let selected: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--examples")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().to_ascii_uppercase())
                .collect()
        });

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("multi-start exploration: portfolio {portfolio}, {jobs} job(s), {cores} core(s)\n");
    println!(
        "{:<8} {:>6} | {:>9} {:>9} {:>7} | {:>9} {:>9} {:>9} {:>8}",
        "example",
        "tasks",
        "seq cost",
        "best",
        "policy",
        "naive(ms)",
        "eng1(ms)",
        "par(ms)",
        "speedup",
    );

    let lib = paper_library();
    let mut records: Vec<ExploreRecord> = Vec::new();
    let mut failed = false;
    for ex in paper_examples() {
        if let Some(names) = &selected {
            if !names.iter().any(|n| n == ex.name) {
                continue;
            }
        }
        let spec = ex.build(&lib);
        let sequential = match CoSynthesis::new(&spec, &lib.lib)
            .with_options(CosynOptions::default())
            .run()
        {
            Ok(r) => r,
            Err(e) => {
                println!("{:<8} sequential CRUSADE failed: {e}", ex.name);
                failed = true;
                continue;
            }
        };
        let (naive_best, naive_ms) = naive_portfolio(&spec, &lib.lib, portfolio);
        let (seq_pf, seq_pf_ms) =
            timed_explore(&spec, &lib.lib, portfolio, 1, CosynOptions::default());
        let metrics = std::sync::Arc::new(crusade_obs::Metrics::new());
        let (par, par_ms) = timed_explore(
            &spec,
            &lib.lib,
            portfolio,
            jobs,
            CosynOptions::default().with_observer(metrics.clone()),
        );

        // The engine's determinism guarantee: same winner at any job count.
        if (par.winner.report.cost, par.policy.id) != (seq_pf.winner.report.cost, seq_pf.policy.id)
        {
            println!(
                "{:<8} NONDETERMINISTIC: jobs=1 policy #{} {} vs jobs={jobs} policy #{} {}",
                ex.name,
                seq_pf.policy.id,
                seq_pf.winner.report.cost,
                par.policy.id,
                par.winner.report.cost,
            );
            failed = true;
            continue;
        }
        // The engine must pick the winner the naive member-at-a-time
        // portfolio picks.
        if naive_best != Some((par.winner.report.cost.amount(), par.policy.id)) {
            println!(
                "{:<8} WINNER DRIFT: naive portfolio picked {naive_best:?}, engine picked ({}, {})",
                ex.name,
                par.winner.report.cost.amount(),
                par.policy.id,
            );
            failed = true;
            continue;
        }
        // The portfolio contains the baseline policy, so it can never
        // lose to sequential CRUSADE.
        if par.winner.report.cost > sequential.report.cost {
            println!(
                "{:<8} REGRESSION: portfolio {} worse than sequential {}",
                ex.name, par.winner.report.cost, sequential.report.cost,
            );
            failed = true;
            continue;
        }

        let speedup = naive_ms / par_ms.max(1e-9);
        let record = ExploreRecord {
            example: ex.name.to_string(),
            tasks: spec.task_count(),
            sequential_cost: sequential.report.cost.amount(),
            best_cost: par.winner.report.cost.amount(),
            winner_policy: par.policy.id,
            saved: sequential
                .report
                .cost
                .saturating_sub(par.winner.report.cost)
                .amount(),
            naive_portfolio_wall_ms: naive_ms,
            sequential_portfolio_wall_ms: seq_pf_ms,
            parallel_wall_ms: par_ms,
            speedup,
            cores,
            metrics: metrics.snapshot(),
        };
        println!(
            "{:<8} {:>6} | {:>8}$ {:>8}$ {:>7} | {:>9.0} {:>9.0} {:>9.0} {:>7.2}x",
            record.example,
            record.tasks,
            record.sequential_cost,
            record.best_cost,
            record.winner_policy,
            record.naive_portfolio_wall_ms,
            record.sequential_portfolio_wall_ms,
            record.parallel_wall_ms,
            record.speedup,
        );
        records.push(record);
    }

    if !records.is_empty() {
        let geomean: f64 =
            (records.iter().map(|r| r.speedup.ln()).sum::<f64>() / records.len() as f64).exp();
        let saved: u64 = records.iter().map(|r| r.saved).sum();
        println!(
            "\n{} example(s): geomean speedup {geomean:.2}x at {jobs} job(s) on {cores} core(s), \
             ${saved} total saved vs sequential CRUSADE",
            records.len()
        );
    }
    if let Err(e) = json::write("BENCH_explore.json", &records) {
        eprintln!("BENCH_explore.json: {e}");
        std::process::exit(1);
    }
    if failed {
        eprintln!("FAIL: at least one example violated an exploration invariant");
        std::process::exit(1);
    }
}
