//! explore-gen: `crusade lint` then `crusade explore` at the CLI
//! defaults (portfolio 8, jobs = nproc) over a batch of generated
//! families near the schedulability edge. Only here does the explore
//! machinery work — evaluation cache, cost incumbent and domination,
//! lint floor, member failures — on small architectures where
//! clustering and audit weigh more. Generated families form no
//! multi-mode devices, so reconfiguration is bypassed.

use std::time::Instant;

use crusade_core::CosynOptions;
use crusade_explore::{explore, ExploreConfig, ExploreOutcome};
use crusade_model::SystemSpec;
use crusade_workloads::{paper_library, PaperLibrary};

use crate::inputs::explore_gen_specs;
use crate::report::Outcome;
use crate::stats::{geomean, mean};
use crate::trace::{add, derive, Counts, Probe};
use crate::{
    check_clusters, common_metrics, fold_layers, gen_layer, latency, measure, median_of,
    overhead_pct, peak_rss_mb, Audits, Ctx, Setup, PORTFOLIO,
};

#[derive(Default)]
struct Pass {
    wall_s: f64,
    times_ms: Vec<f64>,
    costs: Vec<Option<u64>>,
    verdicts: Vec<String>,
    counts: Counts,
    failed: u64,
    audits: Audits,
    problems: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn run_pass(
    ctx: &Ctx,
    lib: &PaperLibrary,
    specs: &[SystemSpec],
    jobs: usize,
    index: usize,
    traced: bool,
    gate: bool,
) -> Pass {
    let tracer = ctx.tracer_for(traced);
    let lint_options = CosynOptions::default().lint_options();
    let mut pass = Pass::default();
    add(&mut pass.counts, "lint.infeasible_flagged", 0.0);
    for (i, spec) in specs.iter().enumerate() {
        let op = (index * specs.len() + i) as u64;
        let probe = traced.then(Probe::new);
        let mut lint_ms = 0.0;
        let t = Instant::now();
        // `None`: lint proved the spec infeasible and explore never ran.
        let verdict = tracer.span("verdict", op, None, |parent| {
            let lint_start = Instant::now();
            let report = tracer.span("crusade_lint::lint", op, Some(parent), |_| {
                crusade_lint::lint(spec, &lib.lib, &lint_options)
            });
            lint_ms = lint_start.elapsed().as_secs_f64() * 1e3;
            if report.has_errors() {
                return None;
            }
            let mut base = CosynOptions::default();
            if let Some(probe) = &probe {
                base = base.with_observer(probe.observer());
            }
            let config = ExploreConfig::new(PORTFOLIO, jobs).with_base(base);
            let explored = tracer.span("explore", op, Some(parent), |_| {
                explore(spec, &lib.lib, &config)
            });
            Some(explored.map_err(|e| e.to_string()))
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pass.times_ms.push(ms);
        pass.wall_s += ms / 1e3;
        if let Some(probe) = &probe {
            probe.harvest(&mut pass.counts);
            add(&mut pass.counts, "lint.ms", lint_ms);
        }
        match verdict {
            None => {
                pass.failed += 1;
                pass.costs.push(None);
                pass.verdicts.push("lint-infeasible".into());
                add(&mut pass.counts, "lint.infeasible_flagged", 1.0);
            }
            Some(Err(e)) => {
                pass.failed += 1;
                pass.costs.push(None);
                pass.verdicts.push(format!("no audit-clean member: {e}"));
            }
            Some(Ok(outcome)) => {
                let stats = &outcome.stats;
                if stats.audit_rejected > 0 {
                    pass.problems.push(format!(
                        "spec {i}: {} portfolio member(s) failed the audit",
                        stats.audit_rejected
                    ));
                }
                let counts = &mut pass.counts;
                add(counts, "explore.members", stats.portfolio as f64);
                add(counts, "explore.clean", stats.clean as f64);
                add(counts, "explore.failed", stats.failed as f64);
                add(counts, "explore.dominated", stats.dominated as f64);
                add(
                    counts,
                    "explore.skipped_by_bound",
                    stats.skipped_by_bound as f64,
                );
                add(counts, "explore.cache_lookups", stats.cache_lookups as f64);
                add(counts, "explore.cache_hits", stats.cache_hits as f64);
                let cost = outcome.winner.report.cost.amount();
                pass.costs.push(Some(cost));
                pass.verdicts
                    .push(format!("cost {cost} policy {}", outcome.policy.id));
                if gate {
                    gate_winner(tracer, op, lib, spec, &outcome, i, &mut pass);
                }
            }
        }
    }
    if traced {
        derive(&mut pass.counts);
    }
    pass
}

/// The correctness gate for one winner: audit, the lint cost floor,
/// and the clustering cross-check.
fn gate_winner(
    tracer: &crate::trace::Tracer,
    op: u64,
    lib: &PaperLibrary,
    spec: &SystemSpec,
    outcome: &ExploreOutcome,
    i: usize,
    pass: &mut Pass,
) {
    let what = format!("spec {i}");
    let winner = &outcome.winner;
    pass.audits.check(
        tracer,
        op,
        spec,
        &lib.lib,
        winner,
        &what,
        &mut pass.problems,
    );
    let options = CosynOptions::default().with_policy(outcome.policy.clone());
    check_clusters(
        tracer,
        op,
        spec,
        &lib.lib,
        &options,
        winner,
        &what,
        &mut pass.problems,
    );
    let floor = tracer.span("cost_lower_bound", op, None, |_| {
        crusade_lint::cost_lower_bound(spec, &lib.lib, &options.lint_options())
    });
    if floor > winner.report.cost {
        pass.problems.push(format!(
            "{what}: winner cost {} below the lint cost floor {floor}",
            winner.report.cost
        ));
    }
}

/// Counts that depend on how the portfolio members interleave on the
/// worker threads (cache hits, domination aborts, and with them every
/// allocation-level count of the aborted members).
fn schedule_dependent(name: &str) -> bool {
    !matches!(name, "lint.infeasible_flagged" | "explore.members")
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut gen_s = Vec::new();
    let ((lib, specs), mut setup) = Setup::new(|| {
        let t = Instant::now();
        let lib = paper_library();
        let g = Instant::now();
        let specs = explore_gen_specs(&lib, ctx.seed);
        gen_s.push(g.elapsed().as_secs_f64());
        ((lib, specs), t.elapsed().as_secs_f64())
    });

    let mut gated = [false, false];
    let mut rss = None;
    let (untraced, traced) = measure(
        ctx,
        |index, traced| {
            let gate = !std::mem::replace(&mut gated[usize::from(traced)], true);
            let pass = run_pass(ctx, &lib, &specs, jobs, index, traced, gate);
            // Read before the set-up block that follows it.
            rss.get_or_insert_with(peak_rss_mb);
            setup.after_pass();
            pass
        },
        |p| p.wall_s,
    );
    let rss = rss.expect("the measured phase runs a pass");
    let setup_s = setup.finish();

    let mut outcome = Outcome {
        passes: (untraced.len(), traced.len()),
        ..Outcome::default()
    };
    let reference = &untraced[0];
    // Every pass repeats the same verdicts, so each counts once.
    outcome.attempted = specs.len() as u64;
    outcome.failed = reference.failed;
    for pass in untraced.iter().chain(&traced) {
        outcome.problems.extend(pass.problems.iter().cloned());
        if pass.verdicts != reference.verdicts {
            outcome
                .problems
                .push("verdicts or winners differ between passes".to_string());
        }
    }

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    common_metrics(&mut outcome, &setup_s, &walls, rss);
    let times: Vec<Vec<f64>> = untraced.iter().map(|p| p.times_ms.clone()).collect();
    let per_spec = median_of(&times);
    outcome.end_to_end.insert("geomean_ms", geomean(&per_spec));
    outcome.samples.insert("geomean_ms".into(), per_spec.len());
    let costs: Vec<f64> = reference
        .costs
        .iter()
        .flatten()
        .map(|c| *c as f64)
        .collect();
    outcome.end_to_end.insert("cost_usd", mean(&costs));
    outcome.samples.insert("cost_usd".into(), costs.len());
    // Every request here is a cold in-process exploration: no cache, no
    // delta stream, so the three kinds report the one distribution, of
    // the explorations that found an architecture (infeasible verdicts
    // are counted as failures and timed by `geomean_ms`).
    let samples: Vec<f64> = per_spec
        .iter()
        .zip(&reference.costs)
        .filter_map(|(ms, cost)| cost.map(|_| *ms))
        .collect();
    for kind in ["cold", "hit", "resyn"] {
        latency(&mut outcome, kind, &samples);
    }

    if ctx.traced() {
        let counts: Vec<Counts> = traced.iter().map(|p| p.counts.clone()).collect();
        fold_layers(&mut outcome, &counts, schedule_dependent);
        traced[0].audits.report(&mut outcome.layers);
        let tasks = specs.iter().map(SystemSpec::task_count).sum();
        gen_layer(&mut outcome.layers, specs.len(), tasks, &gen_s);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        if let Some(pct) = overhead_pct(&walls, &traced_walls) {
            outcome.layers.insert("obs.overhead_pct".into(), pct);
        }
        let det = &mut outcome.deterministic;
        det.insert("audit.calls".into(), traced[0].audits.calls as f64);
        det.insert(
            "audit.violations".into(),
            traced[0].audits.violations as f64,
        );
        det.insert(
            "verdict.feasible".into(),
            reference.costs.iter().flatten().count() as f64,
        );
        det.insert("verdict.cost_usd".into(), costs.iter().sum());
    }
    outcome
}
