//! End-to-end and per-layer performance benchmark of the CRUSADE
//! workspace.
//!
//! The benchmark drives the program only through the public items of
//! its crates, from outside: it builds seeded inputs, times each call
//! into a layer, checks every output, and reports the metrics listed in
//! `BENCHMARK.json`. See `README.md` next to this package for the
//! layers, workloads and the metric map.

pub mod explore_gen;
pub mod inputs;
pub mod report;
pub mod serve_mix;
mod stats;
pub mod trace;

use std::time::Instant;

use report::{Outcome, Spread};
use stats::{beyond, median, quantile};
use trace::{is_timing, Counts, Tracer};

/// Set-up repetitions per block: at least `SETUP_BLOCK_REPS` of them
/// and `SETUP_BLOCK_S` seconds.
const SETUP_BLOCK_REPS: usize = 10;
const SETUP_BLOCK_S: f64 = 0.5;

/// Untraced passes per untraced run, at least: every operation's time
/// is the median of its repetitions, one per pass.
pub const MIN_PASSES: usize = 3;

/// Portfolio size of `crusade explore` and `crusade client submit`.
pub const PORTFOLIO: usize = 8;

/// What a workload needs to know about its run.
pub struct Ctx {
    /// The input seed.
    pub seed: u64,
    /// The measuring budget in seconds.
    pub seconds: f64,
    /// The span recorder of traced passes (disabled in untraced runs).
    pub tracer: Tracer,
    off: Tracer,
}

impl Ctx {
    /// A run context.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(traced),
            off: Tracer::new(false),
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// The recorder a pass uses: spans only in traced passes.
    pub fn tracer_for(&self, traced: bool) -> &Tracer {
        if traced {
            &self.tracer
        } else {
            &self.off
        }
    }
}

/// Repeated set-up. The host's speed drifts from second to second, so a
/// block of builds read in one stretch follows the host at that moment.
/// A block before the measured phase and one after each pass let
/// `setup_s`, the median of all of them, see the stretch of time the
/// passes see.
pub(crate) struct Setup<B> {
    build: B,
    times_s: Vec<f64>,
}

impl<T, B: FnMut() -> (T, f64)> Setup<B> {
    /// Builds once untimed to warm the allocator and caches, then times
    /// the first block and keeps its last build. `build` returns its
    /// product and the seconds its set-up took.
    pub fn new(mut build: B) -> (T, Self) {
        drop(build());
        let mut times_s = Vec::new();
        loop {
            let (built, secs) = build();
            times_s.push(secs);
            if block_done(&times_s) {
                return (built, Setup { build, times_s });
            }
        }
    }

    /// Times a block after a measured pass. Each build is dropped, but
    /// it lives beside the kept one, so a peak resident set read after
    /// this includes a second copy of the inputs.
    pub fn after_pass(&mut self) {
        let start = self.times_s.len();
        while !block_done(&self.times_s[start..]) {
            let (_, secs) = (self.build)();
            self.times_s.push(secs);
        }
    }

    /// Every timed repetition's set-up seconds.
    pub fn finish(self) -> Vec<f64> {
        self.times_s
    }
}

fn block_done(times_s: &[f64]) -> bool {
    times_s.len() >= SETUP_BLOCK_REPS && times_s.iter().sum::<f64>() >= SETUP_BLOCK_S
}

/// Runs passes of fixed work: at least `min` of them, then another
/// while the last pass's measured time still fits in what is left of
/// `budget_s`. Only measured time counts against the budget; the
/// correctness checks between timed calls do not.
fn passes<P>(
    budget_s: f64,
    min: usize,
    mut run: impl FnMut(usize) -> P,
    wall_s: impl Fn(&P) -> f64,
) -> Vec<P> {
    let mut spent = 0.0;
    let mut out = Vec::new();
    loop {
        let pass = run(out.len());
        let last = wall_s(&pass);
        spent += last;
        out.push(pass);
        if out.len() >= min && spent + last > budget_s {
            return out;
        }
    }
}

/// The measured phase: untraced passes fill the budget; a traced run
/// splits it between untraced passes (the overhead baseline) and traced
/// passes. `run` gets the pass's index within its kind and whether it
/// is traced. Returns (untraced, traced).
pub(crate) fn measure<P>(
    ctx: &Ctx,
    mut run: impl FnMut(usize, bool) -> P,
    wall_s: impl Fn(&P) -> f64,
) -> (Vec<P>, Vec<P>) {
    if !ctx.traced() {
        let untraced = passes(ctx.seconds, MIN_PASSES, |i| run(i, false), &wall_s);
        return (untraced, Vec::new());
    }
    let half = ctx.seconds / 2.0;
    let untraced = passes(half, 1, |i| run(i, false), &wall_s);
    let traced = passes(half, 1, |i| run(i, true), &wall_s);
    (untraced, traced)
}

/// The process's peak resident set (VmHWM) in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records the p50/p90 of one request kind and their sample counts.
pub(crate) fn latency(outcome: &mut Outcome, kind: &str, samples_ms: &[f64]) {
    let (p50, p90) = match kind {
        "cold" => ("cold_p50_ms", "cold_p90_ms"),
        "hit" => ("hit_p50_ms", "hit_p90_ms"),
        _ => ("resyn_p50_ms", "resyn_p90_ms"),
    };
    outcome.end_to_end.insert(p50, median(samples_ms));
    outcome.end_to_end.insert(p90, quantile(samples_ms, 0.9));
    outcome.samples.insert(p50.to_string(), samples_ms.len());
    outcome
        .samples
        .insert(format!("{p90}.beyond"), beyond(samples_ms.len(), 0.9));
}

/// Each operation's median time over the passes that ran it:
/// `times[p][i]` is operation `i`'s time in pass `p`. A percentile over
/// these medians describes the operations, not the host's worst moments:
/// a shared host's speed switches between levels a third apart for
/// seconds at a time (an identical synthesis, repeated back to back on a
/// 2-core host, took 138 ms for 7 s, then 91 ms).
pub(crate) fn median_of(times: &[Vec<f64>]) -> Vec<f64> {
    let ops = times.first().map_or(0, Vec::len);
    (0..ops)
        .map(|i| median(&times.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

/// Records the set-up, wall and memory metrics shared by every workload.
pub(crate) fn common_metrics(
    outcome: &mut Outcome,
    setup_s: &[f64],
    pass_walls_s: &[f64],
    rss_mb: f64,
) {
    outcome.end_to_end.insert("setup_s", median(setup_s));
    outcome.end_to_end.insert("wall_s", median(pass_walls_s));
    outcome.end_to_end.insert("peak_rss_mb", rss_mb);
    outcome.samples.insert("setup_s".into(), setup_s.len());
    outcome.samples.insert("wall_s".into(), pass_walls_s.len());
    outcome.pass_walls_s = pass_walls_s.to_vec();
}

/// Folds the traced passes' counters into per-layer metrics. Times are
/// medians over the passes. Counts must repeat exactly from pass to
/// pass, except those `schedule_dependent` names, which report their
/// median and (min, median, max) spread.
pub(crate) fn fold_layers(
    outcome: &mut Outcome,
    traced: &[Counts],
    schedule_dependent: impl Fn(&str) -> bool,
) {
    let keys: std::collections::BTreeSet<&String> = traced.iter().flat_map(|c| c.keys()).collect();
    for key in keys {
        let values: Vec<f64> = traced
            .iter()
            .map(|c| c.get(key).copied().unwrap_or(0.0))
            .collect();
        let mid = median(&values);
        outcome.layers.insert(key.clone(), mid);
        if is_timing(key) {
            continue;
        }
        if schedule_dependent(key) {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = Spread {
                min: lo,
                median: mid,
                max: hi,
            };
            outcome.schedule_dependent.insert(key.clone(), spread);
        } else {
            if values.iter().any(|v| *v != values[0]) {
                outcome.problems.push(format!(
                    "count {key} differs between traced passes: {values:?}"
                ));
            }
            outcome.deterministic.insert(key.clone(), values[0]);
        }
    }
}

/// Tracing overhead in percent: traced over untraced median pass wall.
pub(crate) fn overhead_pct(untraced_s: &[f64], traced_s: &[f64]) -> Option<f64> {
    let base = median(untraced_s);
    (!traced_s.is_empty() && base > 0.0).then(|| (median(traced_s) / base - 1.0) * 100.0)
}

/// Adds the spec-building layer's figures to the per-layer metrics:
/// `gen_s` holds one spec-building time per set-up repetition.
pub(crate) fn gen_layer(layers: &mut Counts, specs: usize, tasks: usize, gen_s: &[f64]) {
    layers.insert("gen.specs".into(), specs as f64);
    layers.insert("gen.tasks".into(), tasks as f64);
    layers.insert("gen.ms".into(), median(gen_s) * 1e3);
}

/// The audit gate's tally: every produced architecture is audited with
/// `crusade_verify::audit` outside the timed window.
#[derive(Debug, Default)]
pub(crate) struct Audits {
    /// Audit calls made.
    pub calls: u64,
    /// Milliseconds spent auditing.
    pub ms: f64,
    /// Violations found (must stay 0).
    pub violations: u64,
}

impl Audits {
    /// Audits `result` against `spec`, recording a problem per dirty
    /// architecture. Returns whether it is clean.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &mut self,
        tracer: &Tracer,
        op: u64,
        spec: &crusade_model::SystemSpec,
        lib: &crusade_model::ResourceLibrary,
        result: &crusade_core::SynthesisResult,
        what: &str,
        problems: &mut Vec<String>,
    ) -> bool {
        let options = crusade_core::CosynOptions::default();
        let t = Instant::now();
        let violations = tracer.span("crusade_verify::audit", op, None, |_| {
            crusade_verify::audit(spec, lib, &options, result)
        });
        self.ms += t.elapsed().as_secs_f64() * 1e3;
        self.calls += 1;
        self.violations += violations.len() as u64;
        if let Some(first) = violations.first() {
            problems.push(format!(
                "{what}: {} audit violation(s), first: {first}",
                violations.len()
            ));
        }
        violations.is_empty()
    }

    /// Adds the tally to the per-layer metrics.
    pub fn report(&self, layers: &mut Counts) {
        layers.insert("audit.calls".into(), self.calls as f64);
        layers.insert("audit.ms".into(), self.ms);
        layers.insert("audit.violations".into(), self.violations as f64);
    }
}

/// Cross-checks a result's cluster count against a direct call to
/// `cluster_tasks_with` under the options that produced it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_clusters(
    tracer: &Tracer,
    op: u64,
    spec: &crusade_model::SystemSpec,
    lib: &crusade_model::ResourceLibrary,
    options: &crusade_core::CosynOptions,
    result: &crusade_core::SynthesisResult,
    what: &str,
    problems: &mut Vec<String>,
) {
    let clustering = tracer.span("cluster_tasks_with", op, None, |_| {
        crusade_core::cluster_tasks_with(spec, lib, &options.effective())
    });
    match clustering {
        Ok(c) if c.cluster_count() == result.report.cluster_count => {}
        Ok(c) => problems.push(format!(
            "{what}: cluster_tasks_with gives {} clusters, synthesis reported {}",
            c.cluster_count(),
            result.report.cluster_count
        )),
        Err(e) => problems.push(format!("{what}: cluster_tasks_with failed: {e}")),
    }
}
