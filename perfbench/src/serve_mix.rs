//! serve-mix: an in-process `crusade-serve` daemon
//! (`ServeConfig::default()`: 2 workers, jobs 1 per exploration) driven
//! over loopback by two closed-loop clients, each with its own generated
//! specs. Each spec is submitted cold, re-submitted (cache hits), then
//! re-synthesized against the cached incumbent with a short delta
//! stream. It is the only workload through the serve protocol,
//! fingerprint and cache, and the only one through the resyn ladder.
//! Every round sends the same requests to a fresh daemon, so each
//! request is repeated once per round and timed by its median round.
//!
//! The load is closed-loop because `crusade client submit/resyn`
//! callers block on the reply: a slower daemon receives less load. An
//! open-loop rate sweep belongs with the queueing work still ahead.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crusade_core::{admission_check, CoSynthesis, CosynOptions, SynthesisResult};
use crusade_explore::{explore, resynthesize_sequence, ExploreConfig, ResynConfig};
use crusade_model::{SpecDelta, SystemSpec};
use crusade_serve::{
    encode_frame, JobResult, Request, RequestBody, ResynResult, ServeClient, ServeConfig,
    ServerHandle, ServerStats, SpecPayload, SubmitRequest, PROTOCOL_VERSION,
};
use crusade_workloads::{paper_library, PaperLibrary};

use crate::inputs::{serve_specs, ServeSpec, HITS_PER_SPEC, RESYN_PER_SPEC};
use crate::report::Outcome;
use crate::stats::{geomean, mean, median};
use crate::trace::{add, derive, is_timing, Counts, Probe, Tracer, RUNGS};
use crate::{common_metrics, fold_layers, gen_layer, latency, measure, median_of, overhead_pct};
use crate::{peak_rss_mb, Audits, Ctx, Setup, PORTFOLIO};

/// What one client saw for one spec.
#[derive(Debug, Default)]
struct SpecLog {
    cold: Option<Result<JobResult, String>>,
    cold_ms: f64,
    hits: Vec<Result<JobResult, String>>,
    hit_ms: Vec<f64>,
    /// One reply per delta-stream variant.
    resyn: Vec<Result<ResynResult, String>>,
    resyn_ms: Vec<f64>,
}

fn rungs(r: &ResynResult) -> String {
    r.steps
        .iter()
        .map(|s| s.rung.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

/// One round: the workload's requests on a fresh daemon.
struct Round {
    wall_s: f64,
    /// Per client: what it saw for each of its specs.
    clients: Vec<Vec<SpecLog>>,
    stats: Option<ServerStats>,
    problems: Vec<String>,
}

impl Round {
    fn logs(&self) -> impl Iterator<Item = &SpecLog> {
        self.clients.iter().flatten()
    }
}

fn payload(lib: &PaperLibrary, spec: &SystemSpec) -> SpecPayload {
    SpecPayload {
        library: lib.lib.clone(),
        spec: spec.clone(),
    }
}

/// One client's closed loop over its specs: cold submit, duplicate
/// submits, then the spec's resyn requests.
fn client_loop(
    tracer: &Tracer,
    addr: &str,
    client: usize,
    specs: &[ServeSpec],
    lib: &PaperLibrary,
    op_base: u64,
) -> Vec<SpecLog> {
    let conn = ServeClient::new(addr, format!("perfbench-{client}"));
    let mut out = Vec::with_capacity(specs.len());
    for (i, s) in specs.iter().enumerate() {
        let op = op_base + i as u64;
        let payload = payload(lib, &s.spec);
        let mut log = SpecLog::default();
        let submit = |ms: &mut f64| {
            let request = payload.clone();
            let t = Instant::now();
            let r = tracer.span("ServeClient::submit", op, None, |_| {
                conn.submit(request, PORTFOLIO, true, false, |_| {})
            });
            *ms = t.elapsed().as_secs_f64() * 1e3;
            r.map_err(|e| e.to_string())
        };
        let cold = submit(&mut log.cold_ms);
        let pes = cold.as_ref().ok().map(|r| r.pes);
        log.cold = Some(cold);
        if let Some(pes) = pes {
            for _ in 0..HITS_PER_SPEC {
                let mut ms = 0.0;
                log.hits.push(submit(&mut ms));
                log.hit_ms.push(ms);
            }
            for variant in 0..RESYN_PER_SPEC {
                let (request, deltas) = (payload.clone(), s.deltas(pes, variant));
                let t = Instant::now();
                let r = tracer.span("ServeClient::resyn", op, None, |_| {
                    conn.resyn(request, deltas, PORTFOLIO, true)
                });
                log.resyn_ms.push(t.elapsed().as_secs_f64() * 1e3);
                log.resyn.push(r.map_err(|e| e.to_string()));
            }
        }
        out.push(log);
    }
    out
}

/// Runs one round on a fresh daemon: both clients run their loops
/// concurrently; the round's wall time ends when both are done.
fn run_round(tracer: &Tracer, lib: &PaperLibrary, specs: &[Vec<ServeSpec>]) -> Round {
    let mut out = Round {
        wall_s: 0.0,
        clients: Vec::new(),
        stats: None,
        problems: Vec::new(),
    };
    let server = match ServerHandle::bind(ServeConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            out.problems.push(format!("daemon bind failed: {e}"));
            return out;
        }
    };
    let addr = server.local_addr().to_string();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(c, specs)| {
                let addr = addr.as_str();
                let op_base = (c * specs.len()) as u64;
                scope.spawn(move || client_loop(tracer, addr, c, specs, lib, op_base))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(logs) => out.clients.push(logs),
                Err(_) => out.problems.push("a client thread panicked".to_string()),
            }
        }
    });
    out.wall_s = start.elapsed().as_secs_f64();
    let admin = ServeClient::new(addr, "perfbench-admin");
    match admin.stats() {
        Ok(stats) => out.stats = Some(stats),
        Err(e) => out.problems.push(format!("stats request failed: {e}")),
    }
    if let Err(e) = admin.shutdown() {
        out.problems.push(format!("shutdown request failed: {e}"));
    }
    if let Err(e) = server.wait() {
        out.problems
            .push(format!("daemon did not drain cleanly: {e}"));
    }
    out
}

/// The serve layer's figures of one round. The daemon takes no
/// observer, so they come from its replies and `ServerStats`.
fn serve_counts(round: &Round) -> Counts {
    let mut counts = Counts::new();
    let ran: Vec<(&JobResult, f64)> = round
        .logs()
        .filter_map(|l| match &l.cold {
            Some(Ok(r)) => Some((r, l.cold_ms)),
            _ => None,
        })
        .collect();
    let queue: Vec<f64> = ran.iter().map(|(r, _)| r.queue_ms).collect();
    let run: Vec<f64> = ran.iter().map(|(r, _)| r.run_ms).collect();
    let overhead: Vec<f64> = ran
        .iter()
        .map(|(r, rtt)| rtt - r.queue_ms - r.run_ms)
        .collect();
    counts.insert("serve.queue_ms".into(), median(&queue));
    counts.insert("serve.run_ms".into(), median(&run));
    counts.insert("serve.overhead_ms".into(), median(&overhead));
    if let Some(stats) = &round.stats {
        counts.insert("serve.cache_hits".into(), stats.cache_hits as f64);
        counts.insert("serve.cache_misses".into(), stats.cache_misses as f64);
        counts.insert("serve.refused".into(), stats.rejected as f64);
    }
    let steps = round
        .logs()
        .flat_map(|l| &l.resyn)
        .filter_map(|r| r.as_ref().ok())
        .flat_map(|r| &r.steps);
    for tag in RUNGS {
        counts.insert(format!("resyn.rung.{tag}"), 0.0);
    }
    for step in steps {
        if let Some(n) = counts.get_mut(&format!("resyn.rung.{}", step.rung)) {
            *n += 1.0;
        }
    }
    counts
}

/// What the gate found for a share of the specs.
#[derive(Default)]
struct GateTally {
    counts: Counts,
    audits: Audits,
    problems: Vec<String>,
}

/// Checks what the daemon served for one spec against the in-process
/// engine: the cold winner must equal `explore` at jobs 1, every
/// duplicate must be a cache hit of it, and the resyn reply must equal a
/// replay of the ladder from it. Every architecture the replays produce
/// is audited. With `probe`, the replays' layer figures (the daemon's
/// work, which it does not report) are added to the tally.
#[allow(clippy::too_many_arguments)]
fn gate_spec(
    tracer: &Tracer,
    lib: &PaperLibrary,
    op: u64,
    what: &str,
    s: &ServeSpec,
    first: &SpecLog,
    probe: Option<Probe>,
    tally: &mut GateTally,
) {
    let mut base = CosynOptions::default();
    if let Some(probe) = &probe {
        base = base.with_observer(probe.observer());
    }
    let problems = &mut tally.problems;
    let config = ExploreConfig::new(PORTFOLIO, 1).with_base(base.clone());
    let local = tracer.span("explore", op, None, |_| explore(&s.spec, &lib.lib, &config));
    let winner = match (&first.cold, local) {
        (Some(Ok(r)), Ok(outcome)) => {
            let local_key = (outcome.winner.report.cost.amount(), outcome.policy.id);
            if (r.cost, r.policy) != local_key || r.cached {
                problems.push(format!(
                    "{what}: served cold winner (cost {}, policy {}, cached {}) != in-process {local_key:?}",
                    r.cost, r.policy, r.cached
                ));
            }
            for hit in &first.hits {
                match hit {
                    Ok(h) if h.cached && (h.cost, h.policy) == (r.cost, r.policy) => {}
                    Ok(_) => problems.push(format!(
                        "{what}: a duplicate submit was not a cache hit of the winner"
                    )),
                    Err(e) => problems.push(format!("{what}: a duplicate submit failed: {e}")),
                }
            }
            tally.audits.check(
                tracer,
                op,
                &s.spec,
                &lib.lib,
                &outcome.winner,
                what,
                problems,
            );
            outcome.winner
        }
        (Some(Err(_)), Err(_)) => return,
        (served, local) => {
            problems.push(format!(
                "{what}: served cold {} but in-process explore {}",
                if matches!(served, Some(Ok(_))) {
                    "succeeded"
                } else {
                    "failed"
                },
                if local.is_ok() { "succeeded" } else { "failed" },
            ));
            return;
        }
    };

    let config = ResynConfig {
        jobs: 1,
        portfolio: PORTFOLIO,
        base,
        ..ResynConfig::default()
    };
    for (variant, served) in first.resyn.iter().enumerate() {
        let what = format!("{what} resyn {variant}");
        let deltas = s.deltas(winner.report.pe_count, variant);
        gate_resyn(
            tracer, lib, op, &what, s, &winner, &deltas, served, &config, tally,
        );
    }
    if let Some(probe) = &probe {
        probe.harvest(&mut tally.counts);
    }
}

/// Checks one served resyn reply against an in-process replay of the
/// ladder from the same winner. When `admission_check` rejects a delta,
/// which claims no architecture can meet the changed spec, cold
/// synthesis of that spec must fail too.
#[allow(clippy::too_many_arguments)]
fn gate_resyn(
    tracer: &Tracer,
    lib: &PaperLibrary,
    op: u64,
    what: &str,
    s: &ServeSpec,
    winner: &SynthesisResult,
    deltas: &[SpecDelta],
    served: &Result<ResynResult, String>,
    config: &ResynConfig,
    tally: &mut GateTally,
) {
    let problems = &mut tally.problems;
    // The ladder stops at the first rejected delta.
    let mut spec_after = s.spec.clone();
    let mut rejected = None;
    for delta in deltas {
        match delta.apply(&spec_after) {
            Ok(next) => spec_after = next,
            Err(e) => {
                problems.push(format!("{what}: a delta does not apply: {e}"));
                return;
            }
        }
        let verdict = tracer.span("admission_check", op, None, |_| {
            admission_check(&spec_after, delta)
        });
        if !verdict.admitted() {
            rejected = Some(spec_after);
            break;
        }
    }
    let replay = tracer.span("resynthesize_sequence", op, None, |_| {
        resynthesize_sequence(&s.spec, &lib.lib, winner.clone(), deltas, config)
    });
    match (served, replay) {
        (Ok(r), Ok(outcome)) => {
            let local: Vec<&str> = outcome.report.steps.iter().map(|s| s.rung.tag()).collect();
            if r.final_cost != outcome.report.final_cost || rungs(r) != local.join(",") {
                problems.push(format!(
                    "{what}: served (final {}, rungs {}) != in-process (final {}, rungs {})",
                    r.final_cost,
                    rungs(r),
                    outcome.report.final_cost,
                    local.join(",")
                ));
            }
            tally.audits.check(
                tracer,
                op,
                &outcome.spec,
                &lib.lib,
                &outcome.incumbent,
                what,
                problems,
            );
        }
        (Err(_), Err(_)) => {}
        (served, local) => problems.push(format!(
            "{what}: served {} but in-process replay {}",
            if served.is_ok() {
                "succeeded"
            } else {
                "failed"
            },
            match &local {
                Ok(_) => "succeeded".to_string(),
                Err(e) => format!("failed: {e}"),
            }
        )),
    }
    let rejections = if rejected.is_some() { 1.0 } else { 0.0 };
    add(&mut tally.counts, "resyn.rejections", rejections);
    if let Some(spec) = rejected {
        let cold = tracer.span("CoSynthesis::run", op, None, |_| {
            CoSynthesis::new(&spec, &lib.lib).run()
        });
        if let Ok(result) = cold {
            let what = format!("{what} rejected delta");
            if tally
                .audits
                .check(tracer, op, &spec, &lib.lib, &result, &what, problems)
            {
                problems.push(format!(
                    "{what}: unsound rejection: cold synthesis met a spec admission_check rejected"
                ));
            }
        }
    }
}

/// The correctness gate of one round, outside its timed window, on
/// every core. With `probe`, the replays' layer figures are tallied.
fn gate(
    tracer: &Tracer,
    lib: &PaperLibrary,
    specs: &[Vec<ServeSpec>],
    round: &Round,
    probe: bool,
) -> GateTally {
    let jobs: Vec<(u64, String, &ServeSpec, &SpecLog)> = specs
        .iter()
        .zip(&round.clients)
        .enumerate()
        .flat_map(|(c, (specs, logs))| {
            specs
                .iter()
                .zip(logs)
                .enumerate()
                .map(move |(i, (spec, log))| {
                    let op = (c * specs.len() + i) as u64;
                    (op, format!("client {c} spec {i}"), spec, log)
                })
        })
        .collect();
    let next = AtomicUsize::new(0);
    let total = Mutex::new(GateTally::default());
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut tally = GateTally::default();
                while let Some((op, what, spec, log)) =
                    jobs.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    let probe = probe.then(Probe::new);
                    gate_spec(tracer, lib, *op, what, spec, log, probe, &mut tally);
                }
                let mut total = total
                    .lock()
                    .expect("gate tally poisoned by a panicking thread");
                for (key, v) in tally.counts {
                    *total.counts.entry(key).or_insert(0.0) += v;
                }
                total.audits.calls += tally.audits.calls;
                total.audits.ms += tally.audits.ms;
                total.audits.violations += tally.audits.violations;
                total.problems.extend(tally.problems);
            });
        }
    });
    let mut tally = total.into_inner().expect("gate tally poisoned");
    tally.problems.sort();
    tally
}

/// The kind of a served request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Hit,
    Resyn,
}

/// One served request of a round, in the workload's fixed order.
#[derive(Debug)]
struct Served {
    kind: Kind,
    ms: f64,
    /// The reply without what varies between daemons (job ids): every
    /// round must get the same.
    reply: String,
    ok: bool,
    /// The cost of the architecture served: cold winners, resyn finals.
    cost: Option<f64>,
}

fn served(round: &Round) -> Vec<Served> {
    let mut out = Vec::new();
    let job = |r: &JobResult| {
        format!(
            "cost {} policy {} pes {} cached {}",
            r.cost, r.policy, r.pes, r.cached
        )
    };
    for log in round.logs() {
        let mut push = |kind, ms, reply: Result<(String, Option<u64>), &String>| {
            let ok = reply.is_ok();
            let (reply, cost) = reply.unwrap_or_else(|_| ("error".to_string(), None));
            out.push(Served {
                kind,
                ms,
                reply,
                ok,
                cost: cost.map(|c| c as f64),
            });
        };
        if let Some(cold) = &log.cold {
            push(
                Kind::Cold,
                log.cold_ms,
                cold.as_ref().map(|r| (job(r), Some(r.cost))),
            );
        }
        for (hit, ms) in log.hits.iter().zip(&log.hit_ms) {
            push(Kind::Hit, *ms, hit.as_ref().map(|r| (job(r), None)));
        }
        for (resyn, ms) in log.resyn.iter().zip(&log.resyn_ms) {
            let reply = resyn.as_ref().map(|r| {
                let reply = format!(
                    "final {} rungs {} cached {}",
                    r.final_cost,
                    rungs(r),
                    r.incumbent_cached
                );
                (reply, Some(r.final_cost))
            });
            push(Kind::Resyn, *ms, reply);
        }
    }
    out
}

/// What is kept of a round once it has been checked: its requests and
/// figures, not its replies.
#[derive(Default)]
struct Summary {
    wall_s: f64,
    served: Vec<Served>,
    problems: Vec<String>,
    /// Per-layer figures (traced rounds).
    counts: Counts,
    audits: Audits,
    specs: usize,
    tasks: usize,
    request_bytes: f64,
    /// The process's peak resident set after the round, before its gate
    /// (the checks' own memory is not the daemon's).
    rss_mb: f64,
}

/// Runs round `index` of its kind; the first one is gated, and later
/// ones must repeat its replies (the caller compares them).
fn round(
    ctx: &Ctx,
    lib: &PaperLibrary,
    specs: &[Vec<ServeSpec>],
    index: usize,
    traced: bool,
) -> Summary {
    let tracer = ctx.tracer_for(traced);
    let round = run_round(tracer, lib, specs);
    let mut out = Summary {
        wall_s: round.wall_s,
        served: served(&round),
        problems: round.problems.clone(),
        rss_mb: peak_rss_mb(),
        ..Summary::default()
    };
    if !out.problems.is_empty() {
        return out;
    }
    if traced {
        out.counts = serve_counts(&round);
    }
    if index > 0 {
        return out;
    }
    let mut gated = gate(tracer, lib, specs, &round, traced);
    out.problems.append(&mut gated.problems);
    if traced {
        derive(&mut gated.counts);
        out.counts.extend(gated.counts);
        out.audits = gated.audits;
        let specs: Vec<&SystemSpec> = specs.iter().flatten().map(|s| &s.spec).collect();
        out.specs = specs.len();
        out.tasks = specs.iter().map(|s| s.task_count()).sum();
        let bytes: Vec<f64> = specs
            .iter()
            .filter_map(|spec| {
                let request = Request {
                    v: PROTOCOL_VERSION,
                    client: "perfbench-0".into(),
                    body: RequestBody::Submit(SubmitRequest {
                        payload: payload(lib, spec),
                        portfolio: PORTFOLIO,
                        reconfiguration: true,
                        stream: false,
                    }),
                };
                encode_frame(&request).ok().map(|f| f.len() as f64)
            })
            .collect();
        out.request_bytes = bytes.iter().sum::<f64>() / bytes.len().max(1) as f64;
    }
    out
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let mut gen_s = Vec::new();
    // Set-up failures of every repetition.
    let problems = RefCell::new(Vec::new());
    let ((lib, specs), mut setup) = Setup::new(|| {
        let t = Instant::now();
        let lib = paper_library();
        let g = Instant::now();
        let specs = serve_specs(&lib, ctx.seed);
        gen_s.push(g.elapsed().as_secs_f64());
        let server = ServerHandle::bind(ServeConfig::default());
        let secs = t.elapsed().as_secs_f64();
        match server {
            Ok(server) => {
                let addr = server.local_addr().to_string();
                if let Err(e) = ServeClient::new(addr, "perfbench-admin").shutdown() {
                    problems
                        .borrow_mut()
                        .push(format!("shutdown request failed: {e}"));
                }
                if let Err(e) = server.wait() {
                    problems
                        .borrow_mut()
                        .push(format!("daemon did not drain cleanly: {e}"));
                }
            }
            Err(e) => problems
                .borrow_mut()
                .push(format!("daemon bind failed: {e}")),
        }
        ((lib, specs), secs)
    });
    if !problems.borrow().is_empty() {
        outcome.problems = problems.take();
        return outcome;
    }

    let (untraced, traced) = measure(
        ctx,
        |r, traced| {
            let summary = round(ctx, &lib, &specs, r, traced);
            setup.after_pass();
            summary
        },
        |r| r.wall_s,
    );
    let setup_s = setup.finish();
    outcome.problems = problems.take();
    outcome.passes = (untraced.len(), traced.len());
    let reference = &untraced[0];
    // Every round repeats the same requests, so each counts once.
    outcome.attempted = reference.served.len() as u64;
    outcome.failed = reference.served.iter().filter(|s| !s.ok).count() as u64;
    let replies = |r: &Summary| r.served.iter().map(|s| s.reply.clone()).collect::<Vec<_>>();
    for r in untraced.iter().chain(&traced) {
        outcome.problems.extend(r.problems.iter().cloned());
        if replies(r) != replies(reference) {
            outcome
                .problems
                .push("replies differ between rounds".to_string());
        }
    }
    if !outcome.problems.is_empty() {
        return outcome;
    }

    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    common_metrics(&mut outcome, &setup_s, &walls, untraced[0].rss_mb);
    let times: Vec<Vec<f64>> = untraced
        .iter()
        .map(|r| r.served.iter().map(|s| s.ms).collect())
        .collect();
    let per_request = median_of(&times);
    let of = |kind: Kind, ok_only: bool| -> Vec<f64> {
        let requests = reference.served.iter().zip(&per_request);
        requests
            .filter(|(s, _)| s.kind == kind && (s.ok || !ok_only))
            .map(|(_, ms)| *ms)
            .collect()
    };
    latency(&mut outcome, "cold", &of(Kind::Cold, true));
    latency(&mut outcome, "hit", &of(Kind::Hit, true));
    latency(&mut outcome, "resyn", &of(Kind::Resyn, true));
    // Every spec is submitted cold once: its time to a first verdict.
    let verdicts = of(Kind::Cold, false);
    outcome.end_to_end.insert("geomean_ms", geomean(&verdicts));
    outcome.samples.insert("geomean_ms".into(), verdicts.len());
    let costs: Vec<f64> = reference.served.iter().filter_map(|s| s.cost).collect();
    outcome.end_to_end.insert("cost_usd", mean(&costs));
    outcome.samples.insert("cost_usd".into(), costs.len());

    if let Some(first) = traced.first() {
        // Counts from the first traced round, the one gated; times are
        // medians over every traced round.
        fold_layers(&mut outcome, std::slice::from_ref(&first.counts), |_| false);
        for key in first
            .counts
            .keys()
            .filter(|k| is_timing(k) && k.starts_with("serve."))
        {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.counts.get(key).copied())
                .collect();
            outcome.layers.insert(key.clone(), median(&values));
        }
        first.audits.report(&mut outcome.layers);
        for key in ["audit.calls", "audit.violations"] {
            let v = outcome.layers[key];
            outcome.deterministic.insert(key.into(), v);
        }
        outcome
            .layers
            .insert("serve.request_bytes".into(), first.request_bytes);
        gen_layer(&mut outcome.layers, first.specs, first.tasks, &gen_s);
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
        if let Some(pct) = overhead_pct(&walls, &traced_walls) {
            outcome.layers.insert("obs.overhead_pct".into(), pct);
        }
    }
    outcome
}
