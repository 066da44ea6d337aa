//! The CRUSADE command-line interface.
//!
//! ```text
//! crusade synth <spec.json|name> [--no-reconfig]
//!                                             co-synthesize a specification
//! crusade upgrade <old.json|name> <new.json|name>
//!                                             can the new spec ship as firmware?
//! crusade example <name> [--no-reconfig]      run a built-in paper benchmark
//! crusade sample <path.json>                  write a sample specification file
//! crusade lint <spec.json|name> [--format json]
//!                                             statically analyze a specification
//!                                             without synthesizing it
//! crusade audit <spec.json|name> [--no-reconfig]
//!                                             synthesize, then independently
//!                                             re-verify every claimed invariant
//! crusade inject <spec.json|name> [--seeds N] [--no-reconfig]
//!                                             seeded fault-injection campaign
//!                                             against the synthesized system
//! crusade explore <spec.json|name> [--jobs N] [--portfolio M] [--no-reconfig]
//!                                             parallel multi-start exploration
//!                                             over a portfolio of synthesis
//!                                             policies
//! crusade trace <spec.json|name> [--out trace.jsonl] [--jobs N] [--portfolio M]
//!                                             explore, then replay the winning
//!                                             policy with the structured-event
//!                                             observer attached and emit the
//!                                             JSONL trace
//! crusade resyn <spec.json|name> --deltas deltas.json [--jobs N] [--portfolio M]
//!               [--retry-budget K] [--out report.json]
//!                                             synthesize the system cold, then
//!                                             drive a JSON sequence of spec
//!                                             deltas through the online
//!                                             re-synthesis escalation ladder
//! crusade serve [--addr HOST:PORT] [--workers N]
//!                                             run the synthesis-as-a-service
//!                                             daemon until a Shutdown request
//! crusade client <verb> --addr HOST:PORT     submit / status / cancel / resyn /
//!                                             stats / shutdown against a
//!                                             running daemon
//! ```
//!
//! `synth` and `explore` accept `--metrics`: a metrics accumulator is
//! attached to the run and its JSON snapshot printed after the normal
//! output. The `trace` output is deterministic — byte-identical for any
//! `--jobs` value — because the trace comes from a solo replay of the
//! deterministic winner, never from the racing portfolio members.
//!
//! `lint`, `audit`, `inject` and `explore` accept a specification file,
//! the name of a built-in paper benchmark (`crusade lint vdrtx`), or a
//! generated-family reference (`crusade lint gen:7:2.5` — seed 7 at
//! total utilization 2.5), resolved through one shared loading path.
//! `crusade sweep` runs the schedulability-ratio experiment over those
//! generated families: per utilization point (times an optional
//! secondary axis) it generates N seeded specs and reports how many
//! synthesize to an audit-clean architecture.
//!
//! Exit codes (shared by `lint` and `audit`): **0** — clean; **1** —
//! warnings only (lint); **2** — proved infeasibilities, audit
//! violations, or an operational error.
//!
//! A specification file is a JSON object `{ "library": ..., "spec": ... }`
//! whose two fields are the serde forms of
//! [`crusade::model::ResourceLibrary`] and [`crusade::model::SystemSpec`];
//! `crusade sample` writes a commented starting point.

use std::process::ExitCode;

use crusade::core::{describe, upgrade_in_field, CoSynthesis, CosynOptions};
use crusade::lint::Severity;
use crusade::model::{ResourceLibrary, SystemSpec};
use crusade::workloads::{paper_examples, paper_library};
use serde::{Deserialize, Serialize};

/// Process exit code for a fully clean run.
const EXIT_CLEAN: u8 = 0;
/// Exit code when a check produced warnings but no proved failure.
const EXIT_WARNINGS: u8 = 1;
/// Exit code for proved infeasibilities, audit violations, or
/// operational errors (bad arguments, unreadable files).
const EXIT_ERRORS: u8 = 2;

const USAGE: &str = "usage: crusade <command> ...

commands:
  synth <spec.json|name> [--no-reconfig] [--metrics]
                                               co-synthesize a specification
  upgrade <old.json|name> <new.json|name>      can the new spec ship as firmware?
  example <name> [--no-reconfig]               run a built-in paper benchmark
  sample <path.json>                           write a sample specification file
  lint <spec.json|name> [--format json]        static analysis, no synthesis
  audit <spec.json|name> [--no-reconfig]       synthesize + independent re-verify
  inject <spec.json|name> [--seeds N] [--no-reconfig]
                                               seeded fault-injection campaign
  sweep [--points U1,U2,...] [--seeds N] [--seed S] [--graphs G] [--tightness T]
        [--hw-share H] [--comm-density D] [--secondary none|tightness|hw-share]
        [--secondary-points V1,V2,...] [--out sweep.json] [--no-audit] [--no-reconfig]
                                               schedulability-ratio sweep over
                                               generated workload families:
                                               acceptance ratio and mean cost
                                               per utilization point
  explore <spec.json|name> [--jobs N] [--portfolio M] [--no-reconfig] [--metrics]
                                               parallel multi-start exploration
  trace <spec.json|name> [--out trace.jsonl] [--jobs N] [--portfolio M] [--no-reconfig]
                                               explore, then replay the winner
                                               with the event observer attached
                                               and emit the JSONL trace
  resyn <spec.json|name> --deltas <deltas.json> [--jobs N] [--portfolio M]
        [--retry-budget K] [--from-rung R] [--out report.json] [--no-reconfig]
                                               online re-synthesis: apply a JSON
                                               sequence of spec deltas to the
                                               deployed system via warm-start
                                               repair with graceful degradation
                                               (--from-rung warm|widened|portfolio|cold
                                               skips the cheaper rungs — a forced
                                               restart)
  serve [--addr HOST:PORT] [--workers N] [--jobs N] [--queue-cap N] [--quota N]
        [--port-file path]                     synthesis-as-a-service daemon:
                                               newline-delimited JSON over TCP,
                                               spec-fingerprint result cache,
                                               graceful drain via a Shutdown
                                               request (exit 0)
  client <submit|status|cancel|resyn|stats|shutdown> --addr HOST:PORT ...
                                               talk to a running daemon (see
                                               `crusade client` for verb usage)

exit codes (lint, audit):
  0  clean — no findings (informational bounds do not count)
  1  warnings only — synthesis may still succeed
  2  errors — proved infeasibility / audit violation / operational error

exit codes (resyn):
  0  every delta admitted and repaired on a warm rung (in-place/warm/widened)
  1  repaired, but at least one delta degraded to a portfolio or cold restart
  2  a delta was rejected, invalid, or infeasible even for cold synthesis";

#[derive(Serialize, Deserialize)]
struct SpecFile {
    library: ResourceLibrary,
    spec: SystemSpec,
}

fn load(path: &str) -> Result<SpecFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn options(args: &[String]) -> CosynOptions {
    if args.iter().any(|a| a == "--no-reconfig") {
        CosynOptions::without_reconfiguration()
    } else {
        CosynOptions::default()
    }
}

fn cmd_synth(args: &[String]) -> Result<u8, String> {
    let arg = args
        .first()
        .ok_or("usage: crusade synth <spec.json|name>")?;
    let (library, spec) = load_or_example(arg)?;
    let mut opts = options(args);
    let metrics = args.iter().any(|a| a == "--metrics").then(|| {
        let metrics = std::sync::Arc::new(crusade::obs::Metrics::new());
        opts = opts.clone().with_observer(metrics.clone());
        metrics
    });
    let result = CoSynthesis::new(&spec, &library)
        .with_options(opts)
        .run()
        .map_err(|e| e.to_string())?;
    print!("{}", describe(&result, &spec, &library));
    if let Some(metrics) = metrics {
        println!(
            "{}",
            serde_json::to_string_pretty(&metrics.snapshot()).map_err(|e| e.to_string())?
        );
    }
    Ok(EXIT_CLEAN)
}

fn cmd_upgrade(args: &[String]) -> Result<u8, String> {
    let (old_arg, new_arg) = match args {
        [a, b, ..] => (a, b),
        _ => return Err("usage: crusade upgrade <old.json|name> <new.json|name>".into()),
    };
    let (old_library, old_spec) = load_or_example(old_arg)?;
    let (new_library, new_spec) = load_or_example(new_arg)?;
    let deployed = CoSynthesis::new(&old_spec, &old_library)
        .run()
        .map_err(|e| format!("synthesizing the deployed system: {e}"))?;
    println!(
        "deployed: {} PEs, {} links, {}",
        deployed.report.pe_count, deployed.report.link_count, deployed.report.cost
    );
    match upgrade_in_field(
        &deployed.architecture,
        &new_spec,
        &new_library,
        &CosynOptions::default(),
    ) {
        Ok(up) => {
            println!(
                "upgrade: ships as firmware — {} new configuration image(s), hardware unchanged",
                up.extra_modes
            );
            Ok(EXIT_CLEAN)
        }
        Err(e) => {
            println!("upgrade: requires new hardware ({e})");
            Ok(EXIT_CLEAN)
        }
    }
}

fn cmd_example(args: &[String]) -> Result<u8, String> {
    let name = args.first().ok_or("usage: crusade example <name>")?;
    let lib = paper_library();
    let ex = paper_examples()
        .into_iter()
        .find(|e| e.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown example {name}; available: {}",
                paper_examples()
                    .iter()
                    .map(|e| e.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    let spec = ex.build(&lib);
    let result = CoSynthesis::new(&spec, &lib.lib)
        .with_options(options(args))
        .run()
        .map_err(|e| e.to_string())?;
    println!(
        "{}: {} tasks -> {} PEs, {} links, {} ({} multi-mode devices; {:?})",
        ex.name,
        spec.task_count(),
        result.report.pe_count,
        result.report.link_count,
        result.report.cost,
        result.report.multi_mode_devices,
        result.report.cpu_time,
    );
    Ok(EXIT_CLEAN)
}

fn cmd_sample(args: &[String]) -> Result<u8, String> {
    use crusade::model::{
        CpuAttrs, Dollars, ExecutionTimes, HwDemand, LinkClass, LinkType, Nanos, PeClass, PeType,
        PpeAttrs, PpeKind, Preference, Task, TaskGraphBuilder,
    };
    let path = args.first().ok_or("usage: crusade sample <path.json>")?;
    let mut library = ResourceLibrary::new();
    let cpu = library.add_pe(PeType::new(
        "cpu",
        Dollars::new(95),
        PeClass::Cpu(CpuAttrs {
            memory_bytes: 4 << 20,
            context_switch: Nanos::from_micros(8),
            comm_ports: 2,
            comm_overlap: true,
        }),
    ));
    let fpga = library.add_pe(PeType::new(
        "fpga",
        Dollars::new(250),
        PeClass::Ppe(PpeAttrs {
            kind: PpeKind::Fpga,
            pfus: 1000,
            flip_flops: 2000,
            pins: 160,
            boot_memory_bytes: 20 << 10,
            config_bits_per_pfu: 150,
            partial_reconfig: false,
        }),
    ));
    library.add_link(LinkType::new(
        "bus",
        Dollars::new(12),
        LinkClass::Bus,
        8,
        vec![Nanos::from_nanos(300)],
        64,
        Nanos::from_micros(1),
    ));
    let mut b = TaskGraphBuilder::new("sample-pipeline", Nanos::from_millis(1));
    let parse = b.add_task(Task::new(
        "parse",
        ExecutionTimes::from_entries(2, [(cpu, Nanos::from_micros(60))]),
    ));
    let mut filter = Task::new(
        "filter",
        ExecutionTimes::from_entries(2, [(fpga, Nanos::from_micros(12))]),
    );
    filter.preference = Preference::Only(vec![fpga]);
    filter.hw = HwDemand::new(0, 220, 220, 12);
    let filter = b.add_task(filter);
    let log = b.add_task(Task::new(
        "log",
        ExecutionTimes::from_entries(2, [(cpu, Nanos::from_micros(40))]),
    ));
    b.add_edge(parse, filter, 512);
    b.add_edge(filter, log, 128);
    let spec = SystemSpec::new(vec![b
        .deadline(Nanos::from_micros(800))
        .build()
        .map_err(|e| e.to_string())?]);
    let file = SpecFile { library, spec };
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote sample specification to {path}");
    Ok(EXIT_CLEAN)
}

/// Resolves a spec argument: the name of a built-in benchmark, a
/// generated-family reference (`gen:SEED[:UTIL[:GRAPHS[:TIGHTNESS]]]`),
/// or a specification file. The single loading path every analysis
/// command shares.
fn load_or_example(arg: &str) -> Result<(ResourceLibrary, SystemSpec), String> {
    if let Some(parsed) = crusade::gen::GenConfig::from_ref(arg) {
        return Ok(crusade::gen::generate_payload(&parsed?));
    }
    if let Some(ex) = paper_examples()
        .into_iter()
        .find(|e| e.name.eq_ignore_ascii_case(arg))
    {
        let lib = paper_library();
        let spec = ex.build(&lib);
        return Ok((lib.lib, spec));
    }
    let file = load(arg)?;
    Ok((file.library, file.spec))
}

/// Statically analyzes a specification without synthesizing it.
///
/// Prints each diagnostic (most severe first) and exits 0 when clean,
/// 1 when only warnings were found, 2 when an infeasibility was proved.
fn cmd_lint(args: &[String]) -> Result<u8, String> {
    let arg = args
        .first()
        .ok_or("usage: crusade lint <spec.json|example-name> [--format json]")?;
    let json = match args.iter().position(|a| a == "--format") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("json") => true,
            Some("text") | None => false,
            Some(other) => return Err(format!("--format: unknown format {other}")),
        },
        None => false,
    };
    let (library, spec) = load_or_example(arg)?;
    let report = crusade::lint::lint(&spec, &library, &crusade::lint::LintOptions::default());
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        let mut lints: Vec<_> = report.iter().collect();
        lints.sort_by_key(|l| std::cmp::Reverse(l.severity()));
        for l in lints {
            println!("{}[{}]: {l}", l.severity(), l.kind());
        }
        println!(
            "lint: {} error(s), {} warning(s), {} info",
            report.count(Severity::Error),
            report.count(Severity::Warning),
            report.count(Severity::Info),
        );
    }
    Ok(if report.has_errors() {
        EXIT_ERRORS
    } else if report.is_clean() {
        EXIT_CLEAN
    } else {
        EXIT_WARNINGS
    })
}

fn cmd_audit(args: &[String]) -> Result<u8, String> {
    let arg = args
        .first()
        .ok_or("usage: crusade audit <spec.json|example-name> [--no-reconfig]")?;
    let (library, spec) = load_or_example(arg)?;
    let options = options(args);
    let result = CoSynthesis::new(&spec, &library)
        .with_options(options.clone())
        .run()
        .map_err(|e| e.to_string())?;
    let violations = crusade::verify::audit(&spec, &library, &options, &result);
    println!(
        "synthesized: {} PEs, {} links, {}",
        result.report.pe_count, result.report.link_count, result.report.cost
    );
    if violations.is_empty() {
        println!("audit: clean — every re-derived invariant holds");
        Ok(EXIT_CLEAN)
    } else {
        for v in &violations {
            println!("audit: [{}] {v}", v.kind());
        }
        // Violations are findings, not operational errors: report them on
        // stdout like `lint` does and exit 2 through the shared convention
        // rather than through the `error:` path.
        println!(
            "audit: {} violation(s) — architecture rejected",
            violations.len()
        );
        Ok(EXIT_ERRORS)
    }
}

/// Parses an optional `--name <usize>` flag.
fn flag_usize(args: &[String], name: &str) -> Result<Option<usize>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .ok_or(format!("{name} needs a value"))?
            .parse::<usize>()
            .map(Some)
            .map_err(|e| format!("{name}: {e}")),
        None => Ok(None),
    }
}

/// Runs the parallel multi-start exploration engine over a portfolio of
/// synthesis policies and prints the cheapest audit-clean winner.
///
/// The winner line on stdout is deterministic — bit-identical regardless
/// of `--jobs`. Member statistics go to stderr.
fn cmd_explore(args: &[String]) -> Result<u8, String> {
    let arg = args
        .first()
        .ok_or("usage: crusade explore <spec.json|example-name> [--jobs N] [--portfolio M]")?;
    let jobs = match flag_usize(args, "--jobs")? {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, usize::from),
    };
    let portfolio = flag_usize(args, "--portfolio")?.unwrap_or(8).max(1);
    let (library, spec) = load_or_example(arg)?;
    let mut base = options(args);
    let metrics = args.iter().any(|a| a == "--metrics").then(|| {
        let metrics = std::sync::Arc::new(crusade::obs::Metrics::new());
        base = base.clone().with_observer(metrics.clone());
        metrics
    });
    let config = crusade::explore::ExploreConfig::new(portfolio, jobs).with_base(base);
    let outcome = crusade::explore::explore(&spec, &library, &config).map_err(|e| e.to_string())?;
    println!(
        "explore: winner policy #{} -> {} PEs, {} links, {} ({} multi-mode devices)",
        outcome.policy.id,
        outcome.winner.report.pe_count,
        outcome.winner.report.link_count,
        outcome.winner.report.cost,
        outcome.winner.report.multi_mode_devices,
    );
    let stats = &outcome.stats;
    eprintln!(
        "explore: portfolio {} at {} job(s) — {} clean, {} audit-rejected, {} failed",
        stats.portfolio, stats.jobs, stats.clean, stats.audit_rejected, stats.failed,
    );
    if let Some(metrics) = metrics {
        // Aggregated over every portfolio member, including phase wall
        // times, so it goes to stdout only on explicit request.
        println!(
            "{}",
            serde_json::to_string_pretty(&metrics.snapshot()).map_err(|e| e.to_string())?
        );
    }
    Ok(EXIT_CLEAN)
}

/// Parses an optional `--name <f64>` flag.
fn flag_f64(args: &[String], name: &str) -> Result<Option<f64>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .ok_or(format!("{name} needs a value"))?
            .parse::<f64>()
            .map(Some)
            .map_err(|e| format!("{name}: {e}")),
        None => Ok(None),
    }
}

/// Parses an optional `--name <u64>` flag.
fn flag_u64(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .ok_or(format!("{name} needs a value"))?
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("{name}: {e}")),
        None => Ok(None),
    }
}

/// Parses an optional `--name a,b,c` comma-separated float list.
fn flag_f64_list(args: &[String], name: &str) -> Result<Option<Vec<f64>>, String> {
    match flag_str(args, name)? {
        None => Ok(None),
        Some(text) => text
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("{name}: {t:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

/// Parses an optional `--name <string>` flag.
fn flag_str<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or(format!("{name} needs a value")),
        None => Ok(None),
    }
}

/// Explores, then replays the winning policy solo with a trace + metrics
/// observer attached, and emits the replay's JSONL trace.
///
/// The trace is deterministic: byte-identical for any `--jobs` value,
/// because the racing portfolio members are never traced — only the solo
/// replay of the deterministic winner is.
fn cmd_trace(args: &[String]) -> Result<u8, String> {
    let arg = args.first().ok_or(
        "usage: crusade trace <spec.json|example-name> [--out trace.jsonl] [--jobs N] \
         [--portfolio M] [--no-reconfig]",
    )?;
    let jobs = match flag_usize(args, "--jobs")? {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, usize::from),
    };
    let portfolio = flag_usize(args, "--portfolio")?.unwrap_or(8).max(1);
    let out = flag_str(args, "--out")?;
    let (library, spec) = load_or_example(arg)?;
    let config = crusade::explore::ExploreConfig::new(portfolio, jobs).with_base(options(args));
    let traced =
        crusade::explore::explore_traced(&spec, &library, &config).map_err(|e| e.to_string())?;
    let records = traced.trace_jsonl.lines().count();
    match out {
        Some(path) => {
            std::fs::write(path, &traced.trace_jsonl)
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("trace: {records} record(s) -> {path}");
        }
        None => print!("{}", traced.trace_jsonl),
    }
    let m = &traced.metrics;
    eprintln!(
        "trace: winner policy #{} -> {} ({} attempts, {} rejected, {} placements, {} span pairs)",
        traced.outcome.policy.id,
        traced.outcome.winner.report.cost,
        m.attempts,
        m.rejected,
        m.placements,
        m.events_by_kind.get("SpanOpen").copied().unwrap_or(0),
    );
    Ok(EXIT_CLEAN)
}

fn cmd_inject(args: &[String]) -> Result<u8, String> {
    let arg = args
        .first()
        .ok_or("usage: crusade inject <spec.json|example-name> [--seeds N] [--no-reconfig]")?;
    let seeds = match args.iter().position(|a| a == "--seeds") {
        Some(i) => args
            .get(i + 1)
            .ok_or("--seeds needs a value")?
            .parse::<u64>()
            .map_err(|e| format!("--seeds: {e}"))?,
        None => 25,
    };
    let (library, spec) = load_or_example(arg)?;
    let options = options(args);
    let deployed = CoSynthesis::new(&spec, &library)
        .with_options(options.clone())
        .run()
        .map_err(|e| e.to_string())?;
    println!(
        "deployed: {} PEs, {} links, {}",
        deployed.report.pe_count, deployed.report.link_count, deployed.report.cost
    );
    let (mut survived, mut degraded, mut failed, mut dirty) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..seeds {
        let report = crusade::verify::inject(&spec, &library, &options, &deployed, seed);
        use crusade::verify::Outcome;
        let verdict = match &report.outcome {
            Outcome::Survived => {
                survived += 1;
                "survived".to_string()
            }
            Outcome::Degraded {
                added_cost,
                retries,
            } => {
                degraded += 1;
                format!("degraded (+{added_cost}, {retries} retries)")
            }
            Outcome::FailedGracefully(e) => {
                failed += 1;
                format!("failed gracefully: {e}")
            }
            Outcome::AuditDirty(v) => {
                dirty += 1;
                format!("AUDIT DIRTY ({} violations)", v.len())
            }
        };
        println!("seed {seed:>3}  {:<45} -> {verdict}", report.scenario);
    }
    println!(
        "campaign: {seeds} scenarios — {survived} survived, {degraded} degraded, \
         {failed} failed gracefully, {dirty} audit-dirty"
    );
    if dirty > 0 {
        Err(format!("{dirty} scenario(s) produced an invalid repair"))
    } else {
        Ok(EXIT_CLEAN)
    }
}

/// Schedulability-ratio sweep over generated workload families: for
/// each utilization point (and optional secondary-axis value), generate
/// N seeded specs, run lint → synthesis → audit on each, and report the
/// acceptance ratio and mean architecture cost.
///
/// Exit codes: **0** — sweep completed with no audit-dirty run; **2** —
/// at least one synthesized architecture failed the independent audit,
/// or an operational error.
fn cmd_sweep(args: &[String]) -> Result<u8, String> {
    use crusade::gen::{GenConfig, SecondaryAxis, SweepArtifact, SweepConfig};
    let mut base = GenConfig::default();
    if let Some(seed) = flag_u64(args, "--seed")? {
        base.seed = seed;
    }
    if let Some(graphs) = flag_usize(args, "--graphs")? {
        base.graphs = graphs;
    }
    if let Some(tightness) = flag_f64(args, "--tightness")? {
        base.tightness = tightness;
    }
    if let Some(hw_share) = flag_f64(args, "--hw-share")? {
        base.hw_share = hw_share;
    }
    if let Some(density) = flag_f64(args, "--comm-density")? {
        base.comm_density = density;
    }
    let secondary_points = flag_f64_list(args, "--secondary-points")?;
    let secondary = match flag_str(args, "--secondary")? {
        None | Some("none") => SecondaryAxis::None,
        Some("tightness") => {
            SecondaryAxis::Tightness(secondary_points.unwrap_or(vec![0.15, 0.45, 0.75]))
        }
        Some("hw-share") => SecondaryAxis::HwShare(secondary_points.unwrap_or(vec![0.0, 0.3, 0.6])),
        Some(other) => {
            return Err(format!(
                "--secondary: unknown axis {other} (none|tightness|hw-share)"
            ))
        }
    };
    let config = SweepConfig {
        base,
        utilizations: flag_f64_list(args, "--points")?.unwrap_or(vec![0.8, 1.6, 2.4, 3.2, 4.0]),
        secondary,
        seeds: flag_u64(args, "--seeds")?.unwrap_or(5).max(1),
        options: options(args),
        audit: !args.iter().any(|a| a == "--no-audit"),
    };
    let lib = paper_library();
    let points = crusade::gen::run_sweep(&lib, &config, |p| {
        let secondary = p
            .secondary
            .map_or(String::new(), |v| format!(" {}={v:.2}", p.secondary_axis));
        println!(
            "sweep: u={:.2}{secondary}  {}/{} accepted ({} lint-rejected, {} infeasible, \
             {} audit-dirty){}",
            p.utilization,
            p.accepted,
            p.seeds,
            p.lint_rejected,
            p.infeasible,
            p.audit_dirty,
            p.mean_cost
                .map_or(String::new(), |c| format!(", mean cost ${c:.0}")),
        );
    });
    let dirty: u64 = points.iter().map(|p| p.audit_dirty).sum();
    let artifact = SweepArtifact::new(&config, points);
    println!(
        "sweep: {} point(s) x {} seed(s) — overall acceptance {:.0}%",
        artifact.points.len(),
        artifact.seeds_per_point,
        100.0 * artifact.points.iter().map(|p| p.accepted).sum::<u64>() as f64
            / (artifact.points.iter().map(|p| p.seeds).sum::<u64>().max(1) as f64),
    );
    if let Some(path) = flag_str(args, "--out")? {
        let json = serde_json::to_string_pretty(&artifact).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("sweep: artifact -> {path}");
    }
    if dirty > 0 {
        println!("sweep: {dirty} audit-dirty run(s) — architectures rejected");
        Ok(EXIT_ERRORS)
    } else {
        Ok(EXIT_CLEAN)
    }
}

/// Online re-synthesis: cold-synthesizes the incumbent, then drives a
/// JSON sequence of spec deltas through the escalation ladder.
///
/// Exit codes: **0** — every delta served by a warm rung (in-place, warm
/// or widened); **1** — repaired, but at least one delta degraded to a
/// portfolio or cold restart; **2** — a delta was rejected by admission,
/// malformed, an invalid fault, or infeasible even cold.
fn cmd_resyn(args: &[String]) -> Result<u8, String> {
    let arg = args.first().ok_or(
        "usage: crusade resyn <spec.json|example-name> --deltas <deltas.json> [--jobs N] \
         [--portfolio M] [--retry-budget K] [--out report.json] [--no-reconfig]",
    )?;
    let deltas_path = flag_str(args, "--deltas")?.ok_or("resyn needs --deltas <deltas.json>")?;
    let jobs = match flag_usize(args, "--jobs")? {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, usize::from),
    };
    let portfolio = flag_usize(args, "--portfolio")?.unwrap_or(4).max(1);
    let retry_budget = flag_usize(args, "--retry-budget")?.unwrap_or(8);
    let start = match flag_str(args, "--from-rung")? {
        Some(tag) => crusade::explore::Rung::parse(tag).ok_or(format!(
            "--from-rung: unknown rung {tag} (warm|widened|portfolio|cold)"
        ))?,
        None => crusade::explore::Rung::Warm,
    };
    let out = flag_str(args, "--out")?;
    let (library, spec) = load_or_example(arg)?;
    let text =
        std::fs::read_to_string(deltas_path).map_err(|e| format!("reading {deltas_path}: {e}"))?;
    let deltas: Vec<crusade::model::SpecDelta> =
        serde_json::from_str(&text).map_err(|e| format!("parsing {deltas_path}: {e}"))?;

    crusade::verify::install_auditor();
    let base = options(args);
    let incumbent = CoSynthesis::new(&spec, &library)
        .with_options(base.clone())
        .run()
        .map_err(|e| format!("cold-synthesizing the incumbent: {e}"))?;
    println!(
        "deployed: {} PEs, {} links, {}",
        incumbent.report.pe_count, incumbent.report.link_count, incumbent.report.cost
    );

    let config = crusade::explore::ResynConfig {
        jobs,
        portfolio,
        retry_budget,
        start,
        base,
    };
    match crusade::explore::resynthesize_sequence(&spec, &library, incumbent, &deltas, &config) {
        Ok(outcome) => {
            for step in &outcome.report.steps {
                println!(
                    "delta {:>3}  {:<18} -> {:<9} (moved {}, +${}, cost ${}, {} retries)",
                    step.index,
                    step.kind,
                    step.rung.tag(),
                    step.moved_clusters,
                    step.added_cost,
                    step.cost,
                    step.retries,
                );
                for trigger in &step.triggers {
                    println!("            escalated: {trigger}");
                }
            }
            let histogram: Vec<String> = outcome
                .report
                .rung_histogram()
                .into_iter()
                .map(|(tag, n)| format!("{tag} {n}"))
                .collect();
            println!(
                "resyn: {} delta(s), final cost ${} — rungs: {}",
                outcome.report.steps.len(),
                outcome.report.final_cost,
                histogram.join(", "),
            );
            if let Some(path) = out {
                let json =
                    serde_json::to_string_pretty(&outcome.report).map_err(|e| e.to_string())?;
                std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
                println!("resyn: report -> {path}");
            }
            if outcome.report.degraded {
                println!("resyn: degraded — at least one delta needed a restart rung");
                Ok(EXIT_WARNINGS)
            } else {
                Ok(EXIT_CLEAN)
            }
        }
        // Ladder errors are findings about the delta sequence, not
        // operational errors: report them on stdout like `audit` does and
        // exit 2 through the shared convention.
        Err(e) => {
            println!("resyn: {e}");
            Ok(EXIT_ERRORS)
        }
    }
}

/// Runs the synthesis-as-a-service daemon until a `Shutdown` request
/// drains it. Signal-free by design: the drain is part of the protocol,
/// so a clean exit is always exit code 0.
fn cmd_serve(args: &[String]) -> Result<u8, String> {
    let addr = flag_str(args, "--addr")?
        .unwrap_or("127.0.0.1:0")
        .to_string();
    let workers = flag_usize(args, "--workers")?.unwrap_or(2).max(1);
    let jobs = flag_usize(args, "--jobs")?.unwrap_or(1).max(1);
    let queue_cap = flag_usize(args, "--queue-cap")?.unwrap_or(64).max(1);
    let quota = flag_usize(args, "--quota")?.unwrap_or(8).max(1);
    let port_file = flag_str(args, "--port-file")?.map(str::to_string);
    let config = crusade::serve::ServeConfig {
        addr,
        workers,
        jobs_per_explore: jobs,
        queue_cap,
        client_quota: quota,
        ..crusade::serve::ServeConfig::default()
    };
    let report = crusade::serve::serve(config, |addr| {
        println!("serve: listening on {addr} ({workers} workers)");
        if let Some(path) = &port_file {
            if let Err(e) = std::fs::write(path, addr.to_string()) {
                eprintln!("serve: writing {path}: {e}");
            }
        }
    })
    .map_err(|e| e.to_string())?;
    println!(
        "serve: drained — {} running job(s) finished, {} queued job(s) cancelled",
        report.drained, report.cancelled
    );
    Ok(EXIT_CLEAN)
}

/// Builds the wire payload a client sends: the same shape a spec file
/// holds, resolved locally so the server needs no benchmark knowledge.
fn client_payload(arg: &str) -> Result<crusade::serve::SpecPayload, String> {
    let (library, spec) = load_or_example(arg)?;
    Ok(crusade::serve::SpecPayload { library, spec })
}

/// Talks to a running daemon: submit, status, cancel, resyn, stats,
/// shutdown.
///
/// Exit codes: **0** — success (for `resyn`, every delta on a warm
/// rung); **1** — `resyn` succeeded but degraded to a restart rung;
/// **2** — refused or failed (admission, infeasibility, transport).
fn cmd_client(args: &[String]) -> Result<u8, String> {
    const CLIENT_USAGE: &str = "usage: crusade client <verb> --addr HOST:PORT ...\n\
         verbs:\n  submit <spec.json|example-name> [--portfolio M] [--no-reconfig] [--stream] [--name ID]\n\
         \x20 status <job-id>\n  cancel <job-id>\n\
         \x20 resyn <spec.json|example-name> --deltas <deltas.json> [--portfolio M] [--no-reconfig] [--name ID]\n\
         \x20 stats\n  shutdown";
    let (verb, rest) = args.split_first().ok_or(CLIENT_USAGE)?;
    let addr = flag_str(args, "--addr")?.ok_or("client needs --addr HOST:PORT")?;
    let name = flag_str(args, "--name")?.unwrap_or("cli");
    let client = crusade::serve::ServeClient::new(addr, name);
    match verb.as_str() {
        "submit" => {
            let arg = rest.first().ok_or(CLIENT_USAGE)?;
            let payload = client_payload(arg)?;
            let portfolio = flag_usize(args, "--portfolio")?.unwrap_or(8).max(1);
            let reconfiguration = !args.iter().any(|a| a == "--no-reconfig");
            let stream = args.iter().any(|a| a == "--stream");
            let result = client
                .submit(payload, portfolio, reconfiguration, stream, |event| {
                    eprintln!("event {}: {}", event.seq, event.event.kind());
                })
                .map_err(|e| e.to_string())?;
            println!(
                "client: job #{} -> {} PEs, {} links, ${} (policy #{}, fingerprint {}{}{})",
                result.job,
                result.pes,
                result.links,
                result.cost,
                result.policy,
                result.fingerprint,
                if result.cached { ", cached" } else { "" },
                if result.coalesced { ", coalesced" } else { "" },
            );
            Ok(EXIT_CLEAN)
        }
        "status" => {
            let id: u64 = rest
                .first()
                .ok_or(CLIENT_USAGE)?
                .parse()
                .map_err(|e| format!("job id: {e}"))?;
            let status = client.status(id).map_err(|e| e.to_string())?;
            println!(
                "client: job #{} is {}{}",
                status.job,
                status.state,
                if status.detail.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", status.detail)
                }
            );
            Ok(EXIT_CLEAN)
        }
        "cancel" => {
            let id: u64 = rest
                .first()
                .ok_or(CLIENT_USAGE)?
                .parse()
                .map_err(|e| format!("job id: {e}"))?;
            let status = client.cancel(id).map_err(|e| e.to_string())?;
            println!("client: job #{} is {}", status.job, status.state);
            Ok(EXIT_CLEAN)
        }
        "resyn" => {
            let arg = rest.first().ok_or(CLIENT_USAGE)?;
            let payload = client_payload(arg)?;
            let deltas_path =
                flag_str(args, "--deltas")?.ok_or("client resyn needs --deltas <deltas.json>")?;
            let text = std::fs::read_to_string(deltas_path)
                .map_err(|e| format!("reading {deltas_path}: {e}"))?;
            let deltas: Vec<crusade::model::SpecDelta> =
                serde_json::from_str(&text).map_err(|e| format!("parsing {deltas_path}: {e}"))?;
            let portfolio = flag_usize(args, "--portfolio")?.unwrap_or(4).max(1);
            let reconfiguration = !args.iter().any(|a| a == "--no-reconfig");
            let result = client
                .resyn(payload, deltas, portfolio, reconfiguration)
                .map_err(|e| e.to_string())?;
            for step in &result.steps {
                println!(
                    "delta {:>3}  {:<18} -> {:<9} (cost ${})",
                    step.index, step.kind, step.rung, step.cost
                );
            }
            println!(
                "client: resyn job #{} — incumbent ${}{}, final ${}{}",
                result.job,
                result.incumbent_cost,
                if result.incumbent_cached {
                    " (cached)"
                } else {
                    " (cold)"
                },
                result.final_cost,
                if result.degraded { ", degraded" } else { "" },
            );
            Ok(if result.degraded {
                EXIT_WARNINGS
            } else {
                EXIT_CLEAN
            })
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!(
                "client: {} submitted, {} completed, {} cancelled, {} failed; cache {} hit(s) / \
                 {} miss(es), {} coalesced; {} rejected; queue {} deep, {} running{}",
                stats.submitted,
                stats.completed,
                stats.cancelled,
                stats.failed,
                stats.cache_hits,
                stats.cache_misses,
                stats.coalesced,
                stats.rejected,
                stats.queue_len,
                stats.running,
                if stats.draining { ", draining" } else { "" },
            );
            Ok(EXIT_CLEAN)
        }
        "shutdown" => {
            let report = client.shutdown().map_err(|e| e.to_string())?;
            println!(
                "client: server drained — {} finished, {} cancelled",
                report.drained, report.cancelled
            );
            Ok(EXIT_CLEAN)
        }
        other => Err(format!("unknown client verb {other}\n{CLIENT_USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::from(EXIT_CLEAN);
    }
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "synth" => cmd_synth(rest),
            "upgrade" => cmd_upgrade(rest),
            "example" => cmd_example(rest),
            "sample" => cmd_sample(rest),
            "lint" => cmd_lint(rest),
            "audit" => cmd_audit(rest),
            "inject" => cmd_inject(rest),
            "sweep" => cmd_sweep(rest),
            "explore" => cmd_explore(rest),
            "trace" => cmd_trace(rest),
            "resyn" => cmd_resyn(rest),
            "serve" => cmd_serve(rest),
            "client" => cmd_client(rest),
            "help" => {
                println!("{USAGE}");
                Ok(EXIT_CLEAN)
            }
            other => Err(format!("unknown command {other}\n{USAGE}")),
        },
        None => Err(USAGE.into()),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_ERRORS)
        }
    }
}
