//! `crusade-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, writes the run record (and,
//! traced, the spans) under `perfbench/out/`, and prints the result as
//! the last line of standard output. Exits 1 when a correctness check
//! fails and 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;

use crusade_perfbench::report::{record, result_line, Provenance};
use crusade_perfbench::{explore_gen, serve_mix, Ctx};

const USAGE: &str = "usage: crusade-perfbench --workload <explore-gen|serve-mix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| -> Result<(String, u64, u64, bool), String> {
        let workload = flag(&args, "--workload").ok_or("--workload is required")?;
        let seed = flag(&args, "--seed")
            .map_or(Ok(0), str::parse)
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds = flag(&args, "--seconds")
            .map_or(Ok(20), str::parse)
            .map_err(|e| format!("--seconds: {e}"))?;
        let trace = match flag(&args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok((workload.to_string(), seed, seconds, trace))
    })();
    let (workload, seed, seconds, traced) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match workload.as_str() {
        "explore-gen" => explore_gen::run,
        "serve-mix" => serve_mix::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let ctx = Ctx::new(seed, seconds as f64, traced);
    let outcome = run(&ctx);

    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package.parent().unwrap_or(package);
    let provenance = Provenance::collect(root);
    let spans = ctx.tracer.summary();
    let run_record = record(
        &workload,
        seed,
        seconds,
        traced,
        &provenance,
        &outcome,
        &spans,
    );
    let out_dir = package.join("out");
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(traced));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), &run_record))
        .and_then(|()| {
            if traced {
                ctx.tracer
                    .write_jsonl(&out_dir.join(format!("{workload}-seed{seed}.spans.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "warning: could not write the run record under {}: {e}",
            out_dir.display()
        );
    }
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    println!("{run_record}");
    println!("{}", result_line(&outcome, traced));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
