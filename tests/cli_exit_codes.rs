//! Asserts the documented CLI exit-code convention shared by `crusade
//! lint` and `crusade audit`:
//!
//! * **0** — clean, no findings;
//! * **1** — warnings only (lint);
//! * **2** — proved infeasibilities, audit violations, or operational
//!   errors (bad arguments, unreadable files).
//!
//! The audit command historically routed violations through the generic
//! `error:` path; these tests pin both commands to the same convention.

use std::process::Command;

fn crusade(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_crusade"))
        .args(args)
        .output()
        .expect("spawning the crusade binary")
}

fn exit_code(out: &std::process::Output) -> i32 {
    out.status.code().expect("process terminated by signal")
}

/// A tiny known-clean specification, written through `crusade sample`
/// so the test exercises the same loading path as a user would.
fn sample_spec(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("sample.json");
    let out = crusade(&["sample", path.to_str().expect("utf-8 temp path")]);
    assert_eq!(exit_code(&out), 0, "sample generation must be clean");
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("crusade-cli-exit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating temp dir");
    dir
}

#[test]
fn lint_clean_spec_exits_zero() {
    let dir = temp_dir("lint-clean");
    let spec = sample_spec(&dir);
    let out = crusade(&["lint", spec.to_str().expect("utf-8 temp path")]);
    assert_eq!(
        exit_code(&out),
        0,
        "lint on a clean spec: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn audit_clean_spec_exits_zero() {
    let dir = temp_dir("audit-clean");
    let spec = sample_spec(&dir);
    let out = crusade(&["audit", spec.to_str().expect("utf-8 temp path")]);
    assert_eq!(
        exit_code(&out),
        0,
        "audit on a clean spec: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("audit: clean"),
        "audit must confirm cleanliness on stdout"
    );
}

#[test]
fn lint_unreadable_path_exits_two() {
    let out = crusade(&["lint", "/nonexistent/crusade-spec.json"]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "operational failures report through stderr"
    );
}

#[test]
fn audit_unreadable_path_exits_two() {
    let out = crusade(&["audit", "/nonexistent/crusade-spec.json"]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "operational failures report through stderr"
    );
}

/// `crusade sample`'s spec with one link-type field made invalid: each
/// edit is a library `LinkType::new` would refuse.
fn malformed_link_specs(text: &str) -> Vec<(&'static str, &'static str, String)> {
    let start = text
        .find("\"access_times\": [")
        .expect("sample has access times");
    let end = start + text[start..].find(']').expect("access times close") + 1;
    vec![
        (
            "empty-access",
            "access_times",
            format!("{}\"access_times\": []{}", &text[..start], &text[end..]),
        ),
        (
            "zero-packet",
            "bytes_per_packet",
            text.replacen("\"bytes_per_packet\": 64", "\"bytes_per_packet\": 0", 1),
        ),
        (
            "zero-ports",
            "max_ports",
            text.replacen("\"max_ports\": 8", "\"max_ports\": 0", 1),
        ),
    ]
}

#[test]
fn malformed_link_types_exit_two_like_unreadable_specs() {
    let dir = temp_dir("bad-link");
    let path = sample_spec(&dir);
    let text = std::fs::read_to_string(&path).expect("reading sample spec");
    for (name, field, edited) in malformed_link_specs(&text) {
        assert_ne!(edited, text, "{name}: the edit must change the spec");
        let bad = dir.join(format!("{name}.json"));
        std::fs::write(&bad, edited).expect("writing edited spec");
        for command in ["synth", "lint"] {
            let out = crusade(&[command, bad.to_str().expect("utf-8 temp path")]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(exit_code(&out), 2, "{command} {name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{command} {name}: {stderr}");
            assert!(
                stderr.contains("error:") && stderr.contains(&format!("LinkType.{field}")),
                "{command} {name}: the parse error must name the field: {stderr}"
            );
        }
    }
}

#[test]
fn lint_proved_infeasibility_exits_two() {
    // A task that runs on no PE type in the library is a proved
    // infeasibility: lint must exit 2, through findings, not `error:`.
    let dir = temp_dir("lint-err");
    let path = sample_spec(&dir);
    let text = std::fs::read_to_string(&path).expect("reading sample spec");
    // The sample's `filter` task is FPGA-only; quadruple its pin demand
    // past the library's largest device so no PE type can host it.
    let broken = text.replace("\"pins\": 12", "\"pins\": 4000");
    assert_ne!(broken, text, "sample spec layout changed; update the test");
    let broken_path = dir.join("broken.json");
    std::fs::write(&broken_path, broken).expect("writing broken spec");
    let out = crusade(&["lint", broken_path.to_str().expect("utf-8 temp path")]);
    assert_eq!(
        exit_code(&out),
        2,
        "lint must prove infeasibility: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("error:"),
        "proved findings are not operational errors"
    );
}

#[test]
fn explore_clean_spec_exits_zero_and_reports_winner() {
    let dir = temp_dir("explore-clean");
    let spec = sample_spec(&dir);
    let out = crusade(&[
        "explore",
        spec.to_str().expect("utf-8 temp path"),
        "--jobs",
        "2",
        "--portfolio",
        "4",
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "explore on a clean spec: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("explore: winner policy #"),
        "explore must name the winning policy on stdout"
    );
}

/// `synth` resolves its argument like every other command: a
/// generated-family reference or a built-in example name works as well
/// as a file.
#[test]
fn synth_accepts_generated_refs_and_example_names() {
    for arg in ["gen:7", "a1tr"] {
        let out = crusade(&["synth", arg]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            exit_code(&out),
            0,
            "synth {arg}: stdout={stdout} stderr={}",
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(
            stdout.starts_with("architecture: "),
            "synth {arg} printed no architecture summary: {stdout}"
        );
    }
}

#[test]
fn unknown_command_exits_two() {
    let out = crusade(&["frobnicate"]);
    assert_eq!(exit_code(&out), 2);
}

/// Writes a JSON delta sequence next to the spec and returns its path.
fn deltas_file(dir: &std::path::Path, name: &str, json: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, json).expect("writing deltas file");
    path
}

#[test]
fn resyn_warm_repair_exits_zero() {
    let dir = temp_dir("resyn-warm");
    let spec = sample_spec(&dir);
    let deltas = deltas_file(&dir, "deltas.json", r#"[{"FailPe":{"pe":0}}]"#);
    let out = crusade(&[
        "resyn",
        spec.to_str().expect("utf-8 temp path"),
        "--deltas",
        deltas.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "a lone PE failure must be warm-repairable: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("-> warm") || stdout.contains("-> in-place"),
        "the accepted rung must be reported: {stdout}"
    );
}

#[test]
fn resyn_forced_restart_exits_one() {
    let dir = temp_dir("resyn-degraded");
    let spec = sample_spec(&dir);
    let deltas = deltas_file(
        &dir,
        "deltas.json",
        r#"[{"ScaleRate":{"graph":0,"percent":90}}]"#,
    );
    let out = crusade(&[
        "resyn",
        spec.to_str().expect("utf-8 temp path"),
        "--deltas",
        deltas.to_str().expect("utf-8 temp path"),
        "--from-rung",
        "portfolio",
    ]);
    assert_eq!(
        exit_code(&out),
        1,
        "a forced restart is graceful degradation: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("degraded"),
        "degradation must be called out on stdout"
    );
}

#[test]
fn resyn_rejected_delta_exits_two() {
    let dir = temp_dir("resyn-rejected");
    let spec = sample_spec(&dir);
    let deltas = deltas_file(
        &dir,
        "deltas.json",
        r#"[{"TightenDeadline":{"graph":0,"deadline":1}}]"#,
    );
    let out = crusade(&[
        "resyn",
        spec.to_str().expect("utf-8 temp path"),
        "--deltas",
        deltas.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(
        exit_code(&out),
        2,
        "an impossible deadline must be rejected by admission: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("rejected by admission"),
        "the rejection reason belongs on stdout"
    );
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("error:"),
        "admission rejections are findings, not operational errors"
    );
}

#[test]
fn resyn_missing_deltas_file_exits_two() {
    let dir = temp_dir("resyn-missing");
    let spec = sample_spec(&dir);
    let out = crusade(&[
        "resyn",
        spec.to_str().expect("utf-8 temp path"),
        "--deltas",
        "/nonexistent/deltas.json",
    ]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "an unreadable deltas file is an operational error"
    );
}
