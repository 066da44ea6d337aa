//! End-to-end tests for the `crusade-serve` daemon: an in-process server
//! driven through the real TCP client — submission, fingerprint-cache
//! hits, status, streaming, admission refusals, warm-start re-synthesis
//! — plus a binary-level test of the documented exit-code contract for
//! `crusade serve` / `crusade client` (SIGTERM-free shutdown, exit 0).

// Test code: unwraps freely.
#![allow(clippy::unwrap_used)]

use std::sync::{Arc, Mutex};

use crusade::model::{GraphId, Nanos, ResourceLibrary, SpecDelta};
use crusade::serve::{
    ClientError, JobResult, ProtocolErrorKind, ServeClient, ServeConfig, ServerHandle, SpecPayload,
};
use crusade::workloads::motivating_example;

fn sample_payload() -> SpecPayload {
    let (library, spec) = motivating_example();
    SpecPayload { library, spec }
}

/// Binds a server on an ephemeral port with test-friendly sizing.
fn bind(config: ServeConfig) -> (ServerHandle, String) {
    let server = ServerHandle::bind(config).expect("binding test server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn submit_duplicate_hits_cache_and_shutdown_drains() {
    let (server, addr) = bind(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let client = ServeClient::new(addr, "e2e");
    let payload = sample_payload();

    let first = client
        .submit(payload.clone(), 4, true, false, |_| {})
        .unwrap();
    assert!(!first.cached, "first submission cannot be a cache hit");
    assert!(first.audit_clean);
    assert!(first.cost > 0 && first.pes > 0);
    assert_eq!(first.fingerprint.len(), 16);

    // The identical submission must be served from the cache with a
    // bit-identical result and no synthesis run.
    let second = client
        .submit(payload.clone(), 4, true, false, |_| {})
        .unwrap();
    assert!(second.cached, "duplicate submission missed the cache");
    assert_eq!(
        (second.cost, second.policy, second.fingerprint.clone()),
        (first.cost, first.policy, first.fingerprint.clone())
    );
    assert_eq!(second.run_ms, 0.0, "cache hit reported synthesis time");

    // A different portfolio is a different cache key.
    let third = client.submit(payload, 2, true, false, |_| {}).unwrap();
    assert!(!third.cached, "portfolio is not part of the cache key");
    assert_ne!(third.fingerprint, first.fingerprint);

    let status = client.status(first.job).unwrap();
    assert_eq!(status.state, "done");
    assert_eq!(status.result.unwrap().cost, first.cost);

    // Cancelling a finished job is idempotent: state is unchanged.
    let cancelled = client.cancel(first.job).unwrap();
    assert_eq!(cancelled.state, "done");

    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.completed, 2);
    assert!(!stats.draining);

    let report = client.shutdown().unwrap();
    assert_eq!(
        report.drained + report.cancelled,
        0,
        "drain saw idle server"
    );
    server.wait().unwrap();
}

#[test]
fn streamed_submission_forwards_dense_events() {
    let (server, addr) = bind(ServeConfig::default());
    let client = ServeClient::new(addr, "e2e-stream");
    let seqs: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seqs);
    let result = client
        .submit(sample_payload(), 2, true, true, move |event| {
            sink.lock().unwrap().push(event.seq);
        })
        .unwrap();
    let seqs = seqs.lock().unwrap();
    assert!(!seqs.is_empty(), "streamed submission produced no events");
    // Per-job sequence numbers are dense from 0 in forwarding order.
    for (i, seq) in seqs.iter().enumerate() {
        assert_eq!(*seq, i as u64, "event stream has gaps");
    }
    assert!(result.cost > 0);
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn admission_refusals_are_typed() {
    let (server, addr) = bind(ServeConfig {
        client_quota: 0,
        max_frame_bytes: 16 << 10,
        ..ServeConfig::default()
    });
    let client = ServeClient::new(addr, "e2e-refused");

    // Quota zero: every submission is refused before it queues.
    match client.submit(sample_payload(), 1, true, false, |_| {}) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ProtocolErrorKind::QuotaExceeded),
        other => panic!("quota-zero submit: expected QuotaExceeded, got {other:?}"),
    }

    // A payload with an empty library is refused as InvalidSpec;
    // validation runs before admission, so the zero quota cannot mask it.
    let (_, spec) = motivating_example();
    let hollow = SpecPayload {
        library: ResourceLibrary::new(),
        spec,
    };
    match client.submit(hollow, 1, true, false, |_| {}) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ProtocolErrorKind::InvalidSpec),
        other => panic!("hollow submit: expected InvalidSpec, got {other:?}"),
    }

    // Status of a job that never existed.
    match client.status(424_242) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ProtocolErrorKind::UnknownJob),
        other => panic!("unknown status: expected UnknownJob, got {other:?}"),
    }

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn oversized_frames_are_refused_with_a_typed_error() {
    let (server, addr) = bind(ServeConfig {
        max_frame_bytes: 256,
        ..ServeConfig::default()
    });
    let client = ServeClient::new(addr, "e2e-oversize");
    match client.submit(sample_payload(), 1, true, false, |_| {}) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ProtocolErrorKind::FrameTooLarge),
        other => panic!("oversized submit: expected FrameTooLarge, got {other:?}"),
    }
    // The connection-level refusal must not have wedged the server.
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn resyn_warm_starts_from_the_fingerprint_cache() {
    let (server, addr) = bind(ServeConfig::default());
    let client = ServeClient::new(addr, "e2e-resyn");
    let payload = sample_payload();

    // Prime the cache, then drive one mild single-delta re-synthesis:
    // the incumbent must come from the cache and resolve on a warm rung
    // (never a portfolio/cold restart).
    let submitted = client
        .submit(payload.clone(), 4, true, false, |_| {})
        .unwrap();
    let graph = GraphId::new(0);
    let deadline = payload.spec.graph(graph).deadline();
    let delta = SpecDelta::TightenDeadline {
        graph,
        deadline: Nanos::from_nanos(deadline.as_nanos() * 99 / 100),
    };
    let resyn = client.resyn(payload.clone(), vec![delta], 4, true).unwrap();
    assert_eq!(resyn.fingerprint, submitted.fingerprint);
    assert!(
        resyn.incumbent_cached,
        "resyn synthesized its incumbent cold"
    );
    assert_eq!(resyn.incumbent_cost, submitted.cost);
    assert!(!resyn.degraded, "mild delta degraded to a restart rung");
    assert_eq!(resyn.steps.len(), 1);
    assert!(
        matches!(
            resyn.steps[0].rung.as_str(),
            "in-place" | "warm" | "widened"
        ),
        "expected a warm rung, got {}",
        resyn.steps[0].rung
    );
    assert!(resyn.audit_clean);

    // A resyn against a spec the cache has never seen synthesizes the
    // incumbent cold — and still succeeds.
    let delta = SpecDelta::TightenDeadline {
        graph,
        deadline: Nanos::from_nanos(deadline.as_nanos() * 99 / 100),
    };
    let cold = client.resyn(payload, vec![delta], 3, true).unwrap();
    assert!(!cold.incumbent_cached, "unseen fingerprint reported cached");
    assert!(cold.final_cost > 0 && cold.audit_clean);

    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// The deterministic-shutdown satellite at the binary level: `crusade
/// serve` starts, serves a submission and a cache hit through `crusade
/// client`, and a `Shutdown` request — no signal — exits the server
/// with status 0.
#[test]
fn serve_binary_shuts_down_cleanly_with_exit_zero() {
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("crusade-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("sample.json");
    let port_file = dir.join("port.txt");
    let _ = std::fs::remove_file(&port_file);

    let out = Command::new(env!("CARGO_BIN_EXE_crusade"))
        .args(["sample", spec.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "sample generation failed");

    let mut server = Command::new(env!("CARGO_BIN_EXE_crusade"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // The server writes its ephemeral address once it is listening.
    let mut addr = String::new();
    for _ in 0..300 {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if !text.trim().is_empty() {
                addr = text.trim().to_string();
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(!addr.is_empty(), "server never wrote its port file");

    let client = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_crusade"))
            .args(["client"])
            .args(args)
            .args(["--addr", &addr])
            .output()
            .unwrap()
    };

    let first = client(&["submit", spec.to_str().unwrap(), "--portfolio", "2"]);
    assert_eq!(
        first.status.code(),
        Some(0),
        "submit failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = client(&["submit", spec.to_str().unwrap(), "--portfolio", "2"]);
    assert_eq!(second.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&second.stdout).contains("cached"),
        "duplicate submission was not served from the cache"
    );

    let shutdown = client(&["shutdown"]);
    assert_eq!(
        shutdown.status.code(),
        Some(0),
        "shutdown failed: {}",
        String::from_utf8_lossy(&shutdown.stderr)
    );

    // No signal was ever sent: the drain alone must exit the server with
    // status 0.
    let status = server.wait().unwrap();
    assert_eq!(status.code(), Some(0), "server exited non-zero after drain");
}

/// A job that panics fails alone: a 1-worker daemon answers it with an
/// `Internal` error frame, then serves the next submission with the same
/// worker, then drains on `shutdown`. The payload is `crusade sample`'s
/// with its only link type's `access_times` emptied, which panics the
/// first transfer-time estimate.
#[test]
fn panicking_job_fails_without_killing_its_worker() {
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("crusade-serve-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("sample.json");
    let out = Command::new(env!("CARGO_BIN_EXE_crusade"))
        .args(["sample", spec.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "sample generation failed");
    let text = std::fs::read_to_string(&spec).unwrap();
    let valid: SpecPayload = serde_json::from_str(&text).unwrap();
    let start = text.find("\"access_times\": [").unwrap();
    let end = start + text[start..].find(']').unwrap() + 1;
    let hostile = format!("{}\"access_times\": []{}", &text[..start], &text[end..]);
    let hostile: SpecPayload = serde_json::from_str(&hostile).unwrap();

    let (server, addr) = bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    match submit_within(&addr, hostile) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, ProtocolErrorKind::Internal),
        other => panic!("expected an Internal error frame, got {other:?}"),
    }
    let result = submit_within(&addr, valid).unwrap();
    assert!(result.audit_clean && result.cost > 0);

    let client = ServeClient::new(addr, "e2e-panic");
    let stats = client.stats().unwrap();
    assert_eq!((stats.failed, stats.completed), (1, 1));
    let report = client.shutdown().unwrap();
    assert_eq!(
        report.drained + report.cancelled,
        0,
        "nothing left to drain"
    );
    server.wait().unwrap();
}

/// Submits `payload` on a thread and waits at most two minutes for the
/// reply, so a job that never finishes fails the test instead of hanging
/// it.
fn submit_within(addr: &str, payload: SpecPayload) -> Result<JobResult, ClientError> {
    let (tx, rx) = std::sync::mpsc::channel();
    let client = ServeClient::new(addr.to_string(), "e2e-panic");
    let submitter = std::thread::spawn(move || {
        let _ = tx.send(client.submit(payload, 1, true, false, |_| {}));
    });
    let reply = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("no reply to a submission within two minutes");
    submitter.join().expect("submitting thread panicked");
    reply
}

#[test]
fn generated_specs_fingerprint_by_seed() {
    // Generated families flow through the daemon like any payload: a
    // resubmission of the same seed is a fingerprint-cache hit, a seed
    // bump is a miss with a different fingerprint.
    let (server, addr) = bind(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let client = ServeClient::new(addr, "e2e-gen");
    let config = crusade::gen::GenConfig {
        seed: 7,
        utilization: 1.2,
        ..crusade::gen::GenConfig::default()
    };
    let payload = |config: &crusade::gen::GenConfig| {
        let (library, spec) = crusade::gen::generate_payload(config);
        SpecPayload { library, spec }
    };

    let first = client
        .submit(payload(&config), 2, true, false, |_| {})
        .unwrap();
    assert!(!first.cached, "first generated submission cannot hit");
    assert!(first.audit_clean);

    let replay = client
        .submit(payload(&config), 2, true, false, |_| {})
        .unwrap();
    assert!(replay.cached, "same-seed regeneration missed the cache");
    assert_eq!(replay.fingerprint, first.fingerprint);
    assert_eq!(replay.cost, first.cost);

    let bumped = crusade::gen::GenConfig {
        seed: config.seed + 1,
        ..config
    };
    let other = client
        .submit(payload(&bumped), 2, true, false, |_| {})
        .unwrap();
    assert!(!other.cached, "a seed bump must be a distinct spec");
    assert_ne!(other.fingerprint, first.fingerprint);

    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);

    client.shutdown().unwrap();
    server.wait().unwrap();
}
