//! Wire-protocol tests for `crusade-serve`: every DTO must survive a
//! serde round-trip byte-for-byte, and every malformed input — unknown
//! fields, truncated frames, oversized specs, wrong versions, unknown
//! commands — must come back as a typed [`ProtocolError`], never a
//! panic.

// Test code: unwraps freely on values it just constructed.
#![allow(clippy::unwrap_used)]

use crusade_model::{GraphId, Nanos, SpecDelta};
use crusade_obs::Event;
use crusade_serve::{
    decode_request, decode_response, encode_frame, DrainReport, JobEvent, JobRef, JobResult,
    JobStatus, ProtocolError, ProtocolErrorKind, Request, RequestBody, Response, ResponseBody,
    ResynRequest, ResynResult, ResynStep, ServerStats, ShutdownRequest, SpecPayload, StatsRequest,
    SubmitRequest, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crusade_workloads::motivating_example;

fn sample_payload() -> SpecPayload {
    let (library, spec) = motivating_example();
    SpecPayload { library, spec }
}

fn request(body: RequestBody) -> Request {
    Request {
        v: PROTOCOL_VERSION,
        client: "proto-test".to_string(),
        body,
    }
}

/// Encodes a request and strictly decodes it back; the round trip must
/// be lossless.
fn roundtrip_request(req: &Request) {
    let line = encode_frame(req).unwrap();
    assert!(line.ends_with('\n'), "frame is not newline-terminated");
    let decoded = decode_request(line.trim_end(), DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(&decoded, req);
}

fn roundtrip_response(resp: &Response) {
    let line = encode_frame(resp).unwrap();
    let decoded = decode_response(line.trim_end()).unwrap();
    assert_eq!(&decoded, resp);
}

fn sample_result() -> JobResult {
    JobResult {
        job: 7,
        fingerprint: "00deadbeef00cafe".to_string(),
        cached: false,
        coalesced: true,
        cost: 1234,
        policy: 3,
        pes: 4,
        links: 2,
        multi_mode_devices: 1,
        audit_clean: true,
        queue_ms: 1.5,
        run_ms: 250.0,
    }
}

#[test]
fn every_request_variant_round_trips() {
    let payload = sample_payload();
    let requests = [
        request(RequestBody::Submit(SubmitRequest {
            payload: payload.clone(),
            portfolio: 4,
            reconfiguration: true,
            stream: true,
        })),
        request(RequestBody::Status(JobRef { job: 3 })),
        request(RequestBody::Cancel(JobRef { job: u64::MAX })),
        request(RequestBody::Resyn(ResynRequest {
            payload,
            deltas: vec![SpecDelta::TightenDeadline {
                graph: GraphId::new(0),
                deadline: Nanos::from_nanos(900),
            }],
            portfolio: 2,
            reconfiguration: false,
        })),
        request(RequestBody::Stats(StatsRequest {})),
        request(RequestBody::Shutdown(ShutdownRequest {})),
    ];
    for req in &requests {
        roundtrip_request(req);
    }
}

#[test]
fn every_response_variant_round_trips() {
    let status = JobStatus {
        job: 7,
        state: "done".to_string(),
        detail: String::new(),
        result: Some(sample_result()),
    };
    let responses = [
        Response::new(ResponseBody::Event(JobEvent {
            job: 7,
            seq: 0,
            event: Event::SpanOpen {
                span: 1,
                phase: "clustering".to_string(),
            },
        })),
        Response::new(ResponseBody::Result(sample_result())),
        Response::new(ResponseBody::Status(status.clone())),
        Response::new(ResponseBody::Cancelled(JobStatus {
            state: "cancelled".to_string(),
            result: None,
            ..status
        })),
        Response::new(ResponseBody::Resyn(ResynResult {
            job: 8,
            fingerprint: "0123456789abcdef".to_string(),
            incumbent_cached: true,
            incumbent_cost: 1000,
            final_cost: 1100,
            degraded: false,
            steps: vec![ResynStep {
                index: 0,
                kind: "TightenDeadline".to_string(),
                rung: "warm".to_string(),
                cost: 1100,
            }],
            audit_clean: true,
        })),
        Response::new(ResponseBody::Stats(ServerStats {
            submitted: 10,
            completed: 8,
            cache_hits: 5,
            cache_misses: 3,
            coalesced: 2,
            queue_len: 1,
            running: 1,
            draining: false,
            ..ServerStats::default()
        })),
        Response::new(ResponseBody::ShuttingDown(DrainReport {
            drained: 2,
            cancelled: 1,
        })),
        Response::error(ProtocolErrorKind::QueueFull, "queue is full"),
    ];
    for resp in &responses {
        roundtrip_response(resp);
    }
}

fn kind_of(line: &str) -> ProtocolErrorKind {
    decode_request(line, DEFAULT_MAX_FRAME_BYTES)
        .expect_err("malformed frame decoded successfully")
        .kind
}

#[test]
fn garbage_and_truncated_frames_are_malformed() {
    assert_eq!(kind_of(""), ProtocolErrorKind::MalformedFrame);
    assert_eq!(kind_of("not json"), ProtocolErrorKind::MalformedFrame);
    assert_eq!(kind_of("[1, 2, 3]"), ProtocolErrorKind::MalformedFrame);
    assert_eq!(kind_of("null"), ProtocolErrorKind::MalformedFrame);
    // A real frame cut mid-way: the JSON parser must reject it.
    let line = encode_frame(&request(RequestBody::Stats(StatsRequest {}))).unwrap();
    let truncated = &line[..line.len() / 2];
    assert_eq!(kind_of(truncated), ProtocolErrorKind::MalformedFrame);
}

#[test]
fn unknown_fields_are_rejected_not_ignored() {
    // The vendored serde silently ignores unknown keys; the strict
    // decoder must not.
    assert_eq!(
        kind_of(r#"{"v":1,"client":"t","body":{"Stats":{}},"extra":0}"#),
        ProtocolErrorKind::UnknownField
    );
    assert_eq!(
        kind_of(r#"{"v":1,"client":"t","body":{"Status":{"job":1,"extra":0}}}"#),
        ProtocolErrorKind::UnknownField
    );
    assert_eq!(
        kind_of(r#"{"v":1,"client":"t","body":{"Shutdown":{"force":true}}}"#),
        ProtocolErrorKind::UnknownField
    );
}

#[test]
fn missing_fields_are_malformed() {
    assert_eq!(
        kind_of(r#"{"client":"t","body":{"Stats":{}}}"#),
        ProtocolErrorKind::MalformedFrame
    );
    assert_eq!(
        kind_of(r#"{"v":1,"body":{"Stats":{}}}"#),
        ProtocolErrorKind::MalformedFrame
    );
    assert_eq!(
        kind_of(r#"{"v":1,"client":"t","body":{"Status":{}}}"#),
        ProtocolErrorKind::MalformedFrame
    );
}

#[test]
fn version_mismatch_is_typed() {
    assert_eq!(
        kind_of(r#"{"v":2,"client":"t","body":{"Stats":{}}}"#),
        ProtocolErrorKind::VersionMismatch
    );
    assert_eq!(
        kind_of(r#"{"v":"1","client":"t","body":{"Stats":{}}}"#),
        ProtocolErrorKind::VersionMismatch
    );
    assert_eq!(
        kind_of(r#"{"v":0,"client":"t","body":{"Stats":{}}}"#),
        ProtocolErrorKind::VersionMismatch
    );
}

#[test]
fn unknown_commands_and_bad_bodies_are_typed() {
    assert_eq!(
        kind_of(r#"{"v":1,"client":"t","body":{"Explode":{}}}"#),
        ProtocolErrorKind::UnknownCommand
    );
    assert_eq!(
        kind_of(r#"{"v":1,"client":"t","body":{}}"#),
        ProtocolErrorKind::MalformedFrame
    );
    assert_eq!(
        kind_of(r#"{"v":1,"client":"t","body":{"Stats":{},"Shutdown":{}}}"#),
        ProtocolErrorKind::MalformedFrame
    );
    assert_eq!(
        kind_of(r#"{"v":1,"client":"t","body":7}"#),
        ProtocolErrorKind::MalformedFrame
    );
}

#[test]
fn oversized_frames_are_refused_before_parsing() {
    // An oversized spec must be refused by the byte cap alone — even
    // though the frame is perfectly valid JSON.
    let line = encode_frame(&request(RequestBody::Submit(SubmitRequest {
        payload: sample_payload(),
        portfolio: 1,
        reconfiguration: true,
        stream: false,
    })))
    .unwrap();
    let err = decode_request(line.trim_end(), 64).expect_err("oversized frame accepted");
    assert_eq!(err.kind, ProtocolErrorKind::FrameTooLarge);
}

#[test]
fn hostile_inputs_never_panic() {
    // A grab-bag of adversarial frames: each must produce a typed error,
    // and none may panic (the test passing at all is the property).
    let corpus = [
        "{",
        "}",
        "\"",
        "{\"v\":1e309}",
        "{\"v\":-1,\"client\":\"t\",\"body\":{\"Stats\":{}}}",
        "{\"v\":1,\"client\":42,\"body\":{\"Stats\":{}}}",
        "{\"v\":1,\"client\":\"t\",\"body\":{\"Submit\":null}}",
        "{\"v\":1,\"client\":\"t\",\"body\":[\"Stats\"]}",
        "\u{0}\u{1}\u{2}",
        "{\"v\":1,\"client\":\"t\",\"body\":{\"Submit\":{\"payload\":0,\"portfolio\":-1,\
         \"reconfiguration\":2,\"stream\":\"yes\"}}}",
    ];
    for line in corpus {
        let err: ProtocolError =
            decode_request(line, DEFAULT_MAX_FRAME_BYTES).expect_err("hostile frame accepted");
        assert!(!err.kind.as_str().is_empty());
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn client_side_response_decoding_is_versioned() {
    assert_eq!(
        decode_response("garbage").unwrap_err().kind,
        ProtocolErrorKind::MalformedFrame
    );
    let stale = r#"{"v":99,"body":{"Stats":{"submitted":0,"completed":0,"cancelled":0,"failed":0,"cache_hits":0,"cache_misses":0,"coalesced":0,"rejected":0,"queue_len":0,"running":0,"draining":false}}}"#;
    assert_eq!(
        decode_response(stale).unwrap_err().kind,
        ProtocolErrorKind::VersionMismatch
    );
}

#[test]
fn fingerprints_are_stable_across_encoding() {
    // The cache key is derived from canonical JSON; encoding a payload
    // and fingerprinting the decoded copy must agree with the original.
    let payload = sample_payload();
    let a = crusade_serve::fingerprint(&payload, 8, true).unwrap();
    let line = encode_frame(&payload).unwrap();
    let b: SpecPayload = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(a, crusade_serve::fingerprint(&b, 8, true).unwrap());
    assert_eq!(a.len(), 16, "fingerprint is not 16 hex digits");
    assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
}

/// `decode_request` checks its rules in a fixed order: the byte cap,
/// well-formed JSON, the envelope fields, the version, a one-key body, a
/// known command, the payload fields, the typed decode. Each frame here
/// breaks two adjacent rules; the earlier one must name the error, with
/// its exact detail.
#[test]
fn the_earlier_of_two_broken_rules_names_the_error() {
    use ProtocolErrorKind::*;
    let cap = 64;
    let long_and_cut = format!("{{\"client\":\"{}\"", "x".repeat(cap));
    let cases: &[(&str, usize, ProtocolErrorKind, &str)] = &[
        // Byte cap, then well-formedness.
        (
            &long_and_cut,
            cap,
            FrameTooLarge,
            "frame is 76 bytes; cap is 64",
        ),
        // Well-formedness, then the envelope fields.
        (
            r#"{"extra":1,"v":1,"client":"c","body":{"Stats":{}}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "parsing frame: trailing characters at byte 50",
        ),
        (
            r#"{"extra":"a\qb","v":1,"client":"c","body":{"Stats":{}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "parsing frame: invalid escape sequence",
        ),
        // The envelope fields, then the version.
        (
            r#"{"v":2,"client":"c","body":{"Stats":{}},"extra":true}"#,
            DEFAULT_MAX_FRAME_BYTES,
            UnknownField,
            "request envelope: unknown field `extra`",
        ),
        (
            r#"{"v":2,"body":{"Stats":{}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "request envelope: missing field `client`",
        ),
        (
            "[2]",
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "request envelope: expected an object, got sequence",
        ),
        // The version, then a one-key body.
        (
            r#"{"v":"1","client":"c","body":{"Stats":{},"Shutdown":{}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            VersionMismatch,
            r#"protocol version Some(Str("1")); this server speaks 1"#,
        ),
        (
            r#"{"v":{"major":1},"client":"c","body":[]}"#,
            DEFAULT_MAX_FRAME_BYTES,
            VersionMismatch,
            r#"protocol version Some(Map([("major", U64(1))])); this server speaks 1"#,
        ),
        // A one-key body, then a known command.
        (
            r#"{"v":1,"client":"c","body":{"Nope":{},"Zap":{}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "request body: expected exactly one command key, got 2",
        ),
        (
            r#"{"v":1,"client":"c","body":"Nope"}"#,
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "request body: expected an object, got string",
        ),
        // A known command, then the payload fields.
        (
            r#"{"v":1,"client":"c","body":{"Nope":{"x":1}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            UnknownCommand,
            "unknown command `Nope`",
        ),
        // The payload fields, then the typed decode.
        (
            r#"{"v":1,"client":"c","body":{"Status":{"job":"seven","extra":1}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            UnknownField,
            "`Status` payload: unknown field `extra`",
        ),
        (
            r#"{"v":1,"client":"c","body":{"Status":{"jobs":1}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            UnknownField,
            "`Status` payload: unknown field `jobs`",
        ),
        (
            r#"{"v":1,"client":"c","body":{"Stats":5}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "`Stats` payload: expected an object, got integer",
        ),
        (
            r#"{"v":1,"client":"c","body":{"Shutdown":{"now":true}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            UnknownField,
            "`Shutdown` payload: unknown field `now`",
        ),
        // The typed decode alone.
        (
            r#"{"v":1,"client":"c","body":{"Status":{"job":"seven"}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "decoding request: field `Request.body`: field `JobRef.job`: \
             invalid type: expected integer, found string",
        ),
        (
            r#"{"v":1,"client":7,"body":{"Status":{"job":-1}}}"#,
            DEFAULT_MAX_FRAME_BYTES,
            MalformedFrame,
            "decoding request: field `Request.client`: \
             invalid type: expected string, found integer",
        ),
    ];
    for (line, cap, kind, detail) in cases {
        let err = decode_request(line, *cap).expect_err(line);
        assert_eq!((err.kind, err.detail.as_str()), (*kind, *detail), "{line}");
    }
}

/// Unknown keys below the payload are ignored like anywhere in a spec
/// file, and the first of two repeated keys wins at every level.
#[test]
fn strictness_stops_at_the_payload_and_repeated_keys_keep_the_first() {
    let submit = request(RequestBody::Submit(SubmitRequest {
        payload: sample_payload(),
        portfolio: 4,
        reconfiguration: true,
        stream: false,
    }));
    let line = encode_frame(&submit).unwrap();
    let deep_extra = line.replacen("\"payload\":{", "\"payload\":{\"extra\":[1,{}],", 1);
    assert_eq!(
        decode_request(deep_extra.trim_end(), DEFAULT_MAX_FRAME_BYTES).unwrap(),
        submit
    );
    let repeated = line.replacen("{\"v\":1,", "{\"v\":1,\"v\":2,", 1).replacen(
        "\"portfolio\":4,",
        "\"portfolio\":4,\"portfolio\":\"x\",",
        1,
    );
    assert_eq!(
        decode_request(repeated.trim_end(), DEFAULT_MAX_FRAME_BYTES).unwrap(),
        submit
    );
    let negative = line.replacen("\"portfolio\":4,", "\"portfolio\":-4,", 1);
    let err = decode_request(negative.trim_end(), DEFAULT_MAX_FRAME_BYTES).unwrap_err();
    assert_eq!(
        (err.kind, err.detail.as_str()),
        (
            ProtocolErrorKind::MalformedFrame,
            "decoding request: field `Request.body`: field `SubmitRequest.portfolio`: \
             integer -4 out of range"
        )
    );
}
