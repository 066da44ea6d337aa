//! The wire layer of `crusade-serve`: data-transfer objects, framing and
//! strict decoding.
//!
//! The protocol is newline-delimited JSON over a TCP stream. Every frame
//! is one JSON object on one line. Clients send [`Request`] frames; the
//! server answers with [`Response`] frames, and a streamed submission
//! additionally receives [`JobEvent`] progress frames (wrapped in
//! [`ResponseBody::Event`]) before the final result.
//!
//! The DTO layer is deliberately separate from the domain (`server`
//! module): wire types carry plain integers, strings and serde forms of
//! the model types, never live handles — and every frame is versioned
//! with [`PROTOCOL_VERSION`] so incompatible peers fail with a typed
//! [`ProtocolError`] instead of mis-parsing each other.
//!
//! # Strictness
//!
//! The vendored serde stand-in ignores unknown map keys, so strictness is
//! enforced here, in [`decode_request`]: the envelope and the body
//! variant payload must carry *exactly* the documented fields, the
//! protocol version must match, the frame must stay under the size cap,
//! and violations come back as typed [`ProtocolError`]s — never a panic,
//! never a silently-dropped field.

use serde::{Deserialize, Serialize, Value};

use crusade_model::{ResourceLibrary, SpecDelta, SystemSpec};
use crusade_obs::Event;

/// The wire-protocol version stamped on (and demanded of) every frame.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on one frame's byte length (covers the largest Table-2
/// specification with generous headroom).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// A specification payload: the serde forms of the resource library and
/// the system specification — the same JSON shape `crusade synth`
/// accepts as a file (`{ "library": ..., "spec": ... }`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpecPayload {
    /// The resource library the specification is synthesized against.
    pub library: ResourceLibrary,
    /// The system specification.
    pub spec: SystemSpec,
}

/// One client request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version; must equal [`PROTOCOL_VERSION`].
    pub v: u32,
    /// Self-declared client identity; the unit of admission quotas.
    pub client: String,
    /// What the client wants.
    pub body: RequestBody,
}

/// The request vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Synthesize a specification (portfolio exploration); blocks until
    /// the result frame, streaming progress events when asked to.
    Submit(SubmitRequest),
    /// Query a job's state by id.
    Status(JobRef),
    /// Cooperatively cancel a queued or running job.
    Cancel(JobRef),
    /// Apply spec deltas against the cached incumbent of a specification
    /// via the online re-synthesis escalation ladder.
    Resyn(ResynRequest),
    /// Server counters (queue depth, cache hits, jobs by outcome).
    Stats(StatsRequest),
    /// Graceful drain: finish or cancel in-flight work, then exit 0.
    Shutdown(ShutdownRequest),
}

/// Payload of [`RequestBody::Submit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// The specification to synthesize.
    pub payload: SpecPayload,
    /// Portfolio size for the exploration (at least 1; member 0 is the
    /// paper's baseline policy).
    pub portfolio: usize,
    /// Whether the dynamic-reconfiguration phase runs (part of the cache
    /// key: the same spec with and without reconfiguration yields
    /// different architectures).
    pub reconfiguration: bool,
    /// Stream coarse progress events ([`JobEvent`] frames) before the
    /// final result.
    pub stream: bool,
}

/// A job reference ([`RequestBody::Status`] / [`RequestBody::Cancel`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRef {
    /// The job id a submission response reported.
    pub job: u64,
}

/// Payload of [`RequestBody::Resyn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResynRequest {
    /// The *pre-delta* specification — the system as deployed. With the
    /// portfolio and the reconfiguration flag it locates the cached
    /// incumbent.
    pub payload: SpecPayload,
    /// The delta sequence to drive through the escalation ladder.
    pub deltas: Vec<SpecDelta>,
    /// Portfolio size used for a cold incumbent synthesis (cache miss)
    /// and for the ladder's portfolio rung.
    pub portfolio: usize,
    /// Reconfiguration flag (part of the incumbent's cache key).
    pub reconfiguration: bool,
}

/// Payload of [`RequestBody::Stats`] (empty; a struct so the frame shape
/// stays `{"Stats": {}}` and future fields stay compatible).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsRequest {}

/// Payload of [`RequestBody::Shutdown`] (empty, like [`StatsRequest`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownRequest {}

/// One server response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version; always [`PROTOCOL_VERSION`].
    pub v: u32,
    /// The response payload.
    pub body: ResponseBody,
}

impl Response {
    /// Wraps a body in the versioned envelope.
    pub fn new(body: ResponseBody) -> Self {
        Response {
            v: PROTOCOL_VERSION,
            body,
        }
    }

    /// A typed-error response.
    pub fn error(kind: ProtocolErrorKind, detail: impl Into<String>) -> Self {
        Response::new(ResponseBody::Error(ProtocolError {
            kind,
            detail: detail.into(),
        }))
    }
}

/// The response vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// A streamed progress frame of a running submission.
    Event(JobEvent),
    /// The final result of a submission.
    Result(JobResult),
    /// A job's current state.
    Status(JobStatus),
    /// Acknowledgement of a cancellation request.
    Cancelled(JobStatus),
    /// The final result of a re-synthesis request.
    Resyn(ResynResult),
    /// Server counters.
    Stats(ServerStats),
    /// The drain completed; the server is about to exit 0.
    ShuttingDown(DrainReport),
    /// A typed protocol or admission error.
    Error(ProtocolError),
}

/// One forwarded synthesis event of a streamed job.
///
/// Only coarse events are forwarded (phase spans, incumbent updates,
/// escalations, completion); the per-candidate firehose stays server-side.
/// The stream is progress, not a trace: it interleaves racing portfolio
/// members and is *not* covered by the determinism guarantee — use
/// `crusade trace` for the canonical artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// The job the event belongs to.
    pub job: u64,
    /// Per-job sequence number (dense from 0 in forwarding order).
    pub seq: u64,
    /// The forwarded observability event.
    pub event: Event,
}

/// The final figures of a completed submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job that produced the architecture (for a cache hit, the
    /// original producing job).
    pub job: u64,
    /// The spec fingerprint as a hex string: a stable label of the
    /// synthesis inputs, computed once per cached spec.
    pub fingerprint: String,
    /// `true` when the result was served from the architecture cache
    /// without running synthesis.
    pub cached: bool,
    /// `true` when an identical submission was already in flight and this
    /// request attached to it instead of enqueueing a duplicate.
    pub coalesced: bool,
    /// Winner architecture dollar cost.
    pub cost: u64,
    /// Winning portfolio policy id (the deterministic tie-break).
    pub policy: u32,
    /// PE instances in the winner.
    pub pes: usize,
    /// Link instances in the winner.
    pub links: usize,
    /// Programmable devices carrying more than one mode.
    pub multi_mode_devices: usize,
    /// Always `true`: the exploration engine only returns audit-clean
    /// winners, and cached entries were audit-clean when stored.
    pub audit_clean: bool,
    /// Milliseconds the job spent queued before a worker picked it up
    /// (0 for cache hits).
    pub queue_ms: f64,
    /// Milliseconds of synthesis wall time (0 for cache hits).
    pub run_ms: f64,
}

/// A job's state, as reported by `Status` and `Cancel`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// `"queued"`, `"running"`, `"done"`, `"cancelled"` or `"failed"`.
    pub state: String,
    /// Failure detail when `state == "failed"`, empty otherwise.
    pub detail: String,
    /// The result, when `state == "done"` and the job was a submission.
    pub result: Option<JobResult>,
}

/// One ladder step of a re-synthesis response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResynStep {
    /// Position in the delta sequence.
    pub index: usize,
    /// Delta kind tag.
    pub kind: String,
    /// Accepted rung tag (`"in-place"`, `"warm"`, `"widened"`,
    /// `"portfolio"`, `"cold"`).
    pub rung: String,
    /// Architecture cost after the delta.
    pub cost: u64,
}

/// The final figures of a completed re-synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResynResult {
    /// The job that ran the ladder.
    pub job: u64,
    /// Fingerprint of the pre-delta specification (the incumbent's
    /// label).
    pub fingerprint: String,
    /// `true` when the incumbent came from the architecture cache (warm
    /// start against a cached architecture); `false` when it had to be
    /// synthesized cold first.
    pub incumbent_cached: bool,
    /// Incumbent architecture cost before the deltas.
    pub incumbent_cost: u64,
    /// Final architecture cost after every delta.
    pub final_cost: u64,
    /// `true` when any delta degraded to a portfolio or cold restart.
    pub degraded: bool,
    /// Per-delta ladder steps.
    pub steps: Vec<ResynStep>,
    /// Always `true`: every accepted rung is audit-gated.
    pub audit_clean: bool,
}

/// Server counters returned by `Stats`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Jobs accepted into the queue since start.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Submissions served from the architecture cache.
    pub cache_hits: u64,
    /// Submissions that ran synthesis (filled the cache).
    pub cache_misses: u64,
    /// Submissions that attached to an identical in-flight job.
    pub coalesced: u64,
    /// Submissions rejected by admission (queue full or quota).
    pub rejected: u64,
    /// Current queue depth.
    pub queue_len: usize,
    /// Jobs currently running on workers.
    pub running: usize,
    /// Whether a shutdown drain is in progress.
    pub draining: bool,
}

/// What the graceful drain did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainReport {
    /// Running jobs that finished during the drain.
    pub drained: u64,
    /// Queued jobs cancelled by the drain.
    pub cancelled: u64,
}

/// Why a request was refused. Every variant is an *operational* outcome:
/// the server never panics on wire input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolErrorKind {
    /// The frame is not a JSON object of the documented shape.
    MalformedFrame,
    /// The envelope or a variant payload carries a field the protocol
    /// does not define.
    UnknownField,
    /// The frame's `v` does not equal [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// The frame exceeds the server's byte cap (oversized spec).
    FrameTooLarge,
    /// The body names no known request variant.
    UnknownCommand,
    /// The specification payload failed validation.
    InvalidSpec,
    /// The admission queue is full; retry later.
    QueueFull,
    /// The client already has its quota of in-flight jobs.
    QuotaExceeded,
    /// No job with the given id.
    UnknownJob,
    /// The server is draining and admits no new work.
    Draining,
    /// The specification is infeasible (synthesis failed on every
    /// portfolio member) or a delta was rejected.
    Infeasible,
    /// The job was cancelled before producing a result.
    Cancelled,
    /// An internal server error (reported, never a panic).
    Internal,
}

impl ProtocolErrorKind {
    /// Stable tag (matches the serialized variant name).
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolErrorKind::MalformedFrame => "MalformedFrame",
            ProtocolErrorKind::UnknownField => "UnknownField",
            ProtocolErrorKind::VersionMismatch => "VersionMismatch",
            ProtocolErrorKind::FrameTooLarge => "FrameTooLarge",
            ProtocolErrorKind::UnknownCommand => "UnknownCommand",
            ProtocolErrorKind::InvalidSpec => "InvalidSpec",
            ProtocolErrorKind::QueueFull => "QueueFull",
            ProtocolErrorKind::QuotaExceeded => "QuotaExceeded",
            ProtocolErrorKind::UnknownJob => "UnknownJob",
            ProtocolErrorKind::Draining => "Draining",
            ProtocolErrorKind::Infeasible => "Infeasible",
            ProtocolErrorKind::Cancelled => "Cancelled",
            ProtocolErrorKind::Internal => "Internal",
        }
    }
}

/// A typed wire-level error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolError {
    /// The error class.
    pub kind: ProtocolErrorKind,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.detail)
    }
}

impl std::error::Error for ProtocolError {}

/// Encodes a frame (any wire DTO) as one newline-terminated JSON line.
///
/// # Errors
///
/// Propagates serialization failures (non-finite floats) as a
/// [`ProtocolError`] of kind `Internal`.
pub fn encode_frame<T: Serialize>(frame: &T) -> Result<String, ProtocolError> {
    let mut line = serde_json::to_string(frame).map_err(|e| ProtocolError {
        kind: ProtocolErrorKind::Internal,
        detail: format!("encoding frame: {e}"),
    })?;
    line.push('\n');
    Ok(line)
}

/// The exact field sets of the request envelope and each variant payload
/// — the strictness tables [`decode_request`] enforces.
const ENVELOPE_FIELDS: &[&str] = &["v", "client", "body"];

fn variant_fields(variant: &str) -> Option<&'static [&'static str]> {
    match variant {
        "Submit" => Some(&["payload", "portfolio", "reconfiguration", "stream"]),
        "Status" | "Cancel" => Some(&["job"]),
        "Resyn" => Some(&["payload", "deltas", "portfolio", "reconfiguration"]),
        "Stats" | "Shutdown" => Some(&[]),
        _ => None,
    }
}

fn check_exact_fields(map: &Value, allowed: &[&str], context: &str) -> Result<(), ProtocolError> {
    let Value::Map(entries) = map else {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::MalformedFrame,
            detail: format!("{context}: expected an object, got {}", map.kind()),
        });
    };
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(ProtocolError {
                kind: ProtocolErrorKind::UnknownField,
                detail: format!("{context}: unknown field `{key}`"),
            });
        }
    }
    for required in allowed {
        if entries.iter().all(|(k, _)| k != required) {
            return Err(ProtocolError {
                kind: ProtocolErrorKind::MalformedFrame,
                detail: format!("{context}: missing field `{required}`"),
            });
        }
    }
    Ok(())
}

/// Strictly decodes one request line.
///
/// Enforces, in order: the byte cap, JSON well-formedness, the exact
/// envelope field set, the protocol version, a known single-variant body,
/// the variant's exact payload field set, and finally the typed
/// deserialization itself.
///
/// # Errors
///
/// A typed [`ProtocolError`] naming the first violated rule; never
/// panics on any input.
pub fn decode_request(line: &str, max_bytes: usize) -> Result<Request, ProtocolError> {
    if line.len() > max_bytes {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::FrameTooLarge,
            detail: format!("frame is {} bytes; cap is {max_bytes}", line.len()),
        });
    }
    let value = serde_json::parse(line).map_err(|e| ProtocolError {
        kind: ProtocolErrorKind::MalformedFrame,
        detail: format!("parsing frame: {e}"),
    })?;
    check_exact_fields(&value, ENVELOPE_FIELDS, "request envelope")?;
    match value.get("v") {
        Some(Value::U64(v)) if *v == u64::from(PROTOCOL_VERSION) => {}
        other => {
            return Err(ProtocolError {
                kind: ProtocolErrorKind::VersionMismatch,
                detail: format!(
                    "protocol version {other:?}; this server speaks {PROTOCOL_VERSION}"
                ),
            })
        }
    }
    let body = value.get("body").unwrap_or(&Value::Null);
    let Value::Map(entries) = body else {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::MalformedFrame,
            detail: format!("request body: expected an object, got {}", body.kind()),
        });
    };
    let [(variant, payload)] = entries.as_slice() else {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::MalformedFrame,
            detail: format!(
                "request body: expected exactly one command key, got {}",
                entries.len()
            ),
        });
    };
    let Some(allowed) = variant_fields(variant) else {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::UnknownCommand,
            detail: format!("unknown command `{variant}`"),
        });
    };
    check_exact_fields(payload, allowed, &format!("`{variant}` payload"))?;
    Request::deserialize_value(&value).map_err(|e| ProtocolError {
        kind: ProtocolErrorKind::MalformedFrame,
        detail: format!("decoding request: {e}"),
    })
}

/// Decodes one response line (clients are lenient: they only demand a
/// well-formed [`Response`] at a matching version).
///
/// # Errors
///
/// A typed [`ProtocolError`]; never panics on any input.
pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
    let response: Response = serde_json::from_str(line).map_err(|e| ProtocolError {
        kind: ProtocolErrorKind::MalformedFrame,
        detail: format!("parsing response: {e}"),
    })?;
    if response.v != PROTOCOL_VERSION {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::VersionMismatch,
            detail: format!(
                "response version {}; this client speaks {PROTOCOL_VERSION}",
                response.v
            ),
        });
    }
    Ok(response)
}
