//! Synthesis as a service: a batched co-synthesis daemon for CRUSADE.
//!
//! The paper's tool runs once per invocation; this crate turns it into a
//! long-lived server so a fleet of specifications can share one warm
//! process: an admission queue with per-client quotas feeds a fixed
//! worker pool running [`crusade_explore`] portfolios, identical
//! submissions are answered from an architecture cache keyed by the
//! typed synthesis inputs without re-running synthesis, and
//! re-synthesis requests warm-start from the cached incumbent via the
//! online escalation ladder.
//!
//! The crate splits along the wire/domain seam:
//!
//! - [`dto`] — the versioned newline-delimited JSON protocol: request /
//!   response / event frame types, strict decoding, typed
//!   [`ProtocolError`]s.
//! - [`fingerprint()`] — the canonical-JSON FNV-1a label of a cached
//!   spec.
//! - [`server`] — queue, quotas, workers, cache, cancellation and the
//!   graceful (signal-free) drain.
//! - [`client`] — a blocking client used by `crusade client` and the
//!   serve soak bench.
//!
//! Serving never changes an answer: the exploration winner is
//! bit-identical for any worker count, so the daemon's results are
//! byte-for-byte what `crusade explore --jobs 1` prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dto;
pub mod fingerprint;
pub mod server;

pub use client::{ClientError, ServeClient};
pub use dto::{
    decode_request, decode_response, encode_frame, DrainReport, JobEvent, JobRef, JobResult,
    JobStatus, ProtocolError, ProtocolErrorKind, Request, RequestBody, Response, ResponseBody,
    ResynRequest, ResynResult, ResynStep, ServerStats, ShutdownRequest, SpecPayload, StatsRequest,
    SubmitRequest, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use fingerprint::fingerprint;
pub use server::{serve, ServeConfig, ServeError, ServerHandle};
