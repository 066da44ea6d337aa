//! The domain side of `crusade-serve`: admission, job queue, worker
//! pool, architecture cache and graceful drain.
//!
//! The daemon is deliberately built on blocking `std` primitives — a
//! `TcpListener` accept loop, a thread per connection, a fixed worker
//! pool over a condvar-guarded queue — because synthesis jobs run for
//! seconds to minutes: connection counts are tiny next to job cost, and
//! the blocking model keeps the whole daemon dependency-free.
//!
//! One connection carries one request. A `Submit` connection stays open
//! until the final [`JobResult`] frame (preceded by [`JobEvent`] frames
//! when streaming was requested); every other request is answered
//! immediately.
//!
//! # Determinism
//!
//! Workers run `crusade_explore` portfolios, whose winner is
//! bit-identical for any worker/thread count, so the daemon's answers
//! are byte-for-byte the CLI's answers: serving adds queueing, caching
//! and transport — never a different architecture.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crusade_core::{CosynOptions, SynthesisResult};
use crusade_model::SpecDelta;
use crusade_obs::{Event, SynthesisObserver};

use crate::dto::{
    decode_request, encode_frame, DrainReport, JobEvent, JobResult, JobStatus, ProtocolError,
    ProtocolErrorKind, RequestBody, Response, ResponseBody, ResynRequest, ResynResult, ResynStep,
    ServerStats, SpecPayload, SubmitRequest, DEFAULT_MAX_FRAME_BYTES,
};
use crate::fingerprint::fingerprint;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Synthesis worker threads (at least 1).
    pub workers: usize,
    /// Threads per exploration job. 1 (the default) keeps each job on
    /// one core so `workers` jobs progress independently; the winner is
    /// identical at any value.
    pub jobs_per_explore: usize,
    /// Admission queue capacity (queued, not-yet-running jobs).
    pub queue_cap: usize,
    /// Per-client cap on in-flight (queued + running) jobs.
    pub client_quota: usize,
    /// Byte cap on one request frame.
    pub max_frame_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            jobs_per_explore: 1,
            queue_cap: 64,
            client_quota: 8,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Why the daemon could not start or finish.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind(String),
    /// An internal invariant broke (poisoned lock, lost thread).
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(d) => write!(f, "binding listener: {d}"),
            ServeError::Internal(d) => write!(f, "internal server error: {d}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a queued job will run. Its inputs travel as a [`CacheKey`], so
/// a submit's work and its cache slot share one parsed payload.
enum JobKind {
    Submit {
        key: CacheKey,
        stream: bool,
    },
    Resyn {
        key: CacheKey,
        deltas: Vec<SpecDelta>,
    },
}

/// A job's lifecycle state.
enum JobState {
    Queued,
    Running,
    Done(Box<JobResult>),
    DoneResyn(Box<ResynResult>),
    Cancelled,
    Failed(ProtocolError),
}

impl JobState {
    fn terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) | JobState::DoneResyn(_) => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Terminal jobs the table keeps, evicting the oldest first. Only a job
/// every registered reader has read is ever evicted, so a status query
/// for an evicted id answers `UnknownJob` but no waiting connection loses
/// its result. The perf ledger's serve-mix round runs 384 jobs on a fresh
/// daemon, well below this.
const RETAINED_TERMINAL_JOBS: usize = 1024;

struct Job {
    client: String,
    /// The job's inputs, until a worker claims them or the job ends in
    /// the queue: a terminal job keeps only its state and bookkeeping.
    work: Option<JobKind>,
    state: JobState,
    cancel: Arc<AtomicBool>,
    /// Completion signal and event stream: dropped (set to `None`) on
    /// every terminal transition, which wakes the submitting connection.
    done_tx: Option<mpsc::Sender<JobEvent>>,
    enqueued_at: Instant,
    queue_ms: f64,
    /// Connections that will read this job's terminal state and have not
    /// yet: the submitting one plus coalesced duplicates. The job is not
    /// evicted while any remain.
    readers: usize,
}

/// The cache key: the synthesis inputs themselves. Synthesis is a
/// deterministic function of them, and typed equality cannot collide the
/// way a 64-bit hash of their JSON can.
///
/// The key carries the derived hash of its inputs, computed once when it
/// is built: every map probe of a request hashes one `u64`, not the
/// payload again. Typed equality still decides a match.
#[derive(Clone)]
struct CacheKey {
    payload: Arc<SpecPayload>,
    portfolio: usize,
    reconfiguration: bool,
    hash: u64,
}

impl CacheKey {
    fn new(payload: SpecPayload, portfolio: usize, reconfiguration: bool) -> Self {
        // One randomly keyed hasher per process, as a `HashMap` keys its
        // own: clients cannot craft colliding payloads.
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        let hash =
            KEYS.get_or_init(RandomState::new)
                .hash_one((&payload, portfolio, reconfiguration));
        CacheKey {
            payload: Arc::new(payload),
            portfolio,
            reconfiguration,
            hash,
        }
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.portfolio == other.portfolio
            && self.reconfiguration == other.reconfiguration
            && self.payload == other.payload
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One cache key's slot.
enum CacheSlot {
    /// A job with this key is queued or running; duplicates
    /// coalesce onto it instead of enqueueing again.
    Pending(u64),
    /// The finished winner: the wire result template plus the full
    /// synthesis result (the incumbent a `Resyn` warm-starts from).
    Ready(Box<CacheEntry>),
}

/// A finished winner. The template carries the spec's fingerprint, so a
/// hit or a warm resyn reads it instead of recomputing it.
struct CacheEntry {
    template: JobResult,
    synthesis: SynthesisResult,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    cancelled: u64,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    coalesced: u64,
    rejected: u64,
}

#[derive(Default)]
struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, Job>,
    cache: HashMap<CacheKey, CacheSlot>,
    /// Queued plus running jobs per client with any: admission reads
    /// it instead of scanning the job table.
    in_flight: HashMap<String, usize>,
    /// Terminal jobs no reader is still waiting on, oldest id first: the
    /// eviction candidates.
    retired: BTreeSet<u64>,
    /// Terminal jobs in `jobs`, retired or not.
    terminal_jobs: usize,
    counters: Counters,
    next_job: u64,
    running: usize,
    draining: bool,
    shutdown: bool,
    drain_report: Option<DrainReport>,
}

struct State {
    inner: Mutex<Inner>,
    /// Wakes workers when the queue grows or shutdown begins.
    queue_cv: Condvar,
    /// Wakes connections waiting on job transitions (coalesced
    /// duplicates, the drain).
    jobs_cv: Condvar,
    config: ServeConfig,
    addr: SocketAddr,
}

impl State {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Forwards coarse synthesis events of one job as [`JobEvent`]s.
///
/// The fine-grained firehose (per-candidate, per-placement events) stays
/// server-side; only phase spans and decision points cross the wire.
struct ForwardObserver {
    job: u64,
    seq: AtomicU64,
    tx: Mutex<mpsc::Sender<JobEvent>>,
}

fn coarse(event: &Event) -> bool {
    matches!(
        event.kind(),
        "SpanOpen"
            | "SpanClose"
            | "IncumbentUpdate"
            | "SynthesisComplete"
            | "DeltaApplied"
            | "AdmissionChecked"
            | "EscalationStep"
            | "ResynStepComplete"
    )
}

impl SynthesisObserver for ForwardObserver {
    fn event(&self, event: &Event) {
        if !coarse(event) {
            return;
        }
        let frame = JobEvent {
            job: self.job,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            event: event.clone(),
        };
        if let Ok(tx) = self.tx.lock() {
            // A disconnected receiver just means the client went away;
            // the job keeps running to completion (its result is cached).
            let _ = tx.send(frame);
        }
    }
}

/// A running daemon: its address plus the join handles needed for a
/// deterministic, signal-free exit.
pub struct ServerHandle {
    state: Arc<State>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds the listener, installs the synthesis auditor, and starts
    /// the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<ServerHandle, ServeError> {
        // Workers run explorations and the resyn ladder; both gate
        // acceptance on the independent audit.
        crusade_verify::install_auditor();
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Bind(e.to_string()))?;
        let state = Arc::new(State {
            inner: Mutex::new(Inner::default()),
            queue_cv: Condvar::new(),
            jobs_cv: Condvar::new(),
            config,
            addr,
        });
        let workers = (0..state.config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&listener, &state))
        };
        Ok(ServerHandle {
            state,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (the ephemeral port when the config said `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Blocks until a `Shutdown` request drains the daemon, then joins
    /// every thread and returns what the drain did.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when a thread panicked (never expected:
    /// all wire input is handled with typed errors).
    pub fn wait(mut self) -> Result<DrainReport, ServeError> {
        if let Some(accept) = self.accept.take() {
            accept
                .join()
                .map_err(|_| ServeError::Internal("accept loop panicked".to_string()))?;
        }
        for worker in self.workers.drain(..) {
            worker
                .join()
                .map_err(|_| ServeError::Internal("worker panicked".to_string()))?;
        }
        let report = self.state.lock().drain_report.take();
        report.ok_or_else(|| ServeError::Internal("drain report missing".to_string()))
    }
}

/// Runs the daemon start-to-drain: [`ServerHandle::bind`] followed by
/// [`ServerHandle::wait`]. `on_ready` receives the bound address before
/// the first connection is accepted (the CLI writes its `--port-file`
/// here).
///
/// # Errors
///
/// See [`ServerHandle::bind`] and [`ServerHandle::wait`].
pub fn serve(
    config: ServeConfig,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<DrainReport, ServeError> {
    let handle = ServerHandle::bind(config)?;
    on_ready(handle.local_addr());
    handle.wait()
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => break,
        };
        if state.lock().shutdown {
            break;
        }
        let state = Arc::clone(state);
        handlers.push(std::thread::spawn(move || {
            handle_connection(stream, &state)
        }));
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Reads one newline-terminated frame, refusing to buffer more than the
/// configured cap.
fn read_frame(stream: &TcpStream, max_bytes: usize) -> Result<String, ProtocolError> {
    let mut reader = BufReader::new(stream).take(max_bytes as u64 + 1);
    let mut buf = Vec::new();
    reader
        .read_until(b'\n', &mut buf)
        .map_err(|e| ProtocolError {
            kind: ProtocolErrorKind::MalformedFrame,
            detail: format!("reading frame: {e}"),
        })?;
    if buf.len() > max_bytes {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::FrameTooLarge,
            detail: format!("frame exceeds {max_bytes} bytes"),
        });
    }
    String::from_utf8(buf).map_err(|e| ProtocolError {
        kind: ProtocolErrorKind::MalformedFrame,
        detail: format!("frame is not UTF-8: {e}"),
    })
}

fn write_response(stream: &mut TcpStream, response: &Response) {
    if let Ok(line) = encode_frame(response) {
        // A client that hung up forfeits its reply; nothing to do.
        let _ = stream.write_all(line.as_bytes());
    }
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, state: &Arc<State>) {
    let line = match read_frame(&stream, state.config.max_frame_bytes) {
        Ok(line) => line,
        Err(e) => {
            write_response(&mut stream, &Response::new(ResponseBody::Error(e)));
            return;
        }
    };
    let request = match decode_request(&line, state.config.max_frame_bytes) {
        Ok(request) => request,
        Err(e) => {
            write_response(&mut stream, &Response::new(ResponseBody::Error(e)));
            return;
        }
    };
    let client = request.client;
    let response = match request.body {
        RequestBody::Submit(submit) => {
            handle_submit(&mut stream, state, &client, submit);
            return; // handle_submit writes its own frames
        }
        RequestBody::Status(r) => handle_status(state, r.job),
        RequestBody::Cancel(r) => handle_cancel(state, r.job),
        RequestBody::Resyn(resyn) => handle_resyn(state, &client, resyn),
        RequestBody::Stats(_) => handle_stats(state),
        RequestBody::Shutdown(_) => handle_shutdown(state),
    };
    write_response(&mut stream, &response);
    if matches!(response.body, ResponseBody::ShuttingDown(_)) {
        // Unblock the accept loop so it observes the shutdown flag.
        let _ = TcpStream::connect(state.addr);
    }
}

/// Admission checks shared by `Submit` and `Resyn`. Must run under the
/// inner lock; returns the typed refusal, if any.
fn admit(inner: &Inner, state: &State, client: &str) -> Option<ProtocolError> {
    if inner.draining {
        return Some(ProtocolError {
            kind: ProtocolErrorKind::Draining,
            detail: "server is draining; no new work admitted".to_string(),
        });
    }
    if inner.queue.len() >= state.config.queue_cap {
        return Some(ProtocolError {
            kind: ProtocolErrorKind::QueueFull,
            detail: format!("admission queue is at capacity {}", state.config.queue_cap),
        });
    }
    let in_flight = inner.in_flight.get(client).copied().unwrap_or(0);
    if in_flight >= state.config.client_quota {
        return Some(ProtocolError {
            kind: ProtocolErrorKind::QuotaExceeded,
            detail: format!(
                "client `{client}` already has {in_flight} in-flight jobs (quota {})",
                state.config.client_quota
            ),
        });
    }
    None
}

fn validate_payload(payload: &SpecPayload) -> Option<ProtocolError> {
    if payload.spec.graph_count() == 0 {
        return Some(ProtocolError {
            kind: ProtocolErrorKind::InvalidSpec,
            detail: "specification has no task graphs".to_string(),
        });
    }
    if payload.library.pe_count() == 0 {
        return Some(ProtocolError {
            kind: ProtocolErrorKind::InvalidSpec,
            detail: "resource library has no PE types".to_string(),
        });
    }
    None
}

/// Enqueues a job and returns its id plus the receiver end of its
/// completion/event channel.
fn enqueue(
    state: &State,
    inner: &mut Inner,
    client: &str,
    work: JobKind,
) -> (u64, mpsc::Receiver<JobEvent>) {
    let id = inner.next_job;
    inner.next_job += 1;
    let (tx, rx) = mpsc::channel();
    *inner.in_flight.entry(client.to_string()).or_default() += 1;
    inner.jobs.insert(
        id,
        Job {
            client: client.to_string(),
            work: Some(work),
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            done_tx: Some(tx),
            enqueued_at: Instant::now(),
            queue_ms: 0.0,
            readers: 1,
        },
    );
    inner.queue.push_back(id);
    inner.counters.submitted += 1;
    state.queue_cv.notify_one();
    (id, rx)
}

fn handle_submit(stream: &mut TcpStream, state: &Arc<State>, client: &str, req: SubmitRequest) {
    if let Some(e) = validate_payload(&req.payload) {
        write_response(stream, &Response::new(ResponseBody::Error(e)));
        return;
    }
    let key = CacheKey::new(req.payload, req.portfolio.max(1), req.reconfiguration);

    enum Admission {
        Refused(ProtocolError),
        CacheHit(Box<JobResult>),
        Coalesced(u64),
        Enqueued(u64, mpsc::Receiver<JobEvent>),
    }

    let admission = {
        let mut inner = state.lock();
        let probe = match inner.cache.get(&key) {
            Some(CacheSlot::Ready(entry)) => Some(Ok(entry.template.clone())),
            Some(CacheSlot::Pending(producer)) => Some(Err(*producer)),
            None => None,
        };
        match probe {
            Some(Ok(mut result)) => {
                inner.counters.cache_hits += 1;
                result.cached = true;
                result.queue_ms = 0.0;
                result.run_ms = 0.0;
                Admission::CacheHit(Box::new(result))
            }
            Some(Err(producer)) => {
                inner.counters.coalesced += 1;
                if let Some(job) = inner.jobs.get_mut(&producer) {
                    job.readers += 1;
                }
                Admission::Coalesced(producer)
            }
            None => match admit(&inner, state, client) {
                Some(e) => {
                    inner.counters.rejected += 1;
                    Admission::Refused(e)
                }
                None => {
                    inner.counters.cache_misses += 1;
                    let work = JobKind::Submit {
                        key: key.clone(),
                        stream: req.stream,
                    };
                    let (id, rx) = enqueue(state, &mut inner, client, work);
                    inner.cache.insert(key, CacheSlot::Pending(id));
                    Admission::Enqueued(id, rx)
                }
            },
        }
    };

    match admission {
        Admission::Refused(e) => {
            write_response(stream, &Response::new(ResponseBody::Error(e)));
        }
        Admission::CacheHit(result) => {
            write_response(stream, &Response::new(ResponseBody::Result(*result)));
        }
        Admission::Coalesced(producer) => {
            let response = wait_for_producer(state, producer);
            write_response(stream, &response);
        }
        Admission::Enqueued(id, rx) => {
            // Stream events (when requested) until every sender — the
            // job slot's and the worker observer's — is dropped, which
            // happens exactly at the terminal transition.
            for event in rx.iter() {
                write_response(stream, &Response::new(ResponseBody::Event(event)));
            }
            let response = {
                let mut inner = state.lock();
                let response = match inner.jobs.get(&id).map(|j| &j.state) {
                    Some(JobState::Done(result)) => {
                        Response::new(ResponseBody::Result(*result.clone()))
                    }
                    Some(JobState::Cancelled) => Response::error(
                        ProtocolErrorKind::Cancelled,
                        format!("job {id} was cancelled"),
                    ),
                    Some(JobState::Failed(e)) => Response::new(ResponseBody::Error(e.clone())),
                    _ => Response::error(
                        ProtocolErrorKind::Internal,
                        format!("job {id} signalled completion without a terminal state"),
                    ),
                };
                release_reader(&mut inner, id);
                response
            };
            write_response(stream, &response);
        }
    }
}

/// Blocks until the producer job of a coalesced duplicate reaches a
/// terminal state, then mirrors its result (flagged `coalesced`) and
/// releases the reader slot admission registered for this waiter.
fn wait_for_producer(state: &Arc<State>, producer: u64) -> Response {
    let mut inner = state.lock();
    loop {
        let response = match inner.jobs.get(&producer).map(|j| &j.state) {
            Some(JobState::Done(result)) => {
                let mut result = *result.clone();
                result.coalesced = true;
                Response::new(ResponseBody::Result(result))
            }
            Some(JobState::Cancelled) => Response::error(
                ProtocolErrorKind::Cancelled,
                format!("coalesced onto job {producer}, which was cancelled"),
            ),
            Some(JobState::Failed(e)) => Response::new(ResponseBody::Error(e.clone())),
            Some(_) => {
                inner = match state.jobs_cv.wait(inner) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                continue;
            }
            None => {
                return Response::error(
                    ProtocolErrorKind::Internal,
                    format!("coalesced producer job {producer} vanished"),
                )
            }
        };
        release_reader(&mut inner, producer);
        return response;
    }
}

fn job_status(id: u64, job: &Job) -> JobStatus {
    JobStatus {
        job: id,
        state: job.state.tag().to_string(),
        detail: match &job.state {
            JobState::Failed(e) => e.to_string(),
            _ => String::new(),
        },
        result: match &job.state {
            JobState::Done(result) => Some(*result.clone()),
            _ => None,
        },
    }
}

fn handle_status(state: &Arc<State>, id: u64) -> Response {
    let inner = state.lock();
    match inner.jobs.get(&id) {
        Some(job) => Response::new(ResponseBody::Status(job_status(id, job))),
        None => Response::error(ProtocolErrorKind::UnknownJob, format!("no job {id}")),
    }
}

fn handle_cancel(state: &State, id: u64) -> Response {
    let mut inner = state.lock();
    let action = match inner.jobs.get(&id) {
        Some(job) => match job.state {
            JobState::Queued => 'q',
            JobState::Running => 'r',
            _ => 't', // already terminal: cancel is idempotent
        },
        None => return Response::error(ProtocolErrorKind::UnknownJob, format!("no job {id}")),
    };
    match action {
        'q' => {
            inner.queue.retain(|&q| q != id);
            finish_job(state, &mut inner, id, JobState::Cancelled);
        }
        'r' => {
            // Cooperative: the flag aborts every portfolio member at its
            // next allocation step; the worker records the terminal
            // state when the exploration unwinds.
            if let Some(job) = inner.jobs.get(&id) {
                job.cancel.store(true, Ordering::Relaxed);
            }
        }
        _ => {}
    }
    match inner.jobs.get(&id) {
        Some(job) => Response::new(ResponseBody::Cancelled(job_status(id, job))),
        None => Response::error(ProtocolErrorKind::Internal, format!("job {id} vanished")),
    }
}

fn handle_resyn(state: &Arc<State>, client: &str, req: ResynRequest) -> Response {
    if let Some(e) = validate_payload(&req.payload) {
        return Response::new(ResponseBody::Error(e));
    }
    let work = JobKind::Resyn {
        key: CacheKey::new(req.payload, req.portfolio.max(1), req.reconfiguration),
        deltas: req.deltas,
    };
    let (id, rx) = {
        let mut inner = state.lock();
        if let Some(e) = admit(&inner, state, client) {
            inner.counters.rejected += 1;
            return Response::new(ResponseBody::Error(e));
        }
        enqueue(state, &mut inner, client, work)
    };
    // Block until the worker finishes the ladder (the sender drops at
    // the terminal transition).
    for _ in rx.iter() {}
    let mut inner = state.lock();
    let response = match inner.jobs.get(&id).map(|j| &j.state) {
        Some(JobState::DoneResyn(result)) => Response::new(ResponseBody::Resyn(*result.clone())),
        Some(JobState::Cancelled) => {
            Response::error(ProtocolErrorKind::Cancelled, format!("job {id} cancelled"))
        }
        Some(JobState::Failed(e)) => Response::new(ResponseBody::Error(e.clone())),
        _ => Response::error(
            ProtocolErrorKind::Internal,
            format!("resyn job {id} signalled completion without a terminal state"),
        ),
    };
    release_reader(&mut inner, id);
    response
}

fn handle_stats(state: &Arc<State>) -> Response {
    let inner = state.lock();
    let c = &inner.counters;
    Response::new(ResponseBody::Stats(ServerStats {
        submitted: c.submitted,
        completed: c.completed,
        cancelled: c.cancelled,
        failed: c.failed,
        cache_hits: c.cache_hits,
        cache_misses: c.cache_misses,
        coalesced: c.coalesced,
        rejected: c.rejected,
        queue_len: inner.queue.len(),
        running: inner.running,
        draining: inner.draining,
    }))
}

fn handle_shutdown(state: &Arc<State>) -> Response {
    let mut inner = state.lock();
    if inner.draining {
        return Response::error(
            ProtocolErrorKind::Draining,
            "shutdown already in progress".to_string(),
        );
    }
    inner.draining = true;
    let queued: Vec<u64> = inner.queue.drain(..).collect();
    let cancelled = queued.len() as u64;
    for id in queued {
        finish_job(state, &mut inner, id, JobState::Cancelled);
    }
    let drained = inner.running as u64;
    while inner.running > 0 {
        inner = match state.jobs_cv.wait(inner) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
    inner.shutdown = true;
    let report = DrainReport { drained, cancelled };
    inner.drain_report = Some(report.clone());
    state.queue_cv.notify_all();
    drop(inner);
    Response::new(ResponseBody::ShuttingDown(report))
}

/// Records a terminal transition: sets the state, drops the completion
/// sender (waking the submitting connection) and any unclaimed work,
/// updates the counters and the client's in-flight count, and wakes
/// every `jobs_cv` waiter.
fn finish_job(state: &State, inner: &mut Inner, id: u64, terminal: JobState) {
    let Some(job) = inner.jobs.get_mut(&id) else {
        return;
    };
    if job.state.terminal() || !terminal.terminal() {
        return; // not a terminal transition
    }
    match &terminal {
        JobState::Done(_) | JobState::DoneResyn(_) => inner.counters.completed += 1,
        JobState::Cancelled => inner.counters.cancelled += 1,
        _ => inner.counters.failed += 1,
    }
    job.state = terminal;
    job.done_tx = None;
    let work = job.work.take();
    let unread = job.readers > 0;
    if let Some(n) = inner.in_flight.get_mut(&job.client) {
        *n -= 1;
        if *n == 0 {
            inner.in_flight.remove(&job.client);
        }
    }
    // Work is left only on a job that ended in the queue; a submit's
    // pending slot goes with it.
    if let Some(JobKind::Submit { key, .. }) = work {
        release_pending(inner, &key, id);
    }
    inner.terminal_jobs += 1;
    if !unread {
        retire(inner, id);
    }
    state.jobs_cv.notify_all();
}

/// Records that one registered reader of job `id` has read it; the last
/// reader of a terminal job makes it evictable.
fn release_reader(inner: &mut Inner, id: u64) {
    let Some(job) = inner.jobs.get_mut(&id) else {
        return;
    };
    job.readers = job.readers.saturating_sub(1);
    if job.readers == 0 && job.state.terminal() {
        retire(inner, id);
    }
}

/// Marks terminal job `id` evictable, then evicts the oldest evictable
/// jobs while more than [`RETAINED_TERMINAL_JOBS`] terminal jobs remain.
fn retire(inner: &mut Inner, id: u64) {
    inner.retired.insert(id);
    while inner.terminal_jobs > RETAINED_TERMINAL_JOBS {
        let Some(oldest) = inner.retired.pop_first() else {
            break;
        };
        inner.jobs.remove(&oldest);
        inner.terminal_jobs -= 1;
    }
}

/// Frees `key`'s pending slot if job `id` still produces it: a submit
/// that did not finish with a cacheable winner must let later
/// submissions re-run instead of coalescing onto a corpse.
fn release_pending(inner: &mut Inner, key: &CacheKey, id: u64) {
    if matches!(inner.cache.get(key), Some(CacheSlot::Pending(producer)) if *producer == id) {
        inner.cache.remove(key);
    }
}

fn worker_loop(state: &Arc<State>) {
    loop {
        let (id, work, cancel, tx, queue_ms) = {
            let mut inner = state.lock();
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    // The worker takes the job's work: the job keeps no
                    // copy of the payload or the deltas.
                    let claimed = inner.jobs.get_mut(&id).and_then(|job| {
                        let work = job.work.take()?;
                        job.state = JobState::Running;
                        job.queue_ms = job.enqueued_at.elapsed().as_secs_f64() * 1000.0;
                        Some((
                            work,
                            Arc::clone(&job.cancel),
                            job.done_tx.clone(),
                            job.queue_ms,
                        ))
                    });
                    let Some((work, cancel, tx, queue_ms)) = claimed else {
                        continue;
                    };
                    inner.running += 1;
                    break (id, work, cancel, tx, queue_ms);
                }
                if inner.shutdown {
                    return;
                }
                inner = match state.queue_cv.wait(inner) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        // A panicking job fails alone: the worker survives it, and the
        // job's pending cache slot is released like any failure's.
        let (terminal, winner) = catch_unwind(AssertUnwindSafe(|| {
            run_job(state, id, &work, &cancel, tx, queue_ms)
        }))
        .unwrap_or_else(|panic| {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            let error = ProtocolError {
                kind: ProtocolErrorKind::Internal,
                detail: format!("job {id} panicked: {detail}"),
            };
            (JobState::Failed(error), None)
        });
        let mut inner = state.lock();
        if let JobKind::Submit { key, .. } = work {
            match (&terminal, winner) {
                // Promote the pending slot to a ready entry so duplicates
                // hit; the key keeps the one payload the entry holds.
                (JobState::Done(result), Some(synthesis)) => {
                    let entry = CacheEntry {
                        template: *result.clone(),
                        synthesis,
                    };
                    inner.cache.insert(key, CacheSlot::Ready(Box::new(entry)));
                }
                _ => release_pending(&mut inner, &key, id),
            }
        }
        inner.running -= 1;
        finish_job(state, &mut inner, id, terminal);
    }
}

fn base_options(reconfiguration: bool) -> CosynOptions {
    if reconfiguration {
        CosynOptions::default()
    } else {
        CosynOptions::without_reconfiguration()
    }
}

/// The wire result of an exploration winner, labelled with the spec's
/// fingerprint, or the typed failure to compute that label.
fn job_result(
    id: u64,
    key: &CacheKey,
    outcome: &crusade_explore::ExploreOutcome,
    queue_ms: f64,
    run_ms: f64,
) -> Result<JobResult, ProtocolError> {
    let fingerprint =
        fingerprint(&key.payload, key.portfolio, key.reconfiguration).map_err(|detail| {
            ProtocolError {
                kind: ProtocolErrorKind::InvalidSpec,
                detail,
            }
        })?;
    let report = &outcome.winner.report;
    Ok(JobResult {
        job: id,
        fingerprint,
        cached: false,
        coalesced: false,
        cost: report.cost.amount(),
        policy: outcome.policy.id,
        pes: report.pe_count,
        links: report.link_count,
        multi_mode_devices: report.multi_mode_devices,
        audit_clean: true,
        queue_ms,
        run_ms,
    })
}

/// Runs one job outside the lock. Returns the terminal state plus, for a
/// successful submit, the full winner (for cache promotion).
fn run_job(
    state: &Arc<State>,
    id: u64,
    work: &JobKind,
    cancel: &Arc<AtomicBool>,
    tx: Option<mpsc::Sender<JobEvent>>,
    queue_ms: f64,
) -> (JobState, Option<SynthesisResult>) {
    let (key, stream) = match work {
        JobKind::Submit { key, stream } => (key, *stream),
        JobKind::Resyn { key, deltas } => return (run_resyn(state, id, key, deltas), None),
    };
    let mut base = base_options(key.reconfiguration);
    if stream {
        if let Some(tx) = tx {
            base = base.with_observer(Arc::new(ForwardObserver {
                job: id,
                seq: AtomicU64::new(0),
                tx: Mutex::new(tx),
            }));
        }
    }
    let config = crusade_explore::ExploreConfig::new(key.portfolio, state.config.jobs_per_explore)
        .with_base(base)
        .with_cancel(Arc::clone(cancel));
    let started = Instant::now();
    let outcome = crusade_explore::explore(&key.payload.spec, &key.payload.library, &config);
    drop(config); // releases the observer's sender clone
    let run_ms = started.elapsed().as_secs_f64() * 1000.0;
    match outcome {
        Ok(mut outcome) => {
            // The winner's schedule board carries a clone of the
            // observer handle; detach it, or a streamed job's event
            // sender would live on inside the cache and the submitting
            // connection would wait forever for the channel to close.
            outcome
                .winner
                .architecture
                .board
                .set_observer(crusade_obs::ObserverHandle::none());
            match job_result(id, key, &outcome, queue_ms, run_ms) {
                Ok(result) => (JobState::Done(Box::new(result)), Some(outcome.winner)),
                Err(e) => (JobState::Failed(e), None),
            }
        }
        Err(e) => {
            let terminal = if cancel.load(Ordering::Relaxed) {
                JobState::Cancelled
            } else {
                JobState::Failed(ProtocolError {
                    kind: ProtocolErrorKind::Infeasible,
                    detail: e.to_string(),
                })
            };
            (terminal, None)
        }
    }
}

fn run_resyn(state: &Arc<State>, id: u64, key: &CacheKey, deltas: &[SpecDelta]) -> JobState {
    // Warm start from the cache when the deployed system is already
    // known; synthesize it cold otherwise (and fill the cache, since a
    // cold incumbent is exactly a cold submit's winner).
    let cached = match state.lock().cache.get(key) {
        Some(CacheSlot::Ready(entry)) => {
            Some((entry.synthesis.clone(), entry.template.fingerprint.clone()))
        }
        _ => None,
    };
    let incumbent_cached = cached.is_some();
    let (incumbent, fingerprint) = match cached {
        Some(hit) => hit,
        None => {
            let config =
                crusade_explore::ExploreConfig::new(key.portfolio, state.config.jobs_per_explore)
                    .with_base(base_options(key.reconfiguration));
            let started = Instant::now();
            let outcome =
                match crusade_explore::explore(&key.payload.spec, &key.payload.library, &config) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        return JobState::Failed(ProtocolError {
                            kind: ProtocolErrorKind::Infeasible,
                            detail: format!("cold incumbent synthesis failed: {e}"),
                        })
                    }
                };
            let run_ms = started.elapsed().as_secs_f64() * 1000.0;
            let template = match job_result(id, key, &outcome, 0.0, run_ms) {
                Ok(template) => template,
                Err(e) => return JobState::Failed(e),
            };
            let fingerprint = template.fingerprint.clone();
            state.lock().cache.entry(key.clone()).or_insert_with(|| {
                CacheSlot::Ready(Box::new(CacheEntry {
                    template,
                    synthesis: outcome.winner.clone(),
                }))
            });
            (outcome.winner, fingerprint)
        }
    };
    let incumbent_cost = incumbent.report.cost.amount();
    let resyn_config = crusade_explore::ResynConfig {
        jobs: state.config.jobs_per_explore,
        portfolio: key.portfolio,
        base: base_options(key.reconfiguration),
        ..crusade_explore::ResynConfig::default()
    };
    match crusade_explore::resynthesize_sequence(
        &key.payload.spec,
        &key.payload.library,
        incumbent,
        deltas,
        &resyn_config,
    ) {
        Ok(outcome) => {
            let steps = outcome
                .report
                .steps
                .iter()
                .map(|s| ResynStep {
                    index: s.index,
                    kind: s.kind.clone(),
                    rung: s.rung.tag().to_string(),
                    cost: s.cost,
                })
                .collect();
            JobState::DoneResyn(Box::new(ResynResult {
                job: id,
                fingerprint,
                incumbent_cached,
                incumbent_cost,
                final_cost: outcome.report.final_cost,
                degraded: outcome.report.degraded,
                steps,
                audit_clean: true,
            }))
        }
        Err(e) => JobState::Failed(ProtocolError {
            kind: ProtocolErrorKind::Infeasible,
            detail: format!("re-synthesis failed: {e:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crusade_workloads::motivating_example;

    fn payload() -> SpecPayload {
        let (library, spec) = motivating_example();
        SpecPayload { library, spec }
    }

    /// A daemon state with no listener and no workers: queued jobs stay
    /// queued until a test finishes them.
    fn idle_state(client_quota: usize) -> State {
        State {
            inner: Mutex::new(Inner::default()),
            queue_cv: Condvar::new(),
            jobs_cv: Condvar::new(),
            config: ServeConfig {
                client_quota,
                ..ServeConfig::default()
            },
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        }
    }

    #[test]
    fn admission_counts_each_clients_in_flight_jobs() {
        let state = idle_state(1);
        let key = CacheKey::new(payload(), 1, true);
        let (id, _rx) = {
            let mut inner = state.lock();
            let work = JobKind::Submit {
                key: key.clone(),
                stream: false,
            };
            let (id, rx) = enqueue(&state, &mut inner, "a", work);
            inner.cache.insert(key.clone(), CacheSlot::Pending(id));
            (id, rx)
        };
        {
            let inner = state.lock();
            let refusal = admit(&inner, &state, "a").map(|e| e.kind);
            assert_eq!(refusal, Some(ProtocolErrorKind::QuotaExceeded));
            assert!(admit(&inner, &state, "b").is_none(), "quota is per client");
        }

        let reply = handle_cancel(&state, id);
        assert!(
            matches!(&reply.body, ResponseBody::Cancelled(s) if s.state == "cancelled"),
            "{reply:?}"
        );
        let inner = state.lock();
        assert!(
            admit(&inner, &state, "a").is_none(),
            "cancel freed the slot"
        );
        assert!(inner.in_flight.is_empty());
        assert!(
            inner.jobs[&id].work.is_none(),
            "a cancelled job kept its work"
        );
        assert!(inner.cache.is_empty(), "the pending slot outlived its job");
        assert_eq!(Arc::strong_count(&key.payload), 1);
    }

    #[test]
    fn terminal_jobs_are_evicted_oldest_first_once_read() {
        let state = Arc::new(idle_state(usize::MAX));
        let key = CacheKey::new(payload(), 1, true);
        let extra = 5;
        let mut inner = state.lock();
        let ids: Vec<u64> = (0..RETAINED_TERMINAL_JOBS + extra)
            .map(|_| {
                let work = JobKind::Resyn {
                    key: key.clone(),
                    deltas: Vec::new(),
                };
                enqueue(&state, &mut inner, "a", work).0
            })
            .collect();
        inner.queue.clear();
        for &id in &ids {
            let result = JobResult {
                job: id,
                fingerprint: String::new(),
                cached: false,
                coalesced: false,
                cost: id,
                policy: 0,
                pes: 1,
                links: 0,
                multi_mode_devices: 0,
                audit_clean: true,
                queue_ms: 0.0,
                run_ms: 0.0,
            };
            finish_job(&state, &mut inner, id, JobState::Done(Box::new(result)));
        }
        // Nobody has read a result yet: nothing may go.
        assert_eq!(inner.jobs.len(), ids.len());
        // Every submitter but the oldest's reads its result.
        for &id in &ids[1..] {
            release_reader(&mut inner, id);
        }
        assert_eq!(inner.jobs.len(), RETAINED_TERMINAL_JOBS);
        assert!(
            inner.jobs.contains_key(&ids[0]),
            "an unread job was evicted"
        );
        drop(inner);
        // Job 0 is pinned, so jobs 1..=extra went.
        for &gone in &ids[1..=extra] {
            for reply in [handle_status(&state, gone), handle_cancel(&state, gone)] {
                assert!(
                    matches!(&reply.body, ResponseBody::Error(e) if e.kind == ProtocolErrorKind::UnknownJob),
                    "job {gone}: {reply:?}"
                );
            }
        }
        for &kept in &ids[extra + 1..] {
            let reply = handle_status(&state, kept);
            assert!(
                matches!(&reply.body, ResponseBody::Status(s) if s.result.as_ref().map(|r| r.cost) == Some(kept)),
                "job {kept}: {reply:?}"
            );
        }
        // Once its submitter has read it, the oldest is the first to go.
        let mut inner = state.lock();
        release_reader(&mut inner, ids[0]);
        let work = JobKind::Resyn {
            key: key.clone(),
            deltas: Vec::new(),
        };
        let (next, _rx) = enqueue(&state, &mut inner, "a", work);
        finish_job(&state, &mut inner, next, JobState::Cancelled);
        release_reader(&mut inner, next);
        assert_eq!(inner.jobs.len(), RETAINED_TERMINAL_JOBS);
        assert!(!inner.jobs.contains_key(&ids[0]) && inner.jobs.contains_key(&next));
    }

    #[test]
    fn finished_jobs_keep_no_payload_and_entries_keep_one() {
        let server = ServerHandle::bind(ServeConfig::default()).unwrap();
        let client = ServeClient::new(server.local_addr().to_string(), "unit");
        let cold = client.submit(payload(), 4, true, false, |_| {}).unwrap();
        let hit = client.submit(payload(), 4, true, false, |_| {}).unwrap();
        assert!(!cold.cached && hit.cached);
        assert_eq!(hit.fingerprint, cold.fingerprint);
        let fault = SpecDelta::FailPe { pe: 0 };
        let resyn = client.resyn(payload(), vec![fault], 4, true).unwrap();
        assert!(resyn.incumbent_cached);
        assert_eq!(resyn.fingerprint, cold.fingerprint);
        {
            let inner = server.state.lock();
            // The hit ran no job: the cold submit and the resyn did.
            assert_eq!(inner.jobs.len(), 2);
            for job in inner.jobs.values() {
                assert!(job.state.terminal() && job.work.is_none());
            }
            assert!(inner.in_flight.is_empty());
            assert_eq!(inner.cache.len(), 1);
            for (key, slot) in &inner.cache {
                assert!(matches!(slot, CacheSlot::Ready(_)));
                assert_eq!(Arc::strong_count(&key.payload), 1, "a second payload");
            }
        }
        client.shutdown().unwrap();
        server.wait().unwrap();
    }
}
