//! The domain side of `crusade-serve`: admission, job queue, worker
//! pool, fingerprint cache and graceful drain.
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

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
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

/// What a queued job will run.
enum JobKind {
    Submit {
        payload: Arc<SpecPayload>,
        portfolio: usize,
        reconfiguration: bool,
        stream: bool,
    },
    Resyn {
        payload: Arc<SpecPayload>,
        deltas: Vec<SpecDelta>,
        portfolio: usize,
        reconfiguration: bool,
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

struct Job {
    client: String,
    kind: JobKind,
    fingerprint: String,
    state: JobState,
    cancel: Arc<AtomicBool>,
    /// Completion signal and event stream: dropped (set to `None`) on
    /// every terminal transition, which wakes the submitting connection.
    done_tx: Option<mpsc::Sender<JobEvent>>,
    enqueued_at: Instant,
    queue_ms: f64,
}

/// One fingerprint's cache slot.
enum CacheSlot {
    /// A job with this fingerprint is queued or running; duplicates
    /// coalesce onto it instead of enqueueing again.
    Pending(u64),
    /// The finished winner: the wire result template plus the full
    /// synthesis result (the incumbent a `Resyn` warm-starts from).
    Ready(Box<CacheEntry>),
}

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

struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, Job>,
    cache: HashMap<String, CacheSlot>,
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
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                cache: HashMap::new(),
                counters: Counters::default(),
                next_job: 0,
                running: 0,
                draining: false,
                shutdown: false,
                drain_report: None,
            }),
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
    let in_flight = inner
        .jobs
        .values()
        .filter(|j| j.client == client && !j.state.terminal())
        .count();
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
    kind: JobKind,
    fp: String,
) -> (u64, mpsc::Receiver<JobEvent>) {
    let id = inner.next_job;
    inner.next_job += 1;
    let (tx, rx) = mpsc::channel();
    inner.jobs.insert(
        id,
        Job {
            client: client.to_string(),
            kind,
            fingerprint: fp,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            done_tx: Some(tx),
            enqueued_at: Instant::now(),
            queue_ms: 0.0,
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
    let portfolio = req.portfolio.max(1);
    let fp = match fingerprint(&req.payload, portfolio, req.reconfiguration) {
        Ok(fp) => fp,
        Err(detail) => {
            write_response(
                stream,
                &Response::error(ProtocolErrorKind::InvalidSpec, detail),
            );
            return;
        }
    };

    enum Admission {
        Refused(ProtocolError),
        CacheHit(Box<JobResult>),
        Coalesced(u64),
        Enqueued(u64, mpsc::Receiver<JobEvent>),
    }

    let admission = {
        let mut inner = state.lock();
        let probe = match inner.cache.get(&fp) {
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
                Admission::Coalesced(producer)
            }
            None => match admit(&inner, state, client) {
                Some(e) => {
                    inner.counters.rejected += 1;
                    Admission::Refused(e)
                }
                None => {
                    inner.counters.cache_misses += 1;
                    let kind = JobKind::Submit {
                        payload: Arc::new(req.payload),
                        portfolio,
                        reconfiguration: req.reconfiguration,
                        stream: req.stream,
                    };
                    let (id, rx) = enqueue(state, &mut inner, client, kind, fp.clone());
                    inner.cache.insert(fp.clone(), CacheSlot::Pending(id));
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
                let inner = state.lock();
                match inner.jobs.get(&id).map(|j| &j.state) {
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
                }
            };
            write_response(stream, &response);
        }
    }
}

/// Blocks until the producer job of a coalesced duplicate reaches a
/// terminal state, then mirrors its result (flagged `coalesced`).
fn wait_for_producer(state: &Arc<State>, producer: u64) -> Response {
    let mut inner = state.lock();
    loop {
        match inner.jobs.get(&producer).map(|j| &j.state) {
            Some(JobState::Done(result)) => {
                let mut result = *result.clone();
                result.coalesced = true;
                return Response::new(ResponseBody::Result(result));
            }
            Some(JobState::Cancelled) => {
                return Response::error(
                    ProtocolErrorKind::Cancelled,
                    format!("coalesced onto job {producer}, which was cancelled"),
                )
            }
            Some(JobState::Failed(e)) => return Response::new(ResponseBody::Error(e.clone())),
            Some(_) => {
                inner = match state.jobs_cv.wait(inner) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            None => {
                return Response::error(
                    ProtocolErrorKind::Internal,
                    format!("coalesced producer job {producer} vanished"),
                )
            }
        }
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

fn handle_cancel(state: &Arc<State>, id: u64) -> Response {
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
    let portfolio = req.portfolio.max(1);
    let fp = match fingerprint(&req.payload, portfolio, req.reconfiguration) {
        Ok(fp) => fp,
        Err(detail) => return Response::error(ProtocolErrorKind::InvalidSpec, detail),
    };
    let (id, rx) = {
        let mut inner = state.lock();
        if let Some(e) = admit(&inner, state, client) {
            inner.counters.rejected += 1;
            return Response::new(ResponseBody::Error(e));
        }
        let kind = JobKind::Resyn {
            payload: Arc::new(req.payload),
            deltas: req.deltas,
            portfolio,
            reconfiguration: req.reconfiguration,
        };
        enqueue(state, &mut inner, client, kind, fp)
    };
    // Block until the worker finishes the ladder (the sender drops at
    // the terminal transition).
    for _ in rx.iter() {}
    let inner = state.lock();
    match inner.jobs.get(&id).map(|j| &j.state) {
        Some(JobState::DoneResyn(result)) => Response::new(ResponseBody::Resyn(*result.clone())),
        Some(JobState::Cancelled) => {
            Response::error(ProtocolErrorKind::Cancelled, format!("job {id} cancelled"))
        }
        Some(JobState::Failed(e)) => Response::new(ResponseBody::Error(e.clone())),
        _ => Response::error(
            ProtocolErrorKind::Internal,
            format!("resyn job {id} signalled completion without a terminal state"),
        ),
    }
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
/// sender (waking the submitting connection), updates the cache slot and
/// counters, and wakes every `jobs_cv` waiter.
fn finish_job(state: &State, inner: &mut Inner, id: u64, terminal: JobState) {
    match &terminal {
        JobState::Done(_) | JobState::DoneResyn(_) => inner.counters.completed += 1,
        JobState::Cancelled => inner.counters.cancelled += 1,
        JobState::Failed(_) => inner.counters.failed += 1,
        JobState::Queued | JobState::Running => return, // not a terminal transition
    }
    let fp_release = match inner.jobs.get_mut(&id) {
        Some(job) => {
            // A submit that did not finish with a cacheable winner must
            // release its pending slot so later submissions re-run
            // instead of coalescing onto a corpse.
            let release = matches!(
                (&job.kind, &terminal),
                (JobKind::Submit { .. }, JobState::Cancelled)
                    | (JobKind::Submit { .. }, JobState::Failed(_))
            );
            job.state = terminal;
            job.done_tx = None;
            release.then(|| job.fingerprint.clone())
        }
        None => return,
    };
    if let Some(fp) = fp_release {
        if let Some(CacheSlot::Pending(producer)) = inner.cache.get(&fp) {
            if *producer == id {
                inner.cache.remove(&fp);
            }
        }
    }
    state.jobs_cv.notify_all();
}

fn worker_loop(state: &Arc<State>) {
    loop {
        let (id, kind_view, cancel, tx, queue_ms) = {
            let mut inner = state.lock();
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    let claimed = inner.jobs.get_mut(&id).map(|job| {
                        job.state = JobState::Running;
                        job.queue_ms = job.enqueued_at.elapsed().as_secs_f64() * 1000.0;
                        let view = match &job.kind {
                            JobKind::Submit {
                                payload,
                                portfolio,
                                reconfiguration,
                                stream,
                            } => WorkView::Submit {
                                payload: Arc::clone(payload),
                                portfolio: *portfolio,
                                reconfiguration: *reconfiguration,
                                stream: *stream,
                            },
                            JobKind::Resyn {
                                payload,
                                deltas,
                                portfolio,
                                reconfiguration,
                            } => WorkView::Resyn {
                                payload: Arc::clone(payload),
                                deltas: deltas.clone(),
                                portfolio: *portfolio,
                                reconfiguration: *reconfiguration,
                            },
                        };
                        (
                            view,
                            Arc::clone(&job.cancel),
                            job.done_tx.clone(),
                            job.queue_ms,
                        )
                    });
                    let Some((view, cancel, tx, queue_ms)) = claimed else {
                        continue;
                    };
                    inner.running += 1;
                    break (id, view, cancel, tx, queue_ms);
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
            run_job(state, id, kind_view, &cancel, tx, queue_ms)
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
        if let (JobState::Done(result), Some(synthesis)) = (&terminal, winner) {
            // Promote the pending slot to a ready entry so duplicates hit.
            inner.cache.insert(
                result.fingerprint.clone(),
                CacheSlot::Ready(Box::new(CacheEntry {
                    template: *result.clone(),
                    synthesis,
                })),
            );
        }
        inner.running -= 1;
        finish_job(state, &mut inner, id, terminal);
    }
}

/// What a worker copies out of the job under the lock.
enum WorkView {
    Submit {
        payload: Arc<SpecPayload>,
        portfolio: usize,
        reconfiguration: bool,
        stream: bool,
    },
    Resyn {
        payload: Arc<SpecPayload>,
        deltas: Vec<SpecDelta>,
        portfolio: usize,
        reconfiguration: bool,
    },
}

fn base_options(reconfiguration: bool) -> CosynOptions {
    if reconfiguration {
        CosynOptions::default()
    } else {
        CosynOptions::without_reconfiguration()
    }
}

/// Runs one job outside the lock. Returns the terminal state plus, for a
/// successful submit, the full winner (for cache promotion).
fn run_job(
    state: &Arc<State>,
    id: u64,
    view: WorkView,
    cancel: &Arc<AtomicBool>,
    tx: Option<mpsc::Sender<JobEvent>>,
    queue_ms: f64,
) -> (JobState, Option<SynthesisResult>) {
    match view {
        WorkView::Submit {
            payload,
            portfolio,
            reconfiguration,
            stream,
        } => {
            let mut base = base_options(reconfiguration);
            if stream {
                if let Some(tx) = tx {
                    base = base.with_observer(Arc::new(ForwardObserver {
                        job: id,
                        seq: AtomicU64::new(0),
                        tx: Mutex::new(tx),
                    }));
                }
            }
            let config =
                crusade_explore::ExploreConfig::new(portfolio, state.config.jobs_per_explore)
                    .with_base(base)
                    .with_cancel(Arc::clone(cancel));
            let started = Instant::now();
            let outcome = crusade_explore::explore(&payload.spec, &payload.library, &config);
            drop(config); // releases the observer's sender clone
            let run_ms = started.elapsed().as_secs_f64() * 1000.0;
            match outcome {
                Ok(mut outcome) => {
                    // The winner's schedule board carries a clone of the
                    // observer handle; detach it, or a streamed job's
                    // event sender would live on inside the cache and the
                    // submitting connection would wait forever for the
                    // channel to close.
                    outcome
                        .winner
                        .architecture
                        .board
                        .set_observer(crusade_obs::ObserverHandle::none());
                    let fp = state
                        .lock()
                        .jobs
                        .get(&id)
                        .map(|j| j.fingerprint.clone())
                        .unwrap_or_default();
                    let report = &outcome.winner.report;
                    let result = JobResult {
                        job: id,
                        fingerprint: fp,
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
                    };
                    (JobState::Done(Box::new(result)), Some(outcome.winner))
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
        WorkView::Resyn {
            payload,
            deltas,
            portfolio,
            reconfiguration,
        } => (
            run_resyn(state, id, &payload, deltas, portfolio, reconfiguration),
            None,
        ),
    }
}

fn run_resyn(
    state: &Arc<State>,
    id: u64,
    payload: &SpecPayload,
    deltas: Vec<SpecDelta>,
    portfolio: usize,
    reconfiguration: bool,
) -> JobState {
    let fp = state
        .lock()
        .jobs
        .get(&id)
        .map(|j| j.fingerprint.clone())
        .unwrap_or_default();
    // Warm start from the fingerprint cache when the deployed system is
    // already known; synthesize it cold otherwise (and fill the cache,
    // since a cold incumbent is exactly a cold submit's winner).
    let cached_incumbent = {
        let inner = state.lock();
        match inner.cache.get(&fp) {
            Some(CacheSlot::Ready(entry)) => {
                Some((entry.synthesis.clone(), entry.template.clone()))
            }
            _ => None,
        }
    };
    let incumbent_cached = cached_incumbent.is_some();
    let incumbent = match cached_incumbent {
        Some((synthesis, _)) => synthesis,
        None => {
            let config =
                crusade_explore::ExploreConfig::new(portfolio, state.config.jobs_per_explore)
                    .with_base(base_options(reconfiguration));
            let started = Instant::now();
            match crusade_explore::explore(&payload.spec, &payload.library, &config) {
                Ok(outcome) => {
                    let run_ms = started.elapsed().as_secs_f64() * 1000.0;
                    let report = &outcome.winner.report;
                    let template = JobResult {
                        job: id,
                        fingerprint: fp.clone(),
                        cached: false,
                        coalesced: false,
                        cost: report.cost.amount(),
                        policy: outcome.policy.id,
                        pes: report.pe_count,
                        links: report.link_count,
                        multi_mode_devices: report.multi_mode_devices,
                        audit_clean: true,
                        queue_ms: 0.0,
                        run_ms,
                    };
                    let mut inner = state.lock();
                    if !inner.cache.contains_key(&fp) {
                        inner.cache.insert(
                            fp.clone(),
                            CacheSlot::Ready(Box::new(CacheEntry {
                                template,
                                synthesis: outcome.winner.clone(),
                            })),
                        );
                    }
                    outcome.winner
                }
                Err(e) => {
                    return JobState::Failed(ProtocolError {
                        kind: ProtocolErrorKind::Infeasible,
                        detail: format!("cold incumbent synthesis failed: {e}"),
                    })
                }
            }
        }
    };
    let incumbent_cost = incumbent.report.cost.amount();
    let resyn_config = crusade_explore::ResynConfig {
        jobs: state.config.jobs_per_explore,
        portfolio,
        base: base_options(reconfiguration),
        ..crusade_explore::ResynConfig::default()
    };
    match crusade_explore::resynthesize_sequence(
        &payload.spec,
        &payload.library,
        incumbent,
        &deltas,
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
                fingerprint: fp,
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
