//! The job server core: durable admission, the supervised worker pool,
//! event fan-out, cancellation, drain, and crash recovery.
//!
//! ## Lock discipline
//!
//! One coarse mutex guards *all* mutable state — the job table, the
//! admission queue, **and the journal writer**. Every lifecycle transition
//! therefore appends its journal record and updates the in-memory mirror
//! atomically, which makes the write-ahead invariant trivial to audit:
//! there is no interleaving in which memory says something the journal
//! does not. The expensive work (ticking a cell, building a model at
//! admission) always happens *outside* the lock; only the bookkeeping and
//! the (fsynced) append happen inside.
//!
//! ## Recovery contract
//!
//! `202 Accepted` is written to the socket only after the job's `job`
//! record is fsynced. After any hard kill, [`GapServer::open`] replays the
//! journal: terminal jobs stay terminal, pending jobs re-enter the queue
//! at their last checkpoint, and — because cells tick in fixed node-budget
//! slices and floats are journaled as exact bit patterns — the resumed
//! jobs produce bit-identical certified results.

use crate::quota::{AgingQueue, QueuedJob, QuotaBook};
use crate::spec::{validate_submit, AdmissionLimits, SubmitRequest};
use crate::metrics::ServerMetrics;
use metaopt_campaign::jobs::{JobBook, JobEntry, JobRecord, JobStatus};
use metaopt_campaign::journal::JournalDisk;
use metaopt_campaign::{
    drive_cell, quarantine_reason_for, retry_jitter_seed, run_cell_sandboxed, wire, CampaignError,
    CampaignMetrics, CellDriveEnd, Clock, Journal, SandboxConfig, SandboxEnd, SolverObs,
    SystemClock, JOURNAL_FILE,
};
use metaopt_obs::{Registry, Tracer};
use metaopt_core::SweepState;
use metaopt_model::ModelStats;
use metaopt_resilience::{
    FaultPlan, FaultSite, RetryDecision, RetryPolicy, ServiceFault, WorkerKillReason,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::json::Json;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server name (journal header; appears in status responses).
    pub name: String,
    /// Durable state directory (holds `journal.wal`).
    pub dir: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded admission queue depth; submissions beyond it shed with
    /// `429`.
    pub max_queue: usize,
    /// Per-client token-bucket burst.
    pub quota_burst: f64,
    /// Per-client token refill rate (tokens/second).
    pub quota_per_sec: f64,
    /// Seconds a waiting job needs to gain one priority class.
    pub aging_secs: f64,
    /// Retry/backoff/quarantine policy for failed attempts.
    pub retry: RetryPolicy,
    /// Solver threads for jobs that do not request any (`0` = leave the
    /// spec's default, i.e. `METAOPT_THREADS`).
    pub default_threads: usize,
    /// Basis-factorization backend forced on every cell solve (`None` =
    /// leave the spec's default, i.e. `METAOPT_FACTOR`; sparse LU when
    /// unset). Sandboxed attempts receive it through the child's
    /// environment.
    pub default_factor: Option<metaopt_core::FactorBackend>,
    /// Admission shape limits.
    pub limits: AdmissionLimits,
    /// Time source for queue aging, quotas, deadlines, and retry backoff.
    /// The default [`SystemClock`] reads the OS monotonic clock; tests
    /// inject a [`metaopt_campaign::TestClock`] to drive those paths
    /// deterministically.
    pub clock: Arc<dyn Clock>,
    /// Chaos hook, `None` in production: instrumented server fault sites
    /// (currently [`FaultSite::EvalPanic`] in the worker loop) consult this
    /// plan, so the containment paths can be driven deterministically from
    /// tests — the same pattern as `MilpConfig::fault_plan` one layer down.
    pub fault_plan: Option<FaultPlan>,
    /// Metrics registry: [`GapServer::open`] registers the
    /// `metaopt_server_*` and `metaopt_campaign_*` families here and
    /// `GET /metrics` renders it. The default disabled registry mints
    /// no-op handles — observation off costs nothing.
    pub registry: Registry,
    /// Flight-recorder tracer for job lifecycle events; `GET /admin/trace`
    /// serves its bounded NDJSON tail. Defaults to disabled.
    pub tracer: Tracer,
    /// Process isolation for cell execution: `Some` spawns every attempt
    /// as a supervised child process ([`run_cell_sandboxed`]) with
    /// heartbeat/wall/RSS enforcement; `None` (the default) drives cells
    /// in-process, contained only by `catch_unwind`.
    pub sandbox: Option<SandboxConfig>,
    /// Injectable disk layer under the journal (`None` = the real
    /// filesystem). The disk-fault drills hand in a
    /// [`metaopt_campaign::FaultyDisk`] here.
    pub disk: Option<Arc<dyn JournalDisk>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "gapserver".into(),
            dir: PathBuf::from("gapserver-data"),
            workers: 2,
            max_queue: 64,
            quota_burst: 16.0,
            quota_per_sec: 4.0,
            aging_secs: 30.0,
            retry: RetryPolicy::default(),
            default_threads: 0,
            default_factor: None,
            limits: AdmissionLimits::default(),
            clock: Arc::new(SystemClock),
            fault_plan: None,
            registry: Registry::disabled(),
            tracer: Tracer::disabled(),
            sandbox: None,
            disk: None,
        }
    }
}

/// Why a submission was refused (maps onto HTTP in the API layer).
#[derive(Debug)]
pub enum SubmitError {
    /// The server is draining or stopped; nothing is admitted. (`503`)
    Unavailable,
    /// Client quota exhausted; retry after the advised seconds. (`429`)
    Quota(f64),
    /// The bounded admission queue is full. (`429`)
    QueueFull(usize),
    /// The spec failed validation / the modelcheck gate. (`422`)
    Rejected(String),
    /// Journal I/O failed; the server is now degraded to read-only. (`500`)
    Fatal(String),
}

impl SubmitError {
    /// The service-fault taxonomy entry for this refusal.
    pub fn to_fault(&self) -> ServiceFault {
        match self {
            SubmitError::Unavailable => {
                ServiceFault::AdmissionRejected("server is draining or stopped".into())
            }
            SubmitError::Quota(secs) => {
                ServiceFault::QuotaExhausted(format!("retry in {secs:.3}s"))
            }
            SubmitError::QueueFull(depth) => {
                ServiceFault::QueueSaturated(format!("admission queue at capacity {depth}"))
            }
            SubmitError::Rejected(d) => ServiceFault::AdmissionRejected(d.clone()),
            SubmitError::Fatal(d) => ServiceFault::JournalFailure(d.clone()),
        }
    }
}

/// Why a cancellation was refused.
#[derive(Debug)]
pub enum CancelError {
    /// No such job.
    NotFound,
    /// The job is already terminal; there is nothing to cancel.
    AlreadyTerminal(&'static str),
    /// Journal I/O failed; the server is now degraded to read-only.
    Fatal(String),
}

/// One job's live state: the replay-shaped entry plus the event log the
/// streaming endpoint serves. The job table boxes it: ids arrive in
/// ascending order, so the map's nodes stay about half full, and an
/// inline value would cost twice its size in node space.
#[derive(Debug)]
struct JobRuntime {
    entry: JobEntry,
    /// Lifecycle events, append-only; rendered to NDJSON when streamed.
    events: Vec<Event>,
    /// No further events will ever be appended (terminal state reached).
    events_done: bool,
}

/// One lifecycle event of a job, kept typed and rendered to its NDJSON
/// line (see [`Event::render`]) only when a client streams it.
#[derive(Debug, Clone)]
enum Event {
    Admitted {
        priority: u8,
        model_vars: usize,
    },
    Recovered {
        status: &'static str,
    },
    Run {
        attempt: usize,
        fence: u64,
    },
    Checkpoint {
        lo_bound: f64,
        hi_bound: f64,
        probes: usize,
        nodes: usize,
        incumbent_gap: Option<f64>,
    },
    Done {
        threshold: Option<f64>,
        verified_gap: Option<f64>,
        probes: usize,
        nodes: usize,
    },
    /// A failed attempt, rendered once: its kind and detail are free text.
    Failed(Box<str>),
    Quarantined {
        reason: &'static str,
    },
    CancelRequested,
    Cancelled,
}

impl Event {
    /// The event's NDJSON line (without trailing newline) for job `id`.
    fn render(&self, id: u64) -> String {
        let (name, extra) = match self {
            Event::Admitted {
                priority,
                model_vars,
            } => (
                "admitted",
                vec![
                    ("priority", Json::Num(f64::from(*priority))),
                    ("model_vars", Json::Num(*model_vars as f64)),
                ],
            ),
            Event::Recovered { status } => ("recovered", vec![("status", Json::str(*status))]),
            Event::Run { attempt, fence } => (
                "run",
                vec![
                    ("attempt", Json::Num(*attempt as f64)),
                    ("fence", Json::Num(*fence as f64)),
                ],
            ),
            Event::Checkpoint {
                lo_bound,
                hi_bound,
                probes,
                nodes,
                incumbent_gap,
            } => {
                let mut extra = vec![
                    ("lo_bound", Json::Num(*lo_bound)),
                    ("hi_bound", Json::Num(*hi_bound)),
                    ("probes", Json::Num(*probes as f64)),
                    ("nodes", Json::Num(*nodes as f64)),
                ];
                if let Some(g) = incumbent_gap {
                    extra.push(("incumbent_gap", Json::Num(*g)));
                }
                ("checkpoint", extra)
            }
            Event::Done {
                threshold,
                verified_gap,
                probes,
                nodes,
            } => (
                "done",
                vec![
                    ("threshold", opt_num(*threshold)),
                    ("verified_gap", opt_num(*verified_gap)),
                    ("probes", Json::Num(*probes as f64)),
                    ("nodes", Json::Num(*nodes as f64)),
                ],
            ),
            Event::Failed(line) => return line.to_string(),
            Event::Quarantined { reason } => ("quarantined", vec![("reason", Json::str(*reason))]),
            Event::CancelRequested => ("cancel_requested", vec![]),
            Event::Cancelled => ("cancelled", vec![]),
        };
        event_line(name, id, extra)
    }
}

struct Inner {
    journal: Journal,
    jobs: BTreeMap<u64, Box<JobRuntime>>,
    queue: AgingQueue,
    /// Backoff-delayed retries: `(due, id)`.
    delayed: Vec<(Instant, u64)>,
    running: BTreeSet<u64>,
    /// Current lease per running job: `id → fence token`. Leases are
    /// in-memory (they die with the supervisor, which is what makes them
    /// safe); the token is minted monotone at claim time, journaled on
    /// the `run` record for audit, and checked by [`GapServer::record_attempt`]
    /// — a result arriving under any other token is a zombie's write and
    /// is dropped.
    leases: BTreeMap<u64, u64>,
    /// Fence mint: strictly increasing, seeded above the journal's
    /// high-water mark at boot.
    next_fence: u64,
    next_id: u64,
    draining: bool,
    stopped: bool,
    /// `Some(why)` once a journal append/fsync has failed: the server is
    /// read-only — no admissions, no new claims — but keeps answering
    /// status/metrics/results so operators can see what happened and
    /// clients can fetch completed work. Distinct from `stopped`: a
    /// degraded server still serves HTTP.
    degraded: Option<String>,
    quotas: QuotaBook,
    /// Listening addresses of the acceptors blocked in `accept`
    /// ([`crate::api::serve`]); `drain` wakes each once it has stopped.
    acceptors: Vec<SocketAddr>,
}

/// The gap-finding job server. Construct with [`GapServer::open`], start
/// the pool with [`GapServer::start_workers`], serve HTTP with
/// [`crate::api::serve`].
pub struct GapServer {
    // lock-order: server.inner (the server's single coarse lock)
    inner: Mutex<Inner>,
    /// Wakes workers (new work, drain, stop).
    work_cv: Condvar,
    /// Wakes event streamers (new events, terminal transitions).
    event_cv: Condvar,
    cfg: ServerConfig,
    /// Retry-jitter salt: stable per server name, so many servers (or many
    /// jobs — the id is mixed in per job) never retry in lockstep.
    salt: u64,
    /// Pre-registered `metaopt_server_*` handles (no-ops when the
    /// configured registry is disabled).
    metrics: ServerMetrics,
}

impl GapServer {
    /// Opens (or creates) the server state in `cfg.dir`. An existing
    /// journal is replayed: terminal jobs stay terminal, pending jobs
    /// re-enter the queue at their last durable checkpoint, and
    /// interrupted cancellations complete.
    pub fn open(cfg: ServerConfig) -> Result<Arc<GapServer>, CampaignError> {
        let now = cfg.clock.now();
        let metrics = ServerMetrics::register(&cfg.registry);
        let campaign_metrics = CampaignMetrics::register(&cfg.registry);
        let mut queue = AgingQueue::new(Duration::from_secs_f64(cfg.aging_secs.max(0.001)));
        let mut jobs = BTreeMap::new();
        let mut next_id = 1u64;
        let mut next_fence = 1u64;
        let disk: Arc<dyn JournalDisk> = cfg
            .disk
            .clone()
            .unwrap_or_else(|| Arc::new(metaopt_campaign::RealDisk));
        let journal = if cfg.dir.join(JOURNAL_FILE).exists() {
            // Boot replay. The `metaopt_server_jobs_*` counters are
            // re-derived from the replayed book so that, after a hard
            // kill, scraped totals for durable transitions match what the
            // previous process reported — the crash drill asserts this.
            let replay_started = cfg.clock.now();
            let book = JobBook::from_dir(&cfg.dir)?;
            campaign_metrics
                .replay_seconds
                .observe((cfg.clock.now() - replay_started).as_secs_f64());
            let mut journal = Journal::open_append_with(&cfg.dir, disk)?;
            next_id = book.next_id();
            next_fence = book.max_fence + 1;
            for (id, mut entry) in book.jobs {
                metrics.jobs_admitted.inc();
                metrics
                    .jobs_retried
                    .add(replayed_retries(&entry));
                match &entry.status {
                    JobStatus::Done(_) => metrics.jobs_completed.inc(),
                    JobStatus::Quarantined { .. } => metrics.jobs_quarantined.inc(),
                    JobStatus::Cancelled => metrics.jobs_cancelled.inc(),
                    JobStatus::Pending { .. } => {}
                }
                let mut events = vec![Event::Recovered {
                    status: entry.status.name(),
                }];
                let mut events_done = entry.status.is_terminal();
                match &entry.status {
                    JobStatus::Pending {
                        cancel_requested: true,
                        ..
                    } => {
                        // The kill interrupted a drain-to-checkpoint; the
                        // cancellation wins at boot.
                        journal.append(&JobRecord::Cancelled { id }.encode())?;
                        entry.status = JobStatus::Cancelled;
                        metrics.jobs_cancelled.inc();
                        events.push(Event::Cancelled);
                        events_done = true;
                    }
                    JobStatus::Pending { .. } => {
                        queue.push(QueuedJob {
                            id,
                            priority: entry.priority,
                            enqueued: now,
                        });
                    }
                    _ => {}
                }
                jobs.insert(
                    id,
                    Box::new(JobRuntime {
                        entry,
                        events,
                        events_done,
                    }),
                );
            }
            journal
        } else {
            let mut journal = Journal::create_with(&cfg.dir, disk)?;
            journal.append(&JobBook::header(&cfg.name))?;
            journal
        };
        let mut journal = journal;
        journal.set_metrics(campaign_metrics);
        metrics.queue_depth.set(queue.len() as f64);
        let salt = u64::from(wire::crc32(cfg.name.as_bytes()));
        Ok(Arc::new(GapServer {
            inner: Mutex::new(Inner {
                journal,
                jobs,
                queue,
                delayed: Vec::new(),
                running: BTreeSet::new(),
                leases: BTreeMap::new(),
                next_fence,
                next_id,
                draining: false,
                stopped: false,
                degraded: None,
                quotas: QuotaBook::new(cfg.quota_burst, cfg.quota_per_sec),
                acceptors: Vec::new(),
            }),
            work_cv: Condvar::new(),
            event_cv: Condvar::new(),
            cfg,
            salt,
            metrics,
        }))
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The server's pre-registered metric handles (the API layer records
    /// per-route latency and connection churn through these).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Whether the server has fully stopped (drain complete). A journal
    /// failure does not stop it: see [`GapServer::degraded_reason`].
    pub fn is_stopped(&self) -> bool {
        self.lock().stopped
    }

    /// `Some(why)` when a journal fault has dropped the server into
    /// read-only degraded mode (still serving HTTP, admitting nothing).
    pub fn degraded_reason(&self) -> Option<String> {
        self.lock().degraded.clone()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("server lock poisoned")
    }

    /// Journal append + degrade on failure. On any append/fsync error the
    /// journal handle is poisoned (see the fsync-poisoning rule in
    /// `metaopt_campaign::journal`) and the server drops to read-only
    /// *degraded* mode: no admissions, no new claims, but `/metrics`,
    /// status, and completed results keep being served — a full disk
    /// must not look like a crash.
    fn append_or_die(&self, inner: &mut Inner, record: &JobRecord) -> Result<(), String> {
        match inner.journal.append(&record.encode()) {
            Ok(()) => Ok(()),
            Err(e) => {
                let msg = e.to_string();
                if inner.degraded.is_none() {
                    inner.degraded = Some(msg.clone());
                    self.cfg
                        .tracer
                        .event("server.degraded", vec![("why", msg.clone())]);
                }
                // an:allow(AN101): the caller holds the server lock — it
                // is threaded in as `&mut Inner`, so no `.lock()` appears
                // in this function's own scope.
                self.work_cv.notify_all();
                // an:allow(AN101): same held-by-caller lock as above.
                self.event_cv.notify_all();
                Err(msg)
            }
        }
    }

    /// Admits a job: validates (modelcheck gate — *outside* the lock),
    /// charges quota, enforces the bounded queue, journals the `job`
    /// record durably, and enqueues. Returns the id and the validated
    /// model's size statistics. Only after this returns may the caller
    /// acknowledge the job.
    pub fn submit(&self, req: SubmitRequest) -> Result<(u64, ModelStats), SubmitError> {
        // The expensive admission work happens before any lock.
        let stats = validate_submit(&req, &self.cfg.limits)
            .map_err(|f| SubmitError::Rejected(f.detail().to_string()))?;
        let now = self.cfg.clock.now();
        let mut inner = self.lock();
        if inner.stopped || inner.draining || inner.degraded.is_some() {
            return Err(SubmitError::Unavailable);
        }
        if let Err(wait) = inner.quotas.charge(&req.client, now) {
            self.metrics.quota_rejections.inc();
            return Err(SubmitError::Quota(wait));
        }
        if inner.queue.len() >= self.cfg.max_queue {
            self.metrics.shed_queue_full.inc();
            return Err(SubmitError::QueueFull(self.cfg.max_queue));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let client = req.client.clone();
        let record = JobRecord::Submit {
            id,
            client: req.client.clone(),
            priority: req.priority,
            threads: req.threads,
            spec: Box::new(req.spec.clone()),
        };
        // Durable before acknowledgment — the crash-safety contract.
        self.append_or_die(&mut inner, &record)
            .map_err(SubmitError::Fatal)?;
        inner.jobs.insert(
            id,
            Box::new(JobRuntime {
                entry: JobEntry {
                    id,
                    client: req.client,
                    priority: req.priority,
                    threads: req.threads,
                    spec: req.spec,
                    status: JobStatus::Pending {
                        attempt: 0,
                        resume: None,
                        cancel_requested: false,
                    },
                    failures: Vec::new(),
                },
                events: vec![Event::Admitted {
                    priority: req.priority,
                    model_vars: stats.n_vars,
                }],
                events_done: false,
            }),
        );
        inner.queue.push(QueuedJob {
            id,
            priority: req.priority,
            enqueued: now,
        });
        self.metrics.jobs_admitted.inc();
        self.metrics.queue_depth.set(inner.queue.len() as f64);
        drop(inner);
        self.cfg.tracer.event(
            "server.job_admitted",
            vec![("job", id.to_string()), ("client", client)],
        );
        self.work_cv.notify_all();
        self.event_cv.notify_all();
        Ok((id, stats))
    }

    /// Requests cancellation. Queued jobs cancel immediately; running jobs
    /// drain to their next checkpoint and then cancel.
    pub fn cancel(&self, id: u64) -> Result<&'static str, CancelError> {
        let mut inner = self.lock();
        let job = inner.jobs.get(&id).ok_or(CancelError::NotFound)?;
        match &job.entry.status {
            JobStatus::Pending {
                cancel_requested: true,
                ..
            } => return Ok("cancelling"),
            JobStatus::Pending { .. } => {}
            s => return Err(CancelError::AlreadyTerminal(s.name())),
        }
        self.append_or_die(&mut inner, &JobRecord::Cancel { id })
            .map_err(CancelError::Fatal)?;
        if let Some(rt) = inner.jobs.get_mut(&id) {
            if let JobStatus::Pending {
                cancel_requested, ..
            } = &mut rt.entry.status
            {
                *cancel_requested = true;
            }
            rt.events.push(Event::CancelRequested);
        }
        // Not running: nothing to drain, finish the cancellation now.
        let queued = inner.queue.remove(id);
        inner.delayed.retain(|(_, d)| *d != id);
        self.metrics.queue_depth.set(inner.queue.len() as f64);
        let state = if queued || !inner.running.contains(&id) {
            self.append_or_die(&mut inner, &JobRecord::Cancelled { id })
                .map_err(CancelError::Fatal)?;
            if let Some(rt) = inner.jobs.get_mut(&id) {
                rt.entry.status = JobStatus::Cancelled;
                rt.events.push(Event::Cancelled);
                rt.events_done = true;
            }
            self.metrics.jobs_cancelled.inc();
            "cancelled"
        } else {
            "cancelling"
        };
        drop(inner);
        self.work_cv.notify_all();
        self.event_cv.notify_all();
        Ok(state)
    }

    /// Drains the server: stops admitting, lets running cells reach their
    /// next durable checkpoint, then writes the `shutdown` record and
    /// stops. Queued jobs stay journaled-pending and resume at next boot.
    /// Once stopped, it wakes every acceptor blocked in `accept`.
    pub fn drain(&self, reason: &str) {
        let mut inner = self.lock();
        if inner.stopped {
            return;
        }
        inner.draining = true;
        self.work_cv.notify_all();
        while !inner.running.is_empty() {
            let (guard, _) = self
                .work_cv
                .wait_timeout(inner, Duration::from_millis(20))
                .expect("server lock poisoned");
            inner = guard;
            if inner.stopped {
                return;
            }
        }
        let _ = self.append_or_die(
            &mut inner,
            &JobRecord::Shutdown {
                reason: reason.to_string(),
            },
        );
        inner.stopped = true;
        let acceptors = std::mem::take(&mut inner.acceptors);
        drop(inner);
        self.work_cv.notify_all();
        self.event_cv.notify_all();
        for addr in acceptors {
            crate::api::wake_acceptor(addr);
        }
    }

    /// Registers an acceptor listening on `addr` so that [`GapServer::drain`]
    /// can wake it; `false` when the server has already stopped. The
    /// address and the stop flag share the server lock, so no wake-up is
    /// lost: either `drain` sees the address or the acceptor sees the stop.
    pub(crate) fn register_acceptor(&self, addr: SocketAddr) -> bool {
        let mut inner = self.lock();
        if inner.stopped {
            return false;
        }
        inner.acceptors.push(addr);
        true
    }

    /// Spawns the worker pool. Threads exit when the server drains or
    /// stops; join the handles to wait for that.
    pub fn start_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|_| {
                let server = Arc::clone(self);
                // an:allow(AN104): containment lives one call down —
                // in-process attempt bodies run under `catch_unwind` in
                // `in_process_attempt`, and sandboxed attempts are
                // separate processes; the loop around them cannot panic
                // into user work.
                std::thread::spawn(move || worker_loop(&server))
            })
            .collect()
    }

    /// JSON summary of the whole server.
    pub fn status_json(&self) -> Json {
        let inner = self.lock();
        let mut done = 0;
        let mut quarantined = 0;
        let mut cancelled = 0;
        let mut pending = 0;
        for rt in inner.jobs.values() {
            match &rt.entry.status {
                JobStatus::Done(_) => done += 1,
                JobStatus::Quarantined { .. } => quarantined += 1,
                JobStatus::Cancelled => cancelled += 1,
                JobStatus::Pending { .. } => pending += 1,
            }
        }
        Json::obj(vec![
            ("name", Json::str(self.cfg.name.clone())),
            ("jobs", Json::Num(inner.jobs.len() as f64)),
            ("done", Json::Num(f64::from(done))),
            ("quarantined", Json::Num(f64::from(quarantined))),
            ("cancelled", Json::Num(f64::from(cancelled))),
            ("pending", Json::Num(f64::from(pending))),
            ("queue_depth", Json::Num(inner.queue.len() as f64)),
            ("queue_capacity", Json::Num(self.cfg.max_queue as f64)),
            ("running", Json::Num(inner.running.len() as f64)),
            ("draining", Json::Bool(inner.draining)),
            ("stopped", Json::Bool(inner.stopped)),
            (
                "degraded",
                inner.degraded.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }

    /// JSON view of one job (status + certified results when done).
    pub fn job_json(&self, id: u64) -> Option<Json> {
        let inner = self.lock();
        let rt = inner.jobs.get(&id)?;
        let e = &rt.entry;
        let mut pairs = vec![
            ("id", Json::Num(e.id as f64)),
            ("label", Json::str(e.spec.label.clone())),
            ("client", Json::str(e.client.clone())),
            ("priority", Json::Num(f64::from(e.priority))),
            ("threads", Json::Num(e.threads as f64)),
            ("status", Json::str(e.status.name())),
            ("running", Json::Bool(inner.running.contains(&id))),
        ];
        let failures: Vec<Json> = e
            .failures
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("attempt", Json::Num(f.attempt as f64)),
                    ("kind", Json::str(f.kind.clone())),
                    ("detail", Json::str(f.detail.clone())),
                ])
            })
            .collect();
        pairs.push(("failures", Json::Arr(failures)));
        match &e.status {
            JobStatus::Done(o) => {
                pairs.push((
                    "result",
                    Json::obj(vec![
                        ("threshold", opt_num(o.threshold)),
                        ("verified_gap", opt_num(o.verified_gap)),
                        (
                            "demands",
                            Json::Arr(o.demands.iter().map(|&d| Json::Num(d)).collect()),
                        ),
                        ("probes", Json::Num(o.probes as f64)),
                        ("nodes", Json::Num(o.nodes as f64)),
                        // Exact f64 bit patterns: the bit-identical
                        // recovery contract is checked against this.
                        ("outcome_wire", Json::str(o.encode())),
                    ]),
                ));
            }
            JobStatus::Quarantined { reason, attempts } => {
                pairs.push((
                    "quarantine",
                    Json::obj(vec![
                        ("reason", Json::str(reason.kind())),
                        ("attempts", Json::Num(*attempts as f64)),
                    ]),
                ));
            }
            JobStatus::Pending {
                attempt, resume, ..
            } => {
                pairs.push(("attempts_failed", Json::Num(*attempt as f64)));
                if let Some(st) = resume {
                    pairs.push(("progress", progress_json(st)));
                }
            }
            JobStatus::Cancelled => {}
        }
        Some(Json::Obj(
            pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        ))
    }

    /// JSON array of all jobs (id, label, status).
    pub fn jobs_json(&self) -> Json {
        let inner = self.lock();
        Json::Arr(
            inner
                .jobs
                .values()
                .map(|rt| {
                    Json::obj(vec![
                        ("id", Json::Num(rt.entry.id as f64)),
                        ("label", Json::str(rt.entry.spec.label.clone())),
                        ("client", Json::str(rt.entry.client.clone())),
                        ("status", Json::str(rt.entry.status.name())),
                    ])
                })
                .collect(),
        )
    }

    /// Blocks up to `timeout` for events past `seq`. Returns `None` for
    /// unknown jobs, otherwise `(new_events, next_seq, done)` — `done`
    /// means the stream is complete and no further events will come.
    pub fn wait_events(
        &self,
        id: u64,
        seq: usize,
        timeout: Duration,
    ) -> Option<(Vec<String>, usize, bool)> {
        // an:allow(AN001): the poll timeout for a live HTTP client must
        // track real elapsed time — under a frozen TestClock this loop
        // would spin forever instead of timing out.
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            let rt = inner.jobs.get(&id)?;
            if rt.events.len() > seq || rt.events_done || inner.stopped {
                let fresh = rt.events.get(seq..).unwrap_or_default().to_vec();
                let next = rt.events.len().max(seq);
                let done = rt.events_done || inner.stopped;
                drop(inner);
                let lines = fresh.iter().map(|e| e.render(id)).collect();
                return Some((lines, next, done));
            }
            // an:allow(AN001): same wall-clock poll deadline as above.
            let now = Instant::now();
            if now >= deadline {
                return Some((Vec::new(), seq, false));
            }
            let (guard, _) = self
                .event_cv
                .wait_timeout(inner, deadline - now)
                .expect("server lock poisoned");
            inner = guard;
        }
    }

    /// Journals one durable checkpoint for a running attempt, *iff* the
    /// attempt still holds the job's current lease. A stale fence means
    /// the caller is a zombie (its attempt was retried out from under
    /// it): the checkpoint is dropped without touching the journal —
    /// never an error, because the zombie has no business learning
    /// anything beyond "you are fenced off".
    pub fn record_checkpoint(
        &self,
        id: u64,
        fence: u64,
        st: &SweepState,
    ) -> Result<(), CampaignError> {
        let mut inner = self.lock();
        if inner.leases.get(&id) != Some(&fence) {
            self.fenced(id, fence, "ckpt");
            return Ok(());
        }
        self.append_or_die(
            &mut inner,
            &JobRecord::Ckpt {
                id,
                state: Box::new(st.clone()),
            },
        )
        .map_err(CampaignError::Io)?;
        if let Some(rt) = inner.jobs.get_mut(&id) {
            if let JobStatus::Pending { resume, .. } = &mut rt.entry.status {
                *resume = Some(Box::new(st.clone()));
            }
            rt.events.push(Event::Checkpoint {
                lo_bound: st.machine.lo_bound,
                hi_bound: st.machine.hi_bound,
                probes: st.machine.probes,
                nodes: st.nodes,
                incumbent_gap: st.best_witness.as_ref().map(|w| w.verified_gap),
            });
        }
        drop(inner);
        self.event_cv.notify_all();
        Ok(())
    }

    /// Applies one attempt's terminal outcome through the fence check:
    /// the single funnel by which results enter the journal. A stale
    /// fence journals *nothing* — this is the invariant that makes a
    /// kill-then-retry safe, because the killed attempt's late `done` or
    /// `fail` can never overwrite the retried attempt's record.
    pub fn record_attempt(
        &self,
        id: u64,
        attempt: usize,
        fence: u64,
        end: CellDriveEnd,
    ) -> RecordVerdict {
        let mut inner = self.lock();
        if inner.leases.get(&id) != Some(&fence) {
            drop(inner);
            self.fenced(id, fence, "result");
            return RecordVerdict::FencedOut;
        }
        inner.leases.remove(&id);
        inner.running.remove(&id);
        match end {
            CellDriveEnd::Finished(outcome) => {
                if self
                    .append_or_die(
                        &mut inner,
                        &JobRecord::Done {
                            id,
                            outcome: outcome.clone(),
                        },
                    )
                    .is_err()
                {
                    return RecordVerdict::Degraded;
                }
                if let Some(rt) = inner.jobs.get_mut(&id) {
                    rt.events.push(Event::Done {
                        threshold: outcome.threshold,
                        verified_gap: outcome.verified_gap,
                        probes: outcome.probes,
                        nodes: outcome.nodes,
                    });
                    rt.entry.status = JobStatus::Done(outcome.clone());
                    rt.events_done = true;
                }
                self.metrics.jobs_completed.inc();
                self.cfg.tracer.event(
                    "server.job_done",
                    vec![
                        ("job", id.to_string()),
                        ("nodes", outcome.nodes.to_string()),
                    ],
                );
            }
            CellDriveEnd::Stopped => {
                let cancel = inner.jobs.get(&id).is_some_and(|rt| {
                    matches!(
                        rt.entry.status,
                        JobStatus::Pending {
                            cancel_requested: true,
                            ..
                        }
                    )
                });
                if cancel {
                    if self
                        .append_or_die(&mut inner, &JobRecord::Cancelled { id })
                        .is_err()
                    {
                        return RecordVerdict::Degraded;
                    }
                    if let Some(rt) = inner.jobs.get_mut(&id) {
                        rt.entry.status = JobStatus::Cancelled;
                        rt.events.push(Event::Cancelled);
                        rt.events_done = true;
                    }
                    self.metrics.jobs_cancelled.inc();
                }
                // Drain: the job stays journaled-pending at its last
                // checkpoint and resumes at next boot.
            }
            CellDriveEnd::Failed { kind, detail } => {
                if self
                    .append_or_die(
                        &mut inner,
                        &JobRecord::Fail {
                            id,
                            attempt,
                            kind: kind.clone(),
                            detail: detail.clone(),
                        },
                    )
                    .is_err()
                {
                    return RecordVerdict::Degraded;
                }
                if let Some(rt) = inner.jobs.get_mut(&id) {
                    rt.entry.failures.push(metaopt_campaign::FailureRecord {
                        attempt,
                        kind: kind.clone(),
                        detail: detail.clone(),
                    });
                    if let JobStatus::Pending { attempt: a, .. } = &mut rt.entry.status {
                        *a = attempt;
                    }
                    rt.events.push(Event::Failed(
                        event_line(
                            "failed",
                            id,
                            vec![
                                ("attempt", Json::Num(attempt as f64)),
                                ("kind", Json::str(kind.clone())),
                                ("detail", Json::str(detail)),
                            ],
                        )
                        .into_boxed_str(),
                    ));
                }
                // Panics are treated like fatal faults: almost certainly
                // deterministic, so retrying burns attempts for nothing.
                // Supervisor kills (`killed_*`) and silent worker exits
                // are the opposite: the *environment* failed, so they go
                // through the ordinary retry policy.
                let decision = if kind == "fatal" || kind == "panic" {
                    RetryDecision::Quarantine
                } else {
                    self.cfg
                        .retry
                        .on_failure(attempt, retry_jitter_seed(self.salt, id, attempt))
                };
                match decision {
                    RetryDecision::RetryAfter(delay) => {
                        inner.delayed.push((self.cfg.clock.now() + delay, id));
                        self.metrics.jobs_retried.inc();
                    }
                    RetryDecision::Quarantine => {
                        let reason = quarantine_reason_for(&kind);
                        if self
                            .append_or_die(
                                &mut inner,
                                &JobRecord::Quarantine {
                                    id,
                                    reason,
                                    attempts: attempt,
                                },
                            )
                            .is_err()
                        {
                            return RecordVerdict::Degraded;
                        }
                        if let Some(rt) = inner.jobs.get_mut(&id) {
                            rt.entry.status = JobStatus::Quarantined {
                                reason,
                                attempts: attempt,
                            };
                            rt.events.push(Event::Quarantined {
                                reason: reason.kind(),
                            });
                            rt.events_done = true;
                        }
                        self.metrics.jobs_quarantined.inc();
                        self.cfg.tracer.event(
                            "server.job_quarantined",
                            vec![
                                ("job", id.to_string()),
                                ("reason", reason.kind().to_string()),
                            ],
                        );
                    }
                }
            }
        }
        drop(inner);
        self.work_cv.notify_all();
        self.event_cv.notify_all();
        RecordVerdict::Recorded
    }

    /// Counts and traces one fenced-off zombie write.
    fn fenced(&self, id: u64, fence: u64, what: &'static str) {
        self.metrics.workers_fenced.inc();
        self.cfg.tracer.event(
            "server.fenced_write",
            vec![
                ("job", id.to_string()),
                ("fence", fence.to_string()),
                ("what", what.to_string()),
            ],
        );
    }
}

/// Verdict of offering an attempt outcome to [`GapServer::record_attempt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordVerdict {
    /// Journaled and applied.
    Recorded,
    /// Rejected by lease fencing: the fence token was not the job's
    /// current lease, so nothing touched the journal.
    FencedOut,
    /// The journal failed mid-record; the server is now degraded.
    Degraded,
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// Retries the pre-kill process performed for a replayed job: every
/// recorded failed attempt was followed by a `RetryAfter` decision except
/// the final one of a quarantined job (that one quarantined instead), so
/// boot re-derivation matches the runtime `jobs_retried` counting rule.
fn replayed_retries(entry: &JobEntry) -> u64 {
    let failures = entry.failures.len() as u64;
    match entry.status {
        JobStatus::Quarantined { .. } => failures.saturating_sub(1),
        _ => failures,
    }
}

fn progress_json(st: &SweepState) -> Json {
    Json::obj(vec![
        ("lo_bound", Json::Num(st.machine.lo_bound)),
        ("hi_bound", Json::Num(st.machine.hi_bound)),
        ("probes", Json::Num(st.machine.probes as f64)),
        ("nodes", Json::Num(st.nodes as f64)),
        (
            "incumbent_gap",
            opt_num(st.best_witness.as_ref().map(|w| w.verified_gap)),
        ),
    ])
}

fn event_line(event: &str, id: u64, extra: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![("event", Json::str(event)), ("job", Json::Num(id as f64))];
    pairs.extend(extra);
    Json::obj(pairs).render()
}

/// One worker: claim the best queued job, drive it tick by tick with
/// durable checkpoints, and journal its terminal transition. Exits on
/// drain/stop.
fn worker_loop(server: &GapServer) {
    loop {
        // Claim.
        let (id, attempt, fence, spec, threads, resume) = {
            let mut inner = server.lock();
            let claimed = loop {
                if inner.stopped || inner.draining || inner.degraded.is_some() {
                    return;
                }
                let now = server.cfg.clock.now();
                let mut due = Vec::new();
                let mut i = 0;
                while i < inner.delayed.len() {
                    // an:allow(AN203): `i < len` is the loop guard and
                    // swap_remove shrinks from the tail, so the index
                    // stays in bounds on every iteration.
                    if inner.delayed[i].0 <= now {
                        due.push(inner.delayed.swap_remove(i).1);
                    } else {
                        i += 1;
                    }
                }
                for id in due {
                    if let Some(priority) = inner.jobs.get(&id).map(|rt| rt.entry.priority) {
                        inner.queue.push(QueuedJob {
                            id,
                            priority,
                            enqueued: now,
                        });
                        server.metrics.queue_depth.set(inner.queue.len() as f64);
                    }
                }
                if let Some(job) = inner.queue.pop_best(now) {
                    server.metrics.queue_depth.set(inner.queue.len() as f64);
                    break job;
                }
                let (guard, _) = server
                    .work_cv
                    .wait_timeout(inner, Duration::from_millis(25))
                    .expect("server lock poisoned");
                inner = guard;
            };
            let id = claimed.id;
            let rt = match inner.jobs.get(&id) {
                Some(rt) => rt,
                None => continue,
            };
            let (burnt, resume) = match &rt.entry.status {
                JobStatus::Pending {
                    attempt, resume, ..
                } => (*attempt, resume.as_deref().cloned()),
                // Terminal while queued (e.g. cancelled): nothing to run.
                _ => continue,
            };
            let attempt = burnt + 1;
            let spec = rt.entry.spec.clone();
            let threads = if rt.entry.threads > 0 {
                rt.entry.threads
            } else {
                server.cfg.default_threads
            };
            inner.running.insert(id);
            // Mint this attempt's lease. The token is strictly monotone
            // across all claims (and, via the journaled high-water mark,
            // across restarts), so "current lease" is unambiguous.
            let fence = inner.next_fence;
            inner.next_fence += 1;
            inner.leases.insert(id, fence);
            if server
                .append_or_die(&mut inner, &JobRecord::Run { id, attempt, fence })
                .is_err()
            {
                inner.running.remove(&id);
                inner.leases.remove(&id);
                return;
            }
            if let Some(rt) = inner.jobs.get_mut(&id) {
                rt.events.push(Event::Run { attempt, fence });
            }
            drop(inner);
            server.event_cv.notify_all();
            (id, attempt, fence, spec, threads, resume)
        };

        // Execute outside the lock. The cell deadline is computed and
        // checked against the injected clock, so timeout behavior is
        // deterministic under a `TestClock`.
        let cell_deadline = spec
            .timeout_secs
            .map(|s| server.cfg.clock.now() + Duration::from_secs_f64(s));
        let mut on_checkpoint = |st: &SweepState| server.record_checkpoint(id, fence, st);
        let mut stop = || {
            let inner = server.lock();
            inner.stopped
                || inner.draining
                || inner.degraded.is_some()
                || inner.jobs.get(&id).is_some_and(|rt| {
                    matches!(
                        rt.entry.status,
                        JobStatus::Pending {
                            cancel_requested: true,
                            ..
                        }
                    )
                })
        };
        let end = match &server.cfg.sandbox {
            Some(sandbox) => sandboxed_attempt(
                server,
                sandbox,
                &spec,
                threads,
                resume,
                cell_deadline,
                &mut on_checkpoint,
                &mut stop,
            ),
            None => in_process_attempt(
                server,
                &spec,
                threads,
                resume,
                cell_deadline,
                &mut on_checkpoint,
                &mut stop,
            ),
        };

        // Record the outcome through the fenced path.
        match end {
            Err(e) => {
                // on_checkpoint journal failure: the server is already
                // degraded (read-only); release this worker's claim and
                // exit the pool.
                let mut inner = server.lock();
                inner.running.remove(&id);
                inner.leases.remove(&id);
                inner.degraded.get_or_insert(e.to_string());
                drop(inner);
                server.work_cv.notify_all();
                server.event_cv.notify_all();
                return;
            }
            Ok(end) => {
                if server.record_attempt(id, attempt, fence, end) == RecordVerdict::Degraded {
                    return;
                }
            }
        }
    }
}

/// Drives one attempt in-process (no sandbox configured): the solver
/// stack runs on this worker thread, contained by `catch_unwind`. A panic
/// escaping it would kill the worker thread with the job still in
/// `running`, so `drain` would wait on it forever — contain it and let
/// the normal failure path journal the attempt and quarantine the job.
fn in_process_attempt(
    server: &GapServer,
    spec: &metaopt_campaign::CellSpec,
    threads: usize,
    resume: Option<SweepState>,
    cell_deadline: Option<Instant>,
    on_checkpoint: &mut dyn FnMut(&SweepState) -> Result<(), CampaignError>,
    stop: &mut dyn FnMut() -> bool,
) -> Result<CellDriveEnd, CampaignError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if server
            .cfg
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.fire(FaultSite::EvalPanic))
        {
            // an:allow(AN202): chaos-injection site — unreachable unless
            // a FaultPlan arms EvalPanic; the surrounding catch_unwind
            // converts it into a quarantining `Failed{kind:"panic"}`.
            panic!("injected worker panic");
        }
        drive_cell(
            spec,
            threads,
            server.cfg.default_factor,
            resume,
            cell_deadline,
            &*server.cfg.clock,
            &SolverObs {
                metrics: server.metrics.solver.clone(),
                tracer: server.cfg.tracer.clone(),
            },
            on_checkpoint,
            stop,
        )
    }))
    .unwrap_or_else(|payload| {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Ok(CellDriveEnd::Failed {
            kind: "panic".to_string(),
            detail: format!("cell worker panicked: {detail}"),
        })
    })
}

/// Drives one attempt in a supervised child process and folds the
/// sandbox-specific endings (kills, silent exits) into the failure
/// taxonomy the retry/quarantine policy already speaks.
#[allow(clippy::too_many_arguments)]
fn sandboxed_attempt(
    server: &GapServer,
    sandbox: &SandboxConfig,
    spec: &metaopt_campaign::CellSpec,
    threads: usize,
    resume: Option<SweepState>,
    cell_deadline: Option<Instant>,
    on_checkpoint: &mut dyn FnMut(&SweepState) -> Result<(), CampaignError>,
    stop: &mut dyn FnMut() -> bool,
) -> Result<CellDriveEnd, CampaignError> {
    server.metrics.workers_spawned.inc();
    let end = run_cell_sandboxed(
        sandbox,
        spec,
        threads,
        server.cfg.default_factor,
        resume.as_ref(),
        cell_deadline,
        &*server.cfg.clock,
        &server.cfg.tracer,
        on_checkpoint,
        stop,
    )?;
    Ok(match end {
        SandboxEnd::Finished(outcome) => CellDriveEnd::Finished(outcome),
        SandboxEnd::Stopped => CellDriveEnd::Stopped,
        SandboxEnd::Failed { kind, detail } => {
            if kind == "worker_exit" {
                server.metrics.workers_lost.inc();
            }
            CellDriveEnd::Failed { kind, detail }
        }
        SandboxEnd::Killed(reason) => {
            match reason {
                WorkerKillReason::Oom => server.metrics.workers_killed_oom.inc(),
                WorkerKillReason::Deadline => server.metrics.workers_killed_deadline.inc(),
                WorkerKillReason::Heartbeat => server.metrics.workers_killed_heartbeat.inc(),
            }
            CellDriveEnd::Failed {
                kind: reason.kind().to_string(),
                detail: format!("worker killed by supervisor ({})", reason.kind()),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The job table keeps every job for the server's life; a field added
    /// inline to a job's state or to an event must not quietly undo its
    /// compaction (376 and 56 bytes when this bound was set).
    #[test]
    fn job_state_stays_compact() {
        assert!(
            std::mem::size_of::<JobRuntime>() <= 400,
            "JobRuntime is {} bytes",
            std::mem::size_of::<JobRuntime>()
        );
        assert!(
            std::mem::size_of::<Event>() <= 56,
            "Event is {} bytes",
            std::mem::size_of::<Event>()
        );
    }
}
