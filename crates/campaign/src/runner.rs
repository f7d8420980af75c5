//! The supervised campaign runner.
//!
//! A campaign executes its grid of cells on a pool of panic-contained
//! worker threads. Each worker owns one cell at a time and advances it in
//! fixed node-budget *ticks* ([`metaopt_core::sweep_tick`]); after every
//! tick the resulting state is appended to the write-ahead journal, so a
//! hard kill loses at most the (re-executable) tick in flight. Failures go
//! through the [`RetryPolicy`] with exponential backoff and deterministic
//! jitter; cells that keep failing are quarantined with their full fault
//! history instead of wedging the campaign.
//!
//! Shutdown is cooperative: a polled [`ShutdownFlag`] (the process's
//! SIGINT handler or a supervisor sets it) or the campaign deadline makes
//! every worker finish its current tick — whose checkpoint is then
//! durable — and exit; the runner then writes a `shutdown` record and the
//! resumable manifest.

use crate::cell::{encode_sweep_state, CellOutcome, CellSpec};
use crate::clock::{Clock, SystemClock};
use crate::journal::Journal;
use crate::state::{CampaignState, CellStatus};
use crate::{wire, CampaignError};
use metaopt_core::{CoreError, SliceBudget, SweepState, SweepTick};
use metaopt_resilience::{QuarantineReason, RetryDecision, RetryPolicy};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cooperative shutdown flag. The campaign has no signal handler of its
/// own (no libc dependency); the embedding binary polls or traps SIGINT
/// and calls [`ShutdownFlag::request`].
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, unset flag.
    pub fn new() -> Self {
        ShutdownFlag::default()
    }

    /// Requests a graceful drain.
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads.
    pub workers: usize,
    /// Retry/backoff/quarantine policy for failed cell attempts.
    pub retry: RetryPolicy,
    /// Optional campaign-wide wall-clock deadline (graceful drain when it
    /// passes).
    pub deadline: Option<Instant>,
    /// Branch-and-bound worker threads granted to each cell's solves
    /// (written into the cell's `cfg.milp.threads`). `0` (the default)
    /// leaves the cell spec's own configuration — and hence
    /// `METAOPT_THREADS` — in charge. Total CPU appetite is
    /// `workers x threads_per_cell`.
    pub threads_per_cell: usize,
    /// Basis-factorization backend override for each cell's LP solves
    /// (written into the cell's `cfg.milp.factor`). `None` (the default)
    /// leaves the cell spec's own configuration — and hence
    /// `METAOPT_FACTOR` — in charge (sparse LU when unset).
    pub factor_per_cell: Option<metaopt_core::FactorBackend>,
    /// Time source for deadlines, retry backoff, and drain checks. The
    /// default [`SystemClock`] reads the OS monotonic clock; tests inject
    /// a [`crate::clock::TestClock`] to drive timeout paths
    /// deterministically.
    pub clock: Arc<dyn Clock>,
    /// Observability handles (journal durability, retries, quarantines,
    /// replay durations, solver counters). Defaults to no-ops; enabling
    /// them changes no scheduling decision and no journal byte.
    pub metrics: crate::CampaignMetrics,
    /// Flight-recorder tracer installed on each cell's solver stack.
    /// Defaults to disabled.
    pub tracer: metaopt_obs::Tracer,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: 2,
            retry: RetryPolicy::default(),
            deadline: None,
            threads_per_cell: 0,
            factor_per_cell: None,
            clock: Arc::new(SystemClock),
            metrics: crate::CampaignMetrics::disabled(),
            tracer: metaopt_obs::Tracer::disabled(),
        }
    }
}

/// Salt mixed into a campaign's retry-backoff jitter seed. Within one
/// campaign the seed varies by (cell, attempt) and stays fully
/// deterministic, so replayed campaigns make identical scheduling
/// decisions. The job server, whose queued jobs would otherwise retry in
/// lockstep, salts by its name and uses the job id as the unit instead.
const RETRY_SALT: u64 = 0;

/// The deterministic jitter seed for the `attempt`-th retry of work unit
/// `unit` under `salt`: a splitmix-style mix so that changing any one
/// input decorrelates the whole seed. Campaigns use the cell index as the
/// unit; the job server uses the job id and its own per-boot salt.
pub fn retry_jitter_seed(salt: u64, unit: u64, attempt: usize) -> u64 {
    let mut z = salt
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(unit)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(attempt as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// How a campaign run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// Every cell reached a terminal state (done or quarantined).
    Complete,
    /// A graceful drain (shutdown flag or deadline) stopped the run with
    /// pending cells; resume later with [`resume`].
    Drained,
}

/// What [`run`] / [`resume`] return: the replayed end-of-run state plus
/// how the run ended.
#[derive(Debug)]
pub struct CampaignReport {
    /// The campaign state replayed from the journal after the run.
    pub state: CampaignState,
    /// Whether the run completed or drained.
    pub end: RunEnd,
}

/// Starts a fresh campaign in `dir` (which must not already contain a
/// journal) and runs it to completion or drain.
pub fn run(
    dir: &Path,
    name: &str,
    cells: Vec<CellSpec>,
    cfg: &CampaignConfig,
    shutdown: &ShutdownFlag,
) -> Result<CampaignReport, CampaignError> {
    if cells.is_empty() {
        return Err(CampaignError::Config("campaign has no cells".into()));
    }
    let mut journal = Journal::create(dir)?;
    journal.set_metrics(cfg.metrics.clone());
    journal.append(&format!(
        "{} {} {}",
        crate::state::CAMPAIGN_MAGIC,
        wire::escape(name),
        cells.len()
    ))?;
    for (i, c) in cells.iter().enumerate() {
        journal.append(&format!("cell {i} {}", c.encode()))?;
    }
    let work: Vec<WorkItem> = cells
        .iter()
        .enumerate()
        .map(|(idx, spec)| WorkItem {
            idx,
            attempt: 1,
            state: None,
            spec: spec.clone(),
        })
        .collect();
    execute(dir, journal, work, cfg, shutdown)
}

/// Resumes the campaign journaled in `dir`: replays the journal,
/// reconstructs every pending cell's frontier from its last checkpoint,
/// and continues. Completed and quarantined cells are never re-run.
pub fn resume(
    dir: &Path,
    cfg: &CampaignConfig,
    shutdown: &ShutdownFlag,
) -> Result<CampaignReport, CampaignError> {
    let replay_started = cfg.clock.now();
    let prior = CampaignState::from_dir(dir)?;
    cfg.metrics
        .replay_seconds
        .observe((cfg.clock.now() - replay_started).as_secs_f64());
    let mut work = Vec::new();
    for idx in prior.pending_indices() {
        // an:allow(AN203): `pending_indices` yields indices into its own
        // `status`/`cells` vectors, which replay constructed together.
        let (attempt, resume_state) = match &prior.status[idx] {
            CellStatus::Pending { attempt, resume } => (*attempt + 1, resume.clone()),
            // an:allow(AN202): a non-Pending status at a pending index means
            // `CampaignState` itself is inconsistent; aborting resume is right.
            _ => unreachable!("pending_indices returned a terminal cell"),
        };
        work.push(WorkItem {
            idx,
            attempt,
            state: resume_state,
            // an:allow(AN203): same `pending_indices` in-bounds invariant.
            spec: prior.cells[idx].clone(),
        });
    }
    let mut journal = Journal::open_append(dir)?;
    journal.set_metrics(cfg.metrics.clone());
    execute(dir, journal, work, cfg, shutdown)
}

/// Replays the journal in `dir` without running anything.
pub fn status(dir: &Path) -> Result<CampaignState, CampaignError> {
    CampaignState::from_dir(dir)
}

/// Resumable manifest file name inside a campaign directory.
pub const MANIFEST_FILE: &str = "MANIFEST.txt";

// ---------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------

/// A unit of schedulable work: one cell attempt, possibly mid-sweep.
#[derive(Debug, Clone)]
struct WorkItem {
    idx: usize,
    /// 1-based attempt number this pickup runs as.
    attempt: usize,
    /// Resume point (None = fresh sweep).
    state: Option<SweepState>,
    spec: CellSpec,
}

struct Queue {
    ready: VecDeque<WorkItem>,
    /// Backoff-delayed retries, with their not-before instants.
    delayed: Vec<(Instant, WorkItem)>,
    /// Items currently held by workers.
    outstanding: usize,
    /// Set to stop workers (drain or completion).
    stop: bool,
}

impl Queue {
    fn work_remains(&self) -> bool {
        !self.ready.is_empty() || !self.delayed.is_empty() || self.outstanding > 0
    }
}

struct Shared {
    // lock-order: campaign.queue
    queue: Mutex<Queue>,
    cv: Condvar,
    // lock-order: campaign.journal
    journal: Mutex<Journal>,
    shutdown: ShutdownFlag,
    deadline: Option<Instant>,
    retry: RetryPolicy,
    threads_per_cell: usize,
    factor_per_cell: Option<metaopt_core::FactorBackend>,
    clock: Arc<dyn Clock>,
    metrics: crate::CampaignMetrics,
    tracer: metaopt_obs::Tracer,
    /// First unrecoverable runner error (journal I/O); stops the run.
    // lock-order: campaign.fatal -> campaign.queue
    fatal: Mutex<Option<CampaignError>>,
}

impl Shared {
    fn append(&self, payload: &str) -> Result<(), CampaignError> {
        self.journal
            .lock()
            .expect("journal lock poisoned")
            .append(payload)
    }

    fn drain_requested(&self) -> bool {
        self.shutdown.is_requested() || self.deadline.is_some_and(|d| self.clock.now() >= d)
    }

    fn abort(&self, err: CampaignError) {
        let mut slot = self.fatal.lock().expect("fatal lock poisoned");
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        let mut q = self.queue.lock().expect("queue lock poisoned");
        q.stop = true;
        drop(q);
        self.cv.notify_all();
    }
}

fn execute(
    dir: &Path,
    journal: Journal,
    work: Vec<WorkItem>,
    cfg: &CampaignConfig,
    shutdown: &ShutdownFlag,
) -> Result<CampaignReport, CampaignError> {
    let had_work = !work.is_empty();
    let shared = Shared {
        queue: Mutex::new(Queue {
            ready: work.into(),
            delayed: Vec::new(),
            outstanding: 0,
            stop: !had_work,
        }),
        cv: Condvar::new(),
        journal: Mutex::new(journal),
        shutdown: shutdown.clone(),
        deadline: cfg.deadline,
        retry: cfg.retry,
        threads_per_cell: cfg.threads_per_cell,
        factor_per_cell: cfg.factor_per_cell,
        clock: Arc::clone(&cfg.clock),
        metrics: cfg.metrics.clone(),
        tracer: cfg.tracer.clone(),
        fatal: Mutex::new(None),
    };

    let n_workers = cfg.workers.max(1);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            // an:allow(AN104): containment lives one call deeper —
            // `worker_loop` funnels every cell through `drive_cell`, which
            // catch_unwinds both spec build and tick panics into `Failed`
            // outcomes; a panic escaping the loop itself is a runner bug
            // that the supervisor's join below deliberately propagates.
            handles.push(scope.spawn(|| worker_loop(&shared)));
        }
        // Supervisor: watch for drain requests while workers run.
        loop {
            if shared.drain_requested() {
                let mut q = shared.queue.lock().expect("queue lock poisoned");
                q.stop = true;
                drop(q);
                shared.cv.notify_all();
                break;
            }
            let q = shared.queue.lock().expect("queue lock poisoned");
            if q.stop && q.outstanding == 0 {
                break;
            }
            drop(q);
            std::thread::sleep(Duration::from_millis(10));
        }
        for h in handles {
            // Workers contain cell panics themselves; a panic escaping the
            // worker loop is a runner bug worth propagating.
            // an:allow(AN201): deliberate propagation — see the comment
            // above; swallowing this would hide a broken containment story.
            h.join().expect("worker thread panicked outside containment");
        }
    });

    if let Some(err) = shared.fatal.lock().expect("fatal lock poisoned").take() {
        return Err(err);
    }

    let drained = {
        let q = shared.queue.lock().expect("queue lock poisoned");
        q.work_remains()
    };
    let end = if drained { RunEnd::Drained } else { RunEnd::Complete };
    let reason = match end {
        RunEnd::Complete => "complete",
        RunEnd::Drained => "drained",
    };
    shared.append(&format!("shutdown {}", wire::escape(reason)))?;
    drop(shared);

    let replay_started = cfg.clock.now();
    let state = CampaignState::from_dir(dir)?;
    cfg.metrics
        .replay_seconds
        .observe((cfg.clock.now() - replay_started).as_secs_f64());
    std::fs::write(dir.join(MANIFEST_FILE), state.manifest())
        .map_err(|e| CampaignError::Io(format!("write manifest: {e}")))?;
    Ok(CampaignReport { state, end })
}

fn worker_loop(shared: &Shared) {
    loop {
        let item = {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if q.stop {
                    return;
                }
                let now = shared.clock.now();
                // Promote due retries.
                let mut i = 0;
                while i < q.delayed.len() {
                    // an:allow(AN203): `i < q.delayed.len()` is re-checked
                    // every iteration and `swap_remove` only shrinks the
                    // vector, so the index cannot go stale.
                    if q.delayed[i].0 <= now {
                        let (_, item) = q.delayed.swap_remove(i);
                        q.ready.push_back(item);
                    } else {
                        i += 1;
                    }
                }
                if let Some(item) = q.ready.pop_front() {
                    q.outstanding += 1;
                    break item;
                }
                if !q.work_remains() {
                    // Nothing left anywhere: the campaign is complete.
                    q.stop = true;
                    shared.cv.notify_all();
                    return;
                }
                // Wait for a retry to come due or for new signals.
                let wait = q
                    .delayed
                    .iter()
                    .map(|(t, _)| t.saturating_duration_since(now))
                    .min()
                    .unwrap_or(Duration::from_millis(50))
                    .min(Duration::from_millis(50));
                let (guard, _) = shared
                    .cv
                    .wait_timeout(q, wait.max(Duration::from_millis(1)))
                    .expect("queue lock poisoned");
                q = guard;
            }
        };
        run_item(shared, item);
        let mut q = shared.queue.lock().expect("queue lock poisoned");
        q.outstanding -= 1;
        if !q.work_remains() {
            q.stop = true;
        }
        drop(q);
        shared.cv.notify_all();
    }
}

/// What one cell attempt ended as.
enum AttemptEnd {
    Finished,
    Failed { kind: String, detail: String },
    DrainedMidCell,
}

fn run_item(shared: &Shared, item: WorkItem) {
    let WorkItem {
        idx,
        attempt,
        state,
        spec,
    } = item;
    if let Err(e) = shared.append(&format!("run {idx} {attempt}")) {
        shared.abort(e);
        return;
    }
    // The last journaled (durable) state: retries restart from here, not
    // from whatever a failing tick left behind.
    let mut last_good = state;
    let started = shared.clock.now();
    let cell_deadline = spec.timeout_secs.map(|s| started + Duration::from_secs_f64(s));

    let end = attempt_cell(shared, idx, &spec, &mut last_good, cell_deadline);
    match end {
        Ok(AttemptEnd::Finished) => {}
        Ok(AttemptEnd::DrainedMidCell) => {
            // Hand the cell back so the queue still counts it as pending
            // (stop is set, so nobody picks it up; `resume` will).
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            q.ready.push_back(WorkItem {
                idx,
                attempt,
                state: last_good,
                spec,
            });
        }
        Ok(AttemptEnd::Failed { kind, detail }) => {
            if let Err(e) = shared.append(&format!(
                "fail {idx} {attempt} {} {}",
                wire::escape(&kind),
                wire::escape(&detail)
            )) {
                shared.abort(e);
                return;
            }
            let fatal = kind == "fatal";
            let seed = retry_jitter_seed(RETRY_SALT, idx as u64, attempt);
            let decision = if fatal {
                RetryDecision::Quarantine
            } else {
                shared.retry.on_failure(attempt, seed)
            };
            match decision {
                RetryDecision::RetryAfter(delay) => {
                    shared.metrics.retries.inc();
                    let retry = WorkItem {
                        idx,
                        attempt: attempt + 1,
                        state: last_good,
                        spec,
                    };
                    let mut q = shared.queue.lock().expect("queue lock poisoned");
                    q.delayed.push((shared.clock.now() + delay, retry));
                    drop(q);
                    shared.cv.notify_all();
                }
                RetryDecision::Quarantine => {
                    shared.metrics.quarantines.inc();
                    let reason = quarantine_reason_for(&kind);
                    if let Err(e) = shared
                        .append(&format!("quarantine {idx} {} {attempt}", reason.kind()))
                    {
                        shared.abort(e);
                    }
                }
            }
        }
        Err(e) => shared.abort(e),
    }
}

/// Maps a [`CellDriveEnd::Failed`] kind string onto the quarantine
/// taxonomy. Shared by the campaign runner and the job server so both
/// journal the same reasons for the same failures.
pub fn quarantine_reason_for(failure_kind: &str) -> QuarantineReason {
    match failure_kind {
        "fatal" => QuarantineReason::FatalError,
        // A worker repeatedly killed for blowing its wall-clock limit is
        // the sandboxed shape of a repeated in-process timeout.
        "timeout" | "killed_deadline" => QuarantineReason::RepeatedTimeout,
        "panic" => QuarantineReason::WorkerPanic,
        // `killed_oom` / `killed_heartbeat` / `worker_exit` (and anything
        // future) exhaust their retries like transient solver faults.
        _ => QuarantineReason::ExhaustedRetries,
    }
}

/// Observability handles a supervisor installs on each cell attempt's
/// solver stack: [`drive_cell`] copies them into the rebuilt
/// `FinderConfig`'s `MilpConfig` before the first tick, so
/// branch-and-bound node/wave counters and node-LP pivot counters
/// accumulate — and incumbent events reach the flight recorder —
/// without the spec (which is journaled) having to carry them.
/// Defaults to all-disabled: observation never changes tick results.
#[derive(Debug, Clone, Default)]
pub struct SolverObs {
    /// Branch-and-bound + node-LP counter handles.
    pub metrics: metaopt_milp::MilpMetrics,
    /// Tracer receiving incumbent / solver events.
    pub tracer: metaopt_obs::Tracer,
}

/// How one supervised [`drive_cell`] attempt ended.
#[derive(Debug)]
pub enum CellDriveEnd {
    /// The sweep converged; the outcome is final and certified.
    Finished(CellOutcome),
    /// The attempt failed. `kind` is the journal failure taxonomy
    /// (`fatal` / `panic` / `solver` / `timeout`); feed it to
    /// [`quarantine_reason_for`] when retries are exhausted.
    Failed {
        /// Failure-taxonomy kind.
        kind: String,
        /// Free-form detail for the fault history.
        detail: String,
    },
    /// `stop()` returned true at a tick boundary. The last state passed to
    /// `on_checkpoint` is the exact resume point — nothing after it ran.
    Stopped,
}

/// Drives one cell attempt tick by tick until it finishes, fails, times
/// out, or `stop()` asks it to suspend. This is the supervised execution
/// hook shared by the campaign runner and the job server:
///
/// * the spec is rebuilt (panic-contained) fresh for the attempt,
/// * every completed tick's state goes to `on_checkpoint` *before* the
///   next tick starts — the caller journals it, so a hard kill loses at
///   most the tick in flight,
/// * `stop()` is consulted at each tick boundary (cancel / drain), and
/// * all cell panics are contained and reported as `Failed` ends.
///
/// The timeout check at each tick boundary reads `clock`, so a test with
/// a [`crate::clock::TestClock`] can drive the timeout path exactly.
///
/// `Err` is reserved for the caller's own `on_checkpoint` failures
/// (journal I/O): those are supervisor-fatal, not cell failures.
#[allow(clippy::too_many_arguments)] // supervisor boundary: spec + overrides + clock + obs + callbacks
pub fn drive_cell(
    spec: &CellSpec,
    threads_override: usize,
    factor_override: Option<metaopt_core::FactorBackend>,
    resume: Option<SweepState>,
    cell_deadline: Option<Instant>,
    clock: &dyn Clock,
    obs: &SolverObs,
    on_checkpoint: &mut dyn FnMut(&SweepState) -> Result<(), CampaignError>,
    stop: &mut dyn FnMut() -> bool,
) -> Result<CellDriveEnd, CampaignError> {
    // Rebuild the problem from the spec. Build errors are never transient.
    let built = catch_unwind(AssertUnwindSafe(|| spec.build()));
    let (inst, heu, cs, mut cfg) = match built {
        Ok(Ok(parts)) => parts,
        Ok(Err(e)) => {
            return Ok(CellDriveEnd::Failed {
                kind: "fatal".into(),
                detail: format!("build failed: {e}"),
            })
        }
        Err(p) => {
            return Ok(CellDriveEnd::Failed {
                kind: "panic".into(),
                detail: format!("build panicked: {}", panic_message(&p)),
            })
        }
    };
    if threads_override > 0 {
        cfg.milp.threads = threads_override;
    }
    if let Some(f) = factor_override {
        cfg.milp.factor = f;
    }
    cfg.milp.metrics = obs.metrics.clone();
    cfg.milp.tracer = obs.tracer.clone();
    // Span covering the whole cell drive: every tick, probe, and solver
    // event recorded below nests inside it in the flight recorder.
    let _cell_span = obs.tracer.span(
        "campaign.drive_cell",
        vec![
            ("label", spec.label.clone()),
            ("threads", cfg.milp.threads.to_string()),
            ("factor", cfg.milp.factor.name().to_string()),
        ],
    );
    // A bad sweep range is the spec's fault, like a build error: the cell
    // fails instead of the supervisor.
    let mut current = match resume {
        Some(s) => s,
        None => match spec.fresh_state() {
            Ok(s) => s,
            Err(e) => {
                return Ok(CellDriveEnd::Failed {
                    kind: "fatal".into(),
                    detail: format!("fresh state failed: {e}"),
                })
            }
        },
    };

    loop {
        // Only the *cell* timeout may cut a tick short mid-slice (that is
        // its documented determinism-for-liveness tradeoff). Drain/cancel
        // stops are checked between ticks instead: every journaled
        // checkpoint then sits on a node-count boundary, so an
        // interrupted run resumes to the same node totals as an
        // uninterrupted one.
        let slice = SliceBudget {
            max_nodes: spec.slice_nodes.max(1),
            deadline: cell_deadline,
        };
        let ticked = catch_unwind(AssertUnwindSafe(|| {
            metaopt_core::sweep_tick(&inst, &heu, &cs, &cfg, current.clone(), &slice)
        }));
        match ticked {
            Ok(Ok(SweepTick::Done(final_state))) => {
                let result = final_state.result();
                let outcome = CellOutcome {
                    threshold: result.threshold,
                    verified_gap: result.witness.as_ref().map(|w| w.verified_gap),
                    demands: result.witness.map(|w| w.demands).unwrap_or_default(),
                    probes: result.probes,
                    nodes: final_state.nodes,
                };
                return Ok(CellDriveEnd::Finished(outcome));
            }
            Ok(Ok(SweepTick::Paused(next))) => {
                on_checkpoint(&next)?;
                current = next;
                if cell_deadline.is_some_and(|d| clock.now() >= d) {
                    return Ok(CellDriveEnd::Failed {
                        kind: "timeout".into(),
                        detail: format!("cell exceeded {:?}s", spec.timeout_secs),
                    });
                }
                if stop() {
                    // The checkpoint above is durable; resume continues
                    // exactly here.
                    return Ok(CellDriveEnd::Stopped);
                }
            }
            Ok(Err(err)) => {
                let (kind, detail) = classify_core_error(&err);
                return Ok(CellDriveEnd::Failed { kind, detail });
            }
            Err(p) => {
                return Ok(CellDriveEnd::Failed {
                    kind: "panic".into(),
                    detail: format!("tick panicked: {}", panic_message(&p)),
                })
            }
        }
    }
}

/// Ticks one cell until it finishes, fails, times out, or the campaign
/// drains. `last_good` tracks the latest *journaled* state.
fn attempt_cell(
    shared: &Shared,
    idx: usize,
    spec: &CellSpec,
    last_good: &mut Option<SweepState>,
    cell_deadline: Option<Instant>,
) -> Result<AttemptEnd, CampaignError> {
    let resume = last_good.clone();
    let obs = SolverObs {
        metrics: shared.metrics.solver.clone(),
        tracer: shared.tracer.clone(),
    };
    let end = drive_cell(
        spec,
        shared.threads_per_cell,
        shared.factor_per_cell,
        resume,
        cell_deadline,
        &*shared.clock,
        &obs,
        &mut |next| {
            shared.append(&format!("ckpt {idx} {}", encode_sweep_state(next)))?;
            *last_good = Some(next.clone());
            Ok(())
        },
        &mut || shared.drain_requested(),
    )?;
    Ok(match end {
        CellDriveEnd::Finished(outcome) => {
            shared.append(&format!("done {idx} {}", outcome.encode()))?;
            AttemptEnd::Finished
        }
        CellDriveEnd::Failed { kind, detail } => AttemptEnd::Failed { kind, detail },
        CellDriveEnd::Stopped => AttemptEnd::DrainedMidCell,
    })
}

/// Maps a core error onto the journal's failure taxonomy. Configuration,
/// model-construction, and model-check failures are deterministic —
/// retrying cannot change them — so they quarantine immediately.
fn classify_core_error(err: &CoreError) -> (String, String) {
    match err {
        CoreError::Config(_) | CoreError::Model(_) | CoreError::ModelCheck(_) => {
            ("fatal".into(), err.to_string())
        }
        CoreError::Milp(_) | CoreError::Te(_) => ("solver".into(), err.to_string()),
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}
