#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # metaopt-resilience
//!
//! The resilience substrate of the metaopt workspace: a structured fault
//! taxonomy, first-class solve budgets, graceful-degradation levels, and a
//! deterministic fault-injection plan.
//!
//! The paper's method (§3.3 stop rules, anytime incumbent semantics) only
//! works in production if the solver stack *always* returns a certified
//! result instead of crashing or hanging. The reference implementation
//! leans on Gurobi's battle-tested recovery from degenerate and
//! ill-conditioned bases; the from-scratch simplex / branch-and-bound in
//! this workspace gets the equivalent from this crate:
//!
//! * [`SolverFault`] — the error taxonomy every layer maps its failures
//!   into (replacing ad-hoc panics),
//! * [`Budget`] — a wall-clock/node budget threaded from the finder
//!   configuration through branch-and-bound down to the simplex deadline,
//! * [`DegradationLevel`] — how far the finder had to fall down its
//!   white-box → certified-incumbent → black-box ladder,
//! * [`FaultPlan`] / [`FaultSite`] — deterministic, seedable fault
//!   injection used by the chaos test suite to exercise every recovery
//!   path (NaN pivots, singular refactorizations, expired deadlines,
//!   panicking callbacks, forced stalls).
//!
//! This crate is a dependency leaf: `lp`, `milp`, `core`, and `blackbox`
//! all depend on it, never the reverse.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fault taxonomy
// ---------------------------------------------------------------------

/// Structured classification of every failure the solver stack can
/// experience. Layers map their internal errors into this taxonomy so
/// callers can react uniformly (retry, degrade, or surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverFault {
    /// Floating-point breakdown: NaN/∞ appeared in a pivot, ratio test, or
    /// residual where a finite value is required.
    NumericalBreakdown(String),
    /// The basis matrix was (numerically) singular during factorization.
    BasisSingular(String),
    /// A wall-clock deadline or budget expired before a conclusion.
    DeadlineExceeded,
    /// A domain callback panicked; the panic was contained and the
    /// callback's contribution for that node dropped.
    CallbackPanic(String),
    /// The §3.3 stall rule fired: no sufficient relative improvement
    /// within the configured window.
    StallDetected,
    /// The static model checker found error-severity diagnostics in the
    /// encoding before the solve (release builds record this and continue;
    /// debug builds abort instead). The payload is the checker's summary.
    EncodingSuspect(String),
    /// A sandboxed worker process was killed by its supervisor for
    /// breaching a containment limit (RSS, wall clock, or heartbeat
    /// liveness). The kill itself is the containment working: the server
    /// survives, the attempt is journaled as failed, and the retry policy
    /// decides what happens next.
    WorkerKilled(WorkerKillReason),
    /// Journal I/O failed beneath the durability layer (EIO, ENOSPC, a
    /// short write, or a failed `sync_data`). The journal handle is
    /// poisoned by this fault and must be reopened and tail-verified
    /// before any further append — see the fsync-poisoning rule in
    /// DESIGN.md §16.
    JournalIo(String),
}

/// Why a sandbox supervisor killed its worker child. Each reason carries a
/// stable kind string (`killed_oom` / `killed_deadline` /
/// `killed_heartbeat`) that doubles as the journal failure-taxonomy kind
/// for the failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerKillReason {
    /// Resident-set-size limit breached (the from-scratch OOM killer).
    Oom,
    /// Wall-clock limit breached with the child still running.
    Deadline,
    /// No frame (checkpoint, result, or heartbeat) within the liveness
    /// window — the child is wedged or dead without having exited.
    Heartbeat,
}

impl WorkerKillReason {
    /// Stable identifier, shared between [`SolverFault::kind`] and the
    /// job journal's failure taxonomy.
    pub fn kind(self) -> &'static str {
        match self {
            WorkerKillReason::Oom => "killed_oom",
            WorkerKillReason::Deadline => "killed_deadline",
            WorkerKillReason::Heartbeat => "killed_heartbeat",
        }
    }

    /// Inverse of [`WorkerKillReason::kind`].
    pub fn from_kind(kind: &str) -> Option<WorkerKillReason> {
        Some(match kind {
            "killed_oom" => WorkerKillReason::Oom,
            "killed_deadline" => WorkerKillReason::Deadline,
            "killed_heartbeat" => WorkerKillReason::Heartbeat,
            _ => return None,
        })
    }
}

impl SolverFault {
    /// Short stable identifier (used by logs and the chaos suite).
    pub fn kind(&self) -> &'static str {
        match self {
            SolverFault::NumericalBreakdown(_) => "numerical_breakdown",
            SolverFault::BasisSingular(_) => "basis_singular",
            SolverFault::DeadlineExceeded => "deadline_exceeded",
            SolverFault::CallbackPanic(_) => "callback_panic",
            SolverFault::StallDetected => "stall_detected",
            SolverFault::EncodingSuspect(_) => "encoding_suspect",
            SolverFault::WorkerKilled(why) => why.kind(),
            SolverFault::JournalIo(_) => "journal_io",
        }
    }

    /// Whether a bounded retry (refactorize / rescale / perturb) can
    /// plausibly clear the fault. Deadline and stall faults are *verdicts*,
    /// not transient conditions — retrying cannot help.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            SolverFault::NumericalBreakdown(_)
                | SolverFault::BasisSingular(_)
                | SolverFault::CallbackPanic(_)
                | SolverFault::WorkerKilled(_)
        )
    }

    /// Reconstructs a fault from its [`SolverFault::kind`] identifier and
    /// detail payload — the inverse used by journal replay. Returns `None`
    /// for unknown kinds (a journal written by a future version).
    pub fn from_kind(kind: &str, detail: &str) -> Option<SolverFault> {
        Some(match kind {
            "numerical_breakdown" => SolverFault::NumericalBreakdown(detail.to_string()),
            "basis_singular" => SolverFault::BasisSingular(detail.to_string()),
            "deadline_exceeded" => SolverFault::DeadlineExceeded,
            "callback_panic" => SolverFault::CallbackPanic(detail.to_string()),
            "stall_detected" => SolverFault::StallDetected,
            "encoding_suspect" => SolverFault::EncodingSuspect(detail.to_string()),
            "journal_io" => SolverFault::JournalIo(detail.to_string()),
            kind => {
                return WorkerKillReason::from_kind(kind).map(SolverFault::WorkerKilled)
            }
        })
    }

    /// The detail payload carried by this fault (empty for payload-free
    /// kinds). `from_kind(kind(), detail())` round-trips every variant.
    pub fn detail(&self) -> &str {
        match self {
            SolverFault::NumericalBreakdown(s)
            | SolverFault::BasisSingular(s)
            | SolverFault::CallbackPanic(s)
            | SolverFault::EncodingSuspect(s)
            | SolverFault::JournalIo(s) => s,
            SolverFault::DeadlineExceeded
            | SolverFault::StallDetected
            | SolverFault::WorkerKilled(_) => "",
        }
    }
}

impl std::fmt::Display for SolverFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverFault::NumericalBreakdown(s) => write!(f, "numerical breakdown: {s}"),
            SolverFault::BasisSingular(s) => write!(f, "singular basis: {s}"),
            SolverFault::DeadlineExceeded => write!(f, "deadline exceeded"),
            SolverFault::CallbackPanic(s) => write!(f, "callback panicked: {s}"),
            SolverFault::StallDetected => write!(f, "stalled (no sufficient improvement)"),
            SolverFault::EncodingSuspect(s) => write!(f, "suspect encoding: {s}"),
            SolverFault::WorkerKilled(why) => {
                write!(f, "worker killed by supervisor ({})", why.kind())
            }
            SolverFault::JournalIo(s) => write!(f, "journal I/O fault: {s}"),
        }
    }
}

impl std::error::Error for SolverFault {}

// ---------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------

/// A first-class solve budget: an optional wall-clock deadline plus an
/// optional node allowance. Budgets are *absolute* (they hold a deadline,
/// not a duration), so passing one down a call chain never resets the
/// clock — the property that makes end-to-end anytime guarantees
/// composable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    deadline: Option<Instant>,
    max_nodes: Option<usize>,
}

impl Budget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget expiring `d` from now.
    pub fn from_duration(d: Duration) -> Self {
        Budget {
            // an:allow(AN001): `Budget` *is* the workspace's wall-clock
            // primitive — deadlines here are liveness backstops, and the
            // deterministic engines quantize their effect to wave/tick
            // boundaries so replay stays exact.
            deadline: Some(Instant::now() + d),
            max_nodes: None,
        }
    }

    /// A budget expiring `seconds` (fractional) from now.
    pub fn from_secs_f64(seconds: f64) -> Self {
        Self::from_duration(Duration::from_secs_f64(seconds.max(0.0)))
    }

    /// A budget ending at an absolute instant.
    pub fn until(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            max_nodes: None,
        }
    }

    /// Adds (or tightens) a node allowance.
    pub fn with_max_nodes(mut self, nodes: usize) -> Self {
        self.max_nodes = Some(self.max_nodes.map_or(nodes, |n| n.min(nodes)));
        self
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The node allowance, if any.
    pub fn max_nodes(&self) -> Option<usize> {
        self.max_nodes
    }

    /// Whether the wall-clock deadline has passed.
    pub fn expired(&self) -> bool {
        // an:allow(AN001): see `from_duration` — this is the read side.
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time left until the deadline (`None` = unlimited; zero when
    /// already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            // an:allow(AN001): see `from_duration` — this is the read side.
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The tighter of two budgets, limit by limit.
    pub fn min_with(self, other: Budget) -> Budget {
        let deadline = match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let max_nodes = match (self.max_nodes, other.max_nodes) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Budget {
            deadline,
            max_nodes,
        }
    }

    /// Splits off a fraction of the remaining wall-clock time as a new
    /// budget (used by the degradation ladder to reserve time for
    /// fallbacks). An unlimited budget yields `fallback` instead.
    pub fn fraction_of_remaining(&self, frac: f64, fallback: Duration) -> Budget {
        match self.remaining() {
            Some(rem) => Budget::from_duration(rem.mul_f64(frac.clamp(0.0, 1.0))),
            None => Budget::from_duration(fallback),
        }
    }
}

// ---------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------

/// How far the adversarial-gap finder had to degrade to return a result.
/// Ordered from best to worst; `GapResult::degradation` reports the level
/// actually achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// The white-box MILP search ran to its configured stop rule; the
    /// result carries both an incumbent and a dual bound.
    None,
    /// The MILP search died mid-run (fault), but a certified incumbent
    /// from the domain callback survives; no useful dual bound.
    CertifiedIncumbentOnly,
    /// The whole white-box path failed; the result comes from the
    /// black-box hill-climbing fallback (certified by re-evaluation, no
    /// bound).
    BlackboxFallback,
    /// Every rung failed; no feasible point is known.
    NoSolution,
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DegradationLevel::None => "none",
            DegradationLevel::CertifiedIncumbentOnly => "certified-incumbent-only",
            DegradationLevel::BlackboxFallback => "blackbox-fallback",
            DegradationLevel::NoSolution => "no-solution",
        };
        f.write_str(s)
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Instrumented locations in the solver stack where the chaos suite can
/// inject faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Corrupt an entering column with NaN before the ratio test
    /// (simplex pivot loop).
    NanPivot,
    /// Force the next basis refactorization to report a singular matrix.
    SingularRefactor,
    /// Force the next deadline check to report expiry.
    DeadlineNow,
    /// Force the incumbent-callback wrapper to panic.
    CallbackPanic,
    /// Force the §3.3 stall rule to fire.
    StallNow,
    /// Force a panic inside a deterministic-engine worker thread's node
    /// evaluation (and, in the server, inside a cell worker). Exercises the
    /// worker containment path (panic → `Eval::Panicked` → fatal stop);
    /// deliberately *not* in [`FaultSite::ALL`] because it aborts the whole
    /// search by design, while the seeded chaos matrix asserts recoverable
    /// degradation.
    EvalPanic,
}

impl FaultSite {
    /// All instrumented sites (the chaos matrix iterates this).
    pub const ALL: [FaultSite; 5] = [
        FaultSite::NanPivot,
        FaultSite::SingularRefactor,
        FaultSite::DeadlineNow,
        FaultSite::CallbackPanic,
        FaultSite::StallNow,
    ];
}

#[derive(Debug)]
struct SiteState {
    site: FaultSite,
    /// Fire on these 1-based hit numbers.
    at_hits: Vec<usize>,
    hits: AtomicUsize,
    fired: AtomicUsize,
}

/// A deterministic fault-injection schedule.
///
/// A plan is a set of `(site, occurrence)` triggers: the `k`-th time an
/// instrumented site is hit, the fault fires. Clones share their counters
/// (via `Arc`), so a single plan can be handed to the LP layer, the MILP
/// layer, and the test that asserts on [`FaultPlan::fired`] counts.
///
/// Plans are inert by default — production code paths carry `None` and
/// pay one branch per site.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    sites: Vec<Arc<SiteState>>,
}

impl FaultPlan {
    /// An empty plan (never fires).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a trigger: fire at the `occurrence`-th hit (1-based) of
    /// `site`.
    pub fn inject_at(mut self, site: FaultSite, occurrence: usize) -> Self {
        assert!(occurrence >= 1, "occurrences are 1-based");
        if let Some(st) = self.sites.iter().find(|s| s.site == site) {
            // Merge into the existing trigger list. Arc has no mutable
            // access once shared; rebuild the state.
            let mut at = st.at_hits.clone();
            at.push(occurrence);
            at.sort_unstable();
            at.dedup();
            let hits = st.hits.load(Ordering::Relaxed);
            let fired = st.fired.load(Ordering::Relaxed);
            self.sites.retain(|s| s.site != site);
            self.sites.push(Arc::new(SiteState {
                site,
                at_hits: at,
                hits: AtomicUsize::new(hits),
                fired: AtomicUsize::new(fired),
            }));
        } else {
            self.sites.push(Arc::new(SiteState {
                site,
                at_hits: vec![occurrence],
                hits: AtomicUsize::new(0),
                fired: AtomicUsize::new(0),
            }));
        }
        self
    }

    /// Convenience: fire on the first hit of `site`.
    pub fn inject(self, site: FaultSite) -> Self {
        self.inject_at(site, 1)
    }

    /// A pseudorandom plan derived from `seed`: 1–3 triggers across the
    /// instrumented sites, each within the first few occurrences. Used by
    /// the chaos suite's seed matrix.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n_triggers = 1 + (next() % 3) as usize;
        let mut plan = FaultPlan::new();
        for _ in 0..n_triggers {
            let site = FaultSite::ALL[(next() % FaultSite::ALL.len() as u64) as usize];
            let occurrence = 1 + (next() % 4) as usize;
            plan = plan.inject_at(site, occurrence);
        }
        plan
    }

    /// Called by instrumented code: records a hit of `site` and returns
    /// whether a fault fires at this hit.
    pub fn fire(&self, site: FaultSite) -> bool {
        for st in &self.sites {
            if st.site == site {
                let hit = st.hits.fetch_add(1, Ordering::Relaxed) + 1;
                if st.at_hits.contains(&hit) {
                    st.fired.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                return false;
            }
        }
        false
    }

    /// How many times `site` actually fired.
    pub fn fired(&self, site: FaultSite) -> usize {
        self.sites
            .iter()
            .find(|s| s.site == site)
            .map_or(0, |s| s.fired.load(Ordering::Relaxed))
    }

    /// How many times `site` was hit (fired or not) — a coverage probe:
    /// zero hits means the instrumented path never executed.
    pub fn hits(&self, site: FaultSite) -> usize {
        self.sites
            .iter()
            .find(|s| s.site == site)
            .map_or(0, |s| s.hits.load(Ordering::Relaxed))
    }

    /// The sites this plan targets.
    pub fn targeted_sites(&self) -> Vec<FaultSite> {
        self.sites.iter().map(|s| s.site).collect()
    }
}

// ---------------------------------------------------------------------
// Retry policy & quarantine taxonomy
// ---------------------------------------------------------------------

/// Bounded-retry policy with exponential backoff and deterministic jitter,
/// used by supervisors (the campaign runner) to decide whether and when a
/// failed unit of work runs again.
///
/// Delays are computed, never slept, by this type — the caller owns the
/// clock. Jitter is derived from a caller-supplied seed (typically the
/// cell id hashed with the attempt number) so a replayed campaign makes
/// identical scheduling decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try included). `attempt >=
    /// max_attempts` means quarantine, not retry.
    pub max_attempts: usize,
    /// Backoff before the second attempt.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
    /// Multiplier applied per additional failed attempt (2.0 = doubling).
    pub multiplier: f64,
    /// Fraction of the computed delay used as the jitter window (0.0 =
    /// deterministic spacing, 0.5 = up to ±25% around the nominal value).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(30),
            multiplier: 2.0,
            jitter: 0.5,
        }
    }
}

/// What a [`RetryPolicy`] decided about a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Run again after waiting this long.
    RetryAfter(Duration),
    /// Attempts exhausted: quarantine the unit of work.
    Quarantine,
}

impl RetryPolicy {
    /// A policy that never retries (every failure quarantines).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Decides the fate of a unit of work whose `attempt`-th try (1-based)
    /// just failed. `seed` feeds the deterministic jitter.
    pub fn on_failure(&self, attempt: usize, seed: u64) -> RetryDecision {
        if attempt >= self.max_attempts {
            return RetryDecision::Quarantine;
        }
        RetryDecision::RetryAfter(self.delay_for(attempt, seed))
    }

    /// The backoff delay after the `attempt`-th failure (1-based):
    /// `base · multiplier^(attempt-1)`, capped at `max_delay`, with a
    /// deterministic jitter of ±`jitter/2` of the nominal value mixed in
    /// from `seed`.
    pub fn delay_for(&self, attempt: usize, seed: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(32) as i32;
        let nominal = self
            .base_delay
            .as_secs_f64()
            .mul_add(self.multiplier.max(1.0).powi(exp), 0.0)
            .min(self.max_delay.as_secs_f64());
        // splitmix64 over (seed, attempt): cheap, stable, dependency-free.
        let mut z = seed
            .wrapping_add(attempt as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let j = self.jitter.clamp(0.0, 1.0);
        let scale = 1.0 - j / 2.0 + unit * j;
        Duration::from_secs_f64((nominal * scale).min(self.max_delay.as_secs_f64()))
    }
}

// ---------------------------------------------------------------------
// Service faults (job-server admission / queue / drain taxonomy)
// ---------------------------------------------------------------------

/// Failures of the *service* layer wrapped around the solver stack — job
/// admission, queueing, and the job journal — as opposed to the
/// [`SolverFault`]s of the solves themselves. The gap-finding job server
/// answers refused requests with their [`ServiceFault::kind`] and
/// [`ServiceFault::detail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceFault {
    /// The job spec failed validation at admission (malformed fields, an
    /// unbuildable model, or error-severity model-check diagnostics). The
    /// job was never enqueued.
    AdmissionRejected(String),
    /// The client's token quota was exhausted; the payload is the advised
    /// retry delay context. The job was never enqueued.
    QuotaExhausted(String),
    /// The bounded admission queue was at capacity and shed the job
    /// instead of growing without bound. The job was never enqueued.
    QueueSaturated(String),
    /// Appending a record the request needed to the job journal failed.
    /// The server is degraded to read-only: it admits nothing more but
    /// keeps answering status, metrics and results.
    JournalFailure(String),
}

impl ServiceFault {
    /// Short stable identifier (job-status wire format and logs).
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceFault::AdmissionRejected(_) => "admission_rejected",
            ServiceFault::QuotaExhausted(_) => "quota_exhausted",
            ServiceFault::QueueSaturated(_) => "queue_saturated",
            ServiceFault::JournalFailure(_) => "journal_failure",
        }
    }

    /// The detail payload.
    pub fn detail(&self) -> &str {
        match self {
            ServiceFault::AdmissionRejected(s)
            | ServiceFault::QuotaExhausted(s)
            | ServiceFault::QueueSaturated(s)
            | ServiceFault::JournalFailure(s) => s,
        }
    }
}

impl std::fmt::Display for ServiceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceFault::AdmissionRejected(s) => write!(f, "admission rejected: {s}"),
            ServiceFault::QuotaExhausted(s) => write!(f, "quota exhausted: {s}"),
            ServiceFault::QueueSaturated(s) => write!(f, "queue saturated: {s}"),
            ServiceFault::JournalFailure(s) => write!(f, "journal failure: {s}"),
        }
    }
}

impl std::error::Error for ServiceFault {}

/// Why a unit of work was quarantined instead of retried — the taxonomy
/// campaign journals record alongside the [`SolverFault`] history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The retry policy's attempt allowance ran out on recoverable faults.
    ExhaustedRetries,
    /// The work exceeded its per-attempt wall-clock timeout repeatedly.
    RepeatedTimeout,
    /// The worker thread running it panicked (contained by the pool).
    WorkerPanic,
    /// The failure was classified non-transient (e.g. a model-construction
    /// or configuration error) — retrying cannot help.
    FatalError,
}

impl QuarantineReason {
    /// Short stable identifier (journal wire format).
    pub fn kind(&self) -> &'static str {
        match self {
            QuarantineReason::ExhaustedRetries => "exhausted_retries",
            QuarantineReason::RepeatedTimeout => "repeated_timeout",
            QuarantineReason::WorkerPanic => "worker_panic",
            QuarantineReason::FatalError => "fatal_error",
        }
    }

    /// Inverse of [`QuarantineReason::kind`] (journal replay).
    pub fn from_kind(kind: &str) -> Option<QuarantineReason> {
        Some(match kind {
            "exhausted_retries" => QuarantineReason::ExhaustedRetries,
            "repeated_timeout" => QuarantineReason::RepeatedTimeout,
            "worker_panic" => QuarantineReason::WorkerPanic,
            "fatal_error" => QuarantineReason::FatalError,
            _ => return None,
        })
    }
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_expiry_and_min() {
        let unlimited = Budget::unlimited();
        assert!(!unlimited.expired());
        assert_eq!(unlimited.remaining(), None);

        let tight = Budget::from_secs_f64(0.0);
        assert!(tight.expired());

        let merged = unlimited.min_with(tight).with_max_nodes(5);
        assert!(merged.expired());
        assert_eq!(merged.max_nodes(), Some(5));
        assert_eq!(
            merged.min_with(Budget::unlimited().with_max_nodes(3)).max_nodes(),
            Some(3)
        );
    }

    #[test]
    fn fault_plan_fires_at_requested_occurrence() {
        let plan = FaultPlan::new().inject_at(FaultSite::NanPivot, 3);
        let clone = plan.clone(); // shares counters
        assert!(!clone.fire(FaultSite::NanPivot));
        assert!(!clone.fire(FaultSite::NanPivot));
        assert!(plan.fire(FaultSite::NanPivot));
        assert!(!plan.fire(FaultSite::NanPivot));
        assert_eq!(plan.fired(FaultSite::NanPivot), 1);
        assert_eq!(plan.hits(FaultSite::NanPivot), 4);
        // Untargeted sites never fire but cost nothing.
        assert!(!plan.fire(FaultSite::DeadlineNow));
        assert_eq!(plan.fired(FaultSite::DeadlineNow), 0);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..50 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a.targeted_sites(), b.targeted_sites());
            assert!(!a.targeted_sites().is_empty());
        }
    }

    #[test]
    fn fault_display_and_recoverability() {
        assert!(SolverFault::BasisSingular("x".into()).is_recoverable());
        assert!(!SolverFault::DeadlineExceeded.is_recoverable());
        assert!(!SolverFault::StallDetected.is_recoverable());
        for site in FaultSite::ALL {
            let _ = format!("{site:?}");
        }
        assert_eq!(SolverFault::DeadlineExceeded.kind(), "deadline_exceeded");
        let suspect = SolverFault::EncodingSuspect("2 error(s)".into());
        assert!(!suspect.is_recoverable());
        assert_eq!(suspect.kind(), "encoding_suspect");
        assert!(DegradationLevel::None < DegradationLevel::NoSolution);
    }

    #[test]
    fn fault_kind_round_trips() {
        let faults = [
            SolverFault::NumericalBreakdown("nan in ratio test".into()),
            SolverFault::BasisSingular("pivot 3".into()),
            SolverFault::DeadlineExceeded,
            SolverFault::CallbackPanic("boom".into()),
            SolverFault::StallDetected,
            SolverFault::EncodingSuspect("MC101".into()),
            SolverFault::WorkerKilled(WorkerKillReason::Oom),
            SolverFault::WorkerKilled(WorkerKillReason::Deadline),
            SolverFault::WorkerKilled(WorkerKillReason::Heartbeat),
            SolverFault::JournalIo("sync_data: ENOSPC".into()),
        ];
        for f in faults {
            let back = SolverFault::from_kind(f.kind(), f.detail()).unwrap();
            assert_eq!(back, f);
        }
        assert!(SolverFault::from_kind("martian_fault", "x").is_none());
        assert!(SolverFault::from_kind("killed_boredom", "").is_none());
    }

    #[test]
    fn worker_kill_reasons_round_trip_and_classify() {
        for why in [
            WorkerKillReason::Oom,
            WorkerKillReason::Deadline,
            WorkerKillReason::Heartbeat,
        ] {
            assert_eq!(WorkerKillReason::from_kind(why.kind()), Some(why));
            // A supervisor kill is containment, not a verdict on the work:
            // the retry policy gets a say.
            assert!(SolverFault::WorkerKilled(why).is_recoverable());
        }
        assert!(!SolverFault::JournalIo("EIO".into()).is_recoverable());
    }

    #[test]
    fn retry_policy_backs_off_then_quarantines() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
            multiplier: 2.0,
            jitter: 0.0,
        };
        let d1 = match p.on_failure(1, 42) {
            RetryDecision::RetryAfter(d) => d,
            RetryDecision::Quarantine => panic!("first failure must retry"),
        };
        let d2 = match p.on_failure(2, 42) {
            RetryDecision::RetryAfter(d) => d,
            RetryDecision::Quarantine => panic!("second failure must retry"),
        };
        assert!(d2 > d1, "backoff must grow: {d1:?} -> {d2:?}");
        assert_eq!(p.on_failure(3, 42), RetryDecision::Quarantine);
        // Deterministic jitter: same (attempt, seed) -> same delay.
        let q = RetryPolicy {
            jitter: 0.5,
            ..p
        };
        assert_eq!(q.delay_for(2, 7), q.delay_for(2, 7));
        assert_ne!(q.delay_for(2, 7), q.delay_for(2, 8));
        // Cap respected even with jitter.
        let far = q.delay_for(30, 9);
        assert!(far <= q.max_delay, "{far:?}");
    }

    #[test]
    fn service_fault_kinds_are_stable() {
        let faults = [
            ServiceFault::AdmissionRejected("bad topology `tokamak`".into()),
            ServiceFault::QuotaExhausted("client alice: retry in 2s".into()),
            ServiceFault::QueueSaturated("depth 64/64".into()),
            ServiceFault::JournalFailure("disk full".into()),
        ];
        let kinds = faults.iter().map(ServiceFault::kind).collect::<Vec<_>>();
        assert_eq!(
            kinds,
            [
                "admission_rejected",
                "quota_exhausted",
                "queue_saturated",
                "journal_failure"
            ]
        );
        for f in faults {
            assert!(format!("{f}").ends_with(f.detail()), "{f}");
        }
    }

    #[test]
    fn quarantine_reason_round_trips() {
        for r in [
            QuarantineReason::ExhaustedRetries,
            QuarantineReason::RepeatedTimeout,
            QuarantineReason::WorkerPanic,
            QuarantineReason::FatalError,
        ] {
            assert_eq!(QuarantineReason::from_kind(r.kind()), Some(r));
            assert_eq!(format!("{r}"), r.kind());
        }
        assert!(QuarantineReason::from_kind("nope").is_none());
    }
}
