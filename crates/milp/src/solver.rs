//! The branch-and-bound search.

use crate::{MilpError, MilpResult};
use metaopt_lp::{Basis, Simplex, SolveStatus, VarId};
use metaopt_model::{compile::compile, CompiledModel, Model};
use metaopt_resilience::{Budget, FaultPlan, FaultSite, SolverFault};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Contain at most this many incumbent-callback panics before disabling
/// the callback for the rest of the search.
pub(crate) const MAX_CALLBACK_PANICS: usize = 3;

/// Stop when `(incumbent − bound) / max(1, |incumbent|) <= REL_GAP`.
pub(crate) const REL_GAP: f64 = 1e-6;

/// Integrality tolerance on binaries.
const INT_TOL: f64 = 1e-6;

/// Complementarity tolerance: a pair `(λ, s)` is violated when
/// `min(λ, s) > COMPL_TOL · (1 + max(λ, s))`.
const COMPL_TOL: f64 = 1e-6;

/// Tunable branch-and-bound parameters (defaults follow the paper's §3.3
/// methodology where applicable).
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Hard wall-clock budget.
    pub time_limit: Option<Duration>,
    /// §3.3 stall rule: stop when no relative improvement of at least
    /// [`MilpConfig::stall_improvement`] happened within this window.
    pub stall_window: Option<Duration>,
    /// Relative improvement threshold for the stall rule (paper: 0.5%).
    pub stall_improvement: f64,
    /// Node budget.
    pub max_nodes: usize,
    /// Stop as soon as an incumbent at least this good exists (model space:
    /// `>=` for Max objectives, `<=` for Min). Used by feasibility probes
    /// such as the §3.3 binary sweep ("any input with a gap at least g").
    pub target_objective: Option<f64>,
    /// First-class budget threaded from the caller (the finder layer).
    /// Composed with [`MilpConfig::time_limit`] / [`MilpConfig::max_nodes`]
    /// limit-by-limit; because a [`Budget`] holds an *absolute* deadline,
    /// passing one down never resets the clock.
    pub budget: Budget,
    /// Deterministic fault-injection plan (chaos tests only). Shared with
    /// the underlying simplex; clones share counters.
    pub fault_plan: Option<FaultPlan>,
    /// Worker-thread count for the parallel tree-search modes. `0` (the
    /// default) resolves the `METAOPT_THREADS` environment variable,
    /// falling back to `1`.
    pub threads: usize,
    /// Which tree-search engine runs the branch-and-bound (see
    /// [`crate::ParallelMode`]). The default `Auto` picks the serial engine
    /// at one resolved thread and the deterministic parallel engine above.
    pub parallel: crate::ParallelMode,
    /// Basis-factorization backend for every LP relaxation solved under
    /// this search (root, nodes, workers). The default resolves the
    /// `METAOPT_FACTOR` environment variable, falling back to sparse LU.
    pub factor: metaopt_lp::FactorBackend,
    /// Obs counter handles shared by every engine and worker simplex
    /// (no-op by default). Metrics never feed back into search order, so
    /// enabling them cannot perturb the deterministic engine.
    pub metrics: crate::MilpMetrics,
    /// Obs tracer for incumbent/gap-trajectory events (no-op by default).
    pub tracer: metaopt_obs::Tracer,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            time_limit: None,
            stall_window: None,
            stall_improvement: 0.005,
            max_nodes: usize::MAX,
            target_objective: None,
            budget: Budget::unlimited(),
            fault_plan: None,
            threads: 0,
            parallel: crate::ParallelMode::Auto,
            factor: metaopt_lp::FactorBackend::from_env(),
            metrics: crate::MilpMetrics::disabled(),
            tracer: metaopt_obs::Tracer::disabled(),
        }
    }
}

impl MilpConfig {
    /// Convenience: a configuration governed by `budget` alone.
    pub fn with_budget(budget: Budget) -> Self {
        MilpConfig {
            budget,
            ..Default::default()
        }
    }

    /// The budget the search actually runs under: [`MilpConfig::budget`]
    /// tightened by the legacy `time_limit` / `max_nodes` knobs.
    pub fn effective_budget(&self) -> Budget {
        let mut b = self.budget;
        if let Some(tl) = self.time_limit {
            b = b.min_with(Budget::from_duration(tl));
        }
        if self.max_nodes != usize::MAX {
            b = b.with_max_nodes(self.max_nodes);
        }
        b
    }
}

/// Terminal status of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal (to a relative gap of 1e-6).
    Optimal,
    /// A feasible incumbent exists but budgets expired before proving
    /// optimality.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// Budgets expired with no feasible point found (inconclusive).
    NoSolution,
}

/// Outcome of a branch-and-bound run, in *model* space (a `Max` objective is
/// reported as a maximum, etc.).
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Terminal status.
    pub status: MilpStatus,
    /// Values per model variable (meaningful for `Optimal`/`Feasible`).
    pub values: Vec<f64>,
    /// Incumbent objective.
    pub objective: f64,
    /// Best dual bound on the objective (for `Max`: an upper bound).
    pub best_bound: f64,
    /// `(incumbent − bound)` relative gap at termination.
    pub rel_gap: f64,
    /// Nodes processed.
    pub nodes: usize,
    /// Total LP simplex pivots.
    pub lp_iterations: usize,
    /// Nodes pruned due to LP numerical failures (soundness caveat if > 0).
    pub numerical_prunes: usize,
    /// Wall-clock time of the search.
    pub solve_time: Duration,
    /// `(seconds_since_start, incumbent_objective)` at every improvement —
    /// wall-clock seconds in *every* engine (the deterministic engine keeps
    /// its node-axis replay trajectory internal to the [`Checkpoint`]).
    pub trajectory: Vec<(f64, f64)>,
    /// Faults contained during the search (callback panics, LP breakdowns
    /// pruned, deadline interruptions). Empty on a clean run.
    pub faults: Vec<SolverFault>,
    /// Nodes whose relaxation came back degraded from the LP recovery
    /// ladder (their objectives were not used for pruning).
    pub degraded_nodes: usize,
    /// Warm-vs-cold accounting of the node LP solves.
    pub lp_stats: LpSolveStats,
}

/// Warm-vs-cold accounting of the node LP solves of one search: how many
/// relaxations finished inside the dual simplex (warm) versus falling back
/// to a cold two-phase run, and the pivots each kind consumed. The
/// `BENCH_bnb.json` emitter derives its warm-start speedup ratios from
/// these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpSolveStats {
    /// Node LPs that finished as genuine warm dual re-solves.
    pub warm_solves: usize,
    /// Total simplex pivots spent in warm solves.
    pub warm_iterations: usize,
    /// Node LPs that fell back to (or started as) cold two-phase runs.
    pub cold_solves: usize,
    /// Total simplex pivots spent in cold solves.
    pub cold_iterations: usize,
}

impl LpSolveStats {
    pub(crate) fn record(&mut self, warm: bool, iterations: usize) {
        if warm {
            self.warm_solves += 1;
            self.warm_iterations += iterations;
        } else {
            self.cold_solves += 1;
            self.cold_iterations += iterations;
        }
    }

    /// Mean pivots per warm solve (`None` until a warm solve happened).
    pub fn mean_warm_iterations(&self) -> Option<f64> {
        (self.warm_solves > 0)
            .then(|| self.warm_iterations as f64 / self.warm_solves as f64)
    }

    /// Mean pivots per cold solve (`None` until a cold solve happened).
    pub fn mean_cold_iterations(&self) -> Option<f64> {
        (self.cold_solves > 0)
            .then(|| self.cold_iterations as f64 / self.cold_solves as f64)
    }
}

/// Domain hook that turns a relaxation point into a true feasible solution.
///
/// `relaxation` holds model-variable values of the current LP relaxation.
/// Implementations return a *feasible* assignment of all model variables
/// together with its (model-space) objective value. The solver trusts the
/// reported objective for pruning — implementations must only return values
/// realized by a genuinely feasible point (e.g. obtained by running the
/// actual heuristic on candidate inputs).
pub trait IncumbentCallback {
    /// Proposes a feasible solution, or `None`.
    fn propose(&mut self, relaxation: &[f64]) -> Option<(Vec<f64>, f64)>;
}

/// No-op callback.
struct NoCallback;

impl IncumbentCallback for NoCallback {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        None
    }
}

/// Solves `model` by branch-and-bound with default behaviour.
pub fn solve(model: &Model, cfg: &MilpConfig) -> MilpResult<MilpSolution> {
    solve_with_callback(model, cfg, &mut NoCallback)
}

/// An open node in checkpoint form: bound changes from root, parent
/// bound in min-space, and depth.
pub(crate) type FrontierNode = (Vec<(VarId, f64, f64)>, f64, usize);

/// Total order on frontier nodes by (bound, depth, change path): the
/// canonical order the deterministic parallel engine certifies nodes in
/// and serializes checkpoint frontiers in. Depending only on node
/// *content* (never on creation sequence numbers) is what makes the
/// engine's visit order — and hence its `Checkpoint::to_text` output —
/// identical at any thread count and across resume boundaries. Two open
/// nodes of one tree always differ in their change path, so the order is
/// strict.
pub(crate) fn canon_cmp(
    a: (&[(VarId, f64, f64)], f64, usize),
    b: (&[(VarId, f64, f64)], f64, usize),
) -> Ordering {
    a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)).then_with(|| {
        for ((va, la, ha), (vb, lb, hb)) in a.0.iter().zip(b.0) {
            let o = va
                .0
                .cmp(&vb.0)
                .then(la.total_cmp(lb))
                .then(ha.total_cmp(hb));
            if o != Ordering::Equal {
                return o;
            }
        }
        a.0.len().cmp(&b.0.len())
    })
}

/// Unit of the time axis of a [`Checkpoint`]'s stored trajectory. The
/// serial engine records incumbent improvements in wall-clock seconds;
/// the deterministic engine's replay clock is
/// certified *nodes* (seconds would differ run to run and break its
/// bit-identical `to_text` guarantee). Resume paths only adopt a stored
/// trajectory whose axis matches their own clock, so a checkpoint handed
/// across engines never mixes units in one trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum TrajAxis {
    /// Wall-clock seconds since the start of the run that recorded it.
    #[default]
    Seconds,
    /// Certified node count at the improvement (deterministic engine).
    Nodes,
}

/// Opaque resumable state of an interrupted branch-and-bound search:
/// the open frontier, the incumbent, and the bookkeeping counters.
/// Produced by [`solve_resumable`] when a budget interrupts the search;
/// feeding it back continues from exactly where the search stopped
/// instead of re-exploring the tree.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Open nodes: (bound changes from root, parent bound in min-space,
    /// depth).
    pub(crate) frontier: Vec<FrontierNode>,
    /// Incumbent in min-space.
    pub(crate) incumbent: Option<(Vec<f64>, f64)>,
    pub(crate) nodes: usize,
    pub(crate) numerical_prunes: usize,
    pub(crate) degraded_nodes: usize,
    pub(crate) trajectory: Vec<(f64, f64)>,
    /// Unit of `trajectory`'s time axis (see [`TrajAxis`]).
    pub(crate) traj_axis: TrajAxis,
    pub(crate) last_stall_value: f64,
    pub(crate) faults: Vec<SolverFault>,
}

impl Checkpoint {
    /// Number of open nodes in the stored frontier.
    pub fn open_nodes(&self) -> usize {
        self.frontier.len()
    }

    /// Nodes processed before the interruption.
    pub fn nodes_processed(&self) -> usize {
        self.nodes
    }
}

/// A malformed [`Checkpoint`] text representation (see
/// [`Checkpoint::from_text`]). Carries a human-readable diagnostic; parsing
/// never panics and never constructs a partially-populated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointParseError(pub String);

impl std::fmt::Display for CheckpointParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointParseError {}

/// Exact text encoding of an `f64`: the 16 hex digits of its bit pattern.
/// Chosen over decimal so that round-tripping a frontier's bound values is
/// *bit-exact* — a resumed search must make the same pruning decisions the
/// interrupted one would have made.
fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_hex(s: &str) -> Result<f64, CheckpointParseError> {
    if s.len() != 16 {
        return Err(CheckpointParseError(format!(
            "float field `{s}` is not 16 hex digits"
        )));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointParseError(format!("bad float bits `{s}`")))
}

fn parse_usize(s: &str, what: &str) -> Result<usize, CheckpointParseError> {
    s.parse()
        .map_err(|_| CheckpointParseError(format!("bad {what} `{s}`")))
}

/// Escapes a fault detail string into a single whitespace-free token.
fn escape_detail(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 1);
    if s.is_empty() {
        return "~".into();
    }
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\_"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '~' => out.push_str("\\-"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_detail(s: &str) -> Result<String, CheckpointParseError> {
    if s == "~" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('_') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('-') => out.push('~'),
            other => {
                return Err(CheckpointParseError(format!(
                    "bad escape `\\{}` in detail",
                    other.map_or(String::from("<eof>"), String::from)
                )))
            }
        }
    }
    Ok(out)
}

const CHECKPOINT_MAGIC: &str = "milp-checkpoint v1";

impl Checkpoint {
    /// Serializes this checkpoint into a versioned, line-oriented text
    /// form. The format is hand-rolled (the build environment has no
    /// registry access, hence no serde): one `field value...` line per
    /// record, floats encoded as exact bit patterns, terminated by an
    /// explicit `end` line so truncation is always detectable.
    ///
    /// The encoding is *relative to a compiled model*: frontier nodes
    /// store `(VarId, lo, hi)` bound changes against the root relaxation.
    /// Resuming therefore requires rebuilding the **same** model the
    /// checkpoint was taken from (model compilation is deterministic), as
    /// the campaign journal does from its serialized cell specs.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_MAGIC);
        out.push('\n');
        out.push_str(&format!("nodes {}\n", self.nodes));
        out.push_str(&format!("prunes {}\n", self.numerical_prunes));
        out.push_str(&format!("degraded {}\n", self.degraded_nodes));
        out.push_str(&format!("stall {}\n", f64_to_hex(self.last_stall_value)));
        out.push_str(match self.traj_axis {
            TrajAxis::Seconds => "traj_axis secs\n",
            TrajAxis::Nodes => "traj_axis nodes\n",
        });
        for f in &self.faults {
            out.push_str(&format!(
                "fault {} {}\n",
                f.kind(),
                escape_detail(f.detail())
            ));
        }
        for (t, v) in &self.trajectory {
            out.push_str(&format!("traj {} {}\n", f64_to_hex(*t), f64_to_hex(*v)));
        }
        if let Some((vals, obj)) = &self.incumbent {
            out.push_str(&format!("incumbent {} {}", f64_to_hex(*obj), vals.len()));
            for v in vals {
                out.push(' ');
                out.push_str(&f64_to_hex(*v));
            }
            out.push('\n');
        }
        for (changes, bound, depth) in &self.frontier {
            out.push_str(&format!(
                "open {} {} {}",
                f64_to_hex(*bound),
                depth,
                changes.len()
            ));
            for (v, lo, hi) in changes {
                out.push_str(&format!(" {}:{}:{}", v.0, f64_to_hex(*lo), f64_to_hex(*hi)));
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses a checkpoint previously produced by [`Checkpoint::to_text`].
    ///
    /// Rejects (never panics on) unknown versions, missing or duplicated
    /// fields, malformed numbers, truncation (missing `end`), and trailing
    /// garbage — a corrupted journal entry must surface as an error, not a
    /// silently wrong resume.
    pub fn from_text(text: &str) -> Result<Checkpoint, CheckpointParseError> {
        let mut lines = text.lines();
        if lines.next() != Some(CHECKPOINT_MAGIC) {
            return Err(CheckpointParseError(format!(
                "missing `{CHECKPOINT_MAGIC}` header"
            )));
        }
        let mut nodes: Option<usize> = None;
        let mut prunes: Option<usize> = None;
        let mut degraded: Option<usize> = None;
        let mut stall: Option<f64> = None;
        let mut faults: Vec<SolverFault> = Vec::new();
        let mut trajectory: Vec<(f64, f64)> = Vec::new();
        let mut traj_axis: Option<TrajAxis> = None;
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        let mut frontier: Vec<FrontierNode> = Vec::new();
        let mut ended = false;
        for line in lines.by_ref() {
            let mut tok = line.split(' ');
            let key = tok.next().unwrap_or("");
            match key {
                "nodes" | "prunes" | "degraded" => {
                    let slot = match key {
                        "nodes" => &mut nodes,
                        "prunes" => &mut prunes,
                        _ => &mut degraded,
                    };
                    let v = parse_usize(tok.next().unwrap_or(""), key)?;
                    if slot.replace(v).is_some() {
                        return Err(CheckpointParseError(format!("duplicate `{key}`")));
                    }
                }
                "stall" => {
                    let v = f64_from_hex(tok.next().unwrap_or(""))?;
                    if stall.replace(v).is_some() {
                        return Err(CheckpointParseError("duplicate `stall`".into()));
                    }
                }
                "fault" => {
                    let kind = tok.next().unwrap_or("");
                    let detail = unescape_detail(tok.next().unwrap_or(""))?;
                    let f = SolverFault::from_kind(kind, &detail).ok_or_else(|| {
                        CheckpointParseError(format!("unknown fault kind `{kind}`"))
                    })?;
                    faults.push(f);
                }
                "traj" => {
                    let t = f64_from_hex(tok.next().unwrap_or(""))?;
                    let v = f64_from_hex(tok.next().unwrap_or(""))?;
                    trajectory.push((t, v));
                }
                "traj_axis" => {
                    let axis = match tok.next().unwrap_or("") {
                        "secs" => TrajAxis::Seconds,
                        "nodes" => TrajAxis::Nodes,
                        other => {
                            return Err(CheckpointParseError(format!(
                                "unknown trajectory axis `{other}`"
                            )))
                        }
                    };
                    if traj_axis.replace(axis).is_some() {
                        return Err(CheckpointParseError("duplicate `traj_axis`".into()));
                    }
                }
                "incumbent" => {
                    let obj = f64_from_hex(tok.next().unwrap_or(""))?;
                    let n = parse_usize(tok.next().unwrap_or(""), "incumbent arity")?;
                    let vals = tok
                        .by_ref()
                        .map(f64_from_hex)
                        .collect::<Result<Vec<_>, _>>()?;
                    if vals.len() != n {
                        return Err(CheckpointParseError(format!(
                            "incumbent arity {n} != {} values",
                            vals.len()
                        )));
                    }
                    if incumbent.replace((vals, obj)).is_some() {
                        return Err(CheckpointParseError("duplicate `incumbent`".into()));
                    }
                }
                "open" => {
                    let bound = f64_from_hex(tok.next().unwrap_or(""))?;
                    let depth = parse_usize(tok.next().unwrap_or(""), "depth")?;
                    let n = parse_usize(tok.next().unwrap_or(""), "change count")?;
                    let mut changes = Vec::with_capacity(n);
                    for t in tok.by_ref() {
                        let mut parts = t.split(':');
                        let var = parse_usize(parts.next().unwrap_or(""), "var id")?;
                        let lo = f64_from_hex(parts.next().unwrap_or(""))?;
                        let hi = f64_from_hex(parts.next().unwrap_or(""))?;
                        if parts.next().is_some() {
                            return Err(CheckpointParseError(format!(
                                "trailing fields in bound change `{t}`"
                            )));
                        }
                        changes.push((VarId(var), lo, hi));
                    }
                    if changes.len() != n {
                        return Err(CheckpointParseError(format!(
                            "open-node arity {n} != {} changes",
                            changes.len()
                        )));
                    }
                    frontier.push((changes, bound, depth));
                }
                "end" => {
                    if tok.next().is_some() {
                        return Err(CheckpointParseError("trailing tokens on `end`".into()));
                    }
                    ended = true;
                    break;
                }
                other => {
                    return Err(CheckpointParseError(format!("unknown field `{other}`")));
                }
            }
            if tok.next().is_some() && !matches!(key, "incumbent" | "open") {
                return Err(CheckpointParseError(format!("trailing tokens on `{key}`")));
            }
        }
        if !ended {
            return Err(CheckpointParseError("truncated: missing `end`".into()));
        }
        if lines.next().is_some() {
            return Err(CheckpointParseError("trailing garbage after `end`".into()));
        }
        let (nodes, prunes, degraded, stall) = match (nodes, prunes, degraded, stall) {
            (Some(n), Some(p), Some(d), Some(s)) => (n, p, d, s),
            _ => {
                return Err(CheckpointParseError(
                    "missing one of nodes/prunes/degraded/stall".into(),
                ))
            }
        };
        if frontier.is_empty() {
            // An interrupted search always has open work; an empty frontier
            // means resume would silently terminate immediately.
            return Err(CheckpointParseError("empty frontier".into()));
        }
        Ok(Checkpoint {
            frontier,
            incumbent,
            nodes,
            numerical_prunes: prunes,
            degraded_nodes: degraded,
            trajectory,
            // Pre-axis texts carry seconds: only the serial engine wrote
            // checkpoints before the axis marker existed.
            traj_axis: traj_axis.unwrap_or_default(),
            last_stall_value: stall,
            faults,
        })
    }
}

#[derive(Debug)]
struct Node {
    /// Cumulative bound changes from the root: `(var, lo, hi)`.
    changes: Vec<(VarId, f64, f64)>,
    /// Parent relaxation objective (min-space): a valid bound for this node.
    bound: f64,
    depth: usize,
    /// The parent's optimal basis, which a child only tightens bounds
    /// against, so it stays dual feasible. Set on the child that waits in
    /// the heap; `None` for the root, the dive child (solved next, from the
    /// live basis, which already is the parent's) and nodes loaded from a
    /// checkpoint (which carries no bases).
    basis: Option<Basis>,
}

/// Heap wrapper ordered so the smallest `bound` pops first.
struct ByBound(Node);

impl PartialEq for ByBound {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound
    }
}
impl Eq for ByBound {}
impl PartialOrd for ByBound {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByBound {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the min bound on top.
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// Solves `model` by branch-and-bound, consulting `callback` for incumbents.
pub fn solve_with_callback(
    model: &Model,
    cfg: &MilpConfig,
    callback: &mut dyn IncumbentCallback,
) -> MilpResult<MilpSolution> {
    solve_resumable(model, cfg, callback, None).map(|(sol, _)| sol)
}

/// Like [`solve_with_callback`], but the search can be interrupted and
/// continued: when a budget stops the search with open nodes, the second
/// return value carries a [`Checkpoint`]; passing it back (with a fresh
/// budget) resumes from the stored frontier instead of restarting.
pub fn solve_resumable(
    model: &Model,
    cfg: &MilpConfig,
    callback: &mut dyn IncumbentCallback,
    resume: Option<Checkpoint>,
) -> MilpResult<(MilpSolution, Option<Checkpoint>)> {
    // an:allow(AN001): `solve_time` and the reported trajectory are
    // wall-clock for every engine; bit-stable replay rides on the
    // checkpoint's node-axis trajectory instead.
    let start = Instant::now();
    let cm = compile(model)?;
    match cfg.resolved_engine() {
        crate::parallel::Engine::Serial => {
            let mut search = Search::new(&cm, cfg, callback, resume);
            search.run(start)?;
            Ok(search.finish(start))
        }
        crate::parallel::Engine::Deterministic(threads) => {
            crate::parallel::solve_deterministic(&cm, cfg, callback, resume, threads, start)
        }
    }
}

struct Search<'a> {
    cm: &'a CompiledModel,
    cfg: &'a MilpConfig,
    callback: &'a mut dyn IncumbentCallback,
    simplex: Simplex,
    root_bounds: Vec<(f64, f64)>,
    /// Vars currently deviating from root bounds.
    applied: BTreeMap<usize, ()>,
    heap: BinaryHeap<ByBound>,
    dive: Option<Node>,
    /// Incumbent in min-space.
    incumbent: Option<(Vec<f64>, f64)>,
    /// Bound of the node currently being processed (min-space).
    nodes: usize,
    numerical_prunes: usize,
    degraded_nodes: usize,
    trajectory: Vec<(f64, f64)>,
    last_improvement: Instant,
    last_stall_value: f64,
    stopped_early: bool,
    proven_bound: f64,
    /// The budget this run operates under (cfg budget ∧ legacy knobs).
    budget: Budget,
    /// Shared-counter clone of the config's fault plan.
    fault_plan: Option<FaultPlan>,
    /// Faults contained so far.
    faults: Vec<SolverFault>,
    /// Callback panics contained; at [`MAX_CALLBACK_PANICS`] the callback
    /// is disabled for the rest of the search.
    callback_panics: usize,
    /// True when this run continues a [`Checkpoint`] (changes how the
    /// root node is seeded).
    resumed: bool,
    /// Warm-vs-cold accounting of the node LP solves.
    lp_stats: LpSolveStats,
}

impl<'a> Search<'a> {
    fn new(
        cm: &'a CompiledModel,
        cfg: &'a MilpConfig,
        callback: &'a mut dyn IncumbentCallback,
        resume: Option<Checkpoint>,
    ) -> Self {
        let budget = cfg.effective_budget();
        let mut simplex = Simplex::with_config(
            &cm.lp,
            metaopt_lp::SimplexConfig {
                backend: cfg.factor,
                ..Default::default()
            },
        );
        simplex.set_deadline(budget.deadline());
        simplex.set_fault_plan(cfg.fault_plan.clone());
        simplex.set_metrics(cfg.metrics.lp.clone());
        let root_bounds = (0..cm.lp.n_vars())
            .map(|j| cm.lp.bounds(VarId(j)))
            .collect();
        let mut search = Search {
            cm,
            cfg,
            callback,
            simplex,
            root_bounds,
            applied: BTreeMap::new(),
            heap: BinaryHeap::new(),
            dive: None,
            incumbent: None,
            nodes: 0,
            numerical_prunes: 0,
            degraded_nodes: 0,
            trajectory: Vec::new(),
            // an:allow(AN001): §3.3 stall rule measures real elapsed time;
            // stall stops are recorded as `stopped_early`, never certified.
            last_improvement: Instant::now(),
            last_stall_value: f64::INFINITY,
            stopped_early: false,
            proven_bound: f64::NEG_INFINITY,
            budget,
            fault_plan: cfg.fault_plan.clone(),
            faults: Vec::new(),
            callback_panics: 0,
            resumed: false,
            lp_stats: LpSolveStats::default(),
        };
        if let Some(cp) = resume {
            search.resumed = true;
            search.incumbent = cp.incumbent;
            search.nodes = cp.nodes;
            search.numerical_prunes = cp.numerical_prunes;
            search.degraded_nodes = cp.degraded_nodes;
            // Only adopt a seconds-axis history: a deterministic-engine
            // checkpoint stores node counts, which must not be spliced
            // into this engine's wall-clock trajectory.
            if cp.traj_axis == TrajAxis::Seconds {
                search.trajectory = cp.trajectory;
            }
            search.last_stall_value = cp.last_stall_value;
            search.faults = cp.faults;
            for (changes, bound, depth) in cp.frontier {
                search.heap.push(ByBound(Node {
                    changes,
                    bound,
                    depth,
                    basis: None,
                }));
            }
        }
        search
    }

    fn fire_fault(&self, site: FaultSite) -> bool {
        self.fault_plan.as_ref().is_some_and(|p| p.fire(site))
    }

    /// Applies a node's bound set (restoring root bounds first).
    fn apply_bounds(&mut self, node: &Node) -> MilpResult<()> {
        let mut target: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for &(v, lo, hi) in &node.changes {
            target.insert(v.0, (lo, hi));
        }
        // Restore vars no longer constrained.
        let stale: Vec<usize> = self
            .applied
            .keys()
            .filter(|k| !target.contains_key(k))
            .copied()
            .collect();
        for j in stale {
            let (lo, hi) = self.root_bounds[j];
            self.simplex.set_var_bounds(VarId(j), lo, hi)?;
            self.applied.remove(&j);
        }
        for (j, (lo, hi)) in target {
            self.simplex.set_var_bounds(VarId(j), lo, hi)?;
            self.applied.insert(j, ());
        }
        Ok(())
    }

    /// Min-space incumbent objective (∞ if none).
    fn incumbent_obj(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o)
    }

    fn record_incumbent(&mut self, values: Vec<f64>, min_obj: f64, start: Instant) {
        if min_obj < self.incumbent_obj() - 1e-12 {
            let improvement = if self.last_stall_value.is_finite() {
                (self.last_stall_value - min_obj).abs() / self.last_stall_value.abs().max(1.0)
            } else {
                f64::INFINITY
            };
            if improvement >= self.cfg.stall_improvement {
                // an:allow(AN001): stall-rule wall clock, as at `new`.
                self.last_improvement = Instant::now();
                self.last_stall_value = min_obj;
            }
            self.incumbent = Some((values, min_obj));
            let model_obj = self.cm.restore_objective(min_obj);
            self.trajectory
                .push((start.elapsed().as_secs_f64(), model_obj));
            self.cfg.metrics.incumbents.inc();
            self.cfg.tracer.event(
                "milp.incumbent",
                vec![
                    ("engine", "serial".to_string()),
                    ("objective", format!("{model_obj}")),
                    ("nodes", self.nodes.to_string()),
                ],
            );
        }
    }

    /// Checks global stop conditions. Returns true when the search should
    /// halt.
    fn budgets_exhausted(&mut self, start: Instant, in_hand: f64) -> bool {
        let _ = start;
        if self.budget.expired() {
            self.stopped_early = true;
            return true;
        }
        let stall_injected = self.fire_fault(FaultSite::StallNow);
        if stall_injected
            || self.cfg.stall_window.is_some_and(|w| {
                self.incumbent.is_some() && self.last_improvement.elapsed() >= w
            })
        {
            if stall_injected {
                self.faults.push(SolverFault::StallDetected);
            }
            self.stopped_early = true;
            return true;
        }
        if self.nodes >= self.budget.max_nodes().unwrap_or(usize::MAX) {
            self.stopped_early = true;
            return true;
        }
        if let Some(target) = self.cfg.target_objective {
            // Convert once to min-space (restore_objective is an involution).
            let target_min = self.cm.restore_objective(target);
            if self.incumbent_obj() <= target_min + crate::CERT_TOL {
                self.stopped_early = true;
                return true;
            }
        }
        // Gap-based stop (the bound of the node currently in hand counts
        // as open: it has not been explored yet).
        if let Some((_, inc)) = &self.incumbent {
            let bound = self.open_bound().min(in_hand);
            let gap = (inc - bound) / inc.abs().max(1.0);
            if gap <= REL_GAP {
                self.proven_bound = bound;
                return true;
            }
        }
        false
    }

    /// Best (lowest) bound among open nodes.
    fn open_bound(&self) -> f64 {
        let mut b = f64::INFINITY;
        if let Some(top) = self.heap.peek() {
            b = b.min(top.0.bound);
        }
        if let Some(d) = &self.dive {
            b = b.min(d.bound);
        }
        b.min(self.incumbent_obj())
    }

    /// Runs the incumbent callback with panic containment: a panicking
    /// callback loses its proposal for this node (downgraded to "no
    /// incumbent"), and the panic is recorded as a [`SolverFault`];
    /// repeated panics disable the callback for the rest of the search.
    fn propose_guarded(&mut self, relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        if self.callback_panics >= MAX_CALLBACK_PANICS {
            return None;
        }
        let inject = self.fire_fault(FaultSite::CallbackPanic);
        match propose_contained(self.callback, relaxation, inject) {
            Ok(proposal) => proposal,
            Err(fault) => {
                self.callback_panics += 1;
                self.faults.push(fault);
                None
            }
        }
    }

    fn next_node(&mut self) -> Option<Node> {
        if let Some(n) = self.dive.take() {
            return Some(n);
        }
        while let Some(ByBound(n)) = self.heap.pop() {
            if n.bound < self.incumbent_obj() - 1e-9 {
                return Some(n);
            }
        }
        None
    }

    fn run(&mut self, start: Instant) -> MilpResult<()> {
        // Seed the incumbent before the (potentially expensive) root
        // relaxation: domain callbacks can produce certified solutions from
        // structural knowledge alone, keeping the search anytime even when
        // the root LP consumes most of a tight budget.
        let origin = vec![0.0; self.cm.var_map.len()];
        if let Some((vals, model_obj)) = self.propose_guarded(&origin) {
            let min_obj = to_min_space(self.cm, model_obj);
            self.record_incumbent(vals, min_obj, start);
        }
        // Root node — unless this run resumes a checkpointed frontier, in
        // which case the stored open nodes already cover the tree.
        if !self.resumed {
            let root = Node {
                changes: Vec::new(),
                bound: f64::NEG_INFINITY,
                depth: 0,
                basis: None,
            };
            self.dive = Some(root);
        }

        while let Some(node) = self.next_node() {
            if self.budgets_exhausted(start, node.bound) {
                // Keep the node's bound visible to the final gap report.
                self.heap.push(ByBound(node));
                return Ok(());
            }
            self.nodes += 1;
            self.cfg.metrics.nodes.inc();
            self.process(node, start)?;
        }
        // Tree exhausted: the incumbent (if any) is optimal.
        self.proven_bound = self.incumbent_obj();
        Ok(())
    }

    fn process(&mut self, node: Node, start: Instant) -> MilpResult<()> {
        self.apply_bounds(&node)?;
        // The simplex runs its own recovery ladder; what surfaces here is
        // either terminal or a verdict.
        let iters_before = self.simplex.iterations();
        let solved = match &node.basis {
            Some(b) => self.simplex.resolve_from(b),
            None => self.simplex.resolve(),
        };
        let sol = match solved {
            Ok(s) => {
                self.lp_stats.record(
                    self.simplex.last_solve_warm(),
                    self.simplex.iterations() - iters_before,
                );
                s
            }
            Err(metaopt_lp::LpError::Fault(SolverFault::DeadlineExceeded)) => {
                // The wall-clock budget interrupted the LP mid-solve; keep
                // the node open so the final bound stays honest.
                self.faults.push(SolverFault::DeadlineExceeded);
                self.stopped_early = true;
                self.heap.push(ByBound(node));
                return Ok(());
            }
            Err(e)
                if e.is_recoverable() || matches!(e, metaopt_lp::LpError::IterationLimit) =>
            {
                // The LP exhausted its recovery ladder (or its pivot
                // budget) on this node: prune conservatively, record the
                // fault, keep searching.
                if let Some(f) = e.fault() {
                    self.faults.push(f.clone());
                }
                self.numerical_prunes += 1;
                return Ok(());
            }
            Err(e) => return Err(MilpError::Lp(e)),
        };
        match sol.status {
            SolveStatus::Infeasible => return Ok(()),
            SolveStatus::Unbounded => {
                // Only possible at the root of a bounded search; treated by
                // the caller via proven_bound = −∞ and no incumbent.
                self.proven_bound = f64::NEG_INFINITY;
                return Err(MilpError::Model(
                    "relaxation is unbounded; bound the outer variables".into(),
                ));
            }
            SolveStatus::Optimal => {}
        }
        // A degraded relaxation point is feasible-ish but *not* a valid
        // relaxation optimum: its objective must not prune the node or
        // tighten child bounds. Inherit the parent bound instead.
        let obj = if sol.degraded {
            self.degraded_nodes += 1;
            node.bound
        } else {
            sol.objective
        };
        if !sol.degraded && obj >= self.incumbent_obj() - 1e-9 {
            return Ok(()); // pruned by bound
        }

        // Incumbent callback on the relaxation point (panic-contained).
        let relax_vals = self.cm.extract_values(&sol.x);
        if let Some((vals, model_obj)) = self.propose_guarded(&relax_vals) {
            let min_obj = to_min_space(self.cm, model_obj);
            self.record_incumbent(vals, min_obj, start);
        }

        // Find a violated branching object. Binary branching is preferred:
        // indicator structure usually dominates the conditional heuristics'
        // search space.
        let lp_x = &sol.x;
        match (
            most_fractional_binary(self.cm, lp_x),
            most_violated_compl(self.cm, lp_x),
        ) {
            (None, None) => {
                if sol.degraded {
                    // An ε-perturbed point is not trustworthy as an
                    // incumbent and offers nothing to branch on: prune
                    // conservatively (recorded in the degraded counters).
                    self.numerical_prunes += 1;
                } else {
                    // Integer & complementary feasible: true solution.
                    let vals = self.cm.extract_values(lp_x);
                    self.record_incumbent(vals, obj, start);
                }
            }
            (Some((v, value, _frac)), _) => {
                self.branch_binary(node, v, value, obj);
            }
            (None, Some((mult, slack, mval, sval))) => {
                self.branch_compl(node, mult, slack, mval, sval, obj);
            }
        }
        Ok(())
    }

    /// Queues a branched node's children: the dive child is solved next
    /// from the live basis; the other waits in the heap with a snapshot of
    /// that basis, the parent's optimum.
    fn push_children(
        &mut self,
        dive_changes: Vec<(VarId, f64, f64)>,
        alt_changes: Vec<(VarId, f64, f64)>,
        bound: f64,
        depth: usize,
    ) {
        self.dive = Some(Node {
            changes: dive_changes,
            bound,
            depth,
            basis: None,
        });
        self.heap.push(ByBound(Node {
            changes: alt_changes,
            bound,
            depth,
            basis: self.simplex.snapshot_basis(),
        }));
    }

    fn branch_binary(&mut self, node: Node, v: VarId, value: f64, obj: f64) {
        let rounded = value.round().clamp(0.0, 1.0);
        let mut dive_changes = node.changes.clone();
        dive_changes.push((v, rounded, rounded));
        let other = 1.0 - rounded;
        let mut alt_changes = node.changes;
        alt_changes.push((v, other, other));
        self.push_children(dive_changes, alt_changes, obj, node.depth + 1);
    }

    fn branch_compl(
        &mut self,
        node: Node,
        mult: VarId,
        slack: VarId,
        mval: f64,
        sval: f64,
        obj: f64,
    ) {
        // Dive on the side closer to zero (least disruptive fix).
        let (fix_first, fix_second) = if mval <= sval {
            (mult, slack)
        } else {
            (slack, mult)
        };
        let mut dive_changes = node.changes.clone();
        dive_changes.push((fix_first, 0.0, 0.0));
        let mut alt_changes = node.changes;
        alt_changes.push((fix_second, 0.0, 0.0));
        self.push_children(dive_changes, alt_changes, obj, node.depth + 1);
    }

    fn finish(mut self, start: Instant) -> (MilpSolution, Option<Checkpoint>) {
        let bound_min = if self.stopped_early {
            self.open_bound()
        } else {
            self.proven_bound
        };
        // Snapshot the open frontier before it is consumed below: resuming
        // only makes sense for an interrupted search with open work left.
        let checkpoint = if self.stopped_early {
            let mut frontier: Vec<FrontierNode> = Vec::new();
            if let Some(d) = self.dive.take() {
                frontier.push((d.changes, d.bound, d.depth));
            }
            for ByBound(n) in self.heap.drain() {
                frontier.push((n.changes, n.bound, n.depth));
            }
            if frontier.is_empty() {
                None
            } else {
                Some(Checkpoint {
                    frontier,
                    incumbent: self.incumbent.clone(),
                    nodes: self.nodes,
                    numerical_prunes: self.numerical_prunes,
                    degraded_nodes: self.degraded_nodes,
                    trajectory: self.trajectory.clone(),
                    traj_axis: TrajAxis::Seconds,
                    last_stall_value: self.last_stall_value,
                    faults: self.faults.clone(),
                })
            }
        } else {
            None
        };
        let (status, values, objective) = match (&self.incumbent, self.stopped_early) {
            (Some((vals, obj)), early) => {
                let gap = (obj - bound_min) / obj.abs().max(1.0);
                let st = if !early || gap <= REL_GAP {
                    MilpStatus::Optimal
                } else {
                    MilpStatus::Feasible
                };
                (st, vals.clone(), *obj)
            }
            (None, true) => (MilpStatus::NoSolution, Vec::new(), f64::NAN),
            (None, false) => (MilpStatus::Infeasible, Vec::new(), f64::NAN),
        };
        let rel_gap = if objective.is_nan() {
            f64::INFINITY
        } else {
            ((objective - bound_min) / objective.abs().max(1.0)).max(0.0)
        };
        let solution = MilpSolution {
            status,
            values,
            objective: self.cm.restore_objective(objective),
            best_bound: self.cm.restore_objective(bound_min),
            rel_gap,
            nodes: self.nodes,
            lp_iterations: self.simplex.iterations(),
            numerical_prunes: self.numerical_prunes,
            solve_time: start.elapsed(),
            trajectory: std::mem::take(&mut self.trajectory),
            faults: std::mem::take(&mut self.faults),
            degraded_nodes: self.degraded_nodes,
            lp_stats: self.lp_stats,
        };
        (solution, checkpoint)
    }
}

pub(crate) fn to_min_space(cm: &CompiledModel, model_obj: f64) -> f64 {
    // restore_objective is an involution (negate or identity).
    cm.restore_objective(model_obj)
}

/// The binary branching rule, shared by every tree-search engine: the
/// binary whose relaxation value is farthest from integral.
pub(crate) fn most_fractional_binary(
    cm: &CompiledModel,
    lp_x: &[f64],
) -> Option<(VarId, f64, f64)> {
    let mut best: Option<(VarId, f64, f64)> = None;
    for b in &cm.binaries {
        let id = cm.lp_var(*b);
        let x = lp_x[id.0];
        let frac = (x - x.round()).abs();
        if frac > INT_TOL {
            match best {
                Some((_, _, bf)) if bf >= frac => {}
                _ => best = Some((id, x, frac)),
            }
        }
    }
    best
}

/// The SOS1 branching rule, shared by every tree-search engine: the
/// complementarity pair `(λ, s)` with the largest `min(λ, s)` violation.
pub(crate) fn most_violated_compl(
    cm: &CompiledModel,
    lp_x: &[f64],
) -> Option<(VarId, VarId, f64, f64)> {
    let mut best: Option<(VarId, VarId, f64, f64, f64)> = None;
    for &(m, s) in &cm.compl_pairs {
        let mv = lp_x[m.0];
        let sv = lp_x[s.0];
        let viol = mv.min(sv);
        if viol > COMPL_TOL * (1.0 + mv.max(sv)) {
            match best {
                Some((.., bviol)) if bviol >= viol => {}
                _ => best = Some((m, s, mv, sv, viol)),
            }
        }
    }
    best.map(|(m, s, mv, sv, _)| (m, s, mv, sv))
}

/// Runs an incumbent callback with panic containment (shared by every
/// tree-search engine): a panicking callback loses its proposal and the
/// panic surfaces as a structured [`SolverFault`] for the caller's
/// bookkeeping.
pub(crate) fn propose_contained(
    callback: &mut dyn IncumbentCallback,
    relaxation: &[f64],
    inject: bool,
) -> Result<Option<(Vec<f64>, f64)>, SolverFault> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject {
            panic!("injected incumbent-callback panic");
        }
        callback.propose(relaxation)
    }));
    outcome.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(std::string::ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        SolverFault::CallbackPanic(msg)
    })
}
