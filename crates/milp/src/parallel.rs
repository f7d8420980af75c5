//! The deterministic parallel branch-and-bound engine.
//!
//! It shares the serial search's node semantics (bounds, pruning,
//! branching rules, degraded handling, callback containment) and runs as
//! a wave-synchronous coordinator/worker design
//! (`ParallelMode::Deterministic`). The coordinator repeatedly pops the
//! [`DET_WAVE`] canonically-smallest open nodes, farms their relaxation
//! LPs out to a worker pool, and then *certifies* the results strictly in
//! canonical node order: pruning, node counting, incumbent publication,
//! and branching all happen sequentially on the coordinator. Three design
//! rules make the whole trajectory a pure function of the problem,
//! independent of the thread count:
//!
//! 1. the wave width is a *constant*, never "how many threads are free";
//! 2. every node LP is solved from its parent's [`Basis`] snapshot (or
//!    cold when it has none), so the result does not depend on which
//!    worker's simplex performs it;
//! 3. node order is the content-based [`canon_cmp`] — no sequence
//!    numbers, so a frontier reloaded from a checkpoint orders exactly
//!    like the live one.
//!
//! Budget stops land on wave boundaries and *checkpoint* trajectory
//! timestamps count nodes instead of seconds, so `Checkpoint`s, §3.3
//! stall accounting, `resilience::Budget` node allowances, and campaign
//! resume keep their bit-for-bit replay guarantees at any thread count.
//! The node-axis trajectory stays internal to the checkpoint: the
//! reported [`MilpSolution::trajectory`] is a separately-recorded
//! wall-clock one, in seconds like the serial engine's. (Wall-clock
//! rules — deadlines and stall windows — remain real time; they choose
//! *which* wave boundary the search pauses at, and replay from that
//! checkpoint is again exact.)
//!
//! The incumbent callback is `&mut dyn` without `Send`, so the
//! coordinator invokes it inline during certification, on the calling
//! thread.

use crate::solver::{
    canon_cmp, most_fractional_binary, most_violated_compl, propose_contained, to_min_space,
    Checkpoint, FrontierNode, IncumbentCallback, LpSolveStats, MilpConfig, MilpSolution,
    MilpStatus, TrajAxis, MAX_CALLBACK_PANICS, REL_GAP, STALL_IMPROVEMENT,
};
use crate::{MilpError, MilpResult};
use metaopt_lp::{Basis, LpError, Simplex, SolveStatus, VarId};
use metaopt_model::CompiledModel;
use metaopt_resilience::{Budget, FaultPlan, FaultSite, SolverFault};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Which tree-search engine a solve runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// Pick automatically: the serial engine at one resolved thread (or
    /// whenever a fault-injection plan is installed — injection schedules
    /// are defined in terms of the serial visit order), the deterministic
    /// parallel engine above one.
    #[default]
    Auto,
    /// The original single-threaded best-bound/diving search.
    Serial,
    /// Wave-synchronous parallel search whose certified results, node
    /// counts, and checkpoints are bit-identical at any thread count.
    Deterministic,
}

/// A resolved engine choice: mode plus worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    Serial,
    Deterministic(usize),
}

/// Thread count requested through the environment (`METAOPT_THREADS`),
/// defaulting to 1. Zero or unparsable values fall back to 1.
pub fn env_threads() -> usize {
    std::env::var("METAOPT_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

impl MilpConfig {
    /// The worker-thread count this configuration resolves to:
    /// [`MilpConfig::threads`] when nonzero, else `METAOPT_THREADS`, else 1.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            env_threads()
        }
    }

    pub(crate) fn resolved_engine(&self) -> Engine {
        let t = self.resolved_threads().max(1);
        match self.parallel {
            ParallelMode::Serial => Engine::Serial,
            ParallelMode::Deterministic => Engine::Deterministic(t),
            ParallelMode::Auto => {
                if t <= 1 || self.fault_plan.is_some() {
                    Engine::Serial
                } else {
                    Engine::Deterministic(t)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic wave-synchronous engine
// ---------------------------------------------------------------------

/// Nodes speculatively solved per wave. A *constant* (never derived from
/// the thread count): the wave partition — and with it the entire
/// exploration order — must be identical whether 1 or 64 threads execute
/// the LP solves.
const DET_WAVE: usize = 8;

/// An open node of the deterministic engine. `basis` is the parent's
/// optimal basis (shared, never mutated), making the node's LP solve a
/// pure function of the node itself.
struct DetNode {
    changes: Vec<(VarId, f64, f64)>,
    bound: f64,
    depth: usize,
    basis: Option<Arc<Basis>>,
}

impl DetNode {
    fn key(&self) -> (&[(VarId, f64, f64)], f64, usize) {
        (&self.changes, self.bound, self.depth)
    }
}

/// Heap wrapper: the canonically-smallest node pops first.
struct ByCanon(DetNode);

impl PartialEq for ByCanon {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ByCanon {}
impl PartialOrd for ByCanon {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByCanon {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, canonical minimum on top.
        canon_cmp(other.0.key(), self.0.key())
    }
}

/// One dispatched node-LP job.
struct Job {
    slot: usize,
    changes: Vec<(VarId, f64, f64)>,
    basis: Option<Arc<Basis>>,
}

/// Outcome of one node's relaxation LP, computed on a worker.
enum Eval {
    Solved {
        status: SolveStatus,
        x: Vec<f64>,
        objective: f64,
        degraded: bool,
        warm: bool,
        iterations: usize,
        basis: Option<Arc<Basis>>,
    },
    /// The wall-clock deadline interrupted the solve; the node stays open.
    Deadline,
    /// The LP exhausted its recovery ladder (or pivot budget): prune
    /// conservatively, optionally carrying the structured fault.
    Pruned(Option<SolverFault>),
    /// Irrecoverable LP failure — aborts the whole search.
    Fatal(LpError),
    /// The worker caught a panic while solving (should never happen; kept
    /// as a containment backstop so a worker bug cannot hang the search).
    Panicked(String),
}

/// Solves one node's relaxation on `simplex`: restores root bounds for
/// stale vars, applies the node's bound set, then solves from the parent
/// basis when one is attached (cold otherwise — never from the worker's
/// happenstance previous basis, which would break determinism).
fn eval_node(
    simplex: &mut Simplex,
    applied: &mut Vec<usize>,
    root_bounds: &[(f64, f64)],
    changes: &[(VarId, f64, f64)],
    basis: Option<&Basis>,
) -> Eval {
    for &j in applied.iter() {
        let (lo, hi) = root_bounds[j];
        if let Err(e) = simplex.set_var_bounds(VarId(j), lo, hi) {
            return Eval::Fatal(e);
        }
    }
    applied.clear();
    for &(v, lo, hi) in changes {
        if let Err(e) = simplex.set_var_bounds(v, lo, hi) {
            return Eval::Fatal(e);
        }
        applied.push(v.0);
    }
    let before = simplex.iterations();
    let res = match basis {
        Some(b) => simplex.resolve_from(b),
        None => simplex.solve(),
    };
    match res {
        Ok(sol) => Eval::Solved {
            basis: if sol.status == SolveStatus::Optimal {
                simplex.snapshot_basis().map(Arc::new)
            } else {
                None
            },
            status: sol.status,
            objective: sol.objective,
            degraded: sol.degraded,
            warm: simplex.last_solve_warm(),
            iterations: simplex.iterations() - before,
            x: sol.x,
        },
        Err(LpError::Fault(SolverFault::DeadlineExceeded)) => Eval::Deadline,
        Err(e) if e.is_recoverable() || matches!(e, LpError::IterationLimit) => {
            Eval::Pruned(e.fault().cloned())
        }
        Err(e) => Eval::Fatal(e),
    }
}

fn worker_simplex(
    cm: &CompiledModel,
    budget: &Budget,
    plan: Option<FaultPlan>,
    metrics: crate::metrics::MilpMetrics,
    backend: metaopt_lp::FactorBackend,
) -> Simplex {
    let mut s = Simplex::with_config(
        &cm.lp,
        metaopt_lp::SimplexConfig {
            backend,
            ..Default::default()
        },
    );
    s.set_deadline(budget.deadline());
    s.set_fault_plan(plan);
    s.set_metrics(metrics.lp);
    s
}

struct Det<'a> {
    cm: &'a CompiledModel,
    cfg: &'a MilpConfig,
    callback: &'a mut dyn IncumbentCallback,
    frontier: BinaryHeap<ByCanon>,
    incumbent: Option<(Vec<f64>, f64)>,
    nodes: usize,
    numerical_prunes: usize,
    degraded_nodes: usize,
    /// Node-axis incumbent trajectory — the deterministic replay clock,
    /// stored in checkpoints (bit-identical at any thread count).
    trajectory: Vec<(f64, f64)>,
    /// Wall-clock incumbent trajectory of *this run*, in seconds — what
    /// [`MilpSolution::trajectory`] reports, like the serial engine.
    wall_trajectory: Vec<(f64, f64)>,
    last_improvement: Instant,
    last_stall_value: f64,
    stopped_early: bool,
    proven_bound: f64,
    budget: Budget,
    fault_plan: Option<FaultPlan>,
    faults: Vec<SolverFault>,
    callback_panics: usize,
    resumed: bool,
    lp_stats: LpSolveStats,
    start: Instant,
}

/// Entry point for the deterministic engine (dispatched from
/// `solve_resumable`).
pub(crate) fn solve_deterministic(
    cm: &CompiledModel,
    cfg: &MilpConfig,
    callback: &mut dyn IncumbentCallback,
    resume: Option<Checkpoint>,
    threads: usize,
    start: Instant,
) -> MilpResult<(MilpSolution, Option<Checkpoint>)> {
    let budget = cfg.effective_budget();
    let root_bounds: Vec<(f64, f64)> = (0..cm.lp.n_vars()).map(|j| cm.lp.bounds(VarId(j))).collect();
    let mut det = Det {
        cm,
        cfg,
        callback,
        frontier: BinaryHeap::new(),
        incumbent: None,
        nodes: 0,
        numerical_prunes: 0,
        degraded_nodes: 0,
        trajectory: Vec::new(),
        wall_trajectory: Vec::new(),
        // an:allow(AN001): the §3.3 stall rule measures real elapsed time
        // between incumbent improvements; determinism is preserved because
        // stall stops are always recorded as `stopped_early`.
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
        start,
    };
    if let Some(cp) = resume {
        det.resumed = true;
        det.incumbent = cp.incumbent;
        det.nodes = cp.nodes;
        det.numerical_prunes = cp.numerical_prunes;
        det.degraded_nodes = cp.degraded_nodes;
        // Seed whichever trajectory matches the checkpoint's axis: the
        // replay clock from a deterministic checkpoint, the reported
        // wall-clock history from a serial one. Never both —
        // the units must not mix in one vector.
        match cp.traj_axis {
            TrajAxis::Nodes => det.trajectory = cp.trajectory,
            TrajAxis::Seconds => det.wall_trajectory = cp.trajectory,
        }
        det.last_stall_value = cp.last_stall_value;
        det.faults = cp.faults;
        for (changes, bound, depth) in cp.frontier {
            det.frontier.push(ByCanon(DetNode {
                changes,
                bound,
                depth,
                basis: None,
            }));
        }
    }
    let outcome = if threads <= 1 {
        let mut simplex = worker_simplex(
            cm,
            &budget,
            cfg.fault_plan.clone(),
            cfg.metrics.clone(),
            cfg.factor,
        );
        let mut applied: Vec<usize> = Vec::new();
        det.run(&mut |wave: &[DetNode]| {
            Ok(wave
                .iter()
                .map(|n| {
                    eval_node(
                        &mut simplex,
                        &mut applied,
                        &root_bounds,
                        &n.changes,
                        n.basis.as_deref(),
                    )
                })
                .collect())
        })
    } else {
        std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<(usize, Eval)>();
            let job_txs: Vec<mpsc::Sender<Job>> = (0..threads)
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<Job>();
                    let res_tx = res_tx.clone();
                    let rb = &root_bounds;
                    let plan = cfg.fault_plan.clone();
                    let metrics = cfg.metrics.clone();
                    let backend = cfg.factor;
                    scope.spawn(move || {
                        let mut simplex =
                            worker_simplex(cm, &budget, plan.clone(), metrics, backend);
                        let mut applied: Vec<usize> = Vec::new();
                        while let Ok(Job {
                            slot,
                            changes,
                            basis,
                        }) = rx.recv()
                        {
                            let out = catch_unwind(AssertUnwindSafe(|| {
                                if plan
                                    .as_ref()
                                    .is_some_and(|p| p.fire(FaultSite::EvalPanic))
                                {
                                    // an:allow(AN202): chaos-injection site —
                                    // unreachable unless a FaultPlan arms
                                    // EvalPanic, and the enclosing
                                    // catch_unwind exists to contain it.
                                    panic!("injected node-evaluation panic");
                                }
                                eval_node(
                                    &mut simplex,
                                    &mut applied,
                                    rb,
                                    &changes,
                                    basis.as_deref(),
                                )
                            }))
                            .unwrap_or_else(|_| Eval::Panicked("LP worker panicked".into()));
                            if res_tx.send((slot, out)).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
            let r = det.run(&mut |wave: &[DetNode]| {
                for (slot, n) in wave.iter().enumerate() {
                    job_txs[slot % threads]
                        .send(Job {
                            slot,
                            changes: n.changes.clone(),
                            basis: n.basis.clone(),
                        })
                        .map_err(|_| MilpError::Model("parallel LP worker unavailable".into()))?;
                }
                let mut evals: Vec<Option<Eval>> = wave.iter().map(|_| None).collect();
                for _ in 0..wave.len() {
                    let (slot, out) = res_rx
                        .recv()
                        .map_err(|_| MilpError::Model("parallel LP worker disappeared".into()))?;
                    evals[slot] = Some(out);
                }
                Ok(evals
                    .into_iter()
                    .map(|e| e.unwrap_or_else(|| Eval::Panicked("missing worker result".into())))
                    .collect())
            });
            drop(job_txs);
            r
        })
    };
    outcome?;
    Ok(det.finish(start))
}

impl<'a> Det<'a> {
    fn fire_fault(&self, site: FaultSite) -> bool {
        self.fault_plan.as_ref().is_some_and(|p| p.fire(site))
    }

    fn incumbent_obj(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o)
    }

    fn open_bound(&self) -> f64 {
        let mut b = f64::INFINITY;
        if let Some(top) = self.frontier.peek() {
            b = b.min(top.0.bound);
        }
        b.min(self.incumbent_obj())
    }

    /// Mirrors the serial `record_incumbent`, recording each improvement
    /// twice: on the node axis (the deterministic replay clock, kept for
    /// checkpoints) and on the wall clock (what the solution reports).
    fn record_incumbent(&mut self, values: Vec<f64>, min_obj: f64) {
        if min_obj < self.incumbent_obj() - 1e-12 {
            let improvement = if self.last_stall_value.is_finite() {
                (self.last_stall_value - min_obj).abs() / self.last_stall_value.abs().max(1.0)
            } else {
                f64::INFINITY
            };
            if improvement >= STALL_IMPROVEMENT {
                // an:allow(AN001): stall-rule wall clock, as at the engine
                // start above.
                self.last_improvement = Instant::now();
                self.last_stall_value = min_obj;
            }
            self.incumbent = Some((values, min_obj));
            let obj = self.cm.restore_objective(min_obj);
            self.trajectory.push((self.nodes as f64, obj));
            self.wall_trajectory
                .push((self.start.elapsed().as_secs_f64(), obj));
            self.cfg.metrics.incumbents.inc();
            self.cfg.tracer.event(
                "milp.incumbent",
                vec![
                    ("engine", "deterministic".to_string()),
                    ("objective", format!("{obj}")),
                    ("nodes", self.nodes.to_string()),
                ],
            );
        }
    }

    fn propose(&mut self, relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        if self.callback_panics >= MAX_CALLBACK_PANICS {
            return None;
        }
        let inject = self.fire_fault(FaultSite::CallbackPanic);
        match propose_contained(self.callback, relaxation, inject) {
            Ok(p) => p,
            Err(fault) => {
                self.callback_panics += 1;
                self.faults.push(fault);
                None
            }
        }
    }

    /// Stop rules, checked *between* waves only, so interruptions always
    /// land on a wave boundary (the property that makes node-budget
    /// checkpoints resume bit-exactly). Returns true to halt.
    fn pre_wave_stop(&mut self) -> bool {
        if self.budget.expired() {
            self.stopped_early = true;
            return true;
        }
        let stall_injected = self.fire_fault(FaultSite::StallNow);
        if stall_injected
            || self
                .cfg
                .stall_window
                .is_some_and(|w| self.incumbent.is_some() && self.last_improvement.elapsed() >= w)
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
            let target_min = self.cm.restore_objective(target);
            if self.incumbent_obj() <= target_min + crate::CERT_TOL {
                self.stopped_early = true;
                return true;
            }
        }
        if let Some((_, inc)) = &self.incumbent {
            let bound = self.open_bound();
            let gap = (inc - bound) / inc.abs().max(1.0);
            if gap <= REL_GAP {
                self.proven_bound = bound;
                return true;
            }
        }
        false
    }

    fn run(
        &mut self,
        eval_wave: &mut dyn FnMut(&[DetNode]) -> MilpResult<Vec<Eval>>,
    ) -> MilpResult<()> {
        // Seed the incumbent before the root relaxation, exactly like the
        // serial engine.
        let origin = vec![0.0; self.cm.var_map.len()];
        if let Some((vals, model_obj)) = self.propose(&origin) {
            let min_obj = to_min_space(self.cm, model_obj);
            self.record_incumbent(vals, min_obj);
        }
        if !self.resumed {
            self.frontier.push(ByCanon(DetNode {
                changes: Vec::new(),
                bound: f64::NEG_INFINITY,
                depth: 0,
                basis: None,
            }));
        }
        loop {
            if self.pre_wave_stop() {
                return Ok(());
            }
            // Assemble the wave: the DET_WAVE canonically-best open nodes
            // that survive the incumbent prune.
            let mut wave: Vec<DetNode> = Vec::with_capacity(DET_WAVE);
            while wave.len() < DET_WAVE {
                match self.frontier.pop() {
                    Some(ByCanon(n)) => {
                        if n.bound < self.incumbent_obj() - 1e-9 {
                            wave.push(n);
                        }
                    }
                    None => break,
                }
            }
            if wave.is_empty() {
                // Tree exhausted: the incumbent (if any) is optimal.
                self.proven_bound = self.incumbent_obj();
                return Ok(());
            }
            self.cfg.metrics.waves.inc();
            let mut evals = eval_wave(&wave)?;
            // Certify strictly in canonical (wave) order.
            let mut push_back = false;
            for (node, slot) in wave.into_iter().zip(0..) {
                let eval = std::mem::replace(&mut evals[slot], Eval::Deadline);
                if push_back {
                    self.frontier.push(ByCanon(node));
                    continue;
                }
                self.certify(node, eval, &mut push_back)?;
            }
            if push_back {
                // A deadline interrupted the wave mid-flight; stop with
                // the untouched remainder back on the frontier.
                return Ok(());
            }
        }
    }

    /// Certifies one solved node: the serial `process` logic, minus the LP
    /// solve (already done on a worker) and with children inheriting the
    /// node's optimal basis for their own warm starts.
    fn certify(&mut self, node: DetNode, eval: Eval, push_back: &mut bool) -> MilpResult<()> {
        // Certification-time prune re-check: an incumbent certified
        // earlier in this wave may have overtaken this node's bound.
        if node.bound >= self.incumbent_obj() - 1e-9 {
            return Ok(());
        }
        match eval {
            Eval::Deadline => {
                self.faults.push(SolverFault::DeadlineExceeded);
                self.stopped_early = true;
                self.frontier.push(ByCanon(node));
                *push_back = true;
                Ok(())
            }
            Eval::Pruned(fault) => {
                self.nodes += 1;
                self.cfg.metrics.nodes.inc();
                if let Some(f) = fault {
                    self.faults.push(f);
                }
                self.numerical_prunes += 1;
                Ok(())
            }
            Eval::Fatal(e) => Err(MilpError::Lp(e)),
            Eval::Panicked(msg) => Err(MilpError::Model(format!(
                "parallel LP worker panicked: {msg}"
            ))),
            Eval::Solved {
                status,
                x,
                objective,
                degraded,
                warm,
                iterations,
                basis,
            } => {
                self.nodes += 1;
                self.cfg.metrics.nodes.inc();
                self.lp_stats.record(warm, iterations);
                match status {
                    SolveStatus::Infeasible => return Ok(()),
                    SolveStatus::Unbounded => {
                        self.proven_bound = f64::NEG_INFINITY;
                        return Err(MilpError::Model(
                            "relaxation is unbounded; bound the outer variables".into(),
                        ));
                    }
                    SolveStatus::Optimal => {}
                }
                let obj = if degraded {
                    self.degraded_nodes += 1;
                    node.bound
                } else {
                    objective
                };
                if !degraded && obj >= self.incumbent_obj() - 1e-9 {
                    return Ok(()); // pruned by bound
                }
                let relax_vals = self.cm.extract_values(&x);
                if let Some((vals, model_obj)) = self.propose(&relax_vals) {
                    let min_obj = to_min_space(self.cm, model_obj);
                    self.record_incumbent(vals, min_obj);
                }
                match (
                    most_fractional_binary(self.cm, &x),
                    most_violated_compl(self.cm, &x),
                ) {
                    (None, None) => {
                        if degraded {
                            self.numerical_prunes += 1;
                        } else {
                            let vals = self.cm.extract_values(&x);
                            self.record_incumbent(vals, obj);
                        }
                    }
                    (Some((v, value, _frac)), _) => {
                        let rounded = value.round().clamp(0.0, 1.0);
                        self.push_children(node, v, rounded, 1.0 - rounded, obj, basis);
                    }
                    (None, Some((mult, slack, mval, sval))) => {
                        let (first, second) = if mval <= sval {
                            (mult, slack)
                        } else {
                            (slack, mult)
                        };
                        let mut a = node.changes.clone();
                        a.push((first, 0.0, 0.0));
                        let mut b = node.changes;
                        b.push((second, 0.0, 0.0));
                        let depth = node.depth + 1;
                        self.frontier.push(ByCanon(DetNode {
                            changes: a,
                            bound: obj,
                            depth,
                            basis: basis.clone(),
                        }));
                        self.frontier.push(ByCanon(DetNode {
                            changes: b,
                            bound: obj,
                            depth,
                            basis,
                        }));
                    }
                }
                Ok(())
            }
        }
    }

    fn push_children(
        &mut self,
        node: DetNode,
        v: VarId,
        first: f64,
        second: f64,
        obj: f64,
        basis: Option<Arc<Basis>>,
    ) {
        let mut a = node.changes.clone();
        a.push((v, first, first));
        let mut b = node.changes;
        b.push((v, second, second));
        let depth = node.depth + 1;
        self.frontier.push(ByCanon(DetNode {
            changes: a,
            bound: obj,
            depth,
            basis: basis.clone(),
        }));
        self.frontier.push(ByCanon(DetNode {
            changes: b,
            bound: obj,
            depth,
            basis,
        }));
    }

    fn finish(mut self, start: Instant) -> (MilpSolution, Option<Checkpoint>) {
        let bound_min = if self.stopped_early {
            self.open_bound()
        } else {
            self.proven_bound
        };
        let checkpoint = if self.stopped_early {
            let mut frontier: Vec<FrontierNode> = self
                .frontier
                .drain()
                .map(|ByCanon(n)| (n.changes, n.bound, n.depth))
                .collect();
            // Canonical serialization order: identical frontiers produce
            // identical `to_text` bytes at every thread count.
            frontier.sort_by(|a, b| canon_cmp((&a.0, a.1, a.2), (&b.0, b.1, b.2)));
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
                    traj_axis: TrajAxis::Nodes,
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
            lp_iterations: self.lp_stats.warm_iterations + self.lp_stats.cold_iterations,
            numerical_prunes: self.numerical_prunes,
            solve_time: start.elapsed(),
            trajectory: std::mem::take(&mut self.wall_trajectory),
            faults: std::mem::take(&mut self.faults),
            degraded_nodes: self.degraded_nodes,
            lp_stats: self.lp_stats,
        };
        (solution, checkpoint)
    }
}
