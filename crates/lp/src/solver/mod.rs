//! Bounded-variable revised simplex over a pluggable basis factorization.
//!
//! Layout: the problem's `n` structural variables are followed by `m`
//! *logical* variables (one per row, holding the row activity) and, during
//! phase I only, up to `m` *artificial* variables. The internal system is
//!
//! ```text
//!   A x_struct − s + G t = 0,     lo <= x <= hi  (per-variable boxes)
//! ```
//!
//! where each logical `s_i` is boxed by its row's activity range. All right
//! hand sides are zero, so every basic solution is `x_B = −B⁻¹ A_N x_N`.
//!
//! * Phase I starts from the all-logical basis and drives artificial
//!   infeasibility to zero (see [`Simplex::solve`]).
//! * Phase II is a textbook bounded-variable primal simplex with Dantzig
//!   pricing and a Bland-rule fallback after long degenerate runs.
//! * [`Simplex::resolve`] re-optimizes after variable-bound or row-range
//!   changes with the dual simplex — the hot operation of branch-and-bound
//!   — and falls back to a cold primal solve when the warm basis is not
//!   dual feasible.
//!
//! All basis linear algebra (FTRAN, BTRAN, rank-one updates, periodic
//! refactorization) goes through [`crate::factor::Factors`], which
//! dispatches to either the dense explicit inverse or the sparse LU
//! engine per [`SimplexConfig::backend`]. The pivot loops never look at
//! the factorization representation directly.

mod basis;
mod dual;
mod primal;

pub use basis::Basis;
use primal::PivotRow;

use crate::factor::{FactorBackend, Factors};
use crate::problem::{LpProblem, RowId, VarId};
use crate::solution::{Solution, SolveStatus};
use crate::sparse::SparseMat;
use crate::{LpError, LpResult};
use metaopt_resilience::{FaultPlan, FaultSite, SolverFault};

/// Primal feasibility tolerance on variable bounds.
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility (reduced-cost) tolerance.
const OPT_TOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-9;

/// Tunable solver parameters.
#[derive(Debug, Clone)]
pub struct SimplexConfig {
    /// Refactorize the basis every this many pivots (the sparse backend
    /// additionally refactorizes early when its eta file outgrows the
    /// base factors).
    pub refactor_every: usize,
    /// Switch to Bland's rule after this many consecutive degenerate pivots.
    pub degen_threshold: usize,
    /// Basis-factorization engine; defaults from `METAOPT_FACTOR`
    /// (sparse LU when unset).
    pub backend: FactorBackend,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        SimplexConfig {
            refactor_every: 512,
            degen_threshold: 400,
            backend: FactorBackend::from_env(),
        }
    }
}

/// Where a variable currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free variable held nonbasic at value zero.
    FreeZero,
}

/// Bounded-variable revised simplex solver.
///
/// Owns mutable copies of the problem data so callers (branch-and-bound) can
/// tighten/relax variable bounds between warm-started re-solves.
///
/// ```
/// use metaopt_lp::{LpProblem, RowSense, Simplex, SolveStatus};
///
/// // max x + y  s.t.  x + 2y <= 4,  0 <= x,y <= 3  (minimize the negation)
/// let mut p = LpProblem::new();
/// let x = p.add_var(0.0, 3.0, -1.0)?;
/// let y = p.add_var(0.0, 3.0, -1.0)?;
/// p.add_row(RowSense::Le, 4.0, [(x, 1.0), (y, 2.0)])?;
/// let sol = Simplex::new(&p).solve()?;
/// assert_eq!(sol.status, SolveStatus::Optimal);
/// assert!((sol.objective + 3.5).abs() < 1e-8); // x = 3, y = 0.5
/// # Ok::<(), metaopt_lp::LpError>(())
/// ```
pub struct Simplex {
    cfg: SimplexConfig,
    /// Structural count.
    n: usize,
    /// Row count.
    m: usize,
    /// Columns for all vars: `n` structural then `m` logical then artificials.
    cols: SparseMat,
    /// Phase-II costs (structural from problem; logical/artificial zero).
    cost: Vec<f64>,
    /// Current working costs (phase I uses artificial costs).
    work_cost: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    obj_offset: f64,

    state: Vec<VarState>,
    /// Variable index occupying each basis position.
    basis: Vec<usize>,
    /// Factorization of the current basis (dense inverse or sparse LU,
    /// per [`SimplexConfig::backend`]).
    factors: Factors,
    /// Current values of *all* variables (basic ones solved, nonbasic at bound).
    x: Vec<f64>,
    /// Row-wise copy of `cols` for the pivot rows of both simplex loops;
    /// built on first use and dropped whenever the columns change
    /// (artificials added or dropped, rows equilibrated).
    pivot_row: Option<PivotRow>,

    pivots_since_refactor: usize,
    degen_run: usize,
    iterations: usize,
    /// Rank-one basis updates performed (pivots that changed the basis,
    /// as opposed to bound flips) across all solves.
    updates: usize,
    /// Artificial variables exist (phase-I leftovers are pinned to zero).
    n_artificials: usize,
    /// Optional wall-clock deadline checked periodically inside the
    /// iteration loops (set by budgeted callers such as branch-and-bound).
    deadline: Option<std::time::Instant>,
    /// Deterministic fault-injection plan (chaos tests only; `None` in
    /// production).
    fault_plan: Option<FaultPlan>,
    /// Row equilibration factors once the recovery ladder rescaled the
    /// constraint rows (`None` until then). Output duals are unscaled by
    /// these factors.
    row_scale: Option<Vec<f64>>,
    /// Last clean optimal point, kept as the recovery ladder's final rung.
    /// Invalidated whenever a bound change makes it infeasible.
    best_feasible: Option<Solution>,
    /// Whether the most recent successful solve finished inside the dual
    /// simplex (a genuine warm re-solve) rather than a cold two-phase run.
    last_warm: bool,
    /// Obs counter handles (no-op by default); flushed as per-solve
    /// deltas so the pivot loops stay untouched.
    metrics: crate::LpMetrics,
}

impl Simplex {
    /// Builds a solver for `p` with default configuration.
    pub fn new(p: &LpProblem) -> Self {
        Self::with_config(p, SimplexConfig::default())
    }

    /// Builds a solver for `p` with the given configuration.
    pub fn with_config(p: &LpProblem, cfg: SimplexConfig) -> Self {
        let n = p.n_vars();
        let m = p.n_rows();
        let mut cols = p.build_matrix();
        // Logical columns: −e_i.
        for i in 0..m {
            cols.push_col([(i, -1.0)]);
        }
        let mut cost = p.obj.clone();
        cost.extend(std::iter::repeat_n(0.0, m));
        let mut lo = p.lo.clone();
        let mut hi = p.hi.clone();
        lo.extend_from_slice(&p.row_lo);
        hi.extend_from_slice(&p.row_hi);
        let total = n + m;
        let factors = Factors::empty(cfg.backend);
        Simplex {
            cfg,
            n,
            m,
            cols,
            work_cost: cost.clone(),
            cost,
            lo,
            hi,
            obj_offset: p.obj_offset,
            state: vec![VarState::AtLower; total],
            basis: Vec::new(),
            factors,
            x: vec![0.0; total],
            pivot_row: None,
            pivots_since_refactor: 0,
            degen_run: 0,
            iterations: 0,
            updates: 0,
            n_artificials: 0,
            deadline: None,
            fault_plan: None,
            row_scale: None,
            best_feasible: None,
            last_warm: false,
            metrics: crate::LpMetrics::disabled(),
        }
    }

    /// Structural variable count.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Row count.
    pub fn n_rows(&self) -> usize {
        self.m
    }

    /// Total pivots performed so far (across all solves).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Basis-factorization backend this solver runs on.
    pub fn backend(&self) -> FactorBackend {
        self.cfg.backend
    }

    /// Rank-one basis updates performed so far (across all solves).
    pub fn basis_updates(&self) -> usize {
        self.updates
    }

    /// Whether the most recent successful solve was a genuine warm dual
    /// re-solve (as opposed to a cold two-phase primal run, which every
    /// recovery-ladder rung and dual-infeasible fallback performs).
    pub fn last_solve_warm(&self) -> bool {
        self.last_warm
    }

    /// Sets (or clears) a wall-clock deadline; iteration loops abort with
    /// [`SolverFault::DeadlineExceeded`] shortly after it passes.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Installs (or clears) a deterministic fault-injection plan. Used by
    /// the chaos suite; production callers leave this `None`.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Installs obs counter handles; solves flush pivot/refactor/mode
    /// deltas into them. Observation never feeds back into pivoting.
    pub fn set_metrics(&mut self, metrics: crate::LpMetrics) {
        self.metrics = metrics;
    }

    fn fire_fault(&self, site: FaultSite) -> bool {
        self.fault_plan.as_ref().is_some_and(|p| p.fire(site))
    }

    pub(crate) fn deadline_passed(&self) -> bool {
        if self.fire_fault(FaultSite::DeadlineNow) {
            return true;
        }
        // an:allow(AN001): the LP deadline is a liveness backstop
        // against real elapsed time; routing it through an injectable
        // clock would let a frozen test clock hang the simplex forever.
        self.deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// Overwrites the bounds of structural variable `v` (for warm re-solves).
    pub fn set_var_bounds(&mut self, v: VarId, lo: f64, hi: f64) -> LpResult<()> {
        if v.0 >= self.n {
            return Err(LpError::BadIndex(format!("var {}", v.0)));
        }
        if lo.is_nan() || hi.is_nan() {
            return Err(LpError::NotFinite(format!("bounds [{lo}, {hi}]")));
        }
        if lo > hi {
            return Err(LpError::EmptyBounds { var: v.0, lo, hi });
        }
        // The cached fallback point is only useful while it stays inside
        // the current box.
        if let Some(best) = &self.best_feasible {
            let bx = best.x[v.0];
            if bx < lo - FEAS_TOL || bx > hi + FEAS_TOL {
                self.best_feasible = None;
            }
        }
        self.lo[v.0] = lo;
        self.hi[v.0] = hi;
        self.glue_nonbasic(v.0);
        Ok(())
    }

    /// Overwrites the activity range `[lo, hi]` of row `r` (for warm
    /// re-solves after a right-hand-side change). The range is the box of
    /// the row's logical variable, so this is [`Simplex::set_var_bounds`]
    /// for that variable: the basis stays dual feasible, and
    /// [`Simplex::resolve`] repairs primal feasibility with the dual
    /// simplex.
    pub fn set_row_bounds(&mut self, r: RowId, lo: f64, hi: f64) -> LpResult<()> {
        if r.0 >= self.m {
            return Err(LpError::BadIndex(format!("row {}", r.0)));
        }
        if lo.is_nan() || hi.is_nan() {
            return Err(LpError::NotFinite(format!("row range [{lo}, {hi}]")));
        }
        if lo > hi {
            return Err(LpError::EmptyRowRange { row: r.0, lo, hi });
        }
        // A cached point carries no row activities to check against the
        // new range, so drop it: the recovery ladder's last rung must never
        // return a point left over from an earlier right-hand side.
        self.best_feasible = None;
        let s = self.n + r.0;
        self.lo[s] = lo;
        self.hi[s] = hi;
        self.glue_nonbasic(s);
        Ok(())
    }

    /// Keeps nonbasic variable `j` on a finite bound of its current box:
    /// the bound it rests at when finite, else the other one, else free at
    /// zero; a free variable whose box no longer holds zero moves to the
    /// bound on zero's side. Basic variables are left alone.
    fn glue_nonbasic(&mut self, j: usize) {
        let (lo, hi) = (self.lo[j], self.hi[j]);
        (self.state[j], self.x[j]) = match self.state[j] {
            VarState::Basic(_) => return,
            VarState::AtLower if lo.is_finite() => (VarState::AtLower, lo),
            VarState::AtUpper if hi.is_finite() => (VarState::AtUpper, hi),
            VarState::AtLower if hi.is_finite() => (VarState::AtUpper, hi),
            VarState::AtUpper if lo.is_finite() => (VarState::AtLower, lo),
            VarState::FreeZero if lo > 0.0 => (VarState::AtLower, lo),
            VarState::FreeZero if hi < 0.0 => (VarState::AtUpper, hi),
            _ => (VarState::FreeZero, 0.0),
        };
    }

    /// Current bounds of structural variable `v`.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        (self.lo[v.0], self.hi[v.0])
    }

    /// Hard cap on the pivots of one pivot loop, scaled by problem size.
    fn iter_limit(&self) -> usize {
        50 * (self.m + self.n) + 20_000
    }

    // ------------------------------------------------------------------
    // Basis-factorization maintenance
    // ------------------------------------------------------------------

    /// Refactorizes the current basis from scratch on the configured
    /// backend (dense Gauss–Jordan inverse or sparse Markowitz LU),
    /// discarding any accumulated rank-one updates.
    pub(crate) fn refactor(&mut self) -> LpResult<()> {
        if self.fire_fault(FaultSite::SingularRefactor) {
            return Err(LpError::Fault(SolverFault::BasisSingular(
                "injected singular refactorization".into(),
            )));
        }
        self.factors.refactorize(&self.cols, &self.basis)?;
        self.pivots_since_refactor = 0;
        self.metrics.refactors.inc();
        Ok(())
    }

    /// Whether the pivot loops should refactorize now: the periodic
    /// pivot-count cadence, or the factorization's own early request
    /// (sparse eta-file growth).
    pub(crate) fn refactor_due(&self) -> bool {
        self.pivots_since_refactor >= self.cfg.refactor_every || self.factors.wants_refactor()
    }

    /// Periodic refactorization plus numerical-health monitoring: after
    /// the fresh factorization the basic values are recomputed and the
    /// primal residual `‖Σ_j a_j x_j‖∞` (every internal right-hand side
    /// is zero) is compared against a scale-aware drift tolerance.
    /// Excessive drift is a numerical breakdown for the recovery ladder.
    pub(crate) fn refactor_and_check(&mut self) -> LpResult<()> {
        self.refactor()?;
        self.recompute_basics();
        let scale = self.x.iter().fold(1.0_f64, |a, v| a.max(v.abs()));
        if !scale.is_finite() {
            return Err(LpError::Fault(SolverFault::NumericalBreakdown(
                "non-finite variable value after refactorization".into(),
            )));
        }
        let drift = self.primal_residual_inf();
        let tol = 1e-6 * scale;
        // An explicit NaN check: a NaN residual must trip the ladder too.
        if drift.is_nan() || drift > tol {
            return Err(LpError::Fault(SolverFault::NumericalBreakdown(format!(
                "primal residual drift {drift:.3e} exceeds {tol:.3e} after refactorization"
            ))));
        }
        Ok(())
    }

    /// `‖Σ_j a_j x_j‖∞` over all columns — zero for an exact basic point.
    pub(crate) fn primal_residual_inf(&self) -> f64 {
        let mut r = vec![0.0; self.m];
        for j in 0..self.total_vars() {
            if self.x[j] != 0.0 {
                self.cols.col_axpy(j, self.x[j], &mut r);
            }
        }
        r.iter().fold(0.0_f64, |a, v| a.max(v.abs()))
    }

    /// `w = B⁻¹ a_j` for variable `j`'s column.
    pub(crate) fn ftran(&mut self, j: usize, out: &mut [f64]) {
        self.factors.ftran_col(&self.cols, j, out);
    }

    /// `y = c_Bᵀ B⁻¹` using the current working costs.
    pub(crate) fn btran_duals(&mut self, y: &mut [f64]) {
        let cost = &self.work_cost;
        self.factors.btran(self.basis.iter().map(|&j| cost[j]), y);
    }

    /// Row `pos` of `B⁻¹` (`ρ = e_posᵀ B⁻¹`): the shared pivot row used
    /// by devex weight updates, incremental dual updates, and the dual
    /// simplex ratio test. Backend-agnostic — the dense engine copies an
    /// inverse row, the sparse engine runs a unit BTRAN. `rows` receives
    /// ascending rows that hold every nonzero of `ρ`.
    pub(crate) fn btran_unit(&mut self, pos: usize, rho: &mut [f64], rows: &mut Vec<usize>) {
        self.factors.btran_unit(pos, rho, rows);
    }

    /// The row-wise copy of the columns for one simplex loop, built if
    /// the columns changed since the last loop put it back.
    pub(crate) fn take_pivot_row(&mut self) -> PivotRow {
        self.pivot_row
            .take()
            .unwrap_or_else(|| PivotRow::new(&self.cols))
    }

    /// Recomputes every basic variable's value from the nonbasic point.
    pub(crate) fn recompute_basics(&mut self) {
        let m = self.m;
        // rhs = −Σ_{nonbasic} a_j x_j
        let mut rhs = vec![0.0; m];
        let total = self.total_vars();
        for j in 0..total {
            if let VarState::Basic(_) = self.state[j] {
                continue;
            }
            let xj = self.x[j];
            if xj != 0.0 {
                self.cols.col_axpy(j, -xj, &mut rhs);
            }
        }
        // x_B = B⁻¹ rhs
        let mut xb = vec![0.0; m];
        self.factors.ftran_dense(&rhs, &mut xb);
        for (pos, v) in xb.into_iter().enumerate() {
            let j = self.basis[pos];
            self.x[j] = v;
        }
    }

    /// Replaces basis position `pos` with variable `entering`; `w` must be
    /// `B⁻¹ a_entering`, with its nonzeros listed in ascending order in
    /// `nz`. Applies the backend's rank-one update (dense elementary row
    /// ops or one product-form eta).
    pub(crate) fn update_basis(&mut self, pos: usize, entering: usize, w: &[f64], nz: &[usize]) {
        self.factors.update(pos, w, nz);
        self.basis[pos] = entering;
        self.state[entering] = VarState::Basic(pos);
        self.pivots_since_refactor += 1;
        self.updates += 1;
    }

    pub(crate) fn total_vars(&self) -> usize {
        self.n + self.m + self.n_artificials
    }

    /// Reduced cost of variable `j` under duals `y`.
    pub(crate) fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        self.work_cost[j] - self.cols.col_dot(j, y)
    }

    /// Removes artificial columns bookkeeping after phase I (they stay in
    /// `cols` but are pinned to `[0, 0]` so they can never re-enter with a
    /// nonzero value).
    fn pin_artificials(&mut self) {
        let start = self.n + self.m;
        let end = self.total_vars();
        for j in start..end {
            self.lo[j] = 0.0;
            self.hi[j] = 0.0;
            if !matches!(self.state[j], VarState::Basic(_)) {
                self.state[j] = VarState::AtLower;
                self.x[j] = 0.0;
            }
        }
    }

    // ------------------------------------------------------------------
    // Public solve entry points
    // ------------------------------------------------------------------

    /// Cold solve: phase-I artificial feasibility search followed by the
    /// phase-II primal simplex, wrapped in the recovery ladder (see
    /// [`Simplex::resolve`] for the ladder description).
    pub fn solve(&mut self) -> LpResult<Solution> {
        self.run_with_recovery(false)
    }

    /// Warm re-solve after bound changes, wrapped in the recovery ladder.
    ///
    /// Recoverable faults (numerical breakdown, singular basis) escalate
    /// through: cold restart → row equilibration → bound perturbation
    /// (bounded retries, results marked degraded) → cached best feasible
    /// point (degraded). Verdict faults (deadline, stall) and genuine
    /// iteration limits propagate immediately — retrying cannot help.
    pub fn resolve(&mut self) -> LpResult<Solution> {
        self.run_with_recovery(true)
    }

    fn run_with_recovery(&mut self, warm: bool) -> LpResult<Solution> {
        let iters_before = self.iterations;
        let updates_before = self.updates;
        let out = self.run_recovery_ladder(warm);
        if out.is_ok() {
            self.metrics.pivots.add((self.iterations - iters_before) as u64);
            self.metrics.updates.add((self.updates - updates_before) as u64);
            if self.last_warm {
                self.metrics.warm_solves.inc();
            } else {
                self.metrics.cold_solves.inc();
            }
        }
        out
    }

    fn run_recovery_ladder(&mut self, warm: bool) -> LpResult<Solution> {
        // An already-expired deadline aborts before any pivoting — the
        // in-loop checks only run every 64 iterations, which tiny problems
        // never reach.
        if self.deadline_passed() {
            return Err(LpError::Fault(SolverFault::DeadlineExceeded));
        }
        let first = if warm {
            self.resolve_raw()
        } else {
            self.solve_raw()
        };
        // The first fault is the most informative one; later rung errors
        // are usually echoes of the same breakdown.
        let first_err = match first {
            Ok(sol) => return Ok(sol),
            Err(e) if e.is_recoverable() => e,
            Err(e) => return Err(e),
        };
        // Rung 1: cold restart — fresh start basis and factorization.
        self.metrics.recovery_cold_restart.inc();
        match self.solve_raw() {
            Ok(sol) => return Ok(sol),
            Err(e) if e.is_recoverable() => {}
            Err(e) => return Err(e),
        }
        // Rung 2: row equilibration, then another cold start.
        self.metrics.recovery_equilibrate.inc();
        self.equilibrate_rows();
        match self.solve_raw() {
            Ok(sol) => return Ok(sol),
            Err(e) if e.is_recoverable() => {}
            Err(e) => return Err(e),
        }
        // Rung 3: bounded bound-perturbation retries. Boxes are expanded
        // by deterministic tiny amounts (never shrunk), so every
        // originally feasible point stays feasible; the optimum may sit
        // ε outside the true box, hence the result is marked degraded.
        let saved_lo = self.lo[..self.n].to_vec();
        let saved_hi = self.hi[..self.n].to_vec();
        for attempt in 1..=2u64 {
            self.metrics.recovery_perturb.inc();
            self.perturb_bounds(attempt);
            let outcome = self.solve_raw();
            self.lo[..self.n].copy_from_slice(&saved_lo);
            self.hi[..self.n].copy_from_slice(&saved_hi);
            self.snap_nonbasic_structurals();
            match outcome {
                Ok(mut sol) => {
                    sol.degraded = true;
                    // ε-outside the true box — never cache as feasible.
                    self.best_feasible = None;
                    return Ok(sol);
                }
                Err(e) if e.is_recoverable() => {}
                Err(e) => return Err(e),
            }
        }
        // Rung 4: the best cached feasible point, degraded (a valid
        // feasible value, not a relaxation optimum).
        if let Some(mut best) = self.best_feasible.clone() {
            self.metrics.recovery_best_feasible.inc();
            best.degraded = true;
            return Ok(best);
        }
        Err(first_err)
    }

    /// Rung-2 recovery: power-of-two row equilibration. Each constraint
    /// row is scaled so its largest structural coefficient lands near 1;
    /// power-of-two factors keep the rescaling exact in floating point.
    /// The scaled system is equivalent (logical variables still carry the
    /// original-unit row activity because their columns scale too);
    /// output duals are mapped back via `y_orig[i] = s_i · y_scaled[i]`
    /// in [`Simplex::extract`].
    fn equilibrate_rows(&mut self) {
        let m = self.m;
        let mut maxabs = vec![0.0_f64; m];
        for j in 0..self.n {
            for (r, v) in self.cols.col(j) {
                maxabs[r] = maxabs[r].max(v.abs());
            }
        }
        let mut scale = vec![1.0_f64; m];
        for (s, &mx) in scale.iter_mut().zip(&maxabs) {
            if mx > 0.0 && mx.is_finite() {
                *s = (-mx.log2()).round().exp2().clamp(1e-8, 1e8);
            }
        }
        self.cols.scale_rows(&scale);
        self.pivot_row = None;
        match &mut self.row_scale {
            Some(prev) => prev.iter_mut().zip(&scale).for_each(|(p, s)| *p *= s),
            None => self.row_scale = Some(scale),
        }
    }

    /// Rung-3 recovery: expands every finite structural bound by a tiny
    /// deterministic amount (variable- and attempt-dependent) to break
    /// the degenerate/singular geometry that defeated the clean solves.
    fn perturb_bounds(&mut self, attempt: u64) {
        for j in 0..self.n {
            let h = (j as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(attempt.wrapping_mul(0xD1B5_4A32_D192_ED03));
            let u = 1.0 + (h >> 54) as f64 / 1024.0; // deterministic in [1, 2)
            if self.lo[j].is_finite() {
                let eps = 1e-9 * (1.0 + self.lo[j].abs()) * u;
                self.lo[j] -= eps;
            }
            if self.hi[j].is_finite() {
                let eps = 1e-9 * (1.0 + self.hi[j].abs()) * u;
                self.hi[j] += eps;
            }
        }
    }

    /// Re-glues nonbasic structural variables onto their (restored)
    /// bounds after a perturbation attempt.
    fn snap_nonbasic_structurals(&mut self) {
        for j in 0..self.n {
            match self.state[j] {
                VarState::AtLower if self.lo[j].is_finite() => self.x[j] = self.lo[j],
                VarState::AtUpper if self.hi[j].is_finite() => self.x[j] = self.hi[j],
                _ => {}
            }
        }
    }

    /// Raw cold solve (no recovery).
    fn solve_raw(&mut self) -> LpResult<Solution> {
        self.last_warm = false;
        self.start_basis()?;
        // Phase I only if artificials carry weight.
        let infeas: f64 = (self.n + self.m..self.total_vars())
            .map(|j| self.x[j])
            .sum();
        if infeas > FEAS_TOL {
            // Minimize the sum of artificials.
            let total = self.total_vars();
            self.work_cost = vec![0.0; total];
            for j in self.n + self.m..total {
                self.work_cost[j] = 1.0;
            }
            let st = self.primal_loop()?;
            if st == SolveStatus::Unbounded {
                return Err(LpError::Numerical(
                    "phase-I objective unbounded (internal bug)".into(),
                ));
            }
            let resid: f64 = (self.n + self.m..self.total_vars())
                .map(|j| self.x[j].max(0.0))
                .sum();
            if resid > FEAS_TOL.max(1e-6) {
                return Ok(self.extract(SolveStatus::Infeasible));
            }
        }
        self.pin_artificials();
        // Phase II.
        self.work_cost = self.cost.clone();
        // Pad working costs for artificial columns.
        self.work_cost.resize(self.total_vars(), 0.0);
        let st = self.primal_loop()?;
        Ok(self.extract(st))
    }

    /// Raw warm re-solve after bound changes (no recovery): runs the dual
    /// simplex from the current basis; falls back to a raw cold solve if
    /// the basis is not dual feasible (or was never initialized).
    fn resolve_raw(&mut self) -> LpResult<Solution> {
        if self.basis.len() != self.m {
            return self.solve_raw();
        }
        self.work_cost = self.cost.clone();
        self.work_cost.resize(self.total_vars(), 0.0);
        // Snap nonbasic variables to bounds that may have moved, then refresh
        // basic values.
        self.recompute_basics();
        match self.dual_loop()? {
            Some(st) => {
                self.last_warm = true;
                Ok(self.extract(st))
            }
            None => self.solve_raw(), // not dual feasible — cold start
        }
    }

    /// Drops artificial columns left over from a previous phase-I run.
    /// (`SparseMat` cannot pop columns; rebuild bookkeeping instead.)
    pub(crate) fn drop_artificials(&mut self) {
        if self.n_artificials == 0 {
            return;
        }
        let (n, m) = (self.n, self.m);
        let mut cols = SparseMat::new(m);
        for j in 0..n + m {
            cols.push_col(self.cols.col(j));
        }
        self.cols = cols;
        self.pivot_row = None;
        self.lo.truncate(n + m);
        self.hi.truncate(n + m);
        self.cost.truncate(n + m);
        self.state.truncate(n + m);
        self.x.truncate(n + m);
        self.n_artificials = 0;
    }

    /// Initializes the all-logical basis plus artificials for violated rows.
    fn start_basis(&mut self) -> LpResult<()> {
        let n = self.n;
        let m = self.m;
        self.drop_artificials();

        // Nonbasic structurals at their preferred bound.
        for j in 0..n {
            let (l, h) = (self.lo[j], self.hi[j]);
            if l.is_finite() {
                self.state[j] = VarState::AtLower;
                self.x[j] = l;
            } else if h.is_finite() {
                self.state[j] = VarState::AtUpper;
                self.x[j] = h;
            } else {
                self.state[j] = VarState::FreeZero;
                self.x[j] = 0.0;
            }
        }
        // Row activities at that point.
        let mut act = vec![0.0; m];
        for j in 0..n {
            if self.x[j] != 0.0 {
                self.cols.col_axpy(j, self.x[j], &mut act);
            }
        }
        self.basis.clear();
        let mut artificial_cols: Vec<(usize, f64, f64)> = Vec::new(); // (row, sign, value)
        for (i, &ai) in act.iter().enumerate().take(m) {
            let s = n + i;
            let (rl, rh) = (self.lo[s], self.hi[s]);
            if ai < rl - FEAS_TOL {
                // Clamp logical at lower bound; artificial covers the gap.
                self.state[s] = VarState::AtLower;
                self.x[s] = rl;
                artificial_cols.push((i, 1.0, rl - ai));
            } else if ai > rh + FEAS_TOL {
                self.state[s] = VarState::AtUpper;
                self.x[s] = rh;
                artificial_cols.push((i, -1.0, ai - rh));
            } else {
                // Logical basic carrying the activity.
                self.state[s] = VarState::Basic(self.basis.len());
                self.x[s] = ai;
                self.basis.push(s);
            }
        }
        if !artificial_cols.is_empty() {
            self.pivot_row = None;
        }
        for (i, sign, value) in artificial_cols {
            let col = self.cols.push_col([(i, sign)]);
            debug_assert_eq!(col, self.lo.len());
            self.lo.push(0.0);
            self.hi.push(crate::problem::INF);
            self.cost.push(0.0);
            self.state.push(VarState::Basic(self.basis.len()));
            self.x.push(value);
            self.basis.push(col);
            self.n_artificials += 1;
        }
        // Order basis by row for a clean initial inverse, then factorize.
        // (basis currently holds one var per row already, but positions are
        // interleaved; fix the recorded positions.)
        let order: Vec<usize> = {
            let mut per_row: Vec<Option<usize>> = vec![None; m];
            for &j in &self.basis {
                // Each initial basis column has exactly one nonzero row; a
                // violation means the column store is corrupt — surface it
                // as a recoverable singular-basis fault, never a panic.
                let Some((r, _)) = self.cols.col(j).next() else {
                    return Err(LpError::Fault(SolverFault::BasisSingular(format!(
                        "initial basis column {j} is empty"
                    ))));
                };
                per_row[r] = Some(j);
            }
            let mut order = Vec::with_capacity(m);
            for (i, o) in per_row.into_iter().enumerate() {
                match o {
                    Some(j) => order.push(j),
                    None => {
                        return Err(LpError::Fault(SolverFault::BasisSingular(format!(
                            "no basis variable covers row {i} in the start basis"
                        ))))
                    }
                }
            }
            order
        };
        self.basis = order;
        for (pos, &j) in self.basis.iter().enumerate() {
            self.state[j] = VarState::Basic(pos);
        }
        self.refactor()?;
        self.recompute_basics();
        self.degen_run = 0;
        Ok(())
    }

    /// Packages the current point into a [`Solution`] for the caller.
    fn extract(&mut self, status: SolveStatus) -> Solution {
        let mut y = {
            // Duals under the *original* costs.
            let saved = std::mem::replace(&mut self.work_cost, self.cost.clone());
            self.work_cost.resize(self.total_vars(), 0.0);
            let mut y = vec![0.0; self.m];
            self.btran_duals(&mut y);
            self.work_cost = saved;
            y
        };
        // Reduced costs use the (possibly row-scaled) columns with the
        // matching scaled duals — the products are scale-invariant.
        let mut reduced = vec![0.0; self.n];
        for (j, rj) in reduced.iter_mut().enumerate() {
            *rj = self.cost[j] - self.cols.col_dot(j, &y);
        }
        // Row dual y_i is the multiplier of row i: reduced cost of the
        // logical variable is `0 − yᵀ(−e_i) = y_i`. When the recovery
        // ladder rescaled the rows, map duals back to original units.
        if let Some(s) = &self.row_scale {
            for (yi, si) in y.iter_mut().zip(s) {
                *yi *= si;
            }
        }
        let x = self.x[..self.n].to_vec();
        let objective = if status == SolveStatus::Optimal {
            self.cost[..self.n]
                .iter()
                .zip(x.iter())
                .map(|(c, v)| c * v)
                .sum::<f64>()
                + self.obj_offset
        } else {
            f64::NAN
        };
        let solution = Solution {
            status,
            x,
            objective,
            duals: y,
            reduced_costs: reduced,
            iterations: self.iterations,
            degraded: false,
        };
        if status == SolveStatus::Optimal {
            // Last rung of the recovery ladder: remember the point.
            self.best_feasible = Some(solution.clone());
        }
        solution
    }
}
