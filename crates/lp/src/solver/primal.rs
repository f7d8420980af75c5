//! Phase-I/II bounded-variable primal simplex iterations.

use super::{Simplex, VarState};
use crate::factor::nonzero_positions;
use crate::solution::SolveStatus;
use crate::sparse::SparseMat;
use crate::{LpError, LpResult};
use metaopt_resilience::{FaultSite, SolverFault};

/// Outcome of one pricing pass.
enum Entering {
    /// Variable index and movement direction (+1 increase, −1 decrease).
    Var(usize, f64),
    OptimalReached,
}

/// The pivot row `α = ρᵀA` of one basis change, accumulated row by row
/// over a transposed copy of the columns, so its cost follows the
/// nonzeros of `ρ = e_posᵀB⁻¹` rather than the column count. The
/// [`Simplex`] keeps one across solves and rebuilds it only when its
/// columns change.
pub(crate) struct PivotRow {
    /// The solver's columns (structural, logical, artificial) row-wise.
    rows: SparseMat,
    pub(super) alpha: Vec<f64>,
    seen: Vec<bool>,
    /// Columns with an entry in a row where `ρ` is nonzero; every other
    /// column has `α_j = 0` and an unchanged reduced cost.
    pub(super) touched: Vec<usize>,
}

impl PivotRow {
    pub(super) fn new(cols: &SparseMat) -> PivotRow {
        let n = cols.n_cols();
        PivotRow {
            rows: cols.transpose(),
            alpha: vec![0.0; n],
            seen: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Forms `α` over `ρ`'s nonzero rows in ascending row order; `rows`
    /// lists, ascending, rows that hold every nonzero of `ρ`. Each `α_j`
    /// is then the very sum `col_dot(j, ρ)` forms: the terms it skips are
    /// exact zeros (the entries of `A` are finite), and adding ±0 to a
    /// sum started at +0 leaves its bits unchanged.
    pub(super) fn compute(&mut self, rho: &[f64], rows: &[usize]) {
        for &j in &self.touched {
            self.alpha[j] = 0.0;
            self.seen[j] = false;
        }
        self.touched.clear();
        for &i in rows {
            let ri = rho[i];
            if ri == 0.0 {
                continue;
            }
            for (j, v) in self.rows.col(i) {
                if !self.seen[j] {
                    self.seen[j] = true;
                    self.touched.push(j);
                }
                self.alpha[j] += ri * v;
            }
        }
    }
}

impl Simplex {
    /// Runs primal iterations until optimality/unboundedness.
    ///
    /// Returns `Optimal` when no eligible entering variable remains, or
    /// `Unbounded` when an improving ray exists.
    pub(crate) fn primal_loop(&mut self) -> LpResult<SolveStatus> {
        let mut row = self.take_pivot_row();
        let out = self.primal_pivots(&mut row);
        self.pivot_row = Some(row);
        out
    }

    fn primal_pivots(&mut self, row: &mut PivotRow) -> LpResult<SolveStatus> {
        let limit = self.auto_iter_limit();
        let total = self.total_vars();
        let mut w = vec![0.0; self.m];
        let mut rho = vec![0.0; self.m];
        // Ascending nonzero positions of `w`, and rows holding ρ's.
        let (mut w_nz, mut rho_rows) = (Vec::new(), Vec::new());
        // Columns rejected this round for tiny pivots; cleared on refactor.
        let mut rejected: Vec<bool> = vec![false; total];
        // Devex reference weights (approximate steepest edge): reset to the
        // unit framework at loop entry and whenever they overflow.
        let mut devex: Vec<f64> = vec![1.0; total];
        // Duals maintained incrementally (y += θ·ρ per pivot); recomputed
        // from scratch at every refactorization.
        let mut y = vec![0.0; self.m];
        self.btran_duals(&mut y);
        // Reduced costs, cached: after y += θ·ρ only the touched columns
        // are refreshed. For finite θ an untouched column's y entries move
        // by ±0, so its cached value equals a fresh `reduced_cost` bit for
        // bit.
        let mut d: Vec<f64> = (0..total).map(|j| self.reduced_cost(j, &y)).collect();
        let mut local_iters = 0usize;
        loop {
            if local_iters > limit {
                return Err(LpError::IterationLimit);
            }
            local_iters += 1;
            if local_iters.is_multiple_of(64) && self.deadline_passed() {
                return Err(LpError::Fault(SolverFault::DeadlineExceeded));
            }

            if self.refactor_due() {
                self.refactor_and_check()?;
                self.btran_duals(&mut y);
                self.refresh_reduced_costs(&y, 0..total, &mut d);
                rejected.iter_mut().for_each(|r| *r = false);
            }

            let bland = self.degen_run >= self.cfg.degen_threshold;
            let entering = self.price(&d, bland, &rejected, &devex);
            let (q, dir) = match entering {
                Entering::OptimalReached => return Ok(SolveStatus::Optimal),
                Entering::Var(q, dir) => (q, dir),
            };

            self.ftran(q, &mut w);
            if self.fire_fault(FaultSite::NanPivot) {
                if let Some(w0) = w.first_mut() {
                    *w0 = f64::NAN;
                }
            }
            nonzero_positions(&w, &mut w_nz);
            if w_nz.iter().any(|&i| !w[i].is_finite()) {
                return Err(LpError::Fault(SolverFault::NumericalBreakdown(format!(
                    "non-finite entering column {q} after FTRAN"
                ))));
            }

            // Ratio test: entering moves by t·dir; basic j at position i
            // changes by −dir·w[i]·t. Start from the bound-flip distance.
            // Zero entries of w never qualify, so the test visits only the
            // nonzeros, in the same ascending order.
            let mut t_max = self.hi[q] - self.lo[q];
            let mut leave: Option<(usize, bool, f64)> = None; // (pos, to_upper, |pivot|)
            let ft = self.cfg.feas_tol;
            let tie = 1e-9;
            for &i in &w_nz {
                let wi = w[i] * dir;
                if wi.abs() <= self.cfg.pivot_tol {
                    continue;
                }
                let j = self.basis[i];
                let xj = self.x[j];
                // x_j(t) = xj − wi·t; it hits `limit_val` at t below.
                let (limit_val, to_upper) = if wi > 0.0 {
                    (self.lo[j], false)
                } else {
                    (self.hi[j], true)
                };
                if !limit_val.is_finite() {
                    continue;
                }
                // Slightly negative ratios (bound drift) clamp to zero.
                let t = ((xj - limit_val) / wi).max(0.0);
                let take = if t < t_max - tie {
                    true
                } else if t <= t_max + tie {
                    // Tie: Bland picks the smallest leaving index (anti-
                    // cycling); otherwise prefer the numerically largest
                    // pivot for stability.
                    match leave {
                        None => t <= t_max,
                        Some((p, _, piv)) => {
                            if bland {
                                self.basis[i] < self.basis[p]
                            } else {
                                wi.abs() > piv
                            }
                        }
                    }
                } else {
                    false
                };
                if take {
                    t_max = t.min(t_max);
                    leave = Some((i, to_upper, wi.abs()));
                }
            }

            if !t_max.is_finite() {
                return Ok(SolveStatus::Unbounded);
            }

            match leave {
                None => {
                    // Bound flip: entering jumps to its opposite bound.
                    let t = t_max;
                    debug_assert!(t.is_finite());
                    for (i, &wi) in w.iter().enumerate().take(self.m) {
                        let j = self.basis[i];
                        self.x[j] -= dir * wi * t;
                    }
                    self.x[q] += dir * t;
                    self.state[q] = if dir > 0.0 {
                        VarState::AtUpper
                    } else {
                        VarState::AtLower
                    };
                    self.iterations += 1;
                    self.degen_run = if t <= ft { self.degen_run + 1 } else { 0 };
                }
                Some((pos, to_upper, _)) => {
                    let t = t_max;
                    let piv = w[pos];
                    if piv.abs() <= self.cfg.pivot_tol {
                        // Numerically unusable pivot; reject this column once.
                        rejected[q] = true;
                        continue;
                    }
                    // Update values.
                    for (i, &wi) in w.iter().enumerate().take(self.m) {
                        let j = self.basis[i];
                        self.x[j] -= dir * wi * t;
                    }
                    let leaving = self.basis[pos];
                    // Clamp the leaving variable exactly onto its bound.
                    self.x[leaving] = if to_upper {
                        self.hi[leaving]
                    } else {
                        self.lo[leaving]
                    };
                    self.state[leaving] = if to_upper {
                        VarState::AtUpper
                    } else {
                        VarState::AtLower
                    };
                    self.x[q] += dir * t;
                    // Shared pivot row ρ = e_posᵀB⁻¹ drives both the dual
                    // update (y += θ·ρ) and the Devex weight update.
                    let theta = d[q] / piv;
                    self.btran_unit(pos, &mut rho, &mut rho_rows);
                    for (yi, ri) in y.iter_mut().zip(&rho) {
                        *yi += theta * ri;
                    }
                    row.compute(&rho, &rho_rows);
                    if theta.is_finite() {
                        self.refresh_reduced_costs(&y, row.touched.iter().copied(), &mut d);
                    } else {
                        // θ·0 is NaN here: every y entry moved.
                        self.refresh_reduced_costs(&y, 0..total, &mut d);
                    }
                    self.update_devex(&mut devex, row, q, piv, leaving);
                    self.update_basis(pos, q, &w, &w_nz);
                    self.iterations += 1;
                    self.degen_run = if t <= ft { self.degen_run + 1 } else { 0 };
                    rejected.iter_mut().for_each(|r| *r = false);
                }
            }
        }
    }

    /// Devex (or Bland, when `bland`) pricing over nonbasic variables,
    /// reading the reduced costs `d`.
    fn price(&self, d: &[f64], bland: bool, rejected: &[bool], devex: &[f64]) -> Entering {
        let tol = self.cfg.opt_tol;
        let mut best: Option<(usize, f64, f64)> = None; // (var, dir, score)
        for j in 0..self.total_vars() {
            if rejected[j] {
                continue;
            }
            let dir = match self.state[j] {
                VarState::Basic(_) => continue,
                VarState::AtLower => {
                    if self.lo[j] >= self.hi[j] {
                        continue; // fixed
                    }
                    1.0
                }
                VarState::AtUpper => {
                    if self.lo[j] >= self.hi[j] {
                        continue;
                    }
                    -1.0
                }
                VarState::FreeZero => 0.0,
            };
            let d = d[j];
            let (dir, score) = if dir == 0.0 {
                // Free variable: move against the gradient.
                if d < -tol {
                    (1.0, -d)
                } else if d > tol {
                    (-1.0, d)
                } else {
                    continue;
                }
            } else if dir > 0.0 {
                if d < -tol {
                    (1.0, -d)
                } else {
                    continue;
                }
            } else if d > tol {
                (-1.0, d)
            } else {
                continue;
            };
            if bland {
                return Entering::Var(j, dir);
            }
            // Devex: rank by d² / reference weight.
            let score = score * score / devex[j];
            match best {
                Some((_, _, s)) if s >= score => {}
                _ => best = Some((j, dir, score)),
            }
        }
        match best {
            Some((j, dir, _)) => Entering::Var(j, dir),
            None => Entering::OptimalReached,
        }
    }
}

impl Simplex {
    /// `d_j = c_j − yᵀa_j` for the columns `js`.
    fn refresh_reduced_costs(&self, y: &[f64], js: impl Iterator<Item = usize>, d: &mut [f64]) {
        for j in js {
            d[j] = self.reduced_cost(j, y);
        }
    }

    /// Devex weight update (Forrest–Goldfarb) after a basis change: with
    /// pivot row α (row `pos` of `B⁻¹A`) and pivot element `alpha_q`,
    ///
    /// ```text
    ///   w_j       := max(w_j, (α_j/α_q)² · w_q)   for nonbasic j
    ///   w_leaving := max(w_q / α_q², 1)
    /// ```
    ///
    /// Only the touched columns can have `α_j ≠ 0`. Weights overflowing
    /// the framework trigger a reset to 1.
    fn update_devex(
        &self,
        devex: &mut [f64],
        row: &PivotRow,
        q: usize,
        alpha_q: f64,
        leaving: usize,
    ) {
        let wq = devex[q].max(1.0);
        let ratio = wq / (alpha_q * alpha_q);
        let mut overflow = false;
        for &j in &row.touched {
            if j == q || matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let alpha_j = row.alpha[j];
            if alpha_j != 0.0 {
                let cand = alpha_j * alpha_j * ratio;
                if cand > devex[j] {
                    devex[j] = cand;
                    if cand > 1e8 {
                        overflow = true;
                    }
                }
            }
        }
        devex[leaving] = ratio.max(1.0);
        if overflow {
            devex.iter_mut().for_each(|v| *v = 1.0);
        }
    }
}
