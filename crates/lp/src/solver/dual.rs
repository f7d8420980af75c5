//! Bounded-variable dual simplex used for warm-started re-solves.
//!
//! Branch-and-bound tightens or relaxes variable bounds between solves.
//! Bound changes never disturb dual feasibility of a basis (reduced costs
//! depend only on the basis), so the dual simplex restores primal
//! feasibility in a handful of pivots instead of re-solving from scratch.

use super::{Basis, PivotRow, Simplex, VarState};
use crate::factor::nonzero_positions;
use crate::solution::{Solution, SolveStatus};
use crate::{LpError, LpResult};
use metaopt_resilience::SolverFault;

impl Simplex {
    /// Warm-start entry point for branch-and-bound: installs `basis`
    /// (typically the parent node's optimal basis), then re-optimizes with
    /// the dual simplex — bound changes never disturb dual feasibility, so
    /// after a single-variable tightening this usually takes a handful of
    /// pivots. Falls back to a cold two-phase solve when the snapshot is
    /// singular for the current data or turns out not dual feasible; shape
    /// mismatches (a basis from a differently-sized problem) are an error.
    pub fn resolve_from(&mut self, basis: &Basis) -> LpResult<Solution> {
        match self.install_basis(basis) {
            Ok(()) => self.resolve(),
            Err(e) if e.is_recoverable() => self.solve(),
            Err(e) => Err(e),
        }
    }

    /// Runs dual-simplex iterations from the current basis.
    ///
    /// Returns `Ok(Some(status))` on a conclusion, or `Ok(None)` if the
    /// starting basis is not dual feasible (caller should cold-start).
    pub(crate) fn dual_loop(&mut self) -> LpResult<Option<SolveStatus>> {
        if !self.restore_dual_feasibility() {
            return Ok(None);
        }
        let mut row = self.take_pivot_row();
        let out = self.dual_pivots(&mut row);
        self.pivot_row = Some(row);
        out
    }

    fn dual_pivots(&mut self, row: &mut PivotRow) -> LpResult<Option<SolveStatus>> {
        let limit = self.auto_iter_limit();
        let mut w = vec![0.0; self.m];
        let mut rho = vec![0.0; self.m];
        let mut y = vec![0.0; self.m];
        // Ascending nonzero positions of `w`, and rows holding ρ's.
        let (mut w_nz, mut rho_rows) = (Vec::new(), Vec::new());
        let mut local_iters = 0usize;
        // Degenerate-pivot streak: the dual simplex has no Bland rule, so a
        // long streak hands control back to the (anti-cycling) primal
        // cold-start path instead of risking a cycle.
        let mut degen_streak = 0usize;
        // Dual devex reference weights, one per basis position
        // (approximate dual steepest edge, Forrest–Goldfarb): the
        // leaving row maximizes violation²/γ instead of the raw
        // violation, which scales out row norms.
        let mut gamma: Vec<f64> = vec![1.0; self.m];
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
            }

            // Leaving: the basic variable with the largest devex-scaled
            // bound violation.
            let ft = self.cfg.feas_tol;
            let mut leave: Option<(usize, f64, f64)> = None; // (pos, score, target)
            for (i, &g) in gamma.iter().enumerate().take(self.m) {
                let j = self.basis[i];
                let xj = self.x[j];
                let (viol, target) = if xj < self.lo[j] - ft {
                    (self.lo[j] - xj, self.lo[j])
                } else if xj > self.hi[j] + ft {
                    (xj - self.hi[j], self.hi[j])
                } else {
                    continue;
                };
                let score = viol * viol / g;
                if leave.as_ref().is_none_or(|&(_, bs, _)| score > bs) {
                    leave = Some((i, score, target));
                }
            }
            let (pos, _, target) = match leave {
                None => return Ok(Some(SolveStatus::Optimal)),
                Some(l) => l,
            };
            let leaving = self.basis[pos];
            let delta = self.x[leaving] - target; // >0 if above upper, <0 if below lower

            // Pivot row ρ = e_posᵀ B⁻¹ (backend-agnostic unit BTRAN).
            self.btran_unit(pos, &mut rho, &mut rho_rows);
            self.btran_duals(&mut y);

            // Entering: among nonbasic j whose movement can pull the leaving
            // variable onto `target`, pick the one preserving dual
            // feasibility (min |d_j / α_j|).
            //
            // ∂x_B[pos]/∂x_j = −α_j with α_j = ρᵀ a_j. If delta > 0 we must
            // decrease x_B[pos]: j at lower (Δx_j ≥ 0) requires α_j > 0,
            // j at upper requires α_j < 0. If delta < 0, signs flip.
            //
            // α is formed row-wise over ρ's nonzero rows. A column it does
            // not touch has α_j = 0, which every branch below skips, so
            // scanning the touched columns in ascending order finds the
            // same entering variable as a scan over all of them.
            row.compute(&rho, &rho_rows);
            row.touched.sort_unstable();
            let mut best: Option<(usize, f64, f64)> = None; // (var, alpha, ratio)
            for &j in &row.touched {
                let at_lower = match self.state[j] {
                    VarState::Basic(_) => continue,
                    VarState::AtLower => true,
                    VarState::AtUpper => false,
                    VarState::FreeZero => {
                        // Free nonbasic variables can move either way; they
                        // are always eligible if α_j is significant.
                        let alpha = row.alpha[j];
                        if alpha.abs() <= self.cfg.pivot_tol {
                            continue;
                        }
                        // A free variable has reduced cost ~0; it is the
                        // ideal entering candidate.
                        best = Some((j, alpha, 0.0));
                        break;
                    }
                };
                if self.lo[j] >= self.hi[j] {
                    continue; // fixed variables cannot move
                }
                let alpha = row.alpha[j];
                if alpha.abs() <= self.cfg.pivot_tol {
                    continue;
                }
                let eligible = if delta > 0.0 {
                    (at_lower && alpha > 0.0) || (!at_lower && alpha < 0.0)
                } else {
                    (at_lower && alpha < 0.0) || (!at_lower && alpha > 0.0)
                };
                if !eligible {
                    continue;
                }
                let d = self.reduced_cost(j, &y);
                let ratio = (d / alpha).abs();
                if best.as_ref().is_none_or(|&(_, ba, br)| {
                    ratio < br - 1e-12 || (ratio <= br + 1e-12 && alpha.abs() > ba.abs())
                }) {
                    best = Some((j, alpha, ratio));
                }
            }

            let (q, alpha_q, _) = match best {
                None => return Ok(Some(SolveStatus::Infeasible)),
                Some(b) => b,
            };

            // Entering step: x_B[pos] moves from its current value to target
            // as x_q changes by Δ = delta / α_q.
            let step = delta / alpha_q;
            let d_q = self.reduced_cost(q, &y);
            if d_q.abs() <= self.cfg.opt_tol {
                degen_streak += 1;
                if degen_streak > self.cfg.degen_threshold {
                    return Ok(None); // cold-start with Bland protection
                }
            } else {
                degen_streak = 0;
            }
            self.ftran(q, &mut w);
            nonzero_positions(&w, &mut w_nz);
            if w_nz.iter().any(|&i| !w[i].is_finite()) || !step.is_finite() {
                return Err(LpError::Fault(SolverFault::NumericalBreakdown(format!(
                    "non-finite dual pivot data for entering column {q}"
                ))));
            }
            for (i, &wi) in w.iter().enumerate().take(self.m) {
                let j = self.basis[i];
                self.x[j] -= wi * step;
            }
            self.x[leaving] = target;
            self.state[leaving] = if (target - self.lo[leaving]).abs() <= ft {
                VarState::AtLower
            } else {
                VarState::AtUpper
            };
            self.x[q] += step;
            // Dual devex weight update (Forrest–Goldfarb): with pivot
            // element w_r = w[pos], the reference weight of the pivot
            // row propagates through the entering column:
            //   γ_i ← max(γ_i, (w_i/w_r)²·γ_r),  γ_r ← max(γ_r/w_r², 1).
            let wr = w[pos];
            let gr = gamma[pos];
            let inv_wr2 = 1.0 / (wr * wr);
            let mut overflow = false;
            for &i in &w_nz {
                if i == pos {
                    continue;
                }
                let wi = w[i];
                let cand = wi * wi * inv_wr2 * gr;
                if cand > gamma[i] {
                    gamma[i] = cand;
                    if cand > 1e8 {
                        overflow = true;
                    }
                }
            }
            gamma[pos] = (gr * inv_wr2).max(1.0);
            if overflow {
                gamma.iter_mut().for_each(|g| *g = 1.0);
            }
            self.update_basis(pos, q, &w, &w_nz);
            self.iterations += 1;
        }
    }

    /// Flips nonbasic variables whose reduced-cost sign disagrees with the
    /// bound they sit at (possible after bound relaxation). Returns false if
    /// dual feasibility cannot be restored by flips alone.
    fn restore_dual_feasibility(&mut self) -> bool {
        let mut y = vec![0.0; self.m];
        self.btran_duals(&mut y);
        let tol = self.cfg.opt_tol.max(1e-6);
        let mut flipped = false;
        for j in 0..self.total_vars() {
            match self.state[j] {
                VarState::Basic(_) => {}
                VarState::FreeZero => {
                    let d = self.reduced_cost(j, &y);
                    if d.abs() > tol {
                        return false; // free var with nonzero reduced cost
                    }
                }
                VarState::AtLower => {
                    let d = self.reduced_cost(j, &y);
                    if d < -tol {
                        if self.hi[j].is_finite() {
                            self.state[j] = VarState::AtUpper;
                            self.x[j] = self.hi[j];
                            flipped = true;
                        } else {
                            return false;
                        }
                    }
                }
                VarState::AtUpper => {
                    let d = self.reduced_cost(j, &y);
                    if d > tol {
                        if self.lo[j].is_finite() {
                            self.state[j] = VarState::AtLower;
                            self.x[j] = self.lo[j];
                            flipped = true;
                        } else {
                            return false;
                        }
                    }
                }
            }
        }
        if flipped {
            self.recompute_basics();
        }
        true
    }
}
