//! Basis snapshot/install — the warm-start handoff between branch-and-bound
//! nodes.
//!
//! A [`Basis`] records *where every variable lives* (basic position or which
//! bound it rests at) without any numerical payload: the basis inverse, the
//! variable values, and the bounds are all recomputed on install. That makes
//! a snapshot cheap to clone and share across threads, and — crucially for
//! the deterministic parallel mode — makes the re-solve started from it a
//! pure function of (problem, bound changes, snapshot), independent of
//! whichever worker's `Simplex` performs it.
//!
//! Branch-and-bound keeps one snapshot per open node, so the layout is
//! compact: one byte per variable for where it rests and a `u32` per row
//! for the basis order (12.5 KB for the 2000-row, 2528-column B4 DP LP).
//! The basic positions are rebuilt from the order on install.
//!
//! The intended lifecycle in branch-and-bound: solve the parent node's LP,
//! [`Simplex::snapshot_basis`] its optimal basis, create the two children by
//! tightening a single variable's bounds, and start each child's solve with
//! [`Simplex::resolve_from`] (in `dual.rs`) — install the parent basis, then
//! let the dual simplex repair the one freshly violated bound in a handful
//! of pivots instead of re-solving from scratch.

use super::{Simplex, VarState};
use crate::{LpError, LpResult};

/// Where a variable rests in a [`Basis`] snapshot: [`VarState`] without
/// the basic position, which the snapshot's order carries instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rest {
    Basic,
    AtLower,
    AtUpper,
    FreeZero,
}

impl From<VarState> for Rest {
    fn from(s: VarState) -> Self {
        match s {
            VarState::Basic(_) => Rest::Basic,
            VarState::AtLower => Rest::AtLower,
            VarState::AtUpper => Rest::AtUpper,
            VarState::FreeZero => Rest::FreeZero,
        }
    }
}

/// An opaque snapshot of a simplex basis: where each of the `n`
/// structural and `m` logical variables rests, plus the variable
/// occupying each basis position. Carries no factorization and no values,
/// so it stays valid (and cheaply cloneable/shareable) across bound
/// changes and across solver instances built from the same problem shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Where each of the `n + m` structural/logical variables rests.
    pub(crate) rest: Vec<Rest>,
    /// Variable index occupying each of the `m` basis positions.
    pub(crate) order: Vec<u32>,
}

impl Basis {
    /// Number of basis positions (= rows of the source problem).
    pub fn n_rows(&self) -> usize {
        self.order.len()
    }

    /// Number of variables covered (structural + logical).
    pub fn n_cols(&self) -> usize {
        self.rest.len()
    }
}

impl Simplex {
    /// Snapshots the current basis, or `None` when no factorized basis
    /// exists yet or phase-I artificial variables are still basic (such a
    /// basis cannot be transplanted into a solver that has no artificial
    /// columns; callers simply cold-start instead).
    pub fn snapshot_basis(&self) -> Option<Basis> {
        let total = self.n + self.m;
        if self.basis.len() != self.m {
            return None;
        }
        if self.basis.iter().any(|&j| j >= total) {
            return None; // an artificial is basic
        }
        Some(Basis {
            rest: self.state[..total].iter().map(|&s| Rest::from(s)).collect(),
            order: self
                .basis
                .iter()
                .map(|&j| u32::try_from(j).ok())
                .collect::<Option<_>>()?,
        })
    }

    /// Installs a snapshot taken from a solver of the same problem shape:
    /// adopts its basic/nonbasic assignment, snaps nonbasic variables onto
    /// the *current* bounds (which may have moved since the snapshot —
    /// that is the whole point), refactorizes, and recomputes basic values.
    ///
    /// Fails with [`LpError::BadIndex`] on a shape mismatch and with a
    /// recoverable singular-basis fault when the snapshot basis is singular
    /// for the current column data; after a failure the solver is left for
    /// a cold [`Simplex::solve`] to rebuild from scratch.
    pub fn install_basis(&mut self, b: &Basis) -> LpResult<()> {
        let total = self.n + self.m;
        if b.rest.len() != total || b.order.len() != self.m {
            return Err(LpError::BadIndex(format!(
                "basis shaped {}x{} does not fit problem with {} vars / {} rows",
                b.order.len(),
                b.rest.len(),
                self.n,
                self.m
            )));
        }
        // The order must name every basic variable exactly once.
        let basic = b.rest.iter().filter(|&&r| r == Rest::Basic).count();
        if basic != self.m {
            return Err(LpError::BadIndex(format!(
                "basis marks {basic} variables basic for {} positions",
                self.m
            )));
        }
        let mut placed = vec![false; total];
        for (pos, &j) in b.order.iter().enumerate() {
            let j = j as usize;
            if j >= total || b.rest[j] != Rest::Basic || std::mem::replace(&mut placed[j], true) {
                return Err(LpError::BadIndex(format!(
                    "basis position {pos} and state of variable {j} disagree"
                )));
            }
        }
        self.drop_artificials();
        for (s, &r) in self.state.iter_mut().zip(&b.rest) {
            *s = match r {
                // Overwritten with its position from the order below.
                Rest::Basic => VarState::Basic(0),
                Rest::AtLower => VarState::AtLower,
                Rest::AtUpper => VarState::AtUpper,
                Rest::FreeZero => VarState::FreeZero,
            };
        }
        self.basis.clear();
        self.basis.extend(b.order.iter().map(|&j| j as usize));
        for (pos, &j) in self.basis.iter().enumerate() {
            self.state[j] = VarState::Basic(pos);
        }
        // Nonbasic variables onto their recorded bound, with the same
        // preferred-bound fallback as a cold start when that bound is not
        // finite under the current box.
        for j in 0..total {
            self.glue_nonbasic(j);
        }
        self.refactor()?;
        self.recompute_basics();
        self.degen_run = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, RowSense, SolveStatus};

    /// `max x + y  s.t.  x + 2y <= 4,  x - y <= 1,  0 <= x,y <= 3`, solved:
    /// both rows bind, so the basis holds two positions.
    fn solved() -> Simplex {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 3.0, -1.0).unwrap();
        let y = p.add_var(0.0, 3.0, -1.0).unwrap();
        p.add_row(RowSense::Le, 4.0, [(x, 1.0), (y, 2.0)]).unwrap();
        p.add_row(RowSense::Le, 1.0, [(x, 1.0), (y, -1.0)]).unwrap();
        let mut s = Simplex::new(&p);
        assert_eq!(s.solve().unwrap().status, SolveStatus::Optimal);
        s
    }

    #[test]
    fn install_rebuilds_basic_positions_from_the_order() {
        let mut s = solved();
        let b = s.snapshot_basis().unwrap();
        let (state, order) = (s.state.clone(), s.basis.clone());
        s.install_basis(&b).unwrap();
        assert_eq!(s.state, state);
        assert_eq!(s.basis, order);
        assert_eq!(s.snapshot_basis(), Some(b));
    }

    #[test]
    fn snapshots_that_misplace_a_basic_variable_are_rejected() {
        let mut s = solved();
        let good = s.snapshot_basis().unwrap();
        let nonbasic = good.rest.iter().position(|&r| r != Rest::Basic).unwrap();
        let mut repeated = good.clone();
        repeated.order[1] = repeated.order[0];
        let mut names_nonbasic = good.clone();
        names_nonbasic.order[0] = u32::try_from(nonbasic).unwrap();
        let mut extra_basic = good.clone();
        extra_basic.rest[nonbasic] = Rest::Basic;
        for bad in [repeated, names_nonbasic, extra_basic] {
            assert!(matches!(s.install_basis(&bad), Err(LpError::BadIndex(_))));
        }
        assert_eq!(s.resolve_from(&good).unwrap().status, SolveStatus::Optimal);
        assert!(s.last_solve_warm());
    }
}
