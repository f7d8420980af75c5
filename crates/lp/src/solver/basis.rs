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
//! The intended lifecycle in branch-and-bound: solve the parent node's LP,
//! [`Simplex::snapshot_basis`] its optimal basis, create the two children by
//! tightening a single variable's bounds, and start each child's solve with
//! [`Simplex::resolve_from`] (in `dual.rs`) — install the parent basis, then
//! let the dual simplex repair the one freshly violated bound in a handful
//! of pivots instead of re-solving from scratch.

use super::{Simplex, VarState};
use crate::{LpError, LpResult};

/// An opaque snapshot of a simplex basis: the basic/nonbasic status of the
/// `n` structural and `m` logical variables plus the variable occupying each
/// basis position. Carries no factorization and no values, so it stays valid
/// (and cheaply cloneable/shareable) across bound changes and across solver
/// instances built from the same problem shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Location of each of the `n + m` structural/logical variables.
    pub(crate) state: Vec<VarState>,
    /// Variable index occupying each of the `m` basis positions.
    pub(crate) order: Vec<usize>,
}

impl Basis {
    /// Number of basis positions (= rows of the source problem).
    pub fn n_rows(&self) -> usize {
        self.order.len()
    }

    /// Number of variables covered (structural + logical).
    pub fn n_cols(&self) -> usize {
        self.state.len()
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
            state: self.state[..total].to_vec(),
            order: self.basis.clone(),
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
        if b.state.len() != total || b.order.len() != self.m {
            return Err(LpError::BadIndex(format!(
                "basis shaped {}x{} does not fit problem with {} vars / {} rows",
                b.order.len(),
                b.state.len(),
                self.n,
                self.m
            )));
        }
        for (pos, &j) in b.order.iter().enumerate() {
            if j >= total || b.state[j] != VarState::Basic(pos) {
                return Err(LpError::BadIndex(format!(
                    "basis position {pos} and state of variable {j} disagree"
                )));
            }
        }
        self.drop_artificials();
        self.state.copy_from_slice(&b.state);
        self.basis.clone_from(&b.order);
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
