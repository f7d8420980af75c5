//! Solve outcomes reported by the simplex solver.

/// Terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below (for the minimization form).
    Unbounded,
}

/// A solved LP: primal point, duals, and bookkeeping.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Terminal status. `x`/`duals` are only meaningful for `Optimal`.
    pub status: SolveStatus,
    /// Primal values per problem variable.
    pub x: Vec<f64>,
    /// Objective value `cᵀx + offset` (minimization form).
    pub objective: f64,
    /// Row duals `y` (one per row). Sign convention: for the minimization
    /// form, an active `<=` row has `y <= 0`… — see crate tests; callers in
    /// this workspace use [`Solution::duals`] only for verification, the KKT
    /// rewrite builds its own multipliers symbolically.
    pub duals: Vec<f64>,
    /// Reduced costs per problem variable (`c_j - yᵀ a_j`).
    pub reduced_costs: Vec<f64>,
    /// Total simplex pivots across phases.
    pub iterations: usize,
    /// True when the point came out of the recovery ladder's degraded
    /// rungs (perturbed bounds or a cached earlier feasible point) rather
    /// than a clean optimal basis. Degraded objectives are valid values of
    /// feasible points but must not be used as relaxation bounds.
    pub degraded: bool,
}

impl Solution {
    /// Dual value of row `i`.
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }
}
