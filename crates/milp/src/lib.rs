#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # metaopt-milp
//!
//! Branch-and-bound for the mixed structures the paper's single-shot
//! rewrite produces (§3.1): linear programs augmented with
//!
//! * **binary variables** (from big-M/indicator encodings of conditional
//!   heuristics such as Demand Pinning, §3.2), and
//! * **complementarity pairs** `λ · s = 0` (from the KKT rewrite's
//!   complementary slackness) — the "SOS constraints" of the paper's
//!   Figure 6, branched on disjunctively exactly like Gurobi's SOS1
//!   feature: one child fixes `λ = 0`, the other fixes `s = 0`.
//!
//! The search is a best-bound/diving hybrid over warm-started dual-simplex
//! re-solves (`metaopt-lp`), with:
//!
//! * an **incumbent callback** so domain layers can turn any relaxation
//!   point into a true feasible solution (the adversarial-gap layer
//!   evaluates the candidate demands against the *real* heuristic — the
//!   reason good solutions appear quickly, mirroring the paper's
//!   observation about solver behaviour),
//! * the paper's §3.3 **stop rules**: wall-clock budget, relative
//!   primal-dual gap, and the stall rule ("incremental progress in a given
//!   time window smaller than 0.5%"),
//! * full trajectory recording (best objective vs. time) for Figure 3,
//! * two interchangeable tree-search engines (see [`ParallelMode`]): the
//!   serial search and a **deterministic parallel** engine whose certified
//!   results and checkpoints are bit-identical at any thread count. Both
//!   solve every node LP but the root from its parent's optimal basis
//!   (the live one, or a [`metaopt_lp::Basis`] snapshot).

mod metrics;
mod parallel;
mod solver;
mod sweep;

pub use metrics::MilpMetrics;
pub use parallel::{env_threads, ParallelMode};
pub use solver::{
    solve, solve_resumable, solve_with_callback, Checkpoint, CheckpointParseError,
    IncumbentCallback, LpSolveStats, MilpConfig, MilpSolution, MilpStatus,
};
pub use sweep::SweepMachine;

pub use metaopt_lp::FactorBackend;

/// The workspace-wide certification tolerance: a witness counts for a
/// threshold `g` when its re-measured value reaches `g − CERT_TOL`, and
/// the branch-and-bound target-objective stop rule accepts an incumbent
/// within `CERT_TOL` of the requested target. One named constant so the
/// sweep's acceptance test, the finder's witness vetting, and the solver's
/// early-stop rule can never drift apart.
pub const CERT_TOL: f64 = 1e-6;

pub use metaopt_resilience::{Budget, FaultPlan, FaultSite, SolverFault};

/// Errors raised by the branch-and-bound layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// The underlying LP solver failed irrecoverably.
    Lp(metaopt_lp::LpError),
    /// Model could not be compiled.
    Model(String),
}

impl std::fmt::Display for MilpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MilpError::Lp(e) => write!(f, "lp failure: {e}"),
            MilpError::Model(s) => write!(f, "model failure: {s}"),
        }
    }
}

impl std::error::Error for MilpError {}

impl From<metaopt_lp::LpError> for MilpError {
    fn from(e: metaopt_lp::LpError) -> Self {
        MilpError::Lp(e)
    }
}

impl From<metaopt_model::ModelError> for MilpError {
    fn from(e: metaopt_model::ModelError) -> Self {
        MilpError::Model(e.to_string())
    }
}

/// Result alias for this crate.
pub type MilpResult<T> = Result<T, MilpError>;
