#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # metaopt-te
//!
//! The WAN traffic-engineering domain of the paper (§2): multi-commodity
//! flow over pre-chosen paths, the optimal scheme, and the two production
//! heuristics whose optimality gaps the paper studies.
//!
//! * [`TeInstance`] — a topology plus demand pairs plus k-shortest path
//!   sets (Table 1's `V, E, D, P`),
//! * [`flow`] — builders that emit the `FeasibleFlow` polytope (Eq. 2) into
//!   a model or a [`metaopt_model::InnerProblem`] with *symbolic* demand
//!   volumes (the leader's variables of Eq. 1),
//! * [`opt`] — `OptMaxFlow` (Eq. 3): the optimal total-flow LP, a cold
//!   direct evaluator, and [`OptEvaluator`], which re-solves one LP warm
//!   across many demand vectors,
//! * [`demand_pinning`] — the production Demand Pinning heuristic
//!   (Eqs. 4–5): combinatorial evaluator (pin-below-threshold on shortest
//!   paths, then optimize the rest) and the big-M optimization form,
//! * [`pop`] — POP (Eq. 6): random demand partitions with capacity
//!   splitting, plus the Appendix-A *client splitting* extension,
//! * [`eval`] — gap evaluation `OPT(d) − Heuristic(d)` for the black-box
//!   baselines.

pub mod demand_pinning;
pub mod eval;
pub mod fairness;
pub mod flow;
pub mod instance;
pub mod opt;
pub mod pop;
pub mod utility;

pub use demand_pinning::{pin_set, DpOutcome};
pub use fairness::{max_min_fair, MaxMinOutcome};
pub use eval::{gap, gap_with, normalized_gap, Heuristic};
pub use instance::TeInstance;
pub use opt::{OptEvaluator, OptOutcome};
pub use pop::{client_split, random_partitions, Partition, PopOutcome};
pub use utility::{max_utility, UtilityCurve, UtilityOutcome};

/// Errors raised by the TE layer.
#[derive(Debug, Clone, PartialEq)]
pub enum TeError {
    /// Path computation failed (disconnected pair).
    Topology(metaopt_topology::TopologyError),
    /// Model construction failed.
    Model(String),
    /// LP solve failed.
    Lp(metaopt_lp::LpError),
    /// Demand vector length does not match the instance's pair count.
    DemandMismatch {
        /// Pair count of the instance.
        expected: usize,
        /// Length of the supplied demand vector.
        got: usize,
    },
}

impl std::fmt::Display for TeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeError::Topology(e) => write!(f, "topology error: {e}"),
            TeError::Model(s) => write!(f, "model error: {s}"),
            TeError::Lp(e) => write!(f, "lp error: {e}"),
            TeError::DemandMismatch { expected, got } => {
                write!(f, "demand vector has {got} entries, instance has {expected} pairs")
            }
        }
    }
}

impl std::error::Error for TeError {}

impl From<metaopt_topology::TopologyError> for TeError {
    fn from(e: metaopt_topology::TopologyError) -> Self {
        TeError::Topology(e)
    }
}

impl From<metaopt_model::ModelError> for TeError {
    fn from(e: metaopt_model::ModelError) -> Self {
        TeError::Model(e.to_string())
    }
}

impl From<metaopt_lp::LpError> for TeError {
    fn from(e: metaopt_lp::LpError) -> Self {
        TeError::Lp(e)
    }
}

/// Result alias for this crate.
pub type TeResult<T> = Result<T, TeError>;

/// Flow variables created by a [`flow`] builder: `per_pair[k][p]` is the
/// model variable for flow of demand `k` on its `p`-th path.
#[derive(Debug, Clone)]
pub struct FlowVars {
    /// Flow variable per (pair, path).
    pub per_pair: Vec<Vec<metaopt_model::VarRef>>,
}

impl FlowVars {
    /// `Σ_k Σ_p f_k^p` — the total-flow objective of Eq. 3.
    pub fn total_flow(&self) -> metaopt_model::LinExpr {
        let mut e = metaopt_model::LinExpr::zero();
        for paths in &self.per_pair {
            for &v in paths {
                e.add_term(v, 1.0);
            }
        }
        e
    }

    /// `Σ_p f_k^p` — the flow granted to pair `k`.
    pub fn pair_flow(&self, k: usize) -> metaopt_model::LinExpr {
        let mut e = metaopt_model::LinExpr::zero();
        for &v in &self.per_pair[k] {
            e.add_term(v, 1.0);
        }
        e
    }
}
