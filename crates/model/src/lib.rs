#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # metaopt-model
//!
//! The optimization modeling layer of the `metaopt` workspace: a small,
//! self-contained algebraic modeling library (in the spirit of JuMP/CVXPY)
//! plus the machinery the paper's method needs:
//!
//! * [`Model`] / [`LinExpr`] / [`VarRef`] — variables, linear expressions
//!   with operator overloading, `<=`/`==`/`>=` constraints, min/max
//!   objectives (linear, plus *diagonal* quadratic terms so the paper's
//!   Figure-2 rectangle example is expressible),
//! * [`InnerProblem`] and [`kkt::append_kkt`] — the **KKT rewriter** that
//!   turns an inner convex problem into primal feasibility + stationarity +
//!   complementary-slackness constraints on the enclosing model (§3.1 of the
//!   paper). Complementary slackness products are kept *symbolic* as
//!   [`Complementarity`] pairs; the `metaopt-milp` branch-and-bound handles
//!   them disjunctively, exactly like Gurobi's SOS1 feature,
//! * [`bigm`] — exact `max(·,0)`, indicator, and McCormick-product encodings
//!   used to express conditional heuristics (§3.2),
//! * [`sortnet`] — a Batcher odd–even sorting network encoder used for the
//!   POP tail-percentile objective (§3.2),
//! * [`compile`] — lowering of a model to the `metaopt-lp` problem form,
//!   reporting the size statistics (variables, linear constraints, SOS
//!   constraints) that Figure 6 of the paper plots.

pub mod bigm;
pub mod compile;
pub mod expr;
pub mod kkt;
pub mod model;
pub mod mutate;
pub mod sortnet;

pub use compile::{CompiledModel, ModelStats};
pub use expr::LinExpr;
pub use kkt::{InnerObjective, InnerProblem};
pub use model::{Complementarity, Constraint, Model, ObjSense, Sense, VarKind, VarRef};

/// Errors raised by the modeling layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A variable reference belonged to a different model.
    ForeignVar(usize),
    /// Bounds or coefficients were NaN/infinite where finite data is needed.
    NotFinite(String),
    /// Inconsistent bounds.
    EmptyBounds {
        /// Variable index (or `usize::MAX` for row ranges).
        var: usize,
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
    /// The requested construct needs a finite big-M bound the caller did not
    /// provide (e.g. `max(expr, 0)` on an unbounded expression).
    MissingBound(String),
    /// Lowering failed inside the LP layer.
    Lp(metaopt_lp::LpError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::ForeignVar(v) => write!(f, "variable {v} is not part of this model"),
            ModelError::NotFinite(s) => write!(f, "non-finite data: {s}"),
            ModelError::EmptyBounds { var, lo, hi } => {
                write!(f, "variable {var} has empty bounds [{lo}, {hi}]")
            }
            ModelError::MissingBound(s) => write!(f, "missing finite bound: {s}"),
            ModelError::Lp(e) => write!(f, "lp error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<metaopt_lp::LpError> for ModelError {
    fn from(e: metaopt_lp::LpError) -> Self {
        ModelError::Lp(e)
    }
}

/// Result alias for the modeling layer.
pub type ModelResult<T> = Result<T, ModelError>;
