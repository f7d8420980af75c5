//! The KKT rewriter (§3.1 of the paper).
//!
//! An [`InnerProblem`] describes a convex optimization *embedded inside* an
//! enclosing [`Model`]: its decision variables are a designated subset of
//! the model's variables, and every other variable appearing in its
//! constraints is an **outer** variable — a constant from the inner
//! problem's point of view (the leader's move in the Stackelberg game).
//!
//! [`append_kkt`] replaces "solve the inner problem to optimality" with its
//! Karush–Kuhn–Tucker conditions, emitted as constraints on the enclosing
//! model:
//!
//! 1. *primal feasibility* — the inner constraints themselves,
//! 2. *stationarity* — `∇f + Σ λ_i ∇g_i + Σ μ_e ∇h_e = 0` over the inner
//!    variables only (outer variables have no stationarity rows: they are
//!    constants to the follower),
//! 3. *dual feasibility* — `λ_i ≥ 0` for inequality multipliers,
//! 4. *complementary slackness* — symbolic [`Complementarity`] pairs
//!    `λ_i ⟂ slack_i`, handled disjunctively by branch-and-bound.
//!
//! Any point satisfying all four is an optimal solution of the inner convex
//! problem (Slater ⇒ strong duality), which is exactly the feasibility-
//! encoding trick of the paper's Figure 2.
//!
//! [`Complementarity`]: crate::model::Complementarity

use crate::expr::LinExpr;
use crate::model::{Model, ObjSense, Sense, VarRef};
use crate::{ModelError, ModelResult};
use std::collections::BTreeMap;

/// Objective of an inner problem: linear, with optional diagonal quadratic
/// terms (`Σ q_j x_j²`) so the Figure-2 rectangle demo is expressible.
#[derive(Debug, Clone)]
pub struct InnerObjective {
    /// Maximize or minimize.
    pub sense: ObjSense,
    /// Linear part (may reference outer variables; those terms are constant
    /// for the inner problem and do not contribute stationarity rows).
    pub linear: LinExpr,
    /// Diagonal quadratic coefficients on *inner* variables.
    pub quadratic: Vec<(VarRef, f64)>,
}

/// A convex problem embedded in an enclosing model.
///
/// Inner variable bounds must be expressed as explicit constraints (use
/// [`InnerProblem::add_var`], which creates the model variable *free* and
/// records its box as inner constraints) so the KKT system accounts for
/// their multipliers.
#[derive(Debug, Clone)]
pub struct InnerProblem {
    /// Decision variables of the follower.
    inner_vars: Vec<VarRef>,
    /// Fast membership test.
    is_inner: BTreeMap<usize, ()>,
    /// Constraints, normalized `expr SENSE 0`.
    constraints: Vec<(LinExpr, Sense, Option<String>)>,
    /// Inner variables whose only bound is `x >= 0`, kept as a *native*
    /// model bound: the KKT rewriter emits a reduced-cost complementarity
    /// `x ⟂ (∂f/∂x + Σ λ ∂g/∂x)` instead of an explicit multiplier variable
    /// plus stationarity row — the standard size reduction for
    /// standard-form LPs (1 variable and 2 rows saved per entry).
    nonneg_vars: Vec<VarRef>,
    /// Objective (defaults to `max 0`).
    objective: InnerObjective,
    name: String,
}

impl InnerProblem {
    /// Creates an empty inner problem with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        InnerProblem {
            inner_vars: Vec::new(),
            is_inner: BTreeMap::new(),
            constraints: Vec::new(),
            nonneg_vars: Vec::new(),
            objective: InnerObjective {
                sense: ObjSense::Max,
                linear: LinExpr::zero(),
                quadratic: Vec::new(),
            },
            name: name.into(),
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a fresh model variable owned by this inner problem.
    ///
    /// The special — and, in flow formulations, overwhelmingly common —
    /// case `[0, ∞)` keeps the bound *native* on the model variable and is
    /// handled by the KKT rewriter as a reduced-cost complementarity
    /// (see the `nonneg_vars` field). Any other box is recorded as explicit
    /// inner constraints so its multipliers appear in the KKT system; the
    /// model variable is then left unbounded.
    pub fn add_var(
        &mut self,
        model: &mut Model,
        name: impl Into<String>,
        lo: f64,
        hi: f64,
    ) -> ModelResult<VarRef> {
        if lo.is_nan() || hi.is_nan() {
            return Err(ModelError::NotFinite("inner var bounds".into()));
        }
        if lo == 0.0 && hi == f64::INFINITY {
            let v = model.add_var(name, 0.0, f64::INFINITY)?;
            self.register_var(v);
            self.nonneg_vars.push(v);
            return Ok(v);
        }
        let v = model.add_var(name, f64::NEG_INFINITY, f64::INFINITY)?;
        self.register_var(v);
        if lo.is_finite() {
            // lo − v <= 0
            self.constrain(LinExpr::constant(lo) - v, Sense::Le)?;
        }
        if hi.is_finite() {
            // v − hi <= 0
            self.constrain(LinExpr::from(v) - hi, Sense::Le)?;
        }
        Ok(v)
    }

    /// Registers an existing model variable as an inner decision variable.
    ///
    /// The variable should be free at the model level (its box, if any, is
    /// *not* converted to KKT constraints by this method).
    pub fn register_var(&mut self, v: VarRef) {
        if self.is_inner.insert(v.0, ()).is_none() {
            self.inner_vars.push(v);
        }
    }

    /// The follower's decision variables.
    pub fn vars(&self) -> &[VarRef] {
        &self.inner_vars
    }

    /// Whether `v` is one of the follower's decision variables.
    pub fn is_inner_var(&self, v: VarRef) -> bool {
        self.is_inner.contains_key(&v.0)
    }

    /// Adds a constraint `expr SENSE 0` (fold the right-hand side into the
    /// expression before calling, or use [`InnerProblem::constrain_pair`]).
    pub fn constrain(&mut self, expr: impl Into<LinExpr>, sense: Sense) -> ModelResult<()> {
        self.constrain_named("", expr, sense)
    }

    /// Adds `lhs SENSE rhs`.
    pub fn constrain_pair(
        &mut self,
        lhs: impl Into<LinExpr>,
        sense: Sense,
        rhs: impl Into<LinExpr>,
    ) -> ModelResult<()> {
        let mut e = lhs.into();
        e -= rhs.into();
        self.constrain(e, sense)
    }

    /// Named variant of [`InnerProblem::constrain`].
    pub fn constrain_named(
        &mut self,
        name: impl Into<String>,
        expr: impl Into<LinExpr>,
        sense: Sense,
    ) -> ModelResult<()> {
        let name = name.into();
        self.constraints.push((
            expr.into(),
            sense,
            if name.is_empty() { None } else { Some(name) },
        ));
        Ok(())
    }

    /// Sets the inner objective.
    pub fn set_objective(&mut self, sense: ObjSense, linear: impl Into<LinExpr>) {
        self.objective.sense = sense;
        self.objective.linear = linear.into();
        self.objective.quadratic.clear();
    }

    /// Adds a diagonal quadratic term `q·v²` to the inner objective.
    pub fn add_quadratic(&mut self, v: VarRef, q: f64) {
        self.objective.quadratic.push((v, q));
    }

    /// Number of constraints recorded.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective view.
    pub fn objective(&self) -> &InnerObjective {
        &self.objective
    }

    /// Evaluates the inner objective's linear+quadratic value at `values`.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        let mut v = self.objective.linear.eval(values);
        for &(x, q) in &self.objective.quadratic {
            v += q * values[x.0] * values[x.0];
        }
        v
    }
}

/// Appends only the *primal feasibility* constraints of `inner` onto
/// `model` (no multipliers, no complementarity).
///
/// This is sound — and much cheaper — for an inner **maximization** whose
/// objective appears with a **positive** sign in an outer maximization: the
/// outer problem then drives the inner variables to optimality on its own,
/// so no optimality certificate is needed. The paper's §5 "alternative
/// rewrites" remark points in this direction; `metaopt-core` exposes it as
/// the `PrimalOnly` encoding ablation.
pub fn append_primal(model: &mut Model, inner: &InnerProblem) -> ModelResult<()> {
    for (ci, (expr, sense, name)) in inner.constraints.iter().enumerate() {
        let cname = name.clone().unwrap_or_else(|| format!("c{ci}"));
        model.constrain_named(
            format!("{}::pf[{}]", inner.name, cname),
            expr.clone(),
            *sense,
            0.0,
        )?;
    }
    Ok(())
}

/// Dual variables created by [`append_kkt`], for diagnostics and tests.
#[derive(Debug, Clone)]
pub struct KktArtifacts {
    /// Multiplier per inner constraint, in insertion order. Inequality
    /// multipliers are nonnegative; equality multipliers are free.
    pub multipliers: Vec<VarRef>,
    /// Indices (into `multipliers`) of the inequality constraints, i.e. the
    /// complementarity pairs appended to the model.
    pub complementary: Vec<usize>,
}

/// Appends the KKT conditions of `inner` onto `model`.
///
/// A finite multiplier upper bound `dual_bound` keeps branch-and-bound
/// relaxations bounded; it must be chosen large enough not to cut off the
/// true multipliers (for max-flow style problems, the largest objective
/// coefficient times the longest path length is safe). Pass
/// `f64::INFINITY` for no bound, as every encoder in `metaopt-core` does.
pub fn append_kkt(
    model: &mut Model,
    inner: &InnerProblem,
    dual_bound: f64,
) -> ModelResult<KktArtifacts> {
    // Work in minimization form: min f0 = −obj if inner maximizes.
    let flip = match inner.objective.sense {
        ObjSense::Max => -1.0,
        ObjSense::Min => 1.0,
    };

    // Stationarity accumulators, one per inner variable.
    let mut stationarity: BTreeMap<usize, LinExpr> = BTreeMap::new();
    for v in &inner.inner_vars {
        let mut grad = LinExpr::constant(flip * inner.objective.linear.coef(*v));
        for &(qv, q) in &inner.objective.quadratic {
            if qv == *v {
                // d/dv (q v²) = 2 q v
                grad += LinExpr::term(*v, flip * 2.0 * q);
            }
        }
        stationarity.insert(v.0, grad);
    }

    let mut multipliers = Vec::with_capacity(inner.constraints.len());
    let mut complementary = Vec::new();

    for (ci, (expr, sense, name)) in inner.constraints.iter().enumerate() {
        // Normalize to g(x) <= 0 (for Ge, negate; Eq handled separately).
        let cname = name.clone().unwrap_or_else(|| format!("c{ci}"));
        match sense {
            Sense::Eq => {
                // Equality: free multiplier, no complementarity.
                let mu = model.add_var(
                    format!("{}::mu[{}]", inner.name, cname),
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                )?;
                multipliers.push(mu);
                // Primal feasibility.
                model.constrain_named(
                    format!("{}::pf[{}]", inner.name, cname),
                    expr.clone(),
                    Sense::Eq,
                    0.0,
                )?;
                // Gradient contribution: μ · ∇h.
                for (v, c) in expr.terms() {
                    if let Some(acc) = stationarity.get_mut(&v.0) {
                        acc.add_term(mu, c);
                    }
                }
            }
            Sense::Le | Sense::Ge => {
                let g = if *sense == Sense::Le {
                    expr.clone()
                } else {
                    expr.scaled(-1.0)
                };
                let lam = model.add_var(
                    format!("{}::lam[{}]", inner.name, cname),
                    0.0,
                    dual_bound,
                )?;
                multipliers.push(lam);
                // Primal feasibility g <= 0.
                model.constrain_named(
                    format!("{}::pf[{}]", inner.name, cname),
                    g.clone(),
                    Sense::Le,
                    0.0,
                )?;
                // Gradient contribution: λ · ∇g.
                for (v, c) in g.terms() {
                    if let Some(acc) = stationarity.get_mut(&v.0) {
                        acc.add_term(lam, c);
                    }
                }
                // Complementary slackness: λ ⟂ (−g) (slack = −g >= 0).
                model.add_complementarity(lam, g.scaled(-1.0))?;
                complementary.push(multipliers.len() - 1);
            }
        }
    }

    // Nonnegative inner variables: reduced-cost complementarity
    // `x ⟂ ν(x)` with `ν(x) = ∂f/∂x + Σ λ ∂g/∂x` — the implicit bound
    // multiplier. `ν(x) >= 0` (dual feasibility) is enforced by the
    // complementarity slack's nonnegativity at compile time.
    let nonneg: std::collections::BTreeSet<usize> =
        inner.nonneg_vars.iter().map(|v| v.0).collect();
    for v in &inner.nonneg_vars {
        let nu = stationarity.remove(&v.0).expect("accumulated above");
        model.add_complementarity(*v, nu)?;
    }

    // Remaining (free/boxed-by-rows) variables: plain stationarity rows.
    for v in &inner.inner_vars {
        if nonneg.contains(&v.0) {
            continue;
        }
        let expr = stationarity.remove(&v.0).expect("accumulated above");
        model.constrain_named(
            format!("{}::stat[{}]", inner.name, model.var_name(*v).to_owned()),
            expr,
            Sense::Eq,
            0.0,
        )?;
    }

    Ok(KktArtifacts {
        multipliers,
        complementary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// KKT of `max x s.t. x <= 3, x >= 0` (inner var x) must force x = 3.
    #[test]
    fn kkt_pins_simple_max() {
        let mut m = Model::new();
        let mut inner = InnerProblem::new("inner");
        let x = inner.add_var(&mut m, "x", 0.0, f64::INFINITY).unwrap();
        inner.constrain_pair(x, Sense::Le, 3.0).unwrap();
        inner.set_objective(ObjSense::Max, x);
        let art = append_kkt(&mut m, &inner, 100.0).unwrap();
        // x >= 0 is a native bound (reduced-cost complementarity), so only
        // the x <= 3 row carries an explicit multiplier.
        assert_eq!(art.multipliers.len(), 1);
        assert_eq!(art.complementary.len(), 1);
        // Two complementarities total: λ ⟂ (3 − x) and x ⟂ ν(x) with
        // ν(x) = −1 + λ. λ must be 1 (else ν < 0), forcing x = 3.
        assert_eq!(m.n_complementarities(), 2);
        // Hand-check a satisfying assignment: x = 3, λ = 1 (ν = 0).
        let values = vec![3.0, 1.0];
        assert!(m.violation(&values, 1e-9) <= 1e-9);
        // x = 2 cannot be completed: λ = 1 keeps ν = 0 but leaves
        // slack(x ≤ 3) = 1 with λ = 1 → product 1; λ = 0 gives ν = −1 < 0.
        assert!(m.violation(&[2.0, 1.0], 1e-9) > 0.5);
        assert!(m.violation(&[2.0, 0.0], 1e-9) > 0.5);
    }

    /// The Figure-2 rectangle: min w²+ℓ² s.t. 2(w+ℓ) ≥ P. For fixed P the
    /// KKT system admits w = ℓ = λ = P/4.
    #[test]
    fn figure2_rectangle_kkt() {
        let mut m = Model::new();
        let p_val = 8.0;
        let p = m.add_var("P", p_val, p_val).unwrap(); // outer var, fixed here
        let mut inner = InnerProblem::new("rect");
        let w = inner
            .add_var(&mut m, "w", f64::NEG_INFINITY, f64::INFINITY)
            .unwrap();
        let l = inner
            .add_var(&mut m, "l", f64::NEG_INFINITY, f64::INFINITY)
            .unwrap();
        // 2(w+ℓ) ≥ P  ⇔  P − 2w − 2ℓ ≤ 0
        inner
            .constrain(LinExpr::from(p) - 2.0 * w - 2.0 * l, Sense::Le)
            .unwrap();
        inner.set_objective(ObjSense::Min, LinExpr::zero());
        inner.add_quadratic(w, 1.0);
        inner.add_quadratic(l, 1.0);
        let art = append_kkt(&mut m, &inner, f64::INFINITY).unwrap();
        assert_eq!(art.multipliers.len(), 1);
        // Verify the analytic KKT point: w = ℓ = 2, λ: stationarity
        // 2w − 2λ = 0 ⇒ λ = 2 = P/4.
        let lam = art.multipliers[0];
        let mut values = vec![0.0; m.n_vars()];
        values[p.0] = p_val;
        values[w.0] = 2.0;
        values[l.0] = 2.0;
        values[lam.0] = 2.0;
        assert!(
            m.violation(&values, 1e-9) <= 1e-9,
            "violation {}",
            m.violation(&values, 1e-9)
        );
        // Wrong primal point w=3, ℓ=1 breaks stationarity for any λ:
        // 2·3 − 2λ = 0 and 2·1 − 2λ = 0 are inconsistent.
        values[w.0] = 3.0;
        values[l.0] = 1.0;
        values[lam.0] = 3.0;
        assert!(m.violation(&values, 1e-9) > 1.0);
    }

    /// Outer variables appearing in inner constraints contribute no
    /// stationarity rows but do appear in primal feasibility.
    #[test]
    fn outer_vars_stay_constant() {
        let mut m = Model::new();
        let theta = m.add_var("theta", 0.0, 10.0).unwrap();
        let mut inner = InnerProblem::new("i");
        let x = inner.add_var(&mut m, "x", 0.0, f64::INFINITY).unwrap();
        // x <= theta
        inner
            .constrain(LinExpr::from(x) - theta, Sense::Le)
            .unwrap();
        inner.set_objective(ObjSense::Max, x);
        let before = m.n_constraints();
        append_kkt(&mut m, &inner, 100.0).unwrap();
        // Constraints added: 1 primal feasibility row (x <= theta; x >= 0
        // is a native bound, and no stationarity row exists for theta or
        // for the reduced-cost-handled x).
        assert_eq!(m.n_constraints() - before, 1);
        assert_eq!(m.n_complementarities(), 2);
    }

    /// Equality constraints get free multipliers and no complementarity.
    #[test]
    fn equality_constraints_no_complementarity() {
        let mut m = Model::new();
        let mut inner = InnerProblem::new("eq");
        let x = inner
            .add_var(&mut m, "x", f64::NEG_INFINITY, f64::INFINITY)
            .unwrap();
        let y = inner
            .add_var(&mut m, "y", f64::NEG_INFINITY, f64::INFINITY)
            .unwrap();
        inner.constrain_pair(x + y, Sense::Eq, 4.0).unwrap();
        inner.set_objective(ObjSense::Min, LinExpr::zero());
        inner.add_quadratic(x, 1.0);
        inner.add_quadratic(y, 1.0);
        let art = append_kkt(&mut m, &inner, f64::INFINITY).unwrap();
        assert_eq!(m.n_complementarities(), 0);
        // Analytic optimum x = y = 2 with μ = −(2x)·?  Stationarity:
        // 2x + μ = 0 ⇒ μ = −4.
        let mu = art.multipliers[0];
        let mut values = vec![0.0; m.n_vars()];
        values[x.0] = 2.0;
        values[y.0] = 2.0;
        values[mu.0] = -4.0;
        assert!(m.violation(&values, 1e-9) <= 1e-9);
    }
}
