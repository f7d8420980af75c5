//! MC1xx — KKT-encoding checks.
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | MC101 | error    | primal row without a matching dual multiplier (or vice versa) |
//! | MC102 | error/warning | multiplier with the wrong sign convention  |
//! | MC103 | error    | stationarity coefficient does not balance the primal gradient |
//! | MC104 | error    | inequality multiplier in ≠ 1 complementarity pairs |
//! | MC105 | error    | complementarity slack is not the negated primal row |
//! | MC106 | error    | inner variable with neither stationarity row nor reduced-cost pair |
//! | MC107 | warning  | big-M/bounds conflict: a binary setting is infeasible by interval analysis |
//!
//! The KKT system is reconstructed from the rewriter's stable naming
//! convention (parsed by this crate's `names` module): for an inner
//! problem `X`, [`metaopt_model::kkt::append_kkt`] emits primal rows
//! `X::pf[c]`, multipliers `X::lam[c]` (inequalities, bounds `[0, B]`) and
//! `X::mu[c]` (equalities, free), stationarity rows `X::stat[v]`, one
//! complementarity pair `lam ⟂ −g` per inequality, and reduced-cost pairs
//! `x ⟂ ν(x)` for natively-nonnegative inner variables.
//!
//! A prefix with primal rows but *no* multipliers, stationarity rows, or
//! complementarity pairs is a deliberate primal-only encoding
//! ([`metaopt_model::kkt::append_primal`]) and is skipped entirely.

use crate::names;
use crate::{Report, Severity, Span};
use metaopt_model::{LinExpr, Model, Sense, VarKind, VarRef};
use std::collections::{HashMap, HashSet};

/// Relative tolerance for coefficient comparisons. The rewriter copies
/// coefficients bit-for-bit, so this only absorbs benign sign-zero and
/// accumulation noise from expression assembly.
const COEF_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= COEF_TOL * (1.0 + a.abs().max(b.abs()))
}

struct KktIndex<'m> {
    /// `(prefix, key)` → constraint index of the primal-feasibility row.
    pf: HashMap<(&'m str, &'m str), usize>,
    /// `(prefix, inner-var name)` → constraint index of the stationarity row.
    stat: HashMap<(&'m str, &'m str), usize>,
    /// `(prefix, key)` → inequality multiplier variable.
    lam: HashMap<(&'m str, &'m str), VarRef>,
    /// `(prefix, key)` → equality multiplier variable.
    mu: HashMap<(&'m str, &'m str), VarRef>,
    /// multiplier variable index → complementarity pair indices.
    compl_of: HashMap<usize, Vec<usize>>,
    /// Prefixes that carry any KKT artifact at all.
    active: HashSet<&'m str>,
}

fn index(model: &Model) -> KktIndex<'_> {
    let mut ix = KktIndex {
        pf: HashMap::new(),
        stat: HashMap::new(),
        lam: HashMap::new(),
        mu: HashMap::new(),
        compl_of: HashMap::new(),
        active: HashSet::new(),
    };
    for (i, c) in model.constraints().iter().enumerate() {
        let Some(name) = c.name.as_deref() else {
            continue;
        };
        if let Some((p, key)) = names::any_tagged_key(name, "pf") {
            ix.pf.insert((p, key), i);
        } else if let Some((p, key)) = names::any_tagged_key(name, "stat") {
            ix.stat.insert((p, key), i);
            ix.active.insert(p);
        }
    }
    for i in 0..model.n_vars() {
        let name = model.var_name(VarRef(i));
        if let Some((p, key)) = names::any_tagged_key(name, "lam") {
            ix.lam.insert((p, key), VarRef(i));
            ix.active.insert(p);
        } else if let Some((p, key)) = names::any_tagged_key(name, "mu") {
            ix.mu.insert((p, key), VarRef(i));
            ix.active.insert(p);
        }
    }
    for (i, compl) in model.complementarities().iter().enumerate() {
        ix.compl_of
            .entry(compl.multiplier.0)
            .or_default()
            .push(i);
        if let Some(p) = names::prefix(model.var_name(compl.multiplier)) {
            ix.active.insert(p);
        }
    }
    ix
}

/// The expression that carries variable `v`'s stationarity condition for
/// inner problem `p`: either an explicit `p::stat[v]` row or the slack of
/// `v`'s reduced-cost complementarity pair.
fn stationarity_carrier<'m>(
    model: &'m Model,
    ix: &KktIndex<'m>,
    p: &str,
    v: VarRef,
) -> Option<&'m LinExpr> {
    let vname = model.var_name(v);
    if let Some(&row) = ix.stat.get(&(p, vname)) {
        return Some(&model.constraints()[row].expr);
    }
    // Reduced-cost pair: v itself is the "multiplier" side.
    let pairs = ix.compl_of.get(&v.0)?;
    let first = *pairs.first()?;
    Some(&model.complementarities()[first].slack)
}

/// Runs the KKT family over `model`.
pub fn check(model: &Model) -> Report {
    let mut report = Report::new();
    let ix = index(model);

    let cspan = |i: usize| Span::Constraint {
        index: i,
        name: model.constraints()[i]
            .name
            .clone()
            .unwrap_or_default(),
    };
    let vspan = |v: VarRef| Span::Var {
        index: v.0,
        name: model.var_name(v).to_string(),
    };

    // Multipliers claimed by a pf row, to spot orphans afterwards.
    let mut claimed: HashSet<usize> = HashSet::new();
    // (multiplier, variable) pairs already reported for MC103.
    let mut reported_grad: HashSet<(usize, usize)> = HashSet::new();

    for (&(p, key), &row) in &ix.pf {
        if !ix.active.contains(p) {
            continue; // primal-only encoding: nothing to cross-check
        }
        let c = &model.constraints()[row];
        let mult = match c.sense {
            Sense::Le => ix.lam.get(&(p, key)).copied(),
            Sense::Eq => ix.mu.get(&(p, key)).copied(),
            Sense::Ge => None, // the rewriter normalizes Ge to Le
        };
        let Some(mult) = mult else {
            report.push(
                "MC101",
                Severity::Error,
                cspan(row),
                format!(
                    "primal row `{p}::pf[{key}]` ({:?}) has no matching `{p}::{}[{key}]` multiplier",
                    c.sense,
                    if c.sense == Sense::Eq { "mu" } else { "lam" },
                ),
            );
            continue;
        };
        claimed.insert(mult.0);
        let (lo, hi) = model.var_bounds(mult);

        if c.sense == Sense::Le {
            // Dual sign convention: λ ∈ [0, B].
            if lo < 0.0 || hi < 0.0 {
                report.push(
                    "MC102",
                    Severity::Error,
                    vspan(mult),
                    format!(
                        "inequality multiplier has bounds [{lo}, {hi}]; the dual sign \
                         convention requires λ >= 0"
                    ),
                );
            }
            // Complementarity: exactly one pair, slack == −g.
            let pairs = ix.compl_of.get(&mult.0).map_or(&[][..], |v| &v[..]);
            if pairs.len() != 1 {
                report.push(
                    "MC104",
                    Severity::Error,
                    cspan(row),
                    format!(
                        "inequality multiplier `{}` appears in {} complementarity pairs \
                         (expected exactly 1)",
                        model.var_name(mult),
                        pairs.len()
                    ),
                );
            } else {
                let ci = pairs[0];
                let slack = &model.complementarities()[ci].slack;
                let g = &c.expr;
                let mut ok = close(slack.constant_part(), -g.constant_part())
                    && slack.n_terms() == g.n_terms();
                if ok {
                    for (v, coef) in g.terms() {
                        if !close(slack.coef(v), -coef) {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    report.push(
                        "MC105",
                        Severity::Error,
                        Span::Complementarity {
                            index: ci,
                            multiplier: model.var_name(mult).to_string(),
                        },
                        format!(
                            "slack of `{}` is not the negated primal row `{p}::pf[{key}]`",
                            model.var_name(mult)
                        ),
                    );
                }
            }
        } else if lo.is_finite() || hi.is_finite() {
            report.push(
                "MC102",
                Severity::Warning,
                vspan(mult),
                format!(
                    "equality multiplier has bounds [{lo}, {hi}]; free multipliers are \
                     required not to cut off true duals"
                ),
            );
        }

        // Gradient balance: the multiplier's coefficient in each inner
        // variable's stationarity carrier must equal the variable's
        // coefficient in this primal row.
        for (v, a) in c.expr.terms() {
            let Some(carrier) = stationarity_carrier(model, &ix, p, v) else {
                continue; // outer variable: no stationarity condition
            };
            let got = carrier.coef(mult);
            if !close(got, a) && reported_grad.insert((mult.0, v.0)) {
                report.push(
                    "MC103",
                    Severity::Error,
                    cspan(row),
                    format!(
                        "stationarity imbalance for `{}`: multiplier `{}` contributes {got} \
                         but the primal row carries coefficient {a}",
                        model.var_name(v),
                        model.var_name(mult)
                    ),
                );
            }
        }
    }

    // Spurious stationarity terms: a multiplier appearing in a stationarity
    // row with no (or a different) primal counterpart.
    for (&(p, vkey), &row) in &ix.stat {
        for (mv, got) in model.constraints()[row].expr.terms() {
            let mname = model.var_name(mv);
            let is_lam = names::tagged_key(mname, p, "lam");
            let is_mu = names::tagged_key(mname, p, "mu");
            let Some(key) = is_lam.or(is_mu) else {
                continue; // quadratic own-term or outer contribution
            };
            match ix.pf.get(&(p, key)) {
                None => {
                    report.push(
                        "MC101",
                        Severity::Error,
                        cspan(row),
                        format!(
                            "stationarity row references multiplier `{mname}` but no \
                             primal row `{p}::pf[{key}]` exists"
                        ),
                    );
                }
                Some(&pf_row) => {
                    let want = model.constraints()[pf_row]
                        .expr
                        .terms()
                        .find(|(v, _)| model.var_name(*v) == vkey)
                        .map_or(0.0, |(_, c)| c);
                    let v = model
                        .constraints()[pf_row]
                        .expr
                        .terms()
                        .find(|(v, _)| model.var_name(*v) == vkey)
                        .map(|(v, _)| v);
                    if !close(got, want) {
                        let vid = v.map_or(usize::MAX, |v| v.0);
                        if reported_grad.insert((mv.0, vid)) {
                            report.push(
                                "MC103",
                                Severity::Error,
                                cspan(row),
                                format!(
                                    "stationarity imbalance for `{vkey}`: multiplier \
                                     `{mname}` contributes {got} but the primal row \
                                     carries coefficient {want}"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    // Orphan multipliers: a lam/mu variable no primal row claimed.
    for (map, kind) in [(&ix.lam, "lam"), (&ix.mu, "mu")] {
        for (&(p, key), &mult) in map {
            if !claimed.contains(&mult.0) {
                report.push(
                    "MC101",
                    Severity::Error,
                    vspan(mult),
                    format!(
                        "multiplier `{p}::{kind}[{key}]` has no matching primal row \
                         `{p}::pf[{key}]` (was the row dropped or renamed?)"
                    ),
                );
            }
        }
    }

    // Inner variables with no stationarity condition at all.
    for (&(p, _), &row) in &ix.pf {
        if !ix.active.contains(p) {
            continue;
        }
        for (v, _) in model.constraints()[row].expr.terms() {
            let vname = model.var_name(v);
            if !vname.starts_with(p)
                || names::tagged_key(vname, p, "lam").is_some()
                || names::tagged_key(vname, p, "mu").is_some()
                || !vname[p.len()..].starts_with("::")
                || model.var_kind(v) == VarKind::Binary
            {
                continue; // outer variable, multiplier, or gate binary
            }
            if !ix.stat.contains_key(&(p, vname)) && !ix.compl_of.contains_key(&v.0) {
                report.push(
                    "MC106",
                    Severity::Error,
                    vspan(v),
                    format!(
                        "inner variable of `{p}` has neither a stationarity row \
                         `{p}::stat[{vname}]` nor a reduced-cost complementarity pair"
                    ),
                );
            }
        }
    }

    report.merge(check_bigm(model));
    report
}

/// MC107 — interval analysis of rows containing binaries: fixing any one
/// binary to 0 or 1 must leave the row satisfiable for *some* assignment of
/// the remaining variables within their boxes. A violation means a big-M
/// constant fails to dominate the derived variable bounds (or overshoots
/// them), statically forcing the binary.
fn check_bigm(model: &Model) -> Report {
    let mut report = Report::new();
    for (i, c) in model.constraints().iter().enumerate() {
        let binaries: Vec<(VarRef, f64)> = c
            .expr
            .terms()
            .filter(|(v, _)| model.var_kind(*v) == VarKind::Binary)
            .collect();
        if binaries.is_empty() {
            continue;
        }
        for &(u, cu) in &binaries {
            for fixed in [0.0, 1.0] {
                let mut min_act = c.expr.constant_part() + cu * fixed;
                let mut max_act = min_act;
                for (v, coef) in c.expr.terms() {
                    if v == u {
                        continue;
                    }
                    let (lo, hi) = model.var_bounds(v);
                    let (a, b) = if coef >= 0.0 {
                        (coef * lo, coef * hi)
                    } else {
                        (coef * hi, coef * lo)
                    };
                    min_act += a;
                    max_act += b;
                }
                let tol = 1e-7 * (1.0 + c.expr.max_abs_coef() + c.expr.constant_part().abs());
                let infeasible = match c.sense {
                    Sense::Le => min_act > tol,
                    Sense::Ge => max_act < -tol,
                    Sense::Eq => min_act > tol || max_act < -tol,
                };
                if infeasible {
                    report.push(
                        "MC107",
                        Severity::Warning,
                        Span::Constraint {
                            index: i,
                            name: c.name.clone().unwrap_or_default(),
                        },
                        format!(
                            "binary `{}` = {fixed} makes this row infeasible by interval \
                             analysis (activity in [{min_act}, {max_act}] vs {:?} 0); a \
                             big-M constant may not dominate the variable bounds",
                            model.var_name(u),
                            c.sense
                        ),
                    );
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_model::kkt::{append_kkt, InnerProblem};
    use metaopt_model::{LinExpr, Model, ObjSense};

    /// `max x s.t. x <= 3, x >= 0` — the canonical clean KKT system.
    fn clean_kkt() -> Model {
        let mut m = Model::new();
        let mut inner = InnerProblem::new("inner");
        let x = inner.add_var(&mut m, "x", 0.0, f64::INFINITY).unwrap();
        inner
            .constrain_named("cap", LinExpr::from(x) - 3.0, Sense::Le)
            .unwrap();
        inner.set_objective(ObjSense::Max, x);
        append_kkt(&mut m, &inner, 100.0).unwrap();
        m
    }

    #[test]
    fn clean_kkt_system_has_no_findings() {
        let r = check(&clean_kkt());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn flipped_dual_sign_is_mc102() {
        let mut m = clean_kkt();
        let lam = (0..m.n_vars())
            .map(VarRef)
            .find(|&v| m.var_name(v).contains("::lam["))
            .unwrap();
        m.set_var_bounds_unchecked(lam, -100.0, 0.0);
        let r = check(&m);
        assert!(r.has_code("MC102"), "{r}");
        assert!(r.has_errors());
    }

    #[test]
    fn dropped_complementarity_is_mc104() {
        let mut m = clean_kkt();
        // Drop the λ ⟂ (3 − x) pair (index of the lam-multiplier pair).
        let lam_pair = (0..m.n_complementarities())
            .find(|&i| {
                m.var_name(m.complementarities()[i].multiplier).contains("::lam[")
            })
            .unwrap();
        m.remove_complementarity(lam_pair);
        let r = check(&m);
        assert!(r.has_code("MC104"), "{r}");
    }

    #[test]
    fn duplicated_complementarity_is_mc104() {
        let mut m = clean_kkt();
        let lam_pair = (0..m.n_complementarities())
            .find(|&i| {
                m.var_name(m.complementarities()[i].multiplier).contains("::lam[")
            })
            .unwrap();
        let dup = m.complementarities()[lam_pair].clone();
        m.push_complementarity_unchecked(dup.multiplier, dup.slack);
        let r = check(&m);
        assert!(r.has_code("MC104"), "{r}");
    }

    #[test]
    fn perturbed_slack_is_mc105() {
        let mut m = clean_kkt();
        let lam_pair = (0..m.n_complementarities())
            .find(|&i| {
                m.var_name(m.complementarities()[i].multiplier).contains("::lam[")
            })
            .unwrap();
        m.mutate_complementarity(lam_pair, |c| c.slack.add_constant(1.0));
        let r = check(&m);
        assert!(r.has_code("MC105"), "{r}");
    }

    #[test]
    fn renamed_multiplier_is_mc101() {
        // Two inequality rows: renaming one multiplier leaves the other to
        // keep the prefix recognizably KKT-encoded (a prefix with *no*
        // multipliers at all is a legitimate primal-only encoding).
        let mut m = Model::new();
        let mut inner = InnerProblem::new("inner");
        let x = inner.add_var(&mut m, "x", 0.0, f64::INFINITY).unwrap();
        inner
            .constrain_named("cap", LinExpr::from(x) - 3.0, Sense::Le)
            .unwrap();
        inner
            .constrain_named("cap2", LinExpr::from(x) - 5.0, Sense::Le)
            .unwrap();
        inner.set_objective(ObjSense::Max, x);
        append_kkt(&mut m, &inner, 100.0).unwrap();
        let lam = (0..m.n_vars())
            .map(VarRef)
            .find(|&v| m.var_name(v) == "inner::lam[cap]")
            .unwrap();
        m.rename_var(lam, "not_a_multiplier");
        let r = check(&m);
        assert!(r.has_code("MC101"), "{r}");
    }

    #[test]
    fn forced_binary_bigm_is_mc107() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0).unwrap();
        let u = m.add_binary("u").unwrap();
        // x + 100 u <= 20: u = 1 forces min activity 80 > 0 → flagged.
        m.constrain_named("gate", LinExpr::from(x) + 100.0 * u, Sense::Le, 20.0)
            .unwrap();
        let r = check(&m);
        assert!(r.has_code("MC107"), "{r}");
        // A dominating big-M is silent.
        let mut ok = Model::new();
        let x = ok.add_var("x", 0.0, 10.0).unwrap();
        let u = ok.add_binary("u").unwrap();
        ok.constrain_named("gate", LinExpr::from(x) + 10.0 * u, Sense::Le, 20.0)
            .unwrap();
        assert!(!check(&ok).has_code("MC107"));
    }
}
