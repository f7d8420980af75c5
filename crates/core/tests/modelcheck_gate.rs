//! Golden mutation tests for the static model checker gate.
//!
//! Each test builds a *real* adversarial encoding (fig-1 triangle DP, POP,
//! or primal-only OPT), seeds one specific corruption through the
//! `metaopt_model::mutate` hooks, and asserts the checker flags it with the
//! documented code. The clean-encoding tests pin the zero-false-positive
//! guarantee the pre-solve gate relies on.

use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{
    check_adversarial_model, find_adversarial_gap, ConstrainedSet, FinderConfig, HeuristicSpec,
    OptEncoding, PopMode,
};
use metaopt_model::{LinExpr, Model, Sense, VarKind, VarRef};
use metaopt_modelcheck::{Report, Severity};
use metaopt_te::pop::random_partitions;
use metaopt_te::TeInstance;
use metaopt_topology::synth::figure1_triangle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fig1() -> TeInstance {
    let (t, [n1, n2, n3]) = figure1_triangle(100.0);
    TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
}

fn dp_spec() -> HeuristicSpec {
    HeuristicSpec::DemandPinning { threshold: 50.0 }
}

/// Builds the fig-1 DP single-shot model and returns (instance, model).
fn dp_model() -> (TeInstance, metaopt_core::finder::AdversarialModel) {
    let inst = fig1();
    let am = build_adversarial_model(
        &inst,
        &dp_spec(),
        &ConstrainedSet::unconstrained(),
        &FinderConfig::default(),
    )
    .unwrap();
    (inst, am)
}

fn var_where(m: &Model, pred: impl Fn(&str) -> bool) -> VarRef {
    (0..m.n_vars())
        .map(VarRef)
        .find(|&v| pred(m.var_name(v)))
        .expect("no variable matches predicate")
}

fn compl_where(m: &Model, pred: impl Fn(&str) -> bool) -> usize {
    m.complementarities()
        .iter()
        .position(|c| pred(m.var_name(c.multiplier)))
        .expect("no complementarity matches predicate")
}

fn row_where(m: &Model, pred: impl Fn(&str) -> bool) -> usize {
    m.constraints()
        .iter()
        .position(|c| pred(c.name.as_deref().unwrap_or("")))
        .expect("no constraint matches predicate")
}

fn errors(r: &Report) -> Vec<String> {
    r.diagnostics()
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(ToString::to_string)
        .collect()
}

// --- clean encodings: zero error-severity diagnostics --------------------

#[test]
fn clean_dp_encoding_is_error_free() {
    let (inst, am) = dp_model();
    let r = check_adversarial_model(&inst, &am);
    assert!(errors(&r).is_empty(), "{r}");
}

#[test]
fn clean_pop_encoding_is_error_free() {
    let inst = TeInstance::all_pairs(metaopt_topology::synth::line(3, 10.0), 1).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let spec = HeuristicSpec::Pop {
        partitions: random_partitions(inst.n_pairs(), 2, 2, &mut rng),
        mode: PopMode::Average,
    };
    let am = build_adversarial_model(
        &inst,
        &spec,
        &ConstrainedSet::unconstrained(),
        &FinderConfig::default(),
    )
    .unwrap();
    let r = check_adversarial_model(&inst, &am);
    assert!(errors(&r).is_empty(), "{r}");
}

#[test]
fn clean_primal_only_encoding_is_error_free() {
    let inst = fig1();
    let cfg = FinderConfig {
        opt_encoding: OptEncoding::PrimalOnly,
        ..FinderConfig::default()
    };
    let am =
        build_adversarial_model(&inst, &dp_spec(), &ConstrainedSet::unconstrained(), &cfg).unwrap();
    let r = check_adversarial_model(&inst, &am);
    assert!(errors(&r).is_empty(), "{r}");
}

// --- seeded mutations: each flagged with its documented code -------------

#[test]
fn flipped_dual_sign_is_mc102() {
    let (inst, mut am) = dp_model();
    let lam = var_where(&am.model, |n| n.starts_with("opt::lam["));
    am.model.set_var_bounds_unchecked(lam, -10.0, 0.0);
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC102"), "{r}");
    assert!(r.has_errors(), "{r}");
}

#[test]
fn dropped_complementarity_is_mc104() {
    let (inst, mut am) = dp_model();
    let i = compl_where(&am.model, |n| n.starts_with("opt::lam["));
    am.model.remove_complementarity(i);
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC104"), "{r}");
    assert!(r.has_errors(), "{r}");
}

#[test]
fn duplicated_complementarity_is_mc104() {
    let (inst, mut am) = dp_model();
    let i = compl_where(&am.model, |n| n.starts_with("opt::lam["));
    let dup = am.model.complementarities()[i].clone();
    am.model.push_complementarity_unchecked(dup.multiplier, dup.slack);
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC104"), "{r}");
    assert!(r.has_errors(), "{r}");
}

#[test]
fn perturbed_compl_slack_is_mc105() {
    let (inst, mut am) = dp_model();
    let i = compl_where(&am.model, |n| n.starts_with("opt::lam["));
    am.model.mutate_complementarity(i, |c| c.slack += 1.0);
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC105"), "{r}");
    assert!(r.has_errors(), "{r}");
}

#[test]
fn renamed_multiplier_is_mc101() {
    let (inst, mut am) = dp_model();
    let lam = var_where(&am.model, |n| n.starts_with("opt::lam["));
    am.model.rename_var(lam, "not_a_multiplier");
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC101"), "{r}");
    assert!(r.has_errors(), "{r}");
}

#[test]
fn perturbed_stationarity_coefficient_is_mc103() {
    let (inst, mut am) = dp_model();
    // Flow variables are natively nonnegative, so their stationarity lives
    // in the reduced-cost pair x ⟂ ν(x); perturb a multiplier coefficient
    // inside the carrier ν.
    let i = compl_where(&am.model, |n| n.starts_with("opt::f["));
    let lam = am.model.complementarities()[i]
        .slack
        .terms()
        .find(|(v, _)| am.model.var_name(*v).starts_with("opt::lam["))
        .map(|(v, _)| v)
        .expect("carrier references an inequality multiplier");
    am.model
        .mutate_complementarity(i, |c| c.slack += LinExpr::term(lam, 0.5));
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC103"), "{r}");
    assert!(r.has_errors(), "{r}");
}

#[test]
fn corrupted_bigm_is_mc107() {
    let (inst, mut am) = dp_model();
    // A big-M row whose constant fails to dominate the binary: fixing the
    // indicator to 1 makes the row statically infeasible.
    let z = var_where(&am.model, |_| true);
    let z = (z.0..am.model.n_vars())
        .map(VarRef)
        .find(|&v| am.model.var_kind(v) == VarKind::Binary)
        .expect("DP encoding has pin binaries");
    am.model
        .constrain_named("dp::bigm_probe", LinExpr::term(z, 1e4), Sense::Le, 0.0)
        .unwrap();
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC107"), "{r}");
}

#[test]
fn infeasible_constant_row_is_mc001() {
    let (inst, mut am) = dp_model();
    am.model
        .constrain_named("dp::junk", LinExpr::from(1.0), Sense::Le, 0.0)
        .unwrap();
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC001"), "{r}");
    assert!(r.has_errors(), "{r}");
}

#[test]
fn fixed_multiplier_is_mc008() {
    let (inst, mut am) = dp_model();
    let lam = var_where(&am.model, |n| n.starts_with("opt::lam["));
    am.model.set_var_bounds_unchecked(lam, 1.0, 1.0);
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC008"), "{r}");
}

#[test]
fn pathological_coefficients_are_mc202_mc203() {
    let (inst, mut am) = dp_model();
    let a = VarRef(0);
    let b = VarRef(1);
    am.model
        .constrain_named(
            "dp::scale_probe",
            LinExpr::term(a, 1e-14) + LinExpr::term(b, 1e12),
            Sense::Le,
            1.0,
        )
        .unwrap();
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC202"), "{r}");
    assert!(r.has_code("MC203"), "{r}");
    assert!(r.has_code("MC201"), "{r}");
}

#[test]
fn broken_demand_row_is_mc301() {
    let (inst, mut am) = dp_model();
    // Point a demand-conservation row at a foreign commodity's flow var.
    let i = row_where(&am.model, |n| n.starts_with("opt::pf[opt::dem[0]"));
    let foreign = var_where(&am.model, |n| n.starts_with("opt::f[1]["));
    am.model
        .mutate_constraint(i, |c| c.expr += LinExpr::term(foreign, 1.0));
    let r = check_adversarial_model(&inst, &am);
    assert!(r.has_code("MC301"), "{r}");
    assert!(r.has_errors(), "{r}");
}

// --- the gate itself -----------------------------------------------------

#[test]
fn gate_runs_inside_finder_and_clean_models_pass() {
    let inst = fig1();
    let cfg = FinderConfig::budgeted(10.0);
    let r = find_adversarial_gap(&inst, &dp_spec(), &ConstrainedSet::unconstrained(), &cfg)
        .expect("clean encoding must pass the gate");
    assert!(r.verified_gap.is_finite());
    // No encoding-suspect faults on a clean model, in any build profile.
    assert!(
        !r.faults.iter().any(|f| f.kind() == "encoding_suspect"),
        "{:?}",
        r.faults
    );
}
