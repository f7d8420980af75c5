//! Resilience tests: contained callback panics, first-class budgets, and
//! checkpoint/resume of the branch-and-bound frontier.

use metaopt_milp::{
    solve, solve_resumable, solve_with_callback, Budget, FaultPlan, FaultSite, IncumbentCallback,
    MilpConfig, MilpStatus, SolverFault,
};
use metaopt_model::{LinExpr, Model, ObjSense, Sense};

/// A knapsack with many items (slow to prove optimal, quick to find
/// feasible points for).
fn big_knapsack(n: usize) -> Model {
    let mut m = Model::new();
    let mut w = LinExpr::zero();
    let mut v = LinExpr::zero();
    for i in 0..n {
        let z = m.add_binary(format!("z{i}")).unwrap();
        w.add_term(z, 1.0 + ((i * 37) % 17) as f64);
        v.add_term(z, 1.0 + ((i * 53) % 23) as f64);
    }
    m.constrain(w, Sense::Le, 4.0 * n as f64).unwrap();
    m.set_objective(ObjSense::Max, v).unwrap();
    m
}

/// A strongly-correlated knapsack at a tight capacity — needs a deep
/// branch-and-bound tree (≈1200 nodes at `n = 24`), so node budgets
/// genuinely interrupt it mid-search.
fn hard_knapsack(n: usize) -> Model {
    let mut m = Model::new();
    let mut w = LinExpr::zero();
    let mut v = LinExpr::zero();
    let mut total_w = 0.0;
    for i in 0..n {
        let z = m.add_binary(format!("z{i}")).unwrap();
        let wi = 3.0 + ((i * 37) % 17) as f64;
        let vi = wi + 2.0 + ((i * 53) % 5) as f64;
        w.add_term(z, wi);
        v.add_term(z, vi);
        total_w += wi;
    }
    m.constrain(w, Sense::Le, 0.37 * total_w).unwrap();
    m.set_objective(ObjSense::Max, v).unwrap();
    m
}

struct AlwaysPanics;

impl IncumbentCallback for AlwaysPanics {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        panic!("deliberate test panic");
    }
}

/// A callback that panics on every call must not take the search down:
/// the panics are contained, recorded as faults, the callback is disabled
/// after a bounded number of strikes, and the answer matches a clean run.
#[test]
fn panicking_callback_is_contained() {
    let m = big_knapsack(16);
    let clean = solve(&m, &MilpConfig::default()).unwrap();
    assert_eq!(clean.status, MilpStatus::Optimal);

    let sol = solve_with_callback(&m, &MilpConfig::default(), &mut AlwaysPanics).unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert!(
        (sol.objective - clean.objective).abs() <= 1e-9 * (1.0 + clean.objective.abs()),
        "panicking callback changed the answer: {} vs {}",
        sol.objective,
        clean.objective
    );
    let panics = sol
        .faults
        .iter()
        .filter(|f| matches!(f, SolverFault::CallbackPanic(_)))
        .count();
    assert!(panics >= 1, "no CallbackPanic fault recorded");
    assert!(panics <= 3, "callback not disabled after cap: {panics} panics");
}

struct Quiet;

impl IncumbentCallback for Quiet {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        None
    }
}

/// An injected callback panic (chaos hook) fires exactly once, is recorded,
/// and leaves the search result intact.
#[test]
fn injected_callback_panic_is_recorded() {
    let m = big_knapsack(16);
    let plan = FaultPlan::new().inject(FaultSite::CallbackPanic);
    let cfg = MilpConfig {
        fault_plan: Some(plan.clone()),
        ..Default::default()
    };
    let sol = solve_with_callback(&m, &cfg, &mut Quiet).unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert_eq!(plan.fired(FaultSite::CallbackPanic), 1);
    assert!(sol
        .faults
        .iter()
        .any(|f| matches!(f, SolverFault::CallbackPanic(_))));
}

/// An already-expired wall-clock budget returns a clean (inconclusive or
/// feasible) status promptly instead of hanging or erroring.
#[test]
fn expired_budget_returns_clean_status() {
    let m = big_knapsack(24);
    let cfg = MilpConfig::with_budget(Budget::from_secs_f64(0.0));
    let start = std::time::Instant::now();
    let sol = solve(&m, &cfg).unwrap();
    assert!(start.elapsed() < std::time::Duration::from_secs(5));
    assert!(matches!(
        sol.status,
        MilpStatus::Feasible | MilpStatus::NoSolution
    ));
}

/// Interrupting the search at a node budget and resuming from the
/// checkpoint must reach an incumbent at least as good as an uninterrupted
/// run with the same *total* node budget (node counters carry across the
/// checkpoint, so both runs process the same number of nodes).
#[test]
fn checkpoint_resume_matches_uninterrupted() {
    let m = hard_knapsack(24);
    let total_nodes = 400usize;

    let uninterrupted = solve(
        &m,
        &MilpConfig {
            max_nodes: total_nodes,
            ..Default::default()
        },
    )
    .unwrap();

    // Same search, interrupted halfway.
    let (half, cp) = solve_resumable(
        &m,
        &MilpConfig {
            max_nodes: total_nodes / 2,
            ..Default::default()
        },
        &mut Quiet,
        None,
    )
    .unwrap();
    let cp = cp.expect("interrupted run must produce a checkpoint");
    assert!(cp.open_nodes() > 0);
    assert_eq!(cp.nodes_processed(), half.nodes);

    let (resumed, _) = solve_resumable(
        &m,
        &MilpConfig {
            max_nodes: total_nodes,
            ..Default::default()
        },
        &mut Quiet,
        Some(cp),
    )
    .unwrap();
    assert!(
        resumed.objective >= uninterrupted.objective - 1e-9,
        "resumed incumbent {} worse than uninterrupted {}",
        resumed.objective,
        uninterrupted.objective
    );
}

/// Resuming with the budget lifted finishes the proof and matches the
/// from-scratch optimum exactly.
#[test]
fn resume_to_optimality_matches_full_solve() {
    let m = hard_knapsack(20);
    let full = solve(&m, &MilpConfig::default()).unwrap();
    assert_eq!(full.status, MilpStatus::Optimal);

    let (_, cp) = solve_resumable(
        &m,
        &MilpConfig {
            max_nodes: 50,
            ..Default::default()
        },
        &mut Quiet,
        None,
    )
    .unwrap();
    let Some(cp) = cp else {
        // The toy tree may already be exhausted in 8 nodes — nothing to
        // resume, and the budgeted answer must then already be optimal.
        return;
    };
    let (resumed, cp2) = solve_resumable(&m, &MilpConfig::default(), &mut Quiet, Some(cp)).unwrap();
    assert!(cp2.is_none(), "finished run must not emit a checkpoint");
    assert_eq!(resumed.status, MilpStatus::Optimal);
    assert!(
        (resumed.objective - full.objective).abs() <= 1e-9 * (1.0 + full.objective.abs()),
        "resumed optimum {} vs full {}",
        resumed.objective,
        full.objective
    );
}

/// A panic inside a deterministic-engine worker thread's node evaluation
/// is contained: it reaches the coordinator as a panicked evaluation, the
/// sibling workers shut down, and the search surfaces a fatal error
/// instead of unwinding or hanging.
#[test]
fn det_worker_panic_is_contained_and_stops_the_search() {
    let m = big_knapsack(20);
    let plan = FaultPlan::new().inject(FaultSite::EvalPanic);
    let cfg = MilpConfig {
        threads: 4,
        parallel: metaopt_milp::ParallelMode::Deterministic,
        fault_plan: Some(plan.clone()),
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let err = solve(&m, &cfg).expect_err("an evaluation panic must abort the search");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "panic containment must not wedge the worker pool"
    );
    assert_eq!(plan.fired(FaultSite::EvalPanic), 1);
    assert!(
        err.to_string().contains("panicked"),
        "error must attribute the abort to the contained panic: {err}"
    );
}
