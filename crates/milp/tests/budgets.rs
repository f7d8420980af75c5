//! Stop-rule tests: target objective, time limits, and the §3.3 stall
//! window.

use metaopt_milp::{solve, solve_with_callback, IncumbentCallback, MilpConfig, MilpStatus};
use metaopt_model::{LinExpr, Model, ObjSense, Sense};
use std::time::Duration;

/// A knapsack with many items (slow to prove optimal, quick to find
/// feasible points for).
fn big_knapsack(n: usize) -> (Model, f64) {
    let mut m = Model::new();
    let mut w = LinExpr::zero();
    let mut v = LinExpr::zero();
    let mut total_v = 0.0;
    for i in 0..n {
        let z = m.add_binary(format!("z{i}")).unwrap();
        let wi = 1.0 + ((i * 37) % 17) as f64;
        let vi = 1.0 + ((i * 53) % 23) as f64;
        w.add_term(z, wi);
        v.add_term(z, vi);
        total_v += vi;
    }
    m.constrain(w, Sense::Le, 4.0 * n as f64).unwrap();
    m.set_objective(ObjSense::Max, v).unwrap();
    (m, total_v)
}

#[test]
fn target_objective_stops_early() {
    let (m, _total) = big_knapsack(18);
    // First get the true optimum as reference.
    let full = solve(&m, &MilpConfig::default()).unwrap();
    assert_eq!(full.status, MilpStatus::Optimal);

    // Now ask only for a solution at 50% of the optimum.
    let target = 0.5 * full.objective;
    let cfg = MilpConfig {
        target_objective: Some(target),
        ..Default::default()
    };
    let quick = solve(&m, &cfg).unwrap();
    assert!(
        quick.objective >= target - 1e-9,
        "incumbent {} below target {target}",
        quick.objective
    );
    assert!(
        quick.nodes <= full.nodes,
        "target stop explored more nodes ({}) than the full solve ({})",
        quick.nodes,
        full.nodes
    );
}

#[test]
fn time_limit_yields_anytime_answer() {
    let (m, _) = big_knapsack(26);
    let cfg = MilpConfig {
        time_limit: Some(Duration::from_millis(300)),
        ..Default::default()
    };
    let sol = solve(&m, &cfg).unwrap();
    // With any budget at all, the diving strategy finds some incumbent.
    assert!(matches!(
        sol.status,
        MilpStatus::Optimal | MilpStatus::Feasible | MilpStatus::NoSolution
    ));
    if sol.status != MilpStatus::NoSolution {
        assert!(sol.objective.is_finite());
        assert!(sol.best_bound >= sol.objective - 1e-9);
    }
}

struct SlowFeeder {
    values: Vec<f64>,
    n_vars: usize,
}

impl IncumbentCallback for SlowFeeder {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        let v = self.values.pop()?;
        Some((vec![0.0; self.n_vars], v))
    }
}

/// The stall window fires when improvements dry up (callback feeds a few
/// early incumbents then goes quiet; the tree is large).
#[test]
fn stall_window_triggers() {
    let (m, total) = big_knapsack(30);
    let cfg = MilpConfig {
        stall_window: Some(Duration::from_millis(250)),
        time_limit: Some(Duration::from_secs(30)), // backstop, should not hit
        ..Default::default()
    };
    let mut cb = SlowFeeder {
        // Deliberately unreachable-high "certified" values are fine for
        // this stop-rule test (the solver trusts callbacks).
        values: vec![0.4 * total],
        n_vars: m.n_vars(),
    };
    let start = std::time::Instant::now();
    let sol = solve_with_callback(&m, &cfg, &mut cb).unwrap();
    // Must stop well before the 30 s backstop.
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "stall window did not fire ({:?})",
        start.elapsed()
    );
    assert!(sol.objective >= 0.4 * total - 1e-9);
}
