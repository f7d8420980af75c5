//! Stress tests: branch-and-bound-like bound-change sequences, deadline
//! behaviour, degenerate/structured LP families, and the sparse-backend
//! tier — large synthesized-topology max-flow LPs where the sparse LU
//! core must beat the dense inverse on wall clock, plus deterministic
//! singular-basis injection exercising the recovery ladder on the sparse
//! path.

mod common;

use common::{synth_max_flow, transportation};
use metaopt_lp::{
    FactorBackend, FaultPlan, FaultSite, LpProblem, Simplex, SimplexConfig, SolveStatus, VarId, INF,
};
use proptest::prelude::*;

#[test]
fn transportation_families_solve() {
    for (m, n, seed) in [(3, 4, 1), (5, 5, 2), (6, 8, 3), (10, 10, 4)] {
        let p = transportation(m, n, seed);
        let sol = Simplex::new(&p).solve().unwrap();
        assert_eq!(
            sol.status,
            SolveStatus::Optimal,
            "transportation({m},{n},{seed})"
        );
        assert!(p.max_violation(&sol.x) < 1e-6);
    }
}

/// Simulates a branch-and-bound dive: repeatedly fix variables to zero and
/// warm re-solve, then backtrack (relax) in reverse order. Every warm
/// answer must match a cold solve of the same bound set.
#[test]
fn bnb_like_bound_sequences_stay_consistent() {
    let p = transportation(4, 5, 9);
    let mut warm = Simplex::new(&p);
    let first = warm.solve().unwrap();
    assert_eq!(first.status, SolveStatus::Optimal);

    let fix_order = [0usize, 7, 3, 11, 5];
    let mut fixed: Vec<usize> = Vec::new();
    // Dive.
    for &j in &fix_order {
        warm.set_var_bounds(VarId(j), 0.0, 0.0).unwrap();
        fixed.push(j);
        let w = warm.resolve().unwrap();
        let mut cold_p = p.clone();
        for &k in &fixed {
            cold_p.set_bounds(VarId(k), 0.0, 0.0).unwrap();
        }
        let c = Simplex::new(&cold_p).solve().unwrap();
        assert_eq!(w.status, c.status, "dive at {fixed:?}");
        if w.status == SolveStatus::Optimal {
            assert!(
                (w.objective - c.objective).abs() <= 1e-6 * (1.0 + c.objective.abs()),
                "dive {fixed:?}: warm {} cold {}",
                w.objective,
                c.objective
            );
        }
    }
    // Backtrack.
    while let Some(j) = fixed.pop() {
        warm.set_var_bounds(VarId(j), 0.0, INF).unwrap();
        let w = warm.resolve().unwrap();
        let mut cold_p = p.clone();
        for &k in &fixed {
            cold_p.set_bounds(VarId(k), 0.0, 0.0).unwrap();
        }
        let c = Simplex::new(&cold_p).solve().unwrap();
        assert_eq!(w.status, c.status, "backtrack at {fixed:?}");
        if w.status == SolveStatus::Optimal {
            assert!(
                (w.objective - c.objective).abs() <= 1e-6 * (1.0 + c.objective.abs()),
                "backtrack {fixed:?}: warm {} cold {}",
                w.objective,
                c.objective
            );
        }
    }
}

/// A deadline in the past aborts promptly with a `DeadlineExceeded` fault
/// instead of hanging; clearing it restores normal solves.
#[test]
fn deadline_aborts_and_clears() {
    let p = transportation(12, 12, 5);
    let mut sx = Simplex::new(&p);
    sx.set_deadline(Some(std::time::Instant::now()));
    match sx.solve() {
        Err(metaopt_lp::LpError::Fault(metaopt_lp::SolverFault::DeadlineExceeded)) => {}
        Ok(sol) => {
            // Tiny problems may finish before the first deadline check —
            // acceptable, but the answer must then be optimal.
            assert_eq!(sol.status, SolveStatus::Optimal);
        }
        Err(e) => panic!("unexpected error {e}"),
    }
    sx.set_deadline(None);
    let sol = sx.solve().unwrap();
    assert_eq!(sol.status, SolveStatus::Optimal);
}

/// Tight custom configs (frequent refactor, low degen threshold) must not
/// change answers.
#[test]
fn config_variations_agree() {
    let p = transportation(5, 6, 11);
    let baseline = Simplex::new(&p).solve().unwrap().objective;
    for cfg in [
        SimplexConfig {
            refactor_every: 8,
            ..Default::default()
        },
        SimplexConfig {
            degen_threshold: 1,
            ..Default::default()
        },
        SimplexConfig {
            refactor_every: 4,
            degen_threshold: 2,
            ..Default::default()
        },
    ] {
        let sol = Simplex::with_config(&p, cfg).solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            (sol.objective - baseline).abs() <= 1e-6 * (1.0 + baseline.abs()),
            "config changed objective: {} vs {baseline}",
            sol.objective
        );
    }
}

fn timed_solve(backend: FactorBackend, p: &LpProblem) -> (f64, std::time::Duration) {
    let cfg = SimplexConfig {
        backend,
        ..SimplexConfig::default()
    };
    let t0 = std::time::Instant::now();
    let sol = Simplex::with_config(p, cfg).solve().expect("stress solve");
    assert_eq!(sol.status, SolveStatus::Optimal, "{backend} stress solve");
    (sol.objective, t0.elapsed())
}

/// On ≥100-node synthesized instances the sparse backend must agree with
/// the dense one on the objective *and* win on wall clock. Each backend
/// gets two runs and keeps its best, so a single scheduler hiccup cannot
/// decide the comparison; the margin demanded is only "faster at all"
/// because the asymptotics at this size (hundreds of rows, ~1% fill)
/// already put the backends far apart.
#[test]
fn sparse_beats_dense_on_large_synth_instances() {
    for (n_nodes, n_pairs, seed) in [(100usize, 300usize, 7u64), (140, 420, 23)] {
        let p = synth_max_flow(n_nodes, n_pairs, seed);
        let (obj_d1, t_d1) = timed_solve(FactorBackend::Dense, &p);
        let (obj_s1, t_s1) = timed_solve(FactorBackend::SparseLU, &p);
        let (_, t_d2) = timed_solve(FactorBackend::Dense, &p);
        let (_, t_s2) = timed_solve(FactorBackend::SparseLU, &p);
        assert!(
            (obj_d1 - obj_s1).abs() <= 1e-9 * (1.0 + obj_d1.abs()),
            "objectives diverged on synth({n_nodes},{n_pairs},{seed}): dense {obj_d1} sparse {obj_s1}"
        );
        let dense = t_d1.min(t_d2);
        let sparse = t_s1.min(t_s2);
        assert!(
            sparse < dense,
            "sparse ({sparse:?}) did not beat dense ({dense:?}) on synth({n_nodes},{n_pairs},{seed})"
        );
    }
}

/// Deterministic singular-basis injection on the sparse path: the fault
/// plan forces the k-th refactorization to report a singular matrix, and
/// the recovery ladder must clear it — same final objective as an
/// uninjected run, with the fault provably fired.
#[test]
fn singular_refactor_injection_recovers_on_sparse() {
    let p = synth_max_flow(60, 150, 42);
    let cfg = SimplexConfig {
        backend: FactorBackend::SparseLU,
        // Frequent refactorization guarantees the armed occurrence is
        // reached deterministically within the solve.
        refactor_every: 8,
        ..SimplexConfig::default()
    };
    let baseline = Simplex::with_config(&p, cfg.clone())
        .solve()
        .expect("baseline solve");
    assert_eq!(baseline.status, SolveStatus::Optimal);
    for occurrence in [1usize, 3] {
        let plan = FaultPlan::new().inject_at(FaultSite::SingularRefactor, occurrence);
        let mut sx = Simplex::with_config(&p, cfg.clone());
        sx.set_fault_plan(Some(plan.clone()));
        let sol = sx.solve().expect("injected solve must recover");
        assert_eq!(sol.status, SolveStatus::Optimal, "occurrence {occurrence}");
        assert!(
            (sol.objective - baseline.objective).abs()
                <= 1e-9 * (1.0 + baseline.objective.abs()),
            "recovered objective drifted at occurrence {occurrence}: {} vs {}",
            sol.objective,
            baseline.objective
        );
        assert!(
            plan.fired(FaultSite::SingularRefactor) > 0,
            "occurrence {occurrence} never fired — injection site unreachable"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random multi-step bound tightening on random transportation LPs:
    /// warm always agrees with cold.
    #[test]
    fn random_bound_walks_agree(
        m in 2usize..5,
        n in 2usize..5,
        seed in 1u64..500,
        steps in proptest::collection::vec((0usize..25, 0usize..3), 1..6),
    ) {
        let p = transportation(m, n, seed);
        let nvars = m * n;
        let mut warm = Simplex::new(&p);
        if warm.solve().unwrap().status != SolveStatus::Optimal {
            return Ok(());
        }
        let mut bounds: Vec<(f64, f64)> = (0..nvars).map(|_| (0.0, INF)).collect();
        for (raw_j, action) in steps {
            let j = raw_j % nvars;
            let nb = match action {
                0 => (0.0, 0.0),          // fix to zero
                1 => (0.0, 4.0),          // cap
                _ => (0.0, INF),          // relax
            };
            bounds[j] = nb;
            warm.set_var_bounds(VarId(j), nb.0, nb.1).unwrap();
            let w = warm.resolve().unwrap();
            let mut cold_p = p.clone();
            for (k, &(lo, hi)) in bounds.iter().enumerate() {
                cold_p.set_bounds(VarId(k), lo, hi).unwrap();
            }
            let c = Simplex::new(&cold_p).solve().unwrap();
            prop_assert_eq!(w.status, c.status);
            if w.status == SolveStatus::Optimal {
                prop_assert!((w.objective - c.objective).abs() <= 1e-5 * (1.0 + c.objective.abs()),
                    "warm {} cold {}", w.objective, c.objective);
            }
        }
    }
}
