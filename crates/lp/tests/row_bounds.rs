//! `Simplex::set_row_bounds`: a warm `resolve()` after a walk of row-range
//! changes must agree with a cold solve of the changed problem, under both
//! factorization backends, and bad ranges must be rejected.

mod common;

use common::{synth_max_flow, transportation};
use metaopt_lp::{
    FactorBackend, FaultPlan, FaultSite, LpError, LpProblem, RowId, Simplex, SimplexConfig,
    SolveStatus, INF, NEG_INF,
};

const BACKENDS: [FactorBackend; 2] = [FactorBackend::Dense, FactorBackend::SparseLU];

/// Xorshift stream in `[0, 1)`, so every walk is reproducible.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Walks `steps` rounds of one to three row-range changes drawn by `draw`
/// from the problem's original ranges; after each round, the warm
/// re-solve must match a cold solve of the same ranges in status and, when
/// optimal, in objective to 1e-9 relative. Returns the rounds that ended
/// optimal.
fn walk(
    p: &LpProblem,
    backend: FactorBackend,
    seed: u64,
    steps: usize,
    draw: impl Fn((f64, f64), &mut dyn FnMut() -> f64) -> (f64, f64),
) -> usize {
    let cfg = SimplexConfig {
        backend,
        ..SimplexConfig::default()
    };
    let mut rand = uniform(seed);
    let mut ranges: Vec<(f64, f64)> = (0..p.n_rows()).map(|i| p.row_bounds(i)).collect();
    let mut warm = Simplex::with_config(p, cfg.clone());
    assert_eq!(warm.solve().unwrap().status, SolveStatus::Optimal);
    let mut optimal = 0;
    for step in 0..steps {
        let changes = 1 + (rand() * 3.0) as usize;
        for _ in 0..changes {
            let i = (rand() * p.n_rows() as f64) as usize;
            ranges[i] = draw(p.row_bounds(i), &mut rand);
            warm.set_row_bounds(RowId(i), ranges[i].0, ranges[i].1)
                .unwrap();
        }
        let w = warm.resolve().unwrap();
        let mut cold = Simplex::with_config(p, cfg.clone());
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            cold.set_row_bounds(RowId(i), lo, hi).unwrap();
        }
        let c = cold.solve().unwrap();
        let at = format!("{backend:?} seed {seed} step {step}");
        assert_eq!(w.status, c.status, "{at}");
        assert!(!w.degraded && !c.degraded, "{at}");
        if c.status == SolveStatus::Optimal {
            optimal += 1;
            let tol = 1e-9 * c.objective.abs().max(1.0);
            assert!(
                (w.objective - c.objective).abs() <= tol,
                "{at}: warm {} cold {}",
                w.objective,
                c.objective
            );
        }
    }
    optimal
}

/// Transportation LPs: supply caps (`<=` rows) and sink requirements
/// (`>=` rows) move within ±60% of their original value, so some rounds
/// are infeasible and the warm path must say so too.
#[test]
fn transportation_walks_match_cold_solves() {
    for backend in BACKENDS {
        let mut optimal = 0;
        for (m, n, seed) in [(3, 4, 1), (5, 5, 2), (6, 8, 3), (10, 10, 4)] {
            let p = transportation(m, n, seed);
            optimal += walk(&p, backend, seed, 12, |(lo, hi), rand| {
                let f = 0.4 + 1.2 * rand();
                if hi.is_finite() {
                    (NEG_INF, hi * f)
                } else {
                    (lo * f, INF)
                }
            });
        }
        assert!(optimal >= 12, "{backend:?}: only {optimal} optimal rounds");
    }
}

/// Max-flow LPs (the shape `OptEvaluator` re-solves): demand and capacity
/// caps move anywhere in `[0, 6)`, and one move in four turns the row
/// into a two-sided range `[lo, hi]` that forces flow through it.
#[test]
fn max_flow_walks_match_cold_solves() {
    for backend in BACKENDS {
        for (nodes, pairs, seed) in [(20usize, 50usize, 3u64), (60, 150, 42)] {
            let p = synth_max_flow(nodes, pairs, seed);
            let optimal = walk(&p, backend, seed, 10, |_, rand| {
                let hi = 6.0 * rand();
                if rand() < 0.25 {
                    (0.5 * hi, hi)
                } else {
                    (NEG_INF, hi)
                }
            });
            assert!(optimal >= 1, "{backend:?} synth {nodes}: no optimal round");
        }
    }
}

#[test]
fn bad_row_ranges_are_rejected() {
    let p = transportation(3, 4, 1);
    for backend in BACKENDS {
        let cfg = SimplexConfig {
            backend,
            ..SimplexConfig::default()
        };
        let mut sx = Simplex::with_config(&p, cfg);
        let before = sx.solve().unwrap().objective;
        let m = p.n_rows();
        assert!(matches!(
            sx.set_row_bounds(RowId(m), 0.0, 1.0),
            Err(LpError::BadIndex(_))
        ));
        assert!(matches!(
            sx.set_row_bounds(RowId(0), f64::NAN, 1.0),
            Err(LpError::NotFinite(_))
        ));
        assert!(matches!(
            sx.set_row_bounds(RowId(0), 0.0, f64::NAN),
            Err(LpError::NotFinite(_))
        ));
        assert!(matches!(
            sx.set_row_bounds(RowId(1), 2.0, 1.0),
            Err(LpError::EmptyRowRange { row: 1, .. })
        ));
        // A rejected change leaves the problem as it was.
        let after = sx.resolve().unwrap();
        assert_eq!(after.status, SolveStatus::Optimal);
        assert_eq!(after.objective.to_bits(), before.to_bits(), "{backend:?}");
    }
}

/// With every solving rung of the recovery ladder defeated, the last rung
/// hands back the cached optimum. After a row-range change that point
/// belongs to the old right-hand side, so there must be none to return.
#[test]
fn row_change_drops_the_cached_fallback_point() {
    let p = transportation(3, 4, 1);
    for backend in BACKENDS {
        let cfg = SimplexConfig {
            backend,
            ..SimplexConfig::default()
        };
        for change_row in [false, true] {
            let mut sx = Simplex::with_config(&p, cfg.clone());
            sx.solve().unwrap();
            if change_row {
                let (lo, hi) = p.row_bounds(0);
                sx.set_row_bounds(RowId(0), lo, 0.5 * hi).unwrap();
            }
            // Five singular refactorizations: the cold start, the cold
            // restart, the equilibrated restart and both perturbed retries.
            let plan = (1..=5).fold(FaultPlan::new(), |plan, k| {
                plan.inject_at(FaultSite::SingularRefactor, k)
            });
            sx.set_fault_plan(Some(plan.clone()));
            let out = sx.solve();
            assert_eq!(plan.fired(FaultSite::SingularRefactor), 5);
            if change_row {
                assert!(out.is_err(), "{backend:?}: {out:?}");
            } else {
                assert!(out.unwrap().degraded, "{backend:?}");
            }
        }
    }
}
