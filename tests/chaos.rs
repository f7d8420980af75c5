//! Chaos suite: deterministic fault injection across lp → milp → core.
//!
//! Every test here drives the *whole* pipeline (or the bare simplex) with
//! a [`FaultPlan`] that forces NaN pivots, singular refactorizations,
//! expired deadlines, panicking incumbent callbacks, and spurious stalls —
//! and asserts the invariant the resilience layer exists for: **a clean
//! status comes back every time** (no panic, no hang, no `Err` for solver
//! faults), and anything reported as an incumbent survives re-verification
//! against the real OPT and heuristic.
//!
//! The seed matrix is fixed by default and overridable for CI shards via
//! the `CHAOS_SEED` environment variable (a single `u64`).

use metaopt::core::{
    find_adversarial_gap, ConstrainedSet, DegradationLevel, FinderConfig, HeuristicSpec,
};
use metaopt::lp::{LpProblem, RowSense, Simplex, SolveStatus, INF};
use metaopt::milp::MilpStatus;
use metaopt::resilience::{Budget, FaultPlan, FaultSite};
use metaopt::te::TeInstance;
use metaopt::topology::builtin::b4;
use metaopt::topology::synth::figure1_triangle;
use proptest::prelude::*;

fn fig1_instance() -> TeInstance {
    let (topo, [n1, n2, n3]) = figure1_triangle(100.0);
    TeInstance::with_pairs(topo, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
}

/// The post-conditions every chaos run must satisfy, regardless of what
/// was injected.
fn assert_clean(result: &metaopt::core::GapResult, context: &str) {
    match result.status {
        MilpStatus::Optimal | MilpStatus::Feasible => {
            assert!(
                result.verified_gap.is_finite(),
                "{context}: incumbent demands failed re-verification: {result}"
            );
            assert!(
                result.certification_error() < 1e-3,
                "{context}: certification error {} too large: {result}",
                result.certification_error()
            );
        }
        MilpStatus::Infeasible | MilpStatus::Unbounded => {}
        MilpStatus::NoSolution => {
            assert!(
                result.degradation >= DegradationLevel::None,
                "{context}: inconsistent degradation"
            );
        }
    }
    // A degraded result must say so explicitly, never silently.
    if result.degradation == DegradationLevel::NoSolution {
        assert_eq!(result.status, MilpStatus::NoSolution, "{context}");
    }
}

/// Each of the five instrumented fault sites, injected into an otherwise
/// healthy run, ends in a clean status — and the instrumented path was
/// genuinely executed (`hits > 0`), so the coverage is real.
#[test]
fn every_fault_site_ends_in_clean_status() {
    let inst = fig1_instance();
    let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
    for site in FaultSite::ALL {
        let plan = FaultPlan::new().inject(site);
        let mut cfg = FinderConfig::budgeted(20.0);
        cfg.milp.fault_plan = Some(plan.clone());
        let result =
            find_adversarial_gap(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
                .unwrap_or_else(|e| panic!("{site:?}: finder errored: {e}"));
        assert!(
            plan.hits(site) > 0,
            "{site:?}: instrumented path never executed"
        );
        assert_eq!(
            plan.fired(site),
            1,
            "{site:?}: injection did not fire exactly once"
        );
        assert_clean(&result, &format!("{site:?}"));
        // A single recoverable fault must not cost the answer: the
        // recovery ladder (or the degradation chain) still produces the
        // certified Figure-1 gap of 50 flow units.
        if matches!(site, FaultSite::NanPivot | FaultSite::SingularRefactor) {
            assert!(
                (result.verified_gap - 50.0).abs() < 1e-4,
                "{site:?}: expected the certified figure-1 gap, got {result}"
            );
        }
    }
}

/// Seeded random fault plans (1–3 triggers each) across the full pipeline.
/// The matrix is fixed so failures reproduce; CI shards can pin a single
/// seed with `CHAOS_SEED=<n>`.
#[test]
fn seeded_chaos_matrix_is_panic_free() {
    let seeds: Vec<u64> = match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => (0..12).collect(),
    };
    let inst = fig1_instance();
    let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
    for seed in seeds {
        let plan = FaultPlan::from_seed(seed);
        let mut cfg = FinderConfig::budgeted(10.0);
        cfg.milp.fault_plan = Some(plan.clone());
        cfg.fallback_seed = seed;
        let result =
            find_adversarial_gap(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
                .unwrap_or_else(|e| panic!("seed {seed}: finder errored: {e}"));
        assert_clean(&result, &format!("seed {seed} ({:?})", plan.targeted_sites()));
    }
}

/// Acceptance: a 1-second end-to-end budget on B4 still returns a
/// *certified* incumbent through the new `Budget` plumbing — the anytime
/// guarantee the paper's §3.3 stop rules assume.
#[test]
fn one_second_budget_on_b4_returns_certified_incumbent() {
    let inst = TeInstance::all_pairs(b4(1000.0), 2).unwrap();
    let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
    let cfg = FinderConfig::budgeted(1.0);
    let result =
        find_adversarial_gap(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg).unwrap();
    assert!(
        matches!(result.status, MilpStatus::Optimal | MilpStatus::Feasible),
        "no incumbent under the 1 s budget: {result}"
    );
    assert!(result.verified_gap.is_finite());
    assert!(
        result.certification_error() < 1e-3,
        "uncertified incumbent: {result}"
    );
}

/// Builds a transportation-style LP (m sources × n sinks).
fn transportation(m: usize, n: usize, seed: u64) -> LpProblem {
    let mut p = LpProblem::new();
    let mut cost = seed.max(1);
    let mut next = move || {
        cost ^= cost << 13;
        cost ^= cost >> 7;
        cost ^= cost << 17;
        (cost % 97) as f64 / 10.0 + 0.1
    };
    let xs: Vec<Vec<metaopt::lp::VarId>> = (0..m)
        .map(|_| {
            (0..n)
                .map(|_| p.add_var(0.0, INF, next()).unwrap())
                .collect()
        })
        .collect();
    let supply = 10.0 * n as f64 / m as f64;
    for row in &xs {
        p.add_row(RowSense::Le, supply, row.iter().map(|&v| (v, 1.0)))
            .unwrap();
    }
    for j in 0..n {
        p.add_row(RowSense::Ge, 8.0, xs.iter().map(|row| (row[j], 1.0)))
            .unwrap();
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random LPs under microscopic deadlines and random injected faults:
    /// the simplex always returns a status — never panics, never loops —
    /// and afterwards recovers to a normal optimal solve once the plan and
    /// deadline are lifted.
    #[test]
    fn lp_never_panics_under_faults_and_tiny_deadlines(
        m in 2usize..6,
        n in 2usize..6,
        lp_seed in 1u64..400,
        fault_seed in 0u64..400,
        expired in 0u8..2,
    ) {
        let expired = expired == 1;
        let p = transportation(m, n, lp_seed);
        let mut sx = Simplex::new(&p);
        sx.set_fault_plan(Some(FaultPlan::from_seed(fault_seed)));
        if expired {
            sx.set_deadline(Some(std::time::Instant::now()));
        }
        // Any outcome is acceptable — only panics and hangs are bugs.
        let first = sx.solve();
        if let Ok(sol) = &first {
            prop_assert!(sol.status != SolveStatus::Optimal || p.max_violation(&sol.x) < 1e-5);
        }
        // The solver must remain usable: lift the chaos, solve cleanly.
        sx.set_fault_plan(None);
        sx.set_deadline(None);
        let clean = sx.solve();
        prop_assert!(clean.is_ok(), "post-chaos solve failed: {:?}", clean.err());
        prop_assert_eq!(clean.unwrap().status, SolveStatus::Optimal);
    }

    /// The full finder under microscopic budgets and seeded faults always
    /// returns a status whose incumbent (when present) re-verifies.
    #[test]
    fn finder_is_anytime_under_chaos(
        fault_seed in 0u64..64,
        millis in 1u64..40,
    ) {
        let inst = fig1_instance();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let mut cfg = FinderConfig {
            fallback_seed: fault_seed,
            ..FinderConfig::default()
        };
        cfg.milp.budget = Budget::from_duration(std::time::Duration::from_millis(millis));
        cfg.milp.fault_plan = Some(FaultPlan::from_seed(fault_seed));
        let result = find_adversarial_gap(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg);
        prop_assert!(result.is_ok(), "finder errored: {:?}", result.err());
        let result = result.unwrap();
        if matches!(result.status, MilpStatus::Optimal | MilpStatus::Feasible) {
            prop_assert!(result.verified_gap.is_finite());
            prop_assert!(
                result.certification_error() < 1e-3,
                "uncertified incumbent under chaos: {}", result
            );
        }
    }
}
