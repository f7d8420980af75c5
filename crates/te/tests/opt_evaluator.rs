//! `OptEvaluator` (warm `OptMaxFlow`) against the cold `opt_max_flow`.

use metaopt_lp::{FaultPlan, FaultSite};
use metaopt_te::opt::{opt_max_flow, OptEvaluator};
use metaopt_te::TeInstance;
use metaopt_topology::{builtin, synth};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 500 seeded demand vectors: mostly single-coordinate moves over the
/// callback's level set `{0, T, d_max}` (the way consecutive callback
/// candidates differ), with a random full vector every tenth step.
fn walk(n: usize, t: f64, d_max: f64, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let levels = [0.0, t, d_max];
    let mut d = vec![d_max; n];
    (0..500)
        .map(|step| {
            if step % 10 == 9 {
                d = (0..n).map(|_| rng.gen_range(0.0..=d_max)).collect();
            } else {
                let k = rng.gen_range(0..n);
                d[k] = levels[rng.gen_range(0..levels.len())];
            }
            d.clone()
        })
        .collect()
}

#[test]
fn warm_total_flow_matches_cold_solves() {
    let cases = [
        ("b4", builtin::b4(1000.0), 50.0, 1000.0),
        ("abilene", builtin::abilene(1000.0), 50.0, 1000.0),
        ("line4", synth::line(4, 10.0), 5.0, 10.0),
    ];
    for (seed, (name, topo, t, d_max)) in (1u64..).zip(cases) {
        let inst = TeInstance::all_pairs(topo, 2).unwrap();
        let mut opt = OptEvaluator::new(&inst).unwrap();
        for (step, d) in walk(inst.n_pairs(), t, d_max, seed).iter().enumerate() {
            let warm = opt.total_flow(d).unwrap();
            let cold = opt_max_flow(&inst, d).unwrap().total_flow;
            assert!(
                (warm - cold).abs() <= 1e-9 * cold.abs().max(1.0),
                "{name} step {step}: warm {warm} cold {cold}"
            );
        }
    }
}

#[test]
fn wrong_demand_length_is_rejected() {
    let inst = TeInstance::all_pairs(synth::line(3, 10.0), 1).unwrap();
    let mut opt = OptEvaluator::new(&inst).unwrap();
    assert!(opt.total_flow(&[1.0, 2.0]).is_err());
}

/// A warm re-solve that the recovery ladder can only finish on its
/// bound-perturbation rung is degraded, so the evaluator must refuse it
/// (the caller then solves cold) — and the next vector must be answered
/// cleanly again.
#[test]
fn perturbation_rung_is_an_error() {
    let inst = TeInstance::all_pairs(builtin::b4(1000.0), 2).unwrap();
    let mut opt = OptEvaluator::new(&inst).unwrap();
    let vectors = walk(inst.n_pairs(), 50.0, 1000.0, 9);
    opt.total_flow(&vectors[0]).unwrap();
    // Three singular refactorizations in a row defeat the warm attempt,
    // the cold restart and the equilibrated restart; the fourth lets the
    // perturbed solve through. The first refactorization happens inside
    // a warm dual-simplex re-solve, once its updates are due one.
    let plan = FaultPlan::new()
        .inject_at(FaultSite::SingularRefactor, 1)
        .inject_at(FaultSite::SingularRefactor, 2)
        .inject_at(FaultSite::SingularRefactor, 3);
    opt.set_fault_plan(Some(plan.clone()));
    let mut refused = None;
    for (step, d) in vectors.iter().enumerate().skip(1) {
        let out = opt.total_flow(d);
        if plan.hits(FaultSite::SingularRefactor) > 0 {
            refused = Some((step, out));
            break;
        }
        let cold = opt_max_flow(&inst, d).unwrap().total_flow;
        assert!((out.unwrap() - cold).abs() <= 1e-9 * cold.abs().max(1.0));
    }
    let (step, out) = refused.expect("no warm re-solve refactorized");
    assert_eq!(plan.fired(FaultSite::SingularRefactor), 3);
    let err = out
        .expect_err("a degraded re-solve must be refused")
        .to_string();
    assert!(err.contains("degraded: true"), "step {step}: {err}");
    let next = &vectors[step + 1];
    let cold = opt_max_flow(&inst, next).unwrap().total_flow;
    let warm = opt.total_flow(next).unwrap();
    assert!((warm - cold).abs() <= 1e-9 * cold.abs().max(1.0));
}
