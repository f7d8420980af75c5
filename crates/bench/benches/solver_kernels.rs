//! Criterion micro-benchmarks of the solver substrates: simplex cold solve,
//! dual-simplex warm re-solve, the B4 DP root LP (its cold solve, and a
//! basis install, which is one refactorization), KKT model construction,
//! and branch-and-bound on a small complementarity system.

use criterion::{criterion_group, criterion_main, Criterion};
use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{ConstrainedSet, FinderConfig, HeuristicSpec};
use metaopt_lp::{LpProblem, Simplex, VarId};
use metaopt_milp::{solve, MilpConfig};
use metaopt_model::compile::compile;
use metaopt_model::{kkt, InnerProblem, LinExpr, Model, ObjSense, Sense};
use metaopt_te::{flow::opt_max_flow_lp, TeInstance};
use metaopt_topology::builtin;
use metaopt_topology::synth::circulant;

fn te_instance() -> TeInstance {
    TeInstance::all_pairs(circulant(8, 2, 1000.0), 2).unwrap()
}

fn bench_simplex_cold(c: &mut Criterion) {
    let inst = te_instance();
    let demands = vec![400.0; inst.n_pairs()];
    let (lp, _) = opt_max_flow_lp(&inst, &demands).unwrap();
    c.bench_function("simplex_cold_te_lp", |b| {
        b.iter(|| {
            let sol = Simplex::new(&lp).solve().unwrap();
            std::hint::black_box(sol.objective)
        });
    });
}

fn bench_simplex_warm(c: &mut Criterion) {
    let inst = te_instance();
    let demands = vec![400.0; inst.n_pairs()];
    let (lp, _) = opt_max_flow_lp(&inst, &demands).unwrap();
    let mut sx = Simplex::new(&lp);
    sx.solve().unwrap();
    c.bench_function("dual_simplex_warm_resolve", |b| {
        let mut flip = false;
        b.iter(|| {
            // Alternate tightening/relaxing one variable's bound.
            let hi = if flip { 0.0 } else { f64::INFINITY };
            flip = !flip;
            sx.set_var_bounds(VarId(0), 0.0, hi).unwrap();
            let sol = sx.resolve().unwrap();
            std::hint::black_box(sol.status)
        });
    });
}

/// The LP relaxation at the root of the B4 DP search (2000 rows), the LP
/// a finder call spends most of its time in.
fn b4_dp_root_lp() -> LpProblem {
    let inst = TeInstance::all_pairs(builtin::b4(1000.0), 2).unwrap();
    let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
    let am = build_adversarial_model(
        &inst,
        &spec,
        &ConstrainedSet::unconstrained(),
        &FinderConfig::default(),
    )
    .unwrap();
    compile(&am.model).unwrap().lp
}

fn bench_b4_dp_root(c: &mut Criterion) {
    let lp = b4_dp_root_lp();
    c.bench_function("simplex_cold_b4_dp_root", |b| {
        b.iter(|| {
            let sol = Simplex::new(&lp).solve().unwrap();
            std::hint::black_box(sol.objective)
        });
    });
    let mut sx = Simplex::new(&lp);
    sx.solve().unwrap();
    let basis = sx.snapshot_basis().unwrap();
    c.bench_function("install_basis_b4_dp_root", |b| {
        b.iter(|| {
            sx.install_basis(&basis).unwrap();
            std::hint::black_box(sx.iterations())
        });
    });
}

fn bench_kkt_build(c: &mut Criterion) {
    let inst = TeInstance::all_pairs(builtin::b4(1000.0), 2).unwrap();
    let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
    let cfg = FinderConfig::default();
    c.bench_function("build_adversarial_model_b4_dp", |b| {
        b.iter(|| {
            let am =
                build_adversarial_model(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
                    .unwrap();
            std::hint::black_box(am.model.n_constraints())
        });
    });
    c.bench_function("compile_adversarial_model_b4_dp", |b| {
        let am = build_adversarial_model(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
            .unwrap();
        b.iter(|| {
            let cm = compile(&am.model).unwrap();
            std::hint::black_box(cm.stats.n_sos)
        });
    });
}

fn bench_bnb_complementarity(c: &mut Criterion) {
    // The toy adversarial gap problem: small but exercises KKT branching.
    c.bench_function("bnb_toy_stackelberg", |b| {
        b.iter(|| {
            let mut m = Model::new();
            let theta = m.add_var("theta", 0.0, 4.0).unwrap();
            let mut opt = InnerProblem::new("opt");
            let xo = opt.add_var(&mut m, "xo", 0.0, f64::INFINITY).unwrap();
            opt.constrain(LinExpr::from(xo) - theta, Sense::Le).unwrap();
            opt.constrain_pair(xo, Sense::Le, 3.0).unwrap();
            opt.set_objective(ObjSense::Max, xo);
            kkt::append_kkt(&mut m, &opt, 1e3).unwrap();
            let mut heu = InnerProblem::new("heu");
            let xh = heu.add_var(&mut m, "xh", 0.0, f64::INFINITY).unwrap();
            heu.constrain(LinExpr::from(xh) - LinExpr::term(theta, 0.5), Sense::Le)
                .unwrap();
            heu.constrain_pair(xh, Sense::Le, 3.0).unwrap();
            heu.set_objective(ObjSense::Max, xh);
            kkt::append_kkt(&mut m, &heu, 1e3).unwrap();
            m.set_objective(ObjSense::Max, LinExpr::from(xo) - xh).unwrap();
            let sol = solve(&m, &MilpConfig::default()).unwrap();
            std::hint::black_box(sol.objective)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simplex_cold, bench_simplex_warm, bench_b4_dp_root, bench_kkt_build, bench_bnb_complementarity
}
criterion_main!(benches);
