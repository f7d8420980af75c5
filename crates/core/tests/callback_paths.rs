//! Golden finder results on eight searches that lean on the incumbent
//! callback. The callback certifies each candidate once (a memo answers
//! repeats) and re-solves OPT warm on one LP; neither may change what the
//! search finds. Each case pins the model and verified gaps bit for bit,
//! the node count, the status, the gap values along the incumbent
//! trajectory and the reported demands. The constants were captured from
//! the callback that solved every candidate's OPT cold and kept no memo.
//! One constant was captured later: line4's node count. It moved from 773
//! to 531 when the serial engine began starting each heap node from its
//! parent's optimal basis, which changes the LP vertices, and so the
//! branching, of a proof run. 531 is also what the deterministic engine
//! explores on the same call at one thread, which has always warm-started
//! every node from its parent.
//!
//! The MILP's LP work is pinned too: pivots, basis updates,
//! refactorizations and warm/cold solves, read from a registered
//! `MilpMetrics`. A kernel change that moves a pivot but reaches the same
//! answer fails here. These counts were captured with the serial engine's
//! parent-basis warm starts in place.
//!
//! Every search runs branch-and-bound on one thread over the sparse LU
//! backend, whatever `METAOPT_THREADS` and `METAOPT_FACTOR` say. The
//! callback's own LPs follow `METAOPT_FACTOR`. On the dense backend a warm
//! re-solve reaches OPT through rank-one updates of an explicit inverse,
//! so the gaps the callback reports may differ from a cold solve's in the
//! last bits (B4 reports 7499.999999999993 for 7500.0): there those gaps
//! must agree to 1e-12 relative, and everything else still bit for bit.

use metaopt_core::{
    find_adversarial_gap, ConstrainedSet, FactorBackend, FinderConfig, GapResult, HeuristicSpec,
    PopMode,
};
use metaopt_milp::{MilpMetrics, MilpStatus};
use metaopt_obs::Registry;
use metaopt_te::{pop::random_partitions, TeInstance};
use metaopt_topology::{builtin, synth};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Golden {
    name: &'static str,
    model_gap: f64,
    verified_gap: f64,
    nodes: usize,
    status: MilpStatus,
    trajectory: &'static [f64],
    demands: &'static [f64],
    /// The MILP's LP work: pivots, basis updates, refactorizations, warm
    /// solves and cold solves.
    lp: [u64; 5],
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden {
        name: "fig1",
        model_gap: 50.0,
        verified_gap: 50.0,
        nodes: 25,
        status: MilpStatus::Optimal,
        trajectory: &[50.0],
        demands: &[50.0, 100.0, 100.0],
        lp: [70, 70, 14, 24, 1],
    },
    Golden {
        name: "line4",
        model_gap: 29.999999999996,
        verified_gap: 29.999999999996,
        nodes: 531,
        status: MilpStatus::Optimal,
        trajectory: &[29.999999999996],
        demands: &[10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 5.0, 10.0, 10.0],
        lp: [1104, 1104, 268, 530, 1],
    },
    Golden {
        name: "line5",
        model_gap: 49.999999999994,
        verified_gap: 49.999999999994,
        nodes: 400,
        status: MilpStatus::Feasible,
        trajectory: &[49.999999999994],
        demands: &[10.0, 10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0],
        lp: [836, 836, 95, 399, 1],
    },
    Golden {
        name: "b4",
        model_gap: 7500.0,
        verified_gap: 7500.0,
        nodes: 30,
        status: MilpStatus::Feasible,
        trajectory: &[7500.0],
        demands: &[1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0],
        lp: [2911, 2911, 50, 29, 1],
    },
    Golden {
        name: "abilene",
        model_gap: 7800.0,
        verified_gap: 7800.0,
        nodes: 40,
        status: MilpStatus::Feasible,
        trajectory: &[7800.0],
        demands: &[1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0],
        lp: [2042, 2042, 36, 39, 1],
    },
    Golden {
        name: "swan",
        model_gap: 3600.0,
        verified_gap: 3600.0,
        nodes: 40,
        status: MilpStatus::Feasible,
        trajectory: &[3600.0],
        demands: &[1000.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0],
        lp: [2103, 2103, 37, 39, 1],
    },
    Golden {
        name: "b4pop",
        model_gap: 16800.0,
        verified_gap: 16800.0,
        nodes: 20,
        status: MilpStatus::Feasible,
        trajectory: &[13650.0, 16800.0],
        demands: &[1000.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0, 0.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0, 1000.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 0.0, 1000.0, 0.0, 0.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0, 0.0, 1000.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0, 0.0, 1000.0, 0.0, 0.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 0.0, 1000.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0, 0.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 0.0, 0.0, 1000.0, 0.0, 1000.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0, 0.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 0.0, 0.0, 1000.0, 0.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0],
        lp: [6580, 6580, 153, 19, 1],
    },
    Golden {
        name: "b4quant",
        model_gap: 7500.0,
        verified_gap: 7500.0,
        nodes: 20,
        status: MilpStatus::Feasible,
        trajectory: &[7500.0],
        demands: &[1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 50.0, 50.0, 1000.0, 50.0, 1000.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 1000.0, 1000.0],
        lp: [3479, 3479, 71, 19, 1],
    },
];

fn dp(threshold: f64) -> HeuristicSpec {
    HeuristicSpec::DemandPinning { threshold }
}

fn all_pairs(topo: metaopt_topology::Topology) -> TeInstance {
    TeInstance::all_pairs(topo, 2).unwrap()
}

/// The case's instance, heuristic, constrained set and node budget
/// (0 = run to a proof).
fn case(name: &str) -> (TeInstance, HeuristicSpec, ConstrainedSet, usize) {
    let free = ConstrainedSet::unconstrained();
    match name {
        "fig1" => {
            let (t, [n1, n2, n3]) = synth::figure1_triangle(100.0);
            let inst = TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap();
            (inst, dp(50.0), free, 0)
        }
        "line4" => (all_pairs(synth::line(4, 10.0)), dp(5.0), free, 0),
        "line5" => (all_pairs(synth::line(5, 10.0)), dp(5.0), free, 400),
        "b4" => (all_pairs(builtin::b4(1000.0)), dp(50.0), free, 30),
        "abilene" => (all_pairs(builtin::abilene(1000.0)), dp(50.0), free, 40),
        "swan" => (all_pairs(builtin::swan(1000.0)), dp(50.0), free, 40),
        "b4pop" => {
            let inst = all_pairs(builtin::b4(1000.0));
            let mut rng = StdRng::seed_from_u64(7);
            let partitions = random_partitions(inst.n_pairs(), 2, 5, &mut rng);
            let spec = HeuristicSpec::Pop {
                partitions,
                mode: PopMode::Average,
            };
            (inst, spec, free, 20)
        }
        "b4quant" => {
            let quantized = free.quantized(vec![0.0, 50.0, 1000.0]);
            (all_pairs(builtin::b4(1000.0)), dp(50.0), quantized, 20)
        }
        _ => unreachable!("unknown case {name}"),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check(name: &str) {
    let golden = GOLDEN.iter().find(|g| g.name == name).unwrap();
    let (inst, spec, constraints, max_nodes) = case(name);
    let mut cfg = FinderConfig::default();
    cfg.milp.threads = 1;
    cfg.milp.factor = FactorBackend::SparseLU;
    if max_nodes > 0 {
        cfg.milp.max_nodes = max_nodes;
    }
    let metrics = MilpMetrics::register(&Registry::new());
    cfg.milp.metrics = metrics.clone();
    let r: GapResult = find_adversarial_gap(&inst, &spec, &constraints, &cfg).unwrap();
    let trajectory: Vec<f64> = r.trajectory.iter().map(|&(_, g)| g).collect();
    let lp = [
        metrics.lp.pivots.get(),
        metrics.lp.updates.get(),
        metrics.lp.refactors.get(),
        metrics.lp.warm_solves.get(),
        metrics.lp.cold_solves.get(),
    ];
    let now = format!(
        "{name}: model_gap {:?} verified_gap {:?} nodes {} status {:?} lp {lp:?} trajectory {trajectory:?} demands {:?}",
        r.model_gap, r.verified_gap, r.nodes, r.status, r.demands
    );
    let exact = FactorBackend::from_env() == FactorBackend::SparseLU;
    let same = |a: f64, b: f64| {
        if exact {
            a.to_bits() == b.to_bits()
        } else {
            (a - b).abs() <= 1e-12 * b.abs().max(1.0)
        }
    };
    assert!(same(r.model_gap, golden.model_gap), "{now}");
    assert_eq!(
        r.verified_gap.to_bits(),
        golden.verified_gap.to_bits(),
        "{now}"
    );
    assert_eq!(r.nodes, golden.nodes, "{now}");
    assert_eq!(lp, golden.lp, "{now}");
    assert_eq!(r.status, golden.status, "{now}");
    assert_eq!(trajectory.len(), golden.trajectory.len(), "{now}");
    for (&g, &want) in trajectory.iter().zip(golden.trajectory) {
        assert!(same(g, want), "{now}");
    }
    assert_eq!(bits(&r.demands), bits(golden.demands), "{now}");
}

#[test]
fn fig1_dp_proof() {
    check("fig1");
}

#[test]
fn line4_dp_proof() {
    check("line4");
}

#[test]
fn line5_dp_at_400_nodes() {
    check("line5");
}

#[test]
fn b4_dp_at_30_nodes() {
    check("b4");
}

#[test]
fn abilene_dp_at_40_nodes() {
    check("abilene");
}

#[test]
fn swan_dp_at_40_nodes() {
    check("swan");
}

#[test]
fn b4_pop2_at_20_nodes() {
    check("b4pop");
}

#[test]
fn b4_dp_quantized_at_20_nodes() {
    check("b4quant");
}
