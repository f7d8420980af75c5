//! Golden results of the §5 topology attack on four searches: fig-1 under
//! DP, fig-1 under POP in average and in tail mode, and the 6-ring of
//! `examples/topology_attack.rs`. Each case pins the chosen capacities,
//! the model gap, verified gap and dual bound bit for bit, the node count,
//! the status, the size of the assembled model and the MILP's LP work
//! (pivots, basis updates, refactorizations, warm and cold solves, read
//! from a registered `MilpMetrics`). The constants were captured while
//! the attack still built its OPT and POP followers with encoders of its
//! own; building them through `encode_opt` and `encode_pop` must not move
//! a bit.
//!
//! Branch-and-bound runs on one thread over the sparse LU backend, set on
//! `cfg.milp` itself, and every search stops on a node cap, never on
//! time.
//!
//! Every case also checks that the chosen capacities remove no more than
//! the attack's total budget. ring6's constants were re-captured when the
//! capacity callback began scaling its candidates down to that budget and
//! keeping its first candidate among near-ties; before, it reported all
//! twelve links at 70, removing 360 of 150 units. The callback's own LPs
//! follow `METAOPT_FACTOR`, and every pin holds on both backends.

use metaopt_core::{
    find_adversarial_topology, FactorBackend, FinderConfig, HeuristicSpec, PopMode, TopologyAttack,
};
use metaopt_milp::{MilpMetrics, MilpStatus};
use metaopt_model::ModelStats;
use metaopt_obs::Registry;
use metaopt_te::{pop::random_partitions, TeInstance};
use metaopt_topology::synth;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node cap of every case; only the 6-ring reaches it.
const MAX_NODES: usize = 200;

struct Golden {
    name: &'static str,
    capacities: &'static [f64],
    model_gap: f64,
    verified_gap: f64,
    upper_bound: f64,
    nodes: usize,
    status: MilpStatus,
    stats: ModelStats,
    lp: [u64; 5],
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden {
        name: "fig1dp",
        capacities: &[70.0, 70.0],
        model_gap: 50.0,
        verified_gap: 50.0,
        upper_bound: 50.0,
        nodes: 9,
        status: MilpStatus::Optimal,
        stats: ModelStats { n_vars: 39, n_linear: 28, n_sos: 17, n_binary: 0 },
        lp: [84, 78, 3, 6, 3],
    },
    Golden {
        name: "fig1pop",
        capacities: &[100.0, 100.0],
        model_gap: 100.0,
        verified_gap: 100.0,
        upper_bound: 100.0,
        nodes: 37,
        status: MilpStatus::Optimal,
        stats: ModelStats { n_vars: 75, n_linear: 58, n_sos: 35, n_binary: 0 },
        lp: [84, 84, 19, 36, 1],
    },
    Golden {
        name: "fig1pop_tail",
        capacities: &[100.0, 100.0],
        model_gap: 100.0,
        verified_gap: 100.0,
        upper_bound: 100.0,
        nodes: 65,
        status: MilpStatus::Optimal,
        stats: ModelStats { n_vars: 90, n_linear: 83, n_sos: 35, n_binary: 5 },
        lp: [196, 195, 34, 64, 1],
    },
    Golden {
        name: "ring6",
        capacities: &[70.0000001974607, 70.0000001258147, 70.00000006016155, 70.00000027564658, 100.0, 100.0, 100.0, 84.99999967045827, 84.99999967045821, 100.0, 100.0, 100.0],
        model_gap: 59.999999340916474,
        verified_gap: 59.999999340916474,
        upper_bound: 720.0,
        nodes: 200,
        status: MilpStatus::Feasible,
        stats: ModelStats { n_vars: 522, n_linear: 361, n_sos: 240, n_binary: 0 },
        lp: [14363, 14363, 250, 166, 34],
    },
];

fn fig1() -> TeInstance {
    let (t, [n1, n2, n3]) = synth::figure1_triangle(100.0);
    TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
}

fn fig1_pop(mode: PopMode) -> HeuristicSpec {
    let mut rng = StdRng::seed_from_u64(1);
    HeuristicSpec::Pop {
        partitions: random_partitions(3, 2, 3, &mut rng),
        mode,
    }
}

/// The 6-ring of `examples/topology_attack.rs`: each node sends 10 (at
/// the pin threshold) to its antipode and 60 to each ring neighbour.
fn ring6() -> (TeInstance, Vec<f64>) {
    let inst = TeInstance::all_pairs(synth::circulant(6, 1, 100.0), 2).unwrap();
    let demands = inst
        .pairs
        .iter()
        .map(|&(s, t)| {
            if (s.0 + 3) % 6 == t.0 {
                10.0
            } else if (s.0 + 1) % 6 == t.0 || (t.0 + 1) % 6 == s.0 {
                60.0
            } else {
                0.0
            }
        })
        .collect();
    (inst, demands)
}

/// The case's instance, heuristic, fixed demands and attack.
fn case(name: &str) -> (TeInstance, HeuristicSpec, Vec<f64>, TopologyAttack) {
    let fig1_demands = vec![50.0, 100.0, 100.0];
    let per_link = TopologyAttack::per_edge(0.3);
    match name {
        "fig1dp" => {
            let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
            (fig1(), spec, fig1_demands, per_link)
        }
        "fig1pop" => (fig1(), fig1_pop(PopMode::Average), fig1_demands, per_link),
        "fig1pop_tail" => {
            let spec = fig1_pop(PopMode::TailWorst { rank: 0 });
            (fig1(), spec, fig1_demands, per_link)
        }
        "ring6" => {
            let (inst, demands) = ring6();
            let spec = HeuristicSpec::DemandPinning { threshold: 10.0 };
            (inst, spec, demands, per_link.with_total_budget(150.0))
        }
        _ => unreachable!("unknown case {name}"),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check(name: &str) {
    let golden = GOLDEN.iter().find(|g| g.name == name).unwrap();
    let (inst, spec, demands, attack) = case(name);
    let mut cfg = FinderConfig::default();
    cfg.milp.threads = 1;
    cfg.milp.factor = FactorBackend::SparseLU;
    cfg.milp.max_nodes = MAX_NODES;
    let metrics = MilpMetrics::register(&Registry::new());
    cfg.milp.metrics = metrics.clone();
    let r = find_adversarial_topology(&inst, &spec, &demands, &attack, &cfg).unwrap();
    let g = &r.gap;
    let lp = [
        metrics.lp.pivots.get(),
        metrics.lp.updates.get(),
        metrics.lp.refactors.get(),
        metrics.lp.warm_solves.get(),
        metrics.lp.cold_solves.get(),
    ];
    let now = format!(
        "{name}: capacities {:?} model_gap {:?} verified_gap {:?} upper_bound {:?} nodes {} status {:?} stats {:?} lp {lp:?}",
        r.capacities, g.model_gap, g.verified_gap, g.upper_bound, g.nodes, g.status, g.stats
    );
    assert_eq!(bits(&r.capacities), bits(golden.capacities), "{now}");
    assert_eq!(g.model_gap.to_bits(), golden.model_gap.to_bits(), "{now}");
    assert_eq!(
        g.verified_gap.to_bits(),
        golden.verified_gap.to_bits(),
        "{now}"
    );
    assert_eq!(
        g.upper_bound.to_bits(),
        golden.upper_bound.to_bits(),
        "{now}"
    );
    assert_eq!(g.nodes, golden.nodes, "{now}");
    assert_eq!(g.status, golden.status, "{now}");
    assert_eq!(g.stats, golden.stats, "{now}");
    assert_eq!(lp, golden.lp, "{now}");
    if let Some(budget) = attack.total_budget {
        let removed: f64 = inst
            .topo
            .edges()
            .zip(&r.capacities)
            .map(|(e, c)| inst.topo.capacity(e) - c)
            .sum();
        assert!(
            removed <= budget * (1.0 + 1e-9),
            "{name} removes {removed} against a total budget of {budget}"
        );
    }
}

#[test]
fn fig1_dp_attack() {
    check("fig1dp");
}

#[test]
fn fig1_pop_average_attack() {
    check("fig1pop");
}

#[test]
fn fig1_pop_tail_attack() {
    check("fig1pop_tail");
}

#[test]
fn ring6_dp_attack_at_200_nodes() {
    check("ring6");
}
