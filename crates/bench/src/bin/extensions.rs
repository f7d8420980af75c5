//! §5 extensions harness: quantized search, the binary-sweep strategy,
//! hose constraints, and topology attacks — the paper's "open issues and
//! future work" items this repository implements.

use metaopt_bench::{budget_secs, f, CsvOut};
use metaopt_core::{
    find_adversarial_gap, find_adversarial_topology, sweep_max_gap, Budget, ConstrainedSet,
    FinderConfig, HeuristicSpec, TopologyAttack,
};
use metaopt_te::TeInstance;
use metaopt_topology::builtin;
use std::time::Instant;

fn main() {
    let budget = budget_secs();
    let topo = builtin::swan(1000.0);
    let norm = topo.total_capacity();
    let inst = TeInstance::all_pairs(topo, 2).unwrap();
    let threshold = 50.0;
    let spec = HeuristicSpec::DemandPinning { threshold };
    println!("§5 extensions on SWAN (DP, T=50), budget {budget}s per run\n");
    let mut csv = CsvOut::new("extensions", &["experiment", "norm_gap", "secs", "notes"]);

    // 1. Continuous vs quantized search (§5 "quantizing the space of
    //    inputs can speed up the search without sacrificing quality").
    let t = Instant::now();
    let cont = find_adversarial_gap(
        &inst,
        &spec,
        &ConstrainedSet::unconstrained(),
        &FinderConfig::budgeted(budget),
    )
    .unwrap();
    let cont_secs = t.elapsed().as_secs_f64();
    println!(
        "  continuous search : gap {:.4} in {:.1}s ({} nodes)",
        cont.verified_gap / norm,
        cont_secs,
        cont.nodes
    );
    csv.row(["continuous".into(), f(cont.verified_gap / norm), f(cont_secs), format!("{} nodes", cont.nodes)]);

    let t = Instant::now();
    let quant = find_adversarial_gap(
        &inst,
        &spec,
        &ConstrainedSet::unconstrained().quantized(vec![0.0, threshold, 1000.0]),
        &FinderConfig::budgeted(budget),
    )
    .unwrap();
    let quant_secs = t.elapsed().as_secs_f64();
    println!(
        "  quantized {{0,T,D}} : gap {:.4} in {:.1}s ({} nodes)",
        quant.verified_gap / norm,
        quant_secs,
        quant.nodes
    );
    csv.row(["quantized".into(), f(quant.verified_gap / norm), f(quant_secs), format!("{} nodes", quant.nodes)]);

    // 2. Binary sweep (the §3.3 Z3-style strategy) at a fraction of the
    //    budget per probe. The sweep honours `milp.budget` as a cap on the
    //    whole run, so only the per-probe limits stay.
    let t = Instant::now();
    let mut probe_cfg = FinderConfig::budgeted((budget / 4.0).max(3.0));
    probe_cfg.milp.budget = Budget::unlimited();
    let sweep = sweep_max_gap(
        &inst,
        &spec,
        &ConstrainedSet::unconstrained(),
        &probe_cfg,
        0.0,
        norm,
        norm / 200.0,
    )
    .unwrap();
    let sweep_secs = t.elapsed().as_secs_f64();
    let sweep_gap = sweep.witness.as_ref().map_or(0.0, |w| w.verified_gap);
    println!(
        "  binary sweep      : gap {:.4} in {:.1}s ({} probes)",
        sweep_gap / norm,
        sweep_secs,
        sweep.probes
    );
    csv.row(["binary-sweep".into(), f(sweep_gap / norm), f(sweep_secs), format!("{} probes", sweep.probes)]);

    // 3. Topology attack: freeze the worst demands the continuous search
    //    found for the *intact* network, then ask how much worse a targeted
    //    <=25%-per-link degradation makes them.
    let demands: Vec<f64> = cont.demands.clone();
    let baseline = {
        let h = metaopt_te::Heuristic::DemandPinning { threshold };
        metaopt_te::eval::gap(&inst, &h, &demands).unwrap()
    };
    let t = Instant::now();
    let atk = find_adversarial_topology(
        &inst,
        &spec,
        &demands,
        &TopologyAttack::per_edge(0.25),
        &FinderConfig::budgeted(budget),
    )
    .unwrap();
    let atk_secs = t.elapsed().as_secs_f64();
    let degraded = atk
        .capacities
        .iter()
        .enumerate()
        .filter(|(e, &c)| c < inst.topo.capacity(metaopt_topology::EdgeId(*e)) - 1e-6)
        .count();
    println!(
        "  topology attack   : gap {:.4} (baseline {:.4}) in {:.1}s ({} links degraded)",
        atk.gap.verified_gap / norm,
        baseline / norm,
        atk_secs,
        degraded
    );
    csv.row([
        "topology-attack".into(),
        f(atk.gap.verified_gap / norm),
        f(atk_secs),
        format!("baseline {:.4}, {} links", baseline / norm, degraded),
    ]);

    let path = csv.flush().unwrap();
    println!("\nseries written to {}", path.display());
}
