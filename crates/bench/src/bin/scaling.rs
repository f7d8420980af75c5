//! §5 "scaling to larger problem sizes": model growth and in-budget gap
//! quality from SWAN (10 nodes) up to GEANT (22 nodes), with and without
//! the quantization speedup.

use metaopt_bench::{budget_secs, f, CsvOut};
use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{find_adversarial_gap, ConstrainedSet, FinderConfig, HeuristicSpec};
use metaopt_te::TeInstance;
use metaopt_topology::builtin;

fn main() {
    let budget = budget_secs();
    println!("§5 scaling study (DP, T = 5% cap), budget {budget}s per point\n");
    let mut csv = CsvOut::new(
        "scaling",
        &["topology", "pairs", "sos", "variant", "norm_gap", "nodes"],
    );
    let topos = vec![
        builtin::swan(1000.0),
        builtin::b4(1000.0),
        builtin::abilene(1000.0),
        builtin::geant(1000.0),
    ];
    for topo in topos {
        let name = topo.name().to_string();
        let norm = topo.total_capacity();
        let inst = TeInstance::all_pairs(topo, 2).unwrap();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        for (variant, cs) in [
            ("continuous", ConstrainedSet::unconstrained()),
            (
                "quantized",
                ConstrainedSet::unconstrained().quantized(vec![0.0, 50.0, 1000.0]),
            ),
        ] {
            let cfg = FinderConfig::budgeted(budget);
            let am = build_adversarial_model(&inst, &spec, &cs, &cfg).unwrap();
            let sos = am.stats().n_sos;
            let r = find_adversarial_gap(&inst, &spec, &cs, &cfg).unwrap();
            println!(
                "  {name:<8} ({} pairs, {} SOS) {variant:<10}: gap {:.4} ({} nodes, {:?})",
                inst.n_pairs(),
                sos,
                r.verified_gap / norm,
                r.nodes,
                r.status
            );
            csv.row([
                name.clone(),
                inst.n_pairs().to_string(),
                sos.to_string(),
                variant.into(),
                f(r.verified_gap / norm),
                r.nodes.to_string(),
            ]);
        }
    }
    let path = csv.flush().unwrap();
    println!("\nseries written to {}", path.display());
}
