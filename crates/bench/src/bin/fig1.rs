//! Figure 1 — Demand Pinning's suboptimality on a 3-node topology with
//! unidirectional links.
//!
//! The paper's figure shows a concrete instance where DP (threshold 50)
//! loses flow versus OPT because the at-threshold demand 1→3 is pinned on
//! its (two-hop) shortest path, displacing the single-hop demands 1→2 and
//! 2→3. The exact capacities of the figure are not recoverable from the
//! text (see EXPERIMENTS.md); this harness reproduces the *phenomenon* on
//! the canonical reconstruction and then asks the white-box finder for the
//! provably worst input on the same topology.

use metaopt_bench::{f, CsvOut};
use metaopt_core::{find_adversarial_gap, ConstrainedSet, FinderConfig, HeuristicSpec};
use metaopt_te::{demand_pinning::demand_pinning, opt::opt_max_flow, TeInstance};
use metaopt_topology::synth::figure1_triangle;

fn main() {
    let (topo, [n1, n2, n3]) = figure1_triangle(100.0);
    let inst = TeInstance::with_pairs(topo, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap();
    let demands = vec![50.0, 100.0, 100.0]; // 1→3 at the threshold
    let t_d = 50.0;

    println!("Figure 1 reconstruction: capacities 100, threshold {t_d}");
    println!("demands: 1→3 = 50, 1→2 = 100, 2→3 = 100\n");

    let dp = demand_pinning(&inst, &demands, t_d).unwrap();
    let opt = opt_max_flow(&inst, &demands).unwrap();

    let mut table = CsvOut::new("fig1_allocations", &["demand", "DP flow", "OPT flow"]);
    let names = ["1→3", "1→2", "2→3"];
    for (k, name) in names.iter().enumerate() {
        let dpf: f64 = dp.flows[k].iter().sum();
        let optf: f64 = opt.flows[k].iter().sum();
        table.row([name.to_string(), f(dpf), f(optf)]);
    }
    table.row([
        "TOTAL".to_string(),
        f(dp.total_flow),
        f(opt.total_flow),
    ]);
    table.print();
    let csv = table.flush().unwrap();
    println!(
        "\ngap = {} flow units ({:.1}% of OPT)   [csv: {}]",
        f(opt.total_flow - dp.total_flow),
        100.0 * (opt.total_flow - dp.total_flow) / opt.total_flow,
        csv.display()
    );

    // The provably worst input on this topology and threshold.
    let r = find_adversarial_gap(
        &inst,
        &HeuristicSpec::DemandPinning { threshold: t_d },
        &ConstrainedSet::unconstrained(),
        &FinderConfig::default(),
    )
    .unwrap();
    println!("\nwhite-box worst case on the same topology:");
    println!(
        "  demands = ({}, {}, {})  gap = {} ({:?})",
        f(r.demands[0]),
        f(r.demands[1]),
        f(r.demands[2]),
        f(r.verified_gap),
        r.status
    );
}
