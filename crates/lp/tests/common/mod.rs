//! LP families shared by the stress and pivot-path suites.

use metaopt_lp::{LpProblem, RowSense, VarId, INF};

/// Builds a transportation-style LP (m sources × n sinks) — heavily
/// degenerate, a classic simplex stressor.
pub fn transportation(m: usize, n: usize, seed: u64) -> LpProblem {
    let mut p = LpProblem::new();
    let mut cost = seed;
    let mut next = move || {
        cost ^= cost << 13;
        cost ^= cost >> 7;
        cost ^= cost << 17;
        (cost % 97) as f64 / 10.0 + 0.1
    };
    let xs: Vec<Vec<VarId>> = (0..m)
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

/// Max-flow LP over a synthesized connected topology with `n_nodes`
/// nodes: a bounded pair list keeps the row count in the hundreds (the
/// scale the campaign sweeps actually solve) while the basis stays
/// sparse — each column touches one demand row plus the hops of one
/// path.
pub fn synth_max_flow(n_nodes: usize, n_pairs: usize, seed: u64) -> LpProblem {
    let topo = metaopt_topology::synth::random_connected(n_nodes, n_nodes / 2, 8.0, seed);
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut pairs = Vec::with_capacity(n_pairs);
    while pairs.len() < n_pairs {
        let s = (next() % n_nodes as u64) as usize;
        let d = (next() % n_nodes as u64) as usize;
        if s != d {
            pairs.push((metaopt_topology::NodeId(s), metaopt_topology::NodeId(d)));
        }
    }
    let inst =
        metaopt_te::instance::TeInstance::with_pairs(topo, pairs, 2).expect("synth instance");
    let demands: Vec<f64> = (0..inst.n_pairs())
        .map(|_| (next() % 50) as f64 / 10.0)
        .collect();
    let (lp, _) = metaopt_te::flow::opt_max_flow_lp(&inst, &demands).expect("synth lp");
    lp
}
