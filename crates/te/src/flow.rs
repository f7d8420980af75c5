//! Builders for the `FeasibleFlow` polytope (Eq. 2 of the paper).
//!
//! Two forms are provided: a *symbolic* form whose demand volumes are
//! arbitrary linear expressions over an enclosing model's variables (used
//! by the adversarial rewrite, where volumes are the leader's variables),
//! and a *concrete* LP form for the fast evaluators.

use crate::instance::TeInstance;
use crate::{FlowVars, TeResult};
use metaopt_lp::{LpProblem, RowSense, VarId, INF};
use metaopt_model::{InnerProblem, LinExpr, Model, Sense};

/// Per-edge incidence: which `(pair, path)` combinations cross each edge.
pub fn edge_incidence(inst: &TeInstance) -> Vec<Vec<(usize, usize)>> {
    let mut inc = vec![Vec::new(); inst.topo.n_edges()];
    for (k, paths) in inst.paths.iter().enumerate() {
        for (p, path) in paths.iter().enumerate() {
            for &e in &path.edges {
                inc[e.0].push((k, p));
            }
        }
    }
    inc
}

/// The instance's edge capacities as constant expressions, indexed by
/// edge: the capacities [`feasible_flow_inner`] builds its rows on.
pub fn capacity_constants(inst: &TeInstance) -> Vec<LinExpr> {
    inst.topo
        .edges()
        .map(|e| LinExpr::constant(inst.topo.capacity(e)))
        .collect()
}

/// Emits `FeasibleFlow(V, E, D, P)` as an [`InnerProblem`] inside `model`,
/// with capacities taken from the instance's topology.
///
/// `demand_exprs[k]` is the (possibly symbolic) volume `d_k`; flow
/// variables are created *inside the inner problem* so their nonnegativity
/// bounds obtain KKT multipliers. The inner objective is left unset — use
/// [`FlowVars::total_flow`] with `set_objective` for `OptMaxFlow` (Eq. 3).
pub fn feasible_flow_inner(
    model: &mut Model,
    name: &str,
    inst: &TeInstance,
    demand_exprs: &[LinExpr],
) -> TeResult<(InnerProblem, FlowVars)> {
    feasible_flow_inner_caps(model, name, inst, demand_exprs, &capacity_constants(inst))
}

/// [`feasible_flow_inner`] with *symbolic* edge capacities (`cap_exprs[e]`
/// replaces `c_e`) — the building block of §5's "topology changes that
/// cause the worst-case gap": capacities become leader variables while
/// remaining constants to the follower LPs. Only the instance's pairs,
/// paths and edge count are read; its own capacities are not.
pub fn feasible_flow_inner_caps(
    model: &mut Model,
    name: &str,
    inst: &TeInstance,
    demand_exprs: &[LinExpr],
    cap_exprs: &[LinExpr],
) -> TeResult<(InnerProblem, FlowVars)> {
    assert_eq!(demand_exprs.len(), inst.n_pairs());
    assert_eq!(cap_exprs.len(), inst.topo.n_edges());
    let mut inner = InnerProblem::new(name);
    let mut per_pair = Vec::with_capacity(inst.n_pairs());
    for (k, paths) in inst.paths.iter().enumerate() {
        let mut vars = Vec::with_capacity(paths.len());
        for p in 0..paths.len() {
            // f_k^p >= 0 (upper bound open; the demand row caps it).
            let v = inner.add_var(model, format!("{name}::f[{k}][{p}]"), 0.0, f64::INFINITY)?;
            vars.push(v);
        }
        per_pair.push(vars);
    }
    let flows = FlowVars { per_pair };

    // Demand rows: Σ_p f_k^p <= d_k.
    for (k, dk) in demand_exprs.iter().enumerate().take(inst.n_pairs()) {
        inner.constrain_named(
            format!("{name}::dem[{k}]"),
            flows.pair_flow(k) - dk.clone(),
            Sense::Le,
        )?;
    }
    // Capacity rows: Σ_{(k,p) ∋ e} f_k^p <= c_e.
    for (e, users) in edge_incidence(inst).into_iter().enumerate() {
        if users.is_empty() {
            continue;
        }
        let mut load = LinExpr::zero();
        for (k, p) in users {
            load.add_term(flows.per_pair[k][p], 1.0);
        }
        inner.constrain_named(
            format!("{name}::cap[{e}]"),
            load - cap_exprs[e].clone(),
            Sense::Le,
        )?;
    }
    Ok((inner, flows))
}

/// Emits `FeasibleFlow` with concrete demand volumes as a plain LP,
/// maximizing total flow (i.e. `OptMaxFlow`, Eq. 3, in minimization form
/// with negated objective). Returns the LP and the flow-variable grid.
pub fn opt_max_flow_lp(inst: &TeInstance, demands: &[f64]) -> TeResult<(LpProblem, Vec<Vec<VarId>>)> {
    inst.check_demands(demands)?;
    let mut lp = LpProblem::new();
    let mut grid = Vec::with_capacity(inst.n_pairs());
    for paths in inst.paths.iter() {
        let vars: Vec<VarId> = (0..paths.len())
            .map(|_| lp.add_var(0.0, INF, -1.0))
            .collect::<Result<_, _>>()?;
        grid.push(vars);
    }
    for (k, vars) in grid.iter().enumerate() {
        lp.add_row(
            RowSense::Le,
            demands[k].max(0.0),
            vars.iter().map(|&v| (v, 1.0)),
        )?;
    }
    for (e, users) in edge_incidence(inst).into_iter().enumerate() {
        if users.is_empty() {
            continue;
        }
        lp.add_row(
            RowSense::Le,
            inst.topo.capacity(metaopt_topology::EdgeId(e)),
            users.into_iter().map(|(k, p)| (grid[k][p], 1.0)),
        )?;
    }
    Ok((lp, grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_lp::Simplex;
    use metaopt_topology::synth::line;

    #[test]
    fn incidence_covers_paths() {
        let inst = TeInstance::all_pairs(line(3, 10.0), 1).unwrap();
        let inc = edge_incidence(&inst);
        let total: usize = inc.iter().map(Vec::len).sum();
        // Each path contributes one incidence entry per hop.
        let hops: usize = inst
            .paths
            .iter()
            .flat_map(|ps| ps.iter().map(metaopt_topology::Path::len))
            .sum();
        assert_eq!(total, hops);
    }

    #[test]
    fn concrete_lp_maximizes_flow() {
        // Line 0-1-2 with capacity 10; demands: 0→2: 8, 0→1: 5, 1→2: 4.
        let inst = TeInstance::all_pairs(line(3, 10.0), 1).unwrap();
        let mut demands = vec![0.0; inst.n_pairs()];
        for (k, &(s, d)) in inst.pairs.iter().enumerate() {
            match (s.0, d.0) {
                (0, 2) => demands[k] = 8.0,
                (0, 1) => demands[k] = 5.0,
                (1, 2) => demands[k] = 4.0,
                _ => {}
            }
        }
        let (lp, _) = opt_max_flow_lp(&inst, &demands).unwrap();
        let sol = Simplex::new(&lp).solve().unwrap();
        // Capacity 10 on each of the two directed forward edges; total
        // carried is maximized at 10 + 10 = 20 units of edge usage →
        // carried flow: f02 + f01 <= 10, f02 + f12 <= 10; max f01+f02+f12
        // = 5 + 4 + min(8, 10-5, 10-4) = 5 + 4 + 5 = 14.
        assert!((sol.objective + 14.0).abs() < 1e-7, "obj {}", sol.objective);
    }

    #[test]
    fn symbolic_inner_matches_concrete() {
        use metaopt_model::{kkt, Model, ObjSense};
        let inst = TeInstance::all_pairs(line(3, 10.0), 1).unwrap();
        let mut m = Model::new();
        // Fixed demand volumes as fixed outer variables.
        let demand_vals = vec![3.0; inst.n_pairs()];
        let exprs: Vec<LinExpr> = demand_vals.iter().map(|&v| LinExpr::constant(v)).collect();
        let (mut inner, flows) = feasible_flow_inner(&mut m, "opt", &inst, &exprs).unwrap();
        inner.set_objective(ObjSense::Max, flows.total_flow());
        kkt::append_kkt(&mut m, &inner, 1e4).unwrap();
        // Solve the KKT system by branch-and-bound in the milp crate's
        // tests; here just sanity-check sizes.
        assert_eq!(m.n_complementarities(), inst.n_paths() * 2 + inst.topo.n_edges());
        let _ = flows;
    }
}
