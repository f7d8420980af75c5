//! `OptMaxFlow` (Eq. 3): the optimal scheme and its fast evaluators — a
//! cold solve per demand vector ([`opt_max_flow`]) and a warm one that
//! keeps one LP across many vectors ([`OptEvaluator`]).

use crate::flow::opt_max_flow_lp;
use crate::instance::TeInstance;
use crate::{TeError, TeResult};
use metaopt_lp::{FaultPlan, RowId, Simplex, SolveStatus, NEG_INF};

/// Result of evaluating the optimal scheme on concrete demands.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// Total carried flow `Σ_k f_k`.
    pub total_flow: f64,
    /// `flows[k][p]`: flow of pair `k` on its `p`-th path.
    pub flows: Vec<Vec<f64>>,
}

/// Solves `OptMaxFlow(V, E, D, P)` for concrete demand volumes.
///
/// The polytope always contains `f = 0`, so the LP is feasible and bounded;
/// any other status is a solver-level error.
pub fn opt_max_flow(inst: &TeInstance, demands: &[f64]) -> TeResult<OptOutcome> {
    let (lp, grid) = opt_max_flow_lp(inst, demands)?;
    let sol = Simplex::new(&lp).solve()?;
    if sol.status != SolveStatus::Optimal {
        return Err(TeError::Model(format!(
            "OptMaxFlow LP ended {:?} (expected Optimal)",
            sol.status
        )));
    }
    let flows = grid
        .iter()
        .map(|vars| vars.iter().map(|v| sol.x[v.0]).collect())
        .collect();
    Ok(OptOutcome {
        total_flow: -sol.objective,
        flows,
    })
}

/// `OptMaxFlow` re-solved warm across many demand vectors on one instance.
///
/// Demands enter the LP only as the right-hand sides of its demand rows,
/// and the costs never change, so the last optimal basis stays dual
/// feasible for the next vector: [`OptEvaluator::total_flow`] moves the
/// demand rows and lets the dual simplex repair the basis, usually in a
/// few pivots. The first call has no basis yet and solves cold, exactly
/// as [`opt_max_flow`] does.
pub struct OptEvaluator {
    simplex: Simplex,
    n_pairs: usize,
}

impl OptEvaluator {
    /// Builds the LP of `inst` (demand rows first, see
    /// [`opt_max_flow_lp`]) without solving it.
    pub fn new(inst: &TeInstance) -> TeResult<Self> {
        let (lp, _) = opt_max_flow_lp(inst, &vec![0.0; inst.n_pairs()])?;
        Ok(OptEvaluator {
            simplex: Simplex::new(&lp),
            n_pairs: inst.n_pairs(),
        })
    }

    /// Total carried flow `Σ_k f_k` at `demands`: [`opt_max_flow`]'s value,
    /// up to the rounding of a different pivot path. A re-solve that ends
    /// other than Optimal, or degraded by the simplex recovery ladder, is
    /// an error, so a caller can fall back to the cold [`opt_max_flow`]
    /// and lose no input.
    pub fn total_flow(&mut self, demands: &[f64]) -> TeResult<f64> {
        if demands.len() != self.n_pairs {
            return Err(TeError::DemandMismatch {
                expected: self.n_pairs,
                got: demands.len(),
            });
        }
        for (k, d) in demands.iter().enumerate() {
            self.simplex.set_row_bounds(RowId(k), NEG_INF, d.max(0.0))?;
        }
        let sol = self.simplex.resolve()?;
        if sol.status != SolveStatus::Optimal || sol.degraded {
            return Err(TeError::Model(format!(
                "warm OptMaxFlow re-solve ended {:?} (degraded: {})",
                sol.status, sol.degraded
            )));
        }
        Ok(-sol.objective)
    }

    /// Installs (or clears) a deterministic fault-injection plan on the
    /// underlying simplex. Used by the fault-injection tests; production
    /// callers leave this `None`.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.simplex.set_fault_plan(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_topology::synth::{directed_line, line};

    #[test]
    fn directed_instances_need_reachable_pairs() {
        // all_pairs on a one-way chain contains unreachable pairs → error.
        assert!(TeInstance::all_pairs(directed_line(3, 10.0), 2).is_err());
        // Explicit reachable pairs work.
        let t = directed_line(3, 10.0);
        let pairs = vec![
            (metaopt_topology::NodeId(0), metaopt_topology::NodeId(2)),
            (metaopt_topology::NodeId(0), metaopt_topology::NodeId(1)),
            (metaopt_topology::NodeId(1), metaopt_topology::NodeId(2)),
        ];
        let inst = TeInstance::with_pairs(t, pairs, 2).unwrap();
        let out = opt_max_flow(&inst, &[9.0, 9.0, 9.0]).unwrap();
        // Both edges have cap 10; max total = 9 + 9 + min spare = optimal
        // drops the long 0→2 demand: f01 = 9, f12 = 9, f02 = 1 → 19.
        assert!((out.total_flow - 19.0).abs() < 1e-7, "{}", out.total_flow);
    }

    #[test]
    fn zero_demands_zero_flow() {
        let inst = TeInstance::all_pairs(line(3, 10.0), 2).unwrap();
        let out = opt_max_flow(&inst, &vec![0.0; inst.n_pairs()]).unwrap();
        assert_eq!(out.total_flow, 0.0);
        assert!(out.flows.iter().flatten().all(|&f| f.abs() < 1e-9));
    }

    #[test]
    fn respects_demand_and_capacity() {
        let inst = TeInstance::all_pairs(line(4, 10.0), 2).unwrap();
        let mut demands = vec![0.0; inst.n_pairs()];
        demands[0] = 25.0; // 0→1, capped by capacity 10
        let out = opt_max_flow(&inst, &demands).unwrap();
        // 0→1 direct path cap 10; no second simple path on a line... the
        // line is bidirectional so the only simple alternative 0→...→1
        // does not exist; carried = 10.
        assert!((out.total_flow - 10.0).abs() < 1e-7, "{}", out.total_flow);
    }

    #[test]
    fn multipath_uses_alternates() {
        use metaopt_topology::Topology;
        // Two parallel routes a→b: direct (cap 5) and via c (cap 5 each hop).
        let mut t = Topology::new("par");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_edge(a, b, 5.0).unwrap();
        t.add_edge(a, c, 5.0).unwrap();
        t.add_edge(c, b, 5.0).unwrap();
        let inst = TeInstance::with_pairs(t, vec![(a, b)], 3).unwrap();
        let out = opt_max_flow(&inst, &[8.0]).unwrap();
        assert!((out.total_flow - 8.0).abs() < 1e-7);
        // Direct path carries 5, detour 3 (or any split summing to 8).
        let total: f64 = out.flows[0].iter().sum();
        assert!((total - 8.0).abs() < 1e-7);
    }

    #[test]
    fn wrong_demand_length_rejected() {
        let inst = TeInstance::all_pairs(line(3, 10.0), 1).unwrap();
        assert!(matches!(
            opt_max_flow(&inst, &[1.0, 2.0]),
            Err(TeError::DemandMismatch { .. })
        ));
    }
}
