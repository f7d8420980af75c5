//! Gap evaluation `OPT(d) − Heuristic(d)` (Eq. 1's objective for concrete
//! inputs) — the oracle the black-box baselines query. The white-box
//! search's incumbent callback certifies its candidates through its own
//! evaluator (`metaopt_core::HeuristicSpec`, which keeps DP-infeasible
//! inputs out instead of scoring them 0) with the same [`OptEvaluator`].

use crate::demand_pinning::demand_pinning;
use crate::instance::TeInstance;
use crate::opt::{opt_max_flow, OptEvaluator};
use crate::pop::{pop_average, Partition};
use crate::TeResult;

/// The heuristic under adversarial analysis.
#[derive(Debug, Clone)]
pub enum Heuristic {
    /// Demand Pinning with pin threshold `t_d` (Eq. 4).
    DemandPinning {
        /// Pin threshold (absolute volume units).
        threshold: f64,
    },
    /// POP averaged over fixed partition instantiations (Eq. 6 / §3.2).
    Pop {
        /// The partition instantiations to average over.
        partitions: Vec<Partition>,
    },
}

impl Heuristic {
    /// Short display label for experiment output.
    pub fn label(&self) -> String {
        match self {
            Heuristic::DemandPinning { threshold } => format!("DP(T={threshold})"),
            Heuristic::Pop { partitions } => format!(
                "POP(parts={}, inst={})",
                partitions.first().map_or(0, |p| p.n_parts),
                partitions.len()
            ),
        }
    }

    /// Evaluates the heuristic's total flow on concrete demands. DP's
    /// infeasible inputs (§5) evaluate to flow 0 — the worst possible
    /// outcome, which keeps the black-box search away from them (the
    /// white-box search excludes them by construction).
    pub fn total_flow(&self, inst: &TeInstance, demands: &[f64]) -> TeResult<f64> {
        match self {
            Heuristic::DemandPinning { threshold } => {
                let out = demand_pinning(inst, demands, *threshold)?;
                Ok(if out.feasible { out.total_flow } else { 0.0 })
            }
            Heuristic::Pop { partitions } => pop_average(inst, demands, partitions),
        }
    }
}

/// `OPT(d) − Heuristic(d)` in absolute flow units.
pub fn gap(inst: &TeInstance, heuristic: &Heuristic, demands: &[f64]) -> TeResult<f64> {
    let opt = opt_max_flow(inst, demands)?.total_flow;
    let heu = heuristic.total_flow(inst, demands)?;
    Ok(opt - heu)
}

/// [`gap`] with OPT re-solved warm on `opt`, an [`OptEvaluator`] built for
/// `inst`; the heuristic still runs cold. A failed warm re-solve falls
/// back to the cold [`opt_max_flow`], so every input gets [`gap`]'s value.
pub fn gap_with(
    opt: &mut OptEvaluator,
    inst: &TeInstance,
    heuristic: &Heuristic,
    demands: &[f64],
) -> TeResult<f64> {
    let opt = match opt.total_flow(demands) {
        Ok(v) => v,
        Err(_) => opt_max_flow(inst, demands)?.total_flow,
    };
    let heu = heuristic.total_flow(inst, demands)?;
    Ok(opt - heu)
}

/// Figure 3's comparable metric: gap divided by the sum of edge capacities.
pub fn normalized_gap(inst: &TeInstance, heuristic: &Heuristic, demands: &[f64]) -> TeResult<f64> {
    Ok(gap(inst, heuristic, demands)? / inst.topo.total_capacity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop::random_partitions;
    use metaopt_topology::synth::figure1_triangle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig1_instance() -> TeInstance {
        let (t, [n1, n2, n3]) = figure1_triangle(100.0);
        TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
    }

    #[test]
    fn dp_gap_on_figure1() {
        let inst = fig1_instance();
        let h = Heuristic::DemandPinning { threshold: 50.0 };
        let g = gap(&inst, &h, &[50.0, 100.0, 100.0]).unwrap();
        assert!((g - 50.0).abs() < 1e-6, "gap {g}");
        let ng = normalized_gap(&inst, &h, &[50.0, 100.0, 100.0]).unwrap();
        assert!((ng - 50.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn gap_is_nonnegative_for_feasible_dp() {
        let inst = fig1_instance();
        let h = Heuristic::DemandPinning { threshold: 20.0 };
        for demands in [
            [0.0, 0.0, 0.0],
            [10.0, 10.0, 10.0],
            [19.0, 90.0, 90.0],
            [100.0, 100.0, 100.0],
        ] {
            let g = gap(&inst, &h, &demands).unwrap();
            assert!(g >= -1e-9, "negative gap {g} at {demands:?}");
        }
    }

    #[test]
    fn pop_gap_nonnegative() {
        let inst = fig1_instance();
        let mut rng = StdRng::seed_from_u64(1);
        let parts = random_partitions(inst.n_pairs(), 2, 3, &mut rng);
        let h = Heuristic::Pop { partitions: parts };
        let g = gap(&inst, &h, &[40.0, 70.0, 30.0]).unwrap();
        assert!(g >= -1e-9, "gap {g}");
    }

    #[test]
    fn labels_are_informative() {
        let h = Heuristic::DemandPinning { threshold: 50.0 };
        assert_eq!(h.label(), "DP(T=50)");
        let mut rng = StdRng::seed_from_u64(1);
        let parts = random_partitions(6, 2, 5, &mut rng);
        let h = Heuristic::Pop { partitions: parts };
        assert_eq!(h.label(), "POP(parts=2, inst=5)");
    }
}
