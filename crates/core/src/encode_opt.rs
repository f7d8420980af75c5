//! Encoding of the inner `OptMaxFlow` problem (Eq. 3) into the single-shot
//! adversarial program.

use crate::finder::OptEncoding;
use crate::CoreResult;
use metaopt_model::{kkt, LinExpr, Model, ObjSense};
use metaopt_te::{flow::feasible_flow_inner_caps, FlowVars, TeInstance};

/// Artifacts of the OPT encoding.
#[derive(Debug, Clone)]
pub struct OptEncoded {
    /// Flow variables of the optimal scheme.
    pub flows: FlowVars,
    /// `Σ f` — the optimal scheme's total-flow expression.
    pub total_flow: LinExpr,
}

/// Appends the inner OPT problem onto `model`, for demand volumes `d` (the
/// leader's variables when searching demands, constants when the leader
/// moves capacities) over edge capacities `caps` (constants when searching
/// demands, the leader's variables in the topology attack).
///
/// * `OptEncoding::Kkt` (paper-faithful, §3.1): primal feasibility +
///   stationarity + complementary slackness — any feasible point is an
///   optimal OPT solution.
/// * `OptEncoding::PrimalOnly` (documented speedup): primal feasibility
///   only. Sound because the OPT value enters the outer objective with a
///   positive sign under maximization, so the outer search itself drives
///   the OPT flows to optimality; this halves the complementarity count.
pub fn encode_opt(
    model: &mut Model,
    inst: &TeInstance,
    d: &[LinExpr],
    caps: &[LinExpr],
    encoding: OptEncoding,
    dual_bound: f64,
) -> CoreResult<OptEncoded> {
    let (mut inner, flows) = feasible_flow_inner_caps(model, "opt", inst, d, caps)?;
    let total_flow = flows.total_flow();
    inner.set_objective(ObjSense::Max, total_flow.clone());
    match encoding {
        OptEncoding::Kkt => {
            kkt::append_kkt(model, &inner, dual_bound)?;
        }
        OptEncoding::PrimalOnly => {
            kkt::append_primal(model, &inner)?;
        }
    }
    Ok(OptEncoded { flows, total_flow })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_te::flow::capacity_constants;
    use metaopt_topology::synth::line;

    fn demands(m: &mut Model, inst: &TeInstance) -> Vec<LinExpr> {
        (0..inst.n_pairs())
            .map(|k| LinExpr::from(m.add_var(format!("d{k}"), 0.0, 10.0).unwrap()))
            .collect()
    }

    #[test]
    fn kkt_encoding_adds_complementarities() {
        let inst = TeInstance::all_pairs(line(3, 10.0), 1).unwrap();
        let mut m = Model::new();
        let d = demands(&mut m, &inst);
        let caps = capacity_constants(&inst);
        encode_opt(&mut m, &inst, &d, &caps, OptEncoding::Kkt, 1e4).unwrap();
        assert!(m.n_complementarities() > 0);
    }

    #[test]
    fn primal_only_adds_none() {
        let inst = TeInstance::all_pairs(line(3, 10.0), 1).unwrap();
        let mut m = Model::new();
        let d = demands(&mut m, &inst);
        let caps = capacity_constants(&inst);
        encode_opt(&mut m, &inst, &d, &caps, OptEncoding::PrimalOnly, 1e4).unwrap();
        assert_eq!(m.n_complementarities(), 0);
        assert!(m.n_constraints() > 0);
    }
}
