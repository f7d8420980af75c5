//! Encoding of POP (Eq. 6, §3.2) with *symbolic* demands.
//!
//! Each partition instantiation is deterministic once its random
//! assignment is drawn, so POP becomes a family of independent inner LPs:
//! one per `(instantiation, partition)` with the partition's demand subset
//! and `1/c` of every edge capacity. All of them are KKT-rewritten (the
//! heuristic value carries a negative sign in Eq. 1).
//!
//! The random heuristic value is summarized per §3.2 either by the
//! **empirical average** over the instantiations or by a **tail order
//! statistic**, computed by pushing the per-instantiation totals through a
//! Batcher sorting network ("bubble up the worst outcomes").

use crate::CoreResult;
use metaopt_model::{kkt, sortnet, LinExpr, Model, ObjSense, VarRef};
use metaopt_te::{flow::feasible_flow_inner_caps, pop::Partition, TeInstance};

/// How to collapse POP's random value into a deterministic objective term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopMode {
    /// Empirical mean over the instantiations (`E(Heuristic(I))`).
    Average,
    /// The `rank`-th *smallest* per-instantiation value (rank 0 = the very
    /// worst outcome for the heuristic), via a sorting network.
    TailWorst {
        /// Order-statistic index (0 = minimum).
        rank: usize,
    },
}

/// Artifacts of the POP encoding.
#[derive(Debug, Clone)]
pub struct PopEncoded {
    /// Total-flow expression per instantiation.
    pub per_instance: Vec<LinExpr>,
    /// The deterministic heuristic-value expression used in the objective.
    pub heuristic_value: LinExpr,
}

/// Appends the POP follower(s) for symbolic demands `d` onto `model`, over
/// edge capacities `caps` (constants when searching demands, the leader's
/// variables in the topology attack); each partition LP gets `1/c` of
/// every `caps[e]`.
pub fn encode_pop(
    model: &mut Model,
    inst: &TeInstance,
    d: &[VarRef],
    caps: &[LinExpr],
    partitions: &[Partition],
    mode: PopMode,
    dual_bound: f64,
) -> CoreResult<PopEncoded> {
    assert_eq!(d.len(), inst.n_pairs());
    assert!(!partitions.is_empty(), "POP needs at least one instantiation");
    let mut per_instance = Vec::with_capacity(partitions.len());

    for (r, part) in partitions.iter().enumerate() {
        assert_eq!(part.assignment.len(), inst.n_pairs());
        let factor = 1.0 / part.n_parts as f64;
        let mut instance_total = LinExpr::zero();
        for c in 0..part.n_parts {
            let members = part.members(c);
            if members.is_empty() {
                continue;
            }
            let sub = inst.restrict(&members, factor);
            let d_exprs: Vec<LinExpr> =
                members.iter().map(|&k| LinExpr::from(d[k])).collect();
            let sub_caps: Vec<LinExpr> = caps.iter().map(|e| e.scaled(factor)).collect();
            let (mut inner, flows) = feasible_flow_inner_caps(
                model,
                &format!("pop[{r}][{c}]"),
                &sub,
                &d_exprs,
                &sub_caps,
            )?;
            let total = flows.total_flow();
            inner.set_objective(ObjSense::Max, total.clone());
            kkt::append_kkt(model, &inner, dual_bound)?;
            instance_total += total;
        }
        per_instance.push(instance_total);
    }

    let heuristic_value = match mode {
        PopMode::Average => {
            let w = 1.0 / per_instance.len() as f64;
            let mut avg = LinExpr::zero();
            for e in &per_instance {
                avg += e.scaled(w);
            }
            avg
        }
        PopMode::TailWorst { rank } => {
            if rank >= per_instance.len() {
                return Err(crate::CoreError::Config(format!(
                    "tail rank {rank} >= {} instantiations",
                    per_instance.len()
                )));
            }
            // Values are bounded by the total (unsplit) capacity.
            let vmax = inst.topo.total_capacity();
            let sorted = sortnet::sort_ascending(
                model,
                "pop::tail",
                per_instance.clone(),
                0.0,
                vmax,
            )?;
            sorted[rank].clone()
        }
    };

    Ok(PopEncoded {
        per_instance,
        heuristic_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_te::flow::capacity_constants;
    use metaopt_te::pop::random_partitions;
    use metaopt_topology::synth::line;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n_inst: usize) -> (TeInstance, Model, Vec<VarRef>, Vec<Partition>) {
        let inst = TeInstance::all_pairs(line(3, 10.0), 1).unwrap();
        let mut m = Model::new();
        let d: Vec<VarRef> = (0..inst.n_pairs())
            .map(|k| m.add_var(format!("d{k}"), 0.0, 10.0).unwrap())
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let parts = random_partitions(inst.n_pairs(), 2, n_inst, &mut rng);
        (inst, m, d, parts)
    }

    #[test]
    fn average_mode_structure() {
        let (inst, mut m, d, parts) = setup(3);
        let caps = capacity_constants(&inst);
        let enc = encode_pop(&mut m, &inst, &d, &caps, &parts, PopMode::Average, 1e4).unwrap();
        assert_eq!(enc.per_instance.len(), 3);
        // Average has terms from every instantiation's flows.
        assert!(enc.heuristic_value.n_terms() > 0);
        assert!(m.n_complementarities() > 0);
        let _ = inst;
    }

    #[test]
    fn tail_mode_adds_sorting_binaries() {
        let (inst, mut m, d, parts) = setup(3);
        let before_bin = 0;
        let caps = capacity_constants(&inst);
        let tail = PopMode::TailWorst { rank: 0 };
        let enc = encode_pop(&mut m, &inst, &d, &caps, &parts, tail, 1e4).unwrap();
        let binaries = (0..m.n_vars())
            .filter(|&i| m.var_kind(VarRef(i)) == metaopt_model::VarKind::Binary)
            .count();
        assert!(binaries > before_bin, "sorting network must add binaries");
        assert_eq!(enc.heuristic_value.n_terms(), 1); // one sorted output wire
        let _ = inst;
    }

    #[test]
    fn tail_rank_validated() {
        let (inst, mut m, d, parts) = setup(2);
        let caps = capacity_constants(&inst);
        let tail = PopMode::TailWorst { rank: 5 };
        assert!(encode_pop(&mut m, &inst, &d, &caps, &parts, tail, 1e4).is_err());
        let _ = inst;
    }
}
