//! Adversarial *topology changes* (§5 of the paper).
//!
//! "The metaoptimization in (1) can be used to find topology changes that
//! cause the worst-case gap for a specific heuristic instead of focusing
//! only on the adversarial demands."
//!
//! Here the leader degrades edge capacities (e.g. partial fiber cuts or
//! maintenance drain) while the demand matrix is held fixed: each capacity
//! becomes an outer variable `c_e ∈ [(1−δ)·c⁰_e, c⁰_e]`, optionally with a
//! budget on the total capacity removed. The follower problems (OPT and the
//! heuristic) see the capacities as constants, so the same KKT machinery
//! applies unchanged: the demand finder's OPT and POP encoders build them,
//! handed the capacity variables in place of constant capacities.

use crate::encode_opt::encode_opt;
use crate::encode_pop::encode_pop;
use crate::finder::{model_stats, FinderConfig, HeuristicSpec, CALLBACK_EVALS_PER_NODE, DUAL_BOUND};
use crate::result::GapResult;
use crate::{CoreError, CoreResult};
use metaopt_milp::{solve_with_callback, IncumbentCallback};
use metaopt_model::{kkt, LinExpr, Model, ObjSense, Sense, VarRef};
use metaopt_te::flow::feasible_flow_inner_caps;
use metaopt_te::{opt::opt_max_flow, TeInstance};
use metaopt_topology::EdgeId;
use std::time::Instant;

/// Capacity-degradation attack parameters.
#[derive(Debug, Clone)]
pub struct TopologyAttack {
    /// Maximum per-edge degradation fraction (`c_e >= (1−δ)·c⁰_e`).
    pub degrade_frac: f64,
    /// Optional bound on the *total* capacity removed across all edges.
    pub total_budget: Option<f64>,
}

impl TopologyAttack {
    /// An attack allowed to remove up to `frac` of each edge.
    pub fn per_edge(frac: f64) -> Self {
        TopologyAttack {
            degrade_frac: frac,
            total_budget: None,
        }
    }

    /// Adds a total-removal budget.
    pub fn with_total_budget(mut self, budget: f64) -> Self {
        self.total_budget = Some(budget);
        self
    }
}

/// Result of a topology attack: the degraded capacities plus the usual
/// certified gap bookkeeping.
#[derive(Debug, Clone)]
pub struct TopologyAttackResult {
    /// Chosen capacity per edge.
    pub capacities: Vec<f64>,
    /// The underlying gap result (demands field holds the *fixed* demand
    /// matrix for reference).
    pub gap: GapResult,
}

/// A candidate replaces the capacity callback's best only when its
/// certified gap is larger by more than this share of the best gap. Near a
/// plateau of equally damaging degradations, candidate gaps creep up in
/// steps of about 1e-9, the size by which the two factorization backends'
/// evaluations of one candidate differ; without the margin the reported
/// capacities would follow the backend's last bits.
const MIN_IMPROVEMENT: f64 = 1e-9;

/// Builds an instance whose topology carries the given capacities (paths
/// are hop-based and therefore unchanged).
fn with_capacities(inst: &TeInstance, caps: &[f64]) -> CoreResult<TeInstance> {
    let mut out = inst.clone();
    for (e, &c) in caps.iter().enumerate() {
        out.topo
            .set_capacity(EdgeId(e), c.max(1e-9))
            .map_err(|te| CoreError::Config(te.to_string()))?;
    }
    Ok(out)
}

/// Incumbent callback for capacity attacks: vet candidate capacity vectors
/// with the real algorithms on a re-capacitated instance.
struct CapacityEvaluator<'a> {
    inst: &'a TeInstance,
    spec: &'a HeuristicSpec,
    demands: &'a [f64],
    cap_indices: Vec<usize>,
    cap_lo: Vec<f64>,
    cap_hi: Vec<f64>,
    /// [`TopologyAttack::total_budget`]: the most capacity a candidate may
    /// remove in total.
    total_budget: Option<f64>,
    n_model_vars: usize,
    best: Option<(Vec<f64>, f64)>,
    sweep_cursor: usize,
    evals_per_call: usize,
    calls: usize,
}

impl CapacityEvaluator<'_> {
    fn certify(&self, caps: &[f64]) -> Option<f64> {
        let inst = with_capacities(self.inst, caps).ok()?;
        let heu = self.spec.evaluate(&inst, self.demands).ok()??;
        let opt = opt_max_flow(&inst, self.demands).ok()?.total_flow;
        Some(opt - heu)
    }

    /// Certifies one candidate, first scaling its removal vector
    /// `c⁰ − c` down to the total budget (which keeps every per-edge
    /// bound): branch-and-bound trusts callback incumbents, so a
    /// candidate over budget would be reported as the attack's answer.
    fn consider(&mut self, mut caps: Vec<f64>, evals: &mut usize) {
        *evals += 1;
        if let Some(budget) = self.total_budget {
            let removed: f64 = self.cap_hi.iter().zip(&caps).map(|(c0, c)| c0 - c).sum();
            if removed > budget {
                let scale = budget / removed;
                for (c, c0) in caps.iter_mut().zip(&self.cap_hi) {
                    *c = c0 - (c0 - *c) * scale;
                }
            }
        }
        if let Some(g) = self.certify(&caps) {
            if self
                .best
                .as_ref()
                .is_none_or(|(_, bg)| g > bg + MIN_IMPROVEMENT * bg.abs().max(1.0))
            {
                self.best = Some((caps, g));
            }
        }
    }
}

impl IncumbentCallback for CapacityEvaluator<'_> {
    fn propose(&mut self, relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        self.calls += 1;
        let mut evals = 0usize;
        let before = self.best.as_ref().map(|(_, g)| *g);

        // Relaxation capacities, clamped to the attack box.
        let relax: Vec<f64> = self
            .cap_indices
            .iter()
            .enumerate()
            .map(|(e, &i)| relaxation[i].clamp(self.cap_lo[e], self.cap_hi[e]))
            .collect();
        self.consider(relax, &mut evals);
        if self.calls <= 2 {
            // Extremes: no attack / full per-edge degradation.
            self.consider(self.cap_hi.clone(), &mut evals);
            self.consider(self.cap_lo.clone(), &mut evals);
        }
        // Round-robin coordinate toggling between box ends.
        if let Some((base, _)) = self.best.clone() {
            let n = base.len();
            let mut cand = base;
            // One pass per call: avoids spinning when the attack box is
            // degenerate (zero degradation ⇒ lo == hi == current value).
            let mut visited = 0usize;
            while evals < self.evals_per_call && visited < n {
                visited += 1;
                let e = self.sweep_cursor % n;
                self.sweep_cursor = self.sweep_cursor.wrapping_add(1);
                for lv in [self.cap_lo[e], self.cap_hi[e]] {
                    if (lv - cand[e]).abs() > 1e-12 && evals < self.evals_per_call {
                        let mut probe = cand.clone();
                        probe[e] = lv;
                        self.consider(probe, &mut evals);
                    }
                }
                if let Some((b, _)) = &self.best {
                    cand = b.clone();
                }
            }
        }

        let (caps, gap) = self.best.as_ref()?;
        if before.is_some_and(|b| *gap <= b + 1e-12) {
            return None;
        }
        let mut values = vec![0.0; self.n_model_vars];
        for (e, &i) in self.cap_indices.iter().enumerate() {
            values[i] = caps[e];
        }
        Some((values, *gap))
    }
}

/// Finds the capacity degradation (within `attack`'s limits) that maximizes
/// `OPT − Heuristic` for a *fixed* demand matrix. The search runs under
/// `cfg.milp` with the finder's overrides applied, tightened by
/// [`FinderConfig::budget`], as [`crate::find_adversarial_gap`] does.
pub fn find_adversarial_topology(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    demands: &[f64],
    attack: &TopologyAttack,
    cfg: &FinderConfig,
) -> CoreResult<TopologyAttackResult> {
    inst.check_demands(demands)
        .map_err(|e| CoreError::Config(e.to_string()))?;
    if !(0.0..=1.0).contains(&attack.degrade_frac) {
        return Err(CoreError::Config(format!(
            "degrade_frac {} outside [0, 1]",
            attack.degrade_frac
        )));
    }
    // an:allow(AN001): reporting-only build timer, mirrors `find_gap`.
    let t0 = Instant::now();
    let mut model = Model::new();

    // Capacity variables (the leader's move).
    let mut cap_vars = Vec::with_capacity(inst.topo.n_edges());
    let mut cap_lo = Vec::new();
    let mut cap_hi = Vec::new();
    for e in inst.topo.edges() {
        let c0 = inst.topo.capacity(e);
        let lo = c0 * (1.0 - attack.degrade_frac);
        cap_vars.push(model.add_var(format!("cap[{}]", e.0), lo, c0)?);
        cap_lo.push(lo);
        cap_hi.push(c0);
    }
    if let Some(budget) = attack.total_budget {
        // Σ (c⁰_e − c_e) <= budget
        let mut removed = LinExpr::constant(inst.topo.total_capacity());
        for &cv in &cap_vars {
            removed.add_term(cv, -1.0);
        }
        model.constrain_named("attack::budget", removed, Sense::Le, budget)?;
    }
    let cap_exprs: Vec<LinExpr> = cap_vars.iter().map(|&v| LinExpr::from(v)).collect();
    let d_exprs: Vec<LinExpr> = demands.iter().map(|&v| LinExpr::constant(v)).collect();

    // Inner OPT over symbolic capacities.
    let opt = encode_opt(
        &mut model,
        inst,
        &d_exprs,
        &cap_exprs,
        cfg.opt_encoding,
        DUAL_BOUND,
    )?;

    // Inner heuristic over symbolic capacities. Its demands enter as fixed
    // variables: the DP encoder reads the pin set off their bounds.
    let d_fixed: Vec<VarRef> = demands
        .iter()
        .enumerate()
        .map(|(k, &v)| model.add_var(format!("dfix[{k}]"), v, v))
        .collect::<Result<_, _>>()?;
    let heu_value = match spec {
        HeuristicSpec::DemandPinning { threshold } => {
            let d_hi = demands.iter().copied().fold(0.0, f64::max).max(1.0);
            encode_dp_with_caps(&mut model, inst, &d_fixed, &cap_exprs, *threshold, d_hi)?
        }
        HeuristicSpec::Pop { partitions, mode } => {
            // POP's per-partition capacity is c_e / n_parts — still linear.
            let enc = encode_pop(
                &mut model, inst, &d_fixed, &cap_exprs, partitions, *mode, DUAL_BOUND,
            )?;
            enc.heuristic_value
        }
    };

    let mut objective = opt.total_flow;
    objective -= heu_value;
    model.set_objective(ObjSense::Max, objective)?;

    let stats = model_stats(&model);
    let build_time = t0.elapsed();

    let mut cb = CapacityEvaluator {
        inst,
        spec,
        demands,
        cap_indices: cap_vars.iter().map(|v| v.0).collect(),
        cap_lo: cap_lo.clone(),
        cap_hi: cap_hi.clone(),
        total_budget: attack.total_budget,
        n_model_vars: model.n_vars(),
        best: None,
        sweep_cursor: 0,
        evals_per_call: CALLBACK_EVALS_PER_NODE,
        calls: 0,
    };
    let sol = solve_with_callback(&model, &cfg.budgeted_milp_config(), &mut cb)?;

    let capacities: Vec<f64> = if sol.values.is_empty() {
        cap_hi.clone()
    } else {
        cap_vars
            .iter()
            .enumerate()
            .map(|(e, v)| sol.values[v.0].clamp(cap_lo[e], cap_hi[e]))
            .collect()
    };
    let attacked = with_capacities(inst, &capacities)?;
    let verified_gap = match spec.evaluate(&attacked, demands)? {
        Some(heu) => opt_max_flow(&attacked, demands)?.total_flow - heu,
        None => f64::NAN,
    };

    Ok(TopologyAttackResult {
        capacities,
        gap: GapResult {
            demands: demands.to_vec(),
            model_gap: sol.objective,
            verified_gap,
            normalized_gap: verified_gap / inst.topo.total_capacity(),
            upper_bound: sol.best_bound,
            status: sol.status,
            stats,
            nodes: sol.nodes,
            build_time,
            solve_time: sol.solve_time,
            trajectory: sol.trajectory,
            degradation: metaopt_resilience::DegradationLevel::None,
            faults: sol.faults,
        },
    })
}

/// DP encoding over symbolic capacities: the follower of
/// [`crate::encode_dp::encode_dp`] with its capacity rows on `cap_exprs`.
/// Fixed demands make the pin set known when the model is built, so no
/// pin binaries are needed: pinned pairs get hard pinning rows, the rest
/// none.
fn encode_dp_with_caps(
    model: &mut Model,
    inst: &TeInstance,
    d: &[VarRef],
    cap_exprs: &[LinExpr],
    threshold: f64,
    d_hi: f64,
) -> CoreResult<LinExpr> {
    let t = threshold.min(d_hi);
    let d_exprs: Vec<LinExpr> = d.iter().map(|&v| LinExpr::from(v)).collect();
    let (mut inner, flows) = feasible_flow_inner_caps(model, "dp", inst, &d_exprs, cap_exprs)?;
    for (k, &dk) in d.iter().enumerate().take(inst.n_pairs()) {
        let (lo, hi) = model.var_bounds(dk);
        debug_assert!((lo - hi).abs() < 1e-12, "demands must be fixed");
        let pinned = lo <= t;
        if !pinned {
            continue;
        }
        if inst.paths[k].len() > 1 {
            let mut off_sp = LinExpr::zero();
            for &f in flows.per_pair[k].iter().skip(1) {
                off_sp.add_term(f, 1.0);
            }
            inner.constrain_named(format!("dp::off_sp[{k}]"), off_sp, Sense::Le)?;
        }
        // d_k − f_k^{p̂} <= 0
        let mut on_sp = LinExpr::from(dk);
        on_sp.add_term(flows.per_pair[k][0], -1.0);
        inner.constrain_named(format!("dp::on_sp[{k}]"), on_sp, Sense::Le)?;
    }
    let total = flows.total_flow();
    inner.set_objective(ObjSense::Max, total.clone());
    kkt::append_kkt(model, &inner, DUAL_BOUND)?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_milp::MilpStatus;
    use metaopt_topology::synth::figure1_triangle;

    fn fig1() -> TeInstance {
        let (t, [n1, n2, n3]) = figure1_triangle(100.0);
        TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
    }

    /// With demands (50, 100, 100) and threshold 50 the baseline gap is 50;
    /// degrading capacity cannot reduce it and the attack may find worse.
    #[test]
    fn capacity_attack_never_helps_the_heuristic() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let demands = vec![50.0, 100.0, 100.0];
        let r = find_adversarial_topology(
            &inst,
            &spec,
            &demands,
            &TopologyAttack::per_edge(0.3),
            &FinderConfig::budgeted(10.0),
        )
        .unwrap();
        assert!(r.gap.verified_gap >= 50.0 - 1e-6, "{}", r.gap.verified_gap);
        assert!(r.capacities.iter().all(|&c| (70.0 - 1e-9..=100.0 + 1e-9).contains(&c)));
        assert!(r.gap.certification_error() < 1e-5);
    }

    /// A zero-degradation attack reproduces the baseline gap exactly.
    #[test]
    fn zero_attack_is_baseline() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let demands = vec![50.0, 100.0, 100.0];
        let r = find_adversarial_topology(
            &inst,
            &spec,
            &demands,
            &TopologyAttack::per_edge(0.0),
            &FinderConfig::budgeted(5.0),
        )
        .unwrap();
        assert!((r.gap.verified_gap - 50.0).abs() < 1e-5, "{}", r.gap.verified_gap);
        assert!(matches!(
            r.gap.status,
            MilpStatus::Optimal | MilpStatus::Feasible
        ));
    }

    /// `FinderConfig::budget` bounds the attack's search as it bounds the
    /// demand finder's: an already-expired budget processes no node.
    #[test]
    fn expired_budget_processes_no_node() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let cfg = FinderConfig {
            budget: metaopt_resilience::Budget::from_secs_f64(0.0),
            ..FinderConfig::default()
        };
        let attack = TopologyAttack::per_edge(0.3);
        let r =
            find_adversarial_topology(&inst, &spec, &[50.0, 100.0, 100.0], &attack, &cfg).unwrap();
        assert_eq!(r.gap.nodes, 0, "{}", r.gap);
    }

    /// The budget constraint limits total removed capacity.
    #[test]
    fn budget_respected() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let demands = vec![50.0, 100.0, 100.0];
        let r = find_adversarial_topology(
            &inst,
            &spec,
            &demands,
            &TopologyAttack::per_edge(0.5).with_total_budget(20.0),
            &FinderConfig::budgeted(10.0),
        )
        .unwrap();
        let removed: f64 = r
            .capacities
            .iter()
            .enumerate()
            .map(|(e, &c)| inst.topo.capacity(EdgeId(e)) - c)
            .sum();
        assert!(removed <= 20.0 + 1e-6, "removed {removed}");
    }
}
