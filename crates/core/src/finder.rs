//! The single-shot adversarial gap finder (Eq. 1, §3.1).

use crate::check::{check_adversarial_model, gate, ModelCheckMode};
use crate::constraints::ConstrainedSet;
use crate::encode_dp::encode_dp;
use crate::encode_opt::encode_opt;
use crate::encode_pop::{encode_pop, PopMode};
use crate::result::GapResult;
use crate::{CoreError, CoreResult};
use metaopt_blackbox::GaussianSampler;
use metaopt_milp::{
    solve, solve_with_callback, IncumbentCallback, MilpConfig, MilpError, MilpStatus,
};
use metaopt_model::{LinExpr, Model, ModelStats, ObjSense, VarRef};
use metaopt_resilience::{Budget, DegradationLevel, SolverFault};
use metaopt_te::flow::capacity_constants;
use metaopt_te::pop::Partition;
use metaopt_te::{opt::opt_max_flow, OptEvaluator, TeInstance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// DP's threshold exclusion half-width ε (absolute units).
const DP_EPSILON: f64 = 1e-3;

/// Upper bound for KKT multipliers (∞ is always sound; finite values can
/// speed up branching but risk cutting the true multipliers).
pub(crate) const DUAL_BOUND: f64 = f64::INFINITY;

/// Budget (true-gap evaluations) of the callback's coordinate-improvement
/// sweep at each consulted node.
pub(crate) const CALLBACK_EVALS_PER_NODE: usize = 16;

/// How the inner OPT problem is encoded (see [`crate::encode_opt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptEncoding {
    /// Full KKT rewrite — the paper's method (§3.1).
    Kkt,
    /// Primal feasibility only — sound for the positively-signed inner max;
    /// halves the complementarity count (ablation; cf. §5 "alternative
    /// rewrites").
    PrimalOnly,
}

/// The heuristic under analysis, in encodable form.
#[derive(Debug, Clone)]
pub enum HeuristicSpec {
    /// Demand Pinning with threshold `T_d` (Eq. 4).
    DemandPinning {
        /// Pin threshold in absolute volume units.
        threshold: f64,
    },
    /// POP over fixed partition instantiations (Eq. 6).
    Pop {
        /// The (pre-drawn) random partitions.
        partitions: Vec<Partition>,
        /// Average or tail-statistic summarization (§3.2).
        mode: PopMode,
    },
}

impl HeuristicSpec {
    /// Evaluates the *real* heuristic on concrete demands, exactly as the
    /// encoding models it. Returns `None` for inputs outside the heuristic's
    /// domain (DP-infeasible pinning, §5).
    pub fn evaluate(&self, inst: &TeInstance, demands: &[f64]) -> CoreResult<Option<f64>> {
        match self {
            HeuristicSpec::DemandPinning { threshold } => {
                let out = metaopt_te::demand_pinning::demand_pinning(inst, demands, *threshold)?;
                Ok(out.feasible.then_some(out.total_flow))
            }
            HeuristicSpec::Pop { partitions, mode } => {
                let mut totals = Vec::with_capacity(partitions.len());
                for p in partitions {
                    totals.push(metaopt_te::pop::pop_max_flow(inst, demands, p)?.total_flow);
                }
                Ok(Some(match mode {
                    PopMode::Average => totals.iter().sum::<f64>() / totals.len() as f64,
                    PopMode::TailWorst { rank } => {
                        let mut s = totals.clone();
                        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
                        s[*rank]
                    }
                }))
            }
        }
    }

    /// Display label for experiment output.
    pub fn label(&self) -> String {
        match self {
            HeuristicSpec::DemandPinning { threshold } => format!("DP(T={threshold})"),
            HeuristicSpec::Pop { partitions, mode } => format!(
                "POP(parts={}, inst={}, {:?})",
                partitions.first().map_or(0, |p| p.n_parts),
                partitions.len(),
                mode
            ),
        }
    }
}

/// Finder configuration.
#[derive(Debug, Clone)]
pub struct FinderConfig {
    /// OPT encoding choice (default: paper-faithful KKT).
    pub opt_encoding: OptEncoding,
    /// Branch-and-bound budget/stop configuration.
    pub milp: MilpConfig,
    /// Whether to run the candidate-evaluation incumbent callback (strongly
    /// recommended; it is how good solutions appear early).
    pub use_incumbent_callback: bool,
    /// End-to-end anytime budget for the whole run (white-box search plus
    /// any degraded fallbacks). Composed with `milp.time_limit` /
    /// `milp.max_nodes` — the tightest limit wins. Budgets hold *absolute*
    /// deadlines: the clock starts when the budget is created, not when
    /// the finder is called.
    pub budget: Budget,
    /// Seed for the black-box fallback rung (deterministic fallbacks).
    pub fallback_seed: u64,
    /// Static model-checker gate run on every assembled program before the
    /// solve (deny-by-default: error diagnostics abort in debug builds and
    /// are recorded as [`SolverFault::EncodingSuspect`] faults in release).
    pub modelcheck: ModelCheckMode,
    /// Worker threads for the branch-and-bound searches this finder runs.
    /// `0` (the default) defers to `milp.threads`, which itself defers to
    /// the `METAOPT_THREADS` environment variable; a nonzero value here
    /// overrides both. The engine choice stays with `milp.parallel`
    /// (default [`metaopt_milp::ParallelMode::Auto`]: serial at one
    /// thread, deterministic-parallel above).
    pub threads: usize,
    /// Basis-factorization backend override for every LP relaxation this
    /// finder solves. `None` (the default) defers to `milp.factor`, which
    /// itself resolves the `METAOPT_FACTOR` environment variable (sparse
    /// LU when unset).
    pub factor: Option<metaopt_milp::FactorBackend>,
}

impl Default for FinderConfig {
    fn default() -> Self {
        FinderConfig {
            opt_encoding: OptEncoding::Kkt,
            milp: MilpConfig::default(),
            use_incumbent_callback: true,
            budget: Budget::unlimited(),
            fallback_seed: 0,
            modelcheck: ModelCheckMode::default(),
            threads: 0,
            factor: None,
        }
    }
}

impl FinderConfig {
    /// Convenience: paper-faithful encoding with a wall-clock budget and
    /// the §3.3 stall rule. The budget is *anytime*: it covers model
    /// build, the MILP search, and any degraded fallback rungs, and the
    /// clock starts now.
    pub fn budgeted(seconds: f64) -> Self {
        FinderConfig {
            milp: MilpConfig {
                time_limit: Some(std::time::Duration::from_secs_f64(seconds)),
                stall_window: Some(std::time::Duration::from_secs_f64(
                    (seconds / 3.0).max(1.0),
                )),
                ..MilpConfig::default()
            },
            budget: Budget::from_secs_f64(seconds),
            ..Default::default()
        }
    }

    /// The [`MilpConfig`] actually handed to branch-and-bound: `milp` with
    /// the finder-level [`FinderConfig::threads`] override applied.
    pub fn milp_config(&self) -> MilpConfig {
        let mut m = self.milp.clone();
        if self.threads > 0 {
            m.threads = self.threads;
        }
        if let Some(f) = self.factor {
            m.factor = f;
        }
        m
    }

    /// [`FinderConfig::milp_config`] tightened by [`FinderConfig::budget`]:
    /// what a whole-run search solves under.
    pub(crate) fn budgeted_milp_config(&self) -> MilpConfig {
        let mut m = self.milp_config();
        m.budget = m.budget.min_with(self.budget);
        m
    }
}

/// The assembled single-shot model plus handles into it.
#[derive(Debug, Clone)]
pub struct AdversarialModel {
    /// The combined model (outer vars + KKT systems + objective).
    pub model: Model,
    /// Demand variable per pair.
    pub d: Vec<VarRef>,
    /// OPT's total-flow expression.
    pub opt_total: LinExpr,
    /// The heuristic's (deterministic) value expression.
    pub heu_value: LinExpr,
    /// Demand upper bound used.
    pub d_hi: f64,
}

impl AdversarialModel {
    /// Figure-6 style size statistics of the single-shot program.
    pub fn stats(&self) -> ModelStats {
        model_stats(&self.model)
    }
}

/// Figure-6 style size statistics of an assembled adversarial program.
pub(crate) fn model_stats(model: &Model) -> ModelStats {
    ModelStats {
        n_vars: model.n_vars() + model.n_complementarities(),
        n_linear: model.n_constraints() + model.n_complementarities(),
        n_sos: model.n_complementarities(),
        n_binary: (0..model.n_vars())
            .filter(|&i| model.var_kind(VarRef(i)) == metaopt_model::VarKind::Binary)
            .count(),
    }
}

/// Builds the single-shot adversarial program without solving it (used by
/// the Figure-6 size study and by callers that want custom solving).
pub fn build_adversarial_model(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    constraints: &ConstrainedSet,
    cfg: &FinderConfig,
) -> CoreResult<AdversarialModel> {
    let d_hi = constraints.d_max.unwrap_or_else(|| inst.demand_cap());
    if d_hi.is_nan() || d_hi <= 0.0 {
        return Err(CoreError::Config(format!("bad demand bound {d_hi}")));
    }
    let mut model = Model::new();
    let d: Vec<VarRef> = (0..inst.n_pairs())
        .map(|k| model.add_var(format!("d[{k}]"), 0.0, d_hi))
        .collect::<Result<_, _>>()?;
    constraints.apply(&mut model, &d, d_hi)?;

    let d_exprs: Vec<LinExpr> = d.iter().map(|&v| LinExpr::from(v)).collect();
    let caps = capacity_constants(inst);
    let opt = encode_opt(
        &mut model,
        inst,
        &d_exprs,
        &caps,
        cfg.opt_encoding,
        DUAL_BOUND,
    )?;
    let heu_value = match spec {
        HeuristicSpec::DemandPinning { threshold } => {
            let enc = encode_dp(
                &mut model, inst, &d, *threshold, d_hi, DP_EPSILON, DUAL_BOUND,
            )?;
            enc.total_flow
        }
        HeuristicSpec::Pop { partitions, mode } => {
            let enc = encode_pop(&mut model, inst, &d, &caps, partitions, *mode, DUAL_BOUND)?;
            enc.heuristic_value
        }
    };

    let mut objective = opt.total_flow.clone();
    objective -= heu_value.clone();
    model.set_objective(ObjSense::Max, objective)?;

    Ok(AdversarialModel {
        model,
        d,
        opt_total: opt.total_flow,
        heu_value,
        d_hi,
    })
}

/// Incumbent callback: evaluate candidate demands with the *real* OPT and
/// heuristic, yielding a certified feasible gap — the domain-specific
/// primal heuristic that makes good solutions appear early (the role
/// Gurobi's internal MIP heuristics play in the paper's setup; documented
/// in DESIGN.md).
///
/// Three candidate sources, all vetted against the constrained set and the
/// real evaluators:
///
/// 1. the relaxation's demand values (snapped out of DP's ε-window),
/// 2. structure-aware roundings of the relaxation (for DP: pin-eligible
///    demands snapped to the threshold, the rest to the box; for POP: the
///    relaxation and the all-max corner),
/// 3. a budgeted round-robin coordinate improvement over the level set
///    `{0, T, d_hi}` (resp. `{0, d_hi/2, d_hi}`), resumed across calls.
///
/// Certification pays only for new work: a memo keyed by the candidate's
/// demand bit patterns answers every repeat, and OPT is re-solved warm on
/// one LP per call ([`OptEvaluator`]). The heuristic always runs cold, as
/// production runs it.
pub(crate) struct CandidateEvaluator<'a> {
    inst: &'a TeInstance,
    spec: &'a HeuristicSpec,
    constraints: &'a ConstrainedSet,
    d_indices: Vec<usize>,
    d_hi: f64,
    n_model_vars: usize,
    /// Snap-away window for DP's excluded `(T, T+ε)` slice.
    snap: Option<(f64, f64)>,
    /// Best certified candidate so far `(demands, gap)`.
    best: Option<(Vec<f64>, f64)>,
    /// Next coordinate for the round-robin improvement sweep.
    sweep_cursor: usize,
    /// Evaluation budget per `propose` call.
    evals_per_call: usize,
    calls: usize,
    /// Certified gap of every candidate seen so far.
    memo: CertMemo,
    /// OPT kept warm across candidates (`None` only if its LP failed to
    /// build, in which case every candidate is solved cold).
    opt: Option<OptEvaluator>,
}

/// Demand values the certification memo stores before it starts over
/// (8 MiB of keys).
const MEMO_CAP_VALUES: usize = 1 << 20;

/// Certified gaps keyed by the candidate's demand bit patterns.
#[derive(Default)]
struct CertMemo {
    gaps: BTreeMap<Vec<u64>, Option<f64>>,
    /// Demand values held in `gaps`' keys.
    values: usize,
}

impl CertMemo {
    fn key(demands: &[f64]) -> Vec<u64> {
        demands.iter().map(|v| v.to_bits()).collect()
    }

    fn get(&self, key: &[u64]) -> Option<Option<f64>> {
        self.gaps.get(key).copied()
    }

    /// Stores `gap` under `key`, first clearing the memo if the key would
    /// take it past [`MEMO_CAP_VALUES`].
    fn insert(&mut self, key: Vec<u64>, gap: Option<f64>) {
        if self.values + key.len() > MEMO_CAP_VALUES {
            self.gaps.clear();
            self.values = 0;
        }
        self.values += key.len();
        self.gaps.insert(key, gap);
    }
}

impl CandidateEvaluator<'_> {
    /// Certified gap of a candidate, or `None` if outside the constrained
    /// set / the heuristic's domain. OPT's value does not depend on how its
    /// LP is solved, so it comes from the warm evaluator; a warm re-solve
    /// that fails falls back to the cold solve, never dropping a candidate.
    fn certify(&mut self, demands: &[f64]) -> Option<f64> {
        if !self.constraints.contains(demands, 1e-7) {
            return None;
        }
        let heu = self.spec.evaluate(self.inst, demands).ok()??;
        let warm = self.opt.as_mut().and_then(|o| o.total_flow(demands).ok());
        let opt = match warm {
            Some(v) => v,
            None => opt_max_flow(self.inst, demands).ok()?.total_flow,
        };
        Some(opt - heu)
    }

    fn snap_window(&self, demands: &mut [f64]) {
        if let Some((t, eps)) = self.snap {
            for v in demands.iter_mut() {
                if *v > t && *v < t + eps {
                    *v = t;
                }
            }
        }
    }

    /// The coordinate levels the improvement sweep explores. A quantization
    /// grid, when present, overrides the heuristic-specific defaults (all
    /// candidates must live on the grid to pass `ConstrainedSet::contains`).
    fn levels(&self) -> Vec<f64> {
        if let Some(grid) = &self.constraints.quantize_levels {
            return grid.clone();
        }
        match self.spec {
            HeuristicSpec::DemandPinning { threshold } => {
                vec![0.0, threshold.min(self.d_hi), self.d_hi]
            }
            HeuristicSpec::Pop { .. } => vec![0.0, 0.5 * self.d_hi, self.d_hi],
        }
    }

    /// Snaps a demand vector onto the quantization grid (nearest level).
    fn snap_grid(&self, demands: &mut [f64]) {
        if let Some(grid) = &self.constraints.quantize_levels {
            for v in demands.iter_mut() {
                let mut best = grid[0];
                for &l in grid {
                    if (l - *v).abs() < (best - *v).abs() {
                        best = l;
                    }
                }
                *v = best;
            }
        }
    }

    /// Counts `demands` against the caller's evaluation budget (repeats
    /// included, so budgets and the sweep cursor do not depend on the memo)
    /// and adopts it as the best candidate if it certifies a larger gap.
    fn consider(&mut self, demands: Vec<f64>, evals: &mut usize) {
        *evals += 1;
        let key = CertMemo::key(&demands);
        let certified = match self.memo.get(&key) {
            Some(g) => g,
            None => {
                let g = self.certify(&demands);
                self.memo.insert(key, g);
                g
            }
        };
        if let Some(g) = certified {
            let better = self.best.as_ref().is_none_or(|(_, bg)| g > *bg);
            if better {
                self.best = Some((demands, g));
            }
        }
    }

    /// Last-rung black-box fallback: Gaussian hill climbing with random
    /// restarts over the demand box, every candidate snapped onto the
    /// constrained set's grid and vetted through [`Self::certify`] (unlike
    /// the raw `metaopt-blackbox` searches, which know nothing about
    /// [`ConstrainedSet`]). Improvements accumulate in `self.best`.
    /// Returns the number of gap evaluations performed.
    pub(crate) fn blackbox_fallback(&mut self, budget: Budget, seed: u64) -> usize {
        let n = self.d_indices.len();
        if n == 0 {
            return 0;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gauss = GaussianSampler::new((0.10 * self.d_hi).max(f64::MIN_POSITIVE));
        let mut evals = 0usize;
        // Deterministic corner seeds first — on tiny budgets these may be
        // the only candidates that get certified.
        for cand in [
            vec![0.0; n],
            vec![self.d_hi; n],
            vec![0.5 * self.d_hi; n],
        ] {
            let mut c = cand;
            self.snap_window(&mut c);
            self.snap_grid(&mut c);
            self.consider(c, &mut evals);
            if budget.expired() {
                return evals;
            }
        }
        // Hill climb from the incumbent; restart from a uniform draw after
        // a patience window without improvement. A hard evaluation cap
        // guards against an unlimited budget ever reaching this rung.
        const PATIENCE: usize = 64;
        const MAX_EVALS: usize = 20_000;
        let mut stale = 0usize;
        while !budget.expired() && evals < MAX_EVALS {
            let base: Vec<f64> = match &self.best {
                Some((b, _)) if stale < PATIENCE => b.clone(),
                _ => {
                    stale = 0;
                    (0..n).map(|_| rng.gen_range(0.0..=self.d_hi)).collect()
                }
            };
            let mut cand: Vec<f64> = base
                .iter()
                .map(|&x| (x + gauss.sample(&mut rng)).clamp(0.0, self.d_hi))
                .collect();
            self.snap_window(&mut cand);
            self.snap_grid(&mut cand);
            let before = self.best.as_ref().map(|(_, g)| *g);
            self.consider(cand, &mut evals);
            let after = self.best.as_ref().map(|(_, g)| *g);
            if after > before {
                stale = 0;
            } else {
                stale += 1;
            }
        }
        evals
    }
}

impl IncumbentCallback for CandidateEvaluator<'_> {
    fn propose(&mut self, relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        self.calls += 1;
        let budget = if self.calls == 1 {
            // The pre-root seeding call gets a deeper improvement sweep —
            // it may be the only certified answer if the root LP eats the
            // whole wall budget on very large instances.
            self.evals_per_call * 8
        } else {
            self.evals_per_call
        };
        let mut evals = 0usize;
        let before = self.best.as_ref().map(|(_, g)| *g);

        // 1. Relaxation demands as-is.
        let mut relax_d: Vec<f64> = self
            .d_indices
            .iter()
            .map(|&i| relaxation[i].clamp(0.0, self.d_hi))
            .collect();
        self.snap_window(&mut relax_d);
        self.snap_grid(&mut relax_d);
        self.consider(relax_d.clone(), &mut evals);

        // 2. Structure-aware roundings (only worth doing early on).
        if self.calls <= 3 {
            match self.spec {
                HeuristicSpec::DemandPinning { threshold } => {
                    let t = threshold.min(self.d_hi);
                    // Pin-eligible demands snapped to the threshold (maximum
                    // pinnable volume), the rest to the box top.
                    let mut snapped: Vec<f64> = relax_d
                        .iter()
                        .map(|&v| if v <= t { t } else { self.d_hi })
                        .collect();
                    self.snap_grid(&mut snapped);
                    self.consider(snapped, &mut evals);
                    // Long-shortest-path pairs pinned, one-hop pairs maxed:
                    // pinning on long paths burns capacity on many edges.
                    // Pins are added greedily longest-path-first while the
                    // pinned load stays within capacity, so the candidate is
                    // DP-feasible even on large dense instances.
                    let mut order: Vec<usize> = (0..self.inst.n_pairs()).collect();
                    order.sort_by_key(|&k| std::cmp::Reverse(self.inst.paths[k][0].len()));
                    let mut residual: Vec<f64> = self
                        .inst
                        .topo
                        .edges()
                        .map(|e| self.inst.topo.capacity(e))
                        .collect();
                    let mut structural = vec![self.d_hi; self.inst.n_pairs()];
                    for k in order {
                        if self.inst.paths[k][0].len() < 2 || t <= 0.0 {
                            continue;
                        }
                        let fits = self.inst.paths[k][0]
                            .edges
                            .iter()
                            .all(|e| residual[e.0] >= t);
                        if fits {
                            for e in &self.inst.paths[k][0].edges {
                                residual[e.0] -= t;
                            }
                            structural[k] = t;
                        }
                    }
                    self.snap_grid(&mut structural);
                    self.consider(structural, &mut evals);
                }
                HeuristicSpec::Pop { .. } => {
                    let mut all_hi = vec![self.d_hi; self.inst.n_pairs()];
                    self.snap_grid(&mut all_hi);
                    self.consider(all_hi, &mut evals);
                    let mut all_mid = vec![0.5 * self.d_hi; self.inst.n_pairs()];
                    self.snap_grid(&mut all_mid);
                    self.consider(all_mid, &mut evals);
                }
            }
        }

        // 3. Budgeted round-robin coordinate improvement from the best
        //    candidate so far.
        if let Some((base, _)) = self.best.clone() {
            let levels = self.levels();
            let n = base.len();
            let mut cand = base;
            // At most one pass over the coordinates per call (guards
            // against spinning when no level differs from the current
            // value, e.g. a single-level quantization grid).
            let mut visited = 0usize;
            while evals < budget && visited < n {
                visited += 1;
                let k = self.sweep_cursor % n;
                self.sweep_cursor = self.sweep_cursor.wrapping_add(1);
                let original = cand[k];
                for &lv in &levels {
                    if (lv - original).abs() < 1e-12 || evals >= budget {
                        continue;
                    }
                    let mut probe = cand.clone();
                    probe[k] = lv;
                    self.consider(probe, &mut evals);
                }
                // Greedy: adopt the best-so-far as the new sweep base.
                if let Some((b, _)) = &self.best {
                    cand = b.clone();
                }
            }
        }

        let (demands, gap) = self.best.as_ref()?;
        // Only report when strictly better than what we last handed over —
        // the solver keeps the running incumbent itself.
        if before.is_some_and(|b| *gap <= b + 1e-12) {
            return None;
        }
        let mut values = vec![0.0; self.n_model_vars];
        for (k, &i) in self.d_indices.iter().enumerate() {
            values[i] = demands[k];
        }
        Some((values, *gap))
    }
}

/// Builds the domain incumbent callback for an assembled model (shared by
/// the finder and the §3.3 sweep probes).
pub(crate) fn new_candidate_evaluator<'a>(
    inst: &'a TeInstance,
    spec: &'a HeuristicSpec,
    constraints: &'a ConstrainedSet,
    am: &AdversarialModel,
) -> CandidateEvaluator<'a> {
    CandidateEvaluator {
        inst,
        spec,
        constraints,
        d_indices: am.d.iter().map(|v| v.0).collect(),
        d_hi: am.d_hi,
        n_model_vars: am.model.n_vars(),
        snap: match spec {
            HeuristicSpec::DemandPinning { threshold } => Some((*threshold, DP_EPSILON)),
            _ => None,
        },
        best: None,
        sweep_cursor: 0,
        evals_per_call: CALLBACK_EVALS_PER_NODE,
        calls: 0,
        memo: CertMemo::default(),
        opt: OptEvaluator::new(inst).ok(),
    }
}

/// The fault behind a failed MILP solve, for [`GapResult::faults`].
fn fault_of_lp_failure(e: &MilpError) -> SolverFault {
    match e {
        MilpError::Lp(lp) => lp
            .fault()
            .cloned()
            .unwrap_or_else(|| SolverFault::NumericalBreakdown(lp.to_string())),
        MilpError::Model(s) => SolverFault::NumericalBreakdown(s.clone()),
    }
}

/// Solves Eq. 1 for the given instance, heuristic, and constrained set.
///
/// This entry point is *anytime and panic-free with respect to solver
/// faults*: if the white-box MILP search dies mid-run (numerical
/// breakdown, singular basis, expired budget deep inside a re-solve), the
/// finder degrades instead of erroring —
///
/// 1. **White-box** (the normal path): branch-and-bound ran to its
///    configured stop rule ([`DegradationLevel::None`]).
/// 2. **Certified incumbent**: the MILP failed, but the domain callback
///    had already certified a candidate against the *real* OPT and
///    heuristic; that candidate is returned with no dual bound
///    ([`DegradationLevel::CertifiedIncumbentOnly`]).
/// 3. **Black-box fallback**: no certified incumbent exists; a
///    constraint-respecting hill climb spends a slice of the remaining
///    [`FinderConfig::budget`] ([`DegradationLevel::BlackboxFallback`]).
/// 4. **No solution**: every rung failed; the result is empty with
///    [`MilpStatus::NoSolution`] ([`DegradationLevel::NoSolution`]).
///
/// Only model-construction errors (bad configuration, inconsistent
/// encodings) still return `Err` — those are caller bugs, not solver
/// faults.
pub fn find_adversarial_gap(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    constraints: &ConstrainedSet,
    cfg: &FinderConfig,
) -> CoreResult<GapResult> {
    // an:allow(AN001): build/solve timing reported to the user, never
    // replayed or certified; wall-clock is the honest axis here.
    let t0 = Instant::now();
    let am = build_adversarial_model(inst, spec, constraints, cfg)?;

    // Pre-solve static-analysis gate: refuse (debug) or record (release)
    // when the assembled encoding carries error-severity diagnostics.
    let mut pre_faults: Vec<SolverFault> = Vec::new();
    if cfg.modelcheck != ModelCheckMode::Off {
        let report = check_adversarial_model(inst, &am);
        if let Some(fault) = gate(&report, cfg.modelcheck)? {
            pre_faults.push(fault);
        }
    }

    let build_time = t0.elapsed();
    let stats = am.stats();

    let milp_cfg = cfg.budgeted_milp_config();

    // an:allow(AN001): same reporting-only wall-clock as `t0` above.
    let solve_t = Instant::now();
    let mut cb = new_candidate_evaluator(inst, spec, constraints, &am);
    let attempt = if cfg.use_incumbent_callback {
        solve_with_callback(&am.model, &milp_cfg, &mut cb)
    } else {
        solve(&am.model, &milp_cfg)
    };

    let (sol, degradation, mut faults) = match attempt {
        Ok(sol) => {
            let faults = sol.faults.clone();
            (Some(sol), DegradationLevel::None, faults)
        }
        Err(e @ MilpError::Lp(_)) => {
            let faults = vec![fault_of_lp_failure(&e)];
            // Rung 2: a candidate the callback already certified against
            // the real OPT/heuristic survives the MILP's death.
            let had_incumbent = cb.best.is_some();
            if !had_incumbent {
                // Rung 3: nothing certified yet — spend half the remaining
                // budget (or a short fixed slice when unlimited) on the
                // constraint-respecting black-box climb.
                let bb = cfg
                    .budget
                    .fraction_of_remaining(0.5, Duration::from_millis(250));
                cb.blackbox_fallback(bb, cfg.fallback_seed);
            }
            let degradation = if had_incumbent {
                DegradationLevel::CertifiedIncumbentOnly
            } else if cb.best.is_some() {
                DegradationLevel::BlackboxFallback
            } else {
                DegradationLevel::NoSolution
            };
            (None, degradation, faults)
        }
        Err(e) => return Err(e.into()), // model compilation failure
    };
    // Encoding-suspect faults recorded by the pre-solve gate come first:
    // they taint everything computed afterwards.
    if !pre_faults.is_empty() {
        pre_faults.append(&mut faults);
        faults = pre_faults;
    }

    let (demands, model_gap, upper_bound, status, nodes, solve_time, trajectory) = match &sol {
        Some(s) => (
            if s.values.is_empty() {
                vec![0.0; inst.n_pairs()]
            } else {
                am.d
                    .iter()
                    .map(|v| s.values[v.0].clamp(0.0, am.d_hi))
                    .collect()
            },
            s.objective,
            s.best_bound,
            s.status,
            s.nodes,
            s.solve_time,
            s.trajectory.clone(),
        ),
        None => match &cb.best {
            Some((d, g)) => (
                d.clone(),
                *g,
                f64::INFINITY,
                MilpStatus::Feasible,
                0,
                solve_t.elapsed(),
                Vec::new(),
            ),
            None => (
                vec![0.0; inst.n_pairs()],
                f64::NAN,
                f64::INFINITY,
                MilpStatus::NoSolution,
                0,
                solve_t.elapsed(),
                Vec::new(),
            ),
        },
    };

    // Re-measure the gap with the real algorithms (soundness check). A
    // degraded-to-empty result skips the evaluation: NaN marks "nothing
    // was found", not "the heuristic rejected the input".
    let verified_gap = if degradation == DegradationLevel::NoSolution {
        f64::NAN
    } else {
        match spec.evaluate(inst, &demands)? {
            Some(heu) => opt_max_flow(inst, &demands)?.total_flow - heu,
            None => f64::NAN, // DP-infeasible demands should never be reported
        }
    };

    Ok(GapResult {
        demands,
        model_gap,
        verified_gap,
        normalized_gap: verified_gap / inst.topo.total_capacity(),
        upper_bound,
        status,
        stats,
        nodes,
        build_time,
        solve_time,
        trajectory,
        degradation,
        faults,
    })
}

/// §5 "diverse kinds of bad inputs": finds up to `count` adversarial inputs,
/// excluding an L∞ ball of `radius` around each discovered input before the
/// next search.
pub fn find_diverse_inputs(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    constraints: &ConstrainedSet,
    cfg: &FinderConfig,
    count: usize,
    radius: f64,
) -> CoreResult<Vec<GapResult>> {
    let mut cs = constraints.clone();
    let mut results = Vec::new();
    for _ in 0..count {
        let r = find_adversarial_gap(inst, spec, &cs, cfg)?;
        if !r.verified_gap.is_finite() || r.demands.is_empty() {
            break;
        }
        cs = cs.exclude(r.demands.clone(), radius);
        results.push(r);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_starts_over_when_full() {
        let mut memo = CertMemo::default();
        let near_full = vec![0u64; MEMO_CAP_VALUES - 1];
        memo.insert(near_full.clone(), Some(1.0));
        memo.insert(vec![7], None);
        assert_eq!(memo.values, MEMO_CAP_VALUES);
        assert_eq!(memo.get(&near_full), Some(Some(1.0)));
        assert_eq!(memo.get(&[7]), Some(None));
        // One more value would pass the cap: the memo is cleared first.
        memo.insert(vec![8], Some(2.0));
        assert_eq!(memo.values, 1);
        assert_eq!(memo.get(&near_full), None);
        assert_eq!(memo.get(&[8]), Some(Some(2.0)));
    }

    #[test]
    fn memo_keys_are_exact_bit_patterns() {
        assert_ne!(CertMemo::key(&[0.0]), CertMemo::key(&[-0.0]));
        assert_ne!(CertMemo::key(&[0.1 + 0.2]), CertMemo::key(&[0.3]));
        assert_eq!(
            CertMemo::key(&[50.0, 1000.0]),
            vec![50f64.to_bits(), 1000f64.to_bits()]
        );
    }
}
