//! The §3.3 binary-sweep search strategy.
//!
//! "For solvers which do not show progress (e.g., Z3), we iteratively ask
//! for any input with a gap that is at least as large as a specified value
//! and binary sweep the value with a fixed timeout."
//!
//! Each probe adds the constraint `OPT(d) − Heuristic(d) >= g` to the
//! single-shot model, runs a budgeted branch-and-bound that stops at the
//! *first* incumbent reaching `g` (feasibility, not optimization), and
//! *vets the witness* by re-running the real algorithms — a probe only
//! counts if the certified gap reaches the threshold.
//!
//! One driver runs the sweep: [`sweep_tick`] over a [`SweepState`]. Each
//! tick spends at most one [`SliceBudget`] of branch-and-bound work and
//! returns either the finished result or a checkpointable state (the
//! in-flight probe's frontier included). The campaign runner journals that
//! state, which is how a SIGKILLed campaign continues mid-branch-and-bound
//! instead of restarting. [`sweep_max_gap`] is the one-call form: ticks
//! over an unbounded slice, one probe each.

use crate::constraints::ConstrainedSet;
use crate::finder::{build_adversarial_model, FinderConfig, HeuristicSpec};
use crate::{CoreError, CoreResult};
use metaopt_milp::{solve_resumable, Budget, Checkpoint, MilpConfig, SweepMachine, CERT_TOL};
use metaopt_model::Sense;
use metaopt_te::{opt::opt_max_flow, TeInstance};
use std::time::Instant;

/// A vetted sweep witness.
#[derive(Debug, Clone)]
pub struct SweepWitness {
    /// The demands realizing the gap.
    pub demands: Vec<f64>,
    /// The certified gap (re-measured with the real algorithms).
    pub verified_gap: f64,
}

/// Result of [`sweep_max_gap`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The best witness found (None when even the lowest threshold failed).
    pub witness: Option<SweepWitness>,
    /// The highest threshold at which a witness was certified — `None`
    /// when no threshold in the range produced a witness (previously this
    /// reported the range's `lo` as if it had been certified).
    pub threshold: Option<f64>,
    /// Probe invocations spent.
    pub probes: usize,
}

/// Extracts the demand vector from a MILP solution and certifies it
/// against the real OPT and heuristic. Returns a witness only when the
/// certified gap reaches `g − CERT_TOL`.
fn vet_witness(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    am: &crate::finder::AdversarialModel,
    values: &[f64],
    g: f64,
) -> CoreResult<Option<SweepWitness>> {
    if values.is_empty() {
        return Ok(None);
    }
    let demands: Vec<f64> = am
        .d
        .iter()
        .map(|v| values[v.0].clamp(0.0, am.d_hi))
        .collect();
    let heu = match spec.evaluate(inst, &demands)? {
        Some(h) => h,
        None => return Ok(None),
    };
    let verified = opt_max_flow(inst, &demands)?.total_flow - heu;
    if verified + CERT_TOL >= g {
        Ok(Some(SweepWitness {
            demands,
            verified_gap: verified,
        }))
    } else {
        Ok(None)
    }
}

/// Builds the probe model: the adversarial program plus `gap >= g`, gated
/// by the static model checker when `run_gate` (a fresh probe).
fn build_probe_model(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    constraints: &ConstrainedSet,
    cfg: &FinderConfig,
    g: f64,
    run_gate: bool,
) -> CoreResult<crate::finder::AdversarialModel> {
    let mut am = build_adversarial_model(inst, spec, constraints, cfg)?;
    // gap >= g as a model constraint.
    let mut gap_expr = am.opt_total.clone();
    gap_expr -= am.heu_value.clone();
    am.model
        .constrain_named("sweep::gap_floor", gap_expr, Sense::Ge, g)?;

    // Pre-solve static-analysis gate (debug builds abort here). A recorded
    // release-mode fault is dropped: every sweep witness is re-certified
    // against the real algorithms, so a suspect encoding can only cost
    // probes, never produce a false witness.
    if run_gate {
        crate::check::gate(&crate::check::check_adversarial_model(inst, &am))?;
    }
    Ok(am)
}

/// Binary-sweeps the largest certifiable gap in `[lo, hi]` to within
/// `resolution`: [`sweep_tick`] over an unbounded slice, so each tick
/// runs one probe to its end under `cfg.milp`'s limits (the per-probe
/// node cap and `time_limit`, the stall window, and `milp.budget` for the
/// whole sweep).
pub fn sweep_max_gap(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    constraints: &ConstrainedSet,
    cfg: &FinderConfig,
    lo: f64,
    hi: f64,
    resolution: f64,
) -> CoreResult<SweepResult> {
    let mut state = SweepState::new(lo, hi, resolution)?;
    let slice = SliceBudget::nodes(usize::MAX);
    loop {
        match sweep_tick(inst, spec, constraints, cfg, state, &slice)? {
            SweepTick::Done(s) => return Ok(s.result()),
            SweepTick::Paused(s) => state = s,
        }
    }
}

// ---------------------------------------------------------------------
// Resumable sweep (checkpointable state, driven in slices)
// ---------------------------------------------------------------------

/// How much work one [`sweep_tick`] may spend before suspending.
#[derive(Debug, Clone, Copy)]
pub struct SliceBudget {
    /// Branch-and-bound nodes this tick may process (across the in-flight
    /// probe). Node-based slices keep resumed campaigns *deterministic*:
    /// wall-clock plays no part in where the search suspends.
    pub max_nodes: usize,
    /// Optional wall-clock cutoff for the tick (used by campaign cell
    /// timeouts and graceful drain; trades determinism for liveness).
    pub deadline: Option<Instant>,
}

impl SliceBudget {
    /// A purely node-driven slice.
    pub fn nodes(max_nodes: usize) -> Self {
        SliceBudget {
            max_nodes: max_nodes.max(1),
            deadline: None,
        }
    }
}

/// The in-flight probe of a suspended sweep: its threshold and the
/// branch-and-bound frontier to continue from.
#[derive(Debug, Clone)]
pub struct PendingProbe {
    /// The threshold being probed.
    pub g: f64,
    /// The interrupted search's frontier (serialize with
    /// [`Checkpoint::to_text`]).
    pub checkpoint: Checkpoint,
}

/// Checkpointable state of a resumable sweep: everything needed to
/// continue after the process is killed, given the same instance /
/// heuristic / constraints / config (cells rebuild those from their
/// serialized specs — model compilation is deterministic).
#[derive(Debug, Clone)]
pub struct SweepState {
    /// The bisection state machine (plain data, serializable field by
    /// field).
    pub machine: SweepMachine,
    /// Best certified witness so far.
    pub best_witness: Option<SweepWitness>,
    /// Cumulative branch-and-bound nodes spent across all probes. Strictly
    /// monotone across ticks; the crash-recovery tests use it to prove a
    /// resumed campaign did *not* redo finished work.
    pub nodes: usize,
    /// The interrupted probe, if the last tick suspended mid-search.
    pub pending: Option<PendingProbe>,
}

impl SweepState {
    /// A fresh sweep over `[lo, hi]` at `resolution`.
    pub fn new(lo: f64, hi: f64, resolution: f64) -> CoreResult<Self> {
        if lo.is_nan() || hi.is_nan() || lo > hi || resolution.is_nan() || resolution <= 0.0 {
            return Err(CoreError::Config(format!(
                "bad sweep range [{lo}, {hi}] / resolution {resolution}"
            )));
        }
        Ok(SweepState {
            machine: SweepMachine::new(lo, hi, resolution),
            best_witness: None,
            nodes: 0,
            pending: None,
        })
    }

    /// Whether the sweep has converged (nothing left to probe).
    pub fn is_done(&self) -> bool {
        self.pending.is_none() && self.machine.is_done()
    }

    /// The finished result (meaningful once [`SweepState::is_done`]).
    pub fn result(&self) -> SweepResult {
        SweepResult {
            witness: self.best_witness.clone(),
            threshold: self.machine.best,
            probes: self.machine.probes,
        }
    }
}

/// Outcome of one [`sweep_tick`].
#[derive(Debug)]
pub enum SweepTick {
    /// The sweep converged; the carried state satisfies
    /// [`SweepState::is_done`] — read the answer with
    /// [`SweepState::result`]. Carrying the state (not just the result)
    /// preserves the cumulative node counter the campaign layer journals.
    Done(SweepState),
    /// The slice ran out with work left; checkpoint this state and call
    /// again (possibly in a different process).
    Paused(SweepState),
}

/// Advances a resumable sweep by at most one slice of branch-and-bound
/// work.
///
/// Each tick continues the pending probe's checkpointed frontier (or
/// starts the bisection's next probe) and either records the probe's
/// verdict or suspends it again. Given identical inputs, the sequence of
/// ticks is deterministic — a run interrupted at any tick boundary and
/// resumed from its checkpoint produces the same final [`SweepResult`] as
/// an uninterrupted run (the property the campaign crash-recovery CI job
/// asserts).
///
/// A probe is suspended only when the *slice* ended its search — the
/// node window closed below the per-probe node cap, or the slice's
/// deadline passed — and the tick made progress. Every other stop with an
/// open frontier is the §3.3 fixed timeout and records "no witness at
/// this threshold": the per-probe node cap (`cfg.milp.max_nodes`, or
/// `cfg.milp.budget`'s node allowance when tighter), `cfg.milp.time_limit`,
/// the stall window, and `cfg.milp.budget`'s deadline.
pub fn sweep_tick(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    constraints: &ConstrainedSet,
    cfg: &FinderConfig,
    mut state: SweepState,
    slice: &SliceBudget,
) -> CoreResult<SweepTick> {
    // Resolve which probe this tick works on.
    let (g, resume) = match state.pending.take() {
        Some(p) => (p.g, Some(p.checkpoint)),
        None => match state.machine.next_threshold() {
            Some(g) => (g, None),
            None => return Ok(SweepTick::Done(state)),
        },
    };
    let fresh_probe = resume.is_none();
    let am = build_probe_model(inst, spec, constraints, cfg, g, fresh_probe)?;

    let probe_cap = cfg
        .milp
        .max_nodes
        .min(cfg.milp.budget.max_nodes().unwrap_or(usize::MAX));
    let start_nodes = resume.as_ref().map_or(0, Checkpoint::nodes_processed);
    let window_end = start_nodes
        .saturating_add(slice.max_nodes.max(1))
        .min(probe_cap);
    let mut milp_cfg = MilpConfig {
        target_objective: Some(g),
        max_nodes: window_end,
        ..cfg.milp.clone()
    };
    if let Some(dl) = slice.deadline {
        milp_cfg.budget = milp_cfg.budget.min_with(Budget::until(dl));
    }

    let mut cb = crate::finder::new_candidate_evaluator(inst, spec, constraints, &am);
    let mut quiet = NoProposals;
    let callback: &mut dyn metaopt_milp::IncumbentCallback = if cfg.use_incumbent_callback {
        &mut cb
    } else {
        &mut quiet
    };
    let (sol, checkpoint) = solve_resumable(&am.model, &milp_cfg, callback, resume)?;
    state.nodes += sol.nodes.saturating_sub(start_nodes);

    // A certified witness at this threshold settles the probe regardless
    // of the frontier state.
    if let Some(w) = vet_witness(inst, spec, &am, &sol.values, g)? {
        state.best_witness = Some(w);
        state.machine.record(g, true);
        return Ok(tick_outcome(state));
    }
    let slice_ended = (window_end < probe_cap && sol.nodes >= window_end)
        || slice.deadline.is_some_and(|dl| Budget::until(dl).expired());
    match checkpoint {
        // Open frontier cut off by the slice, after forward progress:
        // suspend mid-probe. (The progress guard prevents a livelock when
        // a deadline stops the search before a single node runs.)
        Some(cp) if slice_ended && sol.nodes > start_nodes => {
            state.pending = Some(PendingProbe { g, checkpoint: cp });
            Ok(SweepTick::Paused(state))
        }
        // A fixed-timeout stop (inconclusive — counts as "not found", the
        // sweep is a search strategy, not a proof) or the tree is
        // exhausted / infeasible at this threshold.
        _ => {
            state.machine.record(g, false);
            Ok(tick_outcome(state))
        }
    }
}

fn tick_outcome(state: SweepState) -> SweepTick {
    if state.is_done() {
        SweepTick::Done(state)
    } else {
        SweepTick::Paused(state)
    }
}

/// Callback that never proposes (for `use_incumbent_callback: false`).
struct NoProposals;

impl metaopt_milp::IncumbentCallback for NoProposals {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_topology::synth::figure1_triangle;

    fn fig1() -> TeInstance {
        let (t, [n1, n2, n3]) = figure1_triangle(100.0);
        TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
    }

    #[test]
    fn sweep_converges_to_the_optimum() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let r = sweep_max_gap(
            &inst,
            &spec,
            &ConstrainedSet::unconstrained(),
            &FinderConfig::budgeted(5.0),
            0.0,
            100.0,
            1.0,
        )
        .unwrap();
        let w = r.witness.expect("some gap must be found");
        let threshold = r.threshold.expect("a certified threshold must exist");
        // The sweep should get within its resolution of the true optimum 50.
        assert!(
            (45.0..=50.0 + CERT_TOL).contains(&threshold),
            "threshold {} (probes {})",
            threshold,
            r.probes
        );
        assert!(w.verified_gap >= threshold - CERT_TOL);
    }

    #[test]
    fn infeasible_sweep_reports_no_threshold() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        // The whole range sits above the provable maximum of 50.
        let r = sweep_max_gap(
            &inst,
            &spec,
            &ConstrainedSet::unconstrained(),
            &FinderConfig::budgeted(5.0),
            80.0,
            100.0,
            1.0,
        )
        .unwrap();
        assert!(r.threshold.is_none(), "threshold {:?}", r.threshold);
        assert!(r.witness.is_none());
        assert_eq!(r.probes, 1);
    }

    /// Ticked execution with tiny slices reaches the same certified
    /// threshold as the one-call sweep.
    #[test]
    fn ticked_sweep_matches_one_call_sweep() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let cs = ConstrainedSet::unconstrained();
        let cfg = FinderConfig {
            milp: MilpConfig {
                max_nodes: 4_000,
                ..MilpConfig::default()
            },
            ..FinderConfig::default()
        };
        let direct = sweep_max_gap(&inst, &spec, &cs, &cfg, 0.0, 100.0, 2.0).unwrap();

        let mut state = SweepState::new(0.0, 100.0, 2.0).unwrap();
        let slice = SliceBudget::nodes(7);
        let mut ticks = 0usize;
        let result = loop {
            ticks += 1;
            assert!(ticks < 10_000, "ticked sweep failed to converge");
            match sweep_tick(&inst, &spec, &cs, &cfg, state, &slice).unwrap() {
                SweepTick::Done(s) => break s.result(),
                SweepTick::Paused(s) => state = s,
            }
        };
        assert_eq!(result.threshold, direct.threshold);
        assert_eq!(result.probes, direct.probes);
        assert!(ticks > 1, "slices of 7 nodes must suspend at least once");
    }

    /// `cfg.milp.budget` bounds every probe of the sweep, one-call and
    /// ticked, as it bounds the finder: under an expired budget no probe
    /// processes a node.
    #[test]
    fn expired_finder_budget_stops_every_probe() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let cs = ConstrainedSet::unconstrained();
        let metrics = metaopt_milp::MilpMetrics::register(&metaopt_obs::Registry::new());
        let mut cfg = FinderConfig::default();
        cfg.milp.budget = Budget::from_secs_f64(0.0);
        cfg.milp.metrics = metrics.clone();
        let r = sweep_max_gap(&inst, &spec, &cs, &cfg, 0.0, 100.0, 2.0).unwrap();
        assert_eq!(metrics.nodes.get(), 0, "{} probes", r.probes);

        let mut state = SweepState::new(0.0, 100.0, 2.0).unwrap();
        let slice = SliceBudget::nodes(64);
        let state = loop {
            match sweep_tick(&inst, &spec, &cs, &cfg, state, &slice).unwrap() {
                SweepTick::Done(s) => break s,
                SweepTick::Paused(s) => state = s,
            }
        };
        assert_eq!(state.nodes, 0);
        assert_eq!(metrics.nodes.get(), 0);
    }

    /// A probe that `cfg.milp.budget`'s node allowance stops below the
    /// slice is the probe's fixed timeout: it is recorded in the tick
    /// that ran it, never suspended for a tick that cannot make progress.
    #[test]
    fn budget_node_allowance_records_the_probe_in_its_tick() {
        let inst = fig1();
        let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
        let cs = ConstrainedSet::unconstrained();
        let mut cfg = FinderConfig::default();
        cfg.milp.budget = Budget::unlimited().with_max_nodes(3);
        let slice = SliceBudget::nodes(64);
        let mut state = SweepState::new(0.0, 100.0, 2.0).unwrap();
        let mut capped = 0usize;
        loop {
            let (probes, nodes) = (state.machine.probes, state.nodes);
            let tick = sweep_tick(&inst, &spec, &cs, &cfg, state, &slice).unwrap();
            let (SweepTick::Done(next) | SweepTick::Paused(next)) = tick;
            assert!(next.pending.is_none(), "probe {} was suspended", probes + 1);
            assert_eq!(next.machine.probes, probes + 1);
            if next.nodes - nodes == 3 {
                capped += 1;
            }
            if next.is_done() {
                assert!(capped > 0, "no probe ran into the allowance");
                break;
            }
            state = next;
        }
    }
}
