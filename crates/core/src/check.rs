//! The pre-solve static-analysis gate.
//!
//! Every single-shot program the finder assembles is walked by
//! `metaopt-modelcheck` *before* branch-and-bound sees it: a silently
//! flipped dual sign or a dangling complementarity pair produces a "gap"
//! that is an encoding bug, not a heuristic failure. The gate is
//! deny-by-default ([`ModelCheckMode::Deny`]): error-severity diagnostics
//! abort the solve in debug builds, and are downgraded to a recorded
//! [`SolverFault::EncodingSuspect`] in release builds so production runs
//! stay anytime.

use crate::constraints::ConstrainedSet;
use crate::finder::{build_adversarial_model, AdversarialModel, FinderConfig, HeuristicSpec};
use crate::{CoreError, CoreResult};
use metaopt_model::ModelStats;
use metaopt_modelcheck::{check_model, CheckConfig, Report, TopologyContext};
use metaopt_resilience::SolverFault;
use metaopt_te::TeInstance;

/// How the static model checker gates solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelCheckMode {
    /// Run the checker; error diagnostics abort before the solve in debug
    /// builds and are recorded as [`SolverFault::EncodingSuspect`] in
    /// release builds. The default.
    #[default]
    Deny,
    /// Run the checker; error diagnostics are always recorded as faults,
    /// never abort.
    Warn,
    /// Skip the checker entirely.
    Off,
}

/// The topology shape of `inst`, in the checker's encoder-independent form.
pub fn topology_context(inst: &TeInstance) -> TopologyContext {
    TopologyContext {
        n_pairs: inst.n_pairs(),
        n_edges: inst.topo.n_edges(),
        paths: inst
            .paths
            .iter()
            .map(|ps| {
                ps.iter()
                    .map(|p| p.edges.iter().map(|e| e.0).collect())
                    .collect()
            })
            .collect(),
    }
}

/// Runs the full analyzer over an assembled single-shot model.
///
/// The `opt` and `dp` flow encodings live on the instance's own topology
/// and get the MC3xx TE-semantic checks; POP sub-encodings (`pop[r][c]`
/// prefixes) are built over *partition-restricted* sub-instances internal
/// to the encoder and are deliberately not registered (structural, KKT,
/// and numerical families still cover them).
pub fn check_adversarial_model(inst: &TeInstance, am: &AdversarialModel) -> Report {
    let ctx = topology_context(inst);
    let cfg = CheckConfig::default()
        .with_semantic("opt", ctx.clone())
        .with_semantic("dp", ctx);
    check_model(&am.model, &cfg)
}

/// Admission-time validation for externally submitted job specs: builds
/// the full adversarial model once and runs the complete static analyzer
/// over it, erroring on *any* error-severity diagnostic — in every build
/// profile, regardless of [`ModelCheckMode`].
///
/// This deliberately differs from the finder's in-solve gate
/// ([`crate::FinderConfig::modelcheck`]): mid-solve, a release build
/// downgrades encoding suspicion to a recorded fault so long-running
/// campaigns stay anytime; at a server's admission boundary
/// there is nothing to stay anytime *for* — the right move is to reject
/// the job with a diagnostic before it ever occupies a worker. Returns the
/// single-shot program's size statistics (the paper's Figure 6 axes) so
/// admission can also refuse jobs that are structurally too large.
pub fn validate_adversarial_setup(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    constraints: &ConstrainedSet,
    cfg: &FinderConfig,
) -> CoreResult<ModelStats> {
    let am = build_adversarial_model(inst, spec, constraints, cfg)?;
    let report = check_adversarial_model(inst, &am);
    if report.has_errors() {
        let details: Vec<String> = report.errors().take(8).map(ToString::to_string).collect();
        return Err(CoreError::ModelCheck(format!(
            "{}\n{}",
            report.summary(),
            details.join("\n")
        )));
    }
    Ok(am.stats())
}

/// Applies the gate policy to a report. Returns a fault to record in
/// `GapResult::faults` (release/Warn path), `Err` to abort (debug Deny
/// path), or `Ok(None)` when the model is acceptable.
pub(crate) fn gate(report: &Report, mode: ModelCheckMode) -> CoreResult<Option<SolverFault>> {
    if mode == ModelCheckMode::Off || !report.has_errors() {
        return Ok(None);
    }
    if mode == ModelCheckMode::Deny && cfg!(debug_assertions) {
        let details: Vec<String> = report.errors().take(8).map(ToString::to_string).collect();
        return Err(CoreError::ModelCheck(format!(
            "{}\n{}",
            report.summary(),
            details.join("\n")
        )));
    }
    Ok(Some(SolverFault::EncodingSuspect(report.summary())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_modelcheck::{Severity, Span};

    fn erring() -> Report {
        let mut r = Report::new();
        r.push("MC102", Severity::Error, Span::Model, "flipped sign".into());
        r
    }

    #[test]
    fn off_mode_never_gates() {
        assert_eq!(gate(&erring(), ModelCheckMode::Off).unwrap(), None);
    }

    #[test]
    fn warn_mode_records_fault() {
        let f = gate(&erring(), ModelCheckMode::Warn).unwrap().unwrap();
        assert_eq!(f.kind(), "encoding_suspect");
        assert!(!f.is_recoverable());
    }

    #[test]
    fn deny_mode_policy_matches_build_profile() {
        let out = gate(&erring(), ModelCheckMode::Deny);
        if cfg!(debug_assertions) {
            assert!(matches!(out, Err(CoreError::ModelCheck(_))));
        } else {
            assert!(matches!(out, Ok(Some(_))));
        }
    }

    #[test]
    fn clean_report_passes_all_modes() {
        for mode in [ModelCheckMode::Deny, ModelCheckMode::Warn, ModelCheckMode::Off] {
            assert_eq!(gate(&Report::new(), mode).unwrap(), None);
        }
    }

    #[test]
    fn validate_accepts_well_formed_setup_and_reports_stats() {
        use metaopt_te::TeInstance;
        use metaopt_topology::synth::figure1_triangle;
        let (t, [n1, n2, n3]) = figure1_triangle(100.0);
        let inst = TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap();
        let stats = validate_adversarial_setup(
            &inst,
            &crate::HeuristicSpec::DemandPinning { threshold: 50.0 },
            &crate::ConstrainedSet::unconstrained(),
            &crate::FinderConfig::default(),
        )
        .unwrap();
        assert!(stats.n_vars > 0 && stats.n_linear > 0);
    }

    #[test]
    fn validate_rejects_malformed_setup_in_every_profile() {
        use metaopt_te::TeInstance;
        use metaopt_topology::synth::figure1_triangle;
        let (t, [n1, n2, n3]) = figure1_triangle(100.0);
        let inst = TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap();
        let mut cs = crate::ConstrainedSet::unconstrained();
        cs.d_max = Some(-1.0); // malformed: negative demand bound
        let err = validate_adversarial_setup(
            &inst,
            &crate::HeuristicSpec::DemandPinning { threshold: 50.0 },
            &cs,
            &crate::FinderConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Config(_) | CoreError::ModelCheck(_)
        ));
    }
}
