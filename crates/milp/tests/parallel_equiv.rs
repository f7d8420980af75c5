//! Differential equivalence harness for the deterministic parallel
//! branch-and-bound engine, run on the real paper encodings (fig-1
//! triangle, Demand Pinning and POP adversarial-gap programs):
//!
//! * `ParallelMode::Deterministic` at 1, 2, and 8 threads must produce
//!   **bit-identical** certified results — objective, dual bound, node
//!   count, and the full `Checkpoint::to_text` serialization of an
//!   interrupted search — and all of them must match the engine's
//!   1-thread baseline.
//! * `ParallelMode::Auto` must certify the serial engine's objective
//!   within `CERT_TOL` at one thread and above.
//!
//! The models are built through `metaopt-core`'s encoders (a dev-only
//! dependency cycle, which cargo permits) so the harness exercises exactly
//! the mixed binary/complementarity structures the engines exist for.

use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{ConstrainedSet, FinderConfig, HeuristicSpec, PopMode};
use metaopt_milp::{
    solve, solve_resumable, Checkpoint, FactorBackend, IncumbentCallback, MilpConfig,
    MilpSolution, MilpStatus, ParallelMode, CERT_TOL,
};
use metaopt_model::Model;
use metaopt_te::pop::Partition;
use metaopt_te::TeInstance;
use metaopt_topology::synth::figure1_triangle;

fn fig1() -> TeInstance {
    let (t, [n1, n2, n3]) = figure1_triangle(100.0);
    TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
}

/// The fig-1 Demand Pinning adversarial program (binary branching).
fn dp_model() -> Model {
    let inst = fig1();
    let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
    let cfg = FinderConfig::default();
    build_adversarial_model(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
        .unwrap()
        .model
}

/// The fig-1 POP adversarial program (complementarity/SOS1 branching).
fn pop_model() -> Model {
    let inst = fig1();
    // Two fixed 2-way partitions: deterministic, no RNG involved.
    let spec = HeuristicSpec::Pop {
        partitions: vec![
            Partition {
                assignment: vec![0, 1, 0],
                n_parts: 2,
            },
            Partition {
                assignment: vec![1, 0, 1],
                n_parts: 2,
            },
        ],
        mode: PopMode::Average,
    };
    let cfg = FinderConfig::default();
    build_adversarial_model(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
        .unwrap()
        .model
}

fn det_cfg(threads: usize) -> MilpConfig {
    det_cfg_with(threads, FactorBackend::from_env())
}

fn det_cfg_with(threads: usize, factor: FactorBackend) -> MilpConfig {
    MilpConfig {
        threads,
        parallel: ParallelMode::Deterministic,
        factor,
        ..MilpConfig::default()
    }
}

const BACKENDS: [FactorBackend; 2] = [FactorBackend::Dense, FactorBackend::SparseLU];

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Exact (bit-level) signature of a certified solve.
fn signature(sol: &MilpSolution) -> (u64, u64, usize, usize) {
    (
        sol.objective.to_bits(),
        sol.best_bound.to_bits(),
        sol.nodes,
        sol.numerical_prunes,
    )
}

struct NoCb;
impl IncumbentCallback for NoCb {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        None
    }
}

/// Deterministic engine, full solve: the signature is identical at every
/// thread count, on both paper encodings — under each factorization
/// backend separately. (Across backends the floating-point arithmetic
/// differs, so bit-identity is required per backend, while the certified
/// objectives must still agree to `CERT_TOL` between backends.)
#[test]
fn deterministic_solves_are_bit_identical_across_thread_counts() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        let mut by_backend: Vec<f64> = Vec::new();
        for backend in BACKENDS {
            let mut baseline = None;
            for threads in THREAD_COUNTS {
                let sol = solve(&model, &det_cfg_with(threads, backend)).unwrap();
                assert_eq!(
                    sol.status,
                    MilpStatus::Optimal,
                    "{name} ({backend}) at {threads} threads did not certify"
                );
                let sig = signature(&sol);
                match &baseline {
                    None => {
                        by_backend.push(sol.objective);
                        baseline = Some(sig);
                    }
                    Some(b) => assert_eq!(
                        &sig, b,
                        "{name} ({backend}): thread count {threads} changed the certified result"
                    ),
                }
            }
        }
        let (d, s) = (by_backend[0], by_backend[1]);
        assert!(
            (d - s).abs() <= CERT_TOL * (1.0 + d.abs()),
            "{name}: dense {d} vs sparse {s} exceeded CERT_TOL"
        );
    }
}

/// Deterministic engine, interrupted solve: a node budget stops every run
/// on the same wave boundary, so the checkpoint — down to its exact
/// `to_text` bytes — is identical at every thread count.
#[test]
fn deterministic_checkpoints_serialize_identically() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        for budget_nodes in [1usize, 5, 9, 17] {
            let mut texts: Vec<Option<String>> = Vec::new();
            for threads in THREAD_COUNTS {
                let cfg = MilpConfig {
                    max_nodes: budget_nodes,
                    ..det_cfg(threads)
                };
                let (_, cp) = solve_resumable(&model, &cfg, &mut NoCb, None).unwrap();
                texts.push(cp.map(|c| c.to_text()));
            }
            for pair in texts.windows(2) {
                assert_eq!(
                    pair[0], pair[1],
                    "{name}: checkpoint text diverged across thread counts at {budget_nodes} nodes"
                );
            }
        }
    }
}

/// Deterministic engine, interrupt + resume: stopping at a node budget and
/// resuming yields the same certified signature as an uninterrupted run,
/// at every thread count.
#[test]
fn deterministic_resume_matches_uninterrupted_run() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        for threads in THREAD_COUNTS {
            let full = solve(&model, &det_cfg(threads)).unwrap();
            let cfg = MilpConfig {
                max_nodes: 9,
                ..det_cfg(threads)
            };
            let (first, cp) = solve_resumable(&model, &cfg, &mut NoCb, None).unwrap();
            let resumed = match cp {
                Some(cp) => {
                    // Round-trip the checkpoint through its text form, as
                    // the campaign journal does.
                    let cp = Checkpoint::from_text(&cp.to_text()).unwrap();
                    let relaxed = det_cfg(threads);
                    let (sol, rest) = solve_resumable(&model, &relaxed, &mut NoCb, Some(cp)).unwrap();
                    assert!(rest.is_none(), "{name}: resumed run still interrupted");
                    sol
                }
                None => first,
            };
            assert_eq!(
                signature(&resumed),
                signature(&full),
                "{name} at {threads} threads: resume diverged from uninterrupted run"
            );
        }
    }
}

/// The reported `MilpSolution::trajectory` is wall-clock seconds in every
/// engine — the deterministic engine's node-axis replay trajectory stays
/// internal to its checkpoint. A node-count axis would exceed the
/// (sub-second) fig-1 solve time, which is what this guards against.
#[test]
fn deterministic_trajectory_is_wall_clock() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        for threads in THREAD_COUNTS {
            let sol = solve(&model, &det_cfg(threads)).unwrap();
            assert!(
                !sol.trajectory.is_empty(),
                "{name} at {threads} threads: no incumbent improvements recorded"
            );
            let secs = sol.solve_time.as_secs_f64();
            for &(t, _) in &sol.trajectory {
                assert!(
                    (0.0..=secs).contains(&t),
                    "{name} at {threads} threads: trajectory timestamp {t} outside \
                     [0, {secs}]s — node counts leaked into the seconds axis"
                );
            }
        }
    }
}

/// Resuming a deterministic checkpoint on the *serial* engine must not
/// splice the checkpoint's node-axis trajectory into the serial engine's
/// wall-clock one: units never mix in a reported trajectory.
#[test]
fn cross_engine_resume_never_mixes_trajectory_units() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        let cfg = MilpConfig {
            max_nodes: 9,
            ..det_cfg(8)
        };
        let (_, cp) = solve_resumable(&model, &cfg, &mut NoCb, None).unwrap();
        let Some(cp) = cp else { continue };
        let cp = Checkpoint::from_text(&cp.to_text()).unwrap();
        let serial = MilpConfig {
            parallel: ParallelMode::Serial,
            ..MilpConfig::default()
        };
        let (sol, rest) = solve_resumable(&model, &serial, &mut NoCb, Some(cp)).unwrap();
        assert!(rest.is_none(), "{name}: serial resume still interrupted");
        assert_eq!(sol.status, MilpStatus::Optimal, "{name}: resume did not certify");
        let secs = sol.solve_time.as_secs_f64();
        for &(t, _) in &sol.trajectory {
            assert!(
                (0.0..=secs).contains(&t),
                "{name}: serial resume reported timestamp {t} outside [0, {secs}]s — \
                 node-axis checkpoint entries leaked into the wall-clock trajectory"
            );
        }
    }
}

/// `ParallelMode::Auto` picks the serial engine at one thread and the
/// deterministic engine above one — and both agree with the explicit
/// serial engine's certified objective within `CERT_TOL`.
#[test]
fn auto_mode_matches_serial_certification() {
    let model = dp_model();
    let serial = solve(
        &model,
        &MilpConfig {
            parallel: ParallelMode::Serial,
            ..MilpConfig::default()
        },
    )
    .unwrap();
    for threads in [1usize, 8] {
        let sol = solve(
            &model,
            &MilpConfig {
                threads,
                ..MilpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(
            (sol.objective - serial.objective).abs() <= CERT_TOL * (1.0 + serial.objective.abs()),
            "auto at {threads} threads: objective {} vs serial {}",
            sol.objective,
            serial.objective
        );
    }
}

/// The serial engine solves every node LP but the root from its parent's
/// optimal basis: the dive child from the live basis, the heap child from
/// the snapshot it carries. A child only tightens bounds, so that basis is
/// dual feasible and no node falls back to a cold solve. The certified
/// objective is the deterministic engine's, which warm-starts every node
/// the same way.
#[test]
fn serial_engine_solves_only_its_root_lp_cold() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        let serial = solve(
            &model,
            &MilpConfig {
                threads: 1,
                parallel: ParallelMode::Serial,
                ..MilpConfig::default()
            },
        )
        .unwrap();
        let det = solve(&model, &det_cfg(1)).unwrap();
        assert_eq!(
            serial.status,
            MilpStatus::Optimal,
            "{name}: serial did not certify"
        );
        assert_eq!(
            serial.lp_stats.cold_solves, 1,
            "{name}: {:?} over {} nodes",
            serial.lp_stats, serial.nodes
        );
        assert_eq!(
            serial.objective.to_bits(),
            det.objective.to_bits(),
            "{name}: serial objective {} vs deterministic {}",
            serial.objective,
            det.objective
        );
    }
}
