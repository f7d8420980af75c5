//! The two solver workloads: `b4-dp-anytime` (Fig. 3's white-box point,
//! stopped on a node budget) and `line4-dp-proof` (run to proven
//! optimality). Both call `find_adversarial_gap` with
//! `FinderConfig::default()` plus, for B4, a node budget.

use crate::stats::median;
use crate::trace::Recorder;
use crate::{cpu_seconds, jobs, Args, Report};
use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{
    check_adversarial_model, find_adversarial_gap, ConstrainedSet, DegradationLevel, FinderConfig,
    GapResult, HeuristicSpec,
};
use metaopt_lp::Simplex;
use metaopt_milp::{MilpMetrics, MilpStatus, CERT_TOL};
use metaopt_model::compile::compile;
use metaopt_obs::Registry;
use metaopt_te::opt::opt_max_flow;
use metaopt_te::TeInstance;
use metaopt_topology::{builtin, synth};
use std::time::Instant;

/// Node budget of the anytime B4 search.
pub const B4_NODES: usize = 30;
/// Certified normalized gap of B4 DP at T = 5% of capacity (any scale).
pub const B4_GAP: f64 = 0.197_368;
/// Proven normalized gap of line-4 DP at T = half the capacity (any scale).
pub const LINE4_GAP: f64 = 0.5;
/// Batches of instance builds timed per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Minimum length of one batch of instance builds.
const SETUP_BATCH_S: f64 = 0.02;
/// Heuristic + OPT evaluations averaged into `te.eval_s`.
const EVALS: usize = 20;
/// First-incumbent calls per run at the least, and the share of the run
/// they fill at the least.
const FIRST_CALLS: usize = 5;
const FIRST_SHARE: f64 = 0.25;
/// Minimum CPU time of one batch of admission steps.
const ADMIT_BATCH_S: f64 = 0.05;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Case {
    B4,
    Line4,
}

impl Case {
    pub fn parse(workload: &str) -> Option<Case> {
        match workload {
            "b4-dp-anytime" => Some(Case::B4),
            "line4-dp-proof" => Some(Case::Line4),
            _ => None,
        }
    }

    /// The instance with every capacity and the DP threshold scaled by
    /// `factor`.
    pub fn instance(self, factor: f64) -> (TeInstance, HeuristicSpec) {
        let (topo, threshold) = match self {
            Case::B4 => (builtin::b4(1000.0 * factor), 50.0 * factor),
            Case::Line4 => (synth::line(4, 10.0 * factor), 5.0 * factor),
        };
        let inst = TeInstance::all_pairs(topo, 2).expect("builtin instance builds");
        (inst, HeuristicSpec::DemandPinning { threshold })
    }

    /// `FinderConfig::default()`, plus the node budget for B4.
    pub fn config(self) -> FinderConfig {
        let mut cfg = FinderConfig::default();
        if self == Case::B4 {
            cfg.milp.max_nodes = B4_NODES;
        }
        cfg
    }

    /// The correctness gate of one finder result.
    pub fn gate(self, r: &GapResult) -> Result<(), String> {
        certified(r)?;
        match self {
            Case::B4 if (r.normalized_gap - B4_GAP).abs() > 1e-5 => {
                Err(format!("normalized gap {} != {B4_GAP}", r.normalized_gap))
            }
            Case::Line4 if r.status != MilpStatus::Optimal => {
                Err(format!("status {:?}, want Optimal", r.status))
            }
            Case::Line4 if (r.normalized_gap - LINE4_GAP).abs() > 1e-6 => Err(format!(
                "normalized gap {} != {LINE4_GAP}",
                r.normalized_gap
            )),
            Case::Line4
                if (r.upper_bound - r.model_gap).abs() > 1e-6 * r.model_gap.abs().max(1.0) =>
            {
                Err(format!("bound {} != gap {}", r.upper_bound, r.model_gap))
            }
            _ => Ok(()),
        }
    }
}

fn find(inst: &TeInstance, spec: &HeuristicSpec, cfg: &FinderConfig) -> GapResult {
    find_adversarial_gap(inst, spec, &ConstrainedSet::unconstrained(), cfg)
        .expect("the benchmark's models are well-formed")
}

/// Set-up time of one instance build in CPU seconds, as the median over
/// `SETUPS` batches of the mean build time in the batch (a batch runs
/// for at least `SETUP_BATCH_S`, so microsecond builds stay measurable),
/// and the last instance built.
fn setup(case: Case) -> (f64, TeInstance, HeuristicSpec) {
    let mut per_build = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let c0 = cpu_seconds();
        let mut n = 0u32;
        while n == 0 || cpu_seconds() - c0 < SETUP_BATCH_S {
            built = Some(case.instance(1.0));
            n += 1;
        }
        per_build.push((cpu_seconds() - c0) / f64::from(n));
    }
    let (inst, spec) = built.expect("SETUPS > 0");
    (median(&per_build).unwrap_or(0.0), inst, spec)
}

/// The seed's check: the same search on the instance scaled by the
/// seed's factor must pass the same gate (normalized gaps are
/// scale-free). B4 needs a single node for its gap.
fn scaled_check(case: Case, args: &Args, report: &mut Report) {
    let (inst, spec) = case.instance(args.factor());
    let mut cfg = case.config();
    if case == Case::B4 {
        cfg.milp.max_nodes = 1;
    }
    let r = find(&inst, &spec, &cfg);
    report.op(case.gate(&r), || format!("scaled x{:.4}", args.factor()));
}

/// Runs `f`, returning its result and the CPU seconds it took.
fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c0 = cpu_seconds();
    let out = f();
    (out, cpu_seconds() - c0)
}

/// The untraced run for `--seconds`: finder calls that stop at their
/// first certified incumbent, then full finder calls. Operations are
/// timed in CPU seconds of the benchmark's threads: at the default one
/// solver thread the finder runs on the calling thread, and CPU time
/// leaves out the time a shared host takes the core away.
pub fn run(case: Case, args: &Args, report: &mut Report) {
    let (setup_s, inst, spec) = setup(case);
    let cfg = case.config();
    let mut first_cfg = cfg.clone();
    first_cfg.milp.target_objective = Some(f64::MIN);
    let cs = ConstrainedSet::unconstrained();
    let mut first = Vec::new();
    let mut ack = Vec::new();
    let mut result = Vec::new();
    let mut wall = Vec::new();
    let mut gaps = Vec::new();
    // One untimed call lets the allocator and caches warm up.
    report.op(certified(&find(&inst, &spec, &first_cfg)), || {
        "warm-up call".into()
    });
    let start = Instant::now();
    while first.len() < FIRST_CALLS || start.elapsed().as_secs_f64() < FIRST_SHARE * args.seconds {
        let (r, cpu) = cpu_timed(|| find(&inst, &spec, &first_cfg));
        report.op(certified(&r), || "first-incumbent call".into());
        first.push(cpu);
    }
    // Full calls repeat while the run can end within half a call of its
    // length. Each is preceded by the finder's admission step on its
    // own (the model is built and passes the modelcheck gate), repeated
    // for at least `ADMIT_BATCH_S`; the batch's mean is one sample.
    while result.is_empty()
        || start.elapsed().as_secs_f64() + 0.5 * median(&wall).unwrap_or(0.0) <= args.seconds
    {
        let c0 = cpu_seconds();
        let mut admissions = 0u32;
        while admissions == 0 || cpu_seconds() - c0 < ADMIT_BATCH_S {
            let am = build_adversarial_model(&inst, &spec, &cs, &cfg).expect("model builds");
            let errors = check_adversarial_model(&inst, &am).errors().count();
            report.op(
                if errors == 0 {
                    Ok(())
                } else {
                    Err(format!("{errors} modelcheck errors"))
                },
                || "admission".into(),
            );
            admissions += 1;
        }
        ack.push((cpu_seconds() - c0) / f64::from(admissions));
        let t = Instant::now();
        let (r, cpu) = cpu_timed(|| find(&inst, &spec, &cfg));
        wall.push(t.elapsed().as_secs_f64());
        report.op(case.gate(&r), || "finder call".into());
        result.push(cpu);
        gaps.push(r.normalized_gap);
    }
    scaled_check(case, args, report);
    let ops_per_s = result.len() as f64 / result.iter().sum::<f64>();
    report.e2e(setup_s, &first, &result, &ack, ops_per_s, &gaps);
}

/// The gate of an anytime result: a certified, undegraded incumbent.
fn certified(r: &GapResult) -> Result<(), String> {
    if r.degradation != DegradationLevel::None {
        return Err(format!("degraded result: {}", r.degradation));
    }
    if (r.model_gap - r.verified_gap).abs() > CERT_TOL * r.verified_gap.abs().max(1.0) {
        return Err(format!(
            "model gap {} != verified gap {}",
            r.model_gap, r.verified_gap
        ));
    }
    Ok(())
}

/// Counters of one finder or MILP call, read from a fresh registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub nodes: u64,
    pub incumbents: u64,
    pub pivots: u64,
    pub updates: u64,
    pub refactors: u64,
    pub warm: u64,
    pub cold: u64,
    pub recoveries: u64,
}

impl Counts {
    pub fn read(m: &MilpMetrics) -> Counts {
        Counts {
            nodes: m.nodes.get(),
            incumbents: m.incumbents.get(),
            pivots: m.lp.pivots.get(),
            updates: m.lp.updates.get(),
            refactors: m.lp.refactors.get(),
            warm: m.lp.warm_solves.get(),
            cold: m.lp.cold_solves.get(),
            recoveries: m.lp.recovery_cold_restart.get()
                + m.lp.recovery_equilibrate.get()
                + m.lp.recovery_perturb.get()
                + m.lp.recovery_best_feasible.get(),
        }
    }

    /// Reports the counter-derived `lp.*` and `milp.*` layer metrics.
    pub fn emit(&self, search_s: f64, report: &mut Report) {
        let nodes = self.nodes.max(1) as f64;
        report.metric("lp.pivots", self.pivots as f64, "count");
        report.metric("lp.basis_updates", self.updates as f64, "count");
        report.metric("lp.refactors", self.refactors as f64, "count");
        report.metric("lp.warm_solves", self.warm as f64, "count");
        report.metric("lp.cold_solves", self.cold as f64, "count");
        report.metric("lp.recoveries", self.recoveries as f64, "count");
        report.metric("lp.pivots_per_node", self.pivots as f64 / nodes, "count");
        report.metric(
            "lp.refactors_per_node",
            self.refactors as f64 / nodes,
            "count",
        );
        let solves = (self.warm + self.cold).max(1) as f64;
        report.metric("lp.warm_frac", self.warm as f64 / solves, "ratio");
        report.metric("milp.nodes", self.nodes as f64, "count");
        report.metric("milp.incumbents", self.incumbents as f64, "count");
        report.metric("milp.nodes_per_s", self.nodes as f64 / search_s, "1/s");
    }
}

/// One finder call with a registry wired into its `MilpConfig`.
pub fn counted_find(
    inst: &TeInstance,
    spec: &HeuristicSpec,
    cfg: &FinderConfig,
) -> (GapResult, Counts) {
    let metrics = MilpMetrics::register(&Registry::new());
    let mut cfg = cfg.clone();
    cfg.milp.metrics = metrics.clone();
    let r = find(inst, spec, &cfg);
    (r, Counts::read(&metrics))
}

/// Times `encode → modelcheck → compile → root LP` on one model, each in
/// its own span, and reports the model sizes and the root LP's pivots.
pub fn pipeline_layers(
    rec: &Recorder,
    inst: &TeInstance,
    spec: &HeuristicSpec,
    cfg: &FinderConfig,
    report: &mut Report,
) {
    let cs = ConstrainedSet::unconstrained();
    let am = rec
        .span("core.encode", || {
            build_adversarial_model(inst, spec, &cs, cfg)
        })
        .expect("the benchmark's models are well-formed");
    let errors = rec.span("modelcheck.check", || {
        check_adversarial_model(inst, &am).errors().count()
    });
    report.op(
        if errors == 0 {
            Ok(())
        } else {
            Err(format!("{errors} modelcheck errors"))
        },
        || "modelcheck".into(),
    );
    let cm = rec
        .span("model.compile", || compile(&am.model))
        .expect("model compiles");
    let root = rec.span("lp.root", || Simplex::new(&cm.lp).solve());
    report.op(root.as_ref().map(|_| ()).map_err(|e| e.to_string()), || {
        "root LP".into()
    });
    report.metric("core.encode_s", rec.total("core.encode"), "s");
    report.metric("modelcheck.check_s", rec.total("modelcheck.check"), "s");
    report.metric("model.compile_s", rec.total("model.compile"), "s");
    report.metric("model.rows", cm.lp.n_rows() as f64, "count");
    report.metric("model.cols", cm.lp.n_vars() as f64, "count");
    report.metric("model.nnz", cm.lp.nnz() as f64, "count");
    report.metric("model.sos_pairs", cm.compl_pairs.len() as f64, "count");
    report.metric("lp.root_s", rec.total("lp.root"), "s");
    report.metric(
        "lp.root_pivots",
        root.map_or(0, |s| s.iterations) as f64,
        "count",
    );
}

/// Mean time of one heuristic evaluation plus one OPT solve on `demands`.
pub fn te_eval(
    rec: &Recorder,
    inst: &TeInstance,
    spec: &HeuristicSpec,
    demands: &[f64],
    report: &mut Report,
) {
    for _ in 0..EVALS {
        rec.span("te.eval", || {
            let heu = spec.evaluate(inst, demands);
            let opt = opt_max_flow(inst, demands);
            let _ = std::hint::black_box((heu, opt));
        });
    }
    report.metric("te.eval_s", rec.total("te.eval") / EVALS as f64, "s");
}

/// The traced run: each layer called in turn under a span.
pub fn traced(case: Case, args: &Args, rec: &Recorder, report: &mut Report) {
    let (inst, spec) = case.instance(1.0);
    let cfg = case.config();
    let start = Instant::now();

    // Tracing overhead: alternate an untraced and a traced finder call
    // (span plus a live registry), in CPU time, while time remains.
    let mut ratios = Vec::new();
    let mut traced_counts: Option<(GapResult, Counts)> = None;
    let mut pair_s = 0.0;
    while ratios.is_empty() || start.elapsed().as_secs_f64() + pair_s <= 0.5 * args.seconds {
        let pair = Instant::now();
        let (plain, plain_s) = cpu_timed(|| find(&inst, &spec, &cfg));
        report.op(case.gate(&plain), || "untraced finder call".into());
        let ((r, counts), traced_s) =
            cpu_timed(|| rec.span("core.find", || counted_find(&inst, &spec, &cfg)));
        report.op(case.gate(&r), || "traced finder call".into());
        if let Some((_, first)) = &traced_counts {
            report.op(
                if *first == counts {
                    Ok(())
                } else {
                    Err(format!("{first:?} != {counts:?}"))
                },
                || "counts repeat across traced calls".into(),
            );
        }
        ratios.push(traced_s / plain_s);
        traced_counts.get_or_insert((r, counts));
        pair_s = pair.elapsed().as_secs_f64();
    }
    let (result, counts) = traced_counts.expect("at least one traced call");
    let (nocb, callback) = finder_layers(rec, &inst, &spec, &cfg, &result, counts, report);
    // Only B4 stops on a node budget, so only there do the searches with
    // and without the callback do the same work, and the derived
    // callback time is exact.
    if case == Case::B4 {
        let same = nocb.nodes == counts.nodes && nocb.pivots == counts.pivots;
        report.op(
            if same {
                Ok(())
            } else {
                Err(format!("{nocb:?} vs {counts:?}"))
            },
            || "no-callback search does the same node and pivot work".into(),
        );
        let noise = 0.1 * median(&rec.durations("core.find")).unwrap_or(0.0);
        report.op(
            if callback >= -noise {
                Ok(())
            } else {
                Err(format!("core.callback_s = {callback}"))
            },
            || "derived callback time is not negative".into(),
        );
    }
    report.metric(
        "obs.trace_overhead_frac",
        median(&ratios).unwrap_or(1.0) - 1.0,
        "ratio",
    );
    jobs::service_layers(rec, args, report, None);
}

/// The finder's layers on one model, after a traced finder call (span
/// `core.find`) gave `result` and `counts`: encode → modelcheck →
/// compile → root LP, the same search without the incumbent callback,
/// and the TE evaluators on the certified demands. Returns the
/// no-callback search's counts and the derived callback time.
pub fn finder_layers(
    rec: &Recorder,
    inst: &TeInstance,
    spec: &HeuristicSpec,
    cfg: &FinderConfig,
    result: &GapResult,
    counts: Counts,
    report: &mut Report,
) -> (Counts, f64) {
    pipeline_layers(rec, inst, spec, cfg, report);
    let (_, nocb) = rec.span("milp.search_nocb", || {
        let mut c = cfg.clone();
        c.use_incumbent_callback = false;
        counted_find(inst, spec, &c)
    });
    counts.emit(result.solve_time.as_secs_f64(), report);
    report.metric("milp.search_nocb_s", rec.total("milp.search_nocb"), "s");
    te_eval(rec, inst, spec, &result.demands, report);

    let find_s = median(&rec.durations("core.find")).unwrap_or(0.0);
    let encode = rec.total("core.encode");
    let check = rec.total("modelcheck.check");
    let callback = find_s - encode - check - rec.total("milp.search_nocb");
    report.metric("core.callback_s", callback, "s");
    let inside = encode + check + rec.total("model.compile") + rec.total("lp.root");
    report.op(
        if inside <= 1.1 * find_s {
            Ok(())
        } else {
            Err(format!("{inside} > {find_s}"))
        },
        || "layer times fit inside the finder's wall clock".into(),
    );
    (nocb, callback)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b4_counts_repeat_exactly() {
        let (inst, spec) = Case::B4.instance(1.0);
        let cfg = Case::B4.config();
        let (a, first) = counted_find(&inst, &spec, &cfg);
        let (b, second) = counted_find(&inst, &spec, &cfg);
        assert_eq!(first, second);
        assert_eq!(first.nodes, B4_NODES as u64);
        assert!(first.pivots > 0 && first.refactors > 0);
        assert!(Case::B4.gate(&a).is_ok() && Case::B4.gate(&b).is_ok());
    }

    #[test]
    fn normalized_gaps_are_scale_free() {
        for f in [0.5, 1.0, 2.4] {
            let (inst, spec) = Case::Line4.instance(f);
            let r = find(&inst, &spec, &Case::Line4.config());
            assert_eq!(Case::Line4.gate(&r), Ok(()), "factor {f}");
        }
    }
}
