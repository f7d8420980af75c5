//! Branch-and-bound engine benchmark: serial vs deterministic-parallel on
//! the fig-1 scaling grid, plus warm-vs-cold LP iteration accounting from
//! the basis-snapshot warm starts.
//!
//! Emits `target/figures/BENCH_bnb.json` (hand-rolled JSON, like every
//! other emitter in this crate) with one record per (model, engine,
//! threads, factor) cell: wall-clock seconds, node throughput, certified
//! objective, the warm/cold solve split, and the factor-core counters
//! (pivots, rank-one basis updates, refactorizations). Every cell runs
//! under both `FactorBackend::Dense` and `FactorBackend::SparseLU`;
//! speedups are computed against the serial cell of the SAME backend.
//! The file also records the hardware thread count of the machine that
//! produced it — speedup claims are only meaningful relative to that.

use metaopt_bench::quick_mode;
use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{ConstrainedSet, FinderConfig, HeuristicSpec, PopMode};
use metaopt_milp::{solve, FactorBackend, MilpConfig, MilpMetrics, MilpSolution, ParallelMode};
use metaopt_model::Model;
use metaopt_obs::{Counter, Registry};
use metaopt_te::pop::Partition;
use metaopt_te::TeInstance;
use metaopt_topology::synth::{figure1_triangle, line};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

fn fig1() -> TeInstance {
    let (t, [n1, n2, n3]) = figure1_triangle(100.0);
    TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
}

fn model_for(name: &str) -> Model {
    let (inst, spec) = match name {
        "fig1-dp" => (
            fig1(),
            HeuristicSpec::DemandPinning { threshold: 50.0 },
        ),
        "fig1-pop" => (
            fig1(),
            HeuristicSpec::Pop {
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
            },
        ),
        "line4-dp" => (
            TeInstance::all_pairs(line(4, 10.0), 2).unwrap(),
            HeuristicSpec::DemandPinning { threshold: 5.0 },
        ),
        other => panic!("unknown model {other}"),
    };
    build_adversarial_model(&inst, &spec, &ConstrainedSet::unconstrained(), &FinderConfig::default())
        .unwrap()
        .model
}

struct Cell {
    model: String,
    engine: &'static str,
    threads: usize,
    factor: FactorBackend,
    secs: f64,
    sol: MilpSolution,
    /// Factor-core counters for the LAST repetition (per-rep registry):
    /// simplex pivots, rank-one basis updates, and refactorizations.
    pivots: u64,
    basis_updates: u64,
    refactors: u64,
}

fn run_cell(
    model_name: &str,
    model: &Model,
    engine: &'static str,
    threads: usize,
    factor: FactorBackend,
    reps: usize,
) -> Cell {
    let parallel = match engine {
        "serial" => ParallelMode::Serial,
        "deterministic" => ParallelMode::Deterministic,
        _ => unreachable!(),
    };
    // Best-of-N wall clock to damp scheduler noise; the certified result
    // is identical across repetitions for the deterministic engines. Each
    // repetition gets a fresh registry so the factor counters reported
    // for the cell describe exactly one solve.
    let mut best_secs = f64::INFINITY;
    let mut last = None;
    let mut counts = (0u64, 0u64, 0u64);
    for _ in 0..reps {
        let registry = Registry::new();
        let cfg = MilpConfig {
            threads,
            parallel,
            factor,
            metrics: MilpMetrics::register(&registry),
            ..MilpConfig::default()
        };
        let t0 = Instant::now();
        let sol = solve(model, &cfg).expect("solve failed");
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
        counts = (
            cfg.metrics.lp.pivots.get(),
            cfg.metrics.lp.updates.get(),
            cfg.metrics.lp.refactors.get(),
        );
        last = Some(sol);
    }
    Cell {
        model: model_name.to_string(),
        engine,
        threads,
        factor,
        secs: best_secs,
        sol: last.unwrap(),
        pivots: counts.0,
        basis_updates: counts.1,
        refactors: counts.2,
    }
}

/// Disabled-recorder overhead on the bench workload (DESIGN.md §15.4).
///
/// With observability off, every instrumentation site still executes a
/// no-op handle call (`Option<Arc>` = `None` check). Two measurements
/// bound its cost on the fig1-dp serial cell:
///
/// * `disabled_overhead_pct` — per-call cost of a disabled counter
///   (amortized over 2^27 calls) times the number of instrumented
///   operations one bench solve performs, as a fraction of that solve's
///   wall clock. This is the honest bound: the A/B below cannot isolate
///   sub-noise effects.
/// * `enabled_delta_pct` — direct A/B of registered (live atomics)
///   versus disabled handles on the same solve; noisy at small scales
///   and reported as measured (may be negative).
struct ObsOverhead {
    ns_per_disabled_call: f64,
    instrumented_ops_per_solve: u64,
    solve_secs: f64,
    disabled_overhead_pct: f64,
    enabled_delta_pct: f64,
}

fn measure_obs_overhead(reps: usize) -> ObsOverhead {
    let model = model_for("fig1-dp");
    let reps = reps.max(3);
    let disabled_cfg = MilpConfig {
        threads: 1,
        parallel: ParallelMode::Serial,
        ..MilpConfig::default()
    };
    let registry = Registry::new();
    let enabled_cfg = MilpConfig {
        threads: 1,
        parallel: ParallelMode::Serial,
        metrics: MilpMetrics::register(&registry),
        ..MilpConfig::default()
    };
    let mut disabled_secs = f64::INFINITY;
    let mut enabled_secs = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(solve(&model, &disabled_cfg).expect("solve failed"));
        disabled_secs = disabled_secs.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(solve(&model, &enabled_cfg).expect("solve failed"));
        enabled_secs = enabled_secs.min(t0.elapsed().as_secs_f64());
    }

    // Per-call cost of a disabled handle.
    let noop = Counter::disabled();
    const CALLS: u64 = 1 << 27;
    let t0 = Instant::now();
    for _ in 0..CALLS {
        black_box(&noop).inc();
    }
    let ns_per_disabled_call = t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64;

    // The enabled runs filled the shared counters: their totals over
    // `reps` solves count exactly the instrumentation sites the solver
    // hit, so totals/reps = instrumented ops per bench solve.
    let m = &enabled_cfg.metrics;
    let total_ops = m.nodes.get()
        + m.waves.get()
        + m.incumbents.get()
        + m.lp.pivots.get()
        + m.lp.refactors.get()
        + m.lp.warm_solves.get()
        + m.lp.cold_solves.get();
    let instrumented_ops_per_solve = total_ops / reps as u64;

    ObsOverhead {
        ns_per_disabled_call,
        instrumented_ops_per_solve,
        solve_secs: disabled_secs,
        disabled_overhead_pct: instrumented_ops_per_solve as f64 * ns_per_disabled_call
            / (disabled_secs * 1e9)
            * 100.0,
        enabled_delta_pct: (enabled_secs - disabled_secs) / disabled_secs * 100.0,
    }
}

fn json_escape_free(s: &str) -> &str {
    // Every string this emitter writes is a plain identifier.
    s
}

fn main() {
    let reps = if quick_mode() { 1 } else { 3 };
    let hardware_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let models = ["fig1-dp", "fig1-pop", "line4-dp"];
    let backends = [FactorBackend::Dense, FactorBackend::SparseLU];
    let mut cells: Vec<Cell> = Vec::new();
    for name in models {
        let model = model_for(name);
        for factor in backends {
            cells.push(run_cell(name, &model, "serial", 1, factor, reps));
            for threads in [1usize, 2, 4, 8] {
                cells.push(run_cell(name, &model, "deterministic", threads, factor, reps));
            }
        }
    }
    let obs = measure_obs_overhead(reps);

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"bnb\",");
    let _ = writeln!(out, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(
        out,
        "  \"obs_overhead\": {{\"ns_per_disabled_call\": {:.4}, \
         \"instrumented_ops_per_solve\": {}, \"solve_secs\": {:.6}, \
         \"disabled_overhead_pct\": {:.4}, \"enabled_delta_pct\": {:.3}}},",
        obs.ns_per_disabled_call,
        obs.instrumented_ops_per_solve,
        obs.solve_secs,
        obs.disabled_overhead_pct,
        obs.enabled_delta_pct,
    );
    let _ = writeln!(
        out,
        "  \"note\": \"speedups are wall-clock vs the serial engine on the same model; \
         only meaningful when hardware_threads exceeds the thread count\","
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let serial_secs = cells
            .iter()
            .find(|s| s.model == c.model && s.engine == "serial" && s.factor == c.factor)
            .map_or(f64::NAN, |s| s.secs);
        let stats = &c.sol.lp_stats;
        let _ = write!(
            out,
            "    {{\"model\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \
             \"factor\": \"{}\", \
             \"secs\": {:.6}, \"speedup_vs_serial\": {:.3}, \"nodes\": {}, \
             \"objective\": {:.9}, \"best_bound\": {:.9}, \
             \"warm_solves\": {}, \"cold_solves\": {}, \
             \"mean_warm_iters\": {}, \"mean_cold_iters\": {}, \
             \"pivots\": {}, \"basis_updates\": {}, \"refactors\": {}}}",
            json_escape_free(&c.model),
            c.engine,
            c.threads,
            c.factor.name(),
            c.secs,
            serial_secs / c.secs,
            c.sol.nodes,
            c.sol.objective,
            c.sol.best_bound,
            stats.warm_solves,
            stats.cold_solves,
            stats
                .mean_warm_iterations()
                .map_or("null".to_string(), |v| format!("{v:.3}")),
            stats
                .mean_cold_iterations()
                .map_or("null".to_string(), |v| format!("{v:.3}")),
            c.pivots,
            c.basis_updates,
            c.refactors,
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");

    std::fs::create_dir_all("target/figures").expect("mkdir target/figures");
    let path = "target/figures/BENCH_bnb.json";
    std::fs::write(path, &out).expect("write BENCH_bnb.json");

    // Human-readable summary.
    println!("branch-and-bound engine benchmark ({hardware_threads} hardware threads)\n");
    println!(
        "  {:<10} {:<15} {:>7} {:<7} {:>9} {:>8} {:>7} {:>8} {:>9}",
        "model", "engine", "threads", "factor", "secs", "speedup", "nodes", "updates", "refactors"
    );
    for c in &cells {
        let serial_secs = cells
            .iter()
            .find(|s| s.model == c.model && s.engine == "serial" && s.factor == c.factor)
            .map_or(f64::NAN, |s| s.secs);
        println!(
            "  {:<10} {:<15} {:>7} {:<7} {:>9.4} {:>8.2} {:>7} {:>8} {:>9}",
            c.model,
            c.engine,
            c.threads,
            c.factor.name(),
            c.secs,
            serial_secs / c.secs,
            c.sol.nodes,
            c.basis_updates,
            c.refactors,
        );
    }
    println!(
        "\nobs overhead (fig1-dp serial): disabled handles {:.3} ns/call x {} ops \
         = {:.4}% of the {:.4}s solve; enabled-vs-disabled A/B delta {:+.2}%",
        obs.ns_per_disabled_call,
        obs.instrumented_ops_per_solve,
        obs.disabled_overhead_pct,
        obs.solve_secs,
        obs.enabled_delta_pct,
    );
    println!("\nwrote {path}");
}
