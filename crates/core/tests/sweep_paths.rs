//! Golden §3.3 sweeps. Each case runs the binary sweep four ways: the
//! one-call `sweep_max_gap`, and `sweep_tick` driven by hand at slices of
//! 7 and 64 nodes and at the per-probe node cap. Each run pins the
//! certified threshold, the probe count, the witness's demands and
//! verified gap bit for bit, the branch-and-bound nodes and LP pivots
//! read from a registered `MilpMetrics`, and, for ticks, the tick count
//! and `SweepState::nodes`.
//!
//! The cases set no wall-clock limit, no stall window and no whole-run
//! budget, so only the slice's node window and the per-probe node cap can
//! end a probe's search. One case (line5) sets a small node cap that its
//! probes above the achievable gap run into, so those probes are recorded
//! as "no witness" at the cap.
//!
//! Every search runs branch-and-bound on one thread over the sparse LU
//! backend, whatever `METAOPT_THREADS` and `METAOPT_FACTOR` say.

use metaopt_core::{
    sweep_max_gap, sweep_tick, ConstrainedSet, FactorBackend, FinderConfig, HeuristicSpec, PopMode,
    SliceBudget, SweepResult, SweepState, SweepTick,
};
use metaopt_milp::MilpMetrics;
use metaopt_obs::Registry;
use metaopt_te::{pop::random_partitions, TeInstance};
use metaopt_topology::synth;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One driver's pinned outcome.
struct Pin {
    threshold: Option<f64>,
    probes: usize,
    verified_gap: Option<f64>,
    demands: &'static [f64],
    /// Branch-and-bound nodes and LP pivots, from `MilpMetrics`.
    nodes: u64,
    pivots: u64,
    /// Ticks taken and `SweepState::nodes` (`None` for the one-call
    /// driver).
    ticks: Option<(usize, usize)>,
}

struct Golden {
    name: &'static str,
    /// `sweep_max_gap`, then `sweep_tick` at slices 7, 64 and the cap.
    runs: [Pin; 4],
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden {
        name: "fig1",
        runs: [
            Pin { threshold: Some(50.0), probes: 7, verified_gap: Some(50.0), demands: &[50.0, 100.0, 100.0], nodes: 125, pivots: 309, ticks: None },
            Pin { threshold: Some(50.0), probes: 7, verified_gap: Some(50.0), demands: &[50.0, 100.0, 100.0], nodes: 125, pivots: 1399, ticks: Some((22, 125)) },
            Pin { threshold: Some(50.0), probes: 7, verified_gap: Some(50.0), demands: &[50.0, 100.0, 100.0], nodes: 125, pivots: 309, ticks: Some((7, 125)) },
            Pin { threshold: Some(50.0), probes: 7, verified_gap: Some(50.0), demands: &[50.0, 100.0, 100.0], nodes: 125, pivots: 309, ticks: Some((7, 125)) },
        ],
    },
    Golden {
        name: "fig1pop",
        runs: [
            Pin { threshold: Some(100.0), probes: 8, verified_gap: Some(100.0), demands: &[100.0, 100.0, 100.0], nodes: 234, pivots: 589, ticks: None },
            Pin { threshold: Some(100.0), probes: 8, verified_gap: Some(100.0), demands: &[100.0, 100.0, 100.0], nodes: 280, pivots: 5862, ticks: Some((43, 280)) },
            Pin { threshold: Some(100.0), probes: 8, verified_gap: Some(100.0), demands: &[100.0, 100.0, 100.0], nodes: 234, pivots: 589, ticks: Some((8, 234)) },
            Pin { threshold: Some(100.0), probes: 8, verified_gap: Some(100.0), demands: &[100.0, 100.0, 100.0], nodes: 234, pivots: 589, ticks: Some((8, 234)) },
        ],
    },
    Golden {
        name: "line4",
        runs: [
            Pin { threshold: Some(28.5), probes: 4, verified_gap: Some(29.999999999996), demands: &[10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 5.0, 10.0, 10.0], nodes: 1167, pivots: 2627, ticks: None },
            Pin { threshold: Some(28.5), probes: 4, verified_gap: Some(29.999999999996), demands: &[10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 5.0, 10.0, 10.0], nodes: 1365, pivots: 85718, ticks: Some((198, 1365)) },
            Pin { threshold: Some(28.5), probes: 4, verified_gap: Some(29.999999999996), demands: &[10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 5.0, 10.0, 10.0], nodes: 1493, pivots: 51097, ticks: Some((27, 1493)) },
            Pin { threshold: Some(28.5), probes: 4, verified_gap: Some(29.999999999996), demands: &[10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 5.0, 10.0, 10.0], nodes: 1167, pivots: 2627, ticks: Some((4, 1167)) },
        ],
    },
    Golden {
        name: "fig1quant",
        runs: [
            Pin { threshold: Some(50.0), probes: 7, verified_gap: Some(50.0), demands: &[50.0, 100.0, 100.0], nodes: 145, pivots: 443, ticks: None },
            Pin { threshold: Some(50.0), probes: 7, verified_gap: Some(50.0), demands: &[50.0, 100.0, 100.0], nodes: 185, pivots: 3590, ticks: Some((32, 185)) },
            Pin { threshold: Some(50.0), probes: 7, verified_gap: Some(50.0), demands: &[50.0, 100.0, 100.0], nodes: 145, pivots: 443, ticks: Some((7, 145)) },
            Pin { threshold: Some(50.0), probes: 7, verified_gap: Some(50.0), demands: &[50.0, 100.0, 100.0], nodes: 145, pivots: 443, ticks: Some((7, 145)) },
        ],
    },
    Golden {
        name: "line5cap",
        runs: [
            Pin { threshold: Some(50.0), probes: 5, verified_gap: Some(49.999999999994), demands: &[10.0, 10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0], nodes: 80, pivots: 545, ticks: None },
            Pin { threshold: Some(50.0), probes: 5, verified_gap: Some(49.999999999994), demands: &[10.0, 10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0], nodes: 80, pivots: 4428, ticks: Some((15, 80)) },
            Pin { threshold: Some(50.0), probes: 5, verified_gap: Some(49.999999999994), demands: &[10.0, 10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0], nodes: 80, pivots: 545, ticks: Some((5, 80)) },
            Pin { threshold: Some(50.0), probes: 5, verified_gap: Some(49.999999999994), demands: &[10.0, 10.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0, 5.0, 10.0, 10.0, 10.0], nodes: 80, pivots: 545, ticks: Some((5, 80)) },
        ],
    },
];

/// A sweep case: instance, heuristic, constrained set, range
/// `(lo, hi, resolution)` and per-probe node cap (0 = none).
struct Case {
    inst: TeInstance,
    spec: HeuristicSpec,
    constraints: ConstrainedSet,
    range: (f64, f64, f64),
    cap: usize,
}

fn fig1() -> TeInstance {
    let (t, [n1, n2, n3]) = synth::figure1_triangle(100.0);
    TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
}

fn dp(threshold: f64) -> HeuristicSpec {
    HeuristicSpec::DemandPinning { threshold }
}

fn case(name: &str) -> Case {
    let free = ConstrainedSet::unconstrained();
    let (inst, spec, constraints, range, cap) = match name {
        "fig1" => (fig1(), dp(50.0), free, (0.0, 100.0, 2.0), 0),
        "fig1pop" => {
            let inst = fig1();
            let mut rng = StdRng::seed_from_u64(1);
            let partitions = random_partitions(inst.n_pairs(), 2, 3, &mut rng);
            let spec = HeuristicSpec::Pop {
                partitions,
                mode: PopMode::Average,
            };
            (inst, spec, free, (0.0, 200.0, 2.0), 0)
        }
        "line4" => {
            let inst = TeInstance::all_pairs(synth::line(4, 10.0), 2).unwrap();
            (inst, dp(5.0), free, (16.0, 36.0, 4.0), 0)
        }
        "fig1quant" => {
            let quantized = free.quantized(vec![0.0, 50.0, 100.0]);
            (fig1(), dp(50.0), quantized, (0.0, 100.0, 2.0), 0)
        }
        "line5cap" => {
            let inst = TeInstance::all_pairs(synth::line(5, 10.0), 2).unwrap();
            (inst, dp(5.0), free, (0.0, 80.0, 5.0), 40)
        }
        _ => unreachable!("unknown case {name}"),
    };
    Case {
        inst,
        spec,
        constraints,
        range,
        cap,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Runs `c` through one driver: `None` = `sweep_max_gap`, `Some(slice)`
/// = `sweep_tick` by hand. Returns the result, the metrics and the tick
/// pin.
fn run(c: &Case, slice: Option<usize>) -> (SweepResult, MilpMetrics, Option<(usize, usize)>) {
    let mut cfg = FinderConfig::default();
    cfg.milp.threads = 1;
    cfg.milp.factor = FactorBackend::SparseLU;
    if c.cap > 0 {
        cfg.milp.max_nodes = c.cap;
    }
    let metrics = MilpMetrics::register(&Registry::new());
    cfg.milp.metrics = metrics.clone();
    let (lo, hi, res) = c.range;
    let Some(slice) = slice else {
        let r = sweep_max_gap(&c.inst, &c.spec, &c.constraints, &cfg, lo, hi, res).unwrap();
        return (r, metrics, None);
    };
    let slice = SliceBudget::nodes(slice);
    let mut state = SweepState::new(lo, hi, res).unwrap();
    let mut ticks = 0usize;
    loop {
        ticks += 1;
        assert!(ticks < 100_000, "ticked sweep failed to converge");
        match sweep_tick(&c.inst, &c.spec, &c.constraints, &cfg, state, &slice).unwrap() {
            SweepTick::Done(s) => return (s.result(), metrics, Some((ticks, s.nodes))),
            SweepTick::Paused(s) => state = s,
        }
    }
}

fn check(name: &str) {
    let golden = GOLDEN.iter().find(|g| g.name == name).unwrap();
    let c = case(name);
    let cap = if c.cap > 0 { c.cap } else { usize::MAX };
    let drivers = [None, Some(7), Some(64), Some(cap)];
    for (slice, pin) in drivers.into_iter().zip(&golden.runs) {
        let (r, metrics, ticks) = run(&c, slice);
        let verified_gap = r.witness.as_ref().map(|w| w.verified_gap);
        let demands = r.witness.as_ref().map_or(&[][..], |w| &w.demands[..]);
        let now = format!(
            "{name} at slice {slice:?}: Pin {{ threshold: {:?}, probes: {}, verified_gap: {verified_gap:?}, demands: &{demands:?}, nodes: {}, pivots: {}, ticks: {ticks:?} }}",
            r.threshold,
            r.probes,
            metrics.nodes.get(),
            metrics.lp.pivots.get(),
        );
        assert_eq!(opt_bits(r.threshold), opt_bits(pin.threshold), "{now}");
        assert_eq!(r.probes, pin.probes, "{now}");
        assert_eq!(opt_bits(verified_gap), opt_bits(pin.verified_gap), "{now}");
        assert_eq!(bits(demands), bits(pin.demands), "{now}");
        assert_eq!(metrics.nodes.get(), pin.nodes, "{now}");
        assert_eq!(metrics.lp.pivots.get(), pin.pivots, "{now}");
        assert_eq!(ticks, pin.ticks, "{now}");
    }
}

#[test]
fn fig1_dp_sweep() {
    check("fig1");
}

#[test]
fn fig1_pop_sweep() {
    check("fig1pop");
}

#[test]
fn line4_dp_sweep() {
    check("line4");
}

#[test]
fn fig1_quantized_dp_sweep() {
    check("fig1quant");
}

#[test]
fn line5_dp_sweep_at_its_node_cap() {
    check("line5cap");
}
