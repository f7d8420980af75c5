//! Pivot-path golden test: pins the exact search the simplex makes on a
//! fixed corpus, so a kernel change that silently alters which pivots are
//! taken fails here even when every answer stays within tolerance.
//!
//! Each case pins, under both factorization backends, the cold solve's
//! pivot count, basis-update count and objective bits, then the same
//! three values after a fixed 10-step bound-change warm walk (the counts
//! are cumulative over the walk; the objective is the last re-solve's).
//! The constants were captured from the kernel before the ordered
//! Markowitz shortlist and the row-wise pivot row, which must repeat its
//! pivots bit for bit. On a mismatch the test prints the whole table as
//! it now computes it.

mod common;

use common::{synth_max_flow, transportation};
use metaopt_lp::{FactorBackend, LpProblem, Simplex, SimplexConfig, VarId};

/// `(iterations, basis_updates, objective.to_bits())` after one stage.
type Stage = (usize, usize, u64);

/// `(case, backend, [cold, walk])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, [Stage; 2])] = &[
    ("transportation-3x4-s1", "dense", [(11, 11, 0x405d111111111110), (22, 22, 0x7ff8000000000000)]),
    ("transportation-3x4-s1", "sparse", [(11, 11, 0x405d111111111110), (22, 22, 0x7ff8000000000000)]),
    ("transportation-5x5-s2", "dense", [(25, 25, 0x40580ccccccccccc), (44, 44, 0x4065dfffffffffff)]),
    ("transportation-5x5-s2", "sparse", [(25, 25, 0x40580ccccccccccc), (44, 44, 0x4065dfffffffffff)]),
    ("transportation-6x8-s3", "dense", [(40, 40, 0x4059000000000002), (51, 51, 0x405e222222222225)]),
    ("transportation-6x8-s3", "sparse", [(40, 40, 0x4059000000000000), (91, 90, 0x405e000000000001)]),
    ("transportation-10x10-s4", "dense", [(77, 77, 0x4059f33333333332), (161, 160, 0x405b6ccccccccccd)]),
    ("transportation-10x10-s4", "sparse", [(77, 77, 0x4059f33333333332), (161, 160, 0x405b6ccccccccccd)]),
    ("synth-20-p50-s3", "dense", [(69, 69, 0xc059400000000002), (93, 93, 0xc058d9999999999b)]),
    ("synth-20-p50-s3", "sparse", [(69, 69, 0xc059400000000001), (78, 78, 0xc05906666666666a)]),
    ("synth-60-p150-s42", "dense", [(320, 320, 0xc06d99999999999d), (389, 389, 0xc06d266666666667)]),
    ("synth-60-p150-s42", "sparse", [(311, 311, 0xc06d99999999999e), (376, 376, 0xc06c9b3333333335)]),
    ("synth-100-p300-s7", "dense", [(826, 826, 0xc079f599999999a1), (997, 997, 0xc0797fa5235daf3d)]),
    ("synth-100-p300-s7", "sparse", [(777, 777, 0xc079f59999999999), (885, 885, 0xc079cfd075075079)]),
    ("fig1-max-flow", "dense", [(4, 4, 0xc069000000000000), (11, 11, 0xc039000000000000)]),
    ("fig1-max-flow", "sparse", [(4, 4, 0xc069000000000000), (11, 11, 0xc039000000000000)]),
];

fn corpus() -> Vec<(String, LpProblem)> {
    let mut cases = Vec::new();
    for (m, n, seed) in [(3, 4, 1), (5, 5, 2), (6, 8, 3), (10, 10, 4)] {
        cases.push((
            format!("transportation-{m}x{n}-s{seed}"),
            transportation(m, n, seed),
        ));
    }
    for (nodes, pairs, seed) in [(20usize, 50usize, 3u64), (60, 150, 42), (100, 300, 7)] {
        cases.push((
            format!("synth-{nodes}-p{pairs}-s{seed}"),
            synth_max_flow(nodes, pairs, seed),
        ));
    }
    let (topo, [n1, n2, n3]) = metaopt_topology::synth::figure1_triangle(100.0);
    let inst =
        metaopt_te::instance::TeInstance::with_pairs(topo, vec![(n1, n3), (n1, n2), (n2, n3)], 2)
            .expect("fig-1 instance");
    let (lp, _) =
        metaopt_te::flow::opt_max_flow_lp(&inst, &[50.0, 100.0, 100.0]).expect("fig-1 lp");
    cases.push(("fig1-max-flow".into(), lp));
    cases
}

/// Cold solve, then ten seeded bound changes on variables the last
/// solution uses (fix to the lower bound, cap halfway between the lower
/// bound and the current value, restore the original box), each followed
/// by a warm re-solve.
fn run(p: &LpProblem, backend: FactorBackend, seed: u64) -> [Stage; 2] {
    let cfg = SimplexConfig {
        backend,
        ..SimplexConfig::default()
    };
    let mut sx = Simplex::with_config(p, cfg);
    let mut sol = sx.solve().expect("cold solve");
    let stage =
        |sx: &Simplex, objective: f64| (sx.iterations(), sx.basis_updates(), objective.to_bits());
    let cold = stage(&sx, sol.objective);
    let n = p.n_vars();
    let original: Vec<(f64, f64)> = (0..n).map(|j| sx.var_bounds(VarId(j))).collect();
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for _ in 0..10 {
        let used: Vec<usize> = (0..n).filter(|&j| sol.x[j] > original[j].0).collect();
        let j = if used.is_empty() {
            (next() % n as u64) as usize
        } else {
            used[(next() % used.len() as u64) as usize]
        };
        let (lo, hi) = original[j];
        let (lo, hi) = match next() % 3 {
            0 => (lo, lo),
            1 => (lo, lo + 0.5 * (sol.x[j] - lo).max(0.0)),
            _ => (lo, hi),
        };
        sx.set_var_bounds(VarId(j), lo, hi).expect("walk bounds");
        sol = sx.resolve().expect("warm re-solve");
    }
    [cold, stage(&sx, sol.objective)]
}

#[test]
fn pivot_paths_match_golden() {
    let mut table = Vec::new();
    for (i, (name, p)) in corpus().into_iter().enumerate() {
        for backend in [FactorBackend::Dense, FactorBackend::SparseLU] {
            table.push((
                name.clone(),
                backend.name(),
                run(&p, backend, 0xC0FF_EE00 + i as u64),
            ));
        }
    }
    let listing: String = table
        .iter()
        .map(|(name, backend, [c, w])| {
            format!(
                "    (\"{name}\", \"{backend}\", [({}, {}, {:#018x}), ({}, {}, {:#018x})]),\n",
                c.0, c.1, c.2, w.0, w.1, w.2
            )
        })
        .collect();
    let matches = table.len() == GOLDEN.len()
        && table
            .iter()
            .zip(GOLDEN)
            .all(|((name, backend, stages), (gn, gb, gs))| {
                name == gn && backend == gb && stages == gs
            });
    assert!(
        matches,
        "pivot paths moved; the kernel now computes:\n{listing}"
    );
}
