//! Basis factorization backends: dense inverse and sparse LU.
//!
//! The simplex kernel needs four operations on the basis matrix `B`
//! (the `m` columns currently basic):
//!
//! * FTRAN — solve `B w = a_j` (entering column in basis coordinates),
//! * BTRAN — solve `Bᵀ y = c_B` (duals / pivot rows),
//! * a rank-one **update** after a pivot replaces one basis column,
//! * a from-scratch **refactorization**.
//!
//! Two interchangeable engines implement them behind [`Factors`]:
//!
//! * [`FactorBackend::Dense`] — the original explicit `m × m` inverse,
//!   rebuilt by Gauss–Jordan elimination with partial pivoting and
//!   updated in place by elementary row operations. O(m²) per solve and
//!   per update, O(m³) per refactorization. Kept alive as the
//!   differential-test oracle and for tiny problems.
//! * [`FactorBackend::SparseLU`] — a sparse LU factorization with
//!   Markowitz-threshold pivoting (fill-reducing pivot order constrained
//!   by a relative-magnitude threshold for stability), compressed
//!   column/row storage for the `L` and `U` factors, and product-form
//!   **eta-file** rank-one updates: each pivot appends one elementary
//!   eta matrix `E⁻¹` with `B_k⁻¹ = E_k⁻¹ ⋯ E_1⁻¹ (LU)⁻¹`, so FTRAN
//!   applies the eta file after the triangular solves and BTRAN applies
//!   the transposed etas (newest first) before them. O(nnz) per solve
//!   and per update. A refactorization costs O(nnz·log m): the
//!   Markowitz shortlist is read off a set of the active columns ordered
//!   by `(count, position)` rather than found by scanning all `m`
//!   positions at each of the `m` elimination steps.
//!
//! Both backends expose the *same* pivot-level semantics — the simplex
//! loops, the `Basis` snapshot/warm-start API, the numerical-recovery
//! ladder, and the obs counters are backend-agnostic. The solver picks
//! the backend from [`crate::SimplexConfig::backend`], which defaults to
//! the `METAOPT_FACTOR` environment variable (`sparse` when unset).
//!
//! Float-comparison audit (AN003 context): this module compares floats
//! in exactly three ways, all deliberate — `v != 0.0` sparsity guards
//! (skipping exact structural zeros is the point of sparse code and is
//! exact in IEEE arithmetic), `|piv| >= threshold` pivot admissibility
//! (a magnitude test, not an equality), and the `1e-12` absolute
//! singularity floor shared with the dense engine so both backends
//! classify the same bases as singular.

use crate::sparse::SparseMat;
use crate::{LpError, LpResult};
use metaopt_resilience::SolverFault;
use std::collections::BTreeSet;

/// Smallest pivot magnitude either backend accepts during a
/// refactorization; anything below is reported as a singular basis.
/// Shared by both engines so they agree on which bases are singular.
const ABS_PIVOT_MIN: f64 = 1e-12;

/// Markowitz threshold τ: a sparse pivot candidate must satisfy
/// `|v| ≥ τ · max|column|` so fill-reduction never picks a numerically
/// tiny pivot. The classical compromise value.
const MARKOWITZ_TAU: f64 = 0.1;

/// How many smallest-count active columns the Markowitz search scores
/// before settling (widened to every active column when none of the
/// shortlisted candidates has an admissible pivot).
const CAND_COLS: usize = 8;

/// A Markowitz shortlist rule over the active columns (`by_count` holds
/// `(count, position)` for each, `acol`/`col_done` the same columns by
/// position): fills `cand` with the [`CAND_COLS`] columns of fewest
/// entries in `(count, position)` order, or returns `Err(p)` for the
/// lowest-positioned active column with no entries (a singular basis).
type Shortlist = fn(
    by_count: &BTreeSet<(usize, usize)>,
    acol: &[Vec<(usize, f64)>],
    col_done: &[bool],
    cand: &mut Vec<usize>,
) -> Result<(), usize>;

/// The production shortlist: the first [`CAND_COLS`] entries of the
/// ordered set, O(log m) per step. An empty active column sorts first.
fn ordered_shortlist(
    by_count: &BTreeSet<(usize, usize)>,
    _acol: &[Vec<(usize, f64)>],
    _col_done: &[bool],
    cand: &mut Vec<usize>,
) -> Result<(), usize> {
    if let Some(&(0, p)) = by_count.first() {
        return Err(p);
    }
    cand.clear();
    cand.extend(by_count.iter().take(CAND_COLS).map(|&(_, p)| p));
    Ok(())
}

/// Eta-file growth bound: once the update file holds this many etas the
/// factorization asks for an early refactorization regardless of the
/// solver's pivot-count cadence (a long eta file makes every FTRAN/BTRAN
/// pay for all past pivots; refactoring is O(nnz·log m) and resets it).
const MAX_ETAS: usize = 64;

/// Which basis-factorization engine a [`crate::Simplex`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorBackend {
    /// Explicit dense `m × m` basis inverse (the original engine; exact
    /// oracle for differential tests, fine for small problems).
    Dense,
    /// Sparse LU with Markowitz-threshold pivoting and product-form
    /// eta updates (the default; O(nnz) solve work, O(nnz·log m)
    /// factor work).
    #[default]
    SparseLU,
}

impl FactorBackend {
    /// Parses a backend name as accepted by `METAOPT_FACTOR`.
    pub fn parse(s: &str) -> Option<FactorBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dense" => Some(FactorBackend::Dense),
            "sparse" | "sparselu" | "sparse_lu" => Some(FactorBackend::SparseLU),
            _ => None,
        }
    }

    /// Resolves the backend from the `METAOPT_FACTOR` environment
    /// variable (`dense` or `sparse`); unset or unrecognized values fall
    /// back to [`FactorBackend::SparseLU`], mirroring how
    /// `METAOPT_THREADS` resolves the parallel mode.
    pub fn from_env() -> FactorBackend {
        std::env::var("METAOPT_FACTOR")
            .ok()
            .as_deref()
            .and_then(FactorBackend::parse)
            .unwrap_or_default()
    }

    /// Stable lowercase name (`dense` / `sparse`), the same vocabulary
    /// `METAOPT_FACTOR` accepts and benchmarks report.
    pub fn name(self) -> &'static str {
        match self {
            FactorBackend::Dense => "dense",
            FactorBackend::SparseLU => "sparse",
        }
    }
}

impl std::fmt::Display for FactorBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn singular(msg: String) -> LpError {
    LpError::Fault(SolverFault::BasisSingular(msg))
}

// ----------------------------------------------------------------------
// Dense engine
// ----------------------------------------------------------------------

/// Explicit dense basis inverse, row-major `m × m`.
#[derive(Debug, Clone)]
pub(crate) struct DenseInverse {
    m: usize,
    binv: Vec<f64>,
}

impl DenseInverse {
    /// Gauss–Jordan elimination with partial pivoting over the current
    /// basis columns.
    fn factorize(cols: &SparseMat, basis: &[usize]) -> LpResult<DenseInverse> {
        let m = basis.len();
        // Dense basis matrix, row-major.
        let mut b = vec![0.0; m * m];
        for (pos, &j) in basis.iter().enumerate() {
            for (r, v) in cols.col(j) {
                b[r * m + pos] = v;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot.
            let mut piv_row = col;
            let mut piv_val = b[col * m + col].abs();
            for r in (col + 1)..m {
                let v = b[r * m + col].abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = r;
                }
            }
            if piv_val < ABS_PIVOT_MIN {
                return Err(singular(format!(
                    "singular basis during refactorization (column {col})"
                )));
            }
            if piv_row != col {
                for k in 0..m {
                    b.swap(col * m + k, piv_row * m + k);
                    inv.swap(col * m + k, piv_row * m + k);
                }
            }
            let d = b[col * m + col];
            let dinv = 1.0 / d;
            for k in 0..m {
                b[col * m + k] *= dinv;
                inv[col * m + k] *= dinv;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = b[r * m + col];
                if f != 0.0 {
                    for k in 0..m {
                        b[r * m + k] -= f * b[col * m + k];
                        inv[r * m + k] -= f * inv[col * m + k];
                    }
                }
            }
        }
        Ok(DenseInverse { m, binv: inv })
    }

    fn ftran_dense(&self, rhs: &[f64], out: &mut [f64]) {
        let m = self.m;
        for (pos, o) in out.iter_mut().enumerate().take(m) {
            let row = &self.binv[pos * m..(pos + 1) * m];
            let mut acc = 0.0;
            for (rv, bv) in rhs.iter().zip(row) {
                acc += rv * bv;
            }
            *o = acc;
        }
    }

    fn ftran_col(&self, cols: &SparseMat, j: usize, out: &mut [f64]) {
        let m = self.m;
        out.iter_mut().for_each(|v| *v = 0.0);
        for (r, v) in cols.col(j) {
            // Add v * column r of binv.
            for (i, o) in out.iter_mut().enumerate().take(m) {
                *o += v * self.binv[i * m + r];
            }
        }
    }

    fn btran(&self, c: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (pos, &cv) in c.iter().enumerate().take(m) {
            if cv != 0.0 {
                let row = &self.binv[pos * m..(pos + 1) * m];
                for (yk, bv) in y.iter_mut().zip(row) {
                    *yk += cv * bv;
                }
            }
        }
        y
    }

    fn btran_unit(&self, pos: usize) -> Vec<f64> {
        self.binv[pos * self.m..(pos + 1) * self.m].to_vec()
    }

    /// Elementary row operations folding `B⁻¹ ← E⁻¹ B⁻¹` for the pivot
    /// at basis position `pos` with FTRAN column `w`.
    fn update(&mut self, pos: usize, w: &[f64]) {
        let m = self.m;
        let piv = w[pos];
        debug_assert!(piv.abs() > 1e-13);
        let inv_piv = 1.0 / piv;
        // Scale pivot row.
        {
            let row = &mut self.binv[pos * m..(pos + 1) * m];
            for v in row.iter_mut() {
                *v *= inv_piv;
            }
        }
        // Eliminate the entering column from every other row.
        for i in 0..m {
            if i == pos {
                continue;
            }
            let f = w[i];
            if f != 0.0 {
                let (head, tail) = self.binv.split_at_mut(pos.max(i) * m);
                let (src, dst) = if pos < i {
                    (&head[pos * m..(pos + 1) * m], &mut tail[0..m])
                } else {
                    let dst = &mut head[i * m..(i + 1) * m];
                    (&tail[0..m], dst)
                };
                for k in 0..m {
                    dst[k] -= f * src[k];
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Sparse LU engine
// ----------------------------------------------------------------------

/// One product-form eta matrix `E⁻¹ = I + (η − e_pos) e_posᵀ`, recorded
/// when the pivot at basis position `pos` replaced a basis column with
/// FTRAN column `w`: `η_pos = 1/w_pos`, `η_i = −w_i/w_pos`.
#[derive(Debug, Clone)]
struct Eta {
    pos: usize,
    diag: f64,
    /// Off-pivot `(position, η_i)` coefficients.
    entries: Vec<(usize, f64)>,
}

impl Eta {
    /// `x ← E⁻¹ x` (FTRAN direction, position space).
    fn apply(&self, x: &mut [f64]) {
        let t = x[self.pos];
        if t != 0.0 {
            x[self.pos] = self.diag * t;
            for &(i, v) in &self.entries {
                x[i] += v * t;
            }
        }
    }

    /// `x ← E⁻ᵀ x` (BTRAN direction): only the pivot component changes,
    /// to `ηᵀ x`.
    fn apply_transposed(&self, x: &mut [f64]) {
        let mut acc = self.diag * x[self.pos];
        for &(i, v) in &self.entries {
            acc += v * x[i];
        }
        x[self.pos] = acc;
    }
}

/// Sparse LU factors of the basis in elimination order.
///
/// Step `k` of the elimination pivoted on original row `row_of_step[k]`
/// and basis position `pos_of_step[k]`. The `L` factor is stored as
/// per-step compressed columns of elimination multipliers over original
/// rows; the `U` factor as per-step compressed rows over basis
/// positions plus the pivot diagonal. Post-factorization pivots append
/// to the eta file instead of touching `L`/`U`.
#[derive(Debug, Clone)]
pub(crate) struct SparseLu {
    m: usize,
    row_of_step: Vec<usize>,
    pos_of_step: Vec<usize>,
    /// L columns (elimination multipliers), flattened: step `k` owns
    /// `l_row/l_val[l_ptr[k]..l_ptr[k+1]]`.
    l_ptr: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<f64>,
    /// U rows (off-diagonal), flattened over basis positions.
    u_diag: Vec<f64>,
    u_ptr: Vec<usize>,
    u_pos: Vec<usize>,
    u_val: Vec<f64>,
    /// Product-form update file, chronological order.
    etas: Vec<Eta>,
    eta_nnz: usize,
    lu_nnz: usize,
}

impl SparseLu {
    /// Right-looking sparse LU with Markowitz-threshold pivoting.
    ///
    /// At each step the pivot minimizes the Markowitz fill bound
    /// `(row_count − 1)(col_count − 1)` over the [`CAND_COLS`]
    /// smallest active columns, restricted to entries passing the
    /// `|v| ≥ τ·colmax` stability threshold; the search widens to every
    /// active column before declaring the basis singular. The shortlist
    /// comes from the active columns ordered by `(count, position)`,
    /// kept current as columns are eliminated or change count.
    fn factorize(cols: &SparseMat, basis: &[usize]) -> LpResult<SparseLu> {
        Self::factorize_with(cols, basis, ordered_shortlist)
    }

    /// [`SparseLu::factorize`] with the shortlist rule passed in, so the
    /// tests can run the elimination under the reference linear scan.
    fn factorize_with(
        cols: &SparseMat,
        basis: &[usize],
        shortlist: Shortlist,
    ) -> LpResult<SparseLu> {
        let m = basis.len();
        // Active submatrix, column-wise per basis position.
        let mut acol: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut row_count = vec![0usize; m];
        for &j in basis {
            let col: Vec<(usize, f64)> = cols.col(j).filter(|&(_, v)| v != 0.0).collect();
            for &(r, _) in &col {
                row_count[r] += 1;
            }
            acol.push(col);
        }
        let mut by_count: BTreeSet<(usize, usize)> = acol
            .iter()
            .enumerate()
            .map(|(p, col)| (col.len(), p))
            .collect();
        let mut cand: Vec<usize> = Vec::with_capacity(CAND_COLS);
        // Row → candidate columns incidence (append-only; may hold stale
        // positions that the per-column scan below skips).
        let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (p, col) in acol.iter().enumerate() {
            for &(r, _) in col {
                row_cols[r].push(p);
            }
        }
        let mut col_done = vec![false; m];
        let mut row_of_step = Vec::with_capacity(m);
        let mut pos_of_step = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);
        let mut l_ptr = Vec::with_capacity(m + 1);
        l_ptr.push(0usize);
        let mut l_row: Vec<usize> = Vec::new();
        let mut l_val: Vec<f64> = Vec::new();
        let mut u_ptr = Vec::with_capacity(m + 1);
        u_ptr.push(0usize);
        let mut u_pos: Vec<usize> = Vec::new();
        let mut u_val: Vec<f64> = Vec::new();
        // Scatter scratch for column elimination (epoch-stamped so it is
        // never cleared).
        let mut scratch = vec![0.0_f64; m];
        let mut stamp = vec![0usize; m];
        let mut epoch = 0usize;

        // Best admissible pivot within one column: (row, value, cost).
        let score_col = |acol: &[Vec<(usize, f64)>],
                         row_count: &[usize],
                         p: usize|
         -> Option<(usize, f64, usize)> {
            let col = &acol[p];
            let colmax = col.iter().fold(0.0_f64, |a, &(_, v)| a.max(v.abs()));
            if colmax < ABS_PIVOT_MIN {
                return None;
            }
            let threshold = (MARKOWITZ_TAU * colmax).max(ABS_PIVOT_MIN);
            let cc = col.len();
            let mut best: Option<(usize, f64, usize)> = None;
            for &(r, v) in col {
                if v.abs() < threshold {
                    continue;
                }
                let cost = (row_count[r] - 1) * (cc - 1);
                let better = match best {
                    None => true,
                    Some((_, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                };
                if better {
                    best = Some((r, v, cost));
                }
            }
            best
        };

        for _step in 0..m {
            // ---- Markowitz pivot search ----
            shortlist(&by_count, &acol, &col_done, &mut cand).map_err(|p| {
                singular(format!(
                    "singular basis during refactorization (column {p})"
                ))
            })?;
            let mut pick: Option<(usize, usize, f64, usize)> = None; // (pos, row, val, cost)
            let consider = |pick: &mut Option<(usize, usize, f64, usize)>, p: usize| {
                if let Some((r, v, cost)) = score_col(&acol, &row_count, p) {
                    let better = match *pick {
                        None => true,
                        Some((_, _, bv, bc)) => {
                            cost < bc || (cost == bc && v.abs() > bv.abs())
                        }
                    };
                    if better {
                        *pick = Some((p, r, v, cost));
                    }
                }
            };
            for &p in &cand {
                consider(&mut pick, p);
            }
            if pick.is_none() {
                // No stable pivot among the fill-minimizing candidates;
                // widen to every active column before giving up.
                for (p, &done) in col_done.iter().enumerate().take(m) {
                    if !done {
                        consider(&mut pick, p);
                    }
                }
            }
            let Some((pp, pr, piv, _)) = pick else {
                return Err(singular(
                    "singular basis during refactorization (no admissible pivot)".into(),
                ));
            };

            // ---- record the pivot: L column and released counts ----
            let mut lcol: Vec<(usize, f64)> = Vec::with_capacity(acol[pp].len() - 1);
            for &(r, v) in &acol[pp] {
                row_count[r] -= 1;
                if r != pr {
                    lcol.push((r, v / piv));
                }
            }
            for &(r, lm) in &lcol {
                l_row.push(r);
                l_val.push(lm);
            }
            l_ptr.push(l_row.len());
            by_count.remove(&(acol[pp].len(), pp));
            acol[pp].clear();
            col_done[pp] = true;
            row_of_step.push(pr);
            pos_of_step.push(pp);
            u_diag.push(piv);

            // ---- U row + Schur-complement elimination ----
            let touched_cols = std::mem::take(&mut row_cols[pr]);
            for p in touched_cols {
                if col_done[p] {
                    continue;
                }
                // Duplicate incidence entries find no pr entry the
                // second time around and fall through here.
                let Some(k) = acol[p].iter().position(|&(r, _)| r == pr) else {
                    continue;
                };
                let upv = acol[p][k].1;
                u_pos.push(p);
                u_val.push(upv);
                // acol[p] ← acol[p] − upv·lcol, dropping row pr.
                epoch += 1;
                let mut touched: Vec<usize> =
                    Vec::with_capacity(acol[p].len() + lcol.len());
                for &(r, v) in &acol[p] {
                    row_count[r] -= 1;
                    if r == pr {
                        continue;
                    }
                    scratch[r] = v;
                    stamp[r] = epoch;
                    touched.push(r);
                }
                for &(r, lm) in &lcol {
                    if stamp[r] == epoch {
                        scratch[r] -= lm * upv;
                    } else {
                        scratch[r] = -lm * upv;
                        stamp[r] = epoch;
                        touched.push(r);
                        row_cols[r].push(p); // fill-in incidence
                    }
                }
                let mut newcol = Vec::with_capacity(touched.len());
                for r in touched {
                    let v = scratch[r];
                    // Exact cancellations leave the sparsity pattern.
                    if v != 0.0 {
                        row_count[r] += 1;
                        newcol.push((r, v));
                    }
                }
                if newcol.len() != acol[p].len() {
                    by_count.remove(&(acol[p].len(), p));
                    by_count.insert((newcol.len(), p));
                }
                acol[p] = newcol;
            }
            u_ptr.push(u_pos.len());
        }

        let lu_nnz = l_row.len() + u_pos.len() + m;
        Ok(SparseLu {
            m,
            row_of_step,
            pos_of_step,
            l_ptr,
            l_row,
            l_val,
            u_diag,
            u_ptr,
            u_pos,
            u_val,
            etas: Vec::new(),
            eta_nnz: 0,
            lu_nnz,
        })
    }

    /// Triangular solves for `B w = rhs` (`rhs` in row space, `w` by
    /// basis position), then the eta file in chronological order.
    fn solve_from_scattered(&self, x: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // Forward eliminate: x ← L⁻¹ x (apply E_k in pivot order).
        for k in 0..m {
            let t = x[self.row_of_step[k]];
            if t != 0.0 {
                for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                    x[self.l_row[idx]] -= self.l_val[idx] * t;
                }
            }
        }
        // Back substitution on U (reverse pivot order).
        for k in (0..m).rev() {
            let mut acc = x[self.row_of_step[k]];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                acc -= self.u_val[idx] * out[self.u_pos[idx]];
            }
            out[self.pos_of_step[k]] = acc / self.u_diag[k];
        }
        for eta in &self.etas {
            eta.apply(out);
        }
    }

    fn ftran_dense(&self, rhs: &[f64], out: &mut [f64]) {
        let mut x = rhs.to_vec();
        self.solve_from_scattered(&mut x, out);
    }

    fn ftran_col(&self, cols: &SparseMat, j: usize, out: &mut [f64]) {
        let mut x = vec![0.0; self.m];
        for (r, v) in cols.col(j) {
            // push_col already summed duplicates; plain assignment-add
            // keeps any residual exact-zero entries harmless.
            x[r] += v;
        }
        self.solve_from_scattered(&mut x, out);
    }

    /// `Bᵀ y = c` with `c` indexed by basis position; `y` in row space.
    fn btran(&self, c: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut cw = c.to_vec();
        // Transposed eta file, newest first: Bᵀ = (LU·E₁⋯E_k)ᵀ.
        for eta in self.etas.iter().rev() {
            eta.apply_transposed(&mut cw);
        }
        // Uᵀ is lower triangular in step order: forward substitution.
        let mut y = vec![0.0; m];
        for k in 0..m {
            let v = cw[self.pos_of_step[k]] / self.u_diag[k];
            if v != 0.0 {
                for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                    cw[self.u_pos[idx]] -= self.u_val[idx] * v;
                }
            }
            y[self.row_of_step[k]] = v;
        }
        // Lᵀ: apply E_kᵀ ⋯ E_1ᵀ means visiting steps in reverse order.
        for k in (0..m).rev() {
            let mut acc = y[self.row_of_step[k]];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                acc -= self.l_val[idx] * y[self.l_row[idx]];
            }
            y[self.row_of_step[k]] = acc;
        }
        y
    }

    fn btran_unit(&self, pos: usize) -> Vec<f64> {
        let mut c = vec![0.0; self.m];
        c[pos] = 1.0;
        self.btran(&c)
    }

    /// Appends the product-form eta for a pivot at position `pos` with
    /// FTRAN column `w`.
    fn update(&mut self, pos: usize, w: &[f64]) {
        let piv = w[pos];
        debug_assert!(piv.abs() > 1e-13);
        let inv_piv = 1.0 / piv;
        let mut entries = Vec::new();
        for (i, &wi) in w.iter().enumerate().take(self.m) {
            if i != pos && wi != 0.0 {
                entries.push((i, -wi * inv_piv));
            }
        }
        self.eta_nnz += entries.len() + 1;
        self.etas.push(Eta {
            pos,
            diag: inv_piv,
            entries,
        });
    }

    /// Early-refactorization hint: the eta file has grown past the point
    /// where replaying it costs more than a fresh O(nnz·log m) factorization.
    fn wants_refactor(&self) -> bool {
        self.etas.len() >= MAX_ETAS || self.eta_nnz > 2 * (self.lu_nnz + self.m)
    }
}

// ----------------------------------------------------------------------
// Backend dispatch
// ----------------------------------------------------------------------

/// The current basis factorization, whichever engine produced it.
// The solver owns exactly one `Factors` for its whole lifetime, so the
// Dense-vs-Sparse size skew costs a few idle words, not allocation
// churn; boxing the large variant would add a pointer chase to every
// FTRAN/BTRAN instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Factors {
    Dense(DenseInverse),
    Sparse(SparseLu),
}

impl Factors {
    /// A placeholder before the first refactorization (the solver never
    /// solves through it — `start_basis`/`install_basis` factorize
    /// before any FTRAN/BTRAN).
    pub(crate) fn empty(backend: FactorBackend) -> Factors {
        match backend {
            FactorBackend::Dense => Factors::Dense(DenseInverse {
                m: 0,
                binv: Vec::new(),
            }),
            FactorBackend::SparseLU => Factors::Sparse(SparseLu {
                m: 0,
                row_of_step: Vec::new(),
                pos_of_step: Vec::new(),
                l_ptr: vec![0],
                l_row: Vec::new(),
                l_val: Vec::new(),
                u_diag: Vec::new(),
                u_ptr: vec![0],
                u_pos: Vec::new(),
                u_val: Vec::new(),
                etas: Vec::new(),
                eta_nnz: 0,
                lu_nnz: 0,
            }),
        }
    }

    /// Factorizes the basis `B = cols[basis]` from scratch.
    pub(crate) fn factorize(
        backend: FactorBackend,
        cols: &SparseMat,
        basis: &[usize],
    ) -> LpResult<Factors> {
        match backend {
            FactorBackend::Dense => DenseInverse::factorize(cols, basis).map(Factors::Dense),
            FactorBackend::SparseLU => SparseLu::factorize(cols, basis).map(Factors::Sparse),
        }
    }

    /// `w = B⁻¹ a_j` for column `j` of `cols`; `w` by basis position.
    pub(crate) fn ftran_col(&self, cols: &SparseMat, j: usize, out: &mut [f64]) {
        match self {
            Factors::Dense(d) => d.ftran_col(cols, j, out),
            Factors::Sparse(s) => s.ftran_col(cols, j, out),
        }
    }

    /// `w = B⁻¹ rhs` for a dense row-space right-hand side.
    pub(crate) fn ftran_dense(&self, rhs: &[f64], out: &mut [f64]) {
        match self {
            Factors::Dense(d) => d.ftran_dense(rhs, out),
            Factors::Sparse(s) => s.ftran_dense(rhs, out),
        }
    }

    /// `y = B⁻ᵀ c` with `c` indexed by basis position; `y` in row space.
    pub(crate) fn btran(&self, c: &[f64]) -> Vec<f64> {
        match self {
            Factors::Dense(d) => d.btran(c),
            Factors::Sparse(s) => s.btran(c),
        }
    }

    /// Row `pos` of `B⁻¹` (`ρ = e_posᵀ B⁻¹`) — the shared pivot row that
    /// drives devex weights, incremental dual updates, and the dual
    /// simplex ratio test on either backend.
    pub(crate) fn btran_unit(&self, pos: usize) -> Vec<f64> {
        match self {
            Factors::Dense(d) => d.btran_unit(pos),
            Factors::Sparse(s) => s.btran_unit(pos),
        }
    }

    /// Rank-one update after the pivot at basis position `pos` with
    /// FTRAN column `w` (dense: elementary row ops on the inverse;
    /// sparse: one product-form eta).
    pub(crate) fn update(&mut self, pos: usize, w: &[f64]) {
        match self {
            Factors::Dense(d) => d.update(pos, w),
            Factors::Sparse(s) => s.update(pos, w),
        }
    }

    /// Whether the factorization itself asks for an early
    /// refactorization (sparse eta-file growth; dense never does).
    pub(crate) fn wants_refactor(&self) -> bool {
        match self {
            Factors::Dense(_) => false,
            Factors::Sparse(s) => s.wants_refactor(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3×3 test basis with a hand-checked inverse:
    /// B = [[2,0,1],[0,3,0],[0,0,4]]  ⇒
    /// B⁻¹ = [[.5,0,−.125],[0,1/3,0],[0,0,.25]].
    fn upper_triangular() -> (SparseMat, Vec<usize>) {
        let mut cols = SparseMat::new(3);
        cols.push_col([(0, 2.0)]);
        cols.push_col([(1, 3.0)]);
        cols.push_col([(0, 1.0), (2, 4.0)]);
        (cols, vec![0, 1, 2])
    }

    /// Dense 3×3 with no structural zeros and a known inverse:
    /// B = [[1,2,0],[0,1,1],[1,0,1]], det = 3.
    fn full_basis() -> (SparseMat, Vec<usize>) {
        let mut cols = SparseMat::new(3);
        cols.push_col([(0, 1.0), (2, 1.0)]);
        cols.push_col([(0, 2.0), (1, 1.0)]);
        cols.push_col([(1, 1.0), (2, 1.0)]);
        (cols, vec![0, 1, 2])
    }

    fn both(cols: &SparseMat, basis: &[usize]) -> (Factors, Factors) {
        (
            Factors::factorize(FactorBackend::Dense, cols, basis).unwrap(),
            Factors::factorize(FactorBackend::SparseLU, cols, basis).unwrap(),
        )
    }

    #[test]
    fn env_parsing() {
        assert_eq!(FactorBackend::parse("dense"), Some(FactorBackend::Dense));
        assert_eq!(FactorBackend::parse("Sparse"), Some(FactorBackend::SparseLU));
        assert_eq!(FactorBackend::parse("sparse_lu"), Some(FactorBackend::SparseLU));
        assert_eq!(FactorBackend::parse("qr"), None);
        assert_eq!(FactorBackend::default(), FactorBackend::SparseLU);
        assert_eq!(FactorBackend::Dense.name(), "dense");
        assert_eq!(FactorBackend::SparseLU.to_string(), "sparse");
    }

    #[test]
    fn golden_ftran_on_hand_checked_basis() {
        let (mut cols, basis) = upper_triangular();
        // a = e0·1 + e2·8 ⇒ B⁻¹a = (.5·1 − .125·8, 0, .25·8) = (−0.5, 0, 2).
        let a = cols.push_col([(0, 1.0), (2, 8.0)]);
        for f in [
            Factors::factorize(FactorBackend::Dense, &cols, &basis).unwrap(),
            Factors::factorize(FactorBackend::SparseLU, &cols, &basis).unwrap(),
        ] {
            let mut w = vec![0.0; 3];
            f.ftran_col(&cols, a, &mut w);
            assert!((w[0] + 0.5).abs() < 1e-12, "{w:?}");
            assert!(w[1].abs() < 1e-12);
            assert!((w[2] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn golden_btran_on_full_basis() {
        let (cols, basis) = full_basis();
        let (dense, sparse) = both(&cols, &basis);
        let c = vec![3.0, 3.0, 3.0];
        let yd = dense.btran(&c);
        let ys = sparse.btran(&c);
        for (a, b) in yd.iter().zip(&ys) {
            assert!((a - b).abs() < 1e-12, "dense {yd:?} vs sparse {ys:?}");
        }
        // And both must satisfy Bᵀy = c exactly.
        for (pos, &j) in basis.iter().enumerate() {
            let lhs = cols.col_dot(j, &ys);
            assert!((lhs - c[pos]).abs() < 1e-12);
        }
    }

    #[test]
    fn ftran_btran_round_trip() {
        let (cols, basis) = full_basis();
        let (_, sparse) = both(&cols, &basis);
        // For any c: (Bᵀy)ᵀ = c means Σ_r y_r B[r][pos] = c[pos]; verify the
        // adjoint identity ⟨B⁻¹a, c⟩ = ⟨a, B⁻ᵀc⟩ over a few vectors.
        let mut cols2 = cols.clone();
        let a = cols2.push_col([(0, 1.0), (1, -2.0), (2, 0.5)]);
        let mut w = vec![0.0; 3];
        sparse.ftran_col(&cols2, a, &mut w);
        let c = vec![0.7, -1.3, 2.2];
        let y = sparse.btran(&c);
        let lhs: f64 = w.iter().zip(&c).map(|(a, b)| a * b).sum();
        let rhs: f64 = cols2.col(a).map(|(r, v)| v * y[r]).sum();
        assert!((lhs - rhs).abs() < 1e-12, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn eta_update_matches_refactorization() {
        let (mut cols, basis) = full_basis();
        // Replace basis position 1 with a new column.
        let q = cols.push_col([(0, 1.0), (1, 4.0), (2, -1.0)]);
        let (mut dense, mut sparse) = both(&cols, &basis);
        let mut wd = vec![0.0; 3];
        let mut ws = vec![0.0; 3];
        dense.ftran_col(&cols, q, &mut wd);
        sparse.ftran_col(&cols, q, &mut ws);
        dense.update(1, &wd);
        sparse.update(1, &ws);
        let mut new_basis = basis.clone();
        new_basis[1] = q;
        let fresh = Factors::factorize(FactorBackend::SparseLU, &cols, &new_basis).unwrap();
        // Updated and freshly factorized engines must agree on solves.
        let probe = cols.push_col([(0, -3.0), (1, 1.0), (2, 2.0)]);
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        let mut c = vec![0.0; 3];
        dense.ftran_col(&cols, probe, &mut a);
        sparse.ftran_col(&cols, probe, &mut b);
        fresh.ftran_col(&cols, probe, &mut c);
        for i in 0..3 {
            assert!((a[i] - b[i]).abs() < 1e-12, "dense-upd vs sparse-upd: {a:?} {b:?}");
            assert!((b[i] - c[i]).abs() < 1e-12, "sparse-upd vs fresh: {b:?} {c:?}");
        }
        let yu = sparse.btran_unit(2);
        let yf = fresh.btran_unit(2);
        for (u, f) in yu.iter().zip(&yf) {
            assert!((u - f).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_basis_is_reported_not_panicked() {
        let mut cols = SparseMat::new(2);
        let c0 = cols.push_col([(0, 1.0), (1, 1.0)]);
        let c1 = cols.push_col([(0, 2.0), (1, 2.0)]); // linearly dependent
        for backend in [FactorBackend::Dense, FactorBackend::SparseLU] {
            let err = Factors::factorize(backend, &cols, &[c0, c1]).unwrap_err();
            assert!(
                matches!(err, LpError::Fault(SolverFault::BasisSingular(_))),
                "{backend}: {err:?}"
            );
        }
    }

    #[test]
    fn structurally_empty_column_is_singular() {
        let mut cols = SparseMat::new(2);
        let c0 = cols.push_col([(0, 1.0)]);
        let c1 = cols.push_col([] as [(usize, f64); 0]);
        let err = Factors::factorize(FactorBackend::SparseLU, &cols, &[c0, c1]).unwrap_err();
        assert!(matches!(err, LpError::Fault(SolverFault::BasisSingular(_))));
    }

    #[test]
    fn eta_file_growth_requests_refactor() {
        let (cols, basis) = full_basis();
        let (_, mut sparse) = both(&cols, &basis);
        assert!(!sparse.wants_refactor());
        // Dense-ish update vectors blow the eta budget quickly.
        for _ in 0..MAX_ETAS {
            sparse.update(0, &[1.0, 0.5, -0.5]);
        }
        assert!(sparse.wants_refactor());
    }

    /// The shortlist rule the ordered set replaced: a scan over every
    /// position keeping the [`CAND_COLS`] sparsest active columns, stable
    /// in position, and failing on the first empty one. The reference
    /// [`ordered_shortlist`] must reproduce exactly.
    fn linear_scan_shortlist(
        _by_count: &BTreeSet<(usize, usize)>,
        acol: &[Vec<(usize, f64)>],
        col_done: &[bool],
        cand: &mut Vec<usize>,
    ) -> Result<(), usize> {
        cand.clear();
        for p in 0..acol.len() {
            if col_done[p] {
                continue;
            }
            if acol[p].is_empty() {
                return Err(p);
            }
            match cand.iter().position(|&q| acol[q].len() > acol[p].len()) {
                Some(at) => cand.insert(at, p),
                None => cand.push(p),
            }
            cand.truncate(CAND_COLS);
        }
        Ok(())
    }

    /// A seeded random sparse basis of `m` columns drawn from small
    /// integers, so column counts tie, the Schur updates fill in, and
    /// equal multipliers cancel exactly. `kind` 1 and 2 make it singular
    /// (an empty column; a repeated column); any other kind leaves that
    /// to chance.
    fn random_basis(rng: &mut u64, m: usize, kind: u64) -> (SparseMat, Vec<usize>) {
        let mut next = move |n: u64| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % n
        };
        let values = [1.0, -1.0, 2.0, 0.5, -3.0];
        let mut cols = SparseMat::new(m);
        for p in 0..m {
            let mut entries = vec![(p, values[next(5) as usize])];
            for _ in 0..next(4) {
                entries.push((next(m as u64) as usize, values[next(5) as usize]));
            }
            cols.push_col(entries);
        }
        let mut basis: Vec<usize> = (0..m).collect();
        let victim = next(m as u64) as usize;
        match kind {
            1 => basis[victim] = cols.push_col([] as [(usize, f64); 0]),
            2 => basis[victim] = basis[(victim + 1) % m],
            _ => {}
        }
        (cols, basis)
    }

    fn assert_same_factors(a: &SparseLu, b: &SparseLu, ctx: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.row_of_step, b.row_of_step, "{ctx}: row_of_step");
        assert_eq!(a.pos_of_step, b.pos_of_step, "{ctx}: pos_of_step");
        assert_eq!(a.l_ptr, b.l_ptr, "{ctx}: l_ptr");
        assert_eq!(a.l_row, b.l_row, "{ctx}: l_row");
        assert_eq!(bits(&a.l_val), bits(&b.l_val), "{ctx}: l_val");
        assert_eq!(bits(&a.u_diag), bits(&b.u_diag), "{ctx}: u_diag");
        assert_eq!(a.u_ptr, b.u_ptr, "{ctx}: u_ptr");
        assert_eq!(a.u_pos, b.u_pos, "{ctx}: u_pos");
        assert_eq!(bits(&a.u_val), bits(&b.u_val), "{ctx}: u_val");
    }

    /// The ordered shortlist picks the same pivots as the linear scan it
    /// replaced, so every factor array is bitwise equal and singular
    /// bases fail with the same message.
    #[test]
    fn ordered_shortlist_matches_linear_scan_bit_for_bit() {
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let (mut factored, mut singular_seen, mut filled) = (0, 0, 0);
        for case in 0..300u64 {
            let m = 2 + (case as usize % 40);
            let kind = case % 5;
            let (cols, basis) = random_basis(&mut rng, m, kind);
            let ctx = format!("case {case} (m {m}, kind {kind})");
            let fast = SparseLu::factorize_with(&cols, &basis, ordered_shortlist);
            let slow = SparseLu::factorize_with(&cols, &basis, linear_scan_shortlist);
            match (fast, slow) {
                (Ok(a), Ok(b)) => {
                    assert_same_factors(&a, &b, &ctx);
                    factored += 1;
                    let input_nnz: usize = basis.iter().map(|&j| cols.col_nnz(j)).sum();
                    if a.lu_nnz > input_nnz {
                        filled += 1;
                    }
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "{ctx}");
                    singular_seen += 1;
                }
                (a, b) => panic!("{ctx}: ordered {a:?} vs linear scan {b:?}"),
            }
        }
        // The family must exercise both outcomes and real fill-in.
        assert!(
            factored >= 100 && singular_seen >= 100,
            "{factored}/{singular_seen}"
        );
        assert!(filled >= 20, "only {filled} bases filled in");
    }

    #[test]
    fn identity_permutation_bases_factor_exactly() {
        // The all-logical start basis (−e_i columns) in scrambled order.
        let mut cols = SparseMat::new(4);
        for i in 0..4 {
            cols.push_col([(i, -1.0)]);
        }
        let basis = vec![2, 0, 3, 1];
        let (dense, sparse) = both(&cols, &basis);
        for (pos, &bj) in basis.iter().enumerate() {
            let yd = dense.btran_unit(pos);
            let ys = sparse.btran_unit(pos);
            assert_eq!(yd, ys, "position {pos}");
            // Row `basis[pos]` of B⁻¹ is −e_{basis[pos]} exactly.
            for (r, &v) in ys.iter().enumerate() {
                let expect = if r == bj { -1.0 } else { 0.0 };
                assert_eq!(v, expect);
            }
        }
    }
}
