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
//!   the transposed etas (newest first) before them.
//!
//! The sparse engine keeps one workspace for its whole life, so a
//! refactorization allocates nothing once the buffers have grown: the
//! active submatrix lives in one flat column store, the Markowitz
//! shortlist is read off count buckets (a position bitset per nonzero
//! count), and a pivot whose `L` column is empty deletes its row from
//! the other columns in place. FTRAN and BTRAN visit only the
//! elimination steps their right-hand side reaches (Gilbert–Peierls),
//! in elimination order, and fall back to a sweep over all `m` steps
//! when the reach grows past `m / REACH_CUT` steps.
//!
//! Both backends expose the *same* pivot-level semantics — the simplex
//! loops, the `Basis` snapshot/warm-start API, the numerical-recovery
//! ladder, and the obs counters are backend-agnostic. The solver picks
//! the backend from [`crate::SimplexConfig::backend`], which defaults to
//! the `METAOPT_FACTOR` environment variable (`sparse` when unset).
//!
//! Float-comparison audit (AN003 context): this module compares floats
//! in exactly four ways, all deliberate — `v != 0.0` sparsity guards
//! (skipping exact structural zeros is the point of sparse code and is
//! exact in IEEE arithmetic), `to_bits() != 0` tests that also keep a
//! negative zero in a solve's reach so its sign propagates exactly as in
//! the full sweep, `|piv| >= threshold` pivot admissibility (a magnitude
//! test, not an equality), and the `1e-12` absolute singularity floor
//! shared with the dense engine so both backends classify the same bases
//! as singular.

use crate::sparse::SparseMat;
use crate::{LpError, LpResult};
use metaopt_resilience::SolverFault;

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

/// Eta-file growth bound: once the update file holds this many etas the
/// factorization asks for an early refactorization regardless of the
/// solver's pivot-count cadence (a long eta file makes every FTRAN/BTRAN
/// pay for all past pivots; refactoring resets it).
const MAX_ETAS: usize = 64;

/// A sparse solve visits only the steps its right-hand side reaches
/// while that reach holds at most `m / REACH_CUT` steps, and sweeps all
/// `m` steps past that, where the search and the sort stop paying for
/// themselves. On the B4 DP root LP (2-vCPU host) cuts from 2 to 32 time
/// alike, and sweeping every solve is about 18% slower.
const REACH_CUT: usize = 8;

/// Which basis-factorization engine a [`crate::Simplex`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorBackend {
    /// Explicit dense `m × m` basis inverse (the original engine; exact
    /// oracle for differential tests, fine for small problems).
    Dense,
    /// Sparse LU with Markowitz-threshold pivoting and product-form
    /// eta updates (the default; solves follow the reach of their
    /// right-hand side, refactorizations reuse one workspace).
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

/// Fills `nz` with the positions of `v`'s nonzero (or NaN) entries, in
/// ascending order.
pub(crate) fn nonzero_positions(v: &[f64], nz: &mut Vec<usize>) {
    nz.clear();
    nz.extend((0..v.len()).filter(|&i| v[i] != 0.0));
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

    fn btran(&self, c: impl Iterator<Item = f64>, y: &mut [f64]) {
        let m = self.m;
        y.fill(0.0);
        for (pos, cv) in c.enumerate().take(m) {
            if cv != 0.0 {
                let row = &self.binv[pos * m..(pos + 1) * m];
                for (yk, bv) in y.iter_mut().zip(row) {
                    *yk += cv * bv;
                }
            }
        }
    }

    fn btran_unit(&self, pos: usize, y: &mut [f64]) {
        y.copy_from_slice(&self.binv[pos * self.m..(pos + 1) * self.m]);
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
/// positions plus the pivot diagonal. The remaining fields are derived
/// once per factorization for the reach-based solves.
#[derive(Debug, Clone)]
struct LuFactors {
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
    lu_nnz: usize,
    step_of_row: Vec<usize>,
    step_of_pos: Vec<usize>,
    /// `l_row` and `u_pos` translated to the steps that own those rows
    /// and positions: the edges FTRAN's `L` pass and BTRAN's `Uᵀ` pass
    /// follow forward.
    l_step: Vec<usize>,
    u_step: Vec<usize>,
    /// `L`'s row pattern by step: `lr_step[lr_ptr[s]..lr_ptr[s+1]]` are
    /// the steps whose `L` column holds row `row_of_step[s]` (BTRAN's
    /// `Lᵀ` pass follows these backward).
    lr_ptr: Vec<usize>,
    lr_step: Vec<usize>,
    /// `U`'s column pattern by step: the steps whose `U` row holds
    /// position `pos_of_step[s]` (FTRAN's `U` pass follows these
    /// backward).
    uc_ptr: Vec<usize>,
    uc_step: Vec<usize>,
    /// `0.0 / u_diag`, by basis position: the signed zero the full `U`
    /// sweep writes at each position the solve does not reach.
    zero_out: Vec<f64>,
}

impl Default for LuFactors {
    fn default() -> Self {
        LuFactors {
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
            lu_nnz: 0,
            step_of_row: Vec::new(),
            step_of_pos: Vec::new(),
            l_step: Vec::new(),
            u_step: Vec::new(),
            lr_ptr: Vec::new(),
            lr_step: Vec::new(),
            uc_ptr: Vec::new(),
            uc_step: Vec::new(),
            zero_out: Vec::new(),
        }
    }
}

/// Fills `ptr/adj` with the transpose of the step graph `edges[k]` (a
/// per-step list of later steps): `adj[ptr[s]..ptr[s+1]]` lists the steps
/// whose list holds `s`, in ascending order.
fn transpose_steps(
    m: usize,
    edge_ptr: &[usize],
    edges: &[usize],
    ptr: &mut Vec<usize>,
    adj: &mut Vec<usize>,
) {
    ptr.clear();
    ptr.resize(m + 1, 0);
    for &s in edges {
        ptr[s + 1] += 1;
    }
    for s in 0..m {
        ptr[s + 1] += ptr[s];
    }
    adj.clear();
    adj.resize(edges.len(), 0);
    // Place with ptr[s] as list s's cursor, which leaves it at list
    // s + 1's start; shift back afterwards.
    for k in 0..m {
        for &s in &edges[edge_ptr[k]..edge_ptr[k + 1]] {
            adj[ptr[s]] = k;
            ptr[s] += 1;
        }
    }
    for s in (1..=m).rev() {
        ptr[s] = ptr[s - 1];
    }
    ptr[0] = 0;
}

impl LuFactors {
    /// Empties the factors for an `m`-row elimination, keeping capacity.
    fn begin(&mut self, m: usize) {
        self.m = m;
        self.row_of_step.clear();
        self.pos_of_step.clear();
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_row.clear();
        self.l_val.clear();
        self.u_diag.clear();
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_pos.clear();
        self.u_val.clear();
    }

    /// Derives the step maps and patterns the reach-based solves read.
    fn finish(&mut self) {
        let m = self.m;
        self.lu_nnz = self.l_row.len() + self.u_pos.len() + m;
        self.step_of_row.resize(m, 0);
        self.step_of_pos.resize(m, 0);
        self.zero_out.resize(m, 0.0);
        for k in 0..m {
            self.step_of_row[self.row_of_step[k]] = k;
            self.step_of_pos[self.pos_of_step[k]] = k;
            self.zero_out[self.pos_of_step[k]] = 0.0 / self.u_diag[k];
        }
        self.l_step.clear();
        self.l_step
            .extend(self.l_row.iter().map(|&r| self.step_of_row[r]));
        self.u_step.clear();
        self.u_step
            .extend(self.u_pos.iter().map(|&p| self.step_of_pos[p]));
        transpose_steps(
            m,
            &self.l_ptr,
            &self.l_step,
            &mut self.lr_ptr,
            &mut self.lr_step,
        );
        transpose_steps(
            m,
            &self.u_ptr,
            &self.u_step,
            &mut self.uc_ptr,
            &mut self.uc_step,
        );
    }

    /// `x ← L⁻¹ x` over `steps` (ascending): apply each step's
    /// elimination column, skipping steps whose multiplier is zero.
    fn lsolve(&self, x: &mut [f64], steps: impl Iterator<Item = usize>) {
        for k in steps {
            let t = x[self.row_of_step[k]];
            if t != 0.0 {
                for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                    x[self.l_row[idx]] -= self.l_val[idx] * t;
                }
            }
        }
    }

    /// Back substitution on `U` over `steps` (descending): `out` by basis
    /// position from the row-space `x`.
    fn usolve(&self, x: &[f64], out: &mut [f64], steps: impl Iterator<Item = usize>) {
        for k in steps {
            let mut acc = x[self.row_of_step[k]];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                acc -= self.u_val[idx] * out[self.u_pos[idx]];
            }
            out[self.pos_of_step[k]] = acc / self.u_diag[k];
        }
    }

    /// Forward substitution on `Uᵀ` over `steps` (ascending): consumes
    /// the position-space `cw`, writes row-space `y`.
    fn utsolve(&self, cw: &mut [f64], y: &mut [f64], steps: impl Iterator<Item = usize>) {
        for k in steps {
            let v = cw[self.pos_of_step[k]] / self.u_diag[k];
            if v != 0.0 {
                for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                    cw[self.u_pos[idx]] -= self.u_val[idx] * v;
                }
            }
            y[self.row_of_step[k]] = v;
        }
    }

    /// `y ← L⁻ᵀ y` over `steps` (descending).
    fn ltsolve(&self, y: &mut [f64], steps: impl Iterator<Item = usize>) {
        for k in steps {
            let mut acc = y[self.row_of_step[k]];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                acc -= self.l_val[idx] * y[self.l_row[idx]];
            }
            y[self.row_of_step[k]] = acc;
        }
    }
}

/// The active columns of a factorization bucketed by nonzero count:
/// bucket `c` is a bitset over basis positions, so the Markowitz
/// shortlist reads the columns in `(count, position)` order without a
/// search tree. Buckets are allocated on first use and kept.
#[derive(Debug, Clone, Default)]
struct CountBuckets {
    /// `u64` words per bucket (`⌈m/64⌉`).
    words: usize,
    sets: Vec<Vec<u64>>,
    /// Per bucket: no member sits in a word below this one.
    first: Vec<usize>,
    len: Vec<usize>,
    /// Bitset over counts: the buckets with members.
    occupied: Vec<u64>,
}

impl CountBuckets {
    /// Empties every bucket for an `m`-position elimination.
    fn reset(&mut self, m: usize) {
        let words = m.div_ceil(64);
        if words != self.words {
            *self = CountBuckets {
                words,
                ..CountBuckets::default()
            };
            return;
        }
        for c in 0..self.len.len() {
            if self.len[c] > 0 {
                self.sets[c].fill(0);
                self.len[c] = 0;
                self.first[c] = words;
            }
        }
        self.occupied.fill(0);
    }

    fn insert(&mut self, count: usize, p: usize) {
        if count >= self.sets.len() {
            self.sets.resize_with(count + 1, Vec::new);
            self.first.resize(count + 1, self.words);
            self.len.resize(count + 1, 0);
            self.occupied.resize((count + 1).div_ceil(64), 0);
        }
        if self.sets[count].is_empty() {
            self.sets[count] = vec![0; self.words];
        }
        self.sets[count][p / 64] |= 1 << (p % 64);
        self.first[count] = self.first[count].min(p / 64);
        self.len[count] += 1;
        self.occupied[count / 64] |= 1 << (count % 64);
    }

    fn remove(&mut self, count: usize, p: usize) {
        self.sets[count][p / 64] &= !(1 << (p % 64));
        self.len[count] -= 1;
        if self.len[count] == 0 {
            self.occupied[count / 64] &= !(1 << (count % 64));
        }
    }

    /// Fills `cand` with the first [`CAND_COLS`] active columns in
    /// `(count, position)` order, or returns `Err(p)` for the
    /// lowest-positioned active column with no entries (a singular
    /// basis).
    fn shortlist(&mut self, cand: &mut Vec<usize>) -> Result<(), usize> {
        cand.clear();
        for cw in 0..self.occupied.len() {
            let mut counts = self.occupied[cw];
            while counts != 0 {
                let c = cw * 64 + counts.trailing_zeros() as usize;
                counts &= counts - 1;
                let set = &self.sets[c];
                let mut w = self.first[c];
                while set[w] == 0 {
                    w += 1;
                }
                self.first[c] = w;
                if c == 0 {
                    return Err(w * 64 + set[w].trailing_zeros() as usize);
                }
                for (wi, &word) in set.iter().enumerate().skip(w) {
                    let mut bits = word;
                    while bits != 0 {
                        cand.push(wi * 64 + bits.trailing_zeros() as usize);
                        if cand.len() == CAND_COLS {
                            return Ok(());
                        }
                        bits &= bits - 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// End of a fill-in chain.
const NIL: usize = usize::MAX;

/// Scratch of the Markowitz elimination, kept across factorizations.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// The active submatrix, column-wise in one flat store: position `p`
    /// holds `a_row/a_val[a_start[p]..a_start[p] + a_len[p]]` with room
    /// for `a_cap[p]` entries; a column that outgrows its room moves to
    /// the end of the store.
    a_start: Vec<usize>,
    a_len: Vec<usize>,
    a_cap: Vec<usize>,
    a_row: Vec<usize>,
    a_val: Vec<f64>,
    row_count: Vec<usize>,
    col_done: Vec<bool>,
    /// Row → column incidence: the basis's own pattern (CSR, positions
    /// ascending), then each row's fill-in in a chain through
    /// `fill_col/fill_next`, oldest first. It may name columns that no
    /// longer hold the row; the elimination skips those.
    inc_ptr: Vec<usize>,
    inc_col: Vec<usize>,
    inc_next: Vec<usize>,
    fill_head: Vec<usize>,
    fill_tail: Vec<usize>,
    fill_col: Vec<usize>,
    fill_next: Vec<usize>,
    buckets: CountBuckets,
    cand: Vec<usize>,
    /// The pivot row's incidence list, copied out for one step.
    pivot_cols: Vec<usize>,
    /// Epoch-stamped scatter for Schur updates (never cleared).
    scratch: Vec<f64>,
    stamp: Vec<usize>,
    epoch: usize,
    touched: Vec<usize>,
    newcol: Vec<(usize, f64)>,
}

/// Best admissible pivot within active column `p`: `(row, value, cost)`
/// minimizing the Markowitz cost `(row_count − 1)(col_count − 1)` among
/// entries with `|v| ≥ τ·colmax`, ties to the larger magnitude, then to
/// the earlier entry.
fn score_col(rows: &[usize], vals: &[f64], row_count: &[usize]) -> Option<(usize, f64, usize)> {
    let colmax = vals.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
    if colmax < ABS_PIVOT_MIN {
        return None;
    }
    let threshold = (MARKOWITZ_TAU * colmax).max(ABS_PIVOT_MIN);
    let cc = rows.len();
    let mut best: Option<(usize, f64, usize)> = None;
    for (&r, &v) in rows.iter().zip(vals) {
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
}

impl Workspace {
    /// Loads the basis columns into the active store and builds the
    /// counts, buckets and incidence for an `m`-row elimination.
    fn load(&mut self, cols: &SparseMat, basis: &[usize]) {
        let m = basis.len();
        self.row_count.clear();
        self.row_count.resize(m, 0);
        self.col_done.clear();
        self.col_done.resize(m, false);
        self.a_start.resize(m, 0);
        self.a_len.resize(m, 0);
        self.a_cap.resize(m, 0);
        self.a_row.clear();
        self.a_val.clear();
        self.buckets.reset(m);
        for (p, &j) in basis.iter().enumerate() {
            let start = self.a_row.len();
            for (r, v) in cols.col(j) {
                if v != 0.0 {
                    self.a_row.push(r);
                    self.a_val.push(v);
                    self.row_count[r] += 1;
                }
            }
            let len = self.a_row.len() - start;
            self.a_start[p] = start;
            self.a_len[p] = len;
            self.a_cap[p] = len;
            self.buckets.insert(len, p);
        }
        self.inc_ptr.clear();
        self.inc_ptr.push(0);
        for r in 0..m {
            self.inc_ptr.push(self.inc_ptr[r] + self.row_count[r]);
        }
        self.inc_next.clear();
        self.inc_next.extend_from_slice(&self.inc_ptr[..m]);
        self.inc_col.clear();
        self.inc_col.resize(self.a_row.len(), 0);
        for p in 0..m {
            let s = self.a_start[p];
            for &r in &self.a_row[s..s + self.a_len[p]] {
                self.inc_col[self.inc_next[r]] = p;
                self.inc_next[r] += 1;
            }
        }
        self.fill_head.clear();
        self.fill_head.resize(m, NIL);
        self.fill_tail.clear();
        self.fill_tail.resize(m, NIL);
        self.fill_col.clear();
        self.fill_next.clear();
        self.scratch.resize(m, 0.0);
        self.stamp.resize(m, 0);
    }

    /// Records that fill-in put an entry of row `r` into column `p`.
    fn push_fill(&mut self, r: usize, p: usize) {
        let at = self.fill_col.len();
        self.fill_col.push(p);
        self.fill_next.push(NIL);
        match self.fill_tail[r] {
            NIL => self.fill_head[r] = at,
            t => self.fill_next[t] = at,
        }
        self.fill_tail[r] = at;
    }

    /// The Markowitz pivot for the next step: `(position, row, value)`.
    fn pick_pivot(&mut self) -> LpResult<(usize, usize, f64)> {
        self.buckets.shortlist(&mut self.cand).map_err(|p| {
            singular(format!(
                "singular basis during refactorization (column {p})"
            ))
        })?;
        // (pos, row, val, cost)
        let consider = |ws: &Workspace, pick: &mut Option<(usize, usize, f64, usize)>, p: usize| {
            let (s, len) = (ws.a_start[p], ws.a_len[p]);
            let scored = score_col(&ws.a_row[s..s + len], &ws.a_val[s..s + len], &ws.row_count);
            if let Some((r, v, cost)) = scored {
                let better = match *pick {
                    None => true,
                    Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                };
                if better {
                    *pick = Some((p, r, v, cost));
                }
            }
        };
        let mut pick = None;
        for &p in &self.cand {
            consider(self, &mut pick, p);
        }
        if pick.is_none() {
            // No stable pivot among the fill-minimizing candidates;
            // widen to every active column before giving up.
            for p in 0..self.col_done.len() {
                if !self.col_done[p] {
                    consider(self, &mut pick, p);
                }
            }
        }
        let Some((pp, pr, piv, _)) = pick else {
            return Err(singular(
                "singular basis during refactorization (no admissible pivot)".into(),
            ));
        };
        Ok((pp, pr, piv))
    }

    /// Copies row `r`'s incidence list (base pattern, then fill-in) into
    /// `pivot_cols`.
    fn gather_row(&mut self, r: usize) {
        self.pivot_cols.clear();
        self.pivot_cols
            .extend_from_slice(&self.inc_col[self.inc_ptr[r]..self.inc_ptr[r + 1]]);
        let mut at = self.fill_head[r];
        while at != NIL {
            self.pivot_cols.push(self.fill_col[at]);
            at = self.fill_next[at];
        }
    }

    /// Moves column `p` between count buckets.
    fn recount(&mut self, p: usize, old: usize, new: usize) {
        if new != old {
            self.buckets.remove(old, p);
            self.buckets.insert(new, p);
        }
    }

    /// Right-looking sparse LU with Markowitz-threshold pivoting into
    /// `f`.
    ///
    /// At each step the pivot minimizes the Markowitz fill bound
    /// `(row_count − 1)(col_count − 1)` over the [`CAND_COLS`] smallest
    /// active columns in `(count, position)` order, restricted to entries
    /// passing the `|v| ≥ τ·colmax` stability threshold; the search
    /// widens to every active column before declaring the basis
    /// singular. A pivot column with no other entry leaves an empty `L`
    /// column, and its Schur update only deletes the pivot row from the
    /// other columns, which happens in place.
    fn factorize(&mut self, cols: &SparseMat, basis: &[usize], f: &mut LuFactors) -> LpResult<()> {
        let m = basis.len();
        self.load(cols, basis);
        f.begin(m);
        for k in 0..m {
            let (pp, pr, piv) = self.pick_pivot()?;

            // ---- record the pivot: L column and released counts ----
            let (s, len) = (self.a_start[pp], self.a_len[pp]);
            for i in s..s + len {
                let r = self.a_row[i];
                self.row_count[r] -= 1;
                if r != pr {
                    f.l_row.push(r);
                    f.l_val.push(self.a_val[i] / piv);
                }
            }
            f.l_ptr.push(f.l_row.len());
            self.buckets.remove(len, pp);
            self.a_len[pp] = 0;
            self.col_done[pp] = true;
            f.row_of_step.push(pr);
            f.pos_of_step.push(pp);
            f.u_diag.push(piv);
            let lcol = f.l_ptr[k]..f.l_ptr[k + 1];

            // ---- U row + Schur-complement elimination ----
            self.gather_row(pr);
            for c in 0..self.pivot_cols.len() {
                let p = self.pivot_cols[c];
                if self.col_done[p] {
                    continue;
                }
                let (s, len) = (self.a_start[p], self.a_len[p]);
                // Duplicate incidence entries find no pr entry the
                // second time around and fall through here.
                let Some(at) = self.a_row[s..s + len].iter().position(|&r| r == pr) else {
                    continue;
                };
                let upv = self.a_val[s + at];
                f.u_pos.push(p);
                f.u_val.push(upv);
                if lcol.is_empty() {
                    // Empty L column: the update only drops row pr.
                    self.row_count[pr] -= 1;
                    self.a_row.copy_within(s + at + 1..s + len, s + at);
                    self.a_val.copy_within(s + at + 1..s + len, s + at);
                    self.a_len[p] = len - 1;
                    self.recount(p, len, len - 1);
                    continue;
                }
                // acol[p] ← acol[p] − upv·lcol, dropping row pr.
                self.epoch += 1;
                let epoch = self.epoch;
                self.touched.clear();
                for i in s..s + len {
                    let r = self.a_row[i];
                    self.row_count[r] -= 1;
                    if r == pr {
                        continue;
                    }
                    self.scratch[r] = self.a_val[i];
                    self.stamp[r] = epoch;
                    self.touched.push(r);
                }
                for idx in lcol.clone() {
                    let (r, lm) = (f.l_row[idx], f.l_val[idx]);
                    if self.stamp[r] == epoch {
                        self.scratch[r] -= lm * upv;
                    } else {
                        self.scratch[r] = -lm * upv;
                        self.stamp[r] = epoch;
                        self.touched.push(r);
                        self.push_fill(r, p);
                    }
                }
                self.newcol.clear();
                for &r in &self.touched {
                    let v = self.scratch[r];
                    // Exact cancellations leave the sparsity pattern.
                    if v != 0.0 {
                        self.row_count[r] += 1;
                        self.newcol.push((r, v));
                    }
                }
                let new_len = self.newcol.len();
                self.recount(p, len, new_len);
                if new_len > self.a_cap[p] {
                    self.a_start[p] = self.a_row.len();
                    self.a_cap[p] = 2 * new_len;
                    self.a_row.resize(self.a_start[p] + self.a_cap[p], 0);
                    self.a_val.resize(self.a_start[p] + self.a_cap[p], 0.0);
                }
                let s = self.a_start[p];
                for (i, &(r, v)) in self.newcol.iter().enumerate() {
                    self.a_row[s + i] = r;
                    self.a_val[s + i] = v;
                }
                self.a_len[p] = new_len;
            }
            f.u_ptr.push(f.u_pos.len());
        }
        f.finish();
        Ok(())
    }
}

/// One reach search: the steps found so far, marked in `seen` with the
/// current `epoch` (stamps are never cleared).
#[derive(Debug, Clone, Default)]
struct Reach {
    seen: Vec<usize>,
    epoch: usize,
    steps: Vec<usize>,
}

impl Reach {
    /// Starts an empty search over `m` steps.
    fn start(&mut self, m: usize) {
        self.seen.resize(m, 0);
        self.epoch += 1;
        self.steps.clear();
    }

    fn add(&mut self, k: usize) {
        if self.seen[k] != self.epoch {
            self.seen[k] = self.epoch;
            self.steps.push(k);
        }
    }

    /// Closes the steps found so far under the step graph
    /// `adj[ptr[k]..ptr[k+1]]`: the reach Gilbert–Peierls's depth-first
    /// search finds, here collected by a worklist over `steps` itself
    /// (the callers sort it into elimination order). Returns false,
    /// leaving the set incomplete, once it holds more than `limit` steps.
    fn close(&mut self, ptr: &[usize], adj: &[usize], limit: usize) -> bool {
        if self.steps.len() > limit {
            return false;
        }
        let mut next = 0;
        while next < self.steps.len() {
            let k = self.steps[next];
            next += 1;
            for &s in &adj[ptr[k]..ptr[k + 1]] {
                if self.seen[s] != self.epoch {
                    self.seen[s] = self.epoch;
                    self.steps.push(s);
                    if self.steps.len() > limit {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Scratch of the sparse solves, kept across calls.
#[derive(Debug, Clone, Default)]
struct SolveScratch {
    /// The working right-hand side (row space for FTRAN, position space
    /// for BTRAN); all `+0.0` between solves.
    x: Vec<f64>,
    /// Every position where the right-hand side is not `+0.0` (it may
    /// list a few that are).
    nz: Vec<usize>,
    /// Reach of the forward pass (FTRAN `L`, BTRAN `Uᵀ`) and of the
    /// backward pass (FTRAN `U`, BTRAN `Lᵀ`).
    fwd: Reach,
    bwd: Reach,
}

/// Sparse LU factors, their eta file, and the workspace both are built
/// in. A refactorization fills the spare factors and swaps them in only
/// on success, so a singular basis leaves the previous factorization
/// (and its eta file) whole.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseLu {
    lu: LuFactors,
    spare: LuFactors,
    /// Product-form update file, chronological order.
    etas: Vec<Eta>,
    eta_nnz: usize,
    ws: Workspace,
    scratch: SolveScratch,
}

impl SparseLu {
    /// Factorizes `B = cols[basis]` from scratch, discarding the etas.
    fn refactorize(&mut self, cols: &SparseMat, basis: &[usize]) -> LpResult<()> {
        self.ws.factorize(cols, basis, &mut self.spare)?;
        std::mem::swap(&mut self.lu, &mut self.spare);
        self.etas.clear();
        self.eta_nnz = 0;
        self.scratch.x.clear();
        self.scratch.x.resize(basis.len(), 0.0);
        Ok(())
    }

    /// The largest reach a solve follows before it sweeps instead.
    fn reach_limit(&self) -> usize {
        self.lu.m / REACH_CUT
    }

    fn ftran_col(&mut self, cols: &SparseMat, j: usize, out: &mut [f64], limit: usize) {
        let s = &mut self.scratch;
        s.nz.clear();
        for (r, v) in cols.col(j) {
            // push_col already summed duplicates; plain assignment-add
            // keeps any residual exact-zero entries harmless.
            s.x[r] += v;
            s.nz.push(r);
        }
        self.ftran_scattered(out, limit);
    }

    fn ftran_dense(&mut self, rhs: &[f64], out: &mut [f64], limit: usize) {
        let s = &mut self.scratch;
        s.x.copy_from_slice(rhs);
        s.nz.clear();
        s.nz.extend((0..rhs.len()).filter(|&r| rhs[r].to_bits() != 0));
        self.ftran_scattered(out, limit);
    }

    /// `B w = x` with `x` scattered in the scratch (`nz` lists where it
    /// is not `+0.0`): the triangular solves, then the eta file in
    /// chronological order. Each pass visits only the steps the
    /// right-hand side reaches, in elimination order, when that reach
    /// holds at most `limit` steps; it computes every value with the
    /// same operations as the full sweep, and leaves the same signed
    /// zero (`zero_out`) wherever the sweep writes one.
    fn ftran_scattered(&mut self, out: &mut [f64], limit: usize) {
        let SparseLu {
            lu,
            etas,
            scratch: s,
            ..
        } = self;
        let m = lu.m;
        s.fwd.start(m);
        for &r in &s.nz {
            s.fwd.add(lu.step_of_row[r]);
        }
        let l_sparse = s.fwd.close(&lu.l_ptr, &lu.l_step, limit);
        if l_sparse {
            s.fwd.steps.sort_unstable();
            lu.lsolve(&mut s.x, s.fwd.steps.iter().copied());
        } else {
            lu.lsolve(&mut s.x, 0..m);
        }
        let u_sparse = l_sparse && {
            s.bwd.start(m);
            for &k in &s.fwd.steps {
                if s.x[lu.row_of_step[k]].to_bits() != 0 {
                    s.bwd.add(k);
                }
            }
            s.bwd.close(&lu.uc_ptr, &lu.uc_step, limit)
        };
        if u_sparse {
            s.bwd.steps.sort_unstable_by(|a, b| b.cmp(a));
            out.copy_from_slice(&lu.zero_out);
            lu.usolve(&s.x, out, s.bwd.steps.iter().copied());
        } else {
            lu.usolve(&s.x, out, (0..m).rev());
        }
        if l_sparse {
            for &k in &s.fwd.steps {
                s.x[lu.row_of_step[k]] = 0.0;
            }
        } else {
            s.x.fill(0.0);
        }
        for eta in etas.iter() {
            eta.apply(out);
        }
    }

    /// `Bᵀ y = c` with `c` indexed by basis position; `y` in row space.
    fn btran(&mut self, c: impl Iterator<Item = f64>, y: &mut [f64], limit: usize) {
        let s = &mut self.scratch;
        s.nz.clear();
        for (p, cv) in c.enumerate() {
            s.x[p] = cv;
            if cv.to_bits() != 0 {
                s.nz.push(p);
            }
        }
        self.btran_scattered(y, limit);
    }

    /// `ρ = e_posᵀ B⁻¹`, with `rows` set to ascending rows that hold
    /// every nonzero of `ρ`: the `Lᵀ` pass's reach when it had one.
    fn btran_unit(&mut self, pos: usize, y: &mut [f64], rows: &mut Vec<usize>, limit: usize) {
        let s = &mut self.scratch;
        s.x[pos] = 1.0;
        s.nz.clear();
        s.nz.push(pos);
        if self.btran_scattered(y, limit) {
            let (lu, s) = (&self.lu, &self.scratch);
            rows.clear();
            rows.extend(s.bwd.steps.iter().map(|&k| lu.row_of_step[k]));
            rows.sort_unstable();
        } else {
            nonzero_positions(y, rows);
        }
    }

    /// `Bᵀ y = c` with `c` scattered in the scratch: the transposed eta
    /// file (newest first), then `Uᵀ` and `Lᵀ`, each over its reach when
    /// that holds at most `limit` steps. Nonzero entries of `y` carry the
    /// full sweep's bits; zeros may differ in sign, which no reduced
    /// cost, pivot row or ratio test can see. Returns whether the `Lᵀ`
    /// pass ran over its reach (`scratch.bwd`), outside of which `y` is
    /// zero.
    fn btran_scattered(&mut self, y: &mut [f64], limit: usize) -> bool {
        let SparseLu {
            lu,
            etas,
            scratch: s,
            ..
        } = self;
        let m = lu.m;
        // Transposed eta file, newest first: Bᵀ = (LU·E₁⋯E_k)ᵀ.
        for eta in etas.iter().rev() {
            eta.apply_transposed(&mut s.x);
            s.nz.push(eta.pos);
        }
        s.fwd.start(m);
        for &p in &s.nz {
            if s.x[p].to_bits() != 0 {
                s.fwd.add(lu.step_of_pos[p]);
            }
        }
        let ut_sparse = s.fwd.close(&lu.u_ptr, &lu.u_step, limit);
        if ut_sparse {
            s.fwd.steps.sort_unstable();
            y.fill(0.0);
            lu.utsolve(&mut s.x, y, s.fwd.steps.iter().copied());
            for &k in &s.fwd.steps {
                s.x[lu.pos_of_step[k]] = 0.0;
            }
            for &p in &s.nz {
                s.x[p] = 0.0;
            }
        } else {
            lu.utsolve(&mut s.x, y, 0..m);
            s.x.fill(0.0);
        }
        let lt_sparse = ut_sparse && {
            s.bwd.start(m);
            for &k in &s.fwd.steps {
                if y[lu.row_of_step[k]].to_bits() != 0 {
                    s.bwd.add(k);
                }
            }
            s.bwd.close(&lu.lr_ptr, &lu.lr_step, limit)
        };
        if lt_sparse {
            s.bwd.steps.sort_unstable_by(|a, b| b.cmp(a));
            lu.ltsolve(y, s.bwd.steps.iter().copied());
        } else {
            lu.ltsolve(y, (0..m).rev());
        }
        lt_sparse
    }

    /// Appends the product-form eta for a pivot at position `pos` with
    /// FTRAN column `w`, whose nonzeros `nz` lists in ascending order.
    fn update(&mut self, pos: usize, w: &[f64], nz: &[usize]) {
        let piv = w[pos];
        debug_assert!(piv.abs() > 1e-13);
        let inv_piv = 1.0 / piv;
        let mut entries = Vec::new();
        for &i in nz {
            let wi = w[i];
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
    /// where replaying it costs more than a fresh factorization.
    fn wants_refactor(&self) -> bool {
        self.etas.len() >= MAX_ETAS || self.eta_nnz > 2 * (self.lu.lu_nnz + self.lu.m)
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
            FactorBackend::SparseLU => Factors::Sparse(SparseLu::default()),
        }
    }

    /// Factorizes the basis `B = cols[basis]` from scratch. On failure
    /// the previous factorization stays in place, whole.
    pub(crate) fn refactorize(&mut self, cols: &SparseMat, basis: &[usize]) -> LpResult<()> {
        match self {
            Factors::Dense(d) => *d = DenseInverse::factorize(cols, basis)?,
            Factors::Sparse(s) => s.refactorize(cols, basis)?,
        }
        Ok(())
    }

    /// `w = B⁻¹ a_j` for column `j` of `cols`; `w` by basis position.
    pub(crate) fn ftran_col(&mut self, cols: &SparseMat, j: usize, out: &mut [f64]) {
        match self {
            Factors::Dense(d) => d.ftran_col(cols, j, out),
            Factors::Sparse(s) => s.ftran_col(cols, j, out, s.reach_limit()),
        }
    }

    /// `w = B⁻¹ rhs` for a dense row-space right-hand side.
    pub(crate) fn ftran_dense(&mut self, rhs: &[f64], out: &mut [f64]) {
        match self {
            Factors::Dense(d) => d.ftran_dense(rhs, out),
            Factors::Sparse(s) => s.ftran_dense(rhs, out, s.reach_limit()),
        }
    }

    /// `y = B⁻ᵀ c` with `c` indexed by basis position; `y` in row space.
    pub(crate) fn btran(&mut self, c: impl Iterator<Item = f64>, y: &mut [f64]) {
        match self {
            Factors::Dense(d) => d.btran(c, y),
            Factors::Sparse(s) => s.btran(c, y, s.reach_limit()),
        }
    }

    /// Row `pos` of `B⁻¹` (`ρ = e_posᵀ B⁻¹`) — the shared pivot row that
    /// drives devex weights, incremental dual updates, and the dual
    /// simplex ratio test on either backend. `rows` receives ascending
    /// rows that hold every nonzero of `ρ`.
    pub(crate) fn btran_unit(&mut self, pos: usize, y: &mut [f64], rows: &mut Vec<usize>) {
        match self {
            Factors::Dense(d) => {
                d.btran_unit(pos, y);
                nonzero_positions(y, rows);
            }
            Factors::Sparse(s) => s.btran_unit(pos, y, rows, s.reach_limit()),
        }
    }

    /// Rank-one update after the pivot at basis position `pos` with
    /// FTRAN column `w`, whose nonzeros `nz` lists in ascending order
    /// (dense: elementary row ops on the inverse; sparse: one
    /// product-form eta).
    pub(crate) fn update(&mut self, pos: usize, w: &[f64], nz: &[usize]) {
        match self {
            Factors::Dense(d) => d.update(pos, w),
            Factors::Sparse(s) => s.update(pos, w, nz),
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
    use std::collections::BTreeSet;

    fn factored(backend: FactorBackend, cols: &SparseMat, basis: &[usize]) -> LpResult<Factors> {
        let mut f = Factors::empty(backend);
        f.refactorize(cols, basis)?;
        Ok(f)
    }

    fn both(cols: &SparseMat, basis: &[usize]) -> (Factors, Factors) {
        (
            factored(FactorBackend::Dense, cols, basis).unwrap(),
            factored(FactorBackend::SparseLU, cols, basis).unwrap(),
        )
    }

    fn btran(f: &mut Factors, c: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; c.len()];
        f.btran(c.iter().copied(), &mut y);
        y
    }

    fn btran_unit(f: &mut Factors, pos: usize, m: usize) -> Vec<f64> {
        let mut y = vec![0.0; m];
        f.btran_unit(pos, &mut y, &mut Vec::new());
        y
    }

    /// `update` with `w`'s nonzero positions, as the simplex passes them.
    fn update(f: &mut Factors, pos: usize, w: &[f64]) {
        let mut nz = Vec::new();
        nonzero_positions(w, &mut nz);
        f.update(pos, w, &nz);
    }

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

    #[test]
    fn env_parsing() {
        assert_eq!(FactorBackend::parse("dense"), Some(FactorBackend::Dense));
        assert_eq!(
            FactorBackend::parse("Sparse"),
            Some(FactorBackend::SparseLU)
        );
        assert_eq!(
            FactorBackend::parse("sparse_lu"),
            Some(FactorBackend::SparseLU)
        );
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
        let (dense, sparse) = both(&cols, &basis);
        for mut f in [dense, sparse] {
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
        let (mut dense, mut sparse) = both(&cols, &basis);
        let c = vec![3.0, 3.0, 3.0];
        let yd = btran(&mut dense, &c);
        let ys = btran(&mut sparse, &c);
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
        let (_, mut sparse) = both(&cols, &basis);
        // For any c: (Bᵀy)ᵀ = c means Σ_r y_r B[r][pos] = c[pos]; verify the
        // adjoint identity ⟨B⁻¹a, c⟩ = ⟨a, B⁻ᵀc⟩ over a few vectors.
        let mut cols2 = cols.clone();
        let a = cols2.push_col([(0, 1.0), (1, -2.0), (2, 0.5)]);
        let mut w = vec![0.0; 3];
        sparse.ftran_col(&cols2, a, &mut w);
        let c = vec![0.7, -1.3, 2.2];
        let y = btran(&mut sparse, &c);
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
        update(&mut dense, 1, &wd);
        update(&mut sparse, 1, &ws);
        let mut new_basis = basis.clone();
        new_basis[1] = q;
        let mut fresh = factored(FactorBackend::SparseLU, &cols, &new_basis).unwrap();
        // Updated and freshly factorized engines must agree on solves.
        let probe = cols.push_col([(0, -3.0), (1, 1.0), (2, 2.0)]);
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        let mut c = vec![0.0; 3];
        dense.ftran_col(&cols, probe, &mut a);
        sparse.ftran_col(&cols, probe, &mut b);
        fresh.ftran_col(&cols, probe, &mut c);
        for i in 0..3 {
            assert!(
                (a[i] - b[i]).abs() < 1e-12,
                "dense-upd vs sparse-upd: {a:?} {b:?}"
            );
            assert!(
                (b[i] - c[i]).abs() < 1e-12,
                "sparse-upd vs fresh: {b:?} {c:?}"
            );
        }
        let yu = btran_unit(&mut sparse, 2, 3);
        let yf = btran_unit(&mut fresh, 2, 3);
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
            let err = factored(backend, &cols, &[c0, c1]).unwrap_err();
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
        let err = factored(FactorBackend::SparseLU, &cols, &[c0, c1]).unwrap_err();
        assert!(matches!(err, LpError::Fault(SolverFault::BasisSingular(_))));
    }

    #[test]
    fn eta_file_growth_requests_refactor() {
        let (cols, basis) = full_basis();
        let (_, mut sparse) = both(&cols, &basis);
        assert!(!sparse.wants_refactor());
        // Dense-ish update vectors blow the eta budget quickly.
        for _ in 0..MAX_ETAS {
            update(&mut sparse, 0, &[1.0, 0.5, -0.5]);
        }
        assert!(sparse.wants_refactor());
    }

    #[test]
    fn identity_permutation_bases_factor_exactly() {
        // The all-logical start basis (−e_i columns) in scrambled order.
        let mut cols = SparseMat::new(4);
        for i in 0..4 {
            cols.push_col([(i, -1.0)]);
        }
        let basis = vec![2, 0, 3, 1];
        let (mut dense, mut sparse) = both(&cols, &basis);
        for (pos, &bj) in basis.iter().enumerate() {
            let yd = btran_unit(&mut dense, pos, 4);
            let ys = btran_unit(&mut sparse, pos, 4);
            assert_eq!(yd, ys, "position {pos}");
            // Row `basis[pos]` of B⁻¹ is −e_{basis[pos]} exactly.
            for (r, &v) in ys.iter().enumerate() {
                let expect = if r == bj { -1.0 } else { 0.0 };
                assert_eq!(v, expect);
            }
        }
    }

    /// The elimination the flat workspace replaced, kept as the test
    /// reference: one `Vec` per active column, a `Vec` of candidate
    /// columns per row, and the Markowitz shortlist read off a
    /// `BTreeSet<(count, position)>`. The workspace must reproduce its
    /// pivots, factor entries and singular-basis messages bit for bit.
    fn reference_factorize(cols: &SparseMat, basis: &[usize]) -> LpResult<LuFactors> {
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
        // Row → candidate columns incidence (append-only; may hold stale
        // positions that the per-column scan below skips).
        let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (p, col) in acol.iter().enumerate() {
            for &(r, _) in col {
                row_cols[r].push(p);
            }
        }
        let mut col_done = vec![false; m];
        let mut f = LuFactors::default();
        f.begin(m);
        let mut scratch = vec![0.0_f64; m];
        let mut stamp = vec![0usize; m];
        let mut epoch = 0usize;
        let score = |acol: &[Vec<(usize, f64)>], row_count: &[usize], p: usize| {
            let rows: Vec<usize> = acol[p].iter().map(|&(r, _)| r).collect();
            let vals: Vec<f64> = acol[p].iter().map(|&(_, v)| v).collect();
            score_col(&rows, &vals, row_count)
        };
        for _step in 0..m {
            // ---- Markowitz pivot search ----
            if let Some(&(0, p)) = by_count.first() {
                return Err(singular(format!(
                    "singular basis during refactorization (column {p})"
                )));
            }
            let cand: Vec<usize> = by_count.iter().take(CAND_COLS).map(|&(_, p)| p).collect();
            let mut pick: Option<(usize, usize, f64, usize)> = None; // (pos, row, val, cost)
            let consider = |pick: &mut Option<(usize, usize, f64, usize)>, p: usize| {
                if let Some((r, v, cost)) = score(&acol, &row_count, p) {
                    let better = match *pick {
                        None => true,
                        Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
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
                f.l_row.push(r);
                f.l_val.push(lm);
            }
            f.l_ptr.push(f.l_row.len());
            by_count.remove(&(acol[pp].len(), pp));
            acol[pp].clear();
            col_done[pp] = true;
            f.row_of_step.push(pr);
            f.pos_of_step.push(pp);
            f.u_diag.push(piv);

            // ---- U row + Schur-complement elimination ----
            let touched_cols = std::mem::take(&mut row_cols[pr]);
            for p in touched_cols {
                if col_done[p] {
                    continue;
                }
                let Some(k) = acol[p].iter().position(|&(r, _)| r == pr) else {
                    continue;
                };
                let upv = acol[p][k].1;
                f.u_pos.push(p);
                f.u_val.push(upv);
                // acol[p] ← acol[p] − upv·lcol, dropping row pr.
                epoch += 1;
                let mut touched: Vec<usize> = Vec::with_capacity(acol[p].len() + lcol.len());
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
            f.u_ptr.push(f.u_pos.len());
        }
        f.finish();
        Ok(f)
    }

    /// xorshift64: a seeded stream of integers below `n`.
    fn draw(rng: &mut u64, n: u64) -> u64 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng % n
    }

    /// Small integer values, so column counts tie, the Schur updates fill
    /// in, and equal multipliers cancel exactly.
    const VALUES: [f64; 5] = [1.0, -1.0, 2.0, 0.5, -3.0];

    /// A seeded random sparse basis of `m` columns, each with a diagonal
    /// entry and up to three more. `kind` 1 and 2 make it singular (an
    /// empty column; a repeated column); any other kind leaves that to
    /// chance.
    fn random_basis(rng: &mut u64, m: usize, kind: u64) -> (SparseMat, Vec<usize>) {
        let mut cols = SparseMat::new(m);
        for p in 0..m {
            let mut entries = vec![(p, VALUES[draw(rng, 5) as usize])];
            for _ in 0..draw(rng, 4) {
                entries.push((draw(rng, m as u64) as usize, VALUES[draw(rng, 5) as usize]));
            }
            cols.push_col(entries);
        }
        let mut basis: Vec<usize> = (0..m).collect();
        spoil(rng, &mut cols, &mut basis, kind);
        (cols, basis)
    }

    /// `kind` 1: an empty column replaces a random position; 2: a random
    /// position repeats its neighbour's column.
    fn spoil(rng: &mut u64, cols: &mut SparseMat, basis: &mut [usize], kind: u64) {
        let m = basis.len();
        let victim = draw(rng, m as u64) as usize;
        match kind {
            1 => basis[victim] = cols.push_col([] as [(usize, f64); 0]),
            2 => basis[victim] = basis[(victim + 1) % m],
            _ => {}
        }
    }

    /// A seeded KKT-like basis: about 92% of the columns are logical
    /// singletons (a scaled unit column on their own row), the rest short
    /// structural columns whose extra entries mostly land on other
    /// structural rows, so the structural block fills in and cancels the
    /// way a complementarity system's does. Rows are shuffled against
    /// positions. `kind` as in [`random_basis`].
    fn kkt_basis(rng: &mut u64, m: usize, kind: u64) -> (SparseMat, Vec<usize>) {
        let mut rows: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            rows.swap(i, draw(rng, i as u64 + 1) as usize);
        }
        let structural: Vec<bool> = (0..m).map(|_| draw(rng, 25) < 2).collect();
        let structural_rows: Vec<usize> =
            (0..m).filter(|&p| structural[p]).map(|p| rows[p]).collect();
        let mut cols = SparseMat::new(m);
        for p in 0..m {
            let mut entries = vec![(rows[p], VALUES[draw(rng, 5) as usize])];
            if structural[p] {
                for _ in 0..1 + draw(rng, 3) {
                    let r = if draw(rng, 4) > 0 && !structural_rows.is_empty() {
                        structural_rows[draw(rng, structural_rows.len() as u64) as usize]
                    } else {
                        draw(rng, m as u64) as usize
                    };
                    entries.push((r, VALUES[draw(rng, 5) as usize]));
                }
            }
            cols.push_col(entries);
        }
        let mut basis: Vec<usize> = (0..m).collect();
        spoil(rng, &mut cols, &mut basis, kind);
        (cols, basis)
    }

    fn assert_same_factors(a: &LuFactors, b: &LuFactors, ctx: &str) {
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

    /// What one family of factorizations exercised.
    #[derive(Default, Debug)]
    struct Tally {
        factored: usize,
        singular: usize,
        filled: usize,
        columns: usize,
        singletons: usize,
    }

    /// Factorizes every basis of a family on one reused [`SparseLu`] and
    /// on the reference; both must agree bit for bit, including the
    /// singular-basis messages.
    fn against_reference(
        cases: u64,
        seed: u64,
        family: fn(&mut u64, usize, u64) -> (SparseMat, Vec<usize>),
        size: fn(u64) -> usize,
    ) -> Tally {
        let mut rng = seed;
        let mut lu = SparseLu::default();
        let mut t = Tally::default();
        for case in 0..cases {
            let (m, kind) = (size(case), case % 5);
            let (cols, basis) = family(&mut rng, m, kind);
            let ctx = format!("case {case} (m {m}, kind {kind})");
            t.columns += m;
            t.singletons += basis.iter().filter(|&&j| cols.col_nnz(j) == 1).count();
            match (
                lu.refactorize(&cols, &basis),
                reference_factorize(&cols, &basis),
            ) {
                (Ok(()), Ok(want)) => {
                    assert_same_factors(&lu.lu, &want, &ctx);
                    t.factored += 1;
                    let input_nnz: usize = basis.iter().map(|&j| cols.col_nnz(j)).sum();
                    if lu.lu.lu_nnz > input_nnz {
                        t.filled += 1;
                    }
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "{ctx}");
                    t.singular += 1;
                }
                (a, b) => panic!("{ctx}: workspace {a:?} vs reference {:?}", b.map(|_| ())),
            }
        }
        t
    }

    /// The workspace elimination (count buckets, flat column store,
    /// in-place row deletion) picks the reference's pivots on 300 seeded
    /// random sparse bases with tied counts, fill-in, exact cancellation
    /// and singular cases: bitwise-equal `row_of_step`, `pos_of_step`, L
    /// and U arrays, and the same singular-basis message.
    #[test]
    fn workspace_factorization_matches_reference_bit_for_bit() {
        let t = against_reference(300, 0x9E37_79B9_7F4A_7C15, random_basis, |case| {
            2 + (case as usize % 40)
        });
        // The family must exercise both outcomes and real fill-in.
        assert!(t.factored >= 100 && t.singular >= 100, "{t:?}");
        assert!(t.filled >= 20, "{t:?}");
    }

    /// The same on KKT-like bases: at least 90% singleton columns, so most
    /// steps take the in-place row deletion, with a structural block that
    /// fills in and cancels, and empty and repeated columns.
    #[test]
    fn kkt_factorization_matches_reference_bit_for_bit() {
        let t = against_reference(300, 0xD1B5_4A32_D192_ED03, kkt_basis, |case| {
            20 + (case as usize * 7) % 180
        });
        assert!(10 * t.singletons >= 9 * t.columns, "{t:?}");
        assert!(t.factored >= 100 && t.singular >= 100, "{t:?}");
        assert!(t.filled >= 20, "{t:?}");
    }

    /// A singular basis fails without touching the factorization in
    /// place: solves afterwards give the very bits they gave before.
    #[test]
    fn singular_refactorization_keeps_the_previous_factors() {
        let mut rng = 0x2545_F491_4F6C_DD1D_u64;
        let (mut cols, basis) = kkt_basis(&mut rng, 60, 0);
        let mut f = factored(FactorBackend::SparseLU, &cols, &basis).unwrap();
        let q = cols.push_col([(0, 1.0), (5, -2.0), (9, 0.5)]);
        let mut w = vec![0.0; 60];
        f.ftran_col(&cols, q, &mut w);
        let pos = (0..60)
            .max_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs()))
            .unwrap();
        update(&mut f, pos, &w);
        let probe = |f: &mut Factors| {
            let mut w = vec![0.0; 60];
            f.ftran_col(&cols, q, &mut w);
            let y = btran_unit(f, 7, 60);
            (w, y)
        };
        let before = probe(&mut f);
        let mut broken = basis.clone();
        broken[3] = broken[4];
        let err = f.refactorize(&cols, &broken).unwrap_err();
        assert!(err.to_string().contains("singular basis"), "{err}");
        let after = probe(&mut f);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&before.0), bits(&after.0));
        assert_eq!(bits(&before.1), bits(&after.1));
        assert!(matches!(&f, Factors::Sparse(s) if s.etas.len() == 1));
    }

    /// The count buckets list active columns in the order a
    /// `BTreeSet<(count, position)>` does, through random inserts, moves
    /// and removals.
    #[test]
    fn count_buckets_follow_count_then_position_order() {
        let mut rng = 0x0123_4567_89AB_CDEF_u64;
        for round in 0..20u64 {
            let m = 1 + draw(&mut rng, 300) as usize;
            let mut buckets = CountBuckets::default();
            buckets.reset(m);
            let mut set = BTreeSet::new();
            let mut count = vec![None; m];
            let mut cand = Vec::new();
            for _ in 0..4 * m {
                let p = draw(&mut rng, m as u64) as usize;
                let c = draw(&mut rng, 1 + round) as usize;
                if let Some(old) = count[p].take() {
                    buckets.remove(old, p);
                    set.remove(&(old, p));
                }
                if draw(&mut rng, 4) > 0 {
                    buckets.insert(c, p);
                    set.insert((c, p));
                    count[p] = Some(c);
                }
                let want = match set.first() {
                    Some(&(0, p)) => Err(p),
                    _ => Ok(set
                        .iter()
                        .take(CAND_COLS)
                        .map(|&(_, p)| p)
                        .collect::<Vec<_>>()),
                };
                let got = buckets.shortlist(&mut cand).map(|()| cand.clone());
                assert_eq!(got, want, "m {m} round {round}");
            }
            buckets.reset(m);
            assert_eq!(buckets.shortlist(&mut cand), Ok(()));
            assert!(cand.is_empty());
        }
    }

    /// Entry-by-entry equality of a reach-based solve with the full
    /// sweep: nonzeros bitwise, zeros under `==`; `exact` also demands
    /// the zeros' signs (FTRAN writes the sweep's signed zero).
    fn assert_same_solve(reach: &[f64], sweep: &[f64], exact: bool, ctx: &str) {
        for (i, (&a, &b)) in reach.iter().zip(sweep).enumerate() {
            let same = if exact || b != 0.0 {
                a.to_bits() == b.to_bits()
            } else {
                a == 0.0
            };
            assert!(same, "{ctx}: entry {i} reach {a:e} vs sweep {b:e}");
        }
    }

    /// The reach-based FTRAN and BTRAN against the full sweep on seeded
    /// random bases carrying 0–64 etas, for right-hand sides on both sides
    /// of the density cut: the sweep (limit 0), the reach (no limit) and
    /// the production cut must agree entry by entry, and the rows
    /// `btran_unit` reports must cover every nonzero of `ρ`.
    #[test]
    fn reach_solves_match_the_full_sweep() {
        let mut rng = 0x5851_F42D_4C95_7F2D_u64;
        let (mut sparse_reach, mut dense_reach) = (0usize, 0usize);
        for case in 0..60u64 {
            let m = 30 + draw(&mut rng, 170) as usize;
            let (mut cols, mut basis) = if case % 3 == 0 {
                random_basis(&mut rng, m, 0)
            } else {
                kkt_basis(&mut rng, m, 0)
            };
            let mut lu = SparseLu::default();
            if lu.refactorize(&cols, &basis).is_err() {
                continue;
            }
            // Pivot 0–64 random sparse columns in by product-form etas.
            let mut w = vec![0.0; m];
            for _ in 0..draw(&mut rng, 65) {
                let mut entries = Vec::new();
                for _ in 0..1 + draw(&mut rng, 3) {
                    entries.push((
                        draw(&mut rng, m as u64) as usize,
                        VALUES[draw(&mut rng, 5) as usize],
                    ));
                }
                let q = cols.push_col(entries);
                lu.ftran_col(&cols, q, &mut w, 0);
                let Some(pos) = (0..m)
                    .filter(|&i| w[i].abs() > 1e-3)
                    .max_by_key(|&i| i * 7919 % m)
                else {
                    continue;
                };
                let mut nz = Vec::new();
                nonzero_positions(&w, &mut nz);
                lu.update(pos, &w, &nz);
                basis[pos] = q;
            }
            let ctx = format!("case {case} (m {m}, {} etas)", lu.etas.len());
            let cut = lu.reach_limit();
            let solve = |lu: &mut SparseLu, what: usize, arg: usize, rhs: &[f64], limit: usize| {
                let mut out = vec![f64::NAN; m];
                match what {
                    0 => lu.ftran_col(&cols, arg, &mut out, limit),
                    1 => lu.ftran_dense(rhs, &mut out, limit),
                    2 => lu.btran(rhs.iter().copied(), &mut out, limit),
                    _ => {
                        let mut rows = Vec::new();
                        lu.btran_unit(arg, &mut out, &mut rows, limit);
                        assert!(rows.windows(2).all(|p| p[0] < p[1]), "{ctx}: rows unsorted");
                        let covered = |r: usize| out[r] == 0.0 || rows.binary_search(&r).is_ok();
                        assert!((0..m).all(covered), "{ctx}: rows miss a nonzero");
                    }
                }
                assert!(
                    lu.scratch.x.iter().all(|v| v.to_bits() == 0),
                    "{ctx}: dirty scratch"
                );
                out
            };
            for trial in 0..8 {
                // Sparse right-hand sides (a basis column, a unit vector,
                // a few entries) and dense ones past the cut.
                let dense = trial % 2 == 1;
                let nnz = if dense {
                    m / 2 + draw(&mut rng, (m / 2) as u64) as usize
                } else {
                    1 + draw(&mut rng, 3) as usize
                };
                let mut rhs = vec![0.0; m];
                for _ in 0..nnz {
                    rhs[draw(&mut rng, m as u64) as usize] = VALUES[draw(&mut rng, 5) as usize];
                }
                let j = basis[draw(&mut rng, m as u64) as usize];
                let pos = draw(&mut rng, m as u64) as usize;
                for (what, exact) in [(0, true), (1, true), (2, false), (3, false)] {
                    let arg = if what == 0 { j } else { pos };
                    let sweep = solve(&mut lu, what, arg, &rhs, 0);
                    let reach = solve(&mut lu, what, arg, &rhs, usize::MAX);
                    let steps = lu.scratch.fwd.steps.len();
                    if steps < m / 4 {
                        sparse_reach += 1;
                    } else if steps > cut {
                        dense_reach += 1;
                    }
                    let cut_solve = solve(&mut lu, what, arg, &rhs, cut);
                    let tag = format!("{ctx}, solve {what}, trial {trial}");
                    assert_same_solve(&reach, &sweep, exact, &format!("{tag} reach"));
                    assert_same_solve(&cut_solve, &sweep, exact, &format!("{tag} cut"));
                }
            }
        }
        // Both sides of the cut, and reaches well short of m.
        assert!(
            sparse_reach >= 200 && dense_reach >= 100,
            "{sparse_reach}/{dense_reach}"
        );
    }
}
