//! Column-oriented sparse matrix used by the simplex solver.
//!
//! The constraint matrices produced by the traffic-engineering and KKT
//! formulations are very sparse (a handful of nonzeros per column), so the
//! solver stores the matrix column-wise and performs FTRAN-style products as
//! linear combinations of dense basis-inverse columns.

/// A compressed sparse-column matrix with `f64` entries.
///
/// Built incrementally one column at a time; rows are only bounded by
/// `n_rows`, duplicate `(row, col)` entries within a column are summed.
#[derive(Debug, Clone, Default)]
pub struct SparseMat {
    n_rows: usize,
    /// Start offset of each column in `idx`/`val`; length `n_cols + 1`.
    col_ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl SparseMat {
    /// Creates an empty matrix with `n_rows` rows and no columns.
    pub fn new(n_rows: usize) -> Self {
        SparseMat {
            n_rows,
            col_ptr: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns appended so far.
    pub fn n_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Total number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Appends a column given `(row, value)` pairs. Duplicate rows are
    /// summed; zero-magnitude entries are dropped. Returns the column index.
    ///
    /// # Panics
    /// Panics if any row index is out of range.
    pub fn push_col<I: IntoIterator<Item = (usize, f64)>>(&mut self, entries: I) -> usize {
        let start = self.idx.len();
        for (r, v) in entries {
            assert!(r < self.n_rows, "row {r} out of range (n_rows={})", self.n_rows);
            if v != 0.0 {
                self.idx.push(r);
                self.val.push(v);
            }
        }
        // Sum duplicates within the freshly appended range.
        let seg_idx = &mut self.idx[start..];
        let seg_val = &mut self.val[start..];
        // Sort the segment by row index (insertion sort; columns are tiny).
        for i in 1..seg_idx.len() {
            let mut j = i;
            while j > 0 && seg_idx[j - 1] > seg_idx[j] {
                seg_idx.swap(j - 1, j);
                seg_val.swap(j - 1, j);
                j -= 1;
            }
        }
        // Merge equal rows in place.
        let mut w = 0usize;
        for r in 0..seg_idx.len() {
            if w > 0 && seg_idx[w - 1] == seg_idx[r] {
                seg_val[w - 1] += seg_val[r];
            } else {
                seg_idx[w] = seg_idx[r];
                seg_val[w] = seg_val[r];
                w += 1;
            }
        }
        self.idx.truncate(start + w);
        self.val.truncate(start + w);
        self.col_ptr.push(self.idx.len());
        self.col_ptr.len() - 2
    }

    /// Iterates over the `(row, value)` nonzeros of column `c`.
    pub fn col(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.idx[lo..hi]
            .iter()
            .copied()
            .zip(self.val[lo..hi].iter().copied())
    }

    /// Number of nonzeros in column `c`.
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// Dense dot product of column `c` with vector `y` (`yᵀ a_c`).
    pub fn col_dot(&self, c: usize, y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (r, v) in self.col(c) {
            acc += y[r] * v;
        }
        acc
    }

    /// Adds `scale * a_c` into dense vector `out`.
    pub fn col_axpy(&self, c: usize, scale: f64, out: &mut [f64]) {
        for (r, v) in self.col(c) {
            out[r] += scale * v;
        }
    }

    /// The transpose: column `r` of the result holds row `r`'s entries as
    /// `(column, value)` pairs in ascending column order. Every stored
    /// entry carries over, explicit zeros included.
    pub(crate) fn transpose(&self) -> SparseMat {
        let mut col_ptr = vec![0usize; self.n_rows + 1];
        for &r in &self.idx {
            col_ptr[r + 1] += 1;
        }
        for r in 0..self.n_rows {
            col_ptr[r + 1] += col_ptr[r];
        }
        let mut next = col_ptr[..self.n_rows].to_vec();
        let mut idx = vec![0usize; self.nnz()];
        let mut val = vec![0.0; self.nnz()];
        for c in 0..self.n_cols() {
            for (r, v) in self.col(c) {
                idx[next[r]] = c;
                val[next[r]] = v;
                next[r] += 1;
            }
        }
        SparseMat {
            n_rows: self.n_cols(),
            col_ptr,
            idx,
            val,
        }
    }

    /// Scales every stored entry of row `r` by `scales[r]`, across all
    /// columns (one pass over the nonzeros). Used by the simplex recovery
    /// ladder's row equilibration.
    pub fn scale_rows(&mut self, scales: &[f64]) {
        assert_eq!(scales.len(), self.n_rows, "one scale factor per row");
        for (r, v) in self.idx.iter().zip(self.val.iter_mut()) {
            *v *= scales[*r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_columns() {
        let mut m = SparseMat::new(3);
        let c0 = m.push_col([(0, 1.0), (2, -2.0)]);
        let c1 = m.push_col([(1, 4.0)]);
        assert_eq!((c0, c1), (0, 1));
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, -2.0)]);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(1, 4.0)]);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let mut m = SparseMat::new(4);
        m.push_col([(2, 1.0), (0, 3.0), (2, 2.5), (1, 0.0)]);
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 3.0), (2, 3.5)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn duplicates_cancelling_to_zero_are_kept_small() {
        let mut m = SparseMat::new(2);
        m.push_col([(0, 1.0), (0, -1.0)]);
        // Exact cancellation keeps a single 0.0 entry; acceptable and harmless.
        assert_eq!(m.col_nnz(0), 1);
        assert_eq!(m.col_dot(0, &[5.0, 7.0]), 0.0);
    }

    #[test]
    fn dot_and_axpy() {
        let mut m = SparseMat::new(3);
        m.push_col([(0, 2.0), (1, -1.0)]);
        assert_eq!(m.col_dot(0, &[3.0, 4.0, 100.0]), 2.0);
        let mut out = vec![0.0; 3];
        m.col_axpy(0, 2.0, &mut out);
        assert_eq!(out, vec![4.0, -2.0, 0.0]);
    }

    #[test]
    fn transpose_lists_rows_and_keeps_explicit_zeros() {
        let mut m = SparseMat::new(3);
        m.push_col([(0, 1.0), (2, -2.0)]);
        m.push_col([(1, 1.0), (1, -1.0)]); // stored explicit zero
        m.push_col([(0, 3.0), (1, 4.0)]);
        let t = m.transpose();
        assert_eq!((t.n_rows(), t.n_cols(), t.nnz()), (3, 3, m.nnz()));
        assert_eq!(t.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 3.0)]);
        assert_eq!(t.col(1).collect::<Vec<_>>(), vec![(1, 0.0), (2, 4.0)]);
        assert_eq!(t.col(2).collect::<Vec<_>>(), vec![(0, -2.0)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_panics() {
        let mut m = SparseMat::new(2);
        m.push_col([(2, 1.0)]);
    }
}
