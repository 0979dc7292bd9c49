//! Compressed-sparse-row matrix for large transition structures.
//!
//! The Movies and NUS configurations of the paper produce adjacency
//! structures whose dense form would be wasteful (hundreds of near-empty
//! link types). `SparseMatrix` supports exactly the operations the
//! collective classifiers need: building from triplets, `A x`, `Aᵀ x`, and
//! column-stochastic normalization with the dangling-column rule.

// Indexed loops below walk several parallel arrays with one index;
// clippy's iterator rewrite would obscure the shared-index structure.
#![allow(clippy::needless_range_loop)]
use crate::error::LinalgError;
use crate::{partition, pool};

/// A CSR (compressed sparse row) matrix of `f64`.
///
/// Duplicate coordinates supplied at construction are summed, matching the
/// usual COO→CSR semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index of each stored entry.
    indices: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f64>,
    /// Columns whose stored sum was zero at the last normalization; these
    /// act as uniform columns in `matvec`-style products.
    dangling_cols: Vec<bool>,
    /// Whether dangling columns should be treated as uniform (set by
    /// [`SparseMatrix::normalize_columns_stochastic`]).
    uniform_dangling: bool,
}

impl SparseMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets, summing
    /// duplicates.
    ///
    /// # Errors
    /// Returns [`LinalgError::IndexOutOfBounds`] if any coordinate exceeds
    /// the declared shape.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: (r, c),
                    shape: (rows, cols),
                });
            }
        }
        // Count entries per row.
        let mut counts = vec![0usize; rows];
        for &(r, _, _) in triplets {
            counts[r] += 1;
        }
        let mut indptr = vec![0usize; rows + 1];
        for r in 0..rows {
            indptr[r + 1] = indptr[r] + counts[r];
        }
        let nnz = indptr[rows];
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = indptr.clone();
        for &(r, c, v) in triplets {
            let pos = next[r];
            indices[pos] = c;
            values[pos] = v;
            next[r] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut merged_indices = Vec::with_capacity(nnz);
        let mut merged_values = Vec::with_capacity(nnz);
        let mut merged_indptr = vec![0usize; rows + 1];
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            scratch.extend(
                indices[indptr[r]..indptr[r + 1]]
                    .iter()
                    .copied()
                    .zip(values[indptr[r]..indptr[r + 1]].iter().copied()),
            );
            scratch.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                merged_indices.push(c);
                merged_values.push(v);
                i = j;
            }
            merged_indptr[r + 1] = merged_indices.len();
        }
        Ok(SparseMatrix {
            rows,
            cols,
            indptr: merged_indptr,
            indices: merged_indices,
            values: merged_values,
            dangling_cols: vec![false; cols],
            uniform_dangling: false,
        })
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
            dangling_cols: vec![false; cols],
            uniform_dangling: false,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// True when column `c` had no mass at normalization time and is
    /// treated as uniform by the matvec kernels (the dangling-column
    /// rule). Always false before
    /// [`SparseMatrix::normalize_columns_stochastic`] runs.
    #[inline]
    pub fn is_dangling_col(&self, c: usize) -> bool {
        self.uniform_dangling && self.dangling_cols[c]
    }

    /// Iterates over the stored entries of row `r` as `(col, value)`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.indptr[r]..self.indptr[r + 1];
        self.indices[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Value at `(r, c)` (zero if not stored).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        let range = self.indptr[r]..self.indptr[r + 1];
        match self.indices[range.clone()].binary_search(&c) {
            Ok(pos) => self.values[range.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `y = A x`, accounting for uniform dangling
    /// columns when the matrix has been stochastically normalized:
    /// [`SparseMatrix::matvec_multi_into`] with one column.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.rows];
        self.matvec_multi_into(x, 1, &mut y)?;
        Ok(y)
    }

    /// Whether a product over `columns` operand columns should partition
    /// its output over pool workers: the adaptive work gate
    /// ([`pool::should_parallelize`], entry visits = nnz × columns) plus a
    /// sanity floor of two partitionable rows. Purely a scheduling
    /// decision — results are bitwise identical either way.
    #[inline]
    fn use_parallel(&self, columns: usize) -> bool {
        self.rows >= 2 && pool::should_parallelize(self.nnz().saturating_mul(columns))
    }

    /// The uniform per-row share contributed by dangling columns, and
    /// whether any dangling mass flows at all (the correction is skipped
    /// entirely when it does not, matching the historical behaviour).
    fn dangling_share(&self, x: &[f64]) -> (f64, bool) {
        if !self.uniform_dangling || self.rows == 0 {
            return (0.0, false);
        }
        let mut dangling_mass = crate::kahan::KahanAccumulator::new();
        for (&d, &xc) in self.dangling_cols.iter().zip(x) {
            if d {
                dangling_mass.add(xc);
            }
        }
        let mass = dangling_mass.total();
        (mass / self.rows as f64, mass != 0.0)
    }

    /// Gathers `out[t] = row(start + t) · x` (Kahan-compensated, CSR entry
    /// order) plus the dangling share. One exclusive owner per output
    /// element with a fixed summation order, so any partitioning of the
    /// output rows yields bitwise-identical results.
    fn row_gather(&self, x: &[f64], share: f64, correct: bool, start: usize, out: &mut [f64]) {
        for (t, yr) in out.iter_mut().enumerate() {
            let mut acc = crate::kahan::KahanAccumulator::new();
            for (c, v) in self.row_iter(start + t) {
                acc.add(v * x[c]);
            }
            *yr = acc.total();
        }
        if correct {
            for yr in out.iter_mut() {
                *yr += share;
            }
        }
    }

    /// Block matrix–vector product `Y = A X` over column-major blocks
    /// (`q` input columns of length `cols` in `xs`, `q` output columns of
    /// length `rows` in `ys`), accounting for uniform dangling columns when
    /// the matrix has been stochastically normalized.
    ///
    /// This is the hot path of the T-Mark iteration: it writes into a
    /// caller-provided block and performs no allocation. Rows accumulate
    /// through compensated summation, so the sparse product is
    /// bit-identical to the dense one on the same operator. Serially, one
    /// pass over the row structure serves all `q` columns; with free pool
    /// workers the output block is partitioned into `(class, row-range)`
    /// chunks (nnz-balanced via the row pointers) computed concurrently.
    /// Per column the accumulation order (row entries in CSR order, then
    /// the Kahan-compensated dangling mass) is fixed, so each output column
    /// is bit-for-bit identical to a one-column product at any thread
    /// count.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] on wrong block lengths.
    pub fn matvec_multi_into(
        &self,
        xs: &[f64],
        q: usize,
        ys: &mut [f64],
    ) -> Result<(), LinalgError> {
        if xs.len() != self.cols * q || ys.len() != self.rows * q {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse matvec_multi",
                expected: (self.rows * q, self.cols * q),
                found: (ys.len(), xs.len()),
            });
        }
        if q == 0 {
            return Ok(());
        }
        let mut shares = vec![(0.0f64, false); q];
        for c in 0..q {
            shares[c] = self.dangling_share(&xs[c * self.cols..(c + 1) * self.cols]);
        }
        if self.use_parallel(q) {
            let bounds = partition::balanced_bounds(&self.indptr);
            partition::run_col_chunks(bounds.as_slice(), ys, self.rows, |c, start, chunk| {
                let (share, correct) = shares[c];
                self.row_gather(
                    &xs[c * self.cols..(c + 1) * self.cols],
                    share,
                    correct,
                    start,
                    chunk,
                );
            });
        } else {
            for r in 0..self.rows {
                for c in 0..q {
                    let x = &xs[c * self.cols..(c + 1) * self.cols];
                    let mut acc = crate::kahan::KahanAccumulator::new();
                    for (col, v) in self.row_iter(r) {
                        acc.add(v * x[col]);
                    }
                    ys[c * self.rows + r] = acc.total();
                }
            }
            for c in 0..q {
                let (share, correct) = shares[c];
                if correct {
                    for yr in ys[c * self.rows..(c + 1) * self.rows].iter_mut() {
                        *yr += share;
                    }
                }
            }
        }
        Ok(())
    }

    /// Transposed product `y = Aᵀ x` (dangling handling not applied; the
    /// transpose of a column-stochastic matrix is used only for aggregation,
    /// not as a transition operator).
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse matvec_transpose",
                expected: (self.cols, self.rows),
                found: (0, x.len()),
            });
        }
        let mut y = vec![0.0; self.cols];
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.row_iter(r) {
                y[c] += v * xr;
            }
        }
        Ok(y)
    }

    /// Normalizes each column to sum to one. Columns with no stored mass are
    /// flagged as dangling and treated as uniform (`1/rows`) inside
    /// [`SparseMatrix::matvec`], matching the paper's dangling-node rule
    /// without materializing dense columns. Returns the dangling count.
    pub fn normalize_columns_stochastic(&mut self) -> usize {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                sums[self.indices[idx]] += self.values[idx];
            }
        }
        let mut dangling = 0;
        for (c, s) in sums.iter().enumerate() {
            if *s == 0.0 {
                self.dangling_cols[c] = true;
                dangling += 1;
            } else {
                self.dangling_cols[c] = false;
            }
        }
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[idx];
                if !self.dangling_cols[c] {
                    self.values[idx] /= sums[c];
                }
            }
        }
        self.uniform_dangling = true;
        dangling
    }

    /// True when each column's stored entries sum to one within `tol`
    /// (dangling columns count as stochastic once normalized).
    pub fn is_column_stochastic(&self, tol: f64) -> bool {
        if self.rows == 0 || self.cols == 0 {
            return false;
        }
        if self.values.iter().any(|&v| v < -tol || !v.is_finite()) {
            return false;
        }
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                sums[self.indices[idx]] += self.values[idx];
            }
        }
        sums.iter().enumerate().all(|(c, s)| {
            if self.uniform_dangling && self.dangling_cols[c] {
                true
            } else {
                (s - 1.0).abs() <= tol
            }
        })
    }

    /// Sparse–sparse product `C = A B` (CSR × CSR → CSR), used for
    /// meta-path composition. Dangling-column expansion is not applied —
    /// both operands are treated as their stored values.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols != other.rows`.
    pub fn matmul_sparse(&self, other: &SparseMatrix) -> Result<SparseMatrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse matmul",
                expected: (self.cols, self.cols),
                found: (other.rows, other.cols),
            });
        }
        // Gustavson's algorithm with a dense accumulator row.
        let mut acc = vec![0.0; other.cols];
        let mut touched: Vec<usize> = Vec::new();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..self.rows {
            for (k, v) in self.row_iter(r) {
                for (c, w) in other.row_iter(k) {
                    if acc[c] == 0.0 {
                        touched.push(c);
                    }
                    acc[c] += v * w;
                }
            }
            for &c in &touched {
                if acc[c] != 0.0 {
                    triplets.push((r, c, acc[c]));
                }
                acc[c] = 0.0;
            }
            touched.clear();
        }
        SparseMatrix::from_triplets(self.rows, other.cols, &triplets)
    }

    /// Converts to a dense matrix (dangling columns expanded to uniform when
    /// the matrix has been normalized). Intended for tests and small inputs.
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                d.add_at(r, c, v);
            }
        }
        if self.uniform_dangling && self.rows > 0 {
            let u = 1.0 / self.rows as f64;
            for (c, &dangle) in self.dangling_cols.iter().enumerate() {
                if dangle {
                    for r in 0..self.rows {
                        d.set(r, c, u);
                    }
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap()
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        assert!(SparseMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn duplicates_are_summed() {
        let m = SparseMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let sparse_y = m.matvec(&x).unwrap();
        let dense_y = m.to_dense().matvec(&x).unwrap();
        assert_eq!(sparse_y, dense_y);
    }

    #[test]
    fn matvec_checks_dimensions() {
        assert!(sample().matvec(&[1.0]).is_err());
        assert!(sample().matvec_transpose(&[1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn matvec_applies_dangling_mass() {
        let mut m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 2.0)]).unwrap();
        m.normalize_columns_stochastic();
        // Column 1 dangles: its 0.5 of mass spreads uniformly over rows.
        let y = m.matvec(&[0.5, 0.5]).unwrap();
        assert!((y[0] - 0.5).abs() < 1e-12);
        assert!((y[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn matvec_transpose_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0];
        let sparse_y = m.matvec_transpose(&x).unwrap();
        let dense_y = m.to_dense().transpose().matvec(&x).unwrap();
        assert_eq!(sparse_y, dense_y);
    }

    #[test]
    fn normalization_flags_dangling_and_preserves_mass() {
        // Column 1 of this 2x2 matrix is empty.
        let mut m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 2.0)]).unwrap();
        let dangling = m.normalize_columns_stochastic();
        assert_eq!(dangling, 1);
        assert!(m.is_column_stochastic(1e-12));
        // A stochastic input must map to a stochastic output.
        let y = m.matvec(&[0.5, 0.5]).unwrap();
        let total: f64 = y.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Dangling column contributed 0.5 mass uniformly: 0.25 to each row.
        assert!((y[0] - (0.25 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn to_dense_expands_dangling_uniformly() {
        let mut m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        m.normalize_columns_stochastic();
        let d = m.to_dense();
        assert!((d.get(0, 1) - 0.5).abs() < 1e-12);
        assert!((d.get(1, 1) - 0.5).abs() < 1e-12);
        assert!(d.is_column_stochastic(1e-12));
    }

    #[test]
    fn zeros_has_no_entries() {
        let m = SparseMatrix::zeros(3, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.matvec(&[1.0; 4]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn matmul_sparse_matches_dense() {
        let a = sample();
        let b = SparseMatrix::from_triplets(
            3,
            2,
            &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0), (2, 1, 1.0)],
        )
        .unwrap();
        let c = a.matmul_sparse(&b).unwrap();
        let dense_c = a.to_dense().matmul(&b.to_dense()).unwrap();
        for r in 0..2 {
            for col in 0..2 {
                assert!((c.get(r, col) - dense_c.get(r, col)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matmul_sparse_checks_inner_dimension() {
        let a = sample(); // 2x3
        assert!(a.matmul_sparse(&sample()).is_err());
    }

    #[test]
    fn row_iter_yields_sorted_columns() {
        let m = SparseMatrix::from_triplets(1, 4, &[(0, 3, 1.0), (0, 1, 2.0)]).unwrap();
        let cols: Vec<usize> = m.row_iter(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn matvec_multi_matches_per_column_bitwise() {
        // Includes a dangling column so the uniform-mass path is covered.
        let mut m =
            SparseMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 0, 1.0), (2, 2, 4.0)]).unwrap();
        m.normalize_columns_stochastic();
        let q = 3;
        let xs: Vec<f64> = (0..3 * q).map(|i| (i % 5) as f64 / 10.0).collect();
        let mut ys = vec![f64::NAN; 3 * q];
        m.matvec_multi_into(&xs, q, &mut ys).unwrap();
        for c in 0..q {
            let single = m.matvec(&xs[c * 3..(c + 1) * 3]).unwrap();
            assert_eq!(&ys[c * 3..(c + 1) * 3], single.as_slice(), "column {c}");
        }
        assert!(m.matvec_multi_into(&xs, q, &mut [0.0; 4]).is_err());
        assert!(m.matvec_multi_into(&xs[..4], q, &mut ys).is_err());
    }
}
