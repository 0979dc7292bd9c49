//! Row-major dense matrix used for feature matrices, the similarity
//! transition matrix `W`, and small neural-network weights.

// Indexed loops below walk several parallel arrays with one index;
// clippy's iterator rewrite would obscure the shared-index structure.
#![allow(clippy::needless_range_loop)]
use crate::error::LinalgError;
use crate::vector;
use crate::{partition, pool};

/// A row-major dense matrix of `f64`.
///
/// The layout favours row iteration (feature vectors are rows) while the
/// column-stochastic operations the Markov machinery needs are provided as
/// explicit methods so they can iterate efficiently despite the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "DenseMatrix::from_vec",
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Ok(DenseMatrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "DenseMatrix::from_rows",
                    expected: (1, cols),
                    found: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access (panics on out-of-bounds, like slice indexing).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Element assignment (panics on out-of-bounds).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to entry `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c] += v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Matrix–vector product `y = A x`: [`DenseMatrix::matvec_multi_into`]
    /// with one column.
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
    /// ([`pool::should_parallelize`], entry visits = cells × columns) plus
    /// a sanity floor of two partitionable rows. Purely a scheduling
    /// decision — results are bitwise identical either way.
    #[inline]
    fn use_parallel(&self, columns: usize) -> bool {
        let cells = self.rows.saturating_mul(self.cols);
        self.rows >= 2 && pool::should_parallelize(cells.saturating_mul(columns))
    }

    /// Writes `out[t] = row(start + t) · x` for every element of `out`.
    /// One exclusive owner per output element; the summation order inside
    /// [`vector::dot`] is fixed, so any partitioning of the output rows
    /// yields bitwise-identical results.
    fn row_dots(&self, x: &[f64], start: usize, out: &mut [f64]) {
        for (t, yr) in out.iter_mut().enumerate() {
            let r = start + t;
            *yr = vector::dot(&self.data[r * self.cols..(r + 1) * self.cols], x);
        }
    }

    /// Block matrix–vector product `Y = A X` over column-major blocks:
    /// `xs` holds `q` input columns of length `cols` (`xs[c·cols ..
    /// (c+1)·cols]`), `ys` receives `q` output columns of length `rows`.
    ///
    /// This is the hot path of the T-Mark iteration: it writes into a
    /// caller-provided block and performs no allocation. Serially, one pass
    /// over the rows of `A` serves all `q` columns (each row stays
    /// cache-resident across the inner class loop); with free pool workers
    /// the output block is partitioned into `(class, row-range)` chunks
    /// computed concurrently. Every output cell is the same
    /// Kahan-compensated [`vector::dot`] of a row with a column, so each
    /// column is bit-for-bit identical to a one-column product, at any
    /// thread count.
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
                op: "matvec_multi",
                expected: (self.rows * q, self.cols * q),
                found: (ys.len(), xs.len()),
            });
        }
        if q > 0 && self.use_parallel(q) {
            let bounds = partition::uniform_bounds(self.rows);
            partition::run_col_chunks(bounds.as_slice(), ys, self.rows, |c, start, chunk| {
                self.row_dots(&xs[c * self.cols..(c + 1) * self.cols], start, chunk);
            });
        } else {
            for r in 0..self.rows {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                for c in 0..q {
                    ys[c * self.rows + r] =
                        vector::dot(row, &xs[c * self.cols..(c + 1) * self.cols]);
                }
            }
        }
        Ok(())
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_transpose",
                expected: (self.cols, self.rows),
                found: (0, x.len()),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            vector::axpy(xr, row, &mut y);
        }
        Ok(y)
    }

    /// Matrix–matrix product `C = A B`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                expected: (self.cols, self.cols),
                found: (other.rows, other.cols),
            });
        }
        let mut c = DenseMatrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop contiguous in both B and C.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut c.data[i * other.cols..(i + 1) * other.cols];
                vector::axpy(aik, brow, crow);
            }
        }
        Ok(c)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Normalizes every column to sum to one, making the matrix column
    /// stochastic (the construction of `W` in Eq. (9)).
    ///
    /// All-zero ("dangling") columns are replaced by the uniform column
    /// `1/rows`, mirroring the paper's dangling-node rule, so the result is
    /// always a genuine transition matrix. Returns the number of dangling
    /// columns replaced.
    pub fn normalize_columns_stochastic(&mut self) -> usize {
        if self.rows == 0 {
            return 0;
        }
        let uniform = 1.0 / self.rows as f64;
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &v) in row.iter().enumerate() {
                sums[c] += v;
            }
        }
        let mut dangling = 0;
        for s in sums.iter_mut() {
            if *s == 0.0 {
                dangling += 1;
                *s = -1.0; // marker: fill with uniform below
            }
        }
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (c, v) in row.iter_mut().enumerate() {
                if sums[c] < 0.0 {
                    *v = uniform;
                } else {
                    *v /= sums[c];
                }
            }
        }
        dangling
    }

    /// True when every column sums to one (within `tol`) and all entries are
    /// nonnegative.
    pub fn is_column_stochastic(&self, tol: f64) -> bool {
        if self.rows == 0 || self.cols == 0 {
            return false;
        }
        if self.data.iter().any(|&v| v < -tol || !v.is_finite()) {
            return false;
        }
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                sums[c] += self.data[r * self.cols + c];
            }
        }
        sums.iter().all(|s| (s - 1.0).abs() <= tol)
    }

    /// Elementwise map, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place elementwise addition of another matrix scaled by `alpha`.
    pub fn add_scaled(&mut self, other: &DenseMatrix, alpha: f64) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add_scaled",
                expected: self.shape(),
                found: other.shape(),
            });
        }
        vector::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm_l2(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn from_rows_empty_gives_0x0() {
        let m = DenseMatrix::from_rows(&[]).unwrap();
        assert_eq!(m.shape(), (0, 0));
    }

    #[test]
    fn identity_matvec_is_identity_map() {
        let i = DenseMatrix::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(i.matvec(&x).unwrap(), x);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        m.add_at(1, 2, 0.5);
        assert_eq!(m.get(1, 2), 8.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_panics_out_of_bounds() {
        sample().get(3, 0);
    }

    #[test]
    fn row_and_col_accessors() {
        let m = sample();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn matvec_checks_dimensions() {
        assert!(sample().matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_transpose_matches_explicit_transpose() {
        let m = sample();
        let x = vec![1.0, 0.5, 2.0];
        let via_t = m.transpose().matvec(&x).unwrap();
        let direct = m.matvec_transpose(&x).unwrap();
        for (a, b) in via_t.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[2.0, 1.0]);
        assert_eq!(c.row(1), &[4.0, 3.0]);
    }

    #[test]
    fn matmul_checks_inner_dimension() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn normalize_columns_makes_stochastic_and_fills_dangling() {
        let mut m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![3.0, 0.0]]).unwrap();
        let dangling = m.normalize_columns_stochastic();
        assert_eq!(dangling, 1);
        assert!(m.is_column_stochastic(1e-12));
        assert!((m.get(0, 0) - 0.25).abs() < 1e-12);
        assert!((m.get(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn is_column_stochastic_rejects_negative_entries() {
        let m = DenseMatrix::from_rows(&[vec![1.5], vec![-0.5]]).unwrap();
        assert!(!m.is_column_stochastic(1e-9));
    }

    #[test]
    fn map_and_add_scaled() {
        let m = sample();
        let doubled = m.map(|v| 2.0 * v);
        let mut acc = m.clone();
        acc.add_scaled(&m, 1.0).unwrap();
        assert_eq!(acc, doubled);
        assert!(acc.add_scaled(&DenseMatrix::zeros(1, 1), 1.0).is_err());
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((DenseMatrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn matvec_multi_matches_per_column_bitwise() {
        let m = sample(); // 3 x 2
        let q = 4;
        let xs: Vec<f64> = (0..2 * q).map(|i| (i as f64) * 0.37 - 1.0).collect();
        let mut ys = vec![f64::NAN; 3 * q];
        m.matvec_multi_into(&xs, q, &mut ys).unwrap();
        for c in 0..q {
            let x = &xs[c * 2..(c + 1) * 2];
            let single: Vec<f64> = (0..3).map(|r| vector::dot(m.row(r), x)).collect();
            assert_eq!(&ys[c * 3..(c + 1) * 3], single.as_slice(), "column {c}");
        }
        assert!(m.matvec_multi_into(&xs, q, &mut [0.0; 4]).is_err());
        assert!(m.matvec_multi_into(&xs[..5], q, &mut ys).is_err());
    }
}
