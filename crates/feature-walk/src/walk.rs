//! The feature-walk operator `W` in dense or sparse form.

use tmark_linalg::{DenseMatrix, SparseMatrix};

use crate::WALK_TOL;

/// The feature-walk operator `W` in either dense or sparse form.
///
/// The paper's Eq. (9) builds a dense `n × n` cosine-similarity transition
/// matrix; for larger networks a k-nearest-neighbour sparsification keeps
/// the same column-stochastic semantics at `O(nk)` storage.
///
/// The representation is private so that every `FeatureWalk` flows through
/// a constructor that (in debug builds) verifies the column-stochastic
/// invariant Theorem 1 relies on. Use [`FeatureWalk::from_dense`] /
/// [`FeatureWalk::from_sparse`]; [`FeatureWalk::from_dense_unchecked`]
/// exists only for deliberately malformed operators in tests.
#[derive(Debug, Clone)]
pub struct FeatureWalk {
    repr: WalkRepr,
}

#[derive(Debug, Clone)]
enum WalkRepr {
    Dense(DenseMatrix),
    Sparse(SparseMatrix),
}

impl FeatureWalk {
    /// Wraps a dense column-stochastic `W` (Eq. 9), debug-asserting the
    /// invariant.
    pub fn from_dense(w: DenseMatrix) -> Self {
        if cfg!(debug_assertions) {
            debug_assert_eq!(w.rows(), w.cols(), "W must be square");
            debug_assert!(
                w.rows() == 0 || w.is_column_stochastic(WALK_TOL),
                "feature walk W must be column-stochastic (Eq. 9)"
            );
        }
        FeatureWalk {
            repr: WalkRepr::Dense(w),
        }
    }

    /// Wraps a sparse (kNN-truncated) column-stochastic `W`,
    /// debug-asserting the invariant.
    pub fn from_sparse(w: SparseMatrix) -> Self {
        if cfg!(debug_assertions) {
            debug_assert_eq!(w.rows(), w.cols(), "W must be square");
            debug_assert!(
                w.rows() == 0 || w.is_column_stochastic(WALK_TOL),
                "feature walk W must be column-stochastic (Eq. 9)"
            );
        }
        FeatureWalk {
            repr: WalkRepr::Sparse(w),
        }
    }

    /// Wraps a dense `W` without the construction-time check. The
    /// invariant is still enforced at [`FeatureWalk::apply`] time in debug
    /// builds; this exists so tests can prove that enforcement fires.
    pub fn from_dense_unchecked(w: DenseMatrix) -> Self {
        FeatureWalk {
            repr: WalkRepr::Dense(w),
        }
    }

    /// The dense matrix, when this walk is densely materialized.
    pub fn as_dense(&self) -> Option<&DenseMatrix> {
        match &self.repr {
            WalkRepr::Dense(w) => Some(w),
            WalkRepr::Sparse(_) => None,
        }
    }

    /// The sparse matrix, when this walk is sparsely materialized.
    pub fn as_sparse(&self) -> Option<&SparseMatrix> {
        match &self.repr {
            WalkRepr::Dense(_) => None,
            WalkRepr::Sparse(w) => Some(w),
        }
    }

    /// Batched `Y = W X` over column-major `n × q` blocks (`xs[c·n ..
    /// (c+1)·n]` is class `c`'s iterate), written into a caller-provided
    /// block of the same shape. This is the solver's hot-loop form: one
    /// pass over `W` serves all classes, it performs no heap allocation,
    /// and per column the result is bit-for-bit identical to a one-column
    /// call on that column.
    ///
    /// In debug builds every input column on the probability simplex is
    /// verified to map onto the simplex — the `W`-leg of Theorem 1. A
    /// non-stochastic `W` smuggled past the constructors is caught here.
    pub fn apply_multi_into(&self, xs: &[f64], q: usize, ys: &mut [f64]) {
        match &self.repr {
            WalkRepr::Dense(w) => w
                .matvec_multi_into(xs, q, ys)
                .expect("W shape fixed at construction"),
            WalkRepr::Sparse(w) => w
                .matvec_multi_into(xs, q, ys)
                .expect("W shape fixed at construction"),
        }
        if cfg!(debug_assertions) {
            let n = self.len();
            for c in 0..q {
                if tmark_sparse_tensor::invariants::simplex_violation(
                    &xs[c * n..(c + 1) * n],
                    WALK_TOL,
                )
                .is_none()
                {
                    tmark_sparse_tensor::debug_assert_simplex!(
                        &ys[c * n..(c + 1) * n],
                        WALK_TOL,
                        "feature walk application W x (Eq. 9)"
                    );
                }
            }
        }
    }

    /// `y = W x` as a freshly allocated vector:
    /// [`FeatureWalk::apply_multi_into`] with one column, which carries the
    /// invariant check. The `hot-loop-alloc` lint registers `apply` as an
    /// allocating call, so loop bodies must use the `_multi_into` form.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.len()];
        self.apply_multi_into(x, 1, &mut y);
        y
    }

    /// Number of nodes the operator acts on.
    pub fn len(&self) -> usize {
        match &self.repr {
            WalkRepr::Dense(w) => w.rows(),
            WalkRepr::Sparse(w) => w.rows(),
        }
    }

    /// True for a zero-node operator.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row indices with positive mass in column `j`, ascending — the
    /// neighbourhood support used by the recall@k comparison between exact
    /// and approximate backends. Allocates; not for hot loops.
    pub fn column_support(&self, j: usize) -> Vec<usize> {
        match &self.repr {
            WalkRepr::Dense(w) => (0..w.rows()).filter(|&i| w.get(i, j) > 0.0).collect(),
            WalkRepr::Sparse(w) => {
                let mut out = Vec::new();
                for i in 0..w.rows() {
                    if w.row_iter(i).any(|(c, v)| c == j && v > 0.0) {
                        out.push(i);
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_accessors_are_mutually_exclusive() {
        let d = FeatureWalk::from_dense(DenseMatrix::identity(3));
        assert!(d.as_dense().is_some() && d.as_sparse().is_none());
        let s = FeatureWalk::from_sparse(
            SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap(),
        );
        assert!(s.as_sparse().is_some() && s.as_dense().is_none());
        assert_eq!(d.len(), 3);
        assert_eq!(s.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn column_support_lists_positive_rows() {
        let d = FeatureWalk::from_dense(DenseMatrix::identity(3));
        assert_eq!(d.column_support(1), vec![1]);
        let s = FeatureWalk::from_sparse(
            SparseMatrix::from_triplets(
                3,
                3,
                &[(0, 0, 0.5), (2, 0, 0.5), (1, 1, 1.0), (2, 2, 1.0)],
            )
            .unwrap(),
        );
        assert_eq!(s.column_support(0), vec![0, 2]);
        assert_eq!(s.column_support(1), vec![1]);
    }
}
