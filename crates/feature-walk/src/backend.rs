//! The backend trait and the mode → backend dispatcher.

use std::fmt;

use tmark_linalg::similarity::SimilarityMetric;
use tmark_linalg::DenseMatrix;

use crate::ann::AnnBackend;
use crate::dense::DenseBackend;
use crate::knn::KnnBackend;
use crate::mode::FeatureWalkMode;
use crate::walk::FeatureWalk;

/// Errors produced by walk construction.
///
/// Features arrive unvalidated (any `n × d` matrix), so the sparse
/// backends — which pack node indices as `u32` in their top-`k` and
/// candidate buffers — validate the node count up front and return a
/// typed error instead of wrapping at scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkError {
    /// The feature matrix has more rows than the packed `u32` node
    /// indices can address. Validating here, once, is what lets the
    /// sweep/emit kernels cast raw (see the `[lossy-cast]` allowlist in
    /// xtask/hot-paths.toml).
    IndexOverflow {
        /// The declared node count.
        nodes: usize,
        /// The largest representable node count.
        limit: usize,
    },
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::IndexOverflow { nodes, limit } => write!(
                f,
                "node count {nodes} exceeds the packed-index limit {limit}; \
                 the sparse walk backends store neighbour indices as u32"
            ),
        }
    }
}

impl std::error::Error for WalkError {}

/// Rejects node counts whose largest index does not fit the `u32`
/// neighbour buffers. Shared by the sparse backends; `n - 1` rather than
/// `n` so the comparison cannot overflow on 32-bit usize.
pub(crate) fn check_node_width(n: usize) -> Result<(), WalkError> {
    let limit = u32::MAX as usize;
    if n > 0 && n - 1 > limit {
        return Err(WalkError::IndexOverflow {
            nodes: n,
            limit: limit + 1,
        });
    }
    Ok(())
}

/// A strategy for materializing the feature-walk operator `W` (Eq. 9)
/// from an `n × d` node-feature matrix.
///
/// Every implementation must emit a column-stochastic operator — the
/// [`FeatureWalk`] constructors debug-assert it, and each backend
/// additionally asserts it on the raw matrix it builds, so a
/// normalization bug is caught at the offending backend rather than at
/// first solver use.
pub trait WalkBackend {
    /// Short stable identifier (`"dense"`, `"knn"`, `"ann"`) used in
    /// benchmark reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Builds the column-stochastic walk operator from node features
    /// (rows are nodes, columns are feature dimensions).
    ///
    /// # Errors
    /// [`WalkError::IndexOverflow`] when the node count exceeds what the
    /// backend's packed indices can represent.
    fn build(&self, features: &DenseMatrix) -> Result<FeatureWalk, WalkError>;
}

/// Builds `W` for the given mode and metric, resolving
/// [`FeatureWalkMode::Auto`] by network size. This is the single entry
/// point the model layer and the `Hin` walk cache go through.
///
/// # Errors
/// [`WalkError::IndexOverflow`] when the node count exceeds what the
/// selected backend's packed indices can represent.
pub fn build_walk(
    features: &DenseMatrix,
    mode: FeatureWalkMode,
    metric: SimilarityMetric,
) -> Result<FeatureWalk, WalkError> {
    match mode.resolve(features.rows()) {
        FeatureWalkMode::Dense => DenseBackend::new(metric).build(features),
        FeatureWalkMode::Knn(k) => KnnBackend::new(metric, k).build(features),
        FeatureWalkMode::Ann { k, params } => AnnBackend::new(metric, k, params).build(features),
        // `resolve` canonicalizes `Auto` away.
        FeatureWalkMode::Auto => unreachable!("FeatureWalkMode::resolve returned Auto"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_walk_dispatches_auto_to_dense_on_small_networks() {
        let mut f = DenseMatrix::zeros(3, 2);
        f.set(0, 0, 1.0);
        f.set(1, 1, 1.0);
        f.set(2, 0, 1.0);
        let w = build_walk(&f, FeatureWalkMode::Auto, SimilarityMetric::Cosine).unwrap();
        assert!(w.as_dense().is_some());
        let s = build_walk(&f, FeatureWalkMode::Knn(2), SimilarityMetric::Cosine).unwrap();
        assert!(s.as_sparse().is_some());
    }

    #[test]
    fn check_node_width_accepts_the_boundary_and_rejects_past_it() {
        assert_eq!(check_node_width(0), Ok(()));
        assert_eq!(check_node_width(1), Ok(()));
        #[cfg(target_pointer_width = "64")]
        {
            assert_eq!(check_node_width(u32::MAX as usize + 1), Ok(()));
            assert_eq!(
                check_node_width(u32::MAX as usize + 2),
                Err(WalkError::IndexOverflow {
                    nodes: u32::MAX as usize + 2,
                    limit: u32::MAX as usize + 1,
                })
            );
        }
    }
}
