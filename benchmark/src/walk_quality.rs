//! How faithful a built feature walk `W` is to the exact neighbourhoods
//! it approximates: sampled recall against a brute-force exact top-k
//! cosine computed here, and the count of columns left with no neighbour
//! but the node itself.

use tmark_feature_walk::FeatureWalk;
use tmark_linalg::DenseMatrix;

use crate::rng::SplitMix;

/// Columns checked against brute force: O(SAMPLES · n · d) work.
pub const SAMPLES: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkQuality {
    /// Mean share of the exact top-k of each sampled column that `W`
    /// keeps (columns with no positive-similarity neighbour are skipped).
    pub recall: f64,
    /// Columns whose only support is the node itself.
    pub empty_columns: usize,
}

/// Exact top-`k` cosine neighbours of `j` (self excluded, positive
/// similarity only), ordered by similarity descending then index.
fn exact_top_k(features: &DenseMatrix, norms: &[f64], j: usize, k: usize) -> Vec<usize> {
    let fj = features.row(j);
    let mut sims: Vec<(f64, usize)> = Vec::new();
    if norms[j] > 0.0 {
        for (i, &ni) in norms.iter().enumerate() {
            if i == j || ni == 0.0 {
                continue;
            }
            let dot: f64 = features.row(i).iter().zip(fj).map(|(a, b)| a * b).sum();
            let s = dot / (ni * norms[j]);
            if s > 0.0 {
                sims.push((s, i));
            }
        }
    }
    let order = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    if sims.len() > k && k > 0 {
        sims.select_nth_unstable_by(k - 1, order);
        sims.truncate(k);
    }
    sims.sort_by(order);
    sims.truncate(k);
    sims.into_iter().map(|(_, i)| i).collect()
}

/// Measures `w` against the exact top-`k` neighbourhoods of `features`.
pub fn measure(w: &FeatureWalk, features: &DenseMatrix, k: usize, seed: u64) -> WalkQuality {
    let n = features.rows();
    let mut cols: Vec<usize> = (0..n).collect();
    SplitMix::new(seed).shuffle(&mut cols);
    cols.truncate(SAMPLES);
    let mut slot = vec![usize::MAX; n];
    for (s, &c) in cols.iter().enumerate() {
        slot[c] = s;
    }

    // Off-diagonal supports of the sampled columns, and which columns
    // have any off-diagonal support at all.
    let mut support: Vec<Vec<usize>> = vec![Vec::new(); cols.len()];
    let mut has_other = vec![false; n];
    let mut visit = |r: usize, c: usize, v: f64| {
        if v > 0.0 && r != c {
            has_other[c] = true;
            if slot[c] != usize::MAX {
                support[slot[c]].push(r);
            }
        }
    };
    if let Some(sparse) = w.as_sparse() {
        for r in 0..sparse.rows() {
            for (c, v) in sparse.row_iter(r) {
                visit(r, c, v);
            }
        }
    } else if let Some(dense) = w.as_dense() {
        for r in 0..dense.rows() {
            for (c, &v) in dense.row(r).iter().enumerate() {
                visit(r, c, v);
            }
        }
    }

    let norms: Vec<f64> = (0..n)
        .map(|i| features.row(i).iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect();
    let mut total = 0.0;
    let mut counted = 0usize;
    for (s, &j) in cols.iter().enumerate() {
        let exact = exact_top_k(features, &norms, j, k);
        if exact.is_empty() {
            continue;
        }
        // Rows were visited in ascending order, so supports are sorted.
        let hits = exact
            .iter()
            .filter(|i| support[s].binary_search(i).is_ok())
            .count();
        total += hits as f64 / exact.len() as f64;
        counted += 1;
    }
    WalkQuality {
        recall: if counted == 0 {
            1.0
        } else {
            total / counted as f64
        },
        empty_columns: has_other.iter().filter(|&&h| !h).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmark_feature_walk::{build_walk, FeatureWalkMode};
    use tmark_linalg::similarity::SimilarityMetric;

    fn features() -> DenseMatrix {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let a = f64::from(i) * 0.37;
                vec![a.cos(), a.sin(), 0.1 * f64::from(i % 3)]
            })
            .collect();
        DenseMatrix::from_rows(&rows).expect("rectangular rows")
    }

    #[test]
    fn exact_walks_have_full_recall_and_no_empty_columns() {
        let f = features();
        for mode in [FeatureWalkMode::Dense, FeatureWalkMode::Knn(5)] {
            let w = build_walk(&f, mode, SimilarityMetric::Cosine).expect("small walk");
            let q = measure(&w, &f, 5, 3);
            assert_eq!(q.recall, 1.0, "{mode:?}");
            assert_eq!(q.empty_columns, 0, "{mode:?}");
        }
    }

    #[test]
    fn self_only_columns_count_as_empty() {
        let f = features();
        let w = FeatureWalk::from_dense(DenseMatrix::identity(40));
        let q = measure(&w, &f, 5, 3);
        assert_eq!(q.empty_columns, 40);
        assert_eq!(q.recall, 0.0);
    }
}
