//! The user-facing model: fit a HIN, read predictions and rankings.

use std::fmt;

use tmark_hin::Hin;
use tmark_linalg::similarity::SimilarityMetric;
use tmark_linalg::DenseMatrix;
use tmark_markov::ConvergenceReport;

use crate::batch::{BatchSolver, BatchWorkspace};
use crate::config::{ConfigError, TMarkConfig};
use crate::ranking::LinkRanking;
use crate::solver::ClassStationary;

// The walk-mode vocabulary lives with the backends in
// `tmark-feature-walk`; re-exported here so model users keep writing
// `tmark::model::FeatureWalkMode`.
pub use tmark_feature_walk::{AnnParams, FeatureWalkMode};

/// Errors from [`TMarkModel::fit`].
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The configuration violated a Theorem 1–3 precondition.
    Config(ConfigError),
    /// No training nodes were supplied.
    NoTrainingNodes,
    /// A training node id exceeded the network size.
    TrainNodeOutOfRange(usize),
    /// A training node carries no ground-truth label.
    TrainNodeUnlabeled(usize),
    /// The solver for this class panicked (e.g. a poisoned iterate tripped
    /// a Theorem-1 assertion). The panic is caught on the worker so one
    /// bad class degrades into this error instead of aborting a sweep.
    ClassSolveFailed(usize),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Config(e) => write!(f, "invalid configuration: {e}"),
            FitError::NoTrainingNodes => write!(f, "fit requires at least one training node"),
            FitError::TrainNodeOutOfRange(v) => write!(f, "training node {v} out of range"),
            FitError::TrainNodeUnlabeled(v) => {
                write!(f, "training node {v} has no ground-truth label")
            }
            FitError::ClassSolveFailed(c) => {
                write!(f, "the solver for class {c} panicked")
            }
        }
    }
}

impl std::error::Error for FitError {}

impl From<ConfigError> for FitError {
    fn from(e: ConfigError) -> Self {
        FitError::Config(e)
    }
}

/// The fitted output: per-class stationary node confidences and link-type
/// relevances, plus convergence diagnostics.
#[derive(Debug, Clone)]
pub struct TMarkResult {
    /// `n × q`: confidence of node `i` for class `c` (each column is the
    /// stationary `x̄` of that class).
    confidences: DenseMatrix,
    /// `m × q`: relevance of link type `k` to class `c` (each column is
    /// the stationary `z̄`).
    link_scores: DenseMatrix,
    /// Convergence report of each class run.
    reports: Vec<ConvergenceReport>,
    link_type_names: Vec<String>,
    class_names: Vec<String>,
}

impl TMarkResult {
    /// Number of nodes scored.
    pub fn num_nodes(&self) -> usize {
        self.confidences.rows()
    }

    /// Number of classes scored.
    pub fn num_classes(&self) -> usize {
        self.confidences.cols()
    }

    /// Number of link types scored.
    pub fn num_link_types(&self) -> usize {
        self.link_scores.rows()
    }

    /// Confidence of `node` for `class`.
    pub fn confidence(&self, node: usize, class: usize) -> f64 {
        self.confidences.get(node, class)
    }

    /// The full confidence matrix (`n × q`).
    pub fn confidences(&self) -> &DenseMatrix {
        &self.confidences
    }

    /// The full link-relevance matrix (`m × q`).
    pub fn link_scores(&self) -> &DenseMatrix {
        &self.link_scores
    }

    /// Single-label prediction: the class with the highest confidence for
    /// `node` (ties toward the smaller class id).
    pub fn predict_single(&self, node: usize) -> usize {
        tmark_linalg::vector::argmax(self.confidences.row(node))
            .expect("q >= 1 enforced at fit time")
    }

    /// Single-label predictions for every node.
    pub fn predict_all_single(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .map(|v| self.predict_single(v))
            .collect()
    }

    /// Multi-label prediction: every class whose confidence is at least
    /// `theta` times the node's maximum confidence (`theta ∈ (0, 1]`;
    /// `theta = 1` reduces to the argmax set).
    pub fn predict_multi(&self, node: usize, theta: f64) -> Vec<usize> {
        let row = self.confidences.row(node);
        // Confidences are stationary probabilities; a NaN here is solver
        // corruption that `f64::max` folding would silently swallow.
        tmark_sparse_tensor::debug_assert_finite_nonnegative!(row, "node confidence row");
        let max = row
            .iter()
            .copied()
            .fold(0.0_f64, |m, v| if v.total_cmp(&m).is_gt() { v } else { m });
        if max.is_nan() || max <= 0.0 {
            return Vec::new();
        }
        row.iter()
            .enumerate()
            .filter(|&(_, &v)| v >= theta * max)
            .map(|(c, _)| c)
            .collect()
    }

    /// Node ranking within `class`: nodes ordered by their stationary
    /// class-`c` confidence (the RankClass-style "important nodes of each
    /// class" view the paper's related work contrasts with). Returns
    /// `(node, score)` pairs, ties broken toward the smaller id.
    pub fn node_ranking(&self, class: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = (0..self.num_nodes())
            .map(|v| (v, self.confidence(v, class)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// Link-type ranking for `class` (Table 2/5/9/10 of the paper).
    pub fn link_ranking(&self, class: usize) -> Vec<(usize, f64)> {
        LinkRanking::from_scores(&self.link_scores.col(class)).ranked
    }

    /// The top `k` link types of `class` with their names.
    pub fn top_links(&self, class: usize, k: usize) -> Vec<(String, f64)> {
        self.link_ranking(class)
            .into_iter()
            .take(k)
            .map(|(id, s)| (self.link_type_names[id].clone(), s))
            .collect()
    }

    /// Convergence diagnostics of the `class` run (Fig. 10 traces).
    pub fn convergence(&self, class: usize) -> &ConvergenceReport {
        &self.reports[class]
    }

    /// The class names, indexed by class id.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// The link-type names, indexed by relation id.
    pub fn link_type_names(&self) -> &[String] {
        &self.link_type_names
    }
}

/// The T-Mark estimator. Construct with a [`TMarkConfig`], then call
/// [`TMarkModel::fit`] with a [`Hin`] and the ids of the nodes whose labels
/// the algorithm may see.
#[derive(Debug, Clone)]
pub struct TMarkModel {
    config: TMarkConfig,
    feature_walk_mode: FeatureWalkMode,
    similarity: SimilarityMetric,
}

impl TMarkModel {
    /// Creates a model with the given hyper-parameters.
    pub fn new(config: TMarkConfig) -> Self {
        TMarkModel {
            config,
            feature_walk_mode: FeatureWalkMode::Auto,
            similarity: SimilarityMetric::Cosine,
        }
    }

    /// Overrides how the feature-walk operator `W` is materialized.
    pub fn with_feature_walk(mut self, mode: FeatureWalkMode) -> Self {
        self.feature_walk_mode = mode;
        self
    }

    /// Overrides the node-similarity metric used to build `W` (Section
    /// 4.2 defaults to cosine). Every metric works with every
    /// [`FeatureWalkMode`] — the exact top-k and approximate backends
    /// evaluate the chosen metric directly.
    pub fn with_similarity(mut self, metric: SimilarityMetric) -> Self {
        self.similarity = metric;
        self
    }

    /// The configuration this model runs with.
    pub fn config(&self) -> &TMarkConfig {
        &self.config
    }

    /// Fits the model: runs Algorithm 1 for every class in one lockstep
    /// [`crate::batch::BatchSolver`] pass whose kernels draw workers from
    /// the bounded solver pool (see [`crate::pool`]), using only the
    /// labels of `train_nodes` as supervision. The batched, parallel run
    /// is bit-identical to solving each class on its own serially.
    ///
    /// # Errors
    /// [`FitError`] on invalid configuration or training sets; see the
    /// enum's variants.
    pub fn fit(&self, hin: &Hin, train_nodes: &[usize]) -> Result<TMarkResult, FitError> {
        self.fit_impl(hin, train_nodes, None)
    }

    /// Incremental refit: like [`TMarkModel::fit`], but warm-started from
    /// a previous result on the *same network* (e.g. after more labels
    /// arrived). The fixed point is unique (Theorem 3), so the answer is
    /// unchanged; only the iteration count can shrink. The saving grows
    /// with tighter `epsilon` and smaller label-set changes; at the loose
    /// default tolerance the cold start is already only a handful of
    /// iterations, so the benefit there is modest.
    ///
    /// # Errors
    /// [`FitError`] as for [`TMarkModel::fit`]. A `previous` result whose
    /// shape disagrees with the network falls back to cold starts for the
    /// mismatching classes.
    pub fn fit_warm(
        &self,
        hin: &Hin,
        train_nodes: &[usize],
        previous: &TMarkResult,
    ) -> Result<TMarkResult, FitError> {
        self.fit_impl(hin, train_nodes, Some(previous))
    }

    fn fit_impl(
        &self,
        hin: &Hin,
        train_nodes: &[usize],
        previous: Option<&TMarkResult>,
    ) -> Result<TMarkResult, FitError> {
        self.config.validate()?;
        if train_nodes.is_empty() {
            return Err(FitError::NoTrainingNodes);
        }
        let n = hin.num_nodes();
        for &v in train_nodes {
            if v >= n {
                return Err(FitError::TrainNodeOutOfRange(v));
            }
            if hin.labels().labels_of(v).is_empty() {
                return Err(FitError::TrainNodeUnlabeled(v));
            }
        }
        let q = hin.num_classes();
        let m = hin.num_link_types();
        let stoch = hin.stochastic_tensors_ref();
        // The walk is memoized per `(mode, metric)` on the network and
        // shared via `Arc`: repeated fits on the same configuration reuse
        // the operator without re-building or cloning the n × n matrix.
        let w = hin.feature_walk(self.feature_walk_mode, self.similarity);

        // Per-class seed sets from the visible training labels.
        let mut seeds: Vec<Vec<usize>> = vec![Vec::new(); q];
        for &v in train_nodes {
            for &c in hin.labels().labels_of(v) {
                seeds[c].push(v);
            }
        }
        for s in seeds.iter_mut() {
            s.sort_unstable();
            s.dedup();
        }

        // One lockstep BatchSolver pass over all q classes: every iteration
        // makes one pass over the tensor nnz (and one over W) that serves
        // the whole class block, and the contraction kernels partition
        // their *outputs* over free pool permits internally (see
        // `tmark_linalg::partition`). Parallelism therefore lives inside
        // the kernels rather than across class groups — when the pool has
        // no free permits (e.g. inside a sweep already running at the cap)
        // the kernels run serially, so nesting never exceeds the cap, and
        // the result is bitwise identical either way.
        let config = self.config;
        // Per-class warm starts from the previous result, when its shape
        // matches this network (computed up front so the borrows outlive
        // the pool workers).
        let warm: Vec<Option<(Vec<f64>, Vec<f64>)>> = (0..q)
            .map(|c| {
                previous.and_then(|p| {
                    if p.num_nodes() == n && p.num_classes() == q && p.num_link_types() == m {
                        let x: Vec<f64> = (0..n).map(|v| p.confidence(v, c)).collect();
                        let z: Vec<f64> = (0..m).map(|k| p.link_scores().get(k, c)).collect();
                        Some((x, z))
                    } else {
                        None
                    }
                })
            })
            .collect();
        let classes: Vec<usize> = (0..q).collect();
        let solver = BatchSolver::new(stoch, &w, config);
        let batch_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ws = BatchWorkspace::default();
            solver.solve(&classes, &seeds, &warm, &mut ws)
        }));
        let solved = match batch_result {
            Ok(solved) => solved,
            Err(_) => solve_each_class_caught(&solver, &seeds, &warm)?,
        };

        let mut confidences = DenseMatrix::zeros(n, q);
        let mut link_scores = DenseMatrix::zeros(m, q);
        let mut reports = Vec::with_capacity(q);
        for out in solved {
            let c = out.class_id;
            for (i, &xi) in out.x.iter().enumerate() {
                confidences.set(i, c, xi);
            }
            for (k, &zk) in out.z.iter().enumerate() {
                link_scores.set(k, c, zk);
            }
            reports.push(out.report);
        }
        Ok(TMarkResult {
            confidences,
            link_scores,
            reports,
            link_type_names: hin.link_type_names().to_vec(),
            class_names: hin.labels().class_names().to_vec(),
        })
    }
}

/// The fit's fallback after the lockstep batch panicked: re-solves the
/// classes one at a time, each inside `catch_unwind`, to attribute the
/// failure to the poisoned class. A single-class solve is bitwise equal to
/// that class's column of the batch, so healthy classes keep their exact
/// solutions; the first class whose solve panics becomes
/// [`FitError::ClassSolveFailed`].
fn solve_each_class_caught(
    solver: &BatchSolver<'_>,
    seeds: &[Vec<usize>],
    warm: &[Option<(Vec<f64>, Vec<f64>)>],
) -> Result<Vec<ClassStationary>, FitError> {
    (0..seeds.len())
        .map(|c| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut ws = BatchWorkspace::default();
                solver.solve(&[c], seeds, warm, &mut ws)
            }))
            .ok()
            .and_then(|mut out| out.pop())
            .ok_or(FitError::ClassSolveFailed(c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmark_hin::HinBuilder;

    /// Two feature-aligned communities; link type 0 is intra-community
    /// ("relevant"), link type 1 crosses communities ("irrelevant").
    fn two_community_hin() -> Hin {
        let mut b = HinBuilder::new(
            2,
            vec!["relevant".into(), "irrelevant".into()],
            vec!["left".into(), "right".into()],
        );
        for i in 0..8 {
            let f = if i < 4 {
                vec![1.0, 0.1]
            } else {
                vec![0.1, 1.0]
            };
            let v = b.add_node(f);
            b.set_label(v, if i < 4 { 0 } else { 1 }).unwrap();
        }
        for &(u, v) in &[
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (4, 5),
            (5, 6),
            (6, 7),
            (4, 7),
        ] {
            b.add_undirected_edge(u, v, 0).unwrap();
        }
        for &(u, v) in &[(0, 4), (3, 7)] {
            b.add_undirected_edge(u, v, 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn per_class_retry_reports_panics_as_errors() {
        use crate::solver::FeatureWalk;
        let (stoch, w) = crate::batch::tests::community_setup();
        let seeds = vec![vec![0], vec![3]];
        let config = TMarkConfig::default();
        // Healthy classes: the one-at-a-time retry reproduces the batch.
        let healthy = BatchSolver::new(&stoch, &w, config);
        let retried = solve_each_class_caught(&healthy, &seeds, &[]).unwrap();
        let batch = healthy.solve(&[0, 1], &seeds, &[], &mut BatchWorkspace::default());
        for (a, b) in retried.iter().zip(&batch) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.report, b.report);
        }
        // Columns sum to 2 — smuggled past the constructor, tripping the
        // apply-time Theorem-1 assertion in debug builds.
        let bad = DenseMatrix::from_vec(6, 6, vec![2.0 / 6.0; 36]).unwrap();
        let w_bad = FeatureWalk::from_dense_unchecked(bad);
        let poisoned = BatchSolver::new(&stoch, &w_bad, config);
        let out = solve_each_class_caught(&poisoned, &seeds, &[]);
        if cfg!(debug_assertions) {
            assert_eq!(
                out.unwrap_err(),
                FitError::ClassSolveFailed(0),
                "poisoned walk must surface as Err"
            );
        } else {
            assert!(out.is_ok(), "release builds do not assert");
        }
    }

    #[test]
    fn fit_predicts_held_out_nodes_correctly() {
        let hin = two_community_hin();
        let model = TMarkModel::new(TMarkConfig::default());
        let result = model.fit(&hin, &[0, 4]).unwrap();
        for v in 0..8 {
            let expected = if v < 4 { 0 } else { 1 };
            assert_eq!(result.predict_single(v), expected, "node {v}");
        }
    }

    #[test]
    fn relevant_link_type_outranks_irrelevant_for_both_classes() {
        let hin = two_community_hin();
        let result = TMarkModel::new(TMarkConfig::default())
            .fit(&hin, &[0, 1, 4, 5])
            .unwrap();
        for class in 0..2 {
            let ranking = result.link_ranking(class);
            assert_eq!(ranking[0].0, 0, "class {class}: {ranking:?}");
        }
    }

    #[test]
    fn fit_validates_inputs() {
        let hin = two_community_hin();
        let model = TMarkModel::new(TMarkConfig::default());
        assert_eq!(model.fit(&hin, &[]).unwrap_err(), FitError::NoTrainingNodes);
        assert_eq!(
            model.fit(&hin, &[99]).unwrap_err(),
            FitError::TrainNodeOutOfRange(99)
        );
        let bad_config = TMarkConfig {
            alpha: 2.0,
            ..Default::default()
        };
        assert!(matches!(
            TMarkModel::new(bad_config).fit(&hin, &[0]).unwrap_err(),
            FitError::Config(_)
        ));
    }

    #[test]
    fn unlabeled_training_node_is_rejected() {
        let mut b = HinBuilder::new(1, vec!["r".into()], vec!["c".into()]);
        let u = b.add_node(vec![0.0]);
        let v = b.add_node(vec![1.0]);
        b.add_undirected_edge(u, v, 0).unwrap();
        b.set_label(u, 0).unwrap();
        let hin = b.build().unwrap();
        let err = TMarkModel::new(TMarkConfig::default())
            .fit(&hin, &[v])
            .unwrap_err();
        assert_eq!(err, FitError::TrainNodeUnlabeled(v));
    }

    #[test]
    fn result_shape_accessors() {
        let hin = two_community_hin();
        let result = TMarkModel::new(TMarkConfig::default())
            .fit(&hin, &[0, 4])
            .unwrap();
        assert_eq!(result.num_nodes(), 8);
        assert_eq!(result.num_classes(), 2);
        assert_eq!(result.num_link_types(), 2);
        assert_eq!(
            result.class_names(),
            &["left".to_string(), "right".to_string()]
        );
        assert_eq!(result.predict_all_single().len(), 8);
        assert_eq!(result.top_links(0, 1)[0].0, "relevant");
    }

    #[test]
    fn node_ranking_puts_seeds_and_their_community_first() {
        let hin = two_community_hin();
        let result = TMarkModel::new(TMarkConfig::default())
            .fit(&hin, &[0, 4])
            .unwrap();
        let ranking = result.node_ranking(0);
        assert_eq!(ranking[0].0, 0, "the seed tops its class ranking");
        // The left community (nodes 0..4) fills the top half.
        let top4: Vec<usize> = ranking[..4].iter().map(|&(v, _)| v).collect();
        for v in top4 {
            assert!(v < 4, "class-0 top-4 contains right-community node {v}");
        }
        // Scores descend.
        for w in ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn multi_label_prediction_thresholds_relative_to_max() {
        let hin = two_community_hin();
        let result = TMarkModel::new(TMarkConfig::default())
            .fit(&hin, &[0, 4])
            .unwrap();
        // theta = 1.0 keeps only the argmax class(es).
        let strict = result.predict_multi(1, 1.0);
        assert_eq!(strict, vec![result.predict_single(1)]);
        // A tiny theta admits every class with positive confidence.
        let loose = result.predict_multi(1, 1e-9);
        assert_eq!(loose, vec![0, 1]);
    }

    #[test]
    fn dense_and_knn_feature_walks_agree_on_small_networks() {
        let hin = two_community_hin();
        let dense = TMarkModel::new(TMarkConfig::default())
            .with_feature_walk(FeatureWalkMode::Dense)
            .fit(&hin, &[0, 4])
            .unwrap();
        let knn = TMarkModel::new(TMarkConfig::default())
            .with_feature_walk(FeatureWalkMode::Knn(16))
            .fit(&hin, &[0, 4])
            .unwrap();
        for v in 0..8 {
            assert_eq!(dense.predict_single(v), knn.predict_single(v), "node {v}");
        }
    }

    /// Like [`two_community_hin`] but with disjoint feature supports, so
    /// the set-based metrics (Jaccard, Hamming) also separate the
    /// communities instead of seeing every pair as identical.
    fn two_community_hin_disjoint_features() -> Hin {
        let mut b = HinBuilder::new(
            2,
            vec!["relevant".into(), "irrelevant".into()],
            vec!["left".into(), "right".into()],
        );
        for i in 0..8 {
            let f = if i < 4 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            let v = b.add_node(f);
            b.set_label(v, if i < 4 { 0 } else { 1 }).unwrap();
        }
        for &(u, v) in &[
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (4, 5),
            (5, 6),
            (6, 7),
            (4, 7),
        ] {
            b.add_undirected_edge(u, v, 0).unwrap();
        }
        for &(u, v) in &[(0, 4), (3, 7)] {
            b.add_undirected_edge(u, v, 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn knn_mode_accepts_every_similarity_metric() {
        // The exact top-k backend evaluates any metric; the historical
        // cosine-only restriction (FitError::KnnUnsupportedMetric) is gone.
        let hin = two_community_hin_disjoint_features();
        for metric in [
            SimilarityMetric::Jaccard,
            SimilarityMetric::Gaussian { sigma: 0.5 },
            SimilarityMetric::Hamming,
        ] {
            let result = TMarkModel::new(TMarkConfig::default())
                .with_feature_walk(FeatureWalkMode::Knn(4))
                .with_similarity(metric)
                .fit(&hin, &[0, 4])
                .unwrap();
            assert_eq!(result.num_classes(), 2, "{metric:?}");
            for v in 0..8 {
                let expected = if v < 4 { 0 } else { 1 };
                assert_eq!(result.predict_single(v), expected, "{metric:?} node {v}");
            }
        }
    }

    #[test]
    fn ann_mode_fits_and_classifies_the_communities() {
        let hin = two_community_hin();
        let result = TMarkModel::new(TMarkConfig::default())
            .with_feature_walk(FeatureWalkMode::Ann {
                k: 4,
                params: AnnParams::default(),
            })
            .fit(&hin, &[0, 4])
            .unwrap();
        for v in 0..8 {
            let expected = if v < 4 { 0 } else { 1 };
            assert_eq!(result.predict_single(v), expected, "node {v}");
        }
    }

    #[test]
    fn auto_mode_with_non_cosine_metric_stays_dense_on_small_networks() {
        let hin = two_community_hin();
        let result = TMarkModel::new(TMarkConfig::default())
            .with_similarity(SimilarityMetric::Gaussian { sigma: 0.5 })
            .fit(&hin, &[0, 4])
            .unwrap();
        assert_eq!(result.num_classes(), 2);
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point_faster() {
        let hin = two_community_hin();
        // TensorRrCc: the fixed point is unique given (seeds, config), so
        // cold and warm runs must agree exactly up to tolerance.
        let config = TMarkConfig {
            epsilon: 1e-12,
            ..TMarkConfig::default().tensor_rrcc()
        };
        let model = TMarkModel::new(config);
        let first = model.fit(&hin, &[0, 4]).unwrap();
        let cold = model.fit(&hin, &[0, 1, 4, 5]).unwrap();
        let warm = model.fit_warm(&hin, &[0, 1, 4, 5], &first).unwrap();
        for c in 0..2 {
            for v in 0..8 {
                assert!(
                    (cold.confidence(v, c) - warm.confidence(v, c)).abs() < 1e-8,
                    "node {v}, class {c}"
                );
            }
            assert!(
                warm.convergence(c).iterations <= cold.convergence(c).iterations,
                "warm start should not be slower (class {c}: {} vs {})",
                warm.convergence(c).iterations,
                cold.convergence(c).iterations
            );
        }
    }

    #[test]
    fn warm_start_with_mismatched_shape_falls_back_to_cold() {
        let hin = two_community_hin();
        let config = TMarkConfig::default().tensor_rrcc();
        let model = TMarkModel::new(config);
        // Build a previous result on a smaller network.
        let mut b = tmark_hin::HinBuilder::new(
            2,
            vec!["relevant".into(), "irrelevant".into()],
            vec!["left".into(), "right".into()],
        );
        let u = b.add_node(vec![1.0, 0.0]);
        let v = b.add_node(vec![0.0, 1.0]);
        b.add_undirected_edge(u, v, 0).unwrap();
        b.set_label(u, 0).unwrap();
        b.set_label(v, 1).unwrap();
        let small = b.build().unwrap();
        let prev = model.fit(&small, &[u, v]).unwrap();
        // Shapes disagree: must not panic, must match the cold result.
        let warm = model.fit_warm(&hin, &[0, 4], &prev).unwrap();
        let cold = model.fit(&hin, &[0, 4]).unwrap();
        assert_eq!(warm.confidences().as_slice(), cold.confidences().as_slice());
    }

    #[test]
    fn convergence_reports_are_exposed_per_class() {
        let hin = two_community_hin();
        let result = TMarkModel::new(TMarkConfig::default())
            .fit(&hin, &[0, 4])
            .unwrap();
        for c in 0..2 {
            let report = result.convergence(c);
            assert!(report.converged);
            assert!(!report.residual_trace.is_empty());
        }
    }
}
