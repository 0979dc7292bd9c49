//! The HIN container shared by all algorithms: cached derived operators
//! plus an epoch-tracked mutation API for the serving scenario.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use tmark_feature_walk::{build_walk, FeatureWalk, FeatureWalkMode};
use tmark_linalg::similarity::SimilarityMetric;
use tmark_linalg::{DenseMatrix, SparseMatrix};
use tmark_sparse_tensor::{SparseTensor3, StochasticTensors};

use crate::builder::{check_edge_weight, HinError};
use crate::labels::LabelStore;

/// Cache key for a materialized feature walk: the *resolved* mode (so
/// `Auto` shares an entry with whatever it resolves to) plus the metric.
type WalkKey = (FeatureWalkMode, SimilarityMetric);

/// Upper bound on cached feature walks. Each entry is an `O(n·d)`-to-
/// `O(n²)` object, and the `(mode, metric)` configuration space is small
/// but unbounded over a long-lived serving process (`Knn(k)` is keyed per
/// `k`), so the cache is a tiny LRU: a hit refreshes the entry, an
/// insertion past the cap evicts the least recently used walk. Evicted
/// walks stay alive for whoever still holds their `Arc`.
const WALK_CACHE_CAP: usize = 8;

/// A heterogeneous information network over one target node type.
///
/// Holds the adjacency tensor `A` (n × n × m), the node feature matrix
/// (n × d), the named link types, and the ground-truth labels. Built via
/// [`crate::HinBuilder`], then evolved — if at all — only through the
/// epoch-tracked mutation API ([`Hin::add_labels`], [`Hin::add_edges`],
/// [`Hin::add_node`]), so that every algorithm in a comparison observes
/// the same network unless the caller explicitly mutates it.
///
/// The expensive derived objects — the compressed stochastic tensor pair
/// `(O, R)` and the feature walks `W` of Eq. (9) — are memoized on first
/// use: repeated fits on the same network (evaluation sweeps, warm-started
/// refits, backend comparisons) pay the normalization and similarity costs
/// once per `(mode, metric)` configuration instead of per call, and
/// [`Hin::feature_walk`] hands out shared `Arc`s instead of clones. The
/// cached objects are built deterministically, so memoization cannot
/// change any result bitwise.
///
/// Every mutation bumps [`Hin::cache_epoch`] and either *patches* or
/// *invalidates* the caches so a stale operator can never be observed
/// (the decision table lives in DESIGN.md):
///
/// - label mutations touch neither `(O, R)` nor `W` — both caches survive;
/// - edge mutations re-normalize the cached `(O, R)` in place when every
///   edge lands on an already-stored coordinate, and drop it otherwise;
///   `W` depends only on features and survives;
/// - node additions change `n` (and with it the dangling-fiber analytics
///   and walk shapes) — both caches are dropped.
///
/// Mutations take `&mut self`, so a clone made *before* a mutation keeps
/// its own still-correct caches: the stochastic pair is cloned by value,
/// and the `Arc`-shared walks are immutable objects the mutated network
/// merely stops referencing.
#[derive(Debug)]
pub struct Hin {
    tensor: SparseTensor3,
    features: DenseMatrix,
    link_type_names: Vec<String>,
    labels: LabelStore,
    /// Bumped by every mutation; serving layers key prediction caches on
    /// it (see [`Hin::cache_epoch`]).
    epoch: u64,
    stoch_cache: OnceLock<StochasticTensors>,
    walk_cache: Mutex<Vec<(WalkKey, Arc<FeatureWalk>)>>,
}

impl Clone for Hin {
    fn clone(&self) -> Self {
        Hin {
            tensor: self.tensor.clone(),
            features: self.features.clone(),
            link_type_names: self.link_type_names.clone(),
            labels: self.labels.clone(),
            epoch: self.epoch,
            stoch_cache: self.stoch_cache.clone(),
            // Walks are immutable once built, so the clone shares them.
            walk_cache: Mutex::new(
                self.walk_cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl Hin {
    pub(crate) fn from_parts(
        tensor: SparseTensor3,
        features: DenseMatrix,
        link_type_names: Vec<String>,
        labels: LabelStore,
    ) -> Self {
        Hin {
            tensor,
            features,
            link_type_names,
            labels,
            epoch: 0,
            stoch_cache: OnceLock::new(),
            walk_cache: Mutex::new(Vec::new()),
        }
    }

    /// Assembles a network directly from pre-built bulk parts — the fast
    /// path for generated networks whose adjacency tensor was already
    /// built through a chunked [`SparseTensor3`] constructor, skipping
    /// the per-edge builder round trip entirely.
    ///
    /// The tensor is authoritative: the feature matrix must have one row
    /// per node, the label store must track exactly `n` nodes, and the
    /// link-type names must match the tensor's relation count.
    ///
    /// # Errors
    /// [`HinError::PartShapeMismatch`] naming the first disagreeing part.
    pub fn from_bulk(
        tensor: SparseTensor3,
        features: DenseMatrix,
        link_type_names: Vec<String>,
        labels: LabelStore,
    ) -> Result<Self, HinError> {
        let n = tensor.num_nodes();
        let m = tensor.num_relations();
        if features.rows() != n {
            return Err(HinError::PartShapeMismatch {
                what: "feature rows",
                expected: n,
                found: features.rows(),
            });
        }
        if labels.num_nodes() != n {
            return Err(HinError::PartShapeMismatch {
                what: "label-store nodes",
                expected: n,
                found: labels.num_nodes(),
            });
        }
        if link_type_names.len() != m {
            return Err(HinError::PartShapeMismatch {
                what: "link-type names",
                expected: m,
                found: link_type_names.len(),
            });
        }
        Ok(Hin::from_parts(tensor, features, link_type_names, labels))
    }

    /// The mutation epoch: starts at zero and is bumped by every
    /// [`Hin::add_labels`], [`Hin::add_edges`], and [`Hin::add_node`]
    /// call. Anything derived from a fit — prediction caches, serving
    /// snapshots — records the epoch it was computed at and treats a
    /// mismatch as stale.
    pub fn cache_epoch(&self) -> u64 {
        self.epoch
    }

    /// Records ground-truth class assignments `(node, class)`, multi-label
    /// capable and idempotent per pair.
    ///
    /// Labels feed only the restart vectors of Algorithm 1, never the
    /// cached `(O, R)` pair or the feature walks, so both caches survive;
    /// the epoch still advances because fitted results are now stale.
    /// Validation is all-or-nothing: on error the network is unchanged.
    ///
    /// # Errors
    /// [`HinError::UnknownNode`] / [`HinError::UnknownClass`] for bad ids.
    pub fn add_labels(&mut self, assignments: &[(usize, usize)]) -> Result<(), HinError> {
        let n = self.num_nodes();
        let q = self.num_classes();
        for &(node, c) in assignments {
            if node >= n {
                return Err(HinError::UnknownNode(node));
            }
            if c >= q {
                return Err(HinError::UnknownClass(c));
            }
        }
        for &(node, c) in assignments {
            self.labels.add_label(node, c);
        }
        self.epoch += 1;
        Ok(())
    }

    /// Adds weighted directed edges `(from, to, link_type, weight)` in the
    /// walk convention of [`crate::HinBuilder`]: the walker at `from` can
    /// move to `to`, stored as tensor entry `a_{to, from, k}`. Weights
    /// accumulate onto existing entries, exactly as parallel edges do at
    /// construction.
    ///
    /// When every (nonzero) edge lands on an already-stored coordinate,
    /// the cached `(O, R)` pair is re-normalized in place via
    /// [`StochasticTensors::patch_entries`] — `O(f log D)` for the touched
    /// fibers — and stays bitwise identical to a full rebuild. An edge
    /// creating a new entry changes the compressed layout, so the cache is
    /// dropped and rebuilt lazily on next use. The feature walks depend
    /// only on node features and survive either way. Validation is
    /// all-or-nothing: on error the network is unchanged.
    ///
    /// # Errors
    /// [`HinError::UnknownNode`] / [`HinError::UnknownLinkType`] /
    /// [`HinError::NonFiniteEdgeWeight`] / [`HinError::NegativeEdgeWeight`]
    /// per offending edge.
    pub fn add_edges(&mut self, edges: &[(usize, usize, usize, f64)]) -> Result<(), HinError> {
        let n = self.num_nodes();
        let m = self.num_link_types();
        for &(from, to, k, weight) in edges {
            if from >= n {
                return Err(HinError::UnknownNode(from));
            }
            if to >= n {
                return Err(HinError::UnknownNode(to));
            }
            if k >= m {
                return Err(HinError::UnknownLinkType(k));
            }
            check_edge_weight((from, to, k), weight)?;
        }
        // Walk direction from → to is tensor coordinate (i=to, j=from, k).
        let updates: Vec<(usize, usize, usize, f64)> = edges
            .iter()
            .map(|&(from, to, k, weight)| (to, from, k, weight))
            .collect();
        let summary = self
            .tensor
            .patch_entries(&updates)
            .unwrap_or_else(|e| unreachable!("edge updates validated above: {e}"));
        if summary.inserted == 0 {
            // Value-only change: the compressed layout is intact, so the
            // cached pair (if built) is re-normalized in place. Zero-weight
            // updates changed nothing and are not "touched".
            if let Some(stoch) = self.stoch_cache.get_mut() {
                let touched: Vec<(usize, usize, usize)> = updates
                    .iter()
                    .filter(|&&(_, _, _, weight)| weight != 0.0)
                    .map(|&(i, j, k, _)| (i, j, k))
                    .collect();
                stoch
                    .patch_entries(&self.tensor, &touched)
                    .unwrap_or_else(|e| {
                        unreachable!("value-only patch of a pair built from this tensor: {e}")
                    });
            }
        } else {
            // Structural change: drop the pair, rebuild lazily.
            self.stoch_cache.take();
        }
        self.epoch += 1;
        Ok(())
    }

    /// Adds an isolated node with the given feature vector, returning its
    /// id. New nodes start unlabeled and unlinked; follow up with
    /// [`Hin::add_labels`] / [`Hin::add_edges`].
    ///
    /// Growing `n` changes the dangling-fiber denominators of the `(O, R)`
    /// pair and the shape of every feature walk, so *both* caches are
    /// dropped and rebuilt lazily on next use (walks shared with clones
    /// stay alive through their `Arc`s). Validation is all-or-nothing: on
    /// error the network is unchanged.
    ///
    /// # Errors
    /// [`HinError::FeatureDimMismatch`] on a wrong-length feature vector;
    /// [`HinError::TooManyNodes`] past the packed `u32` index width.
    pub fn add_node(&mut self, features: Vec<f64>) -> Result<usize, HinError> {
        let d = self.feature_dim();
        if features.len() != d {
            return Err(HinError::FeatureDimMismatch {
                expected: d,
                found: features.len(),
            });
        }
        let new_id = self.num_nodes();
        self.tensor
            .grow_nodes(new_id + 1)
            .map_err(|_| HinError::TooManyNodes {
                requested: new_id + 1,
            })?;
        let mut data = self.features.as_slice().to_vec();
        data.extend_from_slice(&features);
        self.features = DenseMatrix::from_vec(new_id + 1, d, data)
            .unwrap_or_else(|e| unreachable!("feature row length validated above: {e}"));
        self.labels.grow(new_id + 1);
        self.stoch_cache.take();
        self.walk_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.epoch += 1;
        Ok(new_id)
    }

    /// Number of target nodes `n`.
    pub fn num_nodes(&self) -> usize {
        self.tensor.num_nodes()
    }

    /// Number of link types `m`.
    pub fn num_link_types(&self) -> usize {
        self.tensor.num_relations()
    }

    /// Number of classes `q`.
    pub fn num_classes(&self) -> usize {
        self.labels.num_classes()
    }

    /// Feature dimensionality `d`.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// The adjacency tensor `A`.
    pub fn tensor(&self) -> &SparseTensor3 {
        &self.tensor
    }

    /// Normalizes the adjacency tensor into the `(O, R)` transition pair.
    ///
    /// The pair is built once and memoized; this returns a clone of the
    /// cached value. Solvers on a hot path should prefer
    /// [`Hin::stochastic_tensors_ref`], which hands out the cached
    /// reference without copying the compressed arrays.
    pub fn stochastic_tensors(&self) -> StochasticTensors {
        self.stochastic_tensors_ref().clone()
    }

    /// The memoized `(O, R)` transition pair, built on first use.
    pub fn stochastic_tensors_ref(&self) -> &StochasticTensors {
        self.stoch_cache
            .get_or_init(|| StochasticTensors::from_tensor(&self.tensor))
    }

    /// The memoized feature walk `W` of Eq. (9) for the given mode and
    /// metric, built on first use and shared via `Arc` — repeated fits on
    /// the same configuration allocate nothing. `Auto` is resolved by
    /// network size before keying, so it shares the cache entry of the
    /// concrete mode it resolves to. Walk construction is deterministic
    /// (bitwise thread-cap invariant for the exact backends, seed-pinned
    /// for the approximate one), so the cache cannot change any result.
    ///
    /// The cache holds at most [`WALK_CACHE_CAP`] walks in LRU order; an
    /// eviction only drops this network's reference, so walks shared with
    /// clones or earlier callers survive through their `Arc`s.
    pub fn feature_walk(
        &self,
        mode: FeatureWalkMode,
        metric: SimilarityMetric,
    ) -> Arc<FeatureWalk> {
        let key = (mode.resolve(self.features.rows()), metric);
        let mut cache = self
            .walk_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
            // Refresh the hit to the front so the cap evicts the least
            // recently used configuration.
            let hit = cache.remove(pos);
            let walk = Arc::clone(&hit.1);
            cache.insert(0, hit);
            return walk;
        }
        // Built under the lock: concurrent first requests for the same
        // configuration would otherwise race to do O(n²·d) work twice.
        // The node count was validated against the packed-index width by
        // `SparseTensor3::from_entries` when this Hin was built (and
        // re-validated by every `grow_nodes`), and the feature matrix has
        // one row per node, so the walk builders' overflow arm cannot
        // fire here.
        let walk = Arc::new(
            build_walk(&self.features, key.0, metric).unwrap_or_else(|e| {
                unreachable!("node width validated at tensor construction: {e}")
            }),
        );
        cache.insert(0, (key, Arc::clone(&walk)));
        cache.truncate(WALK_CACHE_CAP);
        walk
    }

    /// The node feature matrix (one row per node).
    pub fn features(&self) -> &DenseMatrix {
        &self.features
    }

    /// The ground-truth labels.
    pub fn labels(&self) -> &LabelStore {
        &self.labels
    }

    /// The link-type names, indexed by relation id.
    pub fn link_type_names(&self) -> &[String] {
        &self.link_type_names
    }

    /// Name of link type `k`.
    pub fn link_type_name(&self, k: usize) -> &str {
        &self.link_type_names[k]
    }

    /// Relation id of the link type called `name`, if any.
    pub fn link_type_by_name(&self, name: &str) -> Option<usize> {
        self.link_type_names.iter().position(|n| n == name)
    }

    /// The adjacency matrix of a single relation as a sparse matrix
    /// (`adj[i][j] = a_{i,j,k}`).
    pub fn relation_adjacency(&self, k: usize) -> SparseMatrix {
        assert!(k < self.num_link_types(), "relation {k} out of bounds");
        let triplets: Vec<(usize, usize, f64)> = self
            .tensor
            .entries_for_relation(k)
            .iter()
            .map(|e| (e.i, e.j, e.value))
            .collect();
        SparseMatrix::from_triplets(self.num_nodes(), self.num_nodes(), &triplets)
            .expect("tensor coordinates are in bounds")
    }

    /// The relation-aggregated adjacency `Σ_k A_k` (used by the ICA
    /// baseline, which merges all link types).
    pub fn aggregated_adjacency(&self) -> SparseMatrix {
        self.tensor.aggregate_relations()
    }

    /// Neighbours of `node` reachable by following any link out of it
    /// (i.e. the `i` with `a_{i,node,k} > 0` for some `k`), deduplicated
    /// and sorted.
    pub fn out_neighbors(&self, node: usize) -> Vec<usize> {
        let mut ns: Vec<usize> = self
            .tensor
            .entries()
            .iter()
            .filter(|e| e.j == node)
            .map(|e| e.i)
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HinBuilder;

    fn tiny_hin() -> Hin {
        let mut b = HinBuilder::new(
            2,
            vec!["cites".into(), "same-conf".into()],
            vec!["DM".into(), "CV".into()],
        );
        let a = b.add_node(vec![1.0, 0.0]);
        let c = b.add_node(vec![0.0, 1.0]);
        let d = b.add_node(vec![0.5, 0.5]);
        b.add_directed_edge(a, c, 0).unwrap();
        b.add_undirected_edge(c, d, 1).unwrap();
        b.set_label(a, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn from_bulk_validates_every_part_against_the_tensor() {
        let parts = || {
            let tensor =
                SparseTensor3::from_entries(3, 1, vec![(1, 0, 0, 1.0), (0, 1, 0, 1.0)]).unwrap();
            let features =
                DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]]).unwrap();
            let labels = LabelStore::from_single_labels(&[0, 1, 0], vec!["a".into(), "b".into()]);
            (tensor, features, labels)
        };
        let (tensor, features, labels) = parts();
        let h = Hin::from_bulk(tensor, features, vec!["cites".into()], labels).unwrap();
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_link_types(), 1);
        assert_eq!(h.tensor().get(1, 0, 0), 1.0);

        let (tensor, features, labels) = parts();
        let err =
            Hin::from_bulk(tensor, features, vec!["a".into(), "b".into()], labels).unwrap_err();
        assert_eq!(
            err,
            HinError::PartShapeMismatch {
                what: "link-type names",
                expected: 1,
                found: 2,
            }
        );

        let (tensor, _, labels) = parts();
        let short = DenseMatrix::from_rows(&[vec![1.0], vec![0.0]]).unwrap();
        let err = Hin::from_bulk(tensor, short, vec!["cites".into()], labels).unwrap_err();
        assert_eq!(
            err,
            HinError::PartShapeMismatch {
                what: "feature rows",
                expected: 3,
                found: 2,
            }
        );

        let (tensor, features, _) = parts();
        let labels = LabelStore::from_single_labels(&[0], vec!["a".into(), "b".into()]);
        let err = Hin::from_bulk(tensor, features, vec!["cites".into()], labels).unwrap_err();
        assert_eq!(
            err,
            HinError::PartShapeMismatch {
                what: "label-store nodes",
                expected: 3,
                found: 1,
            }
        );
    }

    #[test]
    fn accessors_report_shapes() {
        let h = tiny_hin();
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_link_types(), 2);
        assert_eq!(h.num_classes(), 2);
        assert_eq!(h.feature_dim(), 2);
        assert_eq!(h.link_type_name(0), "cites");
        assert_eq!(h.link_type_by_name("same-conf"), Some(1));
        assert_eq!(h.link_type_by_name("nope"), None);
    }

    #[test]
    fn relation_adjacency_selects_one_slice() {
        let h = tiny_hin();
        let cites = h.relation_adjacency(0);
        // Directed edge a -> c stored as tensor entry (i=c, j=a).
        assert_eq!(cites.get(1, 0), 1.0);
        assert_eq!(cites.nnz(), 1);
        let conf = h.relation_adjacency(1);
        assert_eq!(conf.nnz(), 2);
    }

    #[test]
    fn aggregated_adjacency_sums_relations() {
        let h = tiny_hin();
        assert_eq!(h.aggregated_adjacency().nnz(), 3);
    }

    #[test]
    fn out_neighbors_follow_walk_direction() {
        let h = tiny_hin();
        assert_eq!(h.out_neighbors(0), vec![1]);
        assert_eq!(h.out_neighbors(1), vec![2]);
        assert_eq!(h.out_neighbors(2), vec![1]);
    }

    #[test]
    fn stochastic_tensors_share_shape() {
        let h = tiny_hin();
        let s = h.stochastic_tensors();
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_relations(), 2);
    }

    #[test]
    fn feature_walks_are_cached_per_configuration_and_shared() {
        let h = tiny_hin();
        let dense = h.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        // Auto resolves to Dense at n = 3, so it must hit the same entry.
        let auto = h.feature_walk(FeatureWalkMode::Auto, SimilarityMetric::Cosine);
        assert!(Arc::ptr_eq(&dense, &auto));
        let again = h.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        assert!(Arc::ptr_eq(&dense, &again));
        // A different mode or metric is a different entry.
        let knn = h.feature_walk(FeatureWalkMode::Knn(2), SimilarityMetric::Cosine);
        assert!(!Arc::ptr_eq(&dense, &knn));
        assert!(knn.as_sparse().is_some());
        let jac = h.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Jaccard);
        assert!(!Arc::ptr_eq(&dense, &jac));
    }

    #[test]
    fn cloned_networks_share_already_built_walks() {
        let h = tiny_hin();
        let before = h.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        let copy = h.clone();
        let shared = copy.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        assert!(Arc::ptr_eq(&before, &shared));
    }

    #[test]
    fn add_labels_keeps_caches_and_bumps_epoch() {
        let mut h = tiny_hin();
        let walk = h.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        h.stochastic_tensors_ref();
        assert_eq!(h.cache_epoch(), 0);
        h.add_labels(&[(1, 1), (2, 0)]).unwrap();
        assert_eq!(h.cache_epoch(), 1);
        assert_eq!(h.labels().labels_of(1), &[1]);
        // Neither cache was dropped.
        assert!(h.stoch_cache.get().is_some());
        let again = h.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        assert!(Arc::ptr_eq(&walk, &again));
        // Validation is all-or-nothing.
        assert_eq!(
            h.add_labels(&[(0, 0), (9, 0)]).unwrap_err(),
            HinError::UnknownNode(9)
        );
        assert_eq!(
            h.add_labels(&[(0, 7)]).unwrap_err(),
            HinError::UnknownClass(7)
        );
        assert!(h.labels().labels_of(0) == &[0usize][..]);
        assert_eq!(h.cache_epoch(), 1);
    }

    #[test]
    fn add_edges_patches_or_drops_the_stochastic_cache() {
        let mut h = tiny_hin();
        h.stochastic_tensors_ref();
        // Re-weighting the existing a -> c edge is a value-only patch.
        h.add_edges(&[(0, 1, 0, 2.0)]).unwrap();
        assert_eq!(h.cache_epoch(), 1);
        assert!(h.stoch_cache.get().is_some(), "value patch keeps the cache");
        assert_eq!(h.tensor().get(1, 0, 0), 3.0);
        // A brand-new coordinate is structural: the cache is dropped.
        h.add_edges(&[(0, 2, 0, 1.0)]).unwrap();
        assert!(h.stoch_cache.get().is_none(), "insertion drops the cache");
        assert_eq!(h.cache_epoch(), 2);
        // Error paths leave the network untouched.
        assert_eq!(
            h.add_edges(&[(0, 1, 5, 1.0)]).unwrap_err(),
            HinError::UnknownLinkType(5)
        );
        assert_eq!(
            h.add_edges(&[(0, 1, 0, -2.0)]).unwrap_err(),
            HinError::NegativeEdgeWeight { edge: (0, 1, 0) }
        );
        assert_eq!(
            h.add_edges(&[(0, 1, 0, 1.0), (1, 0, 0, f64::NAN)])
                .unwrap_err(),
            HinError::NonFiniteEdgeWeight { edge: (1, 0, 0) }
        );
        assert_eq!(h.tensor().get(1, 0, 0), 3.0);
        assert_eq!(h.cache_epoch(), 2);
    }

    #[test]
    fn add_node_drops_both_caches_and_grows_every_plane() {
        let mut h = tiny_hin();
        h.stochastic_tensors_ref();
        h.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        let id = h.add_node(vec![0.25, 0.75]).unwrap();
        assert_eq!(id, 3);
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.features().row(3), &[0.25, 0.75]);
        assert!(h.labels().labels_of(3).is_empty());
        assert!(h.stoch_cache.get().is_none());
        assert!(h
            .walk_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty());
        assert_eq!(h.cache_epoch(), 1);
        // The new node is immediately linkable and labelable.
        h.add_edges(&[(id, 0, 0, 1.0)]).unwrap();
        h.add_labels(&[(id, 1)]).unwrap();
        assert_eq!(h.stochastic_tensors_ref().num_nodes(), 4);
        // Wrong feature dimension is rejected without mutating.
        assert_eq!(
            h.add_node(vec![1.0]).unwrap_err(),
            HinError::FeatureDimMismatch {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(h.num_nodes(), 4);
    }

    #[test]
    fn mutating_a_network_does_not_disturb_prior_clones() {
        let mut h = tiny_hin();
        let frozen = h.clone();
        let frozen_walk = frozen.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        h.stochastic_tensors_ref();
        h.add_edges(&[(0, 1, 0, 4.0)]).unwrap();
        h.add_node(vec![0.0, 1.0]).unwrap();
        // The clone still answers from its own unmutated state.
        assert_eq!(frozen.num_nodes(), 3);
        assert_eq!(frozen.tensor().get(1, 0, 0), 1.0);
        assert_eq!(frozen.cache_epoch(), 0);
        let again = frozen.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
        assert!(Arc::ptr_eq(&frozen_walk, &again));
        assert_eq!(
            frozen.stochastic_tensors_ref().num_nodes(),
            3,
            "clone rebuilds from its own tensor"
        );
    }

    #[test]
    fn walk_cache_is_a_bounded_lru() {
        let h = tiny_hin();
        // Fill past the cap with distinct Knn(k) configurations, touching
        // the first entry periodically so it stays recent.
        let first = h.feature_walk(FeatureWalkMode::Knn(1), SimilarityMetric::Cosine);
        for k in 2..=WALK_CACHE_CAP + 1 {
            h.feature_walk(FeatureWalkMode::Knn(k), SimilarityMetric::Cosine);
        }
        {
            let cache = h.walk_cache.lock().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(cache.len(), WALK_CACHE_CAP, "cap bounds the cache");
        }
        // Knn(1) was the least recently used entry: it must have been
        // evicted, so asking again builds a fresh walk.
        let rebuilt = h.feature_walk(FeatureWalkMode::Knn(1), SimilarityMetric::Cosine);
        assert!(!Arc::ptr_eq(&first, &rebuilt), "LRU evicted the oldest");
    }

    #[test]
    fn walk_cache_hits_refresh_recency() {
        let h = tiny_hin();
        let a = h.feature_walk(FeatureWalkMode::Knn(1), SimilarityMetric::Cosine);
        let b = h.feature_walk(FeatureWalkMode::Knn(2), SimilarityMetric::Cosine);
        // Touch `a` so `b` becomes the least recently used, then push
        // exactly enough fresh configurations to evict one entry.
        let _ = h.feature_walk(FeatureWalkMode::Knn(1), SimilarityMetric::Cosine);
        for k in 10..10 + WALK_CACHE_CAP - 1 {
            h.feature_walk(FeatureWalkMode::Knn(k), SimilarityMetric::Cosine);
        }
        let a_again = h.feature_walk(FeatureWalkMode::Knn(1), SimilarityMetric::Cosine);
        assert!(Arc::ptr_eq(&a, &a_again), "refreshed entry survived");
        let b_again = h.feature_walk(FeatureWalkMode::Knn(2), SimilarityMetric::Cosine);
        assert!(!Arc::ptr_eq(&b, &b_again), "stale entry was evicted");
    }
}
