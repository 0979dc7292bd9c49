//! Mutable construction of a [`Hin`].

use std::fmt;

use tmark_linalg::DenseMatrix;
use tmark_sparse_tensor::SparseTensor3;

use crate::labels::LabelStore;
use crate::network::Hin;

/// Errors raised while assembling a HIN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HinError {
    /// A node id referenced before being added.
    UnknownNode(usize),
    /// A link-type id outside the declared set.
    UnknownLinkType(usize),
    /// A class id outside the declared set.
    UnknownClass(usize),
    /// A feature vector whose length disagrees with the first node's.
    FeatureDimMismatch {
        /// Expected dimensionality (set by the first node).
        expected: usize,
        /// Supplied dimensionality.
        found: usize,
    },
    /// `build` was called with no nodes.
    NoNodes,
    /// The builder was declared with no link types.
    NoLinkTypes,
    /// A negative edge weight was supplied; the adjacency tensor is
    /// nonnegative by definition (Section 3.1).
    NegativeEdgeWeight {
        /// The offending walk-direction edge `(from, to, link_type)`.
        edge: (usize, usize, usize),
    },
    /// A NaN or infinite edge weight was supplied.
    NonFiniteEdgeWeight {
        /// The offending walk-direction edge `(from, to, link_type)`.
        edge: (usize, usize, usize),
    },
    /// Growing the network would exceed the packed-index width of the
    /// tensor kernels (node indices are stored as `u32`).
    TooManyNodes {
        /// The requested node count.
        requested: usize,
    },
    /// Bulk parts handed to [`crate::Hin::from_bulk`] disagree on a
    /// dimension the tensor fixed.
    PartShapeMismatch {
        /// Which part disagrees (feature rows, label-store nodes, …).
        what: &'static str,
        /// The tensor's value for that dimension.
        expected: usize,
        /// The disagreeing part's value.
        found: usize,
    },
}

impl fmt::Display for HinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HinError::UnknownNode(v) => write!(f, "unknown node id {v}"),
            HinError::UnknownLinkType(k) => write!(f, "unknown link type id {k}"),
            HinError::UnknownClass(c) => write!(f, "unknown class id {c}"),
            HinError::FeatureDimMismatch { expected, found } => {
                write!(f, "feature vector of length {found}, expected {expected}")
            }
            HinError::NoNodes => write!(f, "a HIN needs at least one node"),
            HinError::NoLinkTypes => write!(f, "a HIN needs at least one link type"),
            HinError::NegativeEdgeWeight { edge } => write!(
                f,
                "negative weight on edge ({}, {}, {}); the adjacency tensor is nonnegative",
                edge.0, edge.1, edge.2
            ),
            HinError::NonFiniteEdgeWeight { edge } => write!(
                f,
                "non-finite weight on edge ({}, {}, {}); edge weights must be finite",
                edge.0, edge.1, edge.2
            ),
            HinError::TooManyNodes { requested } => write!(
                f,
                "node count {requested} exceeds the packed-index width of the tensor kernels"
            ),
            HinError::PartShapeMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "bulk part mismatch: {what} is {found}, the tensor fixes {expected}"
            ),
        }
    }
}

impl std::error::Error for HinError {}

/// The weight contract of every edge: finite and nonnegative, as the
/// adjacency tensor requires of its entries.
pub(crate) fn check_edge_weight(edge: (usize, usize, usize), weight: f64) -> Result<(), HinError> {
    if !weight.is_finite() {
        return Err(HinError::NonFiniteEdgeWeight { edge });
    }
    if weight < 0.0 {
        return Err(HinError::NegativeEdgeWeight { edge });
    }
    Ok(())
}

/// Incrementally assembles nodes, edges, and labels into a [`Hin`].
///
/// Edge direction follows the random-walk convention of the paper: a
/// directed edge `from → to` means the walker standing at `from` can move
/// to `to`, i.e. the tensor entry `a_{to, from, k}` is set (so that Eq. (1)
/// normalizes over the destinations of each source).
#[derive(Debug, Clone)]
pub struct HinBuilder {
    feature_dim: usize,
    features: Vec<Vec<f64>>,
    link_type_names: Vec<String>,
    class_names: Vec<String>,
    /// Directed edges as `(from, to, link_type, weight)` in walk direction.
    edges: Vec<(usize, usize, usize, f64)>,
    labels: Vec<(usize, usize)>,
}

impl HinBuilder {
    /// Creates a builder for nodes with `feature_dim`-dimensional features,
    /// the given link types, and the given classes.
    pub fn new(feature_dim: usize, link_type_names: Vec<String>, class_names: Vec<String>) -> Self {
        HinBuilder {
            feature_dim,
            features: Vec::new(),
            link_type_names,
            class_names,
            edges: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.features.len()
    }

    /// Adds a node with the given feature vector, returning its id.
    ///
    /// # Panics
    /// Panics if the feature length disagrees with the declared dimension
    /// (a construction bug, not a data condition).
    pub fn add_node(&mut self, features: Vec<f64>) -> usize {
        assert_eq!(
            features.len(),
            self.feature_dim,
            "feature vector of length {}, expected {}",
            features.len(),
            self.feature_dim
        );
        self.features.push(features);
        self.features.len() - 1
    }

    /// Adds a directed edge `from → to` of type `link_type` (walk
    /// direction; see the type-level docs).
    ///
    /// # Errors
    /// [`HinError::UnknownNode`] / [`HinError::UnknownLinkType`] for bad ids.
    pub fn add_directed_edge(
        &mut self,
        from: usize,
        to: usize,
        link_type: usize,
    ) -> Result<&mut Self, HinError> {
        self.add_weighted_directed_edge(from, to, link_type, 1.0)
    }

    /// Adds a weighted directed edge (parallel edges of the same type sum
    /// their weights in the adjacency tensor).
    ///
    /// # Errors
    /// [`HinError::UnknownNode`] / [`HinError::UnknownLinkType`] for bad
    /// ids; [`HinError::NonFiniteEdgeWeight`] /
    /// [`HinError::NegativeEdgeWeight`] for a weight outside `[0, ∞)`.
    pub fn add_weighted_directed_edge(
        &mut self,
        from: usize,
        to: usize,
        link_type: usize,
        weight: f64,
    ) -> Result<&mut Self, HinError> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.check_link_type(link_type)?;
        check_edge_weight((from, to, link_type), weight)?;
        self.edges.push((from, to, link_type, weight));
        Ok(self)
    }

    /// Adds an undirected edge (stored in both walk directions).
    ///
    /// # Errors
    /// Same as [`HinBuilder::add_directed_edge`].
    pub fn add_undirected_edge(
        &mut self,
        u: usize,
        v: usize,
        link_type: usize,
    ) -> Result<&mut Self, HinError> {
        self.add_directed_edge(u, v, link_type)?;
        self.add_directed_edge(v, u, link_type)
    }

    /// Records ground-truth class `c` for `node` (multi-label capable).
    ///
    /// # Errors
    /// [`HinError::UnknownNode`] / [`HinError::UnknownClass`] for bad ids.
    pub fn set_label(&mut self, node: usize, c: usize) -> Result<&mut Self, HinError> {
        self.check_node(node)?;
        if c >= self.class_names.len() {
            return Err(HinError::UnknownClass(c));
        }
        self.labels.push((node, c));
        Ok(self)
    }

    fn check_node(&self, v: usize) -> Result<(), HinError> {
        if v >= self.features.len() {
            return Err(HinError::UnknownNode(v));
        }
        Ok(())
    }

    fn check_link_type(&self, k: usize) -> Result<(), HinError> {
        if k >= self.link_type_names.len() {
            return Err(HinError::UnknownLinkType(k));
        }
        Ok(())
    }

    /// Finalizes the network.
    ///
    /// # Errors
    /// [`HinError::NoNodes`] / [`HinError::NoLinkTypes`] on an empty
    /// declaration.
    pub fn build(self) -> Result<Hin, HinError> {
        let n = self.features.len();
        if n == 0 {
            return Err(HinError::NoNodes);
        }
        if self.link_type_names.is_empty() {
            return Err(HinError::NoLinkTypes);
        }
        let m = self.link_type_names.len();
        // Walker moves from `from` to `to`: tensor entry a_{to, from, k}.
        // The edge list is converted in place, without a staging copy.
        let entries = self
            .edges
            .into_iter()
            .map(|(from, to, k, weight)| (to, from, k, weight));
        let tensor = SparseTensor3::from_entries(n, m, entries)
            .expect("builder ids and weights validated on insertion");
        let features =
            DenseMatrix::from_rows(&self.features).expect("feature rows validated on insertion");
        let mut labels = LabelStore::new(n, self.class_names);
        for (node, c) in self.labels {
            labels.add_label(node, c);
        }
        Ok(Hin::from_parts(
            tensor,
            features,
            self.link_type_names,
            labels,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> HinBuilder {
        HinBuilder::new(1, vec!["r0".into()], vec!["c0".into(), "c1".into()])
    }

    #[test]
    fn build_requires_nodes_and_link_types() {
        assert_eq!(builder().build().unwrap_err(), HinError::NoNodes);
        let mut b = HinBuilder::new(1, vec![], vec!["c0".into()]);
        b.add_node(vec![0.0]);
        assert_eq!(b.build().unwrap_err(), HinError::NoLinkTypes);
    }

    #[test]
    fn edge_validation() {
        let mut b = builder();
        let v = b.add_node(vec![0.0]);
        assert_eq!(
            b.add_directed_edge(v, 9, 0).unwrap_err(),
            HinError::UnknownNode(9)
        );
        assert_eq!(
            b.add_directed_edge(v, v, 7).unwrap_err(),
            HinError::UnknownLinkType(7)
        );
    }

    #[test]
    fn label_validation() {
        let mut b = builder();
        let v = b.add_node(vec![0.0]);
        assert_eq!(b.set_label(v, 5).unwrap_err(), HinError::UnknownClass(5));
        assert_eq!(b.set_label(3, 0).unwrap_err(), HinError::UnknownNode(3));
        assert!(b.set_label(v, 1).is_ok());
    }

    #[test]
    fn edge_weights_must_be_finite_and_nonnegative() {
        let mut b = builder();
        let u = b.add_node(vec![0.0]);
        let v = b.add_node(vec![1.0]);
        for bad in [f64::NAN, f64::INFINITY] {
            assert_eq!(
                b.add_weighted_directed_edge(u, v, 0, bad).unwrap_err(),
                HinError::NonFiniteEdgeWeight { edge: (u, v, 0) }
            );
        }
        assert_eq!(
            b.add_weighted_directed_edge(u, v, 0, -1.0).unwrap_err(),
            HinError::NegativeEdgeWeight { edge: (u, v, 0) }
        );
        // Rejected edges are not recorded, so the build succeeds.
        assert_eq!(b.build().unwrap().tensor().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "feature vector of length 2, expected 1")]
    fn feature_dim_is_enforced() {
        builder().add_node(vec![0.0, 1.0]);
    }

    #[test]
    fn directed_edge_maps_to_walk_convention() {
        let mut b = builder();
        let u = b.add_node(vec![0.0]);
        let v = b.add_node(vec![1.0]);
        b.add_directed_edge(u, v, 0).unwrap();
        let h = b.build().unwrap();
        // Walker at u can reach v: tensor entry (i=v, j=u, k=0).
        assert_eq!(h.tensor().get(v, u, 0), 1.0);
        assert_eq!(h.tensor().get(u, v, 0), 0.0);
    }

    #[test]
    fn undirected_edge_is_symmetric() {
        let mut b = builder();
        let u = b.add_node(vec![0.0]);
        let v = b.add_node(vec![1.0]);
        b.add_undirected_edge(u, v, 0).unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.tensor().get(v, u, 0), 1.0);
        assert_eq!(h.tensor().get(u, v, 0), 1.0);
    }

    #[test]
    fn weighted_edges_accumulate_in_the_tensor() {
        let mut b = builder();
        let u = b.add_node(vec![0.0]);
        let v = b.add_node(vec![1.0]);
        b.add_weighted_directed_edge(u, v, 0, 2.5).unwrap();
        b.add_weighted_directed_edge(u, v, 0, 0.5).unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.tensor().get(v, u, 0), 3.0);
    }

    #[test]
    fn weighted_duplicates_accumulate() {
        // The edge list goes to the tensor unsorted: duplicates separated by
        // other edges, and an undirected edge over a directed one, must
        // still merge into one entry each.
        let mut b = HinBuilder::new(1, vec!["r0".into(), "r1".into()], vec!["c0".into()]);
        let u = b.add_node(vec![0.0]);
        let v = b.add_node(vec![1.0]);
        let w = b.add_node(vec![2.0]);
        b.add_weighted_directed_edge(u, v, 0, 0.5).unwrap();
        b.add_directed_edge(v, w, 1).unwrap();
        b.add_weighted_directed_edge(u, v, 1, 2.0).unwrap();
        b.add_weighted_directed_edge(u, v, 0, 0.25).unwrap();
        b.add_undirected_edge(w, v, 1).unwrap();
        let h = b.build().unwrap();
        let t = h.tensor();
        assert_eq!(t.get(v, u, 0), 0.75);
        assert_eq!(t.get(v, u, 1), 2.0, "relations do not merge");
        assert_eq!(t.get(w, v, 1), 2.0);
        assert_eq!(t.get(v, w, 1), 1.0);
        assert_eq!(t.nnz(), 4);
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(HinError::UnknownNode(3).to_string(), "unknown node id 3");
        assert!(HinError::FeatureDimMismatch {
            expected: 2,
            found: 1
        }
        .to_string()
        .contains("expected 2"));
    }
}
