//! # T-Mark: tensor-based Markov chain collective classification
//!
//! This crate implements the primary contribution of Han et al.,
//! *"A Tensor-based Markov Chain Model for Heterogeneous Information
//! Network Collective Classification"*: a semi-supervised algorithm that
//! simultaneously
//!
//! 1. **classifies** the unlabeled nodes of a heterogeneous information
//!    network (HIN), and
//! 2. **ranks** the network's link types by how relevant they are to each
//!    class label.
//!
//! The HIN's multi-relational structure is a sparse 3-way tensor `A`;
//! normalizing its fibers yields two transition-probability tensors `O`
//! (over nodes, Eq. 1) and `R` (over link types, Eq. 2). Node features add
//! a third transition structure, the column-stochastic cosine-similarity
//! matrix `W` (Eq. 9). For every class `c`, Algorithm 1 iterates the
//! coupled fixed point
//!
//! ```text
//! x ← (1 − α − β) · O ×̄₁ x ×̄₃ z  +  β · W x  +  α · l     (Eq. 10)
//! z ← R ×̄₁ x ×̄₂ x                                          (Eq. 8)
//! ```
//!
//! where `β = γ(1 − α)`, `l` is the restart distribution over class-`c`
//! labeled nodes (Eq. 11), optionally refreshed each iteration with
//! high-confidence predictions in the style of ICA (Eq. 12). The resulting
//! stationary `x` scores nodes for class `c`; the stationary `z` scores
//! link types.
//!
//! ## Quick start
//!
//! ```
//! use tmark_hin::HinBuilder;
//! use tmark::{TMarkConfig, TMarkModel};
//!
//! // A toy HIN: two communities bridged by a noisy link type.
//! let mut b = HinBuilder::new(
//!     2,
//!     vec!["strong".into(), "noisy".into()],
//!     vec!["left".into(), "right".into()],
//! );
//! for i in 0..6 {
//!     let f = if i < 3 { vec![1.0, 0.0] } else { vec![0.0, 1.0] };
//!     let v = b.add_node(f);
//!     b.set_label(v, if i < 3 { 0 } else { 1 }).unwrap();
//! }
//! for &(u, v) in &[(0, 1), (1, 2), (3, 4), (4, 5)] {
//!     b.add_undirected_edge(u, v, 0).unwrap();
//! }
//! b.add_undirected_edge(2, 3, 1).unwrap();
//! let hin = b.build().unwrap();
//!
//! // Train on one labeled node per class; predict the rest.
//! let model = TMarkModel::new(TMarkConfig::default());
//! let result = model.fit(&hin, &[0, 5]).unwrap();
//! assert_eq!(result.predict_single(1), 0);
//! assert_eq!(result.predict_single(4), 1);
//! // The "strong" intra-community link outranks the noisy bridge.
//! let ranking = result.link_ranking(0);
//! assert_eq!(ranking[0].0, 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod batch;
pub mod config;
pub mod explain;
pub mod link_prediction;
pub mod model;
pub use tmark_linalg::pool;
pub mod ranking;
pub mod restart;
pub mod serving;
pub mod solver;

pub use batch::{BatchSolver, BatchWorkspace};
pub use config::{ConfigError, TMarkConfig};
pub use explain::{channel_shares, explain_class, Explanation};
pub use link_prediction::{link_score, top_missing_links, LinkCandidate};
pub use model::{AnnParams, FeatureWalkMode, FitError, TMarkModel, TMarkResult};
pub use ranking::LinkRanking;
pub use serving::{ServingError, ServingSession, ServingStats};
pub use solver::ClassStationary;

// The unit tests share the reference Algorithm-1 loop with the
// integration tests, which name this crate `tmark`.
#[cfg(test)]
extern crate self as tmark;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod reference;
