//! Sparse 3-way tensor substrate for T-Mark.
//!
//! The paper represents a heterogeneous information network with `n` nodes
//! and `m` link types as a nonnegative third-order tensor
//! `A = (a_{i,j,k})` of size `n × n × m`, where `a_{i,j,k} = 1` when node
//! `i` is linked to node `j` through link type `k` (Section 3.1). Two
//! *transition-probability tensors* are derived from it:
//!
//! - `O` normalizes each mode-1 fiber (fixed `(j, k)`, Eq. 1) so that
//!   `o_{i,j,k} = P[X_t = i | X_{t−1} = j, Z_t = k]`;
//! - `R` normalizes each mode-3 fiber (fixed `(i, j)`, Eq. 2) so that
//!   `r_{i,j,k} = P[Z_t = k | X_t = i, X_{t−1} = j]`.
//!
//! Dangling fibers (all-zero) follow the PageRank convention: `1/n` for `O`
//! and `1/m` for `R`. Because real HINs are extremely sparse, this crate
//! never materializes those uniform fibers — their contribution to the
//! contractions is accounted for analytically, so every operation stays
//! `O(D)` in the number of stored entries, matching the paper's Section 4.5
//! complexity analysis.
//!
//! Each operator has one assembly routine:
//! - [`tensor::SparseTensor3::from_entries`] builds the canonical
//!   deduplicated COO tensor from any entry stream (one batch or the
//!   generator's flattened chunks), with mode-1/mode-3 matricization and
//!   dense conversion for small instances.
//! - [`stochastic::StochasticTensors::from_tensor`] builds the `(O, R)`
//!   pair with the contractions `O ×̄₁ x ×̄₃ z` and `R ×̄₁ x ×̄₂ x` used by
//!   Algorithm 1. The work gate picks only how many chunks the build
//!   runs in, never which code runs.
//! - [`connectivity`]: irreducibility checks (strong connectivity of the
//!   relation-aggregated graph), the standing assumption of Section 3.1.

//! ```
//! use tmark_sparse_tensor::{SparseTensor3, StochasticTensors};
//!
//! // A 3-node, 2-relation network: an undirected 0–1 link of type 0
//! // (stored both ways) and a directed 1 → 2 link of type 1.
//! let entries = vec![(0, 1, 0, 1.0), (1, 0, 0, 1.0), (2, 1, 1, 1.0)];
//! let tensor = SparseTensor3::from_entries(3, 2, entries).unwrap();
//! let stoch = StochasticTensors::from_tensor(&tensor);
//!
//! // Contractions keep probability vectors on the simplex (Theorem 1).
//! let x = vec![0.5, 0.3, 0.2];
//! let z = vec![0.6, 0.4];
//! let y = stoch.contract_o(&x, &z).unwrap();
//! assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
mod compressed;
pub mod connectivity;
pub mod invariants;
pub mod stochastic;
pub mod tensor;

pub use stochastic::StochasticTensors;
pub use tensor::{PatchSummary, SparseTensor3, TensorError};
