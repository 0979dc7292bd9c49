//! The canonical sparse 3-way tensor.

// Indexed loops below walk several parallel arrays with one index;
// clippy's iterator rewrite would obscure the shared-index structure.
#![allow(clippy::needless_range_loop)]
use std::fmt;

use tmark_linalg::{DenseMatrix, SparseMatrix};

/// Errors produced by tensor construction and shape-checked operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// An entry coordinate exceeded the declared shape.
    IndexOutOfBounds {
        /// The offending `(i, j, k)` coordinate.
        index: (usize, usize, usize),
        /// The tensor shape `(n, n, m)`.
        shape: (usize, usize, usize),
    },
    /// A negative value was supplied; the adjacency tensor is nonnegative
    /// by definition (Section 3.1).
    NegativeValue {
        /// The coordinate carrying the negative value.
        index: (usize, usize, usize),
        /// The value supplied.
        value: f64,
    },
    /// A NaN or infinite value was supplied; one such entry would poison
    /// every fiber sum it enters and, through them, every iterate.
    NonFiniteValue {
        /// The coordinate carrying the non-finite value.
        index: (usize, usize, usize),
        /// The value supplied.
        value: f64,
    },
    /// A vector operand had the wrong length for a contraction.
    VectorLengthMismatch {
        /// Description of the operand.
        operand: &'static str,
        /// Expected length.
        expected: usize,
        /// Supplied length.
        found: usize,
    },
    /// The tensor has zero nodes or zero relations.
    EmptyShape,
    /// A declared dimension exceeds the width the packed kernels can
    /// represent. The compressed layouts store node and relation indices
    /// as `u32`; validating here, once, is what lets every downstream
    /// kernel cast raw (see the `[lossy-cast]` allowlist in
    /// xtask/hot-paths.toml).
    IndexOverflow {
        /// Which dimension overflowed (`"node count"` / `"relation count"`).
        what: &'static str,
        /// The declared value.
        value: usize,
        /// The largest representable value.
        limit: usize,
    },
    /// An in-place stochastic patch referenced a coordinate with no stored
    /// entry. Value patches can only re-normalize fibers that already
    /// exist in the compressed layout; a patch that would create or remove
    /// an entry is structural and requires a
    /// [`crate::StochasticTensors::from_tensor`] rebuild.
    StructuralPatch {
        /// The `(i, j, k)` coordinate that is not stored.
        index: (usize, usize, usize),
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::IndexOutOfBounds { index, shape } => write!(
                f,
                "tensor index ({}, {}, {}) out of bounds for shape {}x{}x{}",
                index.0, index.1, index.2, shape.0, shape.1, shape.2
            ),
            TensorError::NegativeValue { index, value } => write!(
                f,
                "negative value {value} at ({}, {}, {}); the adjacency tensor is nonnegative",
                index.0, index.1, index.2
            ),
            TensorError::NonFiniteValue { index, value } => write!(
                f,
                "non-finite value {value} at ({}, {}, {}); tensor entries must be finite",
                index.0, index.1, index.2
            ),
            TensorError::VectorLengthMismatch {
                operand,
                expected,
                found,
            } => write!(
                f,
                "operand {operand} has length {found}, expected {expected}"
            ),
            TensorError::EmptyShape => {
                write!(f, "tensor must have n > 0 nodes and m > 0 relations")
            }
            TensorError::IndexOverflow { what, value, limit } => write!(
                f,
                "{what} {value} exceeds the packed-index limit {limit}; the \
                 compressed kernels store indices as u32"
            ),
            TensorError::StructuralPatch { index } => write!(
                f,
                "coordinate ({}, {}, {}) has no stored entry; structural \
                 changes require a from_tensor rebuild, not a value patch",
                index.0, index.1, index.2
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// The value contract of every entry and update: finite (a NaN fails
/// `value < 0.0` and would slip through a sign check alone) and
/// nonnegative.
fn check_value(index: (usize, usize, usize), value: f64) -> Result<(), TensorError> {
    if !value.is_finite() {
        return Err(TensorError::NonFiniteValue { index, value });
    }
    if value < 0.0 {
        return Err(TensorError::NegativeValue { index, value });
    }
    Ok(())
}

/// One stored entry of the tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Destination node index (mode 1).
    pub i: usize,
    /// Source node index (mode 2).
    pub j: usize,
    /// Relation index (mode 3).
    pub k: usize,
    /// Nonnegative weight (1.0 for an unweighted HIN).
    pub value: f64,
}

/// What [`SparseTensor3::patch_entries`] did to each coordinate it was
/// given: callers use the split to decide whether the derived `(O, R)`
/// operators can be value-patched in place (`inserted == 0`) or must be
/// rebuilt from scratch (the compressed layout gained entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchSummary {
    /// Coordinates that already had a stored entry; their values were
    /// incremented in place.
    pub updated: usize,
    /// Coordinates with no prior entry; a new entry was inserted.
    pub inserted: usize,
}

/// A sparse, nonnegative third-order tensor of shape `n × n × m`.
///
/// Entries are stored sorted by `(k, j, i)` — relation-major, then source
/// column — which makes the Eq. (1) fiber normalization (fixed `(j, k)`,
/// varying `i`) a single linear scan. Entries with duplicate coordinates
/// supplied at construction are summed; explicit zeros are dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor3 {
    n: usize,
    m: usize,
    entries: Vec<Entry>,
    /// `slice_ptr[k] .. slice_ptr[k + 1]` is the contiguous run of entries
    /// belonging to relation `k` (the `(k, j, i)` sort makes each relation
    /// slice a single range). Length `m + 1`.
    slice_ptr: Vec<usize>,
}

impl SparseTensor3 {
    /// Builds a tensor from any stream of raw entries, validating,
    /// deduplicating (summing), and dropping zeros.
    ///
    /// Entries are validated as they are pulled, so a streaming source
    /// (the generator's flattened edge chunks) never materializes its raw
    /// list; a `Vec` source is converted in place, reusing its allocation.
    /// The output depends only on the logical entry sequence, never on
    /// how a source was chunked: the canonical sort is stable and
    /// duplicates are summed in sorted-input order.
    ///
    /// # Errors
    /// [`TensorError::EmptyShape`] if `n == 0 || m == 0`;
    /// [`TensorError::IndexOverflow`] if `n` or `m` exceeds what the
    /// packed `u32` kernel indices can represent (checked before any
    /// entry is pulled);
    /// [`TensorError::IndexOutOfBounds`] / [`TensorError::NonFiniteValue`]
    /// / [`TensorError::NegativeValue`] per offending entry.
    pub fn from_entries<I>(n: usize, m: usize, raw: I) -> Result<Self, TensorError>
    where
        I: IntoIterator<Item = (usize, usize, usize, f64)>,
    {
        Self::check_shape(n, m)?;
        let entries = raw
            .into_iter()
            .filter_map(|(i, j, k, value)| {
                if i >= n || j >= n || k >= m {
                    return Some(Err(TensorError::IndexOutOfBounds {
                        index: (i, j, k),
                        shape: (n, n, m),
                    }));
                }
                match check_value((i, j, k), value) {
                    Err(e) => Some(Err(e)),
                    Ok(()) if value == 0.0 => None,
                    Ok(()) => Some(Ok(Entry { i, j, k, value })),
                }
            })
            .collect::<Result<Vec<Entry>, TensorError>>()?;
        Ok(Self::finish_entries(n, m, entries))
    }

    /// The shape/width contract of the constructor.
    ///
    /// Width contract: every valid index is < n (resp. m), so requiring
    /// `n - 1 <= u32::MAX` makes `idx as u32` exact in every kernel
    /// downstream (`n - 1` rather than comparing n itself so the check
    /// cannot overflow on 32-bit usize).
    fn check_shape(n: usize, m: usize) -> Result<(), TensorError> {
        if n == 0 || m == 0 {
            return Err(TensorError::EmptyShape);
        }
        let limit = u32::MAX as usize;
        if n - 1 > limit {
            return Err(TensorError::IndexOverflow {
                what: "node count",
                value: n,
                limit: limit + 1,
            });
        }
        if m - 1 > limit {
            return Err(TensorError::IndexOverflow {
                what: "relation count",
                value: m,
                limit: limit + 1,
            });
        }
        Ok(())
    }

    /// The back half of the constructor: canonical `(k, j, i)` stable
    /// sort, duplicate merge in place (summing in sorted order, so the
    /// result does not depend on how the input was chunked), and the
    /// relation slice-pointer prefix sums. The merged vector is shrunk to
    /// its length so the tensor retains no slack.
    fn finish_entries(n: usize, m: usize, mut entries: Vec<Entry>) -> Self {
        entries.sort_by_key(|e| (e.k, e.j, e.i));
        entries.dedup_by(|e, kept| {
            let same = (e.i, e.j, e.k) == (kept.i, kept.j, kept.k);
            if same {
                kept.value += e.value;
            }
            same
        });
        entries.shrink_to_fit();
        let mut slice_ptr = vec![0usize; m + 1];
        for e in &entries {
            slice_ptr[e.k + 1] += 1;
        }
        for k in 0..m {
            // Prefix sums of per-relation entry counts are bounded by
            // nnz, which fits usize because `entries` is materialized;
            // checked_add makes that bound executable at 10^7+ nnz
            // instead of relying on debug assertions.
            slice_ptr[k + 1] = slice_ptr[k + 1]
                .checked_add(slice_ptr[k])
                .unwrap_or_else(|| unreachable!("prefix sums of entry counts are bounded by nnz"));
        }
        SparseTensor3 {
            n,
            m,
            entries,
            slice_ptr,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of relations (link types) `m`.
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.m
    }

    /// Shape `(n, n, m)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.n, self.n, self.m)
    }

    /// Number of stored (nonzero) entries, the `D` of the paper's `O(qTD)`
    /// complexity bound.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored entries, sorted by `(k, j, i)`.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Relation-slice offsets into [`SparseTensor3::entries`]: relation `k`
    /// occupies `entries()[slice_ptr()[k] .. slice_ptr()[k + 1]]`. Length
    /// `m + 1`.
    #[inline]
    pub fn slice_ptr(&self) -> &[usize] {
        &self.slice_ptr
    }

    /// The stored entries of relation `k`, in `(j, i)` order — an `O(1)`
    /// lookup into the relation slice instead of an `O(D)` filter over all
    /// entries.
    #[inline]
    pub fn entries_for_relation(&self, k: usize) -> &[Entry] {
        assert!(k < self.m, "relation {k} out of bounds");
        &self.entries[self.slice_ptr[k]..self.slice_ptr[k + 1]]
    }

    /// Value at `(i, j, k)` (zero when absent). `O(log D)`.
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        match self
            .entries
            .binary_search_by_key(&(k, j, i), |e| (e.k, e.j, e.i))
        {
            Ok(pos) => self.entries[pos].value,
            Err(_) => 0.0,
        }
    }

    /// The adjacency matrix of relation `k` as a dense `n × n` matrix
    /// (`A[i][j] = a_{i,j,k}`). Intended for small tensors and tests.
    pub fn slice_dense(&self, k: usize) -> DenseMatrix {
        let mut s = DenseMatrix::zeros(self.n, self.n);
        for e in self.entries_for_relation(k) {
            s.add_at(e.i, e.j, e.value);
        }
        s
    }

    /// Mode-1 matricization `A₍₁₎` of size `n × (n·m)`: entry `(i, j, k)`
    /// maps to row `i`, column `j + k·n`. This is the layout used in the
    /// paper's Section 3.2 worked example, where normalizing each column of
    /// `A₍₁₎` yields the tensor `O`.
    pub fn unfold_mode1(&self) -> SparseMatrix {
        let triplets: Vec<(usize, usize, f64)> = self
            .entries
            .iter()
            .map(|e| (e.i, e.j + e.k * self.n, e.value))
            .collect();
        SparseMatrix::from_triplets(self.n, self.n * self.m, &triplets)
            .expect("unfold_mode1 coordinates in bounds by construction")
    }

    /// Mode-3 matricization `A₍₃₎` of size `m × (n·n)`: entry `(i, j, k)`
    /// maps to row `k`, column `i + j·n`. Normalizing each column of `A₍₃₎`
    /// yields the tensor `R` (Section 3.2).
    pub fn unfold_mode3(&self) -> SparseMatrix {
        let triplets: Vec<(usize, usize, f64)> = self
            .entries
            .iter()
            .map(|e| (e.k, e.i + e.j * self.n, e.value))
            .collect();
        SparseMatrix::from_triplets(self.m, self.n * self.n, &triplets)
            .expect("unfold_mode3 coordinates in bounds by construction")
    }

    /// The relation-aggregated adjacency: `agg[i][j] = Σ_k a_{i,j,k}` as
    /// triplets. Used for irreducibility checks and the ICA baseline (which
    /// "aggregates all types of links into one").
    pub fn aggregate_relations(&self) -> SparseMatrix {
        let triplets: Vec<(usize, usize, f64)> =
            self.entries.iter().map(|e| (e.i, e.j, e.value)).collect();
        SparseMatrix::from_triplets(self.n, self.n, &triplets)
            .expect("aggregate coordinates in bounds by construction")
    }

    /// Direct contraction `(A ×̄₁ x ×̄₃ z)_i = Σ_{j,k} a_{i,j,k} x_j z_k` on
    /// the *raw* tensor (no normalization, no dangling handling). The
    /// stochastic version used by Algorithm 1 lives in
    /// [`crate::stochastic::StochasticTensors::contract_o`].
    pub fn contract_mode1_mode3(&self, x: &[f64], z: &[f64]) -> Result<Vec<f64>, TensorError> {
        if x.len() != self.n {
            return Err(TensorError::VectorLengthMismatch {
                operand: "x",
                expected: self.n,
                found: x.len(),
            });
        }
        if z.len() != self.m {
            return Err(TensorError::VectorLengthMismatch {
                operand: "z",
                expected: self.m,
                found: z.len(),
            });
        }
        let mut y = vec![0.0; self.n];
        for e in &self.entries {
            y[e.i] += e.value * x[e.j] * z[e.k];
        }
        Ok(y)
    }

    /// Direct contraction `(A ×̄₁ x ×̄₂ x)_k = Σ_{i,j} a_{i,j,k} x_i x_j` on
    /// the raw tensor.
    pub fn contract_mode1_mode2(&self, x: &[f64]) -> Result<Vec<f64>, TensorError> {
        if x.len() != self.n {
            return Err(TensorError::VectorLengthMismatch {
                operand: "x",
                expected: self.n,
                found: x.len(),
            });
        }
        let mut z = vec![0.0; self.m];
        for e in &self.entries {
            z[e.k] += e.value * x[e.i] * x[e.j];
        }
        Ok(z)
    }

    /// Accumulates weight deltas into the tensor in place: each update
    /// `(i, j, k, w)` adds `w` to the stored value at that coordinate,
    /// inserting a new entry (at its `(k, j, i)` sort position, bumping
    /// the relation slice pointers) when the coordinate is absent.
    ///
    /// The result is exactly what [`SparseTensor3::from_entries`] would
    /// build from the original entry list extended with `updates` —
    /// bitwise, because `from_entries` stable-sorts and then merges
    /// duplicates with sequential `+=` in supplied order, which is the
    /// same accumulation this performs in place. Zero-weight updates are
    /// skipped, matching the constructor's explicit-zero drop.
    ///
    /// Validation is all-or-nothing: on error the tensor is unchanged.
    ///
    /// # Errors
    /// [`TensorError::IndexOutOfBounds`] / [`TensorError::NonFiniteValue`]
    /// / [`TensorError::NegativeValue`] per offending update.
    pub fn patch_entries(
        &mut self,
        updates: &[(usize, usize, usize, f64)],
    ) -> Result<PatchSummary, TensorError> {
        for &(i, j, k, value) in updates {
            if i >= self.n || j >= self.n || k >= self.m {
                return Err(TensorError::IndexOutOfBounds {
                    index: (i, j, k),
                    shape: (self.n, self.n, self.m),
                });
            }
            check_value((i, j, k), value)?;
        }
        let mut summary = PatchSummary::default();
        for &(i, j, k, value) in updates {
            if value == 0.0 {
                continue;
            }
            match self
                .entries
                .binary_search_by_key(&(k, j, i), |e| (e.k, e.j, e.i))
            {
                Ok(pos) => {
                    self.entries[pos].value += value;
                    summary.updated += 1;
                }
                Err(pos) => {
                    self.entries.insert(pos, Entry { i, j, k, value });
                    for p in &mut self.slice_ptr[k + 1..] {
                        // Entry counts stay bounded by the materialized
                        // vector length, so the literal bump cannot wrap.
                        *p += 1;
                    }
                    summary.inserted += 1;
                }
            }
        }
        Ok(summary)
    }

    /// Widens the node dimension to `new_n`; the added nodes start
    /// isolated (no stored entries mention them). Stored entries, their
    /// order, and the relation slice pointers are untouched, so derived
    /// operators over the *old* shape keep their meaning for old nodes —
    /// though callers normalizing per fiber must still rebuild, because
    /// the dangling-share denominators involve `n`.
    ///
    /// # Errors
    /// [`TensorError::VectorLengthMismatch`] if `new_n < n` (shrinking
    /// could orphan stored entries); [`TensorError::IndexOverflow`] if the
    /// new count exceeds the packed `u32` index width.
    pub fn grow_nodes(&mut self, new_n: usize) -> Result<(), TensorError> {
        if new_n < self.n {
            return Err(TensorError::VectorLengthMismatch {
                operand: "grow_nodes node count",
                expected: self.n,
                found: new_n,
            });
        }
        let limit = u32::MAX as usize;
        if new_n - 1 > limit {
            return Err(TensorError::IndexOverflow {
                what: "node count",
                value: new_n,
                limit: limit + 1,
            });
        }
        self.n = new_n;
        Ok(())
    }

    /// Total stored weight `Σ a_{i,j,k}`.
    pub fn total_weight(&self) -> f64 {
        self.entries.iter().map(|e| e.value).sum()
    }

    /// Per-relation entry counts (length `m`), a cheap sparsity profile
    /// used by dataset diagnostics and the Movies experiment discussion.
    pub fn relation_nnz(&self) -> Vec<usize> {
        self.slice_ptr.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Section 3.2 worked example: 4 publications, 3 relations
    /// (0 = co-author, 1 = citation, 2 = same conference).
    ///
    /// Co-author: p1–p2 share an author (undirected → both directions).
    /// Citation: p3 cites p2 and p4; p4 cites p1 (directed, citing → cited
    /// stored as a_{cited, citing}: the walker moves from the citing paper
    /// to the papers it references).
    /// Same conference: p2 and p3 are both at WWW (undirected).
    pub(crate) fn worked_example() -> SparseTensor3 {
        SparseTensor3::from_entries(
            4,
            3,
            vec![
                // co-author (k = 0)
                (0, 1, 0, 1.0),
                (1, 0, 0, 1.0),
                // citation (k = 1): p3 -> p2, p3 -> p4, p4 -> p1
                (1, 2, 1, 1.0),
                (3, 2, 1, 1.0),
                (0, 3, 1, 1.0),
                // same conference (k = 2)
                (1, 2, 2, 1.0),
                (2, 1, 2, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_entries_rejects_empty_shape() {
        assert_eq!(
            SparseTensor3::from_entries(0, 3, vec![]),
            Err(TensorError::EmptyShape)
        );
        assert_eq!(
            SparseTensor3::from_entries(3, 0, vec![]),
            Err(TensorError::EmptyShape)
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn from_entries_rejects_dimensions_past_u32() {
        // A node count whose largest index cannot be packed into u32 must
        // come back as a typed overflow, not a silent wrap downstream.
        let too_many = u32::MAX as usize + 2;
        assert_eq!(
            SparseTensor3::from_entries(too_many, 1, vec![]),
            Err(TensorError::IndexOverflow {
                what: "node count",
                value: too_many,
                limit: u32::MAX as usize + 1,
            })
        );
        assert_eq!(
            SparseTensor3::from_entries(2, too_many, vec![]),
            Err(TensorError::IndexOverflow {
                what: "relation count",
                value: too_many,
                limit: u32::MAX as usize + 1,
            })
        );
        // The boundary itself (largest index == u32::MAX) is accepted.
        assert!(SparseTensor3::from_entries(u32::MAX as usize + 1, 1, vec![]).is_ok());
    }

    #[test]
    fn flattened_chunks_match_one_batch_on_the_worked_example() {
        let raw = vec![
            (1, 0, 0, 1.0),
            (2, 0, 0, 1.0),
            (3, 2, 0, 1.0),
            (0, 1, 1, 1.0),
            (1, 2, 1, 1.0),
            (2, 3, 2, 1.0),
            (3, 2, 2, 1.0),
        ];
        let whole = SparseTensor3::from_entries(4, 3, raw.clone()).unwrap();
        // Uneven chunk boundaries, including an empty chunk in the middle.
        let chunks = vec![
            raw[..2].to_vec(),
            vec![],
            raw[2..5].to_vec(),
            raw[5..].to_vec(),
        ];
        let chunked = SparseTensor3::from_entries(4, 3, chunks.into_iter().flatten()).unwrap();
        assert_eq!(whole, chunked);
    }

    #[test]
    fn flattened_chunks_dedup_across_chunk_boundaries() {
        // The same coordinate split across chunks must merge exactly as if
        // the entries had arrived in one batch.
        let whole =
            SparseTensor3::from_entries(2, 1, vec![(0, 1, 0, 1.0), (0, 1, 0, 2.0)]).unwrap();
        let chunked = SparseTensor3::from_entries(
            2,
            1,
            vec![vec![(0, 1, 0, 1.0)], vec![(0, 1, 0, 2.0)]]
                .into_iter()
                .flatten(),
        )
        .unwrap();
        assert_eq!(whole, chunked);
        assert_eq!(chunked.nnz(), 1);
        assert_eq!(chunked.get(0, 1, 0), 3.0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn from_entries_rejects_dimensions_past_u32_before_pulling_chunks() {
        // The width contract fails up front: the chunk iterator must not
        // be consumed at all (a streaming source may be expensive).
        let too_many = u32::MAX as usize + 2;
        let mut pulled = false;
        let chunks = std::iter::from_fn(|| {
            pulled = true;
            Some(vec![(0usize, 0usize, 0usize, 1.0f64)])
        })
        .take(1);
        assert_eq!(
            SparseTensor3::from_entries(too_many, 1, chunks.flatten()),
            Err(TensorError::IndexOverflow {
                what: "node count",
                value: too_many,
                limit: u32::MAX as usize + 1,
            })
        );
        assert!(
            !pulled,
            "overflow must be detected before any chunk is pulled"
        );
        assert_eq!(
            SparseTensor3::from_entries(2, too_many, Vec::<Vec<_>>::new().into_iter().flatten()),
            Err(TensorError::IndexOverflow {
                what: "relation count",
                value: too_many,
                limit: u32::MAX as usize + 1,
            })
        );
    }

    #[test]
    fn flattened_chunks_reject_bad_entries_in_any_chunk() {
        assert!(matches!(
            SparseTensor3::from_entries(
                2,
                2,
                vec![vec![(0, 0, 0, 1.0)], vec![(2, 0, 0, 1.0)]]
                    .into_iter()
                    .flatten(),
            ),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            SparseTensor3::from_entries(2, 2, vec![vec![(0, 0, 0, -1.0)]].into_iter().flatten()),
            Err(TensorError::NegativeValue { .. })
        ));
    }

    #[test]
    fn from_entries_rejects_out_of_bounds_and_negative() {
        assert!(matches!(
            SparseTensor3::from_entries(2, 2, vec![(2, 0, 0, 1.0)]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            SparseTensor3::from_entries(2, 2, vec![(0, 0, 0, -1.0)]),
            Err(TensorError::NegativeValue { .. })
        ));
    }

    #[test]
    fn non_finite_values_are_rejected_by_every_constructor() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                SparseTensor3::from_entries(2, 1, vec![(0, 1, 0, 1.0), (1, 0, 0, value)]),
                Err(TensorError::NonFiniteValue {
                    index: (1, 0, 0),
                    ..
                })
            ));
            assert!(matches!(
                SparseTensor3::from_entries(
                    2,
                    1,
                    vec![vec![(0, 1, 0, 1.0)], vec![(1, 0, 0, value)]]
                        .into_iter()
                        .flatten(),
                ),
                Err(TensorError::NonFiniteValue {
                    index: (1, 0, 0),
                    ..
                })
            ));
            let mut t = SparseTensor3::from_entries(2, 1, vec![(0, 1, 0, 1.0)]).unwrap();
            let before = t.clone();
            assert!(matches!(
                t.patch_entries(&[(0, 1, 0, value)]),
                Err(TensorError::NonFiniteValue { .. })
            ));
            assert_eq!(t, before, "a rejected patch leaves the tensor unchanged");
        }
    }

    #[test]
    fn merged_entries_retain_no_capacity_slack() {
        // Duplicates and zeros shrink the entry count below the raw
        // count; the tensor keeps exactly its stored entries.
        let raw = vec![
            (0, 1, 0, 1.0),
            (0, 1, 0, 2.0),
            (1, 0, 0, 0.0),
            (1, 1, 0, 1.0),
        ];
        let t = SparseTensor3::from_entries(2, 1, raw).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.entries.capacity(), 2);
    }

    #[test]
    fn duplicates_sum_and_zeros_drop() {
        let t =
            SparseTensor3::from_entries(2, 1, vec![(0, 1, 0, 1.0), (0, 1, 0, 2.0), (1, 0, 0, 0.0)])
                .unwrap();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(0, 1, 0), 3.0);
        assert_eq!(t.get(1, 0, 0), 0.0);
    }

    #[test]
    fn worked_example_has_expected_shape_and_nnz() {
        let t = worked_example();
        assert_eq!(t.shape(), (4, 4, 3));
        assert_eq!(t.nnz(), 7);
        assert_eq!(t.total_weight(), 7.0);
        assert_eq!(t.relation_nnz(), vec![2, 3, 2]);
    }

    #[test]
    fn slice_dense_reproduces_adjacency() {
        let t = worked_example();
        let coauthor = t.slice_dense(0);
        assert_eq!(coauthor.get(0, 1), 1.0);
        assert_eq!(coauthor.get(1, 0), 1.0);
        assert_eq!(coauthor.get(2, 3), 0.0);
    }

    #[test]
    fn unfold_mode1_matches_definition() {
        let t = worked_example();
        let a1 = t.unfold_mode1();
        assert_eq!((a1.rows(), a1.cols()), (4, 12));
        // a_{0,1,0} = 1 -> row 0, col 1 + 0*4 = 1
        assert_eq!(a1.get(0, 1), 1.0);
        // a_{0,3,1} = 1 -> row 0, col 3 + 1*4 = 7
        assert_eq!(a1.get(0, 7), 1.0);
        // a_{2,1,2} = 1 -> row 2, col 1 + 2*4 = 9
        assert_eq!(a1.get(2, 9), 1.0);
        assert_eq!(a1.nnz(), t.nnz());
    }

    #[test]
    fn unfold_mode3_matches_definition() {
        let t = worked_example();
        let a3 = t.unfold_mode3();
        assert_eq!((a3.rows(), a3.cols()), (3, 16));
        // a_{1,2,1} = 1 -> row 1, col 1 + 2*4 = 9
        assert_eq!(a3.get(1, 9), 1.0);
        // a_{0,1,0} = 1 -> row 0, col 0 + 1*4 = 4
        assert_eq!(a3.get(0, 4), 1.0);
        assert_eq!(a3.nnz(), t.nnz());
    }

    #[test]
    fn raw_contractions_match_brute_force() {
        let t = worked_example();
        let x = [0.1, 0.2, 0.3, 0.4];
        let z = [0.5, 0.3, 0.2];
        let y = t.contract_mode1_mode3(&x, &z).unwrap();
        for i in 0..4 {
            let mut expect = 0.0;
            for j in 0..4 {
                for k in 0..3 {
                    expect += t.get(i, j, k) * x[j] * z[k];
                }
            }
            assert!((y[i] - expect).abs() < 1e-12, "mode1-mode3 mismatch at {i}");
        }
        let zc = t.contract_mode1_mode2(&x).unwrap();
        for k in 0..3 {
            let mut expect = 0.0;
            for i in 0..4 {
                for j in 0..4 {
                    expect += t.get(i, j, k) * x[i] * x[j];
                }
            }
            assert!(
                (zc[k] - expect).abs() < 1e-12,
                "mode1-mode2 mismatch at {k}"
            );
        }
    }

    #[test]
    fn contractions_validate_lengths() {
        let t = worked_example();
        assert!(t.contract_mode1_mode3(&[0.0; 3], &[0.0; 3]).is_err());
        assert!(t.contract_mode1_mode3(&[0.0; 4], &[0.0; 2]).is_err());
        assert!(t.contract_mode1_mode2(&[0.0; 5]).is_err());
    }

    #[test]
    fn patch_entries_matches_fresh_build_bitwise() {
        let mut patched = worked_example();
        let updates = vec![
            (1, 2, 1, 0.5),  // existing coordinate: accumulate
            (2, 3, 0, 2.0),  // absent coordinate: insert
            (0, 0, 2, 1.25), // absent coordinate in the last relation
        ];
        let summary = patched.patch_entries(&updates).unwrap();
        assert_eq!(
            summary,
            PatchSummary {
                updated: 1,
                inserted: 2
            }
        );
        // The in-place result must equal from_entries on the combined list.
        let mut raw: Vec<(usize, usize, usize, f64)> = worked_example()
            .entries()
            .iter()
            .map(|e| (e.i, e.j, e.k, e.value))
            .collect();
        raw.extend_from_slice(&updates);
        let fresh = SparseTensor3::from_entries(4, 3, raw).unwrap();
        assert_eq!(patched, fresh);
        assert_eq!(patched.relation_nnz(), vec![3, 3, 3]);
    }

    #[test]
    fn patch_entries_skips_zero_updates() {
        let mut t = worked_example();
        let summary = t.patch_entries(&[(2, 3, 0, 0.0)]).unwrap();
        assert_eq!(summary, PatchSummary::default());
        assert_eq!(t, worked_example());
    }

    #[test]
    fn patch_entries_validates_before_mutating() {
        let mut t = worked_example();
        // The first update is fine, the second is out of bounds: nothing
        // may be applied.
        assert!(matches!(
            t.patch_entries(&[(1, 2, 1, 0.5), (4, 0, 0, 1.0)]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            t.patch_entries(&[(1, 2, 1, 0.5), (0, 0, 0, -1.0)]),
            Err(TensorError::NegativeValue { .. })
        ));
        assert_eq!(t, worked_example());
    }

    #[test]
    fn grow_nodes_widens_without_touching_entries() {
        let mut t = worked_example();
        t.grow_nodes(6).unwrap();
        assert_eq!(t.shape(), (6, 6, 3));
        assert_eq!(t.nnz(), 7);
        // New nodes are valid coordinates now.
        let summary = t.patch_entries(&[(5, 4, 0, 1.0)]).unwrap();
        assert_eq!(summary.inserted, 1);
        // Shrinking is rejected.
        assert!(matches!(
            t.grow_nodes(2),
            Err(TensorError::VectorLengthMismatch { .. })
        ));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn grow_nodes_rejects_dimensions_past_u32() {
        let mut t = worked_example();
        assert!(matches!(
            t.grow_nodes(u32::MAX as usize + 2),
            Err(TensorError::IndexOverflow { .. })
        ));
    }

    #[test]
    fn aggregate_relations_sums_over_k() {
        let t = worked_example();
        let agg = t.aggregate_relations();
        // (1, 2) appears in both citation and same-conference slices.
        assert_eq!(agg.get(1, 2), 2.0);
        assert_eq!(agg.get(0, 1), 1.0);
    }
}
