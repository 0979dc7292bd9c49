//! Compressed structure-of-arrays hot-path layout for the `(O, R)` pair.
//!
//! The contraction kernels of Algorithm 1 sweep every stored entry once
//! per iteration, so their cost is dominated by memory traffic. The
//! array-of-structs entry (40 bytes: three `u32` coordinates plus three
//! `f64` values) drags the raw value and the *other* tensor's probability
//! through the cache on every pass. This module splits the entry stream
//! into parallel arrays so each kernel touches only what it reads:
//!
//! - **R path** (storage order, sorted by `(k, j, i)`): `slice_ptr[k]`
//!   relation offsets, `u32` row/column indices, and a separate `f64`
//!   value array — 16 bytes per entry. Each relation slice is one
//!   contiguous run, so `z_k` is a *gather* over its slice.
//! - **O path** (grouped by output row `i`, entries within a row kept in
//!   storage `(k, j)` order): `o_row_ptr[i]` row offsets, `u32`
//!   column/relation indices, and the `o` values — 16 bytes per entry.
//!   `y_i` is a gather over its row.
//! - Cold arrays (the `(i, j)` pair index for point lookups) live
//!   separately and are never touched by the hot kernels.
//!
//! Because every output element is produced by exactly one gather that
//! adds its terms in the same order the old scatter kernels did, the
//! layouts also give us safe *output partitioning* under the contract of
//! [`tmark_linalg::partition`]: disjoint chunks of the output vector can
//! be computed by different pool workers and the result is bitwise
//! identical to the serial kernel at any thread count. The nnz-balanced
//! chunk boundaries are precomputed once, at construction.

/// The compressed slice-pointer layout shared by both tensors. Assembled
/// once, in place, by `StochasticTensors::from_tensor` (the one build
/// routine; see its stage list); only value patches change it afterwards.
#[derive(Debug, Clone)]
pub(crate) struct CompressedSlices {
    /// Relation offsets into the storage-order arrays: relation `k` is
    /// `slice_ptr[k] .. slice_ptr[k + 1]`. Length `m + 1`.
    pub(crate) slice_ptr: Vec<usize>,
    /// Destination node `i` per entry, storage order.
    pub(crate) row_idx: Vec<u32>,
    /// Source node `j` per entry, storage order.
    pub(crate) col_idx: Vec<u32>,
    /// `r_{i,j,k}` per entry, storage order.
    pub(crate) r_vals: Vec<f64>,
    /// Row offsets of the O-path arrays: output row `i` is
    /// `o_row_ptr[i] .. o_row_ptr[i + 1]`. Length `n + 1`.
    pub(crate) o_row_ptr: Vec<usize>,
    /// Source node `j` per entry, row-grouped order.
    pub(crate) o_col: Vec<u32>,
    /// Relation `k` per entry, row-grouped order.
    pub(crate) o_rel: Vec<u32>,
    /// `o_{i,j,k}` per entry, row-grouped order.
    pub(crate) o_vals: Vec<f64>,
    /// `(i, j)`-sorted permutation of the storage order, grouped by stored
    /// pair (aligned with `StochasticTensors::present_pairs`): pair `p` is
    /// `pair_order[pair_ptr[p] .. pair_ptr[p + 1]]`. Cold: point lookups.
    pub(crate) pair_ptr: Vec<usize>,
    /// Storage-order indices behind `pair_ptr`, `k`-ascending within a pair.
    pub(crate) pair_order: Vec<u32>,
    /// nnz-balanced output-row boundaries for partitioning the O gather.
    pub(crate) o_parts: Vec<usize>,
    /// nnz-balanced relation boundaries for partitioning the R gather.
    pub(crate) r_parts: Vec<usize>,
}

impl CompressedSlices {
    /// Stored entry count `D`.
    #[inline]
    pub(crate) fn nnz(&self) -> usize {
        self.r_vals.len()
    }

    /// The relation `k` owning storage index `idx` (`O(log m)`).
    #[inline]
    pub(crate) fn relation_of(&self, idx: usize) -> usize {
        self.slice_ptr.partition_point(|&p| p <= idx) - 1
    }

    /// Bytes touched per full pass of the O gather (row pointers, column
    /// and relation indices, probabilities).
    pub(crate) fn o_path_bytes(&self) -> usize {
        self.o_row_ptr.len() * std::mem::size_of::<usize>()
            + self.o_col.len() * std::mem::size_of::<u32>()
            + self.o_rel.len() * std::mem::size_of::<u32>()
            + self.o_vals.len() * std::mem::size_of::<f64>()
    }

    /// Bytes touched per full pass of the R gather (slice pointers, row
    /// and column indices, probabilities).
    pub(crate) fn r_path_bytes(&self) -> usize {
        self.slice_ptr.len() * std::mem::size_of::<usize>()
            + self.row_idx.len() * std::mem::size_of::<u32>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.r_vals.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use crate::{SparseTensor3, StochasticTensors};

    #[test]
    fn build_groups_the_o_path_by_row_in_storage_order() {
        // Two relations, three nodes; entries in (k, j, i) storage order.
        // k=0: (i=1, j=0), (i=2, j=0); k=1: (i=1, j=2).
        let t =
            SparseTensor3::from_entries(3, 2, vec![(1, 2, 1, 1.0), (2, 0, 0, 1.0), (1, 0, 0, 1.0)])
                .unwrap();
        let s = StochasticTensors::from_tensor(&t);
        let cs = s.layout();
        assert_eq!(cs.nnz(), 3);
        assert_eq!(cs.o_row_ptr, vec![0, 0, 2, 3]);
        // Row 1 keeps its entries in (k, j) order: (k=0, j=0) then (k=1, j=2).
        assert_eq!(&cs.o_rel[0..2], &[0, 1]);
        assert_eq!(&cs.o_col[0..2], &[0, 2]);
        assert_eq!(cs.relation_of(0), 0);
        assert_eq!(cs.relation_of(2), 1);
        assert_eq!(*cs.o_parts.last().unwrap(), 3);
        assert_eq!(*cs.r_parts.last().unwrap(), 2);
    }
}
