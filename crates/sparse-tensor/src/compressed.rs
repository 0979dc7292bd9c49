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
//! chunk boundaries are precomputed here, once, at construction.

use tmark_linalg::partition;

/// The compressed slice-pointer layout shared by both tensors. Built once
/// in `StochasticTensors::from_tensor`; immutable afterwards.
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
    /// Assembles the layout from the storage-order entry stream and the
    /// grouping boundaries the normalization passes already discovered.
    ///
    /// `entries` yields `(i, j, o, r, raw)` per entry in `(k, j, i)` sorted
    /// order; `slice_ptr` and (`pair_ptr`, `order`) describe its relation
    /// and `(i, j)` pair grouping.
    pub(crate) fn build(
        n: usize,
        slice_ptr: Vec<usize>,
        pair_ptr: Vec<usize>,
        order: &[usize],
        entries: &[(u32, u32, f64, f64, f64)],
    ) -> Self {
        let nnz = entries.len();
        let mut row_idx = Vec::with_capacity(nnz);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut r_vals = Vec::with_capacity(nnz);
        for &(i, j, _, r, _) in entries {
            row_idx.push(i);
            col_idx.push(j);
            r_vals.push(r);
        }

        // Group the O path by output row with a stable counting sort, so
        // each row keeps its entries in storage (k, j) order — the exact
        // per-element summation order of the serial scatter kernel.
        let mut o_row_ptr = vec![0usize; n + 1];
        for &(i, ..) in entries {
            o_row_ptr[i as usize + 1] += 1;
        }
        for i in 0..n {
            // Row-pointer prefix sums are bounded by nnz (the counts they
            // accumulate are entry counts of a materialized slice);
            // checked_add keeps that bound executable at 10^7+ nnz.
            o_row_ptr[i + 1] = o_row_ptr[i + 1]
                .checked_add(o_row_ptr[i])
                .unwrap_or_else(|| unreachable!("row prefix sums are bounded by nnz"));
        }
        let mut next = o_row_ptr.clone();
        let mut o_col = vec![0u32; nnz];
        let mut o_rel = vec![0u32; nnz];
        let mut o_vals = vec![0.0f64; nnz];
        let m = slice_ptr.len() - 1;
        for k in 0..m {
            for &(i, j, o, ..) in &entries[slice_ptr[k]..slice_ptr[k + 1]] {
                let pos = next[i as usize];
                next[i as usize] += 1;
                o_col[pos] = j;
                o_rel[pos] = k as u32;
                o_vals[pos] = o;
            }
        }

        let pair_order = order.iter().map(|&idx| idx as u32).collect();
        let o_parts = partition::balanced_bounds(&o_row_ptr).as_slice().to_vec();
        let r_parts = partition::balanced_bounds(&slice_ptr).as_slice().to_vec();
        CompressedSlices {
            slice_ptr,
            row_idx,
            col_idx,
            r_vals,
            o_row_ptr,
            o_col,
            o_rel,
            o_vals,
            pair_ptr,
            pair_order,
            o_parts,
            r_parts,
        }
    }

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
    use super::*;

    #[test]
    fn build_groups_the_o_path_by_row_in_storage_order() {
        // Two relations, three nodes; entries in (k, j, i) storage order.
        // k=0: (i=1, j=0), (i=2, j=0); k=1: (i=1, j=2).
        let entries = vec![
            (1u32, 0u32, 0.5, 1.0, 1.0),
            (2, 0, 0.5, 1.0, 1.0),
            (1, 2, 1.0, 1.0, 1.0),
        ];
        let cs = CompressedSlices::build(3, vec![0, 2, 3], vec![0, 1, 2, 3], &[0, 1, 2], &entries);
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
