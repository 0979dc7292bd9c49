//! Property tests for the chunked COO ingestion API.
//!
//! `SparseTensor3::from_entries` over a flattened chunk stream must be
//! *bitwise* equivalent to the same call over one batch of the same
//! logical entry sequence, for every possible chunking — the canonical `(k, j, i)` sort is stable and the duplicate
//! merge sums in sorted-input order, so chunk boundaries cannot move a
//! single ulp. These tests compare stored values through `f64::to_bits`,
//! never a tolerance, and exercise the `u32` width contract on a chunk
//! stream.

use proptest::prelude::*;
use tmark_sparse_tensor::{SparseTensor3, TensorError};

/// Every stored coordinate plus the exact bit pattern of its value.
fn entry_bits(t: &SparseTensor3) -> Vec<(usize, usize, usize, u64)> {
    t.entries()
        .iter()
        .map(|e| (e.i, e.j, e.k, e.value.to_bits()))
        .collect()
}

/// Splits `raw` at the given (arbitrary, unsorted, possibly duplicated)
/// cut points, producing a chunking that concatenates back to `raw`.
fn chunk_at(
    raw: &[(usize, usize, usize, f64)],
    cuts: &[usize],
) -> Vec<Vec<(usize, usize, usize, f64)>> {
    let mut sorted: Vec<usize> = cuts.iter().map(|&c| c.min(raw.len())).collect();
    sorted.sort_unstable();
    let mut chunks = Vec::with_capacity(sorted.len() + 1);
    let mut prev = 0usize;
    for c in sorted {
        let c = c.max(prev);
        chunks.push(raw[prev..c].to_vec());
        prev = c;
    }
    chunks.push(raw[prev..].to_vec());
    chunks
}

proptest! {
    /// Arbitrary entry streams (duplicates, explicit zeros, every
    /// relation) split at arbitrary boundaries build the identical
    /// tensor, bit for bit.
    #[test]
    fn chunked_build_equals_one_shot_bitwise(
        n in 1usize..24,
        m in 1usize..5,
        raw in prop::collection::vec(
            (any::<usize>(), any::<usize>(), any::<usize>(), 0.0f64..4.0),
            0..120,
        ),
        cuts in prop::collection::vec(0usize..121, 0..6),
    ) {
        let raw: Vec<(usize, usize, usize, f64)> = raw
            .into_iter()
            .map(|(i, j, k, v)| (i % n, j % n, k % m, v))
            .collect();
        let whole = SparseTensor3::from_entries(n, m, raw.clone()).unwrap();
        let chunked =
            SparseTensor3::from_entries(n, m, chunk_at(&raw, &cuts).into_iter().flatten()).unwrap();
        prop_assert_eq!(entry_bits(&whole), entry_bits(&chunked));
        prop_assert_eq!(whole.slice_ptr(), chunked.slice_ptr());
        prop_assert_eq!(whole.shape(), chunked.shape());
    }

    /// A chunk stream meets the same `u32` width contract as one batch,
    /// before any chunk is consumed.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn chunked_build_rejects_overwide_shapes(extra in 1usize..1000) {
        let too_many = u32::MAX as usize + 1 + extra;
        let outcome = SparseTensor3::from_entries(
            too_many,
            1,
            vec![vec![(0usize, 0usize, 0usize, 1.0f64)]].into_iter().flatten(),
        );
        prop_assert_eq!(
            outcome,
            Err(TensorError::IndexOverflow {
                what: "node count",
                value: too_many,
                limit: u32::MAX as usize + 1,
            })
        );
    }
}
