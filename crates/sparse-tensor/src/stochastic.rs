//! The transition-probability tensor pair `(O, R)` and its contractions.
//!
//! `O` and `R` are obtained from the adjacency tensor `A` by the fiber
//! normalizations of Eqs. (1) and (2). Dangling fibers become uniform
//! (`1/n` resp. `1/m`), which makes both tensors genuinely stochastic: the
//! Algorithm-1 step maps the probability simplex into itself (Theorem 1).
//!
//! The uniform fibers are *never stored*. During a contraction the mass
//! that flows through dangling fibers is computed analytically:
//!
//! - for `O ×̄₁ x ×̄₃ z`: the stored (present) columns `(j, k)` carry mass
//!   `Σ x_j z_k`; the rest of the total mass `(Σx)(Σz)` is spread uniformly
//!   over the `n` destinations;
//! - for `R ×̄₁ x ×̄₂ x`: the stored pairs `(i, j)` carry `Σ x_i x_j`; the
//!   remainder of `(Σx)²` is spread uniformly over the `m` relations.
//!
//! Both contractions therefore cost `O(D)` per iteration where `D` is the
//! number of stored entries, exactly the Section 4.5 bound.
//!
//! Since the slice-pointer refactor the entries live in the compressed
//! structure-of-arrays layout of [`crate::compressed`]: each kernel is a
//! *gather* over the arrays relevant to it (16 hot bytes per entry instead
//! of the 40-byte array-of-structs record), each output element is summed
//! by exactly one owner in a fixed order, and when the worker pool has
//! free permits the output is partitioned over nnz-balanced chunks that
//! run concurrently — bitwise equal to the serial sweep at any thread
//! count.

// Indexed loops below walk several parallel arrays with one index;
// clippy's iterator rewrite would obscure the shared-index structure.
#![allow(clippy::needless_range_loop)]
use crate::compressed::CompressedSlices;
use crate::tensor::{Entry, SparseTensor3, TensorError};
use tmark_linalg::kahan::{kahan_map_sum, kahan_sum, KahanAccumulator};
use tmark_linalg::{partition, pool};

/// Byte cost per entry of the retired array-of-structs record
/// (`{i, j, k: u32, value, o, r: f64}` — 12 index bytes, 4 of padding,
/// 24 value bytes). Kept as the baseline for the bench memory report.
const AOS_ENTRY_BYTES: usize = 40;

/// Hot-storage byte footprint of one [`StochasticTensors`] instance,
/// reported by [`StochasticTensors::entry_byte_sizes`] for the bench
/// memory sanity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryByteSizes {
    /// What the same entries would cost in the retired array-of-structs
    /// layout (40 bytes each).
    pub aos: usize,
    /// Bytes the `O` gather actually sweeps (row pointers + `u32`
    /// column/relation indices + `f64` probabilities).
    pub o_path: usize,
    /// Bytes the `R` gather actually sweeps (slice pointers + `u32`
    /// row/column indices + `f64` probabilities).
    pub r_path: usize,
}

/// The pair of transition-probability tensors `(O, R)` derived from one
/// adjacency tensor, sharing one compressed entry layout.
#[derive(Debug, Clone)]
pub struct StochasticTensors {
    n: usize,
    m: usize,
    cs: CompressedSlices,
    /// Distinct `(j, k)` fibers that have stored mass, for the analytic
    /// dangling correction of the `O` contraction. Storage order, i.e.
    /// ascending `(k, j)`.
    present_columns: Vec<(u32, u32)>,
    /// Distinct `(i, j)` pairs that have stored mass, for the analytic
    /// dangling correction of the `R` contraction. Ascending `(i, j)`.
    present_pairs: Vec<(u32, u32)>,
}

impl StochasticTensors {
    /// Normalizes an adjacency tensor into its `(O, R)` pair.
    ///
    /// The adaptive work gate ([`pool::should_parallelize`]) picks only
    /// how many chunks the build runs in: one below the gate, partition
    /// bounds above it, with chunks drawn over the permit pool. The code
    /// that runs is the same either way, and so is every bit of the
    /// result (see [`StochasticTensors::assemble`]).
    pub fn from_tensor(a: &SparseTensor3) -> Self {
        Self::assemble(a, pool::should_parallelize(a.nnz()))
    }

    /// The one `(O, R)` assembly routine. It reads `i, j, k, value`
    /// straight from the tensor's storage-order entries and keeps one
    /// `f64` per entry as scratch:
    ///
    /// 1. **Eq. (1)** over fiber-aligned entry ranges: each chunk writes
    ///    `o = value / Σ` for its whole `(j, k)` fibers into its own
    ///    sub-slice of the scratch.
    /// 2. **Row grouping**: one stable counting sort deals the storage
    ///    indices into output rows, so each row keeps storage `(k, j)`
    ///    order (the summation order of the `O` gather).
    /// 3. **Row blocks**: each block fills its disjoint sub-slices of the
    ///    `O` arrays, then sorts each of its rows by `j`, which turns the
    ///    row-grouped permutation into the `(i, j)`-grouped pair order in
    ///    place.
    /// 4. **Eq. (2)** per pair, walking the pair order: the `O` scratch
    ///    is dead by now, so the `R` values overwrite it in storage order.
    ///
    /// `chunked` picks the chunk count only (`MAX_PARTS`-bounded ranges
    /// and blocks, or one of each). Every Kahan sum visits the same
    /// values in the same order whatever the chunking, and every output
    /// element has one writer, so the result is bitwise identical at any
    /// chunk count and thread cap.
    fn assemble(a: &SparseTensor3, chunked: bool) -> Self {
        let n = a.num_nodes();
        let m = a.num_relations();
        let src = a.entries();
        let nnz = src.len();

        // Stage 1: Eq. (1) into the storage-order scratch.
        let fiber_bounds = if chunked {
            fiber_aligned_bounds(src)
        } else {
            vec![0, nnz]
        };
        let mut scratch = vec![0.0f64; nnz];
        partition::run_chunks(&fiber_bounds, &mut scratch, |start, chunk| {
            normalize_fibers(&src[start..], chunk);
        });
        let fiber_start = |t: usize| t == 0 || (src[t - 1].k, src[t - 1].j) != (src[t].k, src[t].j);
        let present_columns: Vec<(u32, u32)> = (0..nnz)
            .filter(|&t| fiber_start(t))
            .map(|t| (src[t].j as u32, src[t].k as u32))
            .collect();

        // Stage 2: stable counting sort of the storage indices by row.
        let mut o_row_ptr = vec![0usize; n + 1];
        for e in src {
            o_row_ptr[e.i + 1] += 1;
        }
        for i in 0..n {
            // Row prefix sums are bounded by nnz (a materialized slice);
            // checked_add keeps the bound executable at 10^7+ entries.
            o_row_ptr[i + 1] = o_row_ptr[i + 1]
                .checked_add(o_row_ptr[i])
                .unwrap_or_else(|| unreachable!("row prefix sums are bounded by nnz"));
        }
        let mut next = o_row_ptr[..n].to_vec();
        let mut pair_order = vec![0u32; nnz];
        for (idx, e) in src.iter().enumerate() {
            pair_order[next[e.i]] = idx as u32;
            next[e.i] += 1;
        }
        drop(next);

        // Stage 3: row blocks over disjoint sub-slices of the final arrays.
        let o_parts = partition::balanced_bounds(&o_row_ptr).as_slice().to_vec();
        let one_block = [0, n];
        let blocks: &[usize] = if chunked { &o_parts } else { &one_block };
        let mut o_col = vec![0u32; nnz];
        let mut o_rel = vec![0u32; nnz];
        let mut o_vals = vec![0.0f64; nnz];
        let mut rest = RowBlock {
            o_col: &mut o_col,
            o_rel: &mut o_rel,
            o_vals: &mut o_vals,
            order: &mut pair_order,
        };
        let o_probs: &[f64] = &scratch;
        let mut tasks = Vec::with_capacity(blocks.len() - 1);
        for w in blocks.windows(2) {
            let rows = &o_row_ptr[w[0]..=w[1]];
            let (block, tail) = rest.split_at(rows[rows.len() - 1] - rows[0]);
            rest = tail;
            tasks.push(move || assemble_rows(src, o_probs, rows, block));
        }
        partition::run_owned(tasks);

        // Stage 4: Eq. (2) per (i, j) pair, written over the scratch.
        let pair_key = |t: usize| {
            let e = &src[pair_order[t] as usize];
            (e.i, e.j)
        };
        let pair_start = |t: usize| t == 0 || pair_key(t - 1) != pair_key(t);
        let pairs = (0..nnz).filter(|&t| pair_start(t)).count();
        let mut present_pairs = Vec::with_capacity(pairs);
        let mut pair_ptr = Vec::with_capacity(pairs + 1);
        let mut r_vals = scratch;
        let mut pos = 0;
        while pos < nnz {
            let (i, j) = pair_key(pos);
            let mut end = pos + 1;
            while end < nnz && !pair_start(end) {
                end += 1;
            }
            let members = &pair_order[pos..end];
            let sum = kahan_map_sum(members, |&idx| src[idx as usize].value);
            for &idx in members {
                r_vals[idx as usize] = src[idx as usize].value / sum;
            }
            present_pairs.push((i as u32, j as u32));
            pair_ptr.push(pos);
            pos = end;
        }
        pair_ptr.push(nnz);

        let cs = CompressedSlices {
            slice_ptr: a.slice_ptr().to_vec(),
            row_idx: src.iter().map(|e| e.i as u32).collect(),
            col_idx: src.iter().map(|e| e.j as u32).collect(),
            r_vals,
            o_row_ptr,
            o_col,
            o_rel,
            o_vals,
            pair_ptr,
            pair_order,
            o_parts,
            r_parts: partition::balanced_bounds(a.slice_ptr())
                .as_slice()
                .to_vec(),
        };
        let s = StochasticTensors {
            n,
            m,
            cs,
            present_columns,
            present_pairs,
        };
        s.debug_verify_normalization();
        s
    }

    /// Debug-build verification that the fiber normalizations of Eqs. (1)
    /// and (2) produced genuinely stochastic operators: every stored `o`
    /// fiber (fixed `(j, k)`) and `r` fiber (fixed `(i, j)`) sums to one,
    /// and all probabilities are finite and nonnegative. No-op in release.
    fn debug_verify_normalization(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let cs = &self.cs;
        crate::debug_assert_finite_nonnegative!(&cs.o_vals, "StochasticTensors O probabilities");
        crate::debug_assert_finite_nonnegative!(&cs.r_vals, "StochasticTensors R probabilities");
        let mut o_sums: std::collections::BTreeMap<(u32, u32), f64> =
            std::collections::BTreeMap::new();
        let mut r_sums: std::collections::BTreeMap<(u32, u32), f64> =
            std::collections::BTreeMap::new();
        for t in 0..cs.nnz() {
            *o_sums.entry((cs.o_col[t], cs.o_rel[t])).or_insert(0.0) += cs.o_vals[t];
            *r_sums.entry((cs.row_idx[t], cs.col_idx[t])).or_insert(0.0) += cs.r_vals[t];
        }
        let o_sums: Vec<f64> = o_sums.into_values().collect();
        let r_sums: Vec<f64> = r_sums.into_values().collect();
        crate::debug_assert_stochastic!(
            &o_sums,
            crate::invariants::SIMPLEX_TOL,
            "O mode-1 fiber normalization (Eq. 1)"
        );
        crate::debug_assert_stochastic!(
            &r_sums,
            crate::invariants::SIMPLEX_TOL,
            "R mode-3 fiber normalization (Eq. 2)"
        );
        debug_assert_eq!(
            o_sums.len(),
            self.present_columns.len(),
            "present_columns disagrees with stored fibers"
        );
        debug_assert_eq!(
            r_sums.len(),
            self.present_pairs.len(),
            "present_pairs disagrees with stored fibers"
        );
    }

    /// The compressed layout, for layout tests.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> &CompressedSlices {
        &self.cs
    }

    /// Re-normalizes the pair in place after a *value-only* patch of the
    /// source tensor: `a` is the already-patched tensor and `touched`
    /// lists the `(i, j, k)` coordinates whose values changed. Only the
    /// mode-1 fibers (fixed `(j, k)`) and mode-3 fibers (fixed `(i, j)`)
    /// containing a touched coordinate are re-normalized — `O(f log D)`
    /// for `f` entries in touched fibers instead of the `O(D log D)` full
    /// [`StochasticTensors::from_tensor`] rebuild.
    ///
    /// The patched pair is bitwise identical to `from_tensor(a)`: each
    /// fiber's Kahan sum visits the same values in the same storage order
    /// as the construction passes, and untouched fibers keep the values
    /// those passes produced. The fiber *structure* (which coordinates
    /// are stored) must be unchanged, which is why a touched coordinate
    /// with no stored entry is an error: insertions and removals change
    /// the compressed layout and require a rebuild (see the decision
    /// table in DESIGN.md).
    ///
    /// Validation is all-or-nothing: on error the pair is unchanged.
    ///
    /// # Errors
    /// [`TensorError::VectorLengthMismatch`] when `a`'s shape or entry
    /// count disagrees with the layout this pair was built from (a
    /// structural change happened); [`TensorError::IndexOutOfBounds`] for
    /// a touched coordinate outside the shape;
    /// [`TensorError::StructuralPatch`] for a touched coordinate with no
    /// stored entry.
    pub fn patch_entries(
        &mut self,
        a: &SparseTensor3,
        touched: &[(usize, usize, usize)],
    ) -> Result<(), TensorError> {
        if a.num_nodes() != self.n {
            return Err(TensorError::VectorLengthMismatch {
                operand: "patched tensor node count",
                expected: self.n,
                found: a.num_nodes(),
            });
        }
        if a.num_relations() != self.m {
            return Err(TensorError::VectorLengthMismatch {
                operand: "patched tensor relation count",
                expected: self.m,
                found: a.num_relations(),
            });
        }
        if a.nnz() != self.nnz() {
            return Err(TensorError::VectorLengthMismatch {
                operand: "patched tensor entry count",
                expected: self.nnz(),
                found: a.nnz(),
            });
        }
        let src = a.entries();
        for &(i, j, k) in touched {
            if i >= self.n || j >= self.n || k >= self.m {
                return Err(TensorError::IndexOutOfBounds {
                    index: (i, j, k),
                    shape: (self.n, self.n, self.m),
                });
            }
            if src
                .binary_search_by_key(&(k, j, i), |e| (e.k, e.j, e.i))
                .is_err()
            {
                return Err(TensorError::StructuralPatch { index: (i, j, k) });
            }
        }

        // Distinct mode-1 fibers (k, j) and mode-3 fibers (i, j) holding a
        // touched coordinate; sorted + deduplicated so each is
        // re-normalized exactly once.
        let mut fibers: Vec<(usize, usize)> = touched.iter().map(|&(_, j, k)| (k, j)).collect();
        fibers.sort_unstable();
        fibers.dedup();
        let mut pairs: Vec<(usize, usize)> = touched.iter().map(|&(i, j, _)| (i, j)).collect();
        pairs.sort_unstable();
        pairs.dedup();

        for &(k, j) in &fibers {
            let slice = a.entries_for_relation(k);
            let lo = slice.partition_point(|e| e.j < j);
            let hi = slice.partition_point(|e| e.j <= j);
            patch_o_fiber(&mut self.cs, &slice[lo..hi]);
        }
        for &(i, j) in &pairs {
            let p = self
                .present_pairs
                .binary_search_by(|&(pi, pj)| (pi as usize, pj as usize).cmp(&(i, j)))
                .unwrap_or_else(|_| {
                    unreachable!("touched coordinates were validated against stored entries")
                });
            patch_r_pair(&mut self.cs, src, p);
        }
        Ok(())
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of relations `m`.
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.m
    }

    /// Stored entry count `D`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cs.nnz()
    }

    /// Hot-storage byte footprint versus the retired array-of-structs
    /// layout, for the bench memory sanity check.
    pub fn entry_byte_sizes(&self) -> EntryByteSizes {
        EntryByteSizes {
            aos: self.nnz() * AOS_ENTRY_BYTES,
            o_path: self.cs.o_path_bytes(),
            r_path: self.cs.r_path_bytes(),
        }
    }

    /// Whether a contraction over `columns` operand columns should
    /// partition its output over pool workers: the adaptive work gate
    /// ([`pool::should_parallelize`], entry visits = nnz × columns).
    /// Purely a scheduling decision — results are bitwise identical
    /// either way.
    #[inline]
    fn use_parallel(&self, columns: usize) -> bool {
        pool::should_parallelize(self.cs.nnz().saturating_mul(columns))
    }

    /// `o_{i,j,k}` including the dangling rule (uniform `1/n` on absent
    /// fibers). `O(log D)` — intended for tests and small tensors.
    pub fn o_get(&self, i: usize, j: usize, k: usize) -> f64 {
        debug_assert!(
            i < self.n && j < self.n && k < self.m,
            "o_get({i}, {j}, {k}) out of bounds for n = {}, m = {}",
            self.n,
            self.m
        );
        let fiber_present = self
            .present_columns
            .binary_search_by_key(&(k as u32, j as u32), |&(pj, pk)| (pk, pj))
            .is_ok();
        if !fiber_present {
            return 1.0 / self.n as f64;
        }
        let cs = &self.cs;
        let (key_k, key_j) = (k as u32, j as u32);
        let mut lo = cs.o_row_ptr[i];
        let mut hi = cs.o_row_ptr[i + 1];
        let row_end = hi;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (cs.o_rel[mid], cs.o_col[mid]) < (key_k, key_j) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < row_end && cs.o_rel[lo] == key_k && cs.o_col[lo] == key_j {
            cs.o_vals[lo]
        } else {
            0.0
        }
    }

    /// `r_{i,j,k}` including the dangling rule (uniform `1/m` on absent
    /// pairs). `O(log D)` — intended for tests and small tensors.
    pub fn r_get(&self, i: usize, j: usize, k: usize) -> f64 {
        debug_assert!(
            i < self.n && j < self.n && k < self.m,
            "r_get({i}, {j}, {k}) out of bounds for n = {}, m = {}",
            self.n,
            self.m
        );
        let cs = &self.cs;
        match self.present_pairs.binary_search(&(i as u32, j as u32)) {
            Err(_) => 1.0 / self.m as f64,
            Ok(p) => {
                for &sidx in &cs.pair_order[cs.pair_ptr[p]..cs.pair_ptr[p + 1]] {
                    if cs.relation_of(sidx as usize) == k {
                        return cs.r_vals[sidx as usize];
                    }
                }
                0.0
            }
        }
    }

    /// The analytic dangling term of the `O` contraction: the per-node
    /// uniform share and whether any mass dangles at all (the correction
    /// is skipped entirely when it does not, matching the historical
    /// summation order exactly).
    fn o_share(&self, x: &[f64], z: &[f64]) -> (f64, bool) {
        let total_mass = kahan_sum(x) * kahan_sum(z);
        let present_mass = kahan_map_sum(&self.present_columns, |&(j, k)| {
            x[j as usize] * z[k as usize]
        });
        let dangling = total_mass - present_mass;
        (dangling / self.n as f64, dangling != 0.0)
    }

    /// The analytic dangling term of the `R` contraction for operand `x`.
    fn r_share(&self, x: &[f64]) -> (f64, bool) {
        let mass = kahan_sum(x);
        let total_mass = mass * mass;
        let present_mass =
            kahan_map_sum(&self.present_pairs, |&(i, j)| x[i as usize] * x[j as usize]);
        let dangling = total_mass - present_mass;
        (dangling / self.m as f64, dangling != 0.0)
    }

    /// Gathers `out[t] = Σ_{idx ∈ row (start + t)} o · x_j · z_k` plus the
    /// dangling share. One exclusive owner per output element, terms added
    /// in storage `(k, j)` order: the bitwise contract every partitioning
    /// of the output relies on.
    fn o_gather(
        &self,
        x: &[f64],
        z: &[f64],
        share: f64,
        correct: bool,
        start: usize,
        out: &mut [f64],
    ) {
        let cs = &self.cs;
        for (t, yi) in out.iter_mut().enumerate() {
            let i = start + t;
            *yi = 0.0;
            for idx in cs.o_row_ptr[i]..cs.o_row_ptr[i + 1] {
                *yi += cs.o_vals[idx] * x[cs.o_col[idx] as usize] * z[cs.o_rel[idx] as usize];
            }
        }
        if correct {
            for yi in out.iter_mut() {
                *yi += share;
            }
        }
    }

    /// Gathers `out[t] = Σ_{idx ∈ slice (start + t)} r · x_i · x_j` plus
    /// the dangling share, with the same exclusive-owner contract as
    /// [`StochasticTensors::o_gather`].
    fn r_gather(&self, x: &[f64], share: f64, correct: bool, start: usize, out: &mut [f64]) {
        let cs = &self.cs;
        for (t, zk) in out.iter_mut().enumerate() {
            let k = start + t;
            *zk = 0.0;
            for idx in cs.slice_ptr[k]..cs.slice_ptr[k + 1] {
                *zk += cs.r_vals[idx] * x[cs.row_idx[idx] as usize] * x[cs.col_idx[idx] as usize];
            }
        }
        if correct {
            for zk in out.iter_mut() {
                *zk += share;
            }
        }
    }

    /// `y = O ×̄₁ x ×̄₃ z` (Eq. 5 / step 5 of Algorithm 1) as a freshly
    /// allocated vector: [`StochasticTensors::contract_o_multi_into`] with
    /// one column. For stochastic `x` and `z` the output is stochastic
    /// (Theorem 1).
    ///
    /// # Errors
    /// [`TensorError::VectorLengthMismatch`] on wrong operand lengths.
    pub fn contract_o(&self, x: &[f64], z: &[f64]) -> Result<Vec<f64>, TensorError> {
        let mut y = vec![0.0; self.n];
        self.contract_o_multi_into(x, z, &mut y, 1)?;
        Ok(y)
    }

    /// `z = R ×̄₁ x ×̄₂ x` (Eq. 6 / step 6 of Algorithm 1) as a freshly
    /// allocated vector: [`StochasticTensors::contract_r_multi_into`] with
    /// one column. For stochastic `x` the output is stochastic.
    ///
    /// # Errors
    /// [`TensorError::VectorLengthMismatch`] on wrong operand length.
    pub fn contract_r(&self, x: &[f64]) -> Result<Vec<f64>, TensorError> {
        let mut z = vec![0.0; self.m];
        self.contract_r_multi_into(x, &mut z, 1)?;
        Ok(z)
    }

    /// Debug-build Theorem-1 check: when every input lies on the
    /// probability simplex, the contraction output must too. Skipped when
    /// an input is off-simplex (callers may legitimately contract raw
    /// score vectors); no-op in release builds.
    fn debug_verify_simplex_preserved(&self, inputs: &[&[f64]], output: &[f64], what: &str) {
        if !cfg!(debug_assertions) {
            return;
        }
        let tol = crate::invariants::SIMPLEX_TOL;
        if inputs
            .iter()
            .all(|v| crate::invariants::simplex_violation(v, tol).is_none())
        {
            crate::debug_assert_simplex!(output, tol, what);
        }
    }

    /// Batched `O` contraction: `ys[:, c] = O ×̄₁ xs[:, c] ×̄₃ zs[:, c]` for
    /// `q` classes at once. `xs`/`ys` are column-major `n × q` blocks
    /// (class `c` occupies `xs[c·n .. (c+1)·n]`) and `zs` is a column-major
    /// `m × q` block.
    ///
    /// Serially, one pass over the stored entries serves all `q` classes —
    /// the cache-locality win over `q` independent one-column calls. With
    /// free pool workers, the output block is partitioned into
    /// `(class, row-range)` chunks computed concurrently. Either way each
    /// output element sums its row entries in storage `(k, j)` order, then
    /// adds the analytic dangling correction, so each output column is
    /// bit-for-bit identical to a one-column call on the same operands (and
    /// independent of `q`), at any thread count.
    ///
    /// # Errors
    /// [`TensorError::VectorLengthMismatch`] on wrong block lengths.
    pub fn contract_o_multi_into(
        &self,
        xs: &[f64],
        zs: &[f64],
        ys: &mut [f64],
        q: usize,
    ) -> Result<(), TensorError> {
        let (n, m) = (self.n, self.m);
        if xs.len() != n * q {
            return Err(TensorError::VectorLengthMismatch {
                operand: "xs",
                expected: n * q,
                found: xs.len(),
            });
        }
        if zs.len() != m * q {
            return Err(TensorError::VectorLengthMismatch {
                operand: "zs",
                expected: m * q,
                found: zs.len(),
            });
        }
        if ys.len() != n * q {
            return Err(TensorError::VectorLengthMismatch {
                operand: "ys",
                expected: n * q,
                found: ys.len(),
            });
        }
        if q == 0 {
            return Ok(());
        }
        let mut shares = vec![(0.0f64, false); q];
        for c in 0..q {
            shares[c] = self.o_share(&xs[c * n..(c + 1) * n], &zs[c * m..(c + 1) * m]);
        }
        if self.use_parallel(q) {
            partition::run_col_chunks(&self.cs.o_parts, ys, n, |c, start, chunk| {
                let (share, correct) = shares[c];
                self.o_gather(
                    &xs[c * n..(c + 1) * n],
                    &zs[c * m..(c + 1) * m],
                    share,
                    correct,
                    start,
                    chunk,
                );
            });
        } else {
            let cs = &self.cs;
            ys.fill(0.0);
            for i in 0..n {
                for idx in cs.o_row_ptr[i]..cs.o_row_ptr[i + 1] {
                    let j = cs.o_col[idx] as usize;
                    let k = cs.o_rel[idx] as usize;
                    let o = cs.o_vals[idx];
                    for c in 0..q {
                        ys[c * n + i] += o * xs[c * n + j] * zs[c * m + k];
                    }
                }
            }
            for c in 0..q {
                let (share, correct) = shares[c];
                if correct {
                    for yi in ys[c * n..(c + 1) * n].iter_mut() {
                        *yi += share;
                    }
                }
            }
        }
        for c in 0..q {
            self.debug_verify_simplex_preserved(
                &[&xs[c * n..(c + 1) * n], &zs[c * m..(c + 1) * m]],
                &ys[c * n..(c + 1) * n],
                "O ×̄₁ x ×̄₃ z (Theorem 1)",
            );
        }
        Ok(())
    }

    /// Batched `R` contraction: `zs[:, c] = R ×̄₁ xs[:, c] ×̄₂ xs[:, c]` for
    /// `q` classes at once, over column-major `n × q` / `m × q` blocks.
    /// Serially one pass over the stored entries serves all classes; with
    /// free pool workers the output block is partitioned into
    /// `(class, relation-range)` chunks. Each output column is bit-for-bit
    /// identical to a one-column call on the same operand (same entry
    /// order, same Kahan-compensated dangling correction) at any thread
    /// count.
    ///
    /// # Errors
    /// [`TensorError::VectorLengthMismatch`] on wrong block lengths.
    pub fn contract_r_multi_into(
        &self,
        xs: &[f64],
        zs: &mut [f64],
        q: usize,
    ) -> Result<(), TensorError> {
        let (n, m) = (self.n, self.m);
        if xs.len() != n * q {
            return Err(TensorError::VectorLengthMismatch {
                operand: "xs",
                expected: n * q,
                found: xs.len(),
            });
        }
        if zs.len() != m * q {
            return Err(TensorError::VectorLengthMismatch {
                operand: "zs",
                expected: m * q,
                found: zs.len(),
            });
        }
        if q == 0 {
            return Ok(());
        }
        let mut shares = vec![(0.0f64, false); q];
        for c in 0..q {
            let x = &xs[c * n..(c + 1) * n];
            shares[c] = self.r_share(x);
        }
        if self.use_parallel(q) {
            partition::run_col_chunks(&self.cs.r_parts, zs, m, |c, start, chunk| {
                let (share, correct) = shares[c];
                let x = &xs[c * n..(c + 1) * n];
                self.r_gather(x, share, correct, start, chunk);
            });
        } else {
            let cs = &self.cs;
            zs.fill(0.0);
            for k in 0..m {
                for idx in cs.slice_ptr[k]..cs.slice_ptr[k + 1] {
                    let i = cs.row_idx[idx] as usize;
                    let j = cs.col_idx[idx] as usize;
                    let r = cs.r_vals[idx];
                    for c in 0..q {
                        zs[c * m + k] += r * xs[c * n + i] * xs[c * n + j];
                    }
                }
            }
            for c in 0..q {
                let (share, correct) = shares[c];
                if correct {
                    for zk in zs[c * m..(c + 1) * m].iter_mut() {
                        *zk += share;
                    }
                }
            }
        }
        for c in 0..q {
            self.debug_verify_simplex_preserved(
                &[&xs[c * n..(c + 1) * n]],
                &zs[c * m..(c + 1) * m],
                "R ×̄₁ x ×̄₂ x (Theorem 1)",
            );
        }
        Ok(())
    }
}

/// Entry-range boundaries for the parallel mode-1 normalization pass:
/// roughly nnz-balanced, snapped *forward* so every `(j, k)` fiber run is
/// fully contained in one range (a fiber's Kahan sum must be computed by
/// one worker over the whole run, exactly as the serial pass does).
fn fiber_aligned_bounds(src: &[Entry]) -> Vec<usize> {
    let nnz = src.len();
    let parts = partition::MAX_PARTS.min(nnz.max(1));
    let step = nnz / parts;
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    let mut last = 0usize;
    for t in 1..parts {
        // step <= nnz / parts and t < parts, so step * t <= nnz.
        let mut cut = step * t;
        while cut > 0 && cut < nnz && src[cut].k == src[cut - 1].k && src[cut].j == src[cut - 1].j {
            cut += 1;
        }
        if cut > last && cut < nnz {
            bounds.push(cut);
            last = cut;
        }
    }
    bounds.push(nnz);
    bounds
}

/// Eq. (1) over whole `(j, k)` fibers: `run` starts at a fiber boundary
/// and `out` is its scratch sub-slice (`run` may extend past it; only
/// `out.len()` entries are normalized). Each fiber's Kahan sum visits its
/// values in storage order, whichever chunk the fiber lands in.
fn normalize_fibers(run: &[Entry], out: &mut [f64]) {
    let run = &run[..out.len()];
    let mut start = 0;
    while start < run.len() {
        let (k, j) = (run[start].k, run[start].j);
        let mut end = start + 1;
        while end < run.len() && run[end].k == k && run[end].j == j {
            end += 1;
        }
        let sum = kahan_map_sum(&run[start..end], |e| e.value);
        for t in start..end {
            out[t] = run[t].value / sum;
        }
        start = end;
    }
}

/// One row block's disjoint sub-slices of the row-grouped arrays: the
/// `O` path and the permutation that becomes the pair order.
struct RowBlock<'a> {
    o_col: &'a mut [u32],
    o_rel: &'a mut [u32],
    o_vals: &'a mut [f64],
    order: &'a mut [u32],
}

impl<'a> RowBlock<'a> {
    /// Splits off the first `len` positions of every array.
    fn split_at(self, len: usize) -> (RowBlock<'a>, RowBlock<'a>) {
        let (o_col, col_tail) = self.o_col.split_at_mut(len);
        let (o_rel, rel_tail) = self.o_rel.split_at_mut(len);
        let (o_vals, vals_tail) = self.o_vals.split_at_mut(len);
        let (order, order_tail) = self.order.split_at_mut(len);
        (
            RowBlock {
                o_col,
                o_rel,
                o_vals,
                order,
            },
            RowBlock {
                o_col: col_tail,
                o_rel: rel_tail,
                o_vals: vals_tail,
                order: order_tail,
            },
        )
    }
}

/// One row block of [`StochasticTensors::assemble`]: `rows` are the
/// block's row pointers (one more than its rows) and `block.order`
/// enters holding the block's storage indices grouped by row in storage
/// order. Fills the `O` path from the Eq. (1) probabilities, then sorts
/// each row by `j`. A stored `(j, k)` is unique within a row, so the
/// unstable sort by `(j, k)` has one outcome: each row's storage order
/// stably sorted by `j`, i.e. the row's `(i, j)` pairs in ascending order,
/// each pair's entries `k`-ascending.
fn assemble_rows(src: &[Entry], o_probs: &[f64], rows: &[usize], block: RowBlock<'_>) {
    let base = rows[0];
    for r in 1..rows.len() {
        let (lo, hi) = (rows[r - 1] - base, rows[r] - base);
        for t in lo..hi {
            let idx = block.order[t] as usize;
            block.o_col[t] = src[idx].j as u32;
            block.o_rel[t] = src[idx].k as u32;
            block.o_vals[t] = o_probs[idx];
        }
        block.order[lo..hi].sort_unstable_by_key(|&idx| (src[idx as usize].j, src[idx as usize].k));
    }
}

/// Re-normalizes one stored mode-1 fiber in place: `run` is the fiber's
/// contiguous `(k, j)` entry run in the patched tensor. Recomputes the Eq. (1)
/// probabilities `o = value / Σ value` with the same Kahan sum over the
/// same storage-order values as `from_tensor`'s pass 1, so the result is
/// bitwise identical to a full rebuild. Each entry's row-grouped slot is
/// found by the `o_get` binary search over `(o_rel, o_col)`.
/// Allocation-free.
fn patch_o_fiber(cs: &mut CompressedSlices, run: &[Entry]) {
    let sum = kahan_map_sum(run, |e| e.value);
    let mut check = KahanAccumulator::new();
    for e in run {
        let o = e.value / sum;
        let mut lo = cs.o_row_ptr[e.i];
        let mut hi = cs.o_row_ptr[e.i + 1];
        let row_end = hi;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (cs.o_rel[mid] as usize, cs.o_col[mid] as usize) < (e.k, e.j) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        debug_assert!(
            lo < row_end && cs.o_rel[lo] as usize == e.k && cs.o_col[lo] as usize == e.j,
            "stored fiber entry must have a row-grouped slot"
        );
        cs.o_vals[lo] = o;
        check.add(o);
    }
    debug_assert!(
        (check.total() - 1.0).abs() <= crate::invariants::SIMPLEX_TOL,
        "patched O fiber must stay stochastic (Eq. 1)"
    );
}

/// Re-normalizes one stored mode-3 fiber in place: `p` indexes the
/// `(i, j)` pair in `present_pairs` / `pair_ptr` and `src` is the patched
/// tensor's storage-order entry stream. The Kahan sum walks `pair_order`
/// exactly as `from_tensor`'s pass 2 walked `order`, so the recomputed
/// Eq. (2) probabilities are bitwise identical to a full rebuild.
/// Allocation-free.
fn patch_r_pair(cs: &mut CompressedSlices, src: &[Entry], p: usize) {
    let (seg_lo, seg_hi) = (cs.pair_ptr[p], cs.pair_ptr[p + 1]);
    let sum = kahan_map_sum(&cs.pair_order[seg_lo..seg_hi], |&sidx| {
        src[sidx as usize].value
    });
    let mut check = KahanAccumulator::new();
    for t in seg_lo..seg_hi {
        let sidx = cs.pair_order[t] as usize;
        let r = src[sidx].value / sum;
        cs.r_vals[sidx] = r;
        check.add(r);
    }
    debug_assert!(
        (check.total() - 1.0).abs() <= crate::invariants::SIMPLEX_TOL,
        "patched R fiber must stay stochastic (Eq. 2)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmark_linalg::vector::is_stochastic;

    /// Section 3.2 worked example (see `tensor.rs` for the construction).
    fn example() -> (SparseTensor3, StochasticTensors) {
        let entries = vec![
            (0, 1, 0, 1.0), // co-author p1-p2 (undirected: both ways)
            (1, 0, 0, 1.0),
            (1, 2, 1, 1.0), // p3 cites p2
            (3, 2, 1, 1.0), // p3 cites p4
            (0, 3, 1, 1.0), // p4 cites p1
            (1, 2, 2, 1.0), // same conference p2-p3 (both ways)
            (2, 1, 2, 1.0),
        ];
        let t = SparseTensor3::from_entries(4, 3, entries).unwrap();
        let s = StochasticTensors::from_tensor(&t);
        (t, s)
    }

    #[test]
    fn o_normalizes_mode1_fibers() {
        let (_, s) = example();
        // Fiber (j=2, k=1): p3's citations go to p2 and p4 with equal mass.
        assert!((s.o_get(1, 2, 1) - 0.5).abs() < 1e-12);
        assert!((s.o_get(3, 2, 1) - 0.5).abs() < 1e-12);
        assert_eq!(s.o_get(0, 2, 1), 0.0);
        // Fiber (j=1, k=0): single entry, probability one.
        assert!((s.o_get(0, 1, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn o_dangling_fiber_is_uniform_over_n() {
        let (_, s) = example();
        // No node links to p1 via "same conference": fiber (j=0, k=2) dangles.
        for i in 0..4 {
            assert!((s.o_get(i, 0, 2) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn r_normalizes_mode3_fibers() {
        let (_, s) = example();
        // Pair (i=1, j=2): linked via citation AND same-conference.
        assert!((s.r_get(1, 2, 1) - 0.5).abs() < 1e-12);
        assert!((s.r_get(1, 2, 2) - 0.5).abs() < 1e-12);
        assert_eq!(s.r_get(1, 2, 0), 0.0);
        // Pair (i=0, j=3): only citation.
        assert!((s.r_get(0, 3, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_dangling_pair_is_uniform_over_m() {
        let (_, s) = example();
        // p1 and p3 share no link: pair (0, 2) dangles.
        for k in 0..3 {
            assert!((s.r_get(0, 2, k) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn patch_entries_matches_full_rebuild_bitwise() {
        let (mut t, mut s) = example();
        // Touch two coordinates in different fibers: one shared-fiber
        // citation edge and one co-author edge.
        let updates = [(1usize, 2usize, 1usize, 0.5f64), (0, 1, 0, 2.0)];
        let summary = t.patch_entries(&updates).unwrap();
        assert_eq!(summary.inserted, 0);
        let touched: Vec<(usize, usize, usize)> =
            updates.iter().map(|&(i, j, k, _)| (i, j, k)).collect();
        s.patch_entries(&t, &touched).unwrap();
        let fresh = StochasticTensors::from_tensor(&t);
        // Bitwise identity of every hot and cold value array.
        assert_eq!(s.cs.o_vals, fresh.cs.o_vals);
        assert_eq!(s.cs.r_vals, fresh.cs.r_vals);
        assert_eq!(s.present_pairs, fresh.present_pairs);
        assert_eq!(s.present_columns, fresh.present_columns);
    }

    #[test]
    fn patch_entries_rejects_structural_changes() {
        let (mut t, mut s) = example();
        // A coordinate with no stored entry is a structural patch.
        assert!(matches!(
            s.patch_entries(&t, &[(0, 2, 0)]),
            Err(TensorError::StructuralPatch { index: (0, 2, 0) })
        ));
        // An inserted entry desynchronizes the entry count.
        t.patch_entries(&[(0, 2, 0, 1.0)]).unwrap();
        assert!(matches!(
            s.patch_entries(&t, &[(0, 2, 0)]),
            Err(TensorError::VectorLengthMismatch { .. })
        ));
        // Either failure leaves the pair untouched and fully usable.
        let (t0, fresh) = example();
        assert_eq!(s.cs.o_vals, fresh.cs.o_vals);
        assert_eq!(s.cs.r_vals, fresh.cs.r_vals);
        drop(t0);
    }

    #[test]
    fn patch_entries_validates_bounds() {
        let (t, mut s) = example();
        assert!(matches!(
            s.patch_entries(&t, &[(4, 0, 0)]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn contract_o_preserves_simplex() {
        let (_, s) = example();
        let x = [0.4, 0.3, 0.2, 0.1];
        let z = [0.5, 0.25, 0.25];
        let y = s.contract_o(&x, &z).unwrap();
        assert!(is_stochastic(&y, 1e-12), "y = {y:?}");
    }

    #[test]
    fn contract_r_preserves_simplex() {
        let (_, s) = example();
        let x = [0.4, 0.3, 0.2, 0.1];
        let z = s.contract_r(&x).unwrap();
        assert!(is_stochastic(&z, 1e-12), "z = {z:?}");
    }

    #[test]
    fn contract_o_matches_brute_force_with_dangling() {
        let (_, s) = example();
        let x = [0.4, 0.3, 0.2, 0.1];
        let z = [0.5, 0.25, 0.25];
        let y = s.contract_o(&x, &z).unwrap();
        for i in 0..4 {
            let mut expect = 0.0;
            for j in 0..4 {
                for k in 0..3 {
                    expect += s.o_get(i, j, k) * x[j] * z[k];
                }
            }
            assert!(
                (y[i] - expect).abs() < 1e-12,
                "mismatch at i={i}: {} vs {expect}",
                y[i]
            );
        }
    }

    #[test]
    fn contract_r_matches_brute_force_with_dangling() {
        let (_, s) = example();
        let x = [0.4, 0.3, 0.2, 0.1];
        let z = s.contract_r(&x).unwrap();
        for k in 0..3 {
            let mut expect = 0.0;
            for i in 0..4 {
                for j in 0..4 {
                    expect += s.r_get(i, j, k) * x[i] * x[j];
                }
            }
            assert!(
                (z[k] - expect).abs() < 1e-12,
                "mismatch at k={k}: {} vs {expect}",
                z[k]
            );
        }
    }

    #[test]
    fn contractions_validate_operand_lengths() {
        let (_, s) = example();
        assert!(s.contract_o(&[0.0; 3], &[0.0; 3]).is_err());
        assert!(s.contract_o(&[0.0; 4], &[0.0; 4]).is_err());
        assert!(s.contract_r(&[0.0; 2]).is_err());
    }

    #[test]
    fn fully_dangling_tensor_gives_uniform_outputs() {
        // A tensor with a single entry leaves almost everything dangling;
        // feeding mass only through dangling fibers must spread uniformly.
        let t = SparseTensor3::from_entries(3, 2, vec![(0, 1, 0, 1.0)]).unwrap();
        let s = StochasticTensors::from_tensor(&t);
        // x concentrated on node 2, which has no outgoing links at all.
        let x = [0.0, 0.0, 1.0];
        let z = [0.5, 0.5];
        let y = s.contract_o(&x, &z).unwrap();
        for yi in &y {
            assert!((yi - 1.0 / 3.0).abs() < 1e-12);
        }
        let zc = s.contract_r(&x).unwrap();
        for zk in &zc {
            assert!((zk - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn nnz_and_shape_accessors() {
        let (t, s) = example();
        assert_eq!(s.nnz(), t.nnz());
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.num_relations(), 3);
    }

    #[test]
    fn entry_byte_sizes_reflect_the_compression() {
        let (_, s) = example();
        let sizes = s.entry_byte_sizes();
        assert_eq!(sizes.aos, s.nnz() * 40);
        // 16 hot bytes per entry plus the row/slice pointer arrays.
        assert_eq!(sizes.o_path, s.nnz() * 16 + (s.num_nodes() + 1) * 8);
        assert_eq!(sizes.r_path, s.nnz() * 16 + (s.num_relations() + 1) * 8);
        assert!(sizes.o_path < sizes.aos);
    }

    /// A handful of distinct simplex points for the batched-kernel tests.
    fn simplex_columns(len: usize, q: usize) -> Vec<f64> {
        let mut block = Vec::with_capacity(len * q);
        for c in 0..q {
            let mut col: Vec<f64> = (0..len).map(|i| ((c * len + i) % 7 + 1) as f64).collect();
            assert!(tmark_linalg::vector::normalize_sum_to_one(&mut col));
            block.extend_from_slice(&col);
        }
        block
    }

    #[test]
    fn contract_o_multi_matches_per_class_bitwise() {
        let (_, s) = example();
        let (n, m, q) = (4, 3, 5);
        let xs = simplex_columns(n, q);
        let zs = simplex_columns(m, q);
        let mut ys = vec![f64::NAN; n * q];
        s.contract_o_multi_into(&xs, &zs, &mut ys, q).unwrap();
        for c in 0..q {
            let single = s
                .contract_o(&xs[c * n..(c + 1) * n], &zs[c * m..(c + 1) * m])
                .unwrap();
            assert_eq!(&ys[c * n..(c + 1) * n], single.as_slice(), "class {c}");
        }
    }

    #[test]
    fn contract_r_multi_matches_per_class_bitwise() {
        let (_, s) = example();
        let (n, m, q) = (4, 3, 5);
        let xs = simplex_columns(n, q);
        let mut zs = vec![f64::NAN; m * q];
        s.contract_r_multi_into(&xs, &mut zs, q).unwrap();
        for c in 0..q {
            let single = s.contract_r(&xs[c * n..(c + 1) * n]).unwrap();
            assert_eq!(&zs[c * m..(c + 1) * m], single.as_slice(), "class {c}");
        }
    }

    #[test]
    fn multi_contractions_accept_zero_classes_and_reject_bad_shapes() {
        let (_, s) = example();
        let mut empty: [f64; 0] = [];
        s.contract_o_multi_into(&[], &[], &mut empty, 0).unwrap();
        s.contract_r_multi_into(&[], &mut empty, 0).unwrap();
        let err = s
            .contract_o_multi_into(&[0.5; 4], &[0.5; 3], &mut [0.0; 4], 2)
            .unwrap_err();
        assert!(matches!(
            err,
            TensorError::VectorLengthMismatch { operand: "xs", .. }
        ));
        let err = s
            .contract_r_multi_into(&[0.25; 8], &mut [0.0; 3], 2)
            .unwrap_err();
        assert!(matches!(
            err,
            TensorError::VectorLengthMismatch { operand: "zs", .. }
        ));
    }

    /// Pseudo-random draws `(i, j, k, value)` with duplicate coordinates,
    /// skewed rows, and guaranteed dangling structure (node `n - 1` has no
    /// outgoing links).
    fn random_draws(
        n: usize,
        m: usize,
        draws: usize,
        seed: u64,
    ) -> Vec<(usize, usize, usize, f64)> {
        let mut state = seed;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut entries = Vec::with_capacity(draws);
        for _ in 0..draws {
            let i = (lcg() as usize) % n;
            let j = (lcg() as usize) % (n - 1);
            let k = (lcg() as usize) % m;
            let v = 1.0 + (lcg() % 1000) as f64 / 250.0;
            entries.push((i, j, k, v));
        }
        entries
    }

    /// The random shapes of the build tests: several `(n, m)` so the fiber
    /// ranges and row blocks land on different boundaries.
    const SHAPES: [(usize, usize, usize, u64); 3] =
        [(97, 4, 3000, 11), (23, 2, 300, 7), (151, 6, 5000, 23)];

    fn assert_builds_identical(a: &StochasticTensors, b: &StochasticTensors, label: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.n, b.n, "{label}: n");
        assert_eq!(a.m, b.m, "{label}: m");
        assert_eq!(
            a.present_columns, b.present_columns,
            "{label}: present_columns"
        );
        assert_eq!(a.present_pairs, b.present_pairs, "{label}: present_pairs");
        assert_eq!(a.cs.slice_ptr, b.cs.slice_ptr, "{label}: slice_ptr");
        assert_eq!(a.cs.row_idx, b.cs.row_idx, "{label}: row_idx");
        assert_eq!(a.cs.col_idx, b.cs.col_idx, "{label}: col_idx");
        assert_eq!(bits(&a.cs.r_vals), bits(&b.cs.r_vals), "{label}: r_vals");
        assert_eq!(a.cs.o_row_ptr, b.cs.o_row_ptr, "{label}: o_row_ptr");
        assert_eq!(a.cs.o_col, b.cs.o_col, "{label}: o_col");
        assert_eq!(a.cs.o_rel, b.cs.o_rel, "{label}: o_rel");
        assert_eq!(bits(&a.cs.o_vals), bits(&b.cs.o_vals), "{label}: o_vals");
        assert_eq!(a.cs.pair_ptr, b.cs.pair_ptr, "{label}: pair_ptr");
        assert_eq!(a.cs.pair_order, b.cs.pair_order, "{label}: pair_order");
        assert_eq!(a.cs.o_parts, b.cs.o_parts, "{label}: o_parts");
        assert_eq!(a.cs.r_parts, b.cs.r_parts, "{label}: r_parts");
    }

    #[test]
    fn from_tensor_parallel_matches_from_tensor_serial_bitwise() {
        // The serial build is the one-chunk assembly, the parallel build
        // the many-chunk one; every compressed array must match bit for
        // bit at any thread cap.
        for (n, m, draws, seed) in SHAPES {
            let t = SparseTensor3::from_entries(n, m, random_draws(n, m, draws, seed)).unwrap();
            let serial = StochasticTensors::assemble(&t, false);
            for cap in [1, 4] {
                pool::set_thread_cap(Some(cap));
                let parallel = StochasticTensors::assemble(&t, true);
                assert_builds_identical(&serial, &parallel, &format!("cap {cap}, many chunks"));
                assert_builds_identical(
                    &serial,
                    &StochasticTensors::assemble(&t, false),
                    &format!("cap {cap}, one chunk"),
                );
            }
            // Through the gate: forced past the work threshold with free
            // workers, from_tensor takes the many-chunk plan.
            pool::set_parallel_work_threshold(Some(1));
            let gated = StochasticTensors::from_tensor(&t);
            pool::set_parallel_work_threshold(None);
            pool::set_thread_cap(None);
            assert_builds_identical(&serial, &gated, "from_tensor above the gate");
        }
    }

    #[test]
    fn from_tensor_dispatches_to_the_serial_build_below_the_threshold() {
        let t = SparseTensor3::from_entries(31, 3, random_draws(31, 3, 200, 5)).unwrap();
        // The default threshold (4M entry visits) is far above 200 draws:
        // the gate picks one chunk, and the result equals that build.
        let via_dispatch = StochasticTensors::from_tensor(&t);
        let serial = StochasticTensors::assemble(&t, false);
        assert_builds_identical(&serial, &via_dispatch, "dispatch");
    }

    #[test]
    fn an_entry_free_tensor_builds_at_one_and_many_chunks() {
        // Only explicit zeros: every fiber and pair dangles.
        let t = SparseTensor3::from_entries(5, 2, vec![(0, 1, 0, 0.0)]).unwrap();
        let one_chunk = StochasticTensors::assemble(&t, false);
        assert_builds_identical(&one_chunk, &StochasticTensors::assemble(&t, true), "empty");
        assert_eq!(one_chunk.nnz(), 0);
        let y = one_chunk.contract_o(&[0.2; 5], &[0.5; 2]).unwrap();
        assert!(y.iter().all(|&v| (v - 0.2).abs() < 1e-12), "{y:?}");
        let z = one_chunk.contract_r(&[0.2; 5]).unwrap();
        assert!(z.iter().all(|&v| (v - 0.5).abs() < 1e-12), "{z:?}");
    }

    #[test]
    fn o_get_and_r_get_match_a_transcription_of_eqs_1_and_2() {
        for (n, m, draws, seed) in SHAPES {
            let raw = random_draws(n, m, draws, seed);
            // Dense a[i][j][k] with duplicates summed.
            let mut a = vec![vec![vec![0.0f64; m]; n]; n];
            for &(i, j, k, v) in &raw {
                a[i][j][k] += v;
            }
            let s =
                StochasticTensors::from_tensor(&SparseTensor3::from_entries(n, m, raw).unwrap());
            for i in 0..n {
                for j in 0..n {
                    for k in 0..m {
                        // Eq. (1): o_{i,j,k} = a_{i,j,k} / Σ_i a_{i,j,k}, or 1/n.
                        let col: f64 = (0..n).map(|r| a[r][j][k]).sum();
                        let o = if col > 0.0 {
                            a[i][j][k] / col
                        } else {
                            1.0 / n as f64
                        };
                        // Eq. (2): r_{i,j,k} = a_{i,j,k} / Σ_k a_{i,j,k}, or 1/m.
                        let pair: f64 = a[i][j].iter().sum();
                        let r = if pair > 0.0 {
                            a[i][j][k] / pair
                        } else {
                            1.0 / m as f64
                        };
                        assert!((s.o_get(i, j, k) - o).abs() < 1e-12, "o({i}, {j}, {k})");
                        assert!((s.r_get(i, j, k) - r).abs() < 1e-12, "r({i}, {j}, {k})");
                    }
                }
            }
        }
    }
}
