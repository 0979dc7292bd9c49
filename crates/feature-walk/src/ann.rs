//! Approximate kNN via SimHash LSH band hashing.
//!
//! Every node's feature vector is projected onto `bands · rows_per_band`
//! seeded ±1 hyperplanes; the sign bits, grouped into `bands` keys of
//! `rows_per_band` bits, bucket the nodes. Nodes sharing any bucket become
//! candidate neighbours, and only candidates are scored with the exact
//! metric — `O(n · candidates)` work instead of the exact backend's
//! `O(n²)` sweep. Recall is approximate by construction, but the output
//! is fully deterministic: the hyperplanes come from a seeded generator,
//! each band's buckets are fixed by sorting its entries by `(key, node)`,
//! and each column's candidate *set* — the other members of its buckets,
//! visited once each through a per-task stamp array — is offered to a
//! top-k buffer under a strict total order, so the kept neighbours do not
//! depend on visiting order. Column ranges have exclusive owners, so a
//! fixed [`AnnParams::seed`] fixes the walk bitwise at any thread cap.
//!
//! [`AnnParams::probes`] enables multi-probe lookups: each node also
//! enters the buckets reached by flipping its least-confident sign bits,
//! trading candidate volume for recall without extra hashing. The
//! default of one probe reproduces classic single-probe LSH bitwise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tmark_linalg::partition::{run_chunks, uniform_bounds};
use tmark_linalg::pool;
use tmark_linalg::similarity::{PreparedMetric, SimilarityMetric};
use tmark_linalg::{DenseMatrix, SparseMatrix};

use crate::backend::{check_node_width, WalkBackend, WalkError};
use crate::mode::AnnParams;
use crate::topk::BandTopK;
use crate::walk::FeatureWalk;

/// Buckets larger than this are truncated before pairing: a bucket's
/// group is the first `GROUP_CAP` entries of its `(key, node)`-sorted
/// run, and entries past the cap get no candidates from that band. This
/// bounds the quadratic blowup of degenerate buckets — e.g. the
/// all-zero-feature bucket every inactive node lands in.
const GROUP_CAP: usize = 512;

/// Approximate k-nearest-neighbour feature-walk builder (SimHash LSH).
#[derive(Debug, Clone, Copy)]
pub struct AnnBackend {
    metric: SimilarityMetric,
    k: usize,
    params: AnnParams,
}

impl AnnBackend {
    /// An approximate top-`k` builder for the given metric and LSH
    /// parameters.
    pub fn new(metric: SimilarityMetric, k: usize, params: AnnParams) -> Self {
        AnnBackend { metric, k, params }
    }

    /// The normalized sparse `W` as a matrix, without wrapping it in a
    /// [`FeatureWalk`].
    ///
    /// # Errors
    /// [`WalkError::IndexOverflow`] when the node count exceeds what the
    /// packed `u32` candidate indices can represent.
    pub fn build_sparse(&self, features: &DenseMatrix) -> Result<SparseMatrix, WalkError> {
        let n = features.rows();
        // Width contract: bucket tables and top-k buffers pack node
        // indices as u32, so reject wider node counts before hashing.
        check_node_width(n)?;
        if n == 0 {
            return Ok(SparseMatrix::from_triplets(0, 0, &[]).expect("empty matrix is well-formed"));
        }
        let prep = PreparedMetric::new(self.metric, features);
        let kk = self.k.min(n.saturating_sub(1));
        let buckets = bucket_groups(features, self.params);

        // One exclusive range of walk positions per task; top-k slots are
        // indexed by position and mapped back to node ids here.
        let bounds = uniform_bounds(n);
        let bs = bounds.as_slice();
        let jobs: Vec<_> = (0..bs.len() - 1)
            .map(|b| {
                let (lo, hi) = (bs[b], bs[b + 1]);
                let (prep, buckets) = (&prep, &buckets);
                move || walk_candidates(prep, buckets, lo, hi, kk)
            })
            .collect();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(n * (kk + 1));
        for (b, result) in pool::run_tasks(jobs).into_iter().enumerate() {
            let topk = match result {
                Ok(topk) => topk,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for pos in bs[b]..bs[b + 1] {
                let j = buckets.order[pos] as usize;
                let self_sim = prep.self_sim(j);
                if self_sim > 0.0 {
                    triplets.push((j, j, self_sim));
                }
                let (idxs, sims) = topk.column(pos);
                for (&i, &s) in idxs.iter().zip(sims) {
                    triplets.push((i as usize, j, s));
                }
            }
        }
        // from_triplets sorts every row by column, so the emission order
        // (walk positions, heap order within a column) does not matter.
        let mut w = SparseMatrix::from_triplets(n, n, &triplets)
            .expect("ann triplets are in bounds by construction");
        w.normalize_columns_stochastic();
        Ok(w)
    }
}

/// SimHash buckets of every band, laid out for the per-column walk.
struct Buckets {
    /// Bucket entries per node and band (the clamped probe count).
    probes: usize,
    /// Entries per band: `n · probes`.
    entries: usize,
    /// Per band (`entries` each): the node of every entry, in
    /// `(key, node)` order.
    members: Vec<u32>,
    /// Per band (`entries` each), indexed by `node · probes + probe`: the
    /// range of that band's `members` forming the entry's truncated
    /// group, or an empty range when the entry falls past [`GROUP_CAP`].
    groups: Vec<(usize, usize)>,
    /// Nodes in band-0 bucket order: by their own band-0 key, then by
    /// index. Columns are walked in this order, so consecutive columns
    /// share candidate rows in cache.
    order: Vec<u32>,
}

/// SimHash bucket keys, laid out band-major: `keys[band][node][probe]`
/// with `probes` (the returned, clamped probe count) entries per node and
/// band. Probe 0 is the node's own bucket.
fn probe_keys(features: &DenseMatrix, params: AnnParams) -> (usize, Vec<u64>) {
    let n = features.rows();
    let d = features.cols();
    let bands = params.bands.max(1);
    let rows_per_band = params.rows_per_band.clamp(1, 63);
    let nplanes = bands * rows_per_band;

    // Seeded ±1 hyperplanes, sampled in a fixed row-major order so the
    // seed alone pins the projection.
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut planes = vec![0.0f64; nplanes * d];
    for slot in planes.iter_mut() {
        *slot = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    }

    // Projections, node-major, parallel over node blocks (each node's
    // `nplanes` slots have one exclusive owner).
    let mut proj = vec![0.0f64; n * nplanes];
    let bounds = uniform_bounds(n);
    let ebounds: Vec<usize> = bounds.as_slice().iter().map(|&b| b * nplanes).collect();
    run_chunks(&ebounds, &mut proj, |start, chunk| {
        project_signatures(features, &planes, nplanes, start / nplanes, chunk);
    });

    // Pack each band's sign bits into a key. Multi-probe: besides its own
    // key, each node also enters the buckets reached by flipping the sign
    // bits whose projections landed closest to the hyperplane (the
    // likeliest misassignments), in closeness order. With `probes == 1`
    // this is the classic one-key-per-node layout, so the default is
    // bitwise identical to single-probe hashing.
    let probes = params.probes.clamp(1, rows_per_band + 1);
    let total = n
        .checked_mul(probes)
        .and_then(|e| e.checked_mul(bands))
        .unwrap_or_else(|| unreachable!("probe keys are bounded by the projection buffer"));
    let mut keys = vec![0u64; total];
    let mut flip_rank: Vec<(f64, usize)> = Vec::with_capacity(rows_per_band);
    for (band, band_keys) in keys.chunks_exact_mut(n * probes).enumerate() {
        for (node, node_keys) in band_keys.chunks_exact_mut(probes).enumerate() {
            let base = node * nplanes + band * rows_per_band;
            let signs = &proj[base..base + rows_per_band];
            let mut key = 0u64;
            for (bit, &p) in signs.iter().enumerate() {
                if p >= 0.0 {
                    key |= 1 << bit;
                }
            }
            node_keys[0] = key;
            if probes > 1 {
                flip_rank.clear();
                for (bit, &p) in signs.iter().enumerate() {
                    flip_rank.push((p.abs(), bit));
                }
                // total_cmp + bit index: a total, platform-independent order
                // even on ties, so probe keys are pinned by the seed alone.
                flip_rank.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for (dst, &(_, bit)) in node_keys[1..].iter_mut().zip(&flip_rank) {
                    *dst = key ^ (1 << bit);
                }
            }
        }
    }
    (probes, keys)
}

/// Hashes every node into its SimHash buckets and records, per band and
/// probe entry, the truncated group the entry pairs within.
fn bucket_groups(features: &DenseMatrix, params: AnnParams) -> Buckets {
    let n = features.rows();
    let (probes, keys) = probe_keys(features, params);
    // Entry `slot = node · probes + probe` sorts by (key, slot), which is
    // the (key, node) order because a node's probe keys are distinct.
    // That order fixes every bucket and its truncation.
    let entries = n * probes;
    let mut members = vec![0u32; keys.len()];
    let mut groups = vec![(0usize, 0usize); keys.len()];
    let mut order = vec![0u32; n];
    let mut keyed: Vec<(u64, usize)> = vec![(0, 0); entries];
    let tables = keys
        .chunks_exact(entries)
        .zip(members.chunks_exact_mut(entries))
        .zip(groups.chunks_exact_mut(entries));
    for (band, ((band_keys, band_members), band_groups)) in tables.enumerate() {
        for (slot, (dst, &key)) in keyed.iter_mut().zip(band_keys).enumerate() {
            *dst = (key, slot);
        }
        if band == 0 {
            // Walk order: each node's own (probe-0) band-0 key, then index.
            let mut own: Vec<(u64, usize)> = keyed.iter().step_by(probes).copied().collect();
            own.sort_unstable();
            for (dst, &(_, slot)) in order.iter_mut().zip(&own) {
                *dst = (slot / probes) as u32;
            }
        }
        keyed.sort_unstable();
        for (dst, &(_, slot)) in band_members.iter_mut().zip(keyed.iter()) {
            *dst = (slot / probes) as u32;
        }
        let mut start = 0;
        while start < entries {
            let mut end = start + 1;
            while end < entries && keyed[end].0 == keyed[start].0 {
                end += 1;
            }
            // Entries past the cap keep the empty range they start with.
            let capped = start + (end - start).min(GROUP_CAP);
            for &(_, slot) in &keyed[start..capped] {
                band_groups[slot] = (start, capped);
            }
            start = end;
        }
    }
    Buckets {
        probes,
        entries,
        members,
        groups,
        order,
    }
}

/// Scores the candidates of the columns at walk positions `lo .. hi` with
/// the exact metric and keeps the top `k` per position. A column's
/// candidates are the other members of its truncated groups in every band
/// and probe; a per-task stamp array visits each one once.
fn walk_candidates(
    prep: &PreparedMetric<'_>,
    buckets: &Buckets,
    lo: usize,
    hi: usize,
    k: usize,
) -> BandTopK {
    let mut topk = BandTopK::new(lo, hi - lo, k);
    // stamp[i] == j: node i was already seen for column j. Every node
    // starts as seen for itself, and each column re-stamps itself before
    // its walk, so self-pairs are never scored; any other stamp names a
    // column already walked, never the current one.
    let mut stamp = vec![0u32; buckets.order.len()];
    for &node in &buckets.order {
        stamp[node as usize] = node;
    }
    let probes = buckets.probes;
    let skip = prep.zero_when_inactive();
    for (pos, &col) in (lo..hi).zip(&buckets.order[lo..hi]) {
        let j = col as usize;
        if skip && !prep.is_active(j) {
            continue;
        }
        stamp[j] = col;
        let first = j * probes;
        let tables = buckets
            .members
            .chunks_exact(buckets.entries)
            .zip(buckets.groups.chunks_exact(buckets.entries));
        for (members, groups) in tables {
            for &(glo, ghi) in &groups[first..first + probes] {
                for &i in &members[glo..ghi] {
                    let seen = &mut stamp[i as usize];
                    if *seen == col {
                        continue;
                    }
                    *seen = col;
                    let s = prep.sim(i as usize, j);
                    if s > 0.0 {
                        topk.push(pos, i, s);
                    }
                }
            }
        }
    }
    topk
}

/// Fills the projection slots of nodes `first_node ..`: each node's block
/// is `dot(plane_p, features[node])` for every plane, in plane order.
fn project_signatures(
    features: &DenseMatrix,
    planes: &[f64],
    nplanes: usize,
    first_node: usize,
    block: &mut [f64],
) {
    for (local, slots) in block.chunks_exact_mut(nplanes).enumerate() {
        let row = features.row(first_node + local);
        for (p, slot) in slots.iter_mut().enumerate() {
            let plane = &planes[p * row.len()..(p + 1) * row.len()];
            *slot = tmark_linalg::vector::dot(plane, row);
        }
    }
}

impl WalkBackend for AnnBackend {
    fn name(&self) -> &'static str {
        "ann"
    }

    fn build(&self, features: &DenseMatrix) -> Result<FeatureWalk, WalkError> {
        let w = self.build_sparse(features)?;
        debug_assert!(
            w.rows() == 0 || w.is_column_stochastic(crate::WALK_TOL),
            "ann backend must emit a column-stochastic W (Eq. 9)"
        );
        Ok(FeatureWalk::from_sparse(w))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn features(n: usize, d: usize) -> DenseMatrix {
        let mut f = DenseMatrix::zeros(n, d);
        let mut state = 0xabcd_1234u64;
        for i in 0..n {
            for j in 0..d {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 62 > 0 {
                    f.set(i, j, ((state >> 32) as f64) / (u32::MAX as f64));
                }
            }
        }
        f
    }

    fn assert_bitwise_eq(a: &SparseMatrix, b: &SparseMatrix) {
        assert_eq!((a.rows(), a.cols(), a.nnz()), (b.rows(), b.cols(), b.nnz()));
        for i in 0..a.rows() {
            let ra: Vec<_> = a.row_iter(i).map(|(c, v)| (c, v.to_bits())).collect();
            let rb: Vec<_> = b.row_iter(i).map(|(c, v)| (c, v.to_bits())).collect();
            assert_eq!(ra, rb, "row {i} differs");
        }
    }

    #[test]
    fn ann_walk_is_column_stochastic_and_seed_deterministic() {
        let f = features(40, 6);
        let backend = AnnBackend::new(SimilarityMetric::Cosine, 5, AnnParams::default());
        let a = backend.build_sparse(&f).unwrap();
        let b = backend.build_sparse(&f).unwrap();
        assert!(a.is_column_stochastic(1e-12));
        assert_bitwise_eq(&a, &b);
    }

    #[test]
    fn changing_the_seed_changes_the_candidate_structure_not_the_invariant() {
        let f = features(40, 6);
        let w = AnnBackend::new(
            SimilarityMetric::Gaussian { sigma: 1.0 },
            4,
            AnnParams {
                seed: 42,
                ..AnnParams::default()
            },
        )
        .build_sparse(&f)
        .unwrap();
        assert!(w.is_column_stochastic(1e-12));
    }

    #[test]
    fn multi_probe_widens_candidates_and_stays_deterministic() {
        let f = features(60, 6);
        let build = |probes: usize| {
            AnnBackend::new(
                SimilarityMetric::Cosine,
                5,
                AnnParams {
                    probes,
                    ..AnnParams::default()
                },
            )
            .build_sparse(&f)
            .unwrap()
        };
        // probes: 1 must reproduce the default (single-probe) walk bitwise.
        let single = build(1);
        let default = AnnBackend::new(SimilarityMetric::Cosine, 5, AnnParams::default())
            .build_sparse(&f)
            .unwrap();
        assert_bitwise_eq(&single, &default);
        // More probes only widen the candidate structure.
        let multi = build(4);
        assert!(multi.is_column_stochastic(1e-12));
        assert!(
            multi.nnz() >= single.nnz(),
            "probes must not lose candidates: {} < {}",
            multi.nnz(),
            single.nnz()
        );
        // Repeat build is bit-identical.
        assert_bitwise_eq(&multi, &build(4));
    }

    #[test]
    fn multi_probe_is_bitwise_identical_across_thread_caps() {
        let f = features(33, 5);
        let backend = AnnBackend::new(
            SimilarityMetric::Cosine,
            4,
            AnnParams {
                probes: 3,
                ..AnnParams::default()
            },
        );
        pool::set_thread_cap(Some(1));
        let serial = backend.build_sparse(&f).unwrap();
        pool::set_thread_cap(Some(4));
        let parallel = backend.build_sparse(&f).unwrap();
        pool::set_thread_cap(None);
        assert_bitwise_eq(&serial, &parallel);
    }

    #[test]
    fn ann_is_bitwise_identical_across_thread_caps() {
        let f = features(33, 5);
        let backend = AnnBackend::new(SimilarityMetric::Cosine, 4, AnnParams::default());
        pool::set_thread_cap(Some(1));
        let serial = backend.build_sparse(&f).unwrap();
        pool::set_thread_cap(Some(4));
        let parallel = backend.build_sparse(&f).unwrap();
        pool::set_thread_cap(None);
        assert_bitwise_eq(&serial, &parallel);
    }

    /// 900 nodes: 600 identical rows (one bucket past `GROUP_CAP` in
    /// every band and probe), 30 all-zero rows, the rest random — all
    /// interleaved, so truncation by node order cuts through the mix.
    fn capped_bucket_features() -> DenseMatrix {
        let random = features(900, 6);
        let mut f = DenseMatrix::zeros(900, 6);
        for i in 0..900 {
            for c in 0..6 {
                let v = match (i % 3, i % 30) {
                    (_, 0) => 0.0,
                    (0, _) => random.get(i, c),
                    _ => 0.25 + 0.1 * c as f64,
                };
                f.set(i, c, v);
            }
        }
        f
    }

    /// The candidate rule, brute force: per band, sort the probe entries
    /// by (key, node), truncate each run of equal keys to its first
    /// `GROUP_CAP` entries, and pair every two members of a truncated
    /// group.
    fn oracle_candidates(f: &DenseMatrix, params: AnnParams) -> Vec<BTreeSet<usize>> {
        let n = f.rows();
        let (probes, keys) = probe_keys(f, params);
        let mut cands = vec![BTreeSet::new(); n];
        for band_keys in keys.chunks_exact(n * probes) {
            let mut keyed: Vec<(u64, usize)> = band_keys
                .iter()
                .enumerate()
                .map(|(slot, &key)| (key, slot / probes))
                .collect();
            keyed.sort();
            for run in keyed.chunk_by(|a, b| a.0 == b.0) {
                let group = &run[..run.len().min(GROUP_CAP)];
                for &(_, i) in group {
                    for &(_, j) in group {
                        if i != j {
                            cands[j].insert(i);
                        }
                    }
                }
            }
        }
        cands
    }

    /// Per column: the positive-similarity candidates, best first (ties
    /// to smaller index), truncated to `k`. Inactive columns of metrics
    /// that zero them keep nothing.
    fn oracle_top_k(
        prep: &PreparedMetric<'_>,
        cands: &[BTreeSet<usize>],
        k: usize,
    ) -> Vec<Vec<(usize, f64)>> {
        let skip = prep.zero_when_inactive();
        (0..cands.len())
            .map(|j| {
                if skip && !prep.is_active(j) {
                    return Vec::new();
                }
                let mut scored: Vec<(usize, f64)> = cands[j]
                    .iter()
                    .map(|&i| (i, prep.sim(i, j)))
                    .filter(|&(_, s)| s > 0.0)
                    .collect();
                scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                scored.truncate(k);
                scored
            })
            .collect()
    }

    fn oracle_walk(prep: &PreparedMetric<'_>, top: &[Vec<(usize, f64)>]) -> SparseMatrix {
        let n = top.len();
        let mut triplets = Vec::new();
        for (j, kept) in top.iter().enumerate() {
            if prep.self_sim(j) > 0.0 {
                triplets.push((j, j, prep.self_sim(j)));
            }
            triplets.extend(kept.iter().map(|&(i, s)| (i, j, s)));
        }
        let mut w = SparseMatrix::from_triplets(n, n, &triplets).unwrap();
        w.normalize_columns_stochastic();
        w
    }

    #[test]
    fn build_sparse_and_walk_candidates_match_the_brute_force_oracle_at_every_cap() {
        const K: usize = 6;
        let f = capped_bucket_features();
        let n = f.rows();
        for probes in [1, 3] {
            let params = AnnParams {
                bands: 3,
                probes,
                ..AnnParams::default()
            };
            let cands = oracle_candidates(&f, params);
            // The fixture exercises the cap: identical rows past it get
            // no candidates at all.
            assert!((0..n).any(|j| j % 3 != 0 && j % 30 != 0 && cands[j].is_empty()));
            for metric in [
                SimilarityMetric::Cosine,
                SimilarityMetric::Gaussian { sigma: 1.0 },
            ] {
                let prep = PreparedMetric::new(metric, &f);
                let top = oracle_top_k(&prep, &cands, K);
                let expected = oracle_walk(&prep, &top);
                let backend = AnnBackend::new(metric, K, params);
                for cap in [1, 4] {
                    pool::set_thread_cap(Some(cap));
                    assert_bitwise_eq(&backend.build_sparse(&f).unwrap(), &expected);
                    // One walk task over every column keeps the oracle's
                    // top-k set of each, whatever the task split.
                    let buckets = bucket_groups(&f, params);
                    let topk = walk_candidates(&prep, &buckets, 0, n, K);
                    for (pos, &j) in buckets.order.iter().enumerate() {
                        let (idxs, sims) = topk.column(pos);
                        let mut kept: Vec<(usize, u64)> = idxs
                            .iter()
                            .zip(sims)
                            .map(|(&i, &s)| (i as usize, s.to_bits()))
                            .collect();
                        kept.sort_unstable();
                        let mut want: Vec<(usize, u64)> = top[j as usize]
                            .iter()
                            .map(|&(i, s)| (i, s.to_bits()))
                            .collect();
                        want.sort_unstable();
                        assert_eq!(kept, want, "column {j}, {metric:?}, probes {probes}");
                    }
                }
                pool::set_thread_cap(None);
            }
        }
    }
}
