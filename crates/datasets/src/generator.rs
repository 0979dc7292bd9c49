//! The configurable synthetic-HIN generators.
//!
//! Two generators live here. [`SyntheticHinConfig`] models the paper's
//! four corpus regimes faithfully (class-affiliated link types, bag-of-
//! words features, behavioural label noise) and builds through the
//! per-edge [`HinBuilder`]. [`PowerLawHinConfig`] targets the ROADMAP
//! scale regime instead — 10^5–10^6 nodes, 10^7+ stored entries — with
//! typed Zipf degree distributions, label homophily, Gaussian feature
//! clusters, and a chunk-parallel build that streams edges straight into
//! [`SparseTensor3::from_entries`] with bounded peak raw-entry memory.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tmark_hin::{Hin, HinBuilder, LabelStore};
use tmark_linalg::{partition, DenseMatrix};
use tmark_sparse_tensor::SparseTensor3;

/// Specification of one link type to generate.
#[derive(Debug, Clone)]
pub struct LinkTypeSpec {
    /// Human-readable name (conference, director, tag, …).
    pub name: String,
    /// The class this link type is associated with, if any. Edges of an
    /// affiliated type prefer endpoints of that class; unaffiliated types
    /// sample their "home" endpoint uniformly.
    pub class_affinity: Option<usize>,
    /// Number of undirected edges to generate for this type.
    pub num_edges: usize,
    /// Probability that an edge connects two nodes of the same class
    /// (the link's *relevance* in the paper's Section 6.3 sense).
    pub purity: f64,
}

/// Full generator configuration.
#[derive(Debug, Clone)]
pub struct SyntheticHinConfig {
    /// Number of nodes `n`.
    pub num_nodes: usize,
    /// Class names (length `q`).
    pub class_names: Vec<String>,
    /// Link types to generate.
    pub link_types: Vec<LinkTypeSpec>,
    /// Bag-of-words feature dimensionality `d`. The vocabulary is split
    /// into `q` equal class blocks plus a shared-noise remainder.
    pub feature_dim: usize,
    /// Tokens drawn per node.
    pub tokens_per_node: usize,
    /// Probability that a token comes from the node's class block rather
    /// than the shared block — the feature signal strength.
    pub feature_signal: f64,
    /// Probability that a node receives a second class label (multi-label
    /// datasets set this positive; single-label datasets use 0).
    pub extra_label_prob: f64,
    /// Behavioural label noise: with this probability a node's *edges and
    /// features* follow a different class than its reported label. This
    /// models the irreducible ambiguity of the real corpora (authors who
    /// publish across areas, genre-crossing movies) and puts a ceiling of
    /// roughly `1 − label_noise` on every method's achievable accuracy —
    /// without it the planted structure is unrealistically separable.
    pub label_noise: f64,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl SyntheticHinConfig {
    /// Generates the HIN.
    ///
    /// Classes are assigned round-robin (so every class has
    /// `⌈n/q⌉ ± 1` members), then features and edges are sampled.
    /// A final sweep links isolated nodes to a same-class neighbour so the
    /// network has no zero-degree nodes (matching the paper's standing
    /// connectivity assumption).
    ///
    /// # Panics
    /// Panics on an empty class list, zero nodes, or an affinity id out of
    /// range — configuration bugs, not data conditions.
    pub fn generate(&self) -> Hin {
        let n = self.num_nodes;
        let q = self.class_names.len();
        assert!(n > 0, "num_nodes must be positive");
        assert!(q > 0, "at least one class required");
        for lt in &self.link_types {
            if let Some(c) = lt.class_affinity {
                assert!(
                    c < q,
                    "link type {:?} references class {c} out of {q}",
                    lt.name
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Primary (reported) class per node: shuffled round-robin.
        let mut primary: Vec<usize> = (0..n).map(|i| i % q).collect();
        primary.shuffle(&mut rng);

        // Behavioural class: what the node's features and edges follow.
        // Noisy nodes behave like a different class than they report.
        let behavior: Vec<usize> = primary
            .iter()
            .map(|&c| {
                if q > 1 && self.label_noise > 0.0 && rng.gen_bool(self.label_noise) {
                    loop {
                        let other = rng.gen_range(0..q);
                        if other != c {
                            break other;
                        }
                    }
                } else {
                    c
                }
            })
            .collect();

        // Secondary labels for multi-label datasets.
        let mut label_sets: Vec<Vec<usize>> = primary.iter().map(|&c| vec![c]).collect();
        if self.extra_label_prob > 0.0 && q > 1 {
            for set in label_sets.iter_mut() {
                if rng.gen_bool(self.extra_label_prob) {
                    let extra = loop {
                        let c = rng.gen_range(0..q);
                        if !set.contains(&c) {
                            break c;
                        }
                    };
                    set.push(extra);
                }
            }
        }

        // Features: class-block bag of words.
        let d = self.feature_dim;
        let block = d / (q + 1).max(1); // q class blocks + shared remainder
        let names: Vec<String> = self.link_types.iter().map(|lt| lt.name.clone()).collect();
        let mut builder = HinBuilder::new(d, names, self.class_names.clone());
        for (v, set) in label_sets.iter().enumerate() {
            // Tokens follow the behavioural class (plus any secondary
            // labels), not the reported one.
            let mut pools: Vec<usize> = vec![behavior[v]];
            pools.extend(
                set.iter()
                    .copied()
                    .filter(|&c| c != primary[v] && c != behavior[v]),
            );
            let mut f = vec![0.0; d];
            for _ in 0..self.tokens_per_node {
                let token = if block > 0 && rng.gen_bool(self.feature_signal) {
                    // A token from one of the node's class blocks.
                    let c = pools[rng.gen_range(0..pools.len())];
                    c * block + rng.gen_range(0..block)
                } else {
                    // A shared-noise token from the remainder of the
                    // vocabulary (or anywhere, if there is no remainder).
                    if d > q * block && block > 0 {
                        q * block + rng.gen_range(0..d - q * block)
                    } else {
                        rng.gen_range(0..d)
                    }
                };
                f[token] += 1.0;
            }
            builder.add_node(f);
        }
        for (v, set) in label_sets.iter().enumerate() {
            for &c in set {
                builder.set_label(v, c).expect("generated ids are valid");
            }
        }

        // Edge-visible classes per node: the behavioural class plus any
        // secondary labels, so multi-label nodes participate in the link
        // structure of *all* their classes (otherwise secondary labels
        // would be invisible to relational methods).
        let edge_classes: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let mut cs = vec![behavior[v]];
                cs.extend(
                    label_sets[v]
                        .iter()
                        .copied()
                        .filter(|&c| c != primary[v] && c != behavior[v]),
                );
                cs
            })
            .collect();
        // Per-class node pools for affinity sampling, keyed on the
        // edge-visible classes.
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); q];
        for (v, cs) in edge_classes.iter().enumerate() {
            for &c in cs {
                by_class[c].push(v);
            }
        }

        let mut degree = vec![0usize; n];
        for (k, lt) in self.link_types.iter().enumerate() {
            for _ in 0..lt.num_edges {
                // Home endpoint: from the affiliated class pool, or anywhere.
                let u = match lt.class_affinity {
                    Some(c) if !by_class[c].is_empty() => {
                        by_class[c][rng.gen_range(0..by_class[c].len())]
                    }
                    _ => rng.gen_range(0..n),
                };
                // Partner: same class with probability `purity`, where
                // "class" is drawn from the home node's edge-visible set.
                let v = if rng.gen_bool(lt.purity.clamp(0.0, 1.0)) {
                    let cu = edge_classes[u][rng.gen_range(0..edge_classes[u].len())];
                    let pool = &by_class[cu];
                    if pool.len() < 2 {
                        rng.gen_range(0..n)
                    } else {
                        loop {
                            let cand = pool[rng.gen_range(0..pool.len())];
                            if cand != u {
                                break cand;
                            }
                        }
                    }
                } else {
                    loop {
                        let cand = rng.gen_range(0..n);
                        if cand != u {
                            break cand;
                        }
                    }
                };
                builder
                    .add_undirected_edge(u, v, k)
                    .expect("generated ids valid");
                degree[u] += 1;
                degree[v] += 1;
            }
        }

        // Connectivity sweep: attach isolated nodes to a same-class peer
        // through the last link type.
        let last_type = self.link_types.len().saturating_sub(1);
        if !self.link_types.is_empty() {
            for v in 0..n {
                if degree[v] == 0 {
                    let pool = &by_class[behavior[v]];
                    debug_assert!(!pool.is_empty(), "behaviour pools cover every class");
                    let partner = if pool.len() >= 2 {
                        loop {
                            let cand = pool[rng.gen_range(0..pool.len())];
                            if cand != v {
                                break cand;
                            }
                        }
                    } else {
                        (v + 1) % n
                    };
                    builder
                        .add_undirected_edge(v, partner, last_type)
                        .expect("valid ids");
                    degree[v] += 1;
                    degree[partner] += 1;
                }
            }
        }

        builder.build().expect("generator produces a valid network")
    }
}

/// Edges synthesized per generator chunk. Each chunk derives its own RNG
/// from `(seed, relation, chunk)`, so the chunk size is part of the
/// deterministic output contract — it must never depend on the thread
/// cap or the host.
const EDGE_CHUNK: usize = 1 << 15;

/// Node rows per feature-synthesis chunk (same contract as
/// [`EDGE_CHUNK`]).
const NODE_CHUNK: usize = 1 << 13;

/// Chunks synthesized per pool wave: enough to keep every worker busy,
/// small enough that peak raw-entry memory stays at
/// `WAVE × EDGE_CHUNK × 2` tuples however many edges are requested.
const WAVE: usize = 8;

/// Salt separating the feature RNG streams from the edge streams.
const FEATURE_SALT: u64 = 0x00fe_a7a5_a17e_d000;

/// One link type of the power-law generator.
#[derive(Debug, Clone)]
pub struct PowerLawRelationSpec {
    /// Human-readable name.
    pub name: String,
    /// Undirected edges to synthesize (two tensor entries each; parallel
    /// draws of the same pair merge their weights in the tensor).
    pub num_edges: usize,
    /// Zipf exponent `s ≥ 0` of the endpoint distribution: the rank-`t`
    /// node is drawn with weight `(t + 1)^-s`, so node 0 is the head of
    /// the degree distribution. `0.0` is uniform; real HIN degree
    /// distributions sit around `0.6–1.2`.
    pub zipf_exponent: f64,
    /// Probability that an edge's partner endpoint is drawn from the
    /// source's class pool (label homophily); the complement draws from
    /// the global Zipf distribution.
    pub homophily: f64,
}

/// Configuration of the chunk-parallel power-law HIN generator.
///
/// Classes are assigned round-robin (`v mod q`), per-relation endpoint
/// degrees follow a Zipf law with a per-relation exponent, partner
/// endpoints respect a per-relation homophily probability, and node
/// features are Gaussian clusters around class-aligned means.
///
/// The generated network is a pure function of the configuration: every
/// chunk seeds its own RNG from `(seed, relation, chunk)`, chunks are
/// synthesized in fixed-size pool waves, and the wave results are
/// concatenated in chunk order — so the output is bitwise identical at
/// any thread cap, while the synthesis itself parallelizes over the
/// permit pool.
#[derive(Debug, Clone)]
pub struct PowerLawHinConfig {
    /// Number of nodes `n`.
    pub num_nodes: usize,
    /// Number of classes `q` (named `class-0` … `class-{q-1}`).
    pub num_classes: usize,
    /// Link types to synthesize.
    pub relations: Vec<PowerLawRelationSpec>,
    /// Feature dimensionality `d`: coordinate `j` of a class-`c` node is
    /// Gaussian with mean 1 when `j ≡ c (mod q)` and mean 0 otherwise.
    pub feature_dim: usize,
    /// Standard deviation of the Gaussian feature clusters.
    pub cluster_spread: f64,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl PowerLawHinConfig {
    /// Generates the network through the chunked build path.
    ///
    /// # Panics
    /// Panics on configuration bugs: zero nodes/classes/features, more
    /// classes than nodes, an empty relation list, a negative Zipf
    /// exponent, or a node count past the packed `u32` index width.
    pub fn generate(&self) -> Hin {
        let n = self.num_nodes;
        let q = self.num_classes;
        let d = self.feature_dim;
        assert!(n > 0, "num_nodes must be positive");
        assert!(q > 0 && q <= n, "need between 1 and n classes, got {q}");
        assert!(d > 0, "feature_dim must be positive");
        assert!(
            !self.relations.is_empty(),
            "at least one link type required"
        );
        assert!(
            n - 1 <= u32::MAX as usize,
            "node count {n} exceeds the packed-index width of the tensor kernels"
        );
        assert!(
            n.checked_mul(d).is_some(),
            "n × d feature cells overflow usize"
        );
        for r in &self.relations {
            assert!(
                r.zipf_exponent >= 0.0,
                "relation {:?} has negative zipf exponent",
                r.name
            );
        }

        let tensor = self.build_tensor(n, q);
        let features = self.build_features(n, q, d);
        let class_names: Vec<String> = (0..q).map(|c| format!("class-{c}")).collect();
        let node_classes: Vec<usize> = (0..n).map(|v| v % q).collect();
        let labels = LabelStore::from_single_labels(&node_classes, class_names);
        let names: Vec<String> = self.relations.iter().map(|r| r.name.clone()).collect();
        Hin::from_bulk(tensor, features, names, labels)
            .unwrap_or_else(|e| unreachable!("generator parts share one shape: {e}"))
    }

    /// Synthesizes every relation's edges in pool waves and streams the
    /// flattened chunks into [`SparseTensor3::from_entries`]: at most
    /// [`WAVE`] raw chunks are alive at once, so peak memory is the
    /// compact entry array plus a constant, not the full raw edge list.
    fn build_tensor(&self, n: usize, q: usize) -> SparseTensor3 {
        let m = self.relations.len();
        // Read-only per-relation Zipf tables shared by all chunk workers.
        let tables: Vec<ZipfTables> = self
            .relations
            .iter()
            .map(|r| ZipfTables::build(n, q, r.zipf_exponent))
            .collect();
        let plan = edge_chunk_plan(&self.relations);
        let seed = self.seed;
        let relations = &self.relations;
        let tables_ref = &tables;
        let mut ready: VecDeque<Vec<(usize, usize, usize, f64)>> = VecDeque::new();
        let mut next = 0usize;
        let chunks = std::iter::from_fn(move || {
            if ready.is_empty() && next < plan.len() {
                let hi = (next + WAVE).min(plan.len());
                let tasks: Vec<_> = plan[next..hi]
                    .iter()
                    .map(|c| {
                        let chunk = *c;
                        move || {
                            synth_edge_chunk(
                                n,
                                q,
                                chunk.relation,
                                relations[chunk.relation].homophily,
                                &tables_ref[chunk.relation],
                                seed,
                                chunk.index,
                                chunk.edges,
                            )
                        }
                    })
                    .collect();
                ready.extend(partition::run_owned(tasks));
                next = hi;
            }
            ready.pop_front()
        });
        SparseTensor3::from_entries(n, m, chunks.flatten())
            .unwrap_or_else(|e| unreachable!("shape and width validated by generate: {e}"))
    }

    /// Synthesizes the Gaussian-cluster feature matrix in node chunks
    /// over the pool; row order and the per-chunk RNG streams are fixed
    /// by the configuration alone.
    fn build_features(&self, n: usize, q: usize, d: usize) -> DenseMatrix {
        let spread = self.cluster_spread;
        let seed = self.seed;
        let mut flat: Vec<f64> = Vec::with_capacity(n * d);
        let mut lo = 0usize;
        let mut index = 0usize;
        while lo < n {
            let mut tasks = Vec::with_capacity(WAVE);
            while lo < n && tasks.len() < WAVE {
                let hi = (lo + NODE_CHUNK).min(n);
                let (chunk_lo, chunk_hi, chunk_index) = (lo, hi, index);
                tasks.push(move || {
                    synth_feature_chunk(q, d, spread, chunk_lo, chunk_hi, seed, chunk_index)
                });
                lo = hi;
                index += 1;
            }
            for rows in partition::run_owned(tasks) {
                flat.extend_from_slice(&rows);
            }
        }
        DenseMatrix::from_vec(n, d, flat)
            .unwrap_or_else(|e| unreachable!("chunks cover exactly n rows: {e}"))
    }
}

/// One chunk of the edge-synthesis plan: which relation, the chunk's
/// index within that relation's RNG stream, and how many edges it owns.
#[derive(Debug, Clone, Copy)]
struct EdgeChunk {
    relation: usize,
    index: usize,
    edges: usize,
}

/// Splits every relation's edge budget into [`EDGE_CHUNK`]-sized chunks.
/// The plan — and with it every chunk's RNG seed — depends only on the
/// configuration, never on the thread cap. Also proves, once, that the
/// planned entry count (two per undirected edge) fits `usize`, so chunk
/// workers can size their buffers with plain arithmetic.
fn edge_chunk_plan(relations: &[PowerLawRelationSpec]) -> Vec<EdgeChunk> {
    let mut planned_nnz: usize = 0;
    let mut plan = Vec::new();
    for (relation, spec) in relations.iter().enumerate() {
        let total = spec
            .num_edges
            .checked_mul(2)
            .and_then(|e| planned_nnz.checked_add(e));
        assert!(total.is_some(), "edge plan overflows the usize entry count");
        planned_nnz = total.unwrap_or(planned_nnz);
        let mut left = spec.num_edges;
        let mut index = 0usize;
        while left > 0 {
            let edges = left.min(EDGE_CHUNK);
            plan.push(EdgeChunk {
                relation,
                index,
                edges,
            });
            left -= edges;
            index += 1;
        }
    }
    plan
}

/// Inverse-CDF tables for one relation's Zipf endpoint distribution.
///
/// `all[v]` is the cumulative weight of nodes `0..=v` under weight
/// `(v + 1)^-s`; `class[t]` is the same cumulative over within-class
/// ranks. The round-robin class pools differ in length by at most one,
/// so one shared table serves every class as the prefix
/// `class[..pool_len(c)]`.
struct ZipfTables {
    all: Vec<f64>,
    class: Vec<f64>,
}

impl ZipfTables {
    fn build(n: usize, q: usize, s: f64) -> Self {
        let mut all = Vec::with_capacity(n);
        let mut acc = 0.0;
        for v in 0..n {
            acc += zipf_weight(v, s);
            all.push(acc);
        }
        let longest = n.div_ceil(q);
        let mut class = Vec::with_capacity(longest);
        let mut acc = 0.0;
        for t in 0..longest {
            acc += zipf_weight(t, s);
            class.push(acc);
        }
        ZipfTables { all, class }
    }
}

/// Zipf weight of rank `t`: `(t + 1)^-s`. Exact for every rank below
/// 2^53; far beyond the `u32` node-count contract.
fn zipf_weight(t: usize, s: f64) -> f64 {
    ((t + 1) as f64).powf(-s)
}

/// Draws an index from an inclusive cumulative-weight table by inverse
/// CDF: uniform `u01 ∈ [0, 1)` maps to the first index whose cumulative
/// weight exceeds `u01 × total`.
fn sample_cum(cum: &[f64], u01: f64) -> usize {
    let total = cum.last().copied().unwrap_or(1.0);
    let x = u01 * total;
    cum.partition_point(|&c| c <= x).min(cum.len() - 1)
}

/// SplitMix64-style chunk seed: decorrelates the `(seed, relation,
/// index)` RNG streams so neighbouring chunks never share state.
fn chunk_seed(seed: u64, relation: usize, index: usize) -> u64 {
    let mut x = seed
        ^ (relation as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (index as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Synthesizes one chunk of one relation's edges, deterministically in
/// `(seed, relation, index)` — the worker never observes the thread cap.
/// Returns raw COO tuples in walk convention: an undirected edge
/// `u — v` stores `(v, u, k)` and `(u, v, k)`.
#[allow(clippy::too_many_arguments)]
fn synth_edge_chunk(
    n: usize,
    q: usize,
    relation: usize,
    homophily: f64,
    tables: &ZipfTables,
    seed: u64,
    index: usize,
    edges: usize,
) -> Vec<(usize, usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(chunk_seed(seed, relation, index));
    let same_class = homophily.clamp(0.0, 1.0);
    let mut out = Vec::with_capacity(edges * 2);
    for _ in 0..edges {
        let u = sample_cum(&tables.all, rng.gen_range(0.0..1.0));
        let v = if q > 1 && rng.gen_bool(same_class) {
            same_class_partner(n, q, u, tables, &mut rng)
        } else {
            distinct(n, u, sample_cum(&tables.all, rng.gen_range(0.0..1.0)))
        };
        out.push((v, u, relation, 1.0));
        out.push((u, v, relation, 1.0));
    }
    out
}

/// Same-class partner of `u`: a Zipf draw over `u`'s round-robin class
/// pool (`c, c + q, c + 2q, …`), with a deterministic nudge to the next
/// pool member when the draw lands on `u` itself — chunk workers never
/// run unbounded rejection loops.
fn same_class_partner(
    n: usize,
    q: usize,
    u: usize,
    tables: &ZipfTables,
    rng: &mut StdRng,
) -> usize {
    let c = u % q;
    // Pool length: the number of values c, c + q, … below n.
    let pool = (n - c).div_ceil(q);
    if pool < 2 {
        return distinct(n, u, u);
    }
    let t = sample_cum(&tables.class[..pool], rng.gen_range(0.0..1.0));
    let cand = c + t * q;
    if cand == u {
        c + ((t + 1) % pool) * q
    } else {
        cand
    }
}

/// `cand` unless it equals `u`; then the next node (mod `n`) — the
/// deterministic self-loop escape shared by both partner draws.
fn distinct(n: usize, u: usize, cand: usize) -> usize {
    if cand == u {
        (u + 1) % n
    } else {
        cand
    }
}

/// Fills feature rows `lo..hi` of the Gaussian-cluster matrix:
/// coordinate `j` of node `v` is drawn from `N(mean, spread²)` with mean
/// 1 when `j ≡ v (mod q)` and mean 0 otherwise.
fn synth_feature_chunk(
    q: usize,
    d: usize,
    spread: f64,
    lo: usize,
    hi: usize,
    seed: u64,
    index: usize,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(chunk_seed(seed ^ FEATURE_SALT, 0, index));
    let mut out = Vec::with_capacity((hi - lo) * d);
    for v in lo..hi {
        let c = v % q;
        for j in 0..d {
            let mean = if j % q == c { 1.0 } else { 0.0 };
            out.push(mean + spread * standard_normal(&mut rng));
        }
    }
    out
}

/// One standard-normal draw via Box–Muller (the vendored `rand` carries
/// no distributions module). One fresh uniform pair per draw keeps every
/// draw a pure function of the RNG stream position.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(0.0..1.0f64).max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen_range(0.0..1.0f64);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmark_hin::stats::hin_stats;

    fn basic_config() -> SyntheticHinConfig {
        SyntheticHinConfig {
            num_nodes: 60,
            class_names: vec!["a".into(), "b".into(), "c".into()],
            link_types: vec![
                LinkTypeSpec {
                    name: "pure".into(),
                    class_affinity: Some(0),
                    num_edges: 60,
                    purity: 1.0,
                },
                LinkTypeSpec {
                    name: "mixed".into(),
                    class_affinity: None,
                    num_edges: 60,
                    purity: 0.0,
                },
            ],
            feature_dim: 40,
            tokens_per_node: 12,
            feature_signal: 0.8,
            extra_label_prob: 0.0,
            label_noise: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = basic_config();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.tensor().entries().len(), b.tensor().entries().len());
        assert_eq!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn classes_are_balanced() {
        let hin = basic_config().generate();
        let counts = hin.labels().class_counts();
        assert_eq!(counts, vec![20, 20, 20]);
    }

    #[test]
    fn purity_parameter_controls_class_purity() {
        let hin = basic_config().generate();
        let stats = hin_stats(&hin);
        let pure = stats.relations[0].class_purity.unwrap();
        let mixed = stats.relations[1].class_purity.unwrap();
        assert!(pure > 0.95, "pure link type purity: {pure}");
        // A 0-purity link over 3 balanced classes still hits ~1/3 by chance.
        assert!(mixed < 0.55, "mixed link type purity: {mixed}");
    }

    #[test]
    fn affinity_concentrates_edges_on_the_class() {
        let hin = basic_config().generate();
        let mut touching_a = 0;
        let mut total = 0;
        for e in hin.tensor().entries().iter().filter(|e| e.k == 0) {
            total += 1;
            if hin.labels().has_label(e.i, 0) || hin.labels().has_label(e.j, 0) {
                touching_a += 1;
            }
        }
        assert!(
            touching_a as f64 / total as f64 > 0.9,
            "affiliated link type should touch its class: {touching_a}/{total}"
        );
    }

    #[test]
    fn no_isolated_nodes() {
        let hin = basic_config().generate();
        for v in 0..hin.num_nodes() {
            assert!(!hin.out_neighbors(v).is_empty(), "node {v} is isolated");
        }
    }

    #[test]
    fn features_carry_class_signal() {
        let hin = basic_config().generate();
        let block = 40 / 4;
        // For class-0 nodes, the class-0 block should hold most mass.
        for v in hin.labels().nodes_with_class(0).into_iter().take(5) {
            let row = hin.features().row(v);
            let class_mass: f64 = row[..block].iter().sum();
            let total: f64 = row.iter().sum();
            assert!(class_mass / total > 0.5, "node {v}: {class_mass}/{total}");
        }
    }

    #[test]
    fn multi_label_probability_produces_second_labels() {
        let mut cfg = basic_config();
        cfg.extra_label_prob = 0.5;
        let hin = cfg.generate();
        assert!(hin.labels().is_multi_label());
        let multi = (0..hin.num_nodes())
            .filter(|&v| hin.labels().labels_of(v).len() == 2)
            .count();
        assert!(multi > 10 && multi < 50, "multi-label count: {multi}");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn bad_affinity_panics() {
        let mut cfg = basic_config();
        cfg.link_types[0].class_affinity = Some(9);
        cfg.generate();
    }

    fn power_law_config() -> PowerLawHinConfig {
        PowerLawHinConfig {
            num_nodes: 300,
            num_classes: 3,
            relations: vec![
                PowerLawRelationSpec {
                    name: "cites".into(),
                    num_edges: 1_200,
                    zipf_exponent: 0.9,
                    homophily: 0.9,
                },
                PowerLawRelationSpec {
                    name: "coauthor".into(),
                    num_edges: 800,
                    zipf_exponent: 0.3,
                    homophily: 0.1,
                },
            ],
            feature_dim: 12,
            cluster_spread: 0.2,
            seed: 11,
        }
    }

    #[test]
    fn power_law_generation_is_deterministic() {
        let cfg = power_law_config();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.tensor().entries(), b.tensor().entries());
        assert_eq!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn power_law_labels_are_round_robin() {
        let hin = power_law_config().generate();
        let counts = hin.labels().class_counts();
        assert_eq!(counts, vec![100, 100, 100]);
        for v in 0..hin.num_nodes() {
            assert!(
                hin.labels().has_label(v, v % 3),
                "node {v} off the rotation"
            );
        }
    }

    #[test]
    fn zipf_exponent_skews_degrees_toward_the_head() {
        let hin = power_law_config().generate();
        // Degree of node v under the steep relation (k = 0).
        let degree = |v: usize| -> f64 {
            hin.tensor()
                .entries()
                .iter()
                .filter(|e| e.k == 0 && e.j == v)
                .map(|e| e.value)
                .sum()
        };
        let head = degree(0);
        let tail: f64 = (250..300).map(degree).sum::<f64>() / 50.0;
        assert!(
            head > 8.0 * tail.max(0.1),
            "zipf head should dominate the tail: head {head}, mean tail {tail}"
        );
    }

    #[test]
    fn homophily_concentrates_edges_within_classes() {
        let hin = power_law_config().generate();
        let same_class_fraction = |k: usize| -> f64 {
            let mut same = 0.0;
            let mut total = 0.0;
            for e in hin.tensor().entries().iter().filter(|e| e.k == k) {
                total += e.value;
                if e.i % 3 == e.j % 3 {
                    same += e.value;
                }
            }
            same / total
        };
        let homophilous = same_class_fraction(0);
        let mixed = same_class_fraction(1);
        // Random pairing over 3 balanced classes lands near 1/3.
        assert!(homophilous > 0.8, "homophilous fraction: {homophilous}");
        assert!(mixed < 0.55, "mixed fraction: {mixed}");
    }

    #[test]
    fn feature_clusters_align_with_classes() {
        let hin = power_law_config().generate();
        let d = 12;
        for v in [0, 1, 2, 31, 62, 93] {
            let c = v % 3;
            let row = hin.features().row(v);
            let on: f64 = (0..d).filter(|j| j % 3 == c).map(|j| row[j]).sum::<f64>() / 4.0;
            let off: f64 = (0..d).filter(|j| j % 3 != c).map(|j| row[j]).sum::<f64>() / 8.0;
            assert!(
                on - off > 0.5,
                "node {v}: class-aligned mean {on} vs off-class {off}"
            );
        }
    }

    #[test]
    fn single_class_and_tiny_pools_stay_self_loop_free() {
        let hin = PowerLawHinConfig {
            num_nodes: 5,
            num_classes: 5,
            relations: vec![PowerLawRelationSpec {
                name: "r".into(),
                num_edges: 40,
                zipf_exponent: 1.0,
                homophily: 1.0,
            }],
            feature_dim: 5,
            cluster_spread: 0.1,
            seed: 3,
        }
        .generate();
        for e in hin.tensor().entries() {
            assert_ne!(e.i, e.j, "self loop at node {}", e.i);
        }
    }

    #[test]
    #[should_panic(expected = "between 1 and n classes")]
    fn more_classes_than_nodes_panics() {
        let mut cfg = power_law_config();
        cfg.num_classes = 400;
        cfg.generate();
    }

    /// ROADMAP item 1 scale smoke: 10^5 nodes and ~10^6 stored entries
    /// through the chunked build path (pool-parallel edge synthesis
    /// streamed into `SparseTensor3::from_entries`, which validates
    /// the packed-index width before any entry lands). Chunking brought
    /// this from `#[ignore]`d-seconds down to the default suite, under a
    /// wall-clock budget that holds even for unoptimized debug builds.
    #[test]
    fn hundred_thousand_node_generation_stays_width_safe() {
        let started = std::time::Instant::now();
        let cfg = PowerLawHinConfig {
            num_nodes: 100_000,
            num_classes: 4,
            relations: vec![
                PowerLawRelationSpec {
                    name: "pure".into(),
                    num_edges: 250_000,
                    zipf_exponent: 0.7,
                    homophily: 0.8,
                },
                PowerLawRelationSpec {
                    name: "mixed".into(),
                    num_edges: 250_000,
                    zipf_exponent: 0.7,
                    homophily: 0.1,
                },
            ],
            feature_dim: 16,
            cluster_spread: 0.3,
            seed: 7,
        };
        let hin = cfg.generate();
        assert_eq!(hin.num_nodes(), 100_000);
        // 500k undirected edges → ~10^6 raw entries; the Zipf head
        // redraws the same hub pairs, and parallel draws merge.
        let nnz = hin.tensor().nnz();
        assert!(nnz >= 600_000, "expected ~10^6 stored entries, got {nnz}");
        let max_index = hin
            .tensor()
            .entries()
            .iter()
            .map(|e| e.i.max(e.j))
            .max()
            .expect("generated tensor is nonempty");
        assert!(max_index < 100_000, "entry index past n: {max_index}");
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(30),
            "10^5-node generation blew its budget: {elapsed:?}"
        );
    }

    /// A node count past the packed `u32` width must come back as a
    /// typed overflow from the tensor build boundary — never a silent
    /// wrap into a bogus small id.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn past_u32_node_count_is_a_typed_overflow_not_a_wrap() {
        use tmark_sparse_tensor::{SparseTensor3, TensorError};
        let n = u32::MAX as usize + 2;
        match SparseTensor3::from_entries(n, 1, vec![]) {
            Err(TensorError::IndexOverflow { what, value, .. }) => {
                assert_eq!(what, "node count");
                assert_eq!(value, n);
            }
            other => panic!("expected IndexOverflow, got {other:?}"),
        }
    }
}
