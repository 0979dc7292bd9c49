//! Wall-time benchmark of the lockstep multi-class solver against
//! single-class solves, with a machine-readable JSON emitter.
//!
//! For every dataset preset this measures, at a 30% label fraction:
//!
//! - `build_stoch_ms` / `build_w_ms`: one-time model-assembly phases
//!   (compressed stochastic tensors, cosine feature walk `W`). Both are
//!   memoized on the immutable [`tmark_hin::Hin`], so only a *cold* fit
//!   pays them; the fit columns below report the warm steady state
//!   (min over repetitions) and a cold fit costs roughly their sum on
//!   top,
//! - `build_w_{dense,knn,ann}_ms`: the same `W` build through each
//!   feature-walk backend at thread caps 1 and 4, plus `ann_recall_at_k`
//!   (mean fraction of the exact top-`k` neighbourhood the LSH backend
//!   recovers). The dense and exact-kNN builds are verified bitwise
//!   identical across caps and every backend's output is verified
//!   column-stochastic — the run aborts on either violation,
//! - `per_class_ms`: solving each class independently, one
//!   [`tmark::BatchSolver`] pass over `[c]` per class (the shape of the
//!   fit's panic-retry path),
//! - `batch_ms`: one lockstep [`tmark::BatchSolver`] pass over all
//!   classes (one sweep of the tensor nnz serves every class),
//! - `fit_ms`: the full [`tmark::TMarkModel::fit`] at the ambient thread
//!   cap, plus `fit_threads_ms` columns at explicit caps 1 / 2 / 4 —
//!   the intra-solve kernels partition their outputs over pool workers,
//!   so these columns expose the serial-vs-parallel spread,
//! - `kernel_*_ms`: per-call timings of the three hot kernels
//!   (`contract_o_multi_into`, `contract_r_multi_into`,
//!   `apply_multi_into`) at caps 1 and 4,
//! - `*_bytes`: the AoS entry footprint the compressed slice-pointer
//!   layout replaced, against the compressed O-path and R-path footprints
//!   actually held in memory,
//! - `max_node_index` / `nnz` / `index_headroom_bits`: width-contract
//!   telemetry — the largest node index the adjacency tensor actually
//!   stores, its stored-entry count, and how many unused bits remain
//!   below the `u32` packed-index limit the compressed kernels rely on,
//!
//! and cross-checks that (a) the batched and per-class solutions agree
//! bit for bit and (b) the fit confidences are bitwise identical at every
//! thread cap, refusing to report timings otherwise. On DBLP the run
//! additionally refuses to report if the cap-4 fit falls below 0.95× the
//! cap-1 fit — the adaptive work threshold must keep small networks on
//! the serial path, so extra permits may never cost real time.
//!
//! `--scaling` appends an O(qTD) scaling sweep over power-law generated
//! networks (`tmark_datasets::PowerLawHinConfig`) spanning three-plus
//! orders of magnitude of stored entries: per size it times generation,
//! the chunked `StochasticTensors` assembly, the SimHash-ANN `W` build,
//! and a fixed-`T` batched solve at thread caps 1 / 4 (bitwise
//! cross-checked), then fits log-log slopes of the build and
//! per-iteration cost against nnz. The run fails if the per-iteration
//! slope leaves `[0.8, 1.2]` — the executable form of the paper's
//! O(qTD) per-iteration claim — or, on hosts with ≥ 4 cores, if the
//! cap-4 solve of the largest network is not ≥ 1.5× faster than cap-1.
//!
//! Usage: `bench_solver [--smoke] [--scaling] [--format json] [--out PATH]`
//!
//! `--smoke` runs a single repetition per measurement (CI smoke mode)
//! and caps the scaling sweep at its 10^5-node point; the default takes
//! the minimum of three. The JSON report is written to
//! `BENCH_solver.json` unless `--out` overrides it.

use std::fmt::Write as _;
use std::time::Instant;

use tmark::solver::ClassStationary;
use tmark::{BatchSolver, BatchWorkspace, TMarkConfig, TMarkModel, TMarkResult};
use tmark_bench::{Dataset, DATA_SEED};
use tmark_datasets::{PowerLawHinConfig, PowerLawRelationSpec};
use tmark_feature_walk::{
    feature_transition_matrix, AnnBackend, AnnParams, DenseBackend, FeatureWalkMode, KnnBackend,
    WalkBackend,
};
use tmark_linalg::pool;
use tmark_linalg::similarity::SimilarityMetric;
use tmark_linalg::SparseMatrix;

/// Label fraction shared by every measurement.
const FRACTION: f64 = 0.3;
/// Split seed shared by every measurement.
const SPLIT_SEED: u64 = 1;
/// Explicit thread caps for the serial-vs-parallel fit columns.
const THREAD_CAPS: [usize; 3] = [1, 2, 4];
/// Kernel-timing inner repetitions (per-call cost is microseconds).
const KERNEL_CALLS: usize = 50;
/// Neighbourhood size for the exact-kNN and ANN backend columns.
const KNN_K: usize = 64;
/// Multi-probe settings the ANN recall columns report.
const ANN_PROBES: [usize; 2] = [1, 4];
/// Floor on the DBLP cap-4/cap-1 fit-time ratio: the adaptive work
/// threshold keeps toy networks serial at every cap, so granting more
/// permits may never cost more than measurement noise.
const SMALL_NET_CAP4_FLOOR: f64 = 0.95;

fn die(msg: &str) -> ! {
    eprintln!("bench_solver: {msg}");
    std::process::exit(1);
}

struct Row {
    name: &'static str,
    nodes: usize,
    classes: usize,
    link_types: usize,
    /// Largest node index stored in the adjacency tensor.
    max_node_index: usize,
    /// Stored-entry count of the adjacency tensor.
    nnz: usize,
    /// Unused bits below the `u32` packed-index limit at this scale.
    index_headroom_bits: u32,
    /// Total solver iterations across classes (identical for the batched
    /// and per-class runs by the bit-exactness contract).
    iterations: usize,
    build_stoch_ms: f64,
    build_w_ms: f64,
    /// Dense-backend `W` build wall time `[cap-1, cap-4]`.
    build_w_dense_ms: [f64; 2],
    /// Exact top-`KNN_K` sparse-backend build wall time `[cap-1, cap-4]`.
    build_w_knn_ms: [f64; 2],
    /// SimHash ANN backend build wall time `[cap-1, cap-4]`.
    build_w_ann_ms: [f64; 2],
    /// Mean fraction of the exact kNN neighbourhood the ANN backend keeps.
    ann_recall: f64,
    /// The same recall at `AnnParams::probes` ∈ [`ANN_PROBES`], in order
    /// (the first entry equals `ann_recall`: one probe is the default).
    ann_recall_probes: [f64; ANN_PROBES.len()],
    per_class_ms: f64,
    batch_ms: f64,
    fit_ms: f64,
    /// Fit wall time at each cap in [`THREAD_CAPS`], same order.
    fit_threads_ms: [f64; THREAD_CAPS.len()],
    /// Per-call kernel timings `[cap-1, cap-4]`.
    kernel_o_ms: [f64; 2],
    kernel_r_ms: [f64; 2],
    kernel_w_ms: [f64; 2],
    aos_bytes: usize,
    o_path_bytes: usize,
    r_path_bytes: usize,
    bitwise_equal: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.per_class_ms / self.batch_ms
    }
}

fn min_ms(best: f64, started: Instant) -> f64 {
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    if elapsed < best {
        elapsed
    } else {
        best
    }
}

/// Minimum wall time of `f` over `reps` repetitions, in milliseconds.
fn time_min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        f();
        best = min_ms(best, started);
    }
    best
}

/// Off-diagonal row supports of every column (ascending), for recall@k.
fn column_supports(w: &SparseMatrix, n: usize) -> Vec<Vec<u32>> {
    let mut cols = vec![Vec::new(); n];
    for r in 0..n {
        for (c, _) in w.row_iter(r) {
            if c != r {
                cols[c].push(r as u32);
            }
        }
    }
    cols
}

/// Mean per-column fraction of the exact kNN neighbourhood retained by
/// the ANN build, averaged over columns with a nonempty exact support.
fn mean_recall(ann: &SparseMatrix, knn: &SparseMatrix, n: usize) -> f64 {
    let exact = column_supports(knn, n);
    let approx = column_supports(ann, n);
    let mut total = 0.0;
    let mut counted = 0usize;
    for j in 0..n {
        if exact[j].is_empty() {
            continue;
        }
        let hits = approx[j]
            .iter()
            .filter(|i| exact[j].binary_search(i).is_ok())
            .count();
        total += hits as f64 / exact[j].len() as f64;
        counted += 1;
    }
    if counted == 0 {
        1.0
    } else {
        total / counted as f64
    }
}

/// Bitwise equality of two canonical CSR matrices.
fn sparse_bitwise_eq(a: &SparseMatrix, b: &SparseMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.nnz() == b.nnz()
        && (0..a.rows()).all(|r| a.row_iter(r).eq(b.row_iter(r)))
}

fn bench_dataset(dataset: Dataset, reps: usize) -> Row {
    let hin = dataset.load(DATA_SEED);
    let config = dataset.tmark_config();

    // Width-contract telemetry. `from_entries` already validated every
    // index against the u32 packing limit, so this only reports how much
    // headroom the dataset leaves under that contract.
    let nnz = hin.tensor().nnz();
    let max_node_index = hin
        .tensor()
        .entries()
        .iter()
        .map(|e| e.i.max(e.j))
        .max()
        .unwrap_or(0);
    let used_bits = 64 - (max_node_index as u64).leading_zeros();
    let index_headroom_bits = 32 - used_bits;

    let (train, _) = tmark_datasets::stratified_split(&hin, FRACTION, SPLIT_SEED);
    let q = hin.num_classes();
    let seeds: Vec<Vec<usize>> = (0..q)
        .map(|c| {
            train
                .iter()
                .copied()
                .filter(|&v| hin.labels().has_label(v, c))
                .collect()
        })
        .collect();
    let classes: Vec<usize> = (0..q).collect();

    // Model-assembly phases. These call the builders directly (not the
    // network's memoized accessors) so they report the true one-time cost
    // a cold fit pays; warm fits skip both via the `Hin` caches.
    let build_stoch_ms = time_min_ms(reps, || {
        std::hint::black_box(tmark_sparse_tensor::StochasticTensors::from_tensor(
            hin.tensor(),
        ));
    });
    let build_w_ms = time_min_ms(reps, || {
        std::hint::black_box(feature_transition_matrix(hin.features()));
    });

    // Per-backend W builds at explicit caps 1 / 4. Every output is
    // verified column-stochastic, and the deterministic backends (dense,
    // exact kNN) are verified bitwise identical across the two caps.
    let dense_backend = DenseBackend::new(SimilarityMetric::Cosine);
    let knn_backend = KnnBackend::new(SimilarityMetric::Cosine, KNN_K);
    let ann_backend = AnnBackend::new(SimilarityMetric::Cosine, KNN_K, AnnParams::default());
    let mut build_w_dense_ms = [0.0; 2];
    let mut build_w_knn_ms = [0.0; 2];
    let mut build_w_ann_ms = [0.0; 2];
    let mut dense_caps = Vec::with_capacity(2);
    let mut knn_caps = Vec::with_capacity(2);
    let mut ann_caps = Vec::with_capacity(2);
    for (slot, cap) in [(0usize, 1usize), (1, 4)] {
        pool::set_thread_cap(Some(cap));
        let mut kept = None;
        build_w_dense_ms[slot] = time_min_ms(reps, || {
            kept = Some(dense_backend.build_matrix(hin.features()));
        });
        dense_caps.push(kept.unwrap_or_else(|| die("dense W build never ran")));
        let mut kept = None;
        build_w_knn_ms[slot] = time_min_ms(reps, || {
            kept = Some(
                knn_backend
                    .build_sparse(hin.features())
                    .unwrap_or_else(|e| die(&format!("kNN W build failed: {e}"))),
            );
        });
        knn_caps.push(kept.unwrap_or_else(|| die("kNN W build never ran")));
        let mut kept = None;
        build_w_ann_ms[slot] = time_min_ms(reps, || {
            kept = Some(
                ann_backend
                    .build_sparse(hin.features())
                    .unwrap_or_else(|e| die(&format!("ANN W build failed: {e}"))),
            );
        });
        ann_caps.push(kept.unwrap_or_else(|| die("ANN W build never ran")));
    }
    pool::set_thread_cap(None);
    if !dense_caps[0].is_column_stochastic(1e-6) {
        die(&format!(
            "{}: dense W not column-stochastic",
            dataset.name()
        ));
    }
    for (label, ws) in [("kNN", &knn_caps), ("ANN", &ann_caps)] {
        for w in ws.iter() {
            if !w.is_column_stochastic(1e-6) {
                die(&format!(
                    "{}: {label} W not column-stochastic",
                    dataset.name()
                ));
            }
        }
    }
    if dense_caps[0].as_slice() != dense_caps[1].as_slice() {
        die(&format!(
            "{}: dense W diverged across thread caps — refusing to report timings",
            dataset.name()
        ));
    }
    if !sparse_bitwise_eq(&knn_caps[0], &knn_caps[1]) {
        die(&format!(
            "{}: exact-kNN W diverged across thread caps — refusing to report timings",
            dataset.name()
        ));
    }
    let ann_recall = mean_recall(&ann_caps[0], &knn_caps[0], hin.num_nodes());

    // Multi-probe recall columns: the same LSH structure probed 1 / 4
    // buckets deep per band. One probe is the default and must reproduce
    // the walk measured above bitwise, so its recall is reused as-is.
    let mut ann_recall_probes = [0.0; ANN_PROBES.len()];
    ann_recall_probes[0] = ann_recall;
    for (slot, &probes) in ANN_PROBES.iter().enumerate().skip(1) {
        let w = AnnBackend::new(
            SimilarityMetric::Cosine,
            KNN_K,
            AnnParams {
                probes,
                ..AnnParams::default()
            },
        )
        .build_sparse(hin.features())
        .unwrap_or_else(|e| die(&format!("ANN W build (probes {probes}) failed: {e}")));
        if !w.is_column_stochastic(1e-6) {
            die(&format!(
                "{}: ANN W (probes {probes}) not column-stochastic",
                dataset.name()
            ));
        }
        ann_recall_probes[slot] = mean_recall(&w, &knn_caps[0], hin.num_nodes());
    }

    let stoch = hin.stochastic_tensors();
    let w = hin.feature_walk(FeatureWalkMode::Dense, SimilarityMetric::Cosine);
    let sizes = stoch.entry_byte_sizes();

    let solver = BatchSolver::new(&stoch, &w, config);
    let mut bws = BatchWorkspace::default();
    let mut per_class_ms = f64::INFINITY;
    let mut sequential: Vec<ClassStationary> = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        let outs: Vec<ClassStationary> = classes
            .iter()
            .flat_map(|&c| solver.solve(&[c], &seeds, &[], &mut bws))
            .collect();
        per_class_ms = min_ms(per_class_ms, started);
        sequential = outs;
    }

    let mut batch_ms = f64::INFINITY;
    let mut batched: Vec<ClassStationary> = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        let outs = solver.solve(&classes, &seeds, &[], &mut bws);
        batch_ms = min_ms(batch_ms, started);
        batched = outs;
    }

    let mut bitwise_equal = sequential.len() == batched.len()
        && sequential
            .iter()
            .zip(&batched)
            .all(|(a, b)| a.x == b.x && a.z == b.z && a.report == b.report);
    if !bitwise_equal {
        die(&format!(
            "{}: batched and per-class solutions diverged — refusing to report timings",
            dataset.name()
        ));
    }

    // Per-kernel timings at serial and 4-way caps. The operand block is
    // the stationary solution, so the kernels see realistic sparsity.
    let n = hin.num_nodes();
    let m = hin.num_link_types();
    let mut xs = vec![0.0; n * q];
    let mut zs = vec![0.0; m * q];
    for (c, out) in batched.iter().enumerate() {
        xs[c * n..(c + 1) * n].copy_from_slice(&out.x);
        zs[c * m..(c + 1) * m].copy_from_slice(&out.z);
    }
    let mut ys = vec![0.0; n * q];
    let mut zb = vec![0.0; m * q];
    let mut kernel_o_ms = [0.0; 2];
    let mut kernel_r_ms = [0.0; 2];
    let mut kernel_w_ms = [0.0; 2];
    for (slot, cap) in [(0usize, 1usize), (1, 4)] {
        pool::set_thread_cap(Some(cap));
        kernel_o_ms[slot] = time_min_ms(reps, || {
            for _ in 0..KERNEL_CALLS {
                if stoch.contract_o_multi_into(&xs, &zs, &mut ys, q).is_err() {
                    die("contract_o_multi_into rejected the operand block");
                }
            }
        }) / KERNEL_CALLS as f64;
        kernel_r_ms[slot] = time_min_ms(reps, || {
            for _ in 0..KERNEL_CALLS {
                if stoch.contract_r_multi_into(&xs, &mut zb, q).is_err() {
                    die("contract_r_multi_into rejected the operand block");
                }
            }
        }) / KERNEL_CALLS as f64;
        kernel_w_ms[slot] = time_min_ms(reps, || {
            for _ in 0..KERNEL_CALLS {
                w.apply_multi_into(&xs, q, &mut ys);
            }
        }) / KERNEL_CALLS as f64;
    }
    pool::set_thread_cap(None);

    let model = TMarkModel::new(config);
    let mut fit_ms = f64::INFINITY;
    let mut fit_baseline: Option<TMarkResult> = None;
    for _ in 0..reps {
        let started = Instant::now();
        match model.fit(&hin, &train) {
            Ok(r) => {
                fit_ms = min_ms(fit_ms, started);
                fit_baseline = Some(r);
            }
            Err(e) => die(&format!("{} fit failed: {e}", dataset.name())),
        }
    }
    let Some(fit_baseline) = fit_baseline else {
        die(&format!("{}: no successful fit repetition", dataset.name()));
    };

    // Serial-vs-parallel fit columns, each cross-checked bitwise against
    // the ambient-cap fit above.
    let mut fit_threads_ms = [f64::INFINITY; THREAD_CAPS.len()];
    for (slot, cap) in THREAD_CAPS.iter().enumerate() {
        pool::set_thread_cap(Some(*cap));
        for _ in 0..reps {
            let started = Instant::now();
            match model.fit(&hin, &train) {
                Ok(r) => {
                    fit_threads_ms[slot] = min_ms(fit_threads_ms[slot], started);
                    if r.confidences().as_slice() != fit_baseline.confidences().as_slice()
                        || r.link_scores().as_slice() != fit_baseline.link_scores().as_slice()
                    {
                        bitwise_equal = false;
                    }
                }
                Err(e) => die(&format!("{} fit (cap {cap}) failed: {e}", dataset.name())),
            }
        }
    }
    pool::set_thread_cap(None);
    if !bitwise_equal {
        die(&format!(
            "{}: fit results diverged across thread caps — refusing to report timings",
            dataset.name()
        ));
    }

    // Adaptive-threshold regression pin: on a toy network every cap must
    // take the serial path, so cap 4 may not run slower than cap 1 by
    // more than measurement noise. Measured with its own min-of-5 pass
    // (independent of `reps`) so one noisy smoke repetition cannot trip
    // the gate.
    if dataset == Dataset::Dblp {
        const PIN_REPS: usize = 5;
        let mut pin_ms = [f64::INFINITY; 2];
        for (slot, cap) in [(0usize, 1usize), (1, 4)] {
            pool::set_thread_cap(Some(cap));
            pin_ms[slot] = time_min_ms(PIN_REPS, || {
                if model.fit(&hin, &train).is_err() {
                    die("DBLP pin fit failed");
                }
            });
        }
        pool::set_thread_cap(None);
        let ratio = pin_ms[0] / pin_ms[1];
        if ratio < SMALL_NET_CAP4_FLOOR {
            die(&format!(
                "DBLP: cap-4 fit is {ratio:.3}x the cap-1 fit (< {SMALL_NET_CAP4_FLOOR}) — \
                 the adaptive parallelism threshold regressed on small networks"
            ));
        }
    }

    Row {
        name: dataset.name(),
        nodes: n,
        classes: q,
        link_types: hin.num_link_types(),
        max_node_index,
        nnz,
        index_headroom_bits,
        iterations: batched.iter().map(|o| o.report.iterations).sum(),
        build_stoch_ms,
        build_w_ms,
        build_w_dense_ms,
        build_w_knn_ms,
        build_w_ann_ms,
        ann_recall,
        ann_recall_probes,
        per_class_ms,
        batch_ms,
        fit_ms,
        fit_threads_ms,
        kernel_o_ms,
        kernel_r_ms,
        kernel_w_ms,
        aos_bytes: sizes.aos,
        o_path_bytes: sizes.o_path,
        r_path_bytes: sizes.r_path,
        bitwise_equal,
    }
}

/// Scaling-sweep sizes as `(nodes, undirected edges)`. Stored entries are
/// ~2× the edge count (walk convention, minus Zipf-head merges), so the
/// sweep spans roughly `2·10^4 … 2·10^7` nnz — three orders of magnitude.
const SCALING_SIZES: [(usize, usize); 4] = [
    (1_000, 10_000),
    (10_000, 100_000),
    (100_000, 1_000_000),
    (500_000, 10_000_000),
];
/// `--scaling --smoke` keeps the first three sizes (top point: 10^5 nodes).
const SCALING_SMOKE_POINTS: usize = 3;
/// Fixed iteration budget `T` of the scaling solves. `ε` is set far out
/// of reach so every class runs the full budget — O(qTD) is then
/// measured at constant `q` and `T`, varying only `D`.
const SCALING_ITERATIONS: usize = 12;
/// Solve repetitions per (size, cap); the minimum is reported. One
/// descheduled run on a point of a three-decade sweep tilts the whole
/// log-log fit, and the solves are deterministic per cap, so extra
/// repetitions only tighten the timing.
const SCALING_SOLVE_REPS: usize = 2;
/// Classes `q` of every generated network.
const SCALING_CLASSES: usize = 4;
/// Feature dimensionality of every generated network.
const SCALING_FEATURE_DIM: usize = 16;
/// ANN walk parameters of the scaling solves: tight 16-bit buckets keep
/// candidate volume (and the `W` build) linear at half a million nodes.
const SCALING_ANN_K: usize = 8;
const SCALING_ROWS_PER_BAND: usize = 16;
const SCALING_BANDS: usize = 4;
/// Acceptance window on the fitted per-iteration log-log slope vs nnz:
/// O(qTD) predicts slope ≈ 1, and a drift past ±20% fails the run.
const SLOPE_WINDOW: (f64, f64) = (0.8, 1.2);
/// Speedup floor for the cap-4 solve of the largest generated network
/// over cap-1, enforced only on hosts that actually have ≥ 4 cores.
const SCALE_SPEEDUP_FLOOR: f64 = 1.5;

/// One generated network of the scaling sweep.
struct ScaleRow {
    nodes: usize,
    edges: usize,
    /// Stored entries of the generated adjacency tensor (`D` in O(qTD)).
    nnz: usize,
    /// Power-law generation wall time (chunk-parallel, streamed build).
    gen_ms: f64,
    /// Chunked `StochasticTensors::from_tensor` assembly wall time.
    build_stoch_ms: f64,
    /// SimHash-ANN `W` build wall time.
    build_w_ms: f64,
    /// Cap-1 batched solve wall time over the full iteration budget.
    solve_ms: f64,
    /// Iterations the solve actually ran (the full budget by design).
    iterations: usize,
    /// `solve_ms / iterations` — the O(qTD) per-iteration cost.
    per_iter_ms: f64,
    /// Full solve wall time at caps 1 / 4.
    fit_threads_ms: [f64; 2],
    /// Caps 1 / 4 solutions compared bit for bit.
    bitwise_equal: bool,
}

/// The scaling sweep plus its fitted slopes and speedup telemetry.
struct ScalingReport {
    rows: Vec<ScaleRow>,
    build_slope: f64,
    per_iter_slope: f64,
    largest_speedup: f64,
    host_parallelism: usize,
    speedup_enforced: bool,
}

fn scaling_config(nodes: usize, edges: usize) -> PowerLawHinConfig {
    PowerLawHinConfig {
        num_nodes: nodes,
        num_classes: SCALING_CLASSES,
        relations: vec![
            PowerLawRelationSpec {
                name: "head".into(),
                num_edges: edges / 5 * 3,
                zipf_exponent: 0.8,
                homophily: 0.7,
            },
            PowerLawRelationSpec {
                name: "tail".into(),
                num_edges: edges / 5 * 2,
                zipf_exponent: 0.5,
                homophily: 0.2,
            },
        ],
        feature_dim: SCALING_FEATURE_DIM,
        cluster_spread: 0.5,
        seed: DATA_SEED,
    }
}

/// Wall time of one call, with its result (the scaling phases are too
/// slow to repeat, and a 4-point log-log fit tolerates single-shot noise).
fn time_once_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_secs_f64() * 1e3, value)
}

/// Least-squares slope of `ln y` against `ln x`.
fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

fn bench_scale_point(nodes: usize, edges: usize) -> ScaleRow {
    let (gen_ms, hin) = time_once_ms(|| scaling_config(nodes, edges).generate());
    let nnz = hin.tensor().nnz();

    let (build_stoch_ms, stoch) =
        time_once_ms(|| tmark_sparse_tensor::StochasticTensors::from_tensor(hin.tensor()));

    let ann = AnnBackend::new(
        SimilarityMetric::Cosine,
        SCALING_ANN_K,
        AnnParams {
            rows_per_band: SCALING_ROWS_PER_BAND,
            bands: SCALING_BANDS,
            ..AnnParams::default()
        },
    );
    let (build_w_ms, walk) = time_once_ms(|| {
        ann.build(hin.features())
            .unwrap_or_else(|e| die(&format!("scaling ANN W build failed: {e}")))
    });

    let (train, _) = tmark_datasets::stratified_split(&hin, 0.1, SPLIT_SEED);
    let seeds: Vec<Vec<usize>> = (0..SCALING_CLASSES)
        .map(|c| {
            train
                .iter()
                .copied()
                .filter(|&v| hin.labels().has_label(v, c))
                .collect()
        })
        .collect();
    let classes: Vec<usize> = (0..SCALING_CLASSES).collect();
    let config = TMarkConfig {
        alpha: 0.9,
        gamma: 0.5,
        lambda: 0.9,
        epsilon: 1e-300,
        max_iterations: SCALING_ITERATIONS,
        ..TMarkConfig::default()
    };
    let solver = BatchSolver::new(&stoch, &walk, config);

    // Min-of-reps: the per-iteration slope gate compares points spanning
    // three orders of magnitude, so a single descheduled measurement on a
    // busy host can tilt the whole fit. The solve is deterministic per
    // cap, so repetitions only tighten the timing.
    let mut fit_threads_ms = [f64::INFINITY; 2];
    let mut outs: Vec<Vec<ClassStationary>> = Vec::with_capacity(2);
    for (slot, cap) in [(0usize, 1usize), (1, 4)] {
        pool::set_thread_cap(Some(cap));
        let mut kept = None;
        for _ in 0..SCALING_SOLVE_REPS {
            let mut bws = BatchWorkspace::default();
            let (ms, out) = time_once_ms(|| solver.solve(&classes, &seeds, &[], &mut bws));
            fit_threads_ms[slot] = fit_threads_ms[slot].min(ms);
            kept = Some(out);
        }
        outs.push(kept.unwrap_or_else(|| die("scaling: zero solve repetitions")));
    }
    pool::set_thread_cap(None);

    let bitwise_equal = outs[0].len() == outs[1].len()
        && outs[0]
            .iter()
            .zip(&outs[1])
            .all(|(a, b)| a.x == b.x && a.z == b.z);
    if !bitwise_equal {
        die(&format!(
            "scaling n={nodes}: solves diverged across thread caps — refusing to report timings"
        ));
    }
    let iterations = outs[0]
        .iter()
        .map(|o| o.report.iterations)
        .max()
        .unwrap_or(0);
    if iterations == 0 {
        die(&format!("scaling n={nodes}: solver ran zero iterations"));
    }

    let solve_ms = fit_threads_ms[0];
    ScaleRow {
        nodes,
        edges,
        nnz,
        gen_ms,
        build_stoch_ms,
        build_w_ms,
        solve_ms,
        iterations,
        per_iter_ms: solve_ms / iterations as f64,
        fit_threads_ms,
        bitwise_equal,
    }
}

fn run_scaling(smoke: bool) -> ScalingReport {
    let count = if smoke {
        SCALING_SMOKE_POINTS
    } else {
        SCALING_SIZES.len()
    };
    let mut rows = Vec::with_capacity(count);
    for &(nodes, edges) in SCALING_SIZES.iter().take(count) {
        eprintln!("bench_solver: scaling n={nodes}, {edges} edges ...");
        rows.push(bench_scale_point(nodes, edges));
    }

    let build: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.nnz as f64, r.build_stoch_ms))
        .collect();
    let per_iter: Vec<(f64, f64)> = rows.iter().map(|r| (r.nnz as f64, r.per_iter_ms)).collect();
    let build_slope = log_log_slope(&build);
    let per_iter_slope = log_log_slope(&per_iter);

    let largest = rows
        .last()
        .unwrap_or_else(|| die("scaling: no sizes measured"));
    let largest_speedup = largest.fit_threads_ms[0] / largest.fit_threads_ms[1];
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // The ≥ 1.5× cap-4 target is only measurable when the host can run 4
    // workers; on narrower hosts the honest numbers are still reported
    // and the bitwise cross-check above still gates.
    let speedup_enforced = host_parallelism >= 4;

    ScalingReport {
        rows,
        build_slope,
        per_iter_slope,
        largest_speedup,
        host_parallelism,
        speedup_enforced,
    }
}

/// The scaling regression gates, checked only after the table and the
/// JSON artifact are out so a failing run still leaves its diagnostics
/// behind. (The bitwise cap-1/cap-4 cross-check is not here: a
/// divergence is a correctness bug, so `bench_scale_point` refuses to
/// report timings at all.)
fn enforce_scaling_gates(s: &ScalingReport) {
    if !(SLOPE_WINDOW.0..=SLOPE_WINDOW.1).contains(&s.per_iter_slope) {
        die(&format!(
            "scaling: per-iteration slope {:.3} vs nnz escaped \
             [{}, {}] — O(qTD) regression",
            s.per_iter_slope, SLOPE_WINDOW.0, SLOPE_WINDOW.1
        ));
    }
    if s.speedup_enforced && s.largest_speedup < SCALE_SPEEDUP_FLOOR {
        die(&format!(
            "scaling: cap-4 speedup {:.2}x on the largest network \
             is below the {SCALE_SPEEDUP_FLOOR}x floor",
            s.largest_speedup
        ));
    }
}

fn render_scaling_json(out: &mut String, s: &ScalingReport) {
    let _ = writeln!(out, "  \"scaling\": {{");
    let _ = writeln!(out, "    \"classes\": {SCALING_CLASSES},");
    let _ = writeln!(out, "    \"relations\": 2,");
    let _ = writeln!(out, "    \"feature_dim\": {SCALING_FEATURE_DIM},");
    let _ = writeln!(
        out,
        "    \"ann\": {{\"k\": {SCALING_ANN_K}, \"rows_per_band\": {SCALING_ROWS_PER_BAND}, \"bands\": {SCALING_BANDS}}},"
    );
    let _ = writeln!(out, "    \"iterations\": {SCALING_ITERATIONS},");
    out.push_str("    \"sizes\": [\n");
    for (i, r) in s.rows.iter().enumerate() {
        out.push_str("      {\n");
        let _ = writeln!(out, "        \"nodes\": {},", r.nodes);
        let _ = writeln!(out, "        \"edges\": {},", r.edges);
        let _ = writeln!(out, "        \"nnz\": {},", r.nnz);
        let _ = writeln!(out, "        \"gen_ms\": {:.3},", r.gen_ms);
        let _ = writeln!(out, "        \"build_stoch_ms\": {:.3},", r.build_stoch_ms);
        let _ = writeln!(out, "        \"build_w_ann_ms\": {:.3},", r.build_w_ms);
        let _ = writeln!(out, "        \"solve_ms\": {:.3},", r.solve_ms);
        let _ = writeln!(out, "        \"iterations\": {},", r.iterations);
        let _ = writeln!(out, "        \"per_iter_ms\": {:.4},", r.per_iter_ms);
        let _ = writeln!(
            out,
            "        \"fit_threads_ms\": [{}],",
            r.fit_threads_ms.map(|v| format!("{v:.3}")).join(", ")
        );
        let _ = writeln!(out, "        \"bitwise_equal\": {}", r.bitwise_equal);
        out.push_str(if i + 1 < s.rows.len() {
            "      },\n"
        } else {
            "      }\n"
        });
    }
    out.push_str("    ],\n");
    let _ = writeln!(out, "    \"build_slope_vs_nnz\": {:.4},", s.build_slope);
    let _ = writeln!(
        out,
        "    \"per_iter_slope_vs_nnz\": {:.4},",
        s.per_iter_slope
    );
    let _ = writeln!(
        out,
        "    \"slope_window\": [{}, {}],",
        SLOPE_WINDOW.0, SLOPE_WINDOW.1
    );
    let _ = writeln!(
        out,
        "    \"largest_speedup_cap4_over_cap1\": {:.3},",
        s.largest_speedup
    );
    let _ = writeln!(out, "    \"speedup_floor\": {SCALE_SPEEDUP_FLOOR},");
    let _ = writeln!(out, "    \"speedup_enforced\": {}", s.speedup_enforced);
    out.push_str("  },\n");
}

fn render_json(rows: &[Row], scaling: Option<&ScalingReport>, smoke: bool, reps: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"fraction\": {FRACTION},");
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let _ = writeln!(out, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(
        out,
        "  \"thread_caps\": [{}],",
        THREAD_CAPS.map(|c| c.to_string()).join(", ")
    );
    if let Some(s) = scaling {
        render_scaling_json(&mut out, s);
    }
    out.push_str("  \"datasets\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"nodes\": {},", r.nodes);
        let _ = writeln!(out, "      \"classes\": {},", r.classes);
        let _ = writeln!(out, "      \"link_types\": {},", r.link_types);
        let _ = writeln!(out, "      \"max_node_index\": {},", r.max_node_index);
        let _ = writeln!(out, "      \"nnz\": {},", r.nnz);
        let _ = writeln!(
            out,
            "      \"index_headroom_bits\": {},",
            r.index_headroom_bits
        );
        let _ = writeln!(out, "      \"iterations\": {},", r.iterations);
        let _ = writeln!(out, "      \"build_stoch_ms\": {:.3},", r.build_stoch_ms);
        let _ = writeln!(out, "      \"build_w_ms\": {:.3},", r.build_w_ms);
        let _ = writeln!(
            out,
            "      \"build_w_dense_ms\": [{}],",
            r.build_w_dense_ms.map(|v| format!("{v:.3}")).join(", ")
        );
        let _ = writeln!(
            out,
            "      \"build_w_knn_ms\": [{}],",
            r.build_w_knn_ms.map(|v| format!("{v:.3}")).join(", ")
        );
        let _ = writeln!(
            out,
            "      \"build_w_ann_ms\": [{}],",
            r.build_w_ann_ms.map(|v| format!("{v:.3}")).join(", ")
        );
        let _ = writeln!(out, "      \"knn_k\": {KNN_K},");
        let _ = writeln!(out, "      \"ann_recall_at_k\": {:.4},", r.ann_recall);
        let _ = writeln!(
            out,
            "      \"ann_probes\": [{}],",
            ANN_PROBES.map(|p| p.to_string()).join(", ")
        );
        let _ = writeln!(
            out,
            "      \"ann_recall_at_probes\": [{}],",
            r.ann_recall_probes.map(|v| format!("{v:.4}")).join(", ")
        );
        let _ = writeln!(out, "      \"per_class_ms\": {:.3},", r.per_class_ms);
        let _ = writeln!(out, "      \"batch_ms\": {:.3},", r.batch_ms);
        let _ = writeln!(out, "      \"fit_ms\": {:.3},", r.fit_ms);
        let _ = writeln!(
            out,
            "      \"fit_threads_ms\": [{}],",
            r.fit_threads_ms.map(|v| format!("{v:.3}")).join(", ")
        );
        let _ = writeln!(
            out,
            "      \"kernel_contract_o_ms\": [{}],",
            r.kernel_o_ms.map(|v| format!("{v:.4}")).join(", ")
        );
        let _ = writeln!(
            out,
            "      \"kernel_contract_r_ms\": [{}],",
            r.kernel_r_ms.map(|v| format!("{v:.4}")).join(", ")
        );
        let _ = writeln!(
            out,
            "      \"kernel_feature_walk_ms\": [{}],",
            r.kernel_w_ms.map(|v| format!("{v:.4}")).join(", ")
        );
        let _ = writeln!(out, "      \"aos_bytes\": {},", r.aos_bytes);
        let _ = writeln!(out, "      \"o_path_bytes\": {},", r.o_path_bytes);
        let _ = writeln!(out, "      \"r_path_bytes\": {},", r.r_path_bytes);
        let _ = writeln!(
            out,
            "      \"speedup_batch_over_per_class\": {:.3},",
            r.speedup()
        );
        let _ = writeln!(out, "      \"bitwise_equal\": {}", r.bitwise_equal);
        out.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut smoke = false;
    let mut scaling = false;
    let mut out_path = String::from("BENCH_solver.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scaling" => scaling = true,
            "--format" => match args.next().as_deref() {
                Some("json") => {}
                other => die(&format!("unsupported --format {other:?} (json only)")),
            },
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => die("--out requires a path"),
            },
            other => die(&format!(
                "unknown flag {other} (try --smoke, --scaling, --format json, --out PATH)"
            )),
        }
    }

    let reps = if smoke { 1 } else { 3 };
    let datasets = [
        Dataset::Dblp,
        Dataset::Movies,
        Dataset::NusTagset1,
        Dataset::NusTagset2,
        Dataset::Acm,
    ];
    let mut rows = Vec::with_capacity(datasets.len());
    for d in datasets {
        eprintln!("bench_solver: measuring {} ...", d.name());
        rows.push(bench_dataset(d, reps));
    }

    println!(
        "{:<14} {:>5} {:>3} {:>12} {:>12} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "dataset",
        "nodes",
        "q",
        "per-class ms",
        "batched ms",
        "fit ms",
        "fit t1",
        "fit t2",
        "fit t4",
        "speedup"
    );
    for r in &rows {
        println!(
            "{:<14} {:>5} {:>3} {:>12.3} {:>12.3} {:>10.3} {:>8.3} {:>8.3} {:>8.3} {:>7.2}x",
            r.name,
            r.nodes,
            r.classes,
            r.per_class_ms,
            r.batch_ms,
            r.fit_ms,
            r.fit_threads_ms[0],
            r.fit_threads_ms[1],
            r.fit_threads_ms[2],
            r.speedup()
        );
    }
    println!();
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "dataset", "dense t1", "dense t4", "knn t1", "knn t4", "ann t1", "ann t4", "recall"
    );
    for r in &rows {
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8.4}",
            r.name,
            r.build_w_dense_ms[0],
            r.build_w_dense_ms[1],
            r.build_w_knn_ms[0],
            r.build_w_knn_ms[1],
            r.build_w_ann_ms[0],
            r.build_w_ann_ms[1],
            r.ann_recall
        );
    }

    let scale_report = if scaling {
        Some(run_scaling(smoke))
    } else {
        None
    };
    if let Some(s) = &scale_report {
        println!();
        println!(
            "{:<9} {:>11} {:>9} {:>10} {:>9} {:>9} {:>11} {:>9} {:>9}",
            "nodes",
            "nnz",
            "gen ms",
            "stoch ms",
            "w ms",
            "solve ms",
            "per-iter ms",
            "solve t1",
            "solve t4"
        );
        for r in &s.rows {
            println!(
                "{:<9} {:>11} {:>9.1} {:>10.1} {:>9.1} {:>9.1} {:>11.3} {:>9.1} {:>9.1}",
                r.nodes,
                r.nnz,
                r.gen_ms,
                r.build_stoch_ms,
                r.build_w_ms,
                r.solve_ms,
                r.per_iter_ms,
                r.fit_threads_ms[0],
                r.fit_threads_ms[1],
            );
        }
        println!(
            "slopes vs nnz: build {:.3}, per-iteration {:.3} (window [{}, {}]); \
             largest cap-4 speedup {:.2}x ({}, host parallelism {})",
            s.build_slope,
            s.per_iter_slope,
            SLOPE_WINDOW.0,
            SLOPE_WINDOW.1,
            s.largest_speedup,
            if s.speedup_enforced {
                "enforced"
            } else {
                "reported only: host narrower than 4 cores"
            },
            s.host_parallelism,
        );
    }

    let json = render_json(&rows, scale_report.as_ref(), smoke, reps);
    if let Err(e) = std::fs::write(&out_path, &json) {
        die(&format!("writing {out_path}: {e}"));
    }
    println!("wrote {out_path}");

    if let Some(s) = &scale_report {
        enforce_scaling_gates(s);
    }
}
