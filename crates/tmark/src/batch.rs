//! Lockstep multi-class solver: Algorithm 1 over an `n × q` iterate block.
//!
//! [`BatchSolver`] is the one implementation of the coupled fixed-point
//! iteration. It runs any set of classes at once — the fit passes all `q`,
//! the fit's panic-retry path one at a time. Each iteration makes *one*
//! pass over the stored tensor entries
//! ([`StochasticTensors::contract_o_multi_into`] /
//! [`StochasticTensors::contract_r_multi_into`]) and one pass over the
//! feature walk ([`FeatureWalk::apply_multi_into`]) that serve every class,
//! instead of `q` independent passes — the cache-locality win the paper's
//! `O(qTD)` cost model leaves on the table when the classes run on separate
//! threads.
//!
//! Bit-exactness contract: a class's result does not depend on which other
//! classes share its block. Per column the kernels sum in a fixed order
//! (entries in storage order, Kahan-compensated reductions front to back),
//! so solving `[c]` alone reproduces `c`'s column of a larger batch **bit
//! for bit** — the tests assert exact `==` against a plain per-class
//! transcription of Algorithm 1, not a tolerance. Classes whose residual
//! crosses `epsilon` retire early: their column is swapped to the back of
//! the active block (column-major storage makes this two slice swaps) and
//! later iterations no longer touch it.

use tmark_linalg::vector;
use tmark_markov::ConvergenceReport;
use tmark_sparse_tensor::StochasticTensors;

use crate::config::TMarkConfig;
use crate::restart::{ica_refresh_restart_with, label_restart_into, RestartScratch};
use crate::solver::{ClassStationary, FeatureWalk, TRACE_CAP};

/// Reusable column-major blocks for one batched solve, double-buffered:
/// the iteration writes the fresh `n × q` / `m × q` blocks and
/// `mem::swap`s them with the current ones, so the per-iteration loop
/// performs no heap allocation.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    xs: Vec<f64>,
    zs: Vec<f64>,
    oxs: Vec<f64>,
    wxs: Vec<f64>,
    next_xs: Vec<f64>,
    next_zs: Vec<f64>,
    restarts: Vec<f64>,
    out_xs: Vec<f64>,
    out_zs: Vec<f64>,
    traces: Vec<Vec<f64>>,
    scratch: RestartScratch,
}

impl BatchWorkspace {
    /// Sizes every block for `q` classes on an `n`-node, `m`-relation
    /// network and reserves the capped trace capacity, so the iteration
    /// loop never allocates.
    fn prepare(&mut self, n: usize, m: usize, q: usize, max_iterations: usize) {
        self.xs.resize(n * q, 0.0);
        self.zs.resize(m * q, 0.0);
        self.oxs.resize(n * q, 0.0);
        self.wxs.resize(n * q, 0.0);
        self.next_xs.resize(n * q, 0.0);
        self.next_zs.resize(m * q, 0.0);
        self.restarts.resize(n * q, 0.0);
        self.out_xs.resize(n * q, 0.0);
        self.out_zs.resize(m * q, 0.0);
        self.traces.resize(q, Vec::new());
        for trace in self.traces.iter_mut() {
            trace.clear();
            trace.reserve(max_iterations.min(TRACE_CAP));
        }
    }
}

/// The batched kernels validate block lengths; [`BatchWorkspace::prepare`]
/// sizes every block to match, so a shape error here is a solver bug, not
/// a data condition.
fn shape_ok<E: std::fmt::Debug>(result: Result<(), E>) {
    result.expect("batch blocks sized by prepare");
}

/// Swaps columns `a` and `b` (each of length `len`) of a column-major
/// block in place, without allocating.
fn swap_columns(block: &mut [f64], a: usize, b: usize, len: usize) {
    debug_assert!(a < b, "swap_columns expects a < b");
    if len == 0 {
        return;
    }
    let (lo, hi) = block.split_at_mut(b * len);
    lo[a * len..(a + 1) * len].swap_with_slice(&mut hi[..len]);
}

/// Runs Algorithm 1 for a set of classes in lockstep over shared
/// column-major blocks. See the module docs for the bit-exactness
/// contract.
#[derive(Debug, Clone, Copy)]
pub struct BatchSolver<'a> {
    stoch: &'a StochasticTensors,
    w: &'a FeatureWalk,
    config: TMarkConfig,
}

impl<'a> BatchSolver<'a> {
    /// Binds the solver to a network's tensor pair and feature walk.
    pub fn new(stoch: &'a StochasticTensors, w: &'a FeatureWalk, config: TMarkConfig) -> Self {
        debug_assert_eq!(
            w.len(),
            stoch.num_nodes(),
            "feature walk and tensor disagree on n"
        );
        BatchSolver { stoch, w, config }
    }

    /// Solves Algorithm 1 for every class id in `classes`, returning one
    /// [`ClassStationary`] per entry, in order.
    ///
    /// `seeds` is indexed by *class id* (as produced by the fit's seed
    /// grouping); `warm` likewise holds optional warm-start pairs per class
    /// id and may be empty when every class cold-starts.
    ///
    /// Initialization follows the Section 4.3 example: `x₀` is the seed
    /// indicator distribution (uniform over the network when a class has
    /// no seeds) and `z₀` is uniform over the `m` link types. A warm pair
    /// — e.g. the result of a fit with fewer labeled nodes — replaces that
    /// start; because the fixed point is unique (Theorem 3), warm starting
    /// changes only the iteration count, not the answer.
    pub fn solve(
        &self,
        classes: &[usize],
        seeds: &[Vec<usize>],
        warm: &[Option<(Vec<f64>, Vec<f64>)>],
        ws: &mut BatchWorkspace,
    ) -> Vec<ClassStationary> {
        let n = self.stoch.num_nodes();
        let m = self.stoch.num_relations();
        let q = classes.len();
        let config = &self.config;
        let alpha = config.alpha;
        let beta = config.beta();
        let rel_w = config.relational_weight();
        ws.prepare(n, m, q, config.max_iterations);

        // Position -> original index into `classes`. Retirement compacts
        // the active prefix by column swaps, tracked here.
        let mut orig_of: Vec<usize> = (0..q).collect();
        let mut iterations = vec![0usize; q];
        let mut final_residual = vec![f64::INFINITY; q];
        let mut converged = vec![false; q];
        let mut trace_truncated = vec![0usize; q];

        // Per-class initialization.
        for p in 0..q {
            let class_seeds = &seeds[classes[p]];
            let rcol = &mut ws.restarts[p * n..(p + 1) * n];
            label_restart_into(class_seeds, rcol);
            let xcol = &mut ws.xs[p * n..(p + 1) * n];
            let zcol = &mut ws.zs[p * m..(p + 1) * m];
            match warm.get(classes[p]).and_then(|o| o.as_ref()) {
                // The match guard is the fit_warm doc contract made real
                // in release builds: a shape-stale warm start (the network
                // changed size since `previous` was fitted) falls through
                // to the cold arm for this class instead of indexing past
                // a debug-only assertion. Theorem 3 uniqueness means the
                // fallback changes only the iteration count.
                Some((x0, z0)) if x0.len() == n && z0.len() == m => {
                    xcol.copy_from_slice(x0);
                    zcol.copy_from_slice(z0);
                    if !vector::normalize_sum_to_one(xcol) {
                        vector::fill_uniform(xcol);
                    }
                    if !vector::normalize_sum_to_one(zcol) {
                        vector::fill_uniform(zcol);
                    }
                }
                _ => {
                    if class_seeds.is_empty() {
                        vector::fill_uniform(xcol);
                    } else {
                        xcol.copy_from_slice(&ws.restarts[p * n..(p + 1) * n]);
                    }
                    vector::fill_uniform(zcol);
                }
            }
        }

        let mut active = q;
        let mut t = 0;
        while t < config.max_iterations && active > 0 {
            t += 1;
            if config.ica_update && t >= config.ica_start_iteration {
                for p in 0..active {
                    ica_refresh_restart_with(
                        &ws.xs[p * n..(p + 1) * n],
                        &seeds[classes[orig_of[p]]],
                        config.lambda,
                        &mut ws.restarts[p * n..(p + 1) * n],
                        &mut ws.scratch,
                    );
                }
            }
            // x_t = (1 − α − β) · O ×̄₁ x ×̄₃ z + β · W x + α · l  (Eq. 10),
            // one shared pass over nnz / W rows for all active classes.
            shape_ok(self.stoch.contract_o_multi_into(
                &ws.xs[..active * n],
                &ws.zs[..active * m],
                &mut ws.oxs[..active * n],
                active,
            ));
            self.w
                .apply_multi_into(&ws.xs[..active * n], active, &mut ws.wxs[..active * n]);
            for i in 0..active * n {
                ws.next_xs[i] = rel_w * ws.oxs[i] + beta * ws.wxs[i] + alpha * ws.restarts[i];
            }
            for p in 0..active {
                vector::normalize_sum_to_one(&mut ws.next_xs[p * n..(p + 1) * n]);
            }
            // z_t = R ×̄₁ x_t ×̄₂ x_t  (Eq. 8, on the fresh x).
            shape_ok(self.stoch.contract_r_multi_into(
                &ws.next_xs[..active * n],
                &mut ws.next_zs[..active * m],
                active,
            ));
            for (p, &orig) in orig_of.iter().enumerate().take(active) {
                let xcol = &ws.next_xs[p * n..(p + 1) * n];
                let zcol = &mut ws.next_zs[p * m..(p + 1) * m];
                vector::normalize_sum_to_one(zcol);
                // Theorem 1: every iterate stays on the simplex.
                tmark_sparse_tensor::debug_assert_simplex!(
                    xcol,
                    tmark_sparse_tensor::invariants::SIMPLEX_TOL,
                    "batched Algorithm 1 node iterate x_t"
                );
                tmark_sparse_tensor::debug_assert_simplex!(
                    &*zcol,
                    tmark_sparse_tensor::invariants::SIMPLEX_TOL,
                    "batched Algorithm 1 link-type iterate z_t"
                );
                let residual = vector::l1_distance(xcol, &ws.xs[p * n..(p + 1) * n])
                    + vector::l1_distance(zcol, &ws.zs[p * m..(p + 1) * m]);
                if ws.traces[orig].len() < TRACE_CAP {
                    ws.traces[orig].push(residual);
                } else {
                    trace_truncated[orig] += 1;
                }
                final_residual[orig] = residual;
                iterations[orig] = t;
            }
            std::mem::swap(&mut ws.xs, &mut ws.next_xs);
            std::mem::swap(&mut ws.zs, &mut ws.next_zs);
            // Retire converged classes: copy their stationary pair out and
            // compact the active prefix. The swapped-in column is examined
            // at the same position, so none is skipped.
            let mut p = 0;
            while p < active {
                let orig = orig_of[p];
                if final_residual[orig] < config.epsilon {
                    converged[orig] = true;
                    ws.out_xs[orig * n..(orig + 1) * n].copy_from_slice(&ws.xs[p * n..(p + 1) * n]);
                    ws.out_zs[orig * m..(orig + 1) * m].copy_from_slice(&ws.zs[p * m..(p + 1) * m]);
                    active -= 1;
                    if p < active {
                        swap_columns(&mut ws.xs, p, active, n);
                        swap_columns(&mut ws.zs, p, active, m);
                        swap_columns(&mut ws.restarts, p, active, n);
                        orig_of.swap(p, active);
                    }
                } else {
                    p += 1;
                }
            }
        }
        // Classes that exhausted the budget keep their last iterate.
        for (p, &orig) in orig_of.iter().enumerate().take(active) {
            ws.out_xs[orig * n..(orig + 1) * n].copy_from_slice(&ws.xs[p * n..(p + 1) * n]);
            ws.out_zs[orig * m..(orig + 1) * m].copy_from_slice(&ws.zs[p * m..(p + 1) * m]);
        }
        assemble(
            classes,
            n,
            m,
            ws,
            &iterations,
            &final_residual,
            &converged,
            &trace_truncated,
        )
    }
}

/// Builds the per-class results from the output blocks (the allocating
/// tail kept out of the hot-loop-registered `solve`).
#[allow(clippy::too_many_arguments)]
fn assemble(
    classes: &[usize],
    n: usize,
    m: usize,
    ws: &BatchWorkspace,
    iterations: &[usize],
    final_residual: &[f64],
    converged: &[bool],
    trace_truncated: &[usize],
) -> Vec<ClassStationary> {
    classes
        .iter()
        .enumerate()
        .map(|(orig, &class_id)| ClassStationary {
            class_id,
            x: ws.out_xs[orig * n..(orig + 1) * n].to_vec(),
            z: ws.out_zs[orig * m..(orig + 1) * m].to_vec(),
            report: ConvergenceReport {
                iterations: iterations[orig],
                final_residual: final_residual[orig],
                converged: converged[orig],
                residual_trace: ws.traces[orig].clone(),
                trace_truncated: trace_truncated[orig],
            },
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::reference_solve;
    use tmark_feature_walk::feature_transition_matrix;
    use tmark_linalg::DenseMatrix;
    use tmark_sparse_tensor::SparseTensor3;

    /// Two 3-node communities joined by one bridge edge of a second type;
    /// features align with the communities.
    pub(crate) fn community_setup() -> (StochasticTensors, FeatureWalk) {
        let links = [
            (0, 1, 0),
            (1, 2, 0),
            (0, 2, 0),
            (3, 4, 0),
            (4, 5, 0),
            (3, 5, 0),
            (2, 3, 1),
        ];
        let both = links
            .iter()
            .flat_map(|&(u, v, k)| [(u, v, k, 1.0), (v, u, k, 1.0)]);
        let tensor = SparseTensor3::from_entries(6, 2, both).unwrap();
        let stoch = StochasticTensors::from_tensor(&tensor);
        let features = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![0.8, 0.2],
            vec![0.2, 0.8],
            vec![0.1, 0.9],
            vec![0.0, 1.0],
        ])
        .unwrap();
        let w = FeatureWalk::from_dense(feature_transition_matrix(&features));
        (stoch, w)
    }

    fn assert_bitwise_equal_to_sequential(
        stoch: &StochasticTensors,
        w: &FeatureWalk,
        config: &TMarkConfig,
        seeds: &[Vec<usize>],
    ) {
        let classes: Vec<usize> = (0..seeds.len()).collect();
        let solver = BatchSolver::new(stoch, w, *config);
        let mut ws = BatchWorkspace::default();
        let batched = solver.solve(&classes, seeds, &[], &mut ws);
        for (c, got) in batched.iter().enumerate() {
            let want = reference_solve(c, stoch, w, &seeds[c], config, None);
            assert_eq!(got.x, want.x, "class {c} x");
            assert_eq!(got.z, want.z, "class {c} z");
            assert_eq!(got.report, want.report, "class {c} report");
        }
    }

    #[test]
    fn batch_matches_sequential_bitwise_on_community_network() {
        let (stoch, w) = community_setup();
        let seeds = vec![vec![0], vec![3], vec![1, 4], vec![]];
        assert_bitwise_equal_to_sequential(&stoch, &w, &TMarkConfig::default(), &seeds);
    }

    #[test]
    fn batch_matches_sequential_with_ica_refresh() {
        let (stoch, w) = community_setup();
        let config = TMarkConfig {
            lambda: 0.02,
            epsilon: 1e-12,
            ..Default::default()
        };
        let seeds = vec![vec![0], vec![5]];
        assert_bitwise_equal_to_sequential(&stoch, &w, &config, &seeds);
    }

    #[test]
    fn batch_matches_sequential_under_iteration_starvation() {
        // Classes retire at different iterations; starved budgets exercise
        // the "still active at the cap" path.
        let (stoch, w) = community_setup();
        for max_iterations in [0, 1, 2, 5] {
            let config = TMarkConfig {
                epsilon: 1e-12,
                max_iterations,
                ..Default::default()
            };
            let seeds = vec![vec![0], vec![3], vec![2, 5]];
            assert_bitwise_equal_to_sequential(&stoch, &w, &config, &seeds);
        }
    }

    #[test]
    fn batch_honours_warm_starts_bitwise() {
        let (stoch, w) = community_setup();
        let config = TMarkConfig {
            epsilon: 1e-12,
            ..TMarkConfig::default().tensor_rrcc()
        };
        let seeds = vec![vec![0], vec![3]];
        let classes = vec![0, 1];
        let solver = BatchSolver::new(&stoch, &w, config);
        let mut ws = BatchWorkspace::default();
        let cold = solver.solve(&classes, &seeds, &[], &mut ws);
        let warm: Vec<Option<(Vec<f64>, Vec<f64>)>> = cold
            .iter()
            .map(|o| Some((o.x.clone(), o.z.clone())))
            .collect();
        let rewarmed = solver.solve(&classes, &seeds, &warm, &mut ws);
        for c in 0..2 {
            let want = reference_solve(
                c,
                &stoch,
                &w,
                &seeds[c],
                &config,
                Some((cold[c].x.as_slice(), cold[c].z.as_slice())),
            );
            assert_eq!(rewarmed[c].x, want.x, "class {c} warm x");
            assert_eq!(rewarmed[c].z, want.z, "class {c} warm z");
            assert_eq!(rewarmed[c].report, want.report, "class {c} warm report");
        }
    }

    #[test]
    fn batch_solves_a_subset_of_classes_in_given_order() {
        let (stoch, w) = community_setup();
        let seeds = vec![vec![0], vec![3], vec![1]];
        let solver = BatchSolver::new(&stoch, &w, TMarkConfig::default());
        let mut ws = BatchWorkspace::default();
        let out = solver.solve(&[2, 0], &seeds, &[], &mut ws);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].class_id, 2);
        assert_eq!(out[1].class_id, 0);
        let want = reference_solve(2, &stoch, &w, &seeds[2], &TMarkConfig::default(), None);
        assert_eq!(out[0].x, want.x);
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        let (stoch, w) = community_setup();
        let seeds = vec![vec![0], vec![3]];
        let solver = BatchSolver::new(&stoch, &w, TMarkConfig::default());
        let mut ws = BatchWorkspace::default();
        let a = solver.solve(&[0, 1], &seeds, &[], &mut ws);
        let b = solver.solve(&[0, 1], &seeds, &[], &mut ws);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.x, y.x);
            assert_eq!(x.z, y.z);
        }
    }
}
