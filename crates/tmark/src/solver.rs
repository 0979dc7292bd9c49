//! The per-class output of Algorithm 1 and the solver's shared limits.
//!
//! The iteration itself lives in [`crate::batch::BatchSolver`], which runs
//! any set of classes — a single one included — in lockstep.

use tmark_markov::ConvergenceReport;

// The feature-walk operator lives in `tmark-feature-walk` (together with
// the dense/kNN/ANN backends that build it); re-exported here because the
// solver's API is stated in terms of it.
pub use tmark_feature_walk::FeatureWalk;

/// Hard cap on the recorded residual-trace length. The capacity is
/// reserved up front (in the workspace, outside the hot loop) and pushes
/// beyond the cap are dropped — counted in
/// [`ConvergenceReport::trace_truncated`] — so an adversarial
/// `max_iterations` can neither pre-reserve unbounded memory nor trigger a
/// reallocation inside the iteration loop.
pub const TRACE_CAP: usize = 4096;

/// Stationary distributions of one class run.
#[derive(Debug, Clone)]
pub struct ClassStationary {
    /// Class id this run scored.
    pub class_id: usize,
    /// Stationary node distribution `x̄` (confidence scores, sums to 1).
    pub x: Vec<f64>,
    /// Stationary link-type distribution `z̄` (relevance scores, sums to 1).
    pub z: Vec<f64>,
    /// Convergence diagnostics (the Fig. 10 residual trace).
    pub report: ConvergenceReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::community_setup;
    use crate::batch::{BatchSolver, BatchWorkspace};
    use crate::config::TMarkConfig;
    use crate::restart::label_restart_vector;
    use tmark_linalg::{vector, DenseMatrix};
    use tmark_sparse_tensor::StochasticTensors;

    /// Algorithm 1 for class 0 alone: the per-class call the fit's
    /// panic-retry path makes.
    fn solve_one(
        stoch: &StochasticTensors,
        w: &FeatureWalk,
        seeds: &[usize],
        config: &TMarkConfig,
        ws: &mut BatchWorkspace,
    ) -> ClassStationary {
        let solver = BatchSolver::new(stoch, w, *config);
        solver.solve(&[0], &[seeds.to_vec()], &[], ws).remove(0)
    }

    #[test]
    fn stationary_x_and_z_stay_on_simplex() {
        let (stoch, w) = community_setup();
        let mut ws = BatchWorkspace::default();
        let out = solve_one(&stoch, &w, &[0], &TMarkConfig::default(), &mut ws);
        assert!(vector::is_stochastic(&out.x, 1e-9), "x = {:?}", out.x);
        assert!(vector::is_stochastic(&out.z, 1e-9), "z = {:?}", out.z);
    }

    #[test]
    fn converges_within_budget_on_small_network() {
        let (stoch, w) = community_setup();
        let mut ws = BatchWorkspace::default();
        let out = solve_one(&stoch, &w, &[0], &TMarkConfig::default(), &mut ws);
        assert!(
            out.report.converged,
            "residual {}",
            out.report.final_residual
        );
        assert!(out.report.iterations < 100);
    }

    #[test]
    fn confidence_concentrates_near_the_seed_community() {
        let (stoch, w) = community_setup();
        let mut ws = BatchWorkspace::default();
        let out = solve_one(&stoch, &w, &[0], &TMarkConfig::default(), &mut ws);
        let left: f64 = out.x[..3].iter().sum();
        let right: f64 = out.x[3..].iter().sum();
        assert!(left > right * 2.0, "left {left}, right {right}");
    }

    #[test]
    fn intra_community_link_type_outranks_the_bridge() {
        let (stoch, w) = community_setup();
        let mut ws = BatchWorkspace::default();
        let out = solve_one(&stoch, &w, &[0], &TMarkConfig::default(), &mut ws);
        assert!(
            out.z[0] > out.z[1],
            "community link should outrank the bridge: z = {:?}",
            out.z
        );
    }

    #[test]
    fn empty_seed_set_still_produces_valid_distributions() {
        let (stoch, w) = community_setup();
        let mut ws = BatchWorkspace::default();
        let out = solve_one(&stoch, &w, &[], &TMarkConfig::default(), &mut ws);
        assert!(vector::is_stochastic(&out.x, 1e-9));
        assert!(vector::is_stochastic(&out.z, 1e-9));
    }

    #[test]
    fn tensor_rrcc_differs_from_tmark_on_the_same_input() {
        let (stoch, w) = community_setup();
        let mut ws = BatchWorkspace::default();
        // A permissive lambda so the refresh provably admits neighbours of
        // the seed into the restart set.
        // With alpha = 0.8 a single seed retains ~0.8 of the mass, so the
        // relative threshold must sit below neighbour confidences (~0.04).
        let config = TMarkConfig {
            lambda: 0.02,
            ..Default::default()
        };
        let tmark = solve_one(&stoch, &w, &[0], &config, &mut ws);
        let rrcc = solve_one(&stoch, &w, &[0], &config.tensor_rrcc(), &mut ws);
        // The ICA refresh admits node 1 or 2 into the restart set, so the
        // stationary distribution must differ.
        let diff = vector::l1_distance(&tmark.x, &rrcc.x);
        assert!(
            diff > 1e-6,
            "expected the ICA refresh to change the fixed point"
        );
    }

    #[test]
    fn gamma_one_reduces_to_feature_walk_with_restart() {
        // With γ = 1 the relational term vanishes; T-Mark becomes random
        // walk with restart on W, which tmark-markov computes directly.
        let (stoch, w) = community_setup();
        let config = TMarkConfig {
            gamma: 1.0,
            ica_update: false,
            epsilon: 1e-12,
            ..Default::default()
        };
        let mut ws = BatchWorkspace::default();
        let out = solve_one(&stoch, &w, &[0], &config, &mut ws);
        let wd = w.as_dense().expect("community_setup builds a dense walk");
        let rwr_config = tmark_markov::PageRankConfig {
            alpha: config.alpha,
            epsilon: 1e-12,
            max_iterations: 1000,
        };
        let restart = label_restart_vector(6, &[0]);
        let (oracle, _) =
            tmark_markov::random_walk_with_restart(wd, &restart, &rwr_config).unwrap();
        assert!(
            vector::l1_distance(&out.x, &oracle) < 1e-6,
            "gamma=1 should match RWR: {:?} vs {:?}",
            out.x,
            oracle
        );
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug-only assertion")]
    #[should_panic(expected = "feature walk application W x (Eq. 9) violated")]
    fn non_stochastic_walk_is_caught_at_apply_time() {
        // Columns sum to 2, not 1 — smuggled past the constructor check.
        let bad = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let w = FeatureWalk::from_dense_unchecked(bad);
        let _ = w.apply(&[0.5, 0.5]);
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        let (stoch, w) = community_setup();
        let mut ws = BatchWorkspace::default();
        let a = solve_one(&stoch, &w, &[0], &TMarkConfig::default(), &mut ws);
        let b = solve_one(&stoch, &w, &[0], &TMarkConfig::default(), &mut ws);
        assert_eq!(a.x, b.x);
        assert_eq!(a.z, b.z);
    }

    #[test]
    fn residual_trace_is_capped_and_truncation_is_reported() {
        // epsilon = 0 makes `residual < epsilon` unreachable, so the
        // solver runs its full budget of 5000 iterations — 904 past the
        // trace cap. The trace must stop growing at TRACE_CAP (no
        // reallocation in the hot loop) while `iterations` and
        // `trace_truncated` keep full counts.
        let (stoch, w) = community_setup();
        let config = TMarkConfig {
            epsilon: 0.0,
            max_iterations: TRACE_CAP + 904,
            ..TMarkConfig::default()
        };
        let mut ws = BatchWorkspace::default();
        let out = solve_one(&stoch, &w, &[0], &config, &mut ws);
        assert!(!out.report.converged);
        assert_eq!(out.report.iterations, TRACE_CAP + 904);
        assert_eq!(out.report.residual_trace.len(), TRACE_CAP);
        assert_eq!(out.report.trace_truncated, 904);
        // The head of the trace is recorded normally.
        assert!(out.report.residual_trace[0].is_finite());
    }

    #[test]
    fn short_runs_record_a_complete_trace() {
        let (stoch, w) = community_setup();
        let mut ws = BatchWorkspace::default();
        let out = solve_one(&stoch, &w, &[0], &TMarkConfig::default(), &mut ws);
        assert_eq!(out.report.residual_trace.len(), out.report.iterations);
        assert_eq!(out.report.trace_truncated, 0);
    }
}
