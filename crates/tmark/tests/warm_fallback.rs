//! Release-profile warm-start fallback contract.
//!
//! `fit_warm` documents that a shape-stale warm start (the network grew or
//! shrank since `previous` was fitted) silently falls back to a cold start
//! for the affected class. These tests hand shape-mismatched warm pairs
//! *directly* to [`BatchSolver::solve`] — below the model-level guard,
//! over a class block and over single classes — so they fail loudly if the
//! runtime fallback
//! ever regresses to a debug-only assertion. They carry no
//! `cfg(debug_assertions)` gates on purpose: the CI release-mode test leg
//! runs them against the optimized build, where `debug_assert!` is
//! compiled out and only a real runtime check can save the solve.

use tmark::solver::FeatureWalk;
use tmark::{BatchSolver, BatchWorkspace, TMarkConfig};
use tmark_feature_walk::feature_transition_matrix;
use tmark_linalg::DenseMatrix;
use tmark_sparse_tensor::{SparseTensor3, StochasticTensors};

/// Two three-node communities bridged by one edge of a second link type.
fn community_setup() -> (StochasticTensors, FeatureWalk) {
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

#[test]
fn batch_solver_cold_starts_classes_with_stale_warm_shapes() {
    let (stoch, w) = community_setup();
    let config = TMarkConfig {
        epsilon: 1e-12,
        ..TMarkConfig::default()
    };
    let seeds = vec![vec![0], vec![3]];
    let classes = vec![0, 1];
    let solver = BatchSolver::new(&stoch, &w, config);
    let mut ws = BatchWorkspace::default();
    let cold = solver.solve(&classes, &seeds, &[], &mut ws);
    // Warm pairs sized for a *different* network: n + 3 nodes, m + 1
    // relations — exactly what a stale snapshot looks like after the
    // network was mutated. Every class must fall back to its cold start.
    let n = stoch.num_nodes();
    let m = stoch.num_relations();
    let stale: Vec<Option<(Vec<f64>, Vec<f64>)>> = (0..2)
        .map(|_| {
            Some((
                vec![1.0 / (n + 3) as f64; n + 3],
                vec![1.0 / (m + 1) as f64; m + 1],
            ))
        })
        .collect();
    let fallen_back = solver.solve(&classes, &seeds, &stale, &mut ws);
    for c in 0..2 {
        assert_eq!(fallen_back[c].x, cold[c].x, "class {c} x must cold-start");
        assert_eq!(fallen_back[c].z, cold[c].z, "class {c} z must cold-start");
        assert_eq!(
            fallen_back[c].report, cold[c].report,
            "class {c} report must match the cold solve"
        );
    }
}

#[test]
fn batch_solver_mixes_valid_and_stale_warm_starts_per_class() {
    let (stoch, w) = community_setup();
    let config = TMarkConfig {
        epsilon: 1e-12,
        ..TMarkConfig::default()
    };
    let seeds = vec![vec![0], vec![3]];
    let classes = vec![0, 1];
    let solver = BatchSolver::new(&stoch, &w, config);
    let mut ws = BatchWorkspace::default();
    let cold = solver.solve(&classes, &seeds, &[], &mut ws);
    // Class 0 gets a genuine warm start; class 1 a stale one. The fallback
    // is per class, so 0 must match its warm-started solve alone and 1
    // must match its cold solve.
    let n = stoch.num_nodes();
    let mixed = vec![
        Some((cold[0].x.clone(), cold[0].z.clone())),
        Some((vec![0.5; n + 1], vec![0.5; 1])),
    ];
    let out = solver.solve(&classes, &seeds, &mixed, &mut ws);
    let warm_want = solver.solve(&[0], &seeds, &mixed, &mut ws).remove(0);
    assert_eq!(out[0].x, warm_want.x, "valid warm start must be honoured");
    assert_eq!(out[0].report, warm_want.report);
    assert_eq!(out[1].x, cold[1].x, "stale warm start must cold-start");
    assert_eq!(out[1].report, cold[1].report);
}

#[test]
fn sequential_solver_cold_starts_on_stale_warm_shapes() {
    let (stoch, w) = community_setup();
    let config = TMarkConfig {
        epsilon: 1e-12,
        ..TMarkConfig::default()
    };
    let seeds = [vec![0usize]];
    let solver = BatchSolver::new(&stoch, &w, config);
    let mut ws = BatchWorkspace::default();
    let cold = solver.solve(&[0], &seeds, &[], &mut ws).remove(0);
    let n = stoch.num_nodes();
    let m = stoch.num_relations();
    // Wrong n, wrong m, and both wrong — each must equal the cold solve.
    let stale_x = vec![1.0 / (n - 1) as f64; n - 1];
    let good_x = vec![1.0 / n as f64; n];
    let stale_z = vec![1.0 / (m + 2) as f64; m + 2];
    let good_z = vec![1.0 / m as f64; m];
    for (x0, z0) in [
        (stale_x.as_slice(), good_z.as_slice()),
        (good_x.as_slice(), stale_z.as_slice()),
        (stale_x.as_slice(), stale_z.as_slice()),
    ] {
        let warm = [Some((x0.to_vec(), z0.to_vec()))];
        let out = solver.solve(&[0], &seeds, &warm, &mut ws).remove(0);
        assert_eq!(out.x, cold.x, "stale shapes must fall back to cold x");
        assert_eq!(out.z, cold.z, "stale shapes must fall back to cold z");
        assert_eq!(out.report, cold.report, "fallback must match cold report");
    }
}

#[test]
fn empty_warm_vectors_are_a_plain_cold_start() {
    // The degenerate stale shape: zero-length vectors (e.g. a snapshot
    // serialized before any fit). Must behave exactly like `warm: &[]`.
    let (stoch, w) = community_setup();
    let config = TMarkConfig::default();
    let seeds = vec![vec![0], vec![3]];
    let classes = vec![0, 1];
    let solver = BatchSolver::new(&stoch, &w, config);
    let mut ws = BatchWorkspace::default();
    let cold = solver.solve(&classes, &seeds, &[], &mut ws);
    let empties = vec![
        Some((Vec::new(), Vec::new())),
        Some((Vec::new(), Vec::new())),
    ];
    let out = solver.solve(&classes, &seeds, &empties, &mut ws);
    for c in 0..2 {
        assert_eq!(out[c].x, cold[c].x, "class {c} x");
        assert_eq!(out[c].report, cold[c].report, "class {c} report");
    }
}
