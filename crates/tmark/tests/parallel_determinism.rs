//! End-to-end solver determinism across thread caps.
//!
//! The fit runs one lockstep [`BatchSolver`] pass whose kernels draw
//! workers from the bounded pool. These tests pin the promise users
//! actually rely on: a fit, a batch solve, an ICA-refreshed run, and a
//! warm-started run each produce *bitwise identical* stationary
//! distributions at every thread cap. The fixture network is sized so the
//! dense `W` and the tensor both clear the kernels' internal parallelism
//! thresholds — at caps > 1 the parallel code paths genuinely execute.

mod common;

use common::reference_solve;
use tmark::solver::FeatureWalk;
use tmark::{BatchSolver, BatchWorkspace, TMarkConfig, TMarkModel};
use tmark_feature_walk::feature_transition_matrix;
use tmark_hin::{Hin, HinBuilder};
use tmark_linalg::pool;

const CAPS: [usize; 3] = [1, 2, 7];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// A deterministic pseudo-random HIN big enough that the dense `W`
/// (n² = 67 600 cells) and the tensor (≥ 2048 stored entries) both take
/// the partitioned parallel path when permits are available.
fn big_hin() -> (Hin, Vec<usize>) {
    let (n, m, q, d) = (260usize, 3usize, 3usize, 4usize);
    let mut state = 99u64;
    let link_names = (0..m).map(|k| format!("r{k}")).collect();
    let class_names = (0..q).map(|c| format!("c{c}")).collect();
    let mut b = HinBuilder::new(d, link_names, class_names);
    for v in 0..n {
        let feats: Vec<f64> = (0..d)
            .map(|_| 0.05 + (lcg(&mut state) % 1000) as f64 / 1000.0)
            .collect();
        b.add_node(feats);
        b.set_label(v, v % q).unwrap();
    }
    let mut edges = 0usize;
    while edges < 2200 {
        let u = (lcg(&mut state) as usize) % n;
        let v = (lcg(&mut state) as usize) % n;
        let k = (lcg(&mut state) as usize) % m;
        if u != v {
            b.add_undirected_edge(u, v, k).unwrap();
            edges += 1;
        }
    }
    // 18 labeled seeds spread over the classes.
    let train: Vec<usize> = (0..18).collect();
    (b.build().unwrap(), train)
}

fn ica_config() -> TMarkConfig {
    TMarkConfig {
        ica_update: true,
        ica_start_iteration: 2,
        max_iterations: 60,
        ..TMarkConfig::default()
    }
}

#[test]
fn fit_is_bitwise_identical_across_thread_caps() {
    let (hin, train) = big_hin();
    let model = TMarkModel::new(ica_config());

    pool::set_thread_cap(Some(1));
    let baseline = model.fit(&hin, &train).unwrap();

    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        let result = model.fit(&hin, &train).unwrap();
        assert_eq!(
            result.confidences().as_slice(),
            baseline.confidences().as_slice(),
            "confidences diverged at cap {cap}"
        );
        assert_eq!(
            result.link_scores().as_slice(),
            baseline.link_scores().as_slice(),
            "link scores diverged at cap {cap}"
        );
        for c in 0..hin.num_classes() {
            assert_eq!(
                result.convergence(c).iterations,
                baseline.convergence(c).iterations,
                "iteration count diverged for class {c} at cap {cap}"
            );
        }
    }
    pool::set_thread_cap(None);
}

#[test]
fn batch_solver_matches_reference_loop_at_every_cap() {
    let (hin, train) = big_hin();
    let stoch = hin.stochastic_tensors();
    let w = FeatureWalk::from_dense(feature_transition_matrix(hin.features()));
    let config = ica_config();
    let q = hin.num_classes();
    let seeds: Vec<Vec<usize>> = (0..q)
        .map(|c| {
            train
                .iter()
                .copied()
                .filter(|&v| hin.labels().single_label_of(v) == Some(c))
                .collect()
        })
        .collect();
    let classes: Vec<usize> = (0..q).collect();
    let warm: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; q];

    pool::set_thread_cap(Some(1));
    let serial: Vec<_> = (0..q)
        .map(|c| reference_solve(c, &stoch, &w, &seeds[c], &config, None))
        .collect();

    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        let solver = BatchSolver::new(&stoch, &w, config);
        let mut bws = BatchWorkspace::default();
        let batch = solver.solve(&classes, &seeds, &warm, &mut bws);
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.class_id, s.class_id);
            assert_eq!(b.x, s.x, "x diverged for class {} at cap {cap}", b.class_id);
            assert_eq!(b.z, s.z, "z diverged for class {} at cap {cap}", b.class_id);
            assert_eq!(
                b.report.iterations, s.report.iterations,
                "iterations diverged for class {} at cap {cap}",
                b.class_id
            );
        }
    }
    pool::set_thread_cap(None);
}

#[test]
fn warm_started_solves_are_bitwise_identical_across_caps() {
    let (hin, train) = big_hin();
    let stoch = hin.stochastic_tensors();
    let w = FeatureWalk::from_dense(feature_transition_matrix(hin.features()));
    let config = ica_config();
    let seeds: Vec<usize> = train
        .iter()
        .copied()
        .filter(|&v| hin.labels().single_label_of(v) == Some(0))
        .collect();

    let solver = BatchSolver::new(&stoch, &w, config);
    let seeds = [seeds];
    pool::set_thread_cap(Some(1));
    let mut ws = BatchWorkspace::default();
    let cold = solver.solve(&[0], &seeds, &[], &mut ws).remove(0);
    let warm_start = [Some((cold.x.clone(), cold.z.clone()))];
    let warm_serial = solver.solve(&[0], &seeds, &warm_start, &mut ws).remove(0);

    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        let mut ws = BatchWorkspace::default();
        let warm = solver.solve(&[0], &seeds, &warm_start, &mut ws).remove(0);
        assert_eq!(warm.x, warm_serial.x, "warm x diverged at cap {cap}");
        assert_eq!(warm.z, warm_serial.z, "warm z diverged at cap {cap}");
        assert_eq!(
            warm.report.iterations, warm_serial.report.iterations,
            "warm iterations diverged at cap {cap}"
        );
    }
    pool::set_thread_cap(None);
}
