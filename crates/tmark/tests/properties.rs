//! Property-based tests for the T-Mark solver: the Theorem 1–3 invariants
//! must hold on arbitrary generated networks and parameter settings, not
//! just the calibrated presets.

mod common;

use common::reference_solve;
use proptest::prelude::*;
use tmark::solver::FeatureWalk;
use tmark::{BatchSolver, BatchWorkspace, TMarkConfig, TMarkModel};
use tmark_feature_walk::feature_transition_matrix;
use tmark_hin::{Hin, HinBuilder};
use tmark_linalg::vector::is_stochastic;

/// Strategy: a random labeled HIN with at least one edge and one labeled
/// node per class.
fn random_hin() -> impl Strategy<Value = (Hin, Vec<usize>)> {
    (3usize..12, 1usize..4, 2usize..4).prop_flat_map(|(n, m, q)| {
        let edges = prop::collection::vec((0..n, 0..n, 0..m), 1..=3 * n);
        let features = prop::collection::vec(0.0..1.0f64, n * 3);
        (Just(n), Just(m), Just(q), edges, features).prop_map(|(n, m, q, edges, features)| {
            let link_names = (0..m).map(|k| format!("r{k}")).collect();
            let class_names = (0..q).map(|c| format!("c{c}")).collect();
            let mut b = HinBuilder::new(3, link_names, class_names);
            for v in 0..n {
                b.add_node(features[v * 3..(v + 1) * 3].to_vec());
                b.set_label(v, v % q).unwrap();
            }
            for (u, v, k) in edges {
                if u != v {
                    b.add_undirected_edge(u, v, k).unwrap();
                }
            }
            // Ensure at least one edge even if all pairs collided.
            b.add_undirected_edge(0, 1 % n, 0).unwrap();
            // One seed per class.
            let train: Vec<usize> = (0..q).collect();
            (b.build().unwrap(), train)
        })
    })
}

/// Strategy: a valid configuration inside the Theorem ranges.
fn valid_config() -> impl Strategy<Value = TMarkConfig> {
    (0.05..0.95f64, 0.0..=1.0f64, 0.05..=1.0f64, prop::bool::ANY).prop_map(
        |(alpha, gamma, lambda, ica)| TMarkConfig {
            alpha,
            gamma,
            lambda,
            epsilon: 1e-9,
            max_iterations: 150,
            ica_update: ica,
            ica_start_iteration: 3,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stationary_distributions_stay_on_the_simplex(
        (hin, train) in random_hin(),
        config in valid_config(),
    ) {
        let result = TMarkModel::new(config).fit(&hin, &train).unwrap();
        for c in 0..hin.num_classes() {
            let x: Vec<f64> = (0..hin.num_nodes()).map(|v| result.confidence(v, c)).collect();
            prop_assert!(is_stochastic(&x, 1e-7), "class {c}: {x:?}");
            let z_total: f64 = result.link_ranking(c).iter().map(|&(_, s)| s).sum();
            prop_assert!((z_total - 1.0).abs() < 1e-7, "class {c} z sums to {z_total}");
        }
    }

    #[test]
    fn seeds_predict_their_own_class(
        (hin, train) in random_hin(),
    ) {
        // With the strong restart and a fixed restart vector
        // (TensorRrCc), a seed's own class holds its argmax: the seed
        // keeps at least alpha of class-c mass, far above what any other
        // class run can assign it. (Under the ICA refresh the restart set
        // can grow and dilute a seed, so this is not guaranteed there.)
        let config = TMarkConfig::default().tensor_rrcc();
        let result = TMarkModel::new(config).fit(&hin, &train).unwrap();
        for &v in &train {
            let truth = hin.labels().labels_of(v)[0];
            prop_assert_eq!(result.predict_single(v), truth, "seed {}", v);
        }
    }

    #[test]
    fn fit_is_deterministic(
        (hin, train) in random_hin(),
        config in valid_config(),
    ) {
        let a = TMarkModel::new(config).fit(&hin, &train).unwrap();
        let b = TMarkModel::new(config).fit(&hin, &train).unwrap();
        prop_assert_eq!(a.confidences().as_slice(), b.confidences().as_slice());
    }

    #[test]
    fn solver_step_count_respects_the_cap(
        (hin, train) in random_hin(),
        max_iterations in 1usize..20,
    ) {
        let config = TMarkConfig {
            epsilon: 1e-300, // unreachable: force the cap to bind
            max_iterations,
            ..Default::default()
        };
        let stoch = hin.stochastic_tensors();
        let w = FeatureWalk::from_dense(feature_transition_matrix(hin.features()));
        let out = BatchSolver::new(&stoch, &w, config)
            .solve(&[0], &[train], &[], &mut BatchWorkspace::default())
            .remove(0);
        // The cap binds unless the iterate converged *exactly* (bitwise),
        // which tiny graphs do reach.
        prop_assert!(out.report.iterations <= max_iterations);
        if !out.report.converged {
            prop_assert_eq!(out.report.iterations, max_iterations);
        } else {
            prop_assert!(out.report.final_residual < config.epsilon);
        }
    }

    #[test]
    fn residual_trace_has_one_entry_per_iteration(
        (hin, train) in random_hin(),
        config in valid_config(),
    ) {
        let result = TMarkModel::new(config).fit(&hin, &train).unwrap();
        for c in 0..hin.num_classes() {
            let report = result.convergence(c);
            prop_assert_eq!(report.residual_trace.len(), report.iterations);
            if report.converged {
                prop_assert!(report.final_residual < config.epsilon);
            }
        }
    }

    #[test]
    fn batched_solver_matches_per_class_bitwise(
        (hin, train) in random_hin(),
        config in valid_config(),
    ) {
        // The lockstep batch must reproduce every per-class run bit for
        // bit: identical stationary vectors, link scores, and convergence
        // reports — on arbitrary networks and parameter settings.
        let q = hin.num_classes();
        let stoch = hin.stochastic_tensors();
        let w = FeatureWalk::from_dense(feature_transition_matrix(hin.features()));
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
        let batch = BatchSolver::new(&stoch, &w, config).solve(
            &classes,
            &seeds,
            &[],
            &mut BatchWorkspace::default(),
        );
        for (&c, out) in classes.iter().zip(&batch) {
            let seq = reference_solve(c, &stoch, &w, &seeds[c], &config, None);
            prop_assert_eq!(&out.x, &seq.x, "class {} x diverged", c);
            prop_assert_eq!(&out.z, &seq.z, "class {} z diverged", c);
            prop_assert_eq!(&out.report, &seq.report, "class {} report diverged", c);
        }
    }

    #[test]
    fn gamma_zero_ignores_features_entirely(
        (hin, train) in random_hin(),
    ) {
        // With gamma = 0 the feature matrix must not influence the fixed
        // point: scrambling the features changes nothing.
        let config = TMarkConfig { gamma: 0.0, ica_update: false, ..Default::default() };
        let base = TMarkModel::new(config).fit(&hin, &train).unwrap();

        // Rebuild the same HIN with shuffled feature rows.
        let mut b = HinBuilder::new(
            hin.feature_dim(),
            hin.link_type_names().to_vec(),
            hin.labels().class_names().to_vec(),
        );
        let n = hin.num_nodes();
        for v in 0..n {
            let mut f = hin.features().row((v + 1) % n).to_vec();
            f.reverse();
            b.add_node(f);
            for &c in hin.labels().labels_of(v) {
                b.set_label(v, c).unwrap();
            }
        }
        for e in hin.tensor().entries() {
            // Walk convention: entry (i, j) means edge j -> i; preserve
            // accumulated weights from parallel edges.
            b.add_weighted_directed_edge(e.j, e.i, e.k, e.value).unwrap();
        }
        let scrambled_hin = b.build().unwrap();
        let scrambled = TMarkModel::new(config).fit(&scrambled_hin, &train).unwrap();
        for c in 0..hin.num_classes() {
            for v in 0..n {
                prop_assert!(
                    (base.confidence(v, c) - scrambled.confidence(v, c)).abs() < 1e-9,
                    "gamma=0 run depended on features at node {v}, class {c}"
                );
            }
        }
    }
}
