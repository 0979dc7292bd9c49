//! Oracle tests: in degenerate configurations T-Mark must reduce exactly
//! to classical algorithms implemented independently in `tmark-markov`.

use tmark::solver::FeatureWalk;
use tmark::{BatchSolver, BatchWorkspace, TMarkConfig};
use tmark_feature_walk::feature_transition_matrix;
use tmark_hin::{Hin, HinBuilder};
use tmark_linalg::vector::l1_distance;
use tmark_linalg::DenseMatrix;
use tmark_markov::{random_walk_with_restart, PageRankConfig};

/// A single-relation network whose aggregated chain we can feed to the
/// dense matrix oracles.
fn single_relation_hin() -> Hin {
    let mut b = HinBuilder::new(2, vec!["only".into()], vec!["a".into(), "b".into()]);
    for i in 0..8 {
        let f = if i < 4 {
            vec![1.0, 0.2]
        } else {
            vec![0.2, 1.0]
        };
        let v = b.add_node(f);
        b.set_label(v, usize::from(i >= 4)).unwrap();
    }
    for &(u, v) in &[
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 0),
    ] {
        b.add_undirected_edge(u, v, 0).unwrap();
    }
    b.build().unwrap()
}

/// Column-stochastic dense transition matrix of the single relation.
fn dense_chain(hin: &Hin) -> DenseMatrix {
    let n = hin.num_nodes();
    let mut p = DenseMatrix::zeros(n, n);
    for e in hin.tensor().entries() {
        p.add_at(e.i, e.j, e.value);
    }
    p.normalize_columns_stochastic();
    p
}

#[test]
fn gamma_zero_single_relation_tmark_is_rwr_on_the_chain() {
    // With m = 1, z is the scalar 1 and O ×̄₁ x ×̄₃ z = P x, so TensorRrCc
    // with γ = 0 is exactly random walk with restart on P.
    let hin = single_relation_hin();
    let stoch = hin.stochastic_tensors();
    let config = TMarkConfig {
        gamma: 0.0,
        alpha: 0.8,
        epsilon: 1e-12,
        max_iterations: 2000,
        ..TMarkConfig::default().tensor_rrcc()
    };
    let w = FeatureWalk::from_dense(feature_transition_matrix(hin.features()));
    let out = BatchSolver::new(&stoch, &w, config)
        .solve(&[0], &[vec![0]], &[], &mut BatchWorkspace::default())
        .remove(0);

    let p = dense_chain(&hin);
    let mut restart = vec![0.0; hin.num_nodes()];
    restart[0] = 1.0;
    let rwr_config = PageRankConfig {
        alpha: 0.8,
        epsilon: 1e-12,
        max_iterations: 2000,
    };
    let (oracle, _) = random_walk_with_restart(&p, &restart, &rwr_config).unwrap();
    assert!(
        l1_distance(&out.x, &oracle) < 1e-8,
        "T-Mark(m=1, gamma=0) diverged from RWR: {:?} vs {:?}",
        out.x,
        oracle
    );
}
