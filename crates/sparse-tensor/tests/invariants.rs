//! Property tests for the invariants layer: simplex preservation of the
//! Algorithm-1 contractions on tensors that are *guaranteed* to contain
//! dangling fibers, exercising the analytic uniform-mass correction
//! (`1/n` for `O`, `1/m` for `R`) that never materializes those fibers.

use proptest::prelude::*;
use tmark_linalg::vector::normalize_sum_to_one;
use tmark_sparse_tensor::invariants::{simplex_violation, SIMPLEX_TOL};
use tmark_sparse_tensor::{SparseTensor3, StochasticTensors};

/// Strategy: a sparse tensor whose last node and last relation carry no
/// entries — so every `(j, n−1, k)` mode-1 fiber and every `(i, j, m−1)`
/// mode-3 fiber is dangling by construction — plus matching simplex
/// vectors `x` (with mass on the dangling node) and `z`.
fn dangling_tensor_and_vectors() -> impl Strategy<Value = (SparseTensor3, Vec<f64>, Vec<f64>)> {
    (3usize..8, 2usize..5).prop_flat_map(|(n, m)| {
        // Entries avoid node n−1 and relation m−1 entirely.
        let entries =
            prop::collection::vec((0..n - 1, 0..n - 1, 0..m - 1, 0.01..5.0f64), 1..=2 * n * m);
        let x = prop::collection::vec(0.01..1.0f64, n);
        let z = prop::collection::vec(0.01..1.0f64, m);
        (Just(n), Just(m), entries, x, z).prop_map(|(n, m, entries, mut x, mut z)| {
            let t = SparseTensor3::from_entries(n, m, entries).expect("valid coordinates");
            normalize_sum_to_one(&mut x);
            normalize_sum_to_one(&mut z);
            (t, x, z)
        })
    })
}

proptest! {
    #[test]
    fn o_contraction_preserves_simplex_with_dangling_fibers(
        (t, x, z) in dangling_tensor_and_vectors()
    ) {
        let s = StochasticTensors::from_tensor(&t);
        let y = s.contract_o(&x, &z).expect("lengths match");
        prop_assert!(
            simplex_violation(&y, SIMPLEX_TOL).is_none(),
            "O ×̄₁ x ×̄₃ z left the simplex: {:?}",
            simplex_violation(&y, SIMPLEX_TOL)
        );
    }

    #[test]
    fn r_contraction_preserves_simplex_with_dangling_fibers(
        (t, x, _) in dangling_tensor_and_vectors()
    ) {
        let s = StochasticTensors::from_tensor(&t);
        let z = s.contract_r(&x).expect("lengths match");
        prop_assert!(
            simplex_violation(&z, SIMPLEX_TOL).is_none(),
            "R ×̄₁ x ×̄₂ x left the simplex: {:?}",
            simplex_violation(&z, SIMPLEX_TOL)
        );
    }

    #[test]
    fn dangling_node_mass_spreads_uniformly(
        (t, mut x, z) in dangling_tensor_and_vectors()
    ) {
        // Concentrating all mass on the dangling node exercises the pure
        // analytic path: O's dangling fibers are uniform, so the result
        // must be exactly uniform over nodes (up to rounding).
        let n = t.num_nodes();
        x.fill(0.0);
        x[n - 1] = 1.0;
        let s = StochasticTensors::from_tensor(&t);
        let y = s.contract_o(&x, &z).expect("lengths match");
        for (i, &yi) in y.iter().enumerate() {
            prop_assert!(
                (yi - 1.0 / n as f64).abs() < 1e-12,
                "y[{i}] = {yi}, expected uniform 1/{n}"
            );
        }
    }

    #[test]
    fn violation_checkers_catch_injected_corruption(
        (t, x, z) in dangling_tensor_and_vectors()
    ) {
        let s = StochasticTensors::from_tensor(&t);
        let mut y = s.contract_o(&x, &z).expect("lengths match");
        prop_assert!(simplex_violation(&y, SIMPLEX_TOL).is_none());
        // Each corruption mode the runtime layer guards against must be
        // diagnosed once injected.
        let clean = y.clone();
        y[0] = f64::NAN;
        prop_assert!(simplex_violation(&y, SIMPLEX_TOL).is_some(), "NaN undetected");
        y.copy_from_slice(&clean);
        y[0] += 0.5;
        prop_assert!(simplex_violation(&y, SIMPLEX_TOL).is_some(), "excess mass undetected");
        y.copy_from_slice(&clean);
        y[0] = -0.25;
        prop_assert!(simplex_violation(&y, SIMPLEX_TOL).is_some(), "negative mass undetected");
    }
}
