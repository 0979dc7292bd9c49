//! Power iteration on column-stochastic matrices.

use tmark_linalg::{vector, DenseMatrix, LinalgError};

/// Configuration for [`power_iteration`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerIterationConfig {
    /// Stop when `‖x_t − x_{t−1}‖₁ < epsilon`.
    pub epsilon: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PowerIterationConfig {
    fn default() -> Self {
        PowerIterationConfig {
            epsilon: 1e-10,
            max_iterations: 1000,
        }
    }
}

/// Outcome of an iterative fixed-point computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Number of iterations performed.
    pub iterations: usize,
    /// `‖x_t − x_{t−1}‖₁` at the final iteration.
    pub final_residual: f64,
    /// Whether the `epsilon` threshold was reached before the cap.
    pub converged: bool,
    /// Residual after every iteration (the paper's Fig. 10 series).
    /// Producers may cap the recorded length; see
    /// [`ConvergenceReport::trace_truncated`].
    pub residual_trace: Vec<f64>,
    /// Number of residuals dropped from the head-recorded
    /// `residual_trace` because the producer's trace capacity was
    /// exhausted (0 when the trace is complete). `iterations` always
    /// counts every iteration performed, recorded or not.
    pub trace_truncated: usize,
}

/// Computes the stationary distribution of a column-stochastic matrix by
/// power iteration, starting from `x0` (which is normalized to the simplex
/// if it is not already). Returns the distribution and a convergence
/// report.
///
/// # Errors
/// Returns [`LinalgError`] if the matrix is not square or `x0` has the
/// wrong length.
pub fn power_iteration(
    p: &DenseMatrix,
    x0: &[f64],
    config: &PowerIterationConfig,
) -> Result<(Vec<f64>, ConvergenceReport), LinalgError> {
    if p.rows() != p.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "power_iteration",
            expected: (p.rows(), p.rows()),
            found: (p.rows(), p.cols()),
        });
    }
    let mut x = x0.to_vec();
    if !vector::normalize_sum_to_one(&mut x) {
        // Zero start vector: fall back to uniform.
        x = vector::uniform(p.rows());
    }
    let mut next = vec![0.0; p.rows()];
    let mut trace = Vec::new();
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    for _ in 0..config.max_iterations {
        p.matvec_multi_into(&x, 1, &mut next)?;
        // Guard against drift off the simplex.
        vector::normalize_sum_to_one(&mut next);
        residual = vector::l1_distance(&next, &x);
        trace.push(residual);
        std::mem::swap(&mut x, &mut next);
        iterations += 1;
        if residual < config.epsilon {
            break;
        }
    }
    let converged = residual < config.epsilon;
    Ok((
        x,
        ConvergenceReport {
            iterations,
            final_residual: residual,
            converged,
            residual_trace: trace,
            trace_truncated: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_chain() -> DenseMatrix {
        // Column-stochastic: from state 0 go to 1 w.p. 1; from 1 stay w.p. 0.5.
        DenseMatrix::from_rows(&[vec![0.0, 0.5], vec![1.0, 0.5]]).unwrap()
    }

    #[test]
    fn converges_to_known_stationary_distribution() {
        // pi solves pi = P pi: pi0 = 0.5 pi1, pi0 + pi1 = 1 -> (1/3, 2/3).
        let (pi, report) = power_iteration(
            &two_state_chain(),
            &[1.0, 0.0],
            &PowerIterationConfig::default(),
        )
        .unwrap();
        assert!(report.converged);
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-8);
        assert!((pi[1] - 2.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn stationary_distribution_is_fixed_point() {
        let p = two_state_chain();
        let (pi, _) = power_iteration(&p, &[0.5, 0.5], &PowerIterationConfig::default()).unwrap();
        let mapped = p.matvec(&pi).unwrap();
        assert!(vector::l1_distance(&mapped, &pi) < 1e-8);
    }

    #[test]
    fn identity_converges_immediately() {
        let p = DenseMatrix::identity(3);
        let x0 = [0.2, 0.3, 0.5];
        let (pi, report) = power_iteration(&p, &x0, &PowerIterationConfig::default()).unwrap();
        assert_eq!(report.iterations, 1);
        assert!(vector::l1_distance(&pi, &x0) < 1e-12);
    }

    #[test]
    fn zero_start_falls_back_to_uniform() {
        let p = DenseMatrix::identity(2);
        let (pi, _) = power_iteration(&p, &[0.0, 0.0], &PowerIterationConfig::default()).unwrap();
        assert_eq!(pi, vec![0.5, 0.5]);
    }

    #[test]
    fn iteration_cap_is_respected() {
        // A 2-cycle never converges without damping.
        let p = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let config = PowerIterationConfig {
            epsilon: 1e-12,
            max_iterations: 7,
        };
        let (_, report) = power_iteration(&p, &[1.0, 0.0], &config).unwrap();
        assert_eq!(report.iterations, 7);
        assert!(!report.converged);
        assert_eq!(report.residual_trace.len(), 7);
    }

    #[test]
    fn non_square_matrix_is_rejected() {
        let p = DenseMatrix::zeros(2, 3);
        assert!(power_iteration(&p, &[0.5, 0.5, 0.0], &PowerIterationConfig::default()).is_err());
    }

    #[test]
    fn residual_trace_is_monotone_for_contraction() {
        // Damped chain: residuals should decay geometrically.
        let mut p = DenseMatrix::from_rows(&[
            vec![0.6, 0.2, 0.2],
            vec![0.2, 0.6, 0.2],
            vec![0.2, 0.2, 0.6],
        ])
        .unwrap();
        assert!(p.is_column_stochastic(1e-12));
        p.normalize_columns_stochastic();
        let (_, report) =
            power_iteration(&p, &[1.0, 0.0, 0.0], &PowerIterationConfig::default()).unwrap();
        for w in report.residual_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
}
