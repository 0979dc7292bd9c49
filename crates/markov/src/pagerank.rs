//! PageRank, topic-sensitive PageRank, and random walk with restart.
//!
//! T-Mark's update (Eq. 10) is exactly a tensor generalization of the
//! damped fixed point `x = (1−α) P x + α v`: with one relation and no
//! feature term it collapses to random walk with restart from the labeled
//! nodes. These matrix versions provide that collapse as a test oracle and
//! power the wvRN+RL baseline.

use tmark_linalg::{vector, DenseMatrix, LinalgError};

use crate::chain::ConvergenceReport;

/// Configuration for the damped walks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Restart (teleport) probability `α ∈ (0, 1)`.
    pub alpha: f64,
    /// Stop when `‖x_t − x_{t−1}‖₁ < epsilon`.
    pub epsilon: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            alpha: 0.15,
            epsilon: 1e-10,
            max_iterations: 1000,
        }
    }
}

/// Random walk with restart: solves `x = (1 − α) P x + α v` for a
/// column-stochastic `P` and a restart distribution `v`.
///
/// With a uniform `v` this is classic PageRank; with `v` supported on a
/// topic (or on the labeled nodes of one class, as in T-Mark) it is
/// topic-sensitive PageRank.
///
/// # Errors
/// Returns [`LinalgError`] on shape mismatches.
pub fn random_walk_with_restart(
    p: &DenseMatrix,
    restart: &[f64],
    config: &PageRankConfig,
) -> Result<(Vec<f64>, ConvergenceReport), LinalgError> {
    if p.rows() != p.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "random_walk_with_restart",
            expected: (p.rows(), p.rows()),
            found: (p.rows(), p.cols()),
        });
    }
    if restart.len() != p.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "random_walk_with_restart restart vector",
            expected: (p.rows(), 1),
            found: (restart.len(), 1),
        });
    }
    let mut v = restart.to_vec();
    if !vector::normalize_sum_to_one(&mut v) {
        v = vector::uniform(p.rows());
    }
    let mut x = v.clone();
    let mut next = vec![0.0; p.rows()];
    let mut trace = Vec::new();
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    for _ in 0..config.max_iterations {
        p.matvec_multi_into(&x, 1, &mut next)?;
        for (n, &vi) in next.iter_mut().zip(&v) {
            *n = (1.0 - config.alpha) * *n + config.alpha * vi;
        }
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

/// Classic PageRank: random walk with restart from the uniform
/// distribution.
///
/// # Errors
/// Returns [`LinalgError`] on shape mismatches.
pub fn pagerank(
    p: &DenseMatrix,
    config: &PageRankConfig,
) -> Result<(Vec<f64>, ConvergenceReport), LinalgError> {
    let v = vector::uniform(p.rows());
    random_walk_with_restart(p, &v, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-cycle plus a dangling-free structure; column stochastic.
    fn cycle3() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn pagerank_of_symmetric_cycle_is_uniform() {
        let (pr, report) = pagerank(&cycle3(), &PageRankConfig::default()).unwrap();
        assert!(report.converged);
        for &v in &pr {
            assert!((v - 1.0 / 3.0).abs() < 1e-8);
        }
    }

    #[test]
    fn rwr_solution_satisfies_fixed_point_equation() {
        let p = cycle3();
        let restart = [1.0, 0.0, 0.0];
        let config = PageRankConfig {
            alpha: 0.3,
            ..Default::default()
        };
        let (x, _) = random_walk_with_restart(&p, &restart, &config).unwrap();
        let px = p.matvec(&x).unwrap();
        for i in 0..3 {
            let rhs = 0.7 * px[i] + 0.3 * restart[i];
            assert!((x[i] - rhs).abs() < 1e-8, "fixed point violated at {i}");
        }
    }

    #[test]
    fn restart_mass_biases_toward_restart_node() {
        let p = cycle3();
        let config = PageRankConfig {
            alpha: 0.5,
            ..Default::default()
        };
        let (x, _) = random_walk_with_restart(&p, &[1.0, 0.0, 0.0], &config).unwrap();
        assert!(x[0] > x[2], "restart node should outrank the others: {x:?}");
    }

    #[test]
    fn alpha_one_returns_restart_vector() {
        // alpha = 1 means pure teleport: the walk never moves.
        let p = cycle3();
        let restart = [0.2, 0.3, 0.5];
        let config = PageRankConfig {
            alpha: 1.0,
            ..Default::default()
        };
        let (x, _) = random_walk_with_restart(&p, &restart, &config).unwrap();
        assert!(vector::l1_distance(&x, &restart) < 1e-10);
    }

    #[test]
    fn zero_restart_falls_back_to_uniform() {
        let (x, _) =
            random_walk_with_restart(&cycle3(), &[0.0; 3], &PageRankConfig::default()).unwrap();
        assert!(vector::is_stochastic(&x, 1e-9));
    }

    #[test]
    fn shape_validation() {
        let p = DenseMatrix::zeros(2, 3);
        assert!(pagerank(&p, &PageRankConfig::default()).is_err());
        let sq = DenseMatrix::identity(2);
        assert!(random_walk_with_restart(&sq, &[1.0], &PageRankConfig::default()).is_err());
    }

    #[test]
    fn damping_guarantees_convergence_on_periodic_chain() {
        // The undamped 2-cycle oscillates; any alpha > 0 fixes that.
        let p = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let config = PageRankConfig {
            alpha: 0.2,
            ..Default::default()
        };
        let (x, report) = random_walk_with_restart(&p, &[1.0, 0.0], &config).unwrap();
        assert!(report.converged);
        assert!(vector::is_stochastic(&x, 1e-9));
    }
}
