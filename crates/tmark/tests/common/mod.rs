//! The reference transcription of Algorithm 1 for one class, kept only
//! for tests: one allocating kernel call per step, no workspace, no trace
//! cap. `BatchSolver` must reproduce it bit for bit (its column order and
//! per-column summation order are the same), which is what the
//! batch-versus-reference tests assert.
//!
//! Shared by the integration tests (`mod common;`) and by the crate's unit
//! tests, which include this file by path; both name the crate `tmark`.

use tmark::restart::{ica_refresh_restart, label_restart_vector};
use tmark::solver::{ClassStationary, FeatureWalk};
use tmark::TMarkConfig;
use tmark_linalg::vector;
use tmark_markov::ConvergenceReport;
use tmark_sparse_tensor::StochasticTensors;

/// Runs Algorithm 1 for `class_id` from the Section 4.3 start (the seed
/// indicator and a uniform `z`), or from `warm` when its shape matches.
pub fn reference_solve(
    class_id: usize,
    stoch: &StochasticTensors,
    w: &FeatureWalk,
    seeds: &[usize],
    config: &TMarkConfig,
    warm: Option<(&[f64], &[f64])>,
) -> ClassStationary {
    let (n, m) = (stoch.num_nodes(), stoch.num_relations());
    let onto_simplex = |v: &[f64]| {
        let mut v = v.to_vec();
        if !vector::normalize_sum_to_one(&mut v) {
            v = vector::uniform(v.len());
        }
        v
    };
    let mut restart = label_restart_vector(n, seeds);
    let (mut x, mut z) = match warm {
        Some((x0, z0)) if x0.len() == n && z0.len() == m => (onto_simplex(x0), onto_simplex(z0)),
        _ if seeds.is_empty() => (vector::uniform(n), vector::uniform(m)),
        _ => (restart.clone(), vector::uniform(m)),
    };
    let (alpha, beta, rel_w) = (config.alpha, config.beta(), config.relational_weight());
    let mut trace = Vec::new();
    let mut residual = f64::INFINITY;
    for t in 1..=config.max_iterations {
        if config.ica_update && t >= config.ica_start_iteration {
            ica_refresh_restart(&x, seeds, config.lambda, &mut restart);
        }
        // x_t = (1 − α − β) · O ×̄₁ x ×̄₃ z + β · W x + α · l   (Eq. 10)
        let ox = stoch.contract_o(&x, &z).expect("operand lengths match");
        let wx = w.apply(&x);
        let mut next_x: Vec<f64> = (0..n)
            .map(|i| rel_w * ox[i] + beta * wx[i] + alpha * restart[i])
            .collect();
        vector::normalize_sum_to_one(&mut next_x);
        // z_t = R ×̄₁ x_t ×̄₂ x_t   (Eq. 8, on the fresh x)
        let mut next_z = stoch.contract_r(&next_x).expect("operand length matches");
        vector::normalize_sum_to_one(&mut next_z);
        residual = vector::l1_distance(&next_x, &x) + vector::l1_distance(&next_z, &z);
        trace.push(residual);
        (x, z) = (next_x, next_z);
        if residual < config.epsilon {
            break;
        }
    }
    ClassStationary {
        class_id,
        x,
        z,
        report: ConvergenceReport {
            iterations: trace.len(),
            final_residual: residual,
            converged: residual < config.epsilon,
            residual_trace: trace,
            trace_truncated: 0,
        },
    }
}
