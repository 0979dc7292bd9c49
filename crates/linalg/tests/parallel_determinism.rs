//! Serial-vs-parallel bitwise determinism of the matvec kernels.
//!
//! `DenseMatrix::matvec_multi_into` and its `SparseMatrix` sibling
//! partition output rows over pool workers when
//! the operand crosses the internal work threshold. The contract is
//! *exact*: every output element is owned by one chunk and summed in a
//! fixed order, so the parallel result must be bit-for-bit `==` the
//! cap-1 result at any thread cap — these tests compare `f64::to_bits`,
//! never a tolerance. The adaptive work threshold is forced down to 1
//! (`pool::set_parallel_work_threshold`) so the parallel path really
//! runs on these deliberately small fixtures.
//!
//! This is an integration binary so the process-global thread cap and
//! work threshold belong to it alone; its tests take turns with them
//! through `pool_guard`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use tmark_linalg::pool;
use tmark_linalg::{DenseMatrix, SparseMatrix};

/// Serializes this binary's tests: they share the process-global thread
/// cap, work threshold and `peak_workers` gauge, so a test running beside
/// another could see its cap changed or its gauge reset mid-measurement.
/// A panicking test poisons the lock; the next one takes it anyway.
static POOL_STATE: Mutex<()> = Mutex::new(());

fn pool_guard() -> MutexGuard<'static, ()> {
    POOL_STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Forces every product in this binary through the partitioned path.
fn force_parallel() {
    pool::set_parallel_work_threshold(Some(1));
}

/// Thread caps under test: minimal parallelism and more workers than the
/// partition count of small outputs.
const CAPS: [usize; 3] = [2, 4, 7];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

fn unit(state: &mut u64) -> f64 {
    (lcg(state) % 10_000) as f64 / 10_000.0 - 0.5
}

/// A pseudo-random dense matrix.
fn big_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed;
    let mut a = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            a.set(r, c, unit(&mut state));
        }
    }
    a
}

/// A pseudo-random sparse matrix with at least `draws / 2` stored
/// entries (duplicates merge).
fn big_sparse(n: usize, draws: usize, seed: u64) -> SparseMatrix {
    let mut state = seed;
    let mut triplets = Vec::with_capacity(draws);
    for _ in 0..draws {
        let r = (lcg(&mut state) as usize) % n;
        let c = (lcg(&mut state) as usize) % n;
        triplets.push((r, c, 1.0 + unit(&mut state)));
    }
    SparseMatrix::from_triplets(n, n, &triplets).expect("coordinates in bounds")
}

fn dense_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len).map(|_| unit(&mut state)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn dense_matvec_multi_into_is_bitwise_identical_across_thread_caps() {
    let _pool = pool_guard();
    force_parallel();
    let (rows, cols, q) = (80, 64, 5);
    let a = big_dense(rows, cols, 7);
    let xs = dense_vec(cols * q, 11);

    pool::set_thread_cap(Some(1));
    let mut ys_serial = vec![0.0; rows * q];
    a.matvec_multi_into(&xs, q, &mut ys_serial).unwrap();

    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        let mut ys = vec![f64::NAN; rows * q];
        a.matvec_multi_into(&xs, q, &mut ys).unwrap();
        assert_eq!(
            bits(&ys),
            bits(&ys_serial),
            "matvec_multi_into diverged at cap {cap}"
        );
    }
    pool::set_thread_cap(None);
}

#[test]
fn sparse_matvec_multi_into_is_bitwise_identical_across_thread_caps() {
    let _pool = pool_guard();
    force_parallel();
    let (n, q) = (200, 4);
    let a = big_sparse(n, 4400, 19);
    assert!(a.nnz() >= 2048, "matrix too small to parallelize");
    let xs = dense_vec(n * q, 23);

    pool::set_thread_cap(Some(1));
    let mut ys_serial = vec![0.0; n * q];
    a.matvec_multi_into(&xs, q, &mut ys_serial).unwrap();

    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        let mut ys = vec![f64::NAN; n * q];
        a.matvec_multi_into(&xs, q, &mut ys).unwrap();
        assert_eq!(
            bits(&ys),
            bits(&ys_serial),
            "sparse matvec_multi_into diverged at cap {cap}"
        );
    }
    pool::set_thread_cap(None);
}
