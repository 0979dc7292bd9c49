//! Serial-vs-parallel bitwise determinism of the contraction kernels.
//!
//! The compressed-layout kernels partition their outputs over pool workers
//! when permits are free. The contract is *exact*: every output element is
//! summed by one owner in a fixed order, so the parallel result must be
//! bit-for-bit `==` the serial one at any thread cap — these tests assert
//! equality with `assert_eq!`, never a tolerance. The adaptive work
//! threshold is forced down to 1 (`pool::set_parallel_work_threshold`) so
//! the parallel path really runs at caps > 1 on these small fixtures.
//!
//! This is an integration binary so the process-global thread cap and
//! work threshold belong to it alone; its tests take turns with them
//! through `pool_guard`. Even so, the assertions would hold under any
//! concurrent cap change — that is the point of the contract.

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;
use tmark_linalg::pool;
use tmark_linalg::vector::normalize_sum_to_one;
use tmark_sparse_tensor::{SparseTensor3, StochasticTensors};

/// Serializes this binary's tests: they share the process-global thread
/// cap, work threshold and `peak_workers` gauge, so a test running beside
/// another could see its cap changed or its gauge reset mid-measurement.
/// A panicking test poisons the lock; the next one takes it anyway.
static POOL_STATE: Mutex<()> = Mutex::new(());

fn pool_guard() -> MutexGuard<'static, ()> {
    POOL_STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Forces every contraction in this binary through the partitioned path.
fn force_parallel() {
    pool::set_parallel_work_threshold(Some(1));
}

/// Thread caps under test: forced-serial, minimal parallelism, and more
/// workers than the partition count of small outputs.
const CAPS: [usize; 3] = [1, 2, 7];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// A pseudo-random tensor with far more stored entries than the kernels'
/// parallelism threshold, plus guaranteed dangling fibers (node `n - 1`
/// never appears as a source, so `(n - 1, k)` columns all dangle).
fn big_tensor(n: usize, m: usize, draws: usize, seed: u64) -> SparseTensor3 {
    let mut state = seed;
    let mut entries = Vec::with_capacity(draws);
    for _ in 0..draws {
        let i = (lcg(&mut state) as usize) % n;
        let j = (lcg(&mut state) as usize) % (n - 1);
        let k = (lcg(&mut state) as usize) % m;
        let v = 1.0 + (lcg(&mut state) % 1000) as f64 / 250.0;
        entries.push((i, j, k, v));
    }
    SparseTensor3::from_entries(n, m, entries).expect("coordinates in bounds")
}

fn simplex(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut v: Vec<f64> = (0..len)
        .map(|_| 0.5 + (lcg(&mut state) % 1000) as f64 / 500.0)
        .collect();
    assert!(normalize_sum_to_one(&mut v));
    v
}

fn simplex_block(len: usize, q: usize, seed: u64) -> Vec<f64> {
    let mut block = Vec::with_capacity(len * q);
    for c in 0..q {
        block.extend_from_slice(&simplex(len, seed + c as u64));
    }
    block
}

#[test]
fn batched_contractions_are_bitwise_identical_across_caps() {
    let _pool = pool_guard();
    force_parallel();
    let (n, m, q) = (199, 5, 4);
    let s = StochasticTensors::from_tensor(&big_tensor(n, m, 4400, 17));
    assert!(s.nnz() >= 2048, "tensor too small to exercise parallelism");
    let xs = simplex_block(n, q, 31);
    let zs = simplex_block(m, q, 47);

    pool::set_thread_cap(Some(1));
    let mut ys_serial = vec![0.0; n * q];
    s.contract_o_multi_into(&xs, &zs, &mut ys_serial, q)
        .unwrap();
    let mut zs_serial = vec![0.0; m * q];
    s.contract_r_multi_into(&xs, &mut zs_serial, q).unwrap();

    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        let mut ys = vec![f64::NAN; n * q];
        s.contract_o_multi_into(&xs, &zs, &mut ys, q).unwrap();
        assert_eq!(ys, ys_serial, "contract_o_multi_into diverged at cap {cap}");
        let mut zb = vec![f64::NAN; m * q];
        s.contract_r_multi_into(&xs, &mut zb, q).unwrap();
        assert_eq!(zb, zs_serial, "contract_r_multi_into diverged at cap {cap}");

        // The batched kernels also stay column-equal to the single-vector
        // kernels at every cap (the per-element summation order is shared).
        for c in 0..q {
            let single = s
                .contract_o(&xs[c * n..(c + 1) * n], &zs[c * m..(c + 1) * m])
                .unwrap();
            assert_eq!(&ys[c * n..(c + 1) * n], single.as_slice(), "class {c}");
        }
    }
    pool::set_thread_cap(None);
}

#[test]
fn dangling_fiber_corrections_survive_parallel_partitioning() {
    let _pool = pool_guard();
    force_parallel();
    // A tensor whose mass is concentrated on few fibers: most of the
    // probability flows through the analytic dangling correction, the part
    // of the kernel that is computed serially and applied per chunk.
    let (n, m) = (300, 4);
    let mut entries = Vec::new();
    let mut state = 5u64;
    for _ in 0..3000 {
        // Sources restricted to the first 10 nodes: all other (j, k)
        // columns and the vast majority of (i, j) pairs dangle.
        let i = (lcg(&mut state) as usize) % n;
        let j = (lcg(&mut state) as usize) % 10;
        let k = (lcg(&mut state) as usize) % m;
        entries.push((i, j, k, 1.0));
    }
    let s = StochasticTensors::from_tensor(
        &SparseTensor3::from_entries(n, m, entries).expect("coordinates in bounds"),
    );
    assert!(s.nnz() >= 2048, "tensor too small to exercise parallelism");
    // Mass concentrated on dangling sources.
    let mut x = vec![0.0; n];
    for (t, xv) in x.iter_mut().enumerate() {
        *xv = if t >= 10 { 1.0 } else { 0.0 };
    }
    assert!(normalize_sum_to_one(&mut x));
    let z = simplex(m, 3);

    pool::set_thread_cap(Some(1));
    let y_serial = s.contract_o(&x, &z).unwrap();
    let z_serial = s.contract_r(&x).unwrap();
    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        assert_eq!(s.contract_o(&x, &z).unwrap(), y_serial, "cap {cap}");
        assert_eq!(s.contract_r(&x).unwrap(), z_serial, "cap {cap}");
    }
    pool::set_thread_cap(None);
}

proptest! {
    // Each case builds a >2048-nnz tensor, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary tensors above the parallelism threshold and arbitrary
    /// simplex operands, the parallel kernels equal the serial ones
    /// exactly — including the nnz-balanced partition boundaries chosen
    /// for whatever sparsity pattern the generator produced.
    #[test]
    fn parallel_kernels_equal_serial_bitwise(
        n in 64usize..160,
        m in 2usize..6,
        seed in any::<u64>(),
    ) {
        let _pool = pool_guard();
        force_parallel();
        let s = StochasticTensors::from_tensor(&big_tensor(n, m, 3000, seed));
        prop_assert!(s.nnz() >= 2048, "generator should clear the threshold");
        let x = simplex(n, seed ^ 0xa5a5);
        let z = simplex(m, seed ^ 0x5a5a);
        pool::set_thread_cap(Some(1));
        let y_serial = s.contract_o(&x, &z).unwrap();
        let z_serial = s.contract_r(&x).unwrap();
        for cap in CAPS {
            pool::set_thread_cap(Some(cap));
            prop_assert_eq!(&s.contract_o(&x, &z).unwrap(), &y_serial, "cap {}", cap);
            prop_assert_eq!(&s.contract_r(&x).unwrap(), &z_serial, "cap {}", cap);
        }
        pool::set_thread_cap(None);
    }
}
