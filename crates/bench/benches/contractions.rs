//! Microbenchmarks of the tensor contractions at the heart of Algorithm 1
//! (Section 4.5: each iteration costs `O(D)` in the stored entries).
//! The nnz sweep makes the linear scaling directly visible in the
//! Criterion report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tmark_datasets::dblp::dblp_with_size;
use tmark_linalg::vector::uniform;
use tmark_sparse_tensor::StochasticTensors;

fn bench_contractions(c: &mut Criterion) {
    let mut group = c.benchmark_group("contractions");
    for &n in &[100usize, 200, 400, 800] {
        let hin = dblp_with_size(n, 1);
        let stoch = StochasticTensors::from_tensor(hin.tensor());
        let nnz = stoch.nnz();
        let x = uniform(n);
        let z = uniform(hin.num_link_types());
        let mut y = vec![0.0; n];
        let mut zr = vec![0.0; hin.num_link_types()];

        group.throughput(Throughput::Elements(nnz as u64));
        group.bench_with_input(BenchmarkId::new("contract_o", nnz), &nnz, |b, _| {
            b.iter(|| stoch.contract_o_multi_into(&x, &z, &mut y, 1).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("contract_r", nnz), &nnz, |b, _| {
            b.iter(|| stoch.contract_r_multi_into(&x, &mut zr, 1).unwrap());
        });
    }
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("normalization");
    for &n in &[200usize, 800] {
        let hin = dblp_with_size(n, 1);
        group.bench_with_input(BenchmarkId::new("from_tensor", n), &n, |b, _| {
            b.iter(|| StochasticTensors::from_tensor(hin.tensor()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_contractions, bench_normalization);
criterion_main!(benches);
