//! One lockstep `BatchSolver` pass over all classes vs one single-class
//! pass per class (the shape the fit's panic-retry path takes). One pass
//! over the tensor nnz serves every class, so the lockstep batch should
//! win whenever `q > 1` without changing a single bit of output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tmark::solver::FeatureWalk;
use tmark::{BatchSolver, BatchWorkspace};
use tmark_bench::Dataset;
use tmark_datasets::dblp::dblp_with_size;
use tmark_feature_walk::feature_transition_matrix;

fn bench_batch_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_solver");
    for &n in &[150usize, 300, 600] {
        let hin = dblp_with_size(n, 3);
        let config = Dataset::Dblp.tmark_config();
        let (train, _) = tmark_datasets::stratified_split(&hin, 0.3, 1);
        let q = hin.num_classes();
        let seeds: Vec<Vec<usize>> = (0..q)
            .map(|cl| {
                train
                    .iter()
                    .copied()
                    .filter(|&v| hin.labels().has_label(v, cl))
                    .collect()
            })
            .collect();
        let classes: Vec<usize> = (0..q).collect();
        let stoch = hin.stochastic_tensors();
        let w = FeatureWalk::from_dense(feature_transition_matrix(hin.features()));

        let solver = BatchSolver::new(&stoch, &w, config);
        group.bench_with_input(BenchmarkId::new("per_class", n), &n, |b, _| {
            let mut ws = BatchWorkspace::default();
            b.iter(|| {
                for &cl in &classes {
                    std::hint::black_box(solver.solve(&[cl], &seeds, &[], &mut ws));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            let mut ws = BatchWorkspace::default();
            b.iter(|| std::hint::black_box(solver.solve(&classes, &seeds, &[], &mut ws)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_solver);
criterion_main!(benches);
