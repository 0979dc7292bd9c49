//! Ranking-table benchmarks (Tables 2, 5, 9, 10): the cost of producing
//! the per-class link ranking from a fitted model, and of the fit+rank
//! pipeline the tables run, plus missing-link prediction from a fitted
//! model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tmark::{top_missing_links, LinkRanking};
use tmark_bench::{fit_once, Dataset};

fn bench_ranking_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("link_ranking");
    for (label, dataset) in [
        ("table2_dblp", Dataset::Dblp),
        ("table5_movies", Dataset::Movies),
        ("table9_nus_tagset1", Dataset::NusTagset1),
        ("table10_nus_tagset2", Dataset::NusTagset2),
    ] {
        let (hin, result) = fit_once(dataset, 0.3, 42);
        group.bench_with_input(BenchmarkId::from_parameter(label), &result, |b, result| {
            b.iter(|| {
                (0..hin.num_classes())
                    .map(|c| LinkRanking::from_scores(&result.link_scores().col(c)))
                    .collect::<Vec<_>>()
            });
        });
    }
    group.finish();
}

fn bench_fit_and_rank_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit_and_rank");
    group.sample_size(10);
    group.bench_function("table2_pipeline", |b| {
        b.iter(|| {
            let (hin, result) = fit_once(Dataset::Dblp, 0.3, 42);
            (0..hin.num_classes())
                .map(|c| result.top_links(c, 5))
                .collect::<Vec<_>>()
        });
    });
    group.finish();
}

fn bench_link_prediction(c: &mut Criterion) {
    let mut group = c.benchmark_group("link_prediction");
    group.sample_size(10);
    let (hin, result) = fit_once(Dataset::Dblp, 0.3, 7);
    group.bench_function("top_missing_links_k100", |b| {
        b.iter(|| top_missing_links(&hin, &result, 0, 100));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ranking_extraction,
    bench_fit_and_rank_pipeline,
    bench_link_prediction
);
criterion_main!(benches);
