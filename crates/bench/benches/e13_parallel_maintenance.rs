//! Criterion wrapper for E13: wildcard refresh on the arena store and
//! parallel batched maintenance at 1/2/4/8 threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gsview_bench::e13;

fn refresh(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_refresh");
    g.sample_size(10);
    for tuples in [e13::QUICK_TUPLES, 1_250] {
        g.bench_with_input(BenchmarkId::new("arena", tuples), &tuples, |b, &t| {
            b.iter(|| e13::measure_refresh(t))
        });
    }
    g.finish();
}

fn maintenance(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_maintenance");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &t| b.iter(|| e13::measure_parallel(e13::QUICK_TUPLES, e13::QUICK_OPS, &[t])),
        );
    }
    g.finish();
}

criterion_group!(benches, refresh, maintenance);
criterion_main!(benches);
