//! Criterion bench for the Figure 7 pipeline (unplanned uniform placement,
//! heterogeneous power).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scream_bench::PaperScenario;
use scream_core::ProtocolKind;

fn bench_schedule_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_uniform_schedule");
    group.sample_size(10);
    let instance = PaperScenario::uniform(5_000.0)
        .with_node_count(36)
        .instantiate(2);
    group.bench_function("centralized", |b| b.iter(|| instance.run_centralized()));
    group.bench_with_input(BenchmarkId::new("fdd", 36), &instance, |b, inst| {
        b.iter(|| inst.run_protocol(ProtocolKind::Fdd))
    });
    group.bench_with_input(BenchmarkId::new("pdd_0.8", 36), &instance, |b, inst| {
        b.iter(|| inst.run_protocol(ProtocolKind::pdd_unchecked(0.8)))
    });
    group.finish();
}

criterion_group!(benches, bench_schedule_uniform);
criterion_main!(benches);
