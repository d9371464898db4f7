//! Criterion bench for the Figure 6 pipeline (planned grid): centralized
//! GreedyPhysical, FDD and PDD on a reduced grid instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scream_bench::PaperScenario;
use scream_core::ProtocolKind;

fn bench_schedule_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_grid_schedule");
    group.sample_size(10);
    for density in [2_000.0f64, 10_000.0] {
        let instance = PaperScenario::grid(density)
            .with_node_count(36)
            .instantiate(1);
        group.bench_with_input(
            BenchmarkId::new("centralized", density as u64),
            &instance,
            |b, inst| b.iter(|| inst.run_centralized()),
        );
        group.bench_with_input(
            BenchmarkId::new("fdd", density as u64),
            &instance,
            |b, inst| b.iter(|| inst.run_protocol(ProtocolKind::Fdd)),
        );
        group.bench_with_input(
            BenchmarkId::new("pdd_0.6", density as u64),
            &instance,
            |b, inst| b.iter(|| inst.run_protocol(ProtocolKind::pdd_unchecked(0.6))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_schedule_grid);
criterion_main!(benches);
