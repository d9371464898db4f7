//! Criterion bench for the heavy-demand fast path: batched run-level
//! placement swept over demand magnitude on the fixed 64-link instance of
//! [`scream_bench::heavy_demand_instance`].
//!
//! `batched` is `GreedyPhysical::schedule` (run-length schedules, one probe
//! per pattern per link): its cost must be flat from demand 1 to 10⁶, since
//! the work is O(#links · #patterns) whatever each link demands.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scream_bench::{heavy_demand_instance, heavy_demand_instance_on_channels};
use scream_scheduling::GreedyPhysical;

fn bench_heavy_demand(c: &mut Criterion) {
    let mut group = c.benchmark_group("heavy_demand_64_links");
    group.sample_size(10);
    for demand in [1u64, 100, 10_000, 1_000_000] {
        let (env, demands) = heavy_demand_instance(demand);
        group.bench_with_input(
            BenchmarkId::new("batched", demand),
            &demands,
            |b, demands| b.iter(|| GreedyPhysical::paper_baseline().schedule(&env, demands)),
        );
    }
    group.finish();
}

/// Channel ablation on the same fixed 64-link instance at demand 10⁴: the
/// channel-aware scheduler's cost per channel count, with the resulting
/// schedule length (shrinking ~1/C — 12·10⁴ slots at C = 1, 6·10⁴ at C = 2,
/// 3·10⁴ at C = 4) reported on stderr alongside the timings.
fn bench_multi_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("heavy_demand_channels");
    group.sample_size(10);
    for channels in [1usize, 2, 4] {
        let (env, demands) = heavy_demand_instance_on_channels(10_000, channels);
        let length = GreedyPhysical::paper_baseline()
            .schedule(&env, &demands)
            .length();
        eprintln!("# heavy_demand_channels: C={channels} -> {length} slots");
        group.bench_with_input(
            BenchmarkId::new("batched", channels),
            &demands,
            |b, demands| b.iter(|| GreedyPhysical::paper_baseline().schedule(&env, demands)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_heavy_demand, bench_multi_channel);
criterion_main!(benches);
