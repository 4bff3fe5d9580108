//! Criterion bench for the Figure 5 experiment: full-system simulation
//! of the Add kernel under no ordering, fences, and OrderLight at a
//! reduced job size. The regenerated figure itself comes from
//! `cargo run --release --manifest-path crates/bench/Cargo.toml --bin fig05`.

use criterion::{criterion_group, criterion_main, Criterion};
use orderlight_bench::BENCH_DATA_BYTES;
use orderlight_pim::TsSize;
use orderlight_sim::config::ExecMode;
use orderlight_sim::experiments::run_point;
use orderlight_workloads::{OrderingMode, WorkloadId};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig05_fence_overhead");
    g.sample_size(10);
    for (label, mode) in [
        ("no_fence", OrderingMode::None),
        ("fence", OrderingMode::Fence),
        ("orderlight", OrderingMode::OrderLight),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let p = run_point(
                    WorkloadId::Add,
                    TsSize::Eighth,
                    ExecMode::Pim(mode),
                    16,
                    BENCH_DATA_BYTES,
                )
                .expect("run");
                black_box(p.stats.exec_time_ms)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
