//! Criterion micro-benchmark: the top-k queue (the heap that stands in for
//! the shift-register module) under different insertion mixes.

use boss_core::TopK;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn scores(n: usize, rising: bool) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761) % 10_000;
            if rising {
                i as f32 + (h as f32 / 10_000.0)
            } else {
                h as f32 / 100.0
            }
        })
        .collect()
}

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk");
    for &k in &[10usize, 100, 1000] {
        for (label, rising) in [("random", false), ("adversarial-rising", true)] {
            let data = scores(50_000, rising);
            group.throughput(Throughput::Elements(data.len() as u64));
            group.bench_with_input(BenchmarkId::new(label, k), &data, |b, data| {
                b.iter(|| {
                    let mut q = TopK::new(k);
                    for (doc, &s) in data.iter().enumerate() {
                        q.offer(black_box(doc as u32), black_box(s));
                    }
                    q.into_hits().len()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
