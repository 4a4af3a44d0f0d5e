//! Wall-clock benchmarks of the composition stage itself: full threaded
//! runs of each method over an 8-rank machine (this measures the *library*,
//! not the SP2 — virtual times come from the figure binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rt_compress::CodecKind;
use rt_core::exec::ComposeConfig;
use rt_core::method::CompositionMethod;
use rt_core::{BinarySwap, DirectSend, ParallelPipelined, RotateTiling};
use rt_core::{ComposePlan, Run};
use rt_imaging::pixel::{GrayAlpha8, Pixel};
use rt_imaging::Image;

const P: usize = 8;
const A: usize = 1 << 14;

fn partials() -> Vec<Image<GrayAlpha8>> {
    (0..P)
        .map(|r| {
            Image::from_fn(A, 1, |x, _| {
                if x / (A / P) == r || x / (A / P) == (r + 1) % P {
                    GrayAlpha8::new((60 + 13 * (x % 13) + 3 * r) as u8, 170)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

fn bench_methods(c: &mut Criterion) {
    let methods: Vec<(&str, Box<dyn CompositionMethod>)> = vec![
        ("bs", Box::new(BinarySwap::new())),
        ("pp", Box::new(ParallelPipelined::new())),
        ("ds", Box::new(DirectSend::new())),
        ("rt2n4", Box::new(RotateTiling::two_n(4))),
        ("rtn3", Box::new(RotateTiling::n(3))),
    ];
    let inputs = partials();
    let mut group = c.benchmark_group("composition");
    group.throughput(Throughput::Elements(A as u64));
    group.sample_size(20);
    for (name, m) in &methods {
        let plan = ComposePlan::Schedule(m.build(P, A).unwrap());
        for codec in [CodecKind::Raw, CodecKind::Trle] {
            let config = ComposeConfig {
                codec,
                root: 0,
                gather: true,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(*name, codec.name()), &plan, |b, plan| {
                b.iter(|| {
                    let (results, _) = Run::new(plan, &config).execute(inputs.clone());
                    for r in results {
                        r.unwrap();
                    }
                });
            });
        }
    }
    group.finish();
}

fn bench_schedule_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_gen");
    group.bench_function("rt2n4_p32", |b| {
        b.iter(|| RotateTiling::two_n(4).build(32, 512 * 512).unwrap());
    });
    group.bench_function("rt2n8_p40", |b| {
        b.iter(|| RotateTiling::two_n(8).build(40, 512 * 512).unwrap());
    });
    group.bench_function("verify_rt2n4_p32", |b| {
        let s = RotateTiling::two_n(4).build(32, 512 * 512).unwrap();
        b.iter(|| rt_core::schedule::verify_schedule(&s).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_methods, bench_schedule_generation);
criterion_main!(benches);
