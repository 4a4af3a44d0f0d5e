//! Rendering-stage benchmarks: shear-warp versus the reference ray-caster,
//! the slab render and the warp at the repo benchmark's shape, and the
//! synthetic dataset generators.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rt_render::camera::{factorize, Camera};
use rt_render::datasets::Dataset;
use rt_render::octree::MinMaxOctree;
use rt_render::partition::{partition_1d, Subvolume};
use rt_render::raycast::{render_raycast, render_raycast_accel, RaycastOptions};
use rt_render::shearwarp::{render, render_intermediate, warp_to_screen, RenderOptions};

fn bench_renderers(c: &mut Criterion) {
    let n = 48;
    let vol = Dataset::Engine.generate(n, 7);
    let tf = Dataset::Engine.transfer_function();
    let sub = Subvolume::whole(vol);
    let cam = Camera::yaw_pitch(0.35, 0.2);
    let opts = RenderOptions::square(128);

    let mut group = c.benchmark_group("render");
    group.sample_size(20);
    group.throughput(Throughput::Elements((n * n * n) as u64));
    group.bench_function("shear_warp_48", |b| {
        b.iter(|| render(&sub, &tf, &cam, &opts));
    });
    group.bench_function("raycast_48", |b| {
        b.iter(|| {
            render_raycast(
                &sub,
                &tf,
                &cam,
                &RaycastOptions {
                    frame: opts,
                    step: 1.0,
                },
            )
        });
    });
    let (inter, f) = render_intermediate(&sub, &tf, &cam, &opts);
    group.bench_function("warp_only", |b| {
        b.iter(|| warp_to_screen(&inter, &f, &opts));
    });

    // Octree empty-space skipping (pixel-exact; the win comes from the ~90%
    // empty space of the engine dataset).
    let tree = MinMaxOctree::build(&sub.vol, 4);
    group.bench_function("raycast_48_octree", |b| {
        b.iter(|| {
            render_raycast_accel(
                &sub,
                &tf,
                &cam,
                &RaycastOptions {
                    frame: opts,
                    step: 1.0,
                },
                &tree,
            )
        });
    });
    group.finish();
}

/// What the repo benchmark's `render.slab_ms` / `render.warp_ms` time: one of
/// four Engine-128³ slabs into a 512² frame, early in the quarter orbit
/// (slices along z, voxel scanlines contiguous) and late in it (slices
/// along x, scanlines strided).
fn bench_pipeline_shape(c: &mut Criterion) {
    let vol = Dataset::Engine.generate(128, 7);
    let tf = Dataset::Engine.transfer_function();
    let opts = RenderOptions::paper();
    let mut group = c.benchmark_group("render_512");
    group.sample_size(20);
    for (name, yaw) in [("axis2", 0.2), ("axis0", 1.4)] {
        let cam = Camera::yaw_pitch(yaw, 0.2);
        let f = factorize(&cam, vol.dims(), opts.width, opts.height);
        let slabs = partition_1d(&vol, 4, f.axis).unwrap();
        group.bench_function(format!("slab_of_4_{name}"), |b| {
            b.iter(|| render_intermediate(&slabs[1], &tf, &cam, &opts));
        });
        let (inter, f) = render_intermediate(&Subvolume::whole(vol.clone()), &tf, &cam, &opts);
        group.bench_function(format!("warp_{name}"), |b| {
            b.iter(|| warp_to_screen(&inter, &f, &opts));
        });
    }
    group.finish();
}

fn bench_datasets(c: &mut Criterion) {
    let mut group = c.benchmark_group("datasets");
    group.sample_size(10);
    for ds in Dataset::PAPER {
        group.bench_function(ds.name(), |b| {
            b.iter(|| ds.generate(48, 7));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_renderers,
    bench_pipeline_shape,
    bench_datasets
);
criterion_main!(benches);
