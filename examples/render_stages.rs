//! Stage timings of the shear-warp pipeline: the repo benchmark's orbit
//! (the Engine volume at 128³ cut into four slabs, 512² frames, early
//! termination off, sixteen cameras over a quarter orbit) with each stage
//! of every frame timed on its own — each slab's sweep, the reference
//! composite of the four depth-ordered partials and the warp — plus the
//! compiled copy the sweep and the warp ran and an FNV-1a hash of the first
//! orbit's screens, so a renderer change can be sized stage by stage and
//! checked for bit-identity in one run (seed 1 hashes to `b2f7befc6a15930c`).
//!
//! The sweeps and the composite run on one thread; the warp splits its
//! screen rows over the cores it may use, so pin the process to one core
//! (`taskset -c 0`) to time it alone.
//!
//! Run with: `cargo run --release --example render_stages [-- ROUNDS [SEED]]`
//! (defaults 3 and 1).

use rotate_tiling::imaging::image::reference_composite;
use rotate_tiling::pvr::{orbit_cameras, OrbitConfig};
use rotate_tiling::render::camera::factorize;
use rotate_tiling::render::partition::depth_order;
use rotate_tiling::render::shearwarp::{kernel_copy, warp_to_screen, PreparedSlab, RenderOptions};
use rotate_tiling::render::{partition_1d, Dataset};
use std::time::Instant;

const P: usize = 4;

/// Run `f`, adding its wall time in milliseconds to `total`.
fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed().as_secs_f64() * 1e3;
    out
}

fn main() {
    let mut args = std::env::args()
        .skip(1)
        .map(|a| a.parse::<u64>().expect("ROUNDS and SEED are integers"));
    let rounds = args.next().unwrap_or(3).max(1);
    let seed = args.next().unwrap_or(1);
    let volume = Dataset::Engine.generate(128, seed);
    let tf = Dataset::Engine.transfer_function();
    let opts = RenderOptions {
        early_termination: 1.0,
        ..RenderOptions::square(512)
    };
    let cameras = orbit_cameras(&OrbitConfig::quarter(16));

    // Slabs are classified once per principal axis, as a pooled pipeline
    // keeps them; that is not timed.
    let mut prepared: Option<(usize, Vec<PreparedSlab>)> = None;
    let (mut slab_ms, mut composite_ms, mut warp_ms) = ([0.0; P], 0.0, 0.0);
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..rounds {
        for (_, camera) in &cameras {
            let f = factorize(camera, volume.dims(), opts.width, opts.height);
            if prepared.as_ref().map(|(axis, _)| *axis) != Some(f.axis) {
                let parts = partition_1d(&volume, P, f.axis).expect("the volume splits into P");
                let slabs = parts.into_iter().map(|s| PreparedSlab::new(s, &tf, f.axis));
                prepared = Some((f.axis, slabs.collect()));
            }
            let slabs = &prepared.as_ref().expect("prepared above").1;
            let partials: Vec<_> = depth_order(slabs, &f)
                .into_iter()
                .map(|i| timed(&mut slab_ms[i], || slabs[i].render(camera, &opts).0))
                .collect();
            let inter = timed(&mut composite_ms, || reference_composite(&partials))
                .expect("the partials share one shape");
            let screen = timed(&mut warp_ms, || warp_to_screen(&inter, &f, &opts));
            if round == 0 {
                for p in screen.pixels() {
                    let word = u64::from(p.v.to_bits()) << 32 | u64::from(p.a.to_bits());
                    fnv = (fnv ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }

    let frames = (rounds as usize * cameras.len()) as f64;
    let per_frame = |ms: f64| format!("{:.3}", ms / frames);
    let slabs: Vec<String> = slab_ms.iter().map(|&ms| per_frame(ms)).collect();
    println!(
        "Engine 128³, P = {P}, 512², {} cameras × {rounds} rounds, seed {seed}",
        cameras.len()
    );
    println!("sweep and warp copy   {}", kernel_copy());
    println!("slab sweep ms/frame   {}", slabs.join(" "));
    println!("sweeps total          {}", per_frame(slab_ms.iter().sum()));
    println!("reference composite   {}", per_frame(composite_ms));
    println!("warp                  {}", per_frame(warp_ms));
    println!("screens fnv           {fnv:016x}");
}
