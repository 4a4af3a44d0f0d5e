//! Shaded color rendering through the same parallel composition machinery.
//!
//! The schedules, executor and codecs are generic over the pixel type, so
//! the gray 2001 pipeline extends to shaded RGBA unchanged: six ranks
//! ray-cast slabs of each dataset into premultiplied color partials, the
//! rotate-tiling method composites them over the multicomputer (TRLE
//! messages), and the root writes a PPM.
//!
//! Run with: `cargo run --release --example color_views`

use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::method::CompositionMethod;
use rotate_tiling::core::RotateTiling;
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::imaging::io::save_ppm;
use rotate_tiling::imaging::{Image, Rgba};
use rotate_tiling::render::camera::Camera;
use rotate_tiling::render::datasets::Dataset;
use rotate_tiling::render::partition::{depth_order, partition_1d, Subvolume};
use rotate_tiling::render::raycast::RaycastOptions;
use rotate_tiling::render::shade::{render_color, ColorTransferFunction, Light};
use rotate_tiling::render::shearwarp::{render_intermediate, RenderOptions};

fn main() {
    let p = 6;
    let camera = Camera::yaw_pitch(0.5, 0.25);
    let light = Light::default();
    let opts = RaycastOptions {
        frame: RenderOptions::square(320),
        step: 0.75,
    };

    for dataset in Dataset::PAPER {
        println!("rendering {} in color on {p} ranks...", dataset.name());
        let volume = dataset.generate(96, 2001);
        let ctf = ColorTransferFunction::preset(dataset);

        // Partition along the view's principal axis (probe the gray
        // factorization for the axis; the color rays share the view).
        let probe = Subvolume::whole(volume.clone());
        let (_, f) =
            render_intermediate(&probe, &dataset.transfer_function(), &camera, &opts.frame);
        let parts = partition_1d(&volume, p, f.axis).expect("partition");
        let order = depth_order(&parts, &f);

        // Each rank renders its slab; partials sorted nearest-first.
        let partials: Vec<Image<Rgba>> = order
            .iter()
            .map(|&i| render_color(&parts[i], &ctf, &camera, &light, &opts))
            .collect();
        let blank: f64 = partials
            .iter()
            .map(|img| 1.0 - img.count_non_blank() as f64 / img.len() as f64)
            .sum::<f64>()
            / p as f64;
        println!("  mean blank fraction {blank:.2}");

        // Composite in parallel with rotate-tiling + TRLE (16-byte RGBA
        // pixels compress on their blank structure exactly like gray).
        let schedule = RotateTiling::two_n(4)
            .build(p, partials[0].len())
            .expect("schedule");
        let (results, trace) = Run::new(
            &ComposePlan::Schedule(schedule.clone()),
            &ComposeConfig {
                codec: CodecKind::Trle,
                root: 0,
                gather: true,
                ..Default::default()
            },
        )
        .execute(partials);
        let frame = results
            .into_iter()
            .filter_map(|r| r.expect("compose").frame)
            .next()
            .expect("root frame");
        println!(
            "  composited: {} messages, {} bytes on the wire",
            trace.message_count(),
            trace.bytes_sent()
        );
        let name = format!("color_{}.ppm", dataset.name());
        save_ppm(&frame, &name).expect("write PPM");
        println!("  wrote {name}");
    }
}
