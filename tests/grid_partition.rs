//! End-to-end coverage of the paper's 2-D partitioning scheme: the volume
//! is cut into a grid across the two in-slice axes, so the ranks' partial
//! images are *spatially disjoint* in the intermediate plane. Composition
//! still runs the ordinary depth-ordered schedules (disjoint partials make
//! `over` order-insensitive), and the result must equal the full render.

use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::core::{Method, RtVariant};
use rotate_tiling::imaging::image::psnr;
use rotate_tiling::render::camera::Camera;
use rotate_tiling::render::datasets::Dataset;
use rotate_tiling::render::partition::{partition_2d, Subvolume};
use rotate_tiling::render::shearwarp::{render_intermediate, RenderOptions};

#[test]
fn grid_partials_composite_to_the_full_frame() {
    let vol = Dataset::Engine.generate(24, 9);
    let tf = Dataset::Engine.transfer_function();
    let camera = Camera::front(); // axis 2 ⇒ in-slice plane (x, y)
    let opts = RenderOptions {
        early_termination: 1.0,
        ..RenderOptions::square(64)
    };
    let (want, f) = render_intermediate(&Subvolume::whole(vol.clone()), &tf, &camera, &opts);
    assert_eq!(f.axis, 2);

    let parts = partition_2d(&vol, 2, 2, f.plane).unwrap();
    let partials: Vec<_> = parts
        .iter()
        .map(|p| render_intermediate(p, &tf, &camera, &opts).0)
        .collect();

    // Spatially disjoint up to the one-voxel bilinear seam.
    let overlap: usize = (0..want.len())
        .filter(|&i| {
            partials
                .iter()
                .filter(|img| !img.pixels()[i].is_blank())
                .count()
                > 1
        })
        .count();
    assert!(
        overlap < want.len() / 10,
        "grid partials should barely overlap: {overlap}"
    );

    let rt = Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    };
    for m in [rt, Method::ParallelPipelined] {
        let schedule = m.build(4, want.len()).unwrap();
        let (results, _) = Run::new(
            &ComposePlan::Schedule(schedule.clone()),
            &ComposeConfig {
                codec: CodecKind::Trle,
                root: 0,
                ..Default::default()
            },
        )
        .execute(partials.clone());
        let frame = results
            .into_iter()
            .filter_map(|r| r.unwrap().frame)
            .next()
            .unwrap();
        // Seam voxels interpolate against zero-extension on each side of a
        // cut, so compare with PSNR rather than exact equality: > 30 dB is
        // visually identical.
        let quality = psnr(&frame, &want);
        assert!(quality > 30.0, "{}: PSNR {quality:.1} dB", m.name());
    }
}

use rotate_tiling::imaging::Pixel;
