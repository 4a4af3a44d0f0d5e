//! Reference ray-caster: orthographic front-to-back ray marching.
//!
//! Slower but conceptually simpler than shear-warp and sharing none of its
//! code; compiled for tests only, as the independent cross-check of the
//! factorized renderer (the two must produce structurally similar frames).

use crate::camera::Camera;
use crate::math::Vec3;
use crate::partition::Subvolume;
use crate::shearwarp::RenderOptions;
use crate::tf::TransferFunction;
use rt_imaging::{GrayAlpha, Image, Pixel};

/// Render by ray marching with a unit step. Orthographic rays are cast
/// through every screen pixel along the camera's view direction; samples
/// are classified and composited front-to-back with early termination.
fn render_raycast(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
) -> Image<GrayAlpha> {
    let (w, h) = (opts.width, opts.height);
    let dims = sub.full;
    let rt = camera.rotation().transpose();
    let scale = camera.effective_scale(dims, w, h);
    let center = Vec3::new(
        dims.0 as f64 / 2.0,
        dims.1 as f64 / 2.0,
        dims.2 as f64 / 2.0,
    );
    let (cx, cy) = (w as f64 / 2.0, h as f64 / 2.0);
    let half_diag = Vec3::new(dims.0 as f64, dims.1 as f64, dims.2 as f64).norm() / 2.0;
    let (ox, oy, oz) = sub.offset;
    let offset = Vec3::new(ox as f64, oy as f64, oz as f64);

    Image::from_fn(w, h, |x, y| {
        let ex = (x as f64 - cx) / scale;
        let ey = (y as f64 - cy) / scale;
        let mut acc = GrayAlpha::new(0.0, 0.0);
        let mut t = -half_diag;
        while t <= half_diag {
            if acc.a >= opts.early_termination {
                break;
            }
            // Object-space sample point for eye point (ex, ey, t).
            let p = rt.mul_vec(&Vec3::new(ex, ey, t)) + center - offset;
            let scalar = sub.vol.sample(p.x, p.y, p.z);
            let s8 = scalar.round().clamp(0.0, 255.0) as u8;
            if !tf.is_transparent(s8) {
                let sample = tf.classify_premultiplied(s8);
                acc = acc.over(&sample);
            }
            t += 1.0;
        }
        acc
    })
}

mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use crate::shearwarp::render;

    fn mass(img: &Image<GrayAlpha>) -> f64 {
        img.pixels().iter().map(|p| p.a as f64).sum()
    }

    #[test]
    fn raycast_agrees_with_shear_warp_front_view() {
        // Front view, unit step: the two renderers sample almost the same
        // points and must produce closely matching frames.
        let vol = Dataset::Sphere.generate(24, 0);
        let tf = Dataset::Sphere.transfer_function();
        let sub = Subvolume::whole(vol);
        let sw = render(&sub, &tf, &Camera::front(), &RenderOptions::square(64));
        let rc = render_raycast(&sub, &tf, &Camera::front(), &RenderOptions::square(64));
        let diff: f64 = sw
            .pixels()
            .iter()
            .zip(rc.pixels())
            .map(|(a, b)| ((a.v - b.v).abs() + (a.a - b.a).abs()) as f64)
            .sum::<f64>()
            / sw.len() as f64;
        assert!(diff < 0.05, "mean abs diff {diff}");
        // Comparable alpha mass.
        let (ms, mr) = (mass(&sw), mass(&rc));
        assert!((ms - mr).abs() / ms.max(1.0) < 0.15, "{ms} vs {mr}");
    }

    #[test]
    fn rotated_view_still_structurally_similar() {
        let vol = Dataset::Sphere.generate(24, 0);
        let tf = Dataset::Sphere.transfer_function();
        let sub = Subvolume::whole(vol);
        let cam = Camera::yaw_pitch(0.4, 0.25);
        let sw = render(&sub, &tf, &cam, &RenderOptions::square(64));
        let rc = render_raycast(&sub, &tf, &cam, &RenderOptions::square(64));
        // A sphere looks the same from anywhere: masses must agree loosely.
        let (ms, mr) = (mass(&sw), mass(&rc));
        assert!((ms - mr).abs() / ms.max(1.0) < 0.2, "{ms} vs {mr}");
    }

    #[test]
    fn empty_volume_is_blank() {
        let sub = Subvolume::whole(crate::volume::Volume::zeros(8, 8, 8));
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let img = render_raycast(&sub, &tf, &Camera::front(), &RenderOptions::square(16));
        assert_eq!(img.count_non_blank(), 0);
    }
}
