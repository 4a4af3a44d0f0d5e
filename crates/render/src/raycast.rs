//! Reference ray-caster: orthographic front-to-back ray marching.
//!
//! Slower but conceptually simpler than shear-warp; used to cross-validate
//! the factorized renderer (the two must produce structurally similar
//! frames) and available to the examples as a quality baseline (Levoy '90).

use crate::camera::Camera;
use crate::math::Vec3;
use crate::partition::Subvolume;
use crate::shearwarp::RenderOptions;
use crate::tf::TransferFunction;
use rt_imaging::{GrayAlpha, Image, Pixel};

/// Ray marching parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaycastOptions {
    /// Frame options shared with the shear-warp renderer.
    pub frame: RenderOptions,
    /// Step along the ray in voxel units.
    pub step: f64,
}

impl RaycastOptions {
    /// Square frame with unit step.
    pub fn square(n: usize) -> Self {
        Self {
            frame: RenderOptions::square(n),
            step: 1.0,
        }
    }
}

/// Render by ray marching. Orthographic rays are cast through every screen
/// pixel along the camera's view direction; samples are classified and
/// composited front-to-back with early termination.
pub fn render_raycast(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RaycastOptions,
) -> Image<GrayAlpha> {
    let (w, h) = (opts.frame.width, opts.frame.height);
    let dims = sub.full;
    let r = camera.rotation();
    let rt = r.transpose();
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
            if acc.a >= opts.frame.early_termination {
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
            t += opts.step;
        }
        acc
    })
}

/// Ray marching with min–max-octree empty-space skipping (Levoy '90).
///
/// When the octree brick under the current sample has a scalar range that
/// is entirely transparent under `tf`, the ray jumps to the brick's exit
/// in whole steps, visiting exactly the sample positions the plain marcher
/// would have found transparent — output is **identical** to
/// [`render_raycast`] (asserted by tests), for every transfer function: a
/// brick is skipped only when its scalars all lie in the table's
/// transparent prefix, which every interpolated sample then does too.
pub fn render_raycast_accel(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RaycastOptions,
    tree: &crate::octree::MinMaxOctree,
) -> Image<GrayAlpha> {
    let transparent = tf.transparent_prefix();
    let (w, h) = (opts.frame.width, opts.frame.height);
    let dims = sub.full;
    let r = camera.rotation();
    let rt = r.transpose();
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
    // Object-space ray direction (unit, since rt is a rotation).
    let dir = rt.mul_vec(&Vec3::new(0.0, 0.0, 1.0));
    let leaf = tree.leaf_size() as f64;

    Image::from_fn(w, h, |x, y| {
        let ex = (x as f64 - cx) / scale;
        let ey = (y as f64 - cy) / scale;
        let p0 = rt.mul_vec(&Vec3::new(ex, ey, -half_diag)) + center - offset;
        let mut acc = GrayAlpha::new(0.0, 0.0);
        let mut t = -half_diag;
        while t <= half_diag {
            if acc.a >= opts.frame.early_termination {
                break;
            }
            let s = t + half_diag; // distance along the ray from p0
            let p = p0 + dir * s;
            let range = tree.leaf_range(p.x, p.y, p.z);
            if transparent.is_some_and(|t| range.max <= t) {
                // The whole (dilated) brick is transparent: jump to its
                // exit, in whole step multiples so sample positions match
                // the plain marcher.
                let mut t_exit = f64::INFINITY;
                for (pc, dc) in [(p.x, dir.x), (p.y, dir.y), (p.z, dir.z)] {
                    if dc.abs() < 1e-12 {
                        continue;
                    }
                    let brick = (pc.max(0.0) / leaf).floor();
                    let boundary = if dc > 0.0 {
                        (brick + 1.0) * leaf - pc
                    } else {
                        // Distance back to the brick's low face.
                        pc - brick * leaf
                    };
                    t_exit = t_exit.min(boundary / dc.abs());
                }
                let skip = (t_exit / opts.step).floor().max(1.0);
                t += skip * opts.step;
                continue;
            }
            let scalar = sub.vol.sample(p.x, p.y, p.z);
            let s8 = scalar.round().clamp(0.0, 255.0) as u8;
            if !tf.is_transparent(s8) {
                let sample = tf.classify_premultiplied(s8);
                acc = acc.over(&sample);
            }
            t += opts.step;
        }
        acc
    })
}

#[cfg(test)]
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
        let rc = render_raycast(&sub, &tf, &Camera::front(), &RaycastOptions::square(64));
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
        let rc = render_raycast(&sub, &tf, &cam, &RaycastOptions::square(64));
        // A sphere looks the same from anywhere: masses must agree loosely.
        let (ms, mr) = (mass(&sw), mass(&rc));
        assert!((ms - mr).abs() / ms.max(1.0) < 0.2, "{ms} vs {mr}");
    }

    #[test]
    fn empty_volume_is_blank() {
        let sub = Subvolume::whole(crate::volume::Volume::zeros(8, 8, 8));
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let img = render_raycast(&sub, &tf, &Camera::front(), &RaycastOptions::square(16));
        assert_eq!(img.count_non_blank(), 0);
    }
}

#[cfg(test)]
mod octree_tests {
    use super::*;
    use crate::datasets::Dataset;
    use crate::octree::MinMaxOctree;

    #[test]
    fn octree_raycast_is_pixel_exact() {
        for dataset in [Dataset::Engine, Dataset::Brain, Dataset::Sphere] {
            let vol = dataset.generate(20, 5);
            let tf = dataset.transfer_function();
            let tree = MinMaxOctree::build(&vol, 4);
            let sub = Subvolume::whole(vol);
            for camera in [Camera::front(), Camera::yaw_pitch(0.5, -0.3)] {
                for step in [1.0, 0.5] {
                    let opts = RaycastOptions {
                        frame: RenderOptions::square(48),
                        step,
                    };
                    let plain = render_raycast(&sub, &tf, &camera, &opts);
                    let fast = render_raycast_accel(&sub, &tf, &camera, &opts, &tree);
                    assert_eq!(plain, fast, "{} {camera:?} step {step}", dataset.name());
                }
            }
        }
    }

    #[test]
    fn octree_raycast_exact_on_slabs() {
        let vol = Dataset::Head.generate(20, 5);
        let tf = Dataset::Head.transfer_function();
        let cam = Camera::yaw_pitch(0.3, 0.2);
        let opts = RaycastOptions::square(40);
        for part in crate::partition::partition_1d(&vol, 3, 2).unwrap() {
            let tree = MinMaxOctree::build(&part.vol, 4);
            let plain = render_raycast(&part, &tf, &cam, &opts);
            let fast = render_raycast_accel(&part, &tf, &cam, &opts, &tree);
            assert_eq!(plain, fast);
        }
    }

    #[test]
    fn octree_raycast_is_exact_for_a_two_window_tf() {
        // Only bricks inside the prefix window may be skipped, and the
        // frame must not change.
        let tf = TransferFunction::two_windows();
        let vol = Dataset::Engine.generate(20, 5);
        let tree = MinMaxOctree::build(&vol, 4);
        let sub = Subvolume::whole(vol);
        let opts = RaycastOptions::square(40);
        let camera = Camera::yaw_pitch(0.5, -0.3);
        let plain = render_raycast(&sub, &tf, &camera, &opts);
        assert!(plain.count_non_blank() > 0);
        assert_eq!(
            plain,
            render_raycast_accel(&sub, &tf, &camera, &opts, &tree)
        );
    }
}
