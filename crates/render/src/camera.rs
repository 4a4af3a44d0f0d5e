//! Orthographic cameras and the shear-warp factorization of the viewing
//! transformation (Lacroute & Levoy, SIGGRAPH'94).
//!
//! The factorization rewrites `View = Warp₂D ∘ Shear₃D ∘ Permute`: voxel
//! slices perpendicular to the *principal axis* (the object-space axis most
//! parallel to the viewing direction) are translated by a per-slice shear
//! and composited into an axis-aligned **intermediate image**; a single 2-D
//! affine warp then maps the intermediate image to the screen. The
//! composition stage of the paper operates on intermediate/warped frames
//! produced this way.
//!
//! The warp is fitted numerically from three point correspondences rather
//! than symbolic expansion: any voxel on slice 0 has known intermediate
//! coordinates and a known screen projection, and the shear construction
//! guarantees the map is affine — so three points determine it exactly
//! (asserted in tests to machine precision for a fourth point).

use crate::math::{Affine2, Mat3, Vec3};
use serde::{Deserialize, Serialize};

/// An orthographic camera: extrinsic rotation plus isotropic screen scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    /// Rotation about the object y axis (radians), applied first.
    pub yaw: f64,
    /// Rotation about the object x axis (radians), applied second.
    pub pitch: f64,
    /// Rotation about the view z axis (radians), applied last.
    pub roll: f64,
    /// Screen pixels per voxel (0 ⇒ auto-fit to the target frame).
    pub scale: f64,
}

impl Camera {
    /// Looking down the +z object axis, auto-fit scale.
    pub fn front() -> Self {
        Self {
            yaw: 0.0,
            pitch: 0.0,
            roll: 0.0,
            scale: 0.0,
        }
    }

    /// Construct from yaw/pitch (radians), auto-fit scale.
    pub fn yaw_pitch(yaw: f64, pitch: f64) -> Self {
        Self {
            yaw,
            pitch,
            roll: 0.0,
            scale: 0.0,
        }
    }

    /// The rotation matrix `R` (object → eye space).
    pub fn rotation(&self) -> Mat3 {
        Mat3::rot_z(self.roll)
            .mul(&Mat3::rot_x(self.pitch))
            .mul(&Mat3::rot_y(self.yaw))
    }

    /// The viewing direction expressed in object space (`R⁻¹·e_z`).
    pub fn view_dir_object(&self) -> Vec3 {
        self.rotation()
            .transpose()
            .mul_vec(&Vec3::new(0.0, 0.0, 1.0))
    }

    /// Effective scale for a `(w, h)` frame over a volume of `dims`.
    pub fn effective_scale(&self, dims: (usize, usize, usize), w: usize, h: usize) -> f64 {
        if self.scale > 0.0 {
            return self.scale;
        }
        let diag = Vec3::new(dims.0 as f64, dims.1 as f64, dims.2 as f64).norm();
        0.85 * (w.min(h) as f64) / diag
    }
}

/// The factorized viewing transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct Factorization {
    /// Principal (slice) axis in object space: 0 = x, 1 = y, 2 = z.
    pub axis: usize,
    /// The two in-slice axes `(i, j)` (ascending, excluding `axis`).
    pub plane: (usize, usize),
    /// True if front-to-back order traverses slices from high index down.
    pub flip: bool,
    /// Per-slice shear `(du/dk, dv/dk)` in intermediate coordinates.
    pub shear: (f64, f64),
    /// Translation making all sheared slices land at non-negative
    /// intermediate coordinates.
    pub origin: (f64, f64),
    /// Intermediate image size (pixels).
    pub inter_size: (usize, usize),
    /// The 2-D warp mapping intermediate coordinates to screen pixels.
    pub warp: Affine2,
    /// Number of slices along the principal axis.
    pub slices: usize,
}

impl Factorization {
    /// Intermediate coordinates of voxel `(vi, vj)` on slice `k`, where
    /// `vi`/`vj` index the in-slice axes [`Factorization::plane`].
    pub fn intermediate_of(&self, vi: f64, vj: f64, k: f64) -> (f64, f64) {
        (
            vi + self.shear.0 * k + self.origin.0,
            vj + self.shear.1 * k + self.origin.1,
        )
    }

    /// Slice indices in front-to-back order.
    pub fn slice_order(&self) -> Box<dyn Iterator<Item = usize>> {
        if self.flip {
            Box::new((0..self.slices).rev())
        } else {
            Box::new(0..self.slices)
        }
    }

    /// Depth-sort key for a position `k` along the principal axis: smaller
    /// keys are nearer the viewer.
    pub fn depth_key(&self, k: usize) -> isize {
        if self.flip {
            -(k as isize)
        } else {
            k as isize
        }
    }
}

/// The in-slice axes `(i, j)` of principal axis `axis`: the other two,
/// ascending ([`Factorization::plane`]).
pub(crate) fn plane_of(axis: usize) -> (usize, usize) {
    match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// Factorize `camera` for a volume of `dims` rendered to a `w×h` frame.
// The warp is fitted from slice 0's origin and unit steps along `i` and
// `j`, shifted by one finite translation: never collinear.
#[allow(clippy::expect_used)]
pub fn factorize(
    camera: &Camera,
    dims: (usize, usize, usize),
    w: usize,
    h: usize,
) -> Factorization {
    let r = camera.rotation();
    let dir = camera.view_dir_object();
    let axis = dir.argmax_abs();
    let (i_axis, j_axis) = plane_of(axis);
    let dk = dir.get(axis);
    let shear = (-dir.get(i_axis) / dk, -dir.get(j_axis) / dk);
    let flip = dk < 0.0;

    let n = [dims.0 as f64, dims.1 as f64, dims.2 as f64];
    let slices = match axis {
        0 => dims.0,
        1 => dims.1,
        _ => dims.2,
    };
    let kmax = (slices.max(1) - 1) as f64;
    let u_lo = (shear.0 * kmax).min(0.0);
    let v_lo = (shear.1 * kmax).min(0.0);
    let origin = (-u_lo, -v_lo);
    let inter_w = (n[i_axis] + shear.0.abs() * kmax).ceil() as usize + 1;
    let inter_h = (n[j_axis] + shear.1.abs() * kmax).ceil() as usize + 1;

    // Fit the warp from three correspondences on slice 0.
    let scale = camera.effective_scale(dims, w, h);
    let center = Vec3::new(n[0] / 2.0, n[1] / 2.0, n[2] / 2.0);
    let screen_center = (w as f64 / 2.0, h as f64 / 2.0);
    let project = |vi: f64, vj: f64| -> (f64, f64) {
        // Object point on slice k = 0 with in-slice coordinates (vi, vj).
        let mut p = [0.0f64; 3];
        p[i_axis] = vi;
        p[j_axis] = vj;
        p[axis] = 0.0;
        let q = r.mul_vec(&(Vec3::new(p[0], p[1], p[2]) - center));
        (q.x * scale + screen_center.0, q.y * scale + screen_center.1)
    };
    let srcs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)].map(|(vi, vj)| (vi + origin.0, vj + origin.1));
    let dsts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)].map(|(vi, vj)| project(vi, vj));
    let warp = Affine2::from_points(srcs, dsts).expect("slice basis points are never collinear");

    Factorization {
        axis,
        plane: (i_axis, j_axis),
        flip,
        shear,
        origin,
        inter_size: (inter_w, inter_h),
        warp,
        slices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_aligned_view_has_no_shear() {
        let f = factorize(&Camera::front(), (32, 32, 32), 128, 128);
        assert_eq!(f.axis, 2);
        assert_eq!(f.plane, (0, 1));
        assert!(!f.flip);
        assert!(f.shear.0.abs() < 1e-12 && f.shear.1.abs() < 1e-12);
        assert_eq!(f.slices, 32);
    }

    #[test]
    fn principal_axis_tracks_the_view() {
        // Yaw 90°: looking down the x axis.
        let f = factorize(
            &Camera::yaw_pitch(std::f64::consts::FRAC_PI_2, 0.0),
            (32, 32, 32),
            128,
            128,
        );
        assert_eq!(f.axis, 0);
        // Pitch 90°: looking down the y axis.
        let f = factorize(
            &Camera::yaw_pitch(0.0, std::f64::consts::FRAC_PI_2),
            (32, 32, 32),
            128,
            128,
        );
        assert_eq!(f.axis, 1);
    }

    #[test]
    fn warp_collapses_view_rays() {
        // The defining property of the factorization: two voxels on the
        // same view ray have the same intermediate coordinates, and the
        // warp maps intermediate coordinates to their common screen
        // projection.
        let cam = Camera::yaw_pitch(0.35, -0.25);
        let dims = (40, 40, 40);
        let f = factorize(&cam, dims, 200, 200);
        let r = cam.rotation();
        let scale = cam.effective_scale(dims, 200, 200);
        let center = Vec3::new(20.0, 20.0, 20.0);

        // A voxel on slice k, and the screen projection computed directly.
        let screen_of = |p: Vec3| {
            let q = r.mul_vec(&(p - center));
            (q.x * scale + 100.0, q.y * scale + 100.0)
        };
        for (vi, vj, k) in [(3.0, 7.0, 0.0), (10.0, 2.0, 13.0), (25.5, 30.25, 39.0)] {
            let mut p = [0.0; 3];
            p[f.plane.0] = vi;
            p[f.plane.1] = vj;
            p[f.axis] = k;
            let (u, v) = f.intermediate_of(vi, vj, k);
            let (wx, wy) = f.warp.apply(u, v);
            let (sx, sy) = screen_of(Vec3::new(p[0], p[1], p[2]));
            assert!(
                (wx - sx).abs() < 1e-9 && (wy - sy).abs() < 1e-9,
                "voxel ({vi},{vj},{k}): warp ({wx},{wy}) vs direct ({sx},{sy})"
            );
        }
    }

    #[test]
    fn intermediate_coordinates_stay_non_negative() {
        for (yaw, pitch) in [
            (0.4, 0.3),
            (-0.4, 0.3),
            (0.4, -0.3),
            (-0.4, -0.3),
            (2.8, 0.6),
        ] {
            let f = factorize(&Camera::yaw_pitch(yaw, pitch), (30, 20, 25), 100, 100);
            for k in [0, f.slices - 1] {
                let (u, v) = f.intermediate_of(0.0, 0.0, k as f64);
                assert!(
                    u >= -1e-9 && v >= -1e-9,
                    "yaw {yaw} pitch {pitch}: ({u},{v})"
                );
                let ni = [30.0, 20.0, 25.0][f.plane.0];
                let nj = [30.0, 20.0, 25.0][f.plane.1];
                let (u, v) = f.intermediate_of(ni, nj, k as f64);
                assert!(
                    u <= f.inter_size.0 as f64 + 1e-9 && v <= f.inter_size.1 as f64 + 1e-9,
                    "({u},{v}) vs {:?}",
                    f.inter_size
                );
            }
        }
    }

    #[test]
    fn flip_reverses_slice_order() {
        // Yaw by π: looking down −z.
        let f = factorize(
            &Camera::yaw_pitch(std::f64::consts::PI, 0.0),
            (8, 8, 8),
            64,
            64,
        );
        assert_eq!(f.axis, 2);
        assert!(f.flip);
        let order: Vec<usize> = f.slice_order().collect();
        assert_eq!(order[0], 7);
        assert_eq!(*order.last().unwrap(), 0);
        assert!(f.depth_key(7) < f.depth_key(0));
    }

    #[test]
    fn auto_scale_fits_the_frame() {
        let cam = Camera::front();
        let s = cam.effective_scale((64, 64, 64), 512, 512);
        // Volume diagonal times scale must fit in 512 px.
        let diag = (3.0f64).sqrt() * 64.0;
        assert!(diag * s <= 512.0);
        assert!(diag * s >= 0.5 * 512.0);
        // Explicit scale is respected.
        let cam = Camera {
            scale: 2.0,
            ..Camera::front()
        };
        assert_eq!(cam.effective_scale((64, 64, 64), 512, 512), 2.0);
    }
}
