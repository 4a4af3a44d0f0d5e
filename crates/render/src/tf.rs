//! Transfer functions: classify scalars into opacity and luminance.
//!
//! The renderer composites *premultiplied* gray pixels, so a classified
//! sample contributes `(α·L, α)`. Transfer functions are 256-entry lookup
//! tables built from piecewise-linear control points — the standard
//! formulation for 8-bit CT/MR volumes, and cheap enough for the shear-warp
//! inner loop.

use rt_imaging::GrayAlpha;
use serde::{Deserialize, Serialize};

/// A classified sample: straight luminance and opacity, both in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Classified {
    /// Luminance (before premultiplication).
    pub luminance: f32,
    /// Opacity.
    pub opacity: f32,
}

/// A 256-entry scalar classification table.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    table: Vec<Classified>,
    /// Per-slice opacity correction baked in by the caller when sampling
    /// rate differs from 1 voxel/step (kept for introspection).
    pub step_scale: f32,
}

fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

impl TransferFunction {
    /// Build from piecewise-linear control points
    /// `(scalar, luminance, opacity)`, sorted by scalar. Values outside the
    /// first/last control points clamp.
    pub fn from_points(points: &[(u8, f32, f32)]) -> Self {
        assert!(!points.is_empty(), "need at least one control point");
        let last = points[points.len() - 1];
        let mut table = Vec::with_capacity(256);
        for s in 0..=255u16 {
            let s = s as u8;
            let entry = match points.iter().position(|&(ps, _, _)| ps >= s) {
                Some(0) => Classified {
                    luminance: points[0].1,
                    opacity: points[0].2,
                },
                None => Classified {
                    luminance: last.1,
                    opacity: last.2,
                },
                Some(i) => {
                    let (s0, l0, o0) = points[i - 1];
                    let (s1, l1, o1) = points[i];
                    let t = if s1 == s0 {
                        0.0
                    } else {
                        (s as f32 - s0 as f32) / (s1 as f32 - s0 as f32)
                    };
                    Classified {
                        luminance: lerp(l0, l1, t),
                        opacity: lerp(o0, o1, t),
                    }
                }
            };
            table.push(entry);
        }
        Self {
            table,
            step_scale: 1.0,
        }
    }

    /// A simple opacity ramp: fully transparent below `lo`, linearly rising
    /// to `max_opacity` at `hi`, luminance tracking the scalar.
    pub fn ramp(lo: u8, hi: u8, max_opacity: f32) -> Self {
        Self::from_points(&[
            (lo, lo as f32 / 255.0, 0.0),
            (hi, hi as f32 / 255.0, max_opacity),
            (255, 1.0, max_opacity),
        ])
    }

    /// Classify a scalar.
    #[inline]
    pub fn classify(&self, scalar: u8) -> Classified {
        self.table[scalar as usize]
    }

    /// Classify into a premultiplied gray pixel (the compositing unit).
    #[inline]
    pub fn classify_premultiplied(&self, scalar: u8) -> GrayAlpha {
        let c = self.table[scalar as usize];
        GrayAlpha::new(c.luminance * c.opacity, c.opacity)
    }

    /// True if the scalar is fully transparent — the renderer's skip test.
    #[inline]
    pub fn is_transparent(&self, scalar: u8) -> bool {
        self.table[scalar as usize].opacity <= 0.0
    }

    /// The largest `t` such that every scalar in `0..=t` is fully
    /// transparent; `None` if scalar 0 is visible.
    ///
    /// Interpolated samples are convex combinations of voxel scalars (and
    /// of the 0 read outside the grid), so a sample whose taps are all
    /// `≤ t` classifies transparent whatever the rest of the table looks
    /// like. This is the renderers' proof that a region can be skipped
    /// without sampling; `None` means nothing can.
    pub(crate) fn transparent_prefix(&self) -> Option<u8> {
        (0..=255u8).take_while(|&s| self.is_transparent(s)).last()
    }

    /// Transparent at zero AND in a mid-range window: two disjoint
    /// transparent runs, of which only the first is a prefix — the table
    /// the renderers' skip tests are held to.
    #[cfg(test)]
    pub(crate) fn two_windows() -> Self {
        Self::from_points(&[
            (0, 0.0, 0.0),
            (50, 0.3, 0.4),
            (100, 0.5, 0.0),
            (120, 0.5, 0.0),
            (200, 0.5, 0.5),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_classifies_monotonically() {
        let tf = TransferFunction::ramp(50, 200, 0.8);
        assert!(tf.is_transparent(0));
        assert!(tf.is_transparent(50));
        assert!(!tf.is_transparent(51));
        let mid = tf.classify(125);
        let hi = tf.classify(200);
        assert!(mid.opacity > 0.0 && mid.opacity < hi.opacity);
        assert!((hi.opacity - 0.8).abs() < 1e-6);
        // Beyond the last point clamps.
        assert!((tf.classify(255).opacity - 0.8).abs() < 1e-6);
    }

    #[test]
    fn premultiplied_invariant_holds() {
        let tf = TransferFunction::ramp(0, 255, 1.0);
        for s in [0u8, 1, 77, 128, 255] {
            let p = tf.classify_premultiplied(s);
            assert!(p.v <= p.a + 1e-6, "scalar {s}: {p:?}");
        }
    }

    #[test]
    fn control_points_are_interpolated_exactly() {
        let tf = TransferFunction::from_points(&[(10, 0.2, 0.1), (20, 0.6, 0.5)]);
        let at10 = tf.classify(10);
        assert!((at10.luminance - 0.2).abs() < 1e-6);
        assert!((at10.opacity - 0.1).abs() < 1e-6);
        let at15 = tf.classify(15);
        assert!((at15.luminance - 0.4).abs() < 1e-6);
        assert!((at15.opacity - 0.3).abs() < 1e-6);
        // Below the first point clamps to it.
        assert!((tf.classify(0).opacity - 0.1).abs() < 1e-6);
    }

    #[test]
    fn transparent_prefix_stops_at_the_first_visible_scalar() {
        assert_eq!(
            TransferFunction::ramp(50, 200, 0.8).transparent_prefix(),
            Some(50)
        );
        // A second transparent window further up does not extend it.
        assert_eq!(
            TransferFunction::two_windows().transparent_prefix(),
            Some(0)
        );
        let all = TransferFunction::from_points(&[(0, 0.5, 0.0)]);
        assert_eq!(all.transparent_prefix(), Some(255));
        let none = TransferFunction::from_points(&[(0, 0.5, 0.1)]);
        assert_eq!(none.transparent_prefix(), None);
    }

    #[test]
    #[should_panic(expected = "control point")]
    fn empty_points_panic() {
        TransferFunction::from_points(&[]);
    }
}
