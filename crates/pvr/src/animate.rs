//! Orbit animation: the views of a moving camera and the per-frame
//! statistics of rendering them — the interactive-rendering scenario that
//! motivates the paper (composition cost is paid *per frame*, which is why
//! its constant factors matter).
//!
//! Each frame re-derives the depth permutation for the current view (the
//! principal axis and traversal direction change as the camera orbits);
//! [`crate::stream`] renders an orbit and reports [`FrameStats`] per frame,
//! so regressions in view-dependent code paths show up as timing or
//! correctness jumps across the sweep.

use serde::{Deserialize, Serialize};

/// An orbit sweep specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitConfig {
    /// Number of frames.
    pub frames: usize,
    /// Yaw of the first frame (radians).
    pub start_yaw: f64,
    /// Yaw of the last frame (radians).
    pub end_yaw: f64,
    /// Fixed pitch (radians).
    pub pitch: f64,
}

impl OrbitConfig {
    /// A quarter orbit in `frames` steps.
    pub fn quarter(frames: usize) -> Self {
        Self {
            frames,
            start_yaw: 0.0,
            end_yaw: std::f64::consts::FRAC_PI_2,
            pitch: 0.2,
        }
    }
}

/// Per-frame statistics of an orbit run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Frame index.
    pub index: usize,
    /// Camera yaw of this frame.
    pub yaw: f64,
    /// Bytes shipped (post-codec).
    pub bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Physical rank at each depth position for this view.
    pub rank_of_depth: Vec<usize>,
}

/// The camera of every frame of `orbit`, with its yaw: index `i` gets yaw
/// interpolated linearly from `start_yaw` to `end_yaw` (a single-frame
/// orbit sits at `start_yaw`).
pub fn orbit_cameras(orbit: &OrbitConfig) -> Vec<(f64, rt_render::camera::Camera)> {
    (0..orbit.frames)
        .map(|i| {
            let t = if orbit.frames == 1 {
                0.0
            } else {
                i as f64 / (orbit.frames - 1) as f64
            };
            let yaw = orbit.start_yaw + t * (orbit.end_yaw - orbit.start_yaw);
            (yaw, rt_render::camera::Camera::yaw_pitch(yaw, orbit.pitch))
        })
        .collect()
}
